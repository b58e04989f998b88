#ifndef TASTI_CORE_INDEX_H_
#define TASTI_CORE_INDEX_H_

/// \file index.h
/// The TASTI index (paper Algorithm 1 and Figure 1b): per-record
/// embeddings, annotated cluster representatives, and min-k distances from
/// every record to its nearest representatives.
///
/// Typical usage:
///
///   auto dataset = data::MakeNightStreet(opts);
///   labeler::SimulatedLabeler oracle(&dataset);
///   labeler::CachingLabeler cache(&oracle);
///   auto index = core::TastiIndex::Build(dataset, &cache, core::IndexOptions{});
///   core::CountScorer cars(data::ObjectClass::kCar);
///   std::vector<double> proxy = core::ComputeProxyScores(index, cars);
///   // feed `proxy` into queries::* algorithms

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/topk.h"
#include "core/index_options.h"
#include "data/dataset.h"
#include "embed/embedder.h"
#include "labeler/labeler.h"
#include "nn/matrix.h"

namespace tasti::core {

/// Read-only view of the propagation-relevant state of an index: what a
/// query needs to turn representative annotations into proxy scores, and
/// nothing else. Both the mutable TastiIndex and the immutable serving
/// snapshots (serve::IndexSnapshot) produce this view, so propagation and
/// proxy generation are decoupled from where the state lives. The pointed-to
/// storage must outlive the view.
struct IndexView {
  size_t num_records = 0;
  size_t num_representatives = 0;
  size_t k = 0;  ///< stored neighbors per record
  const cluster::TopKDistances* topk = nullptr;
  const std::vector<data::LabelerOutput>* rep_labels = nullptr;
  /// Aligned with rep_labels; entry 0 marks a representative whose oracle
  /// annotation failed (excluded from propagation).
  const std::vector<uint8_t>* rep_label_valid = nullptr;
  size_t num_failed_representatives = 0;
};

/// Mutations accumulated by a TastiIndex since the last TakeDelta() call —
/// the raw material for incremental propagation across serving epochs. A
/// consumer holding a PropagationState computed at the baseline needs to
/// recompute exactly: the dirty_rows, the records appended beyond
/// base_num_records, and the scorer outputs of representatives appended
/// beyond base_num_representatives or listed in dirty_reps.
struct IndexDelta {
  /// True only when no baseline was ever taken (fresh or deserialized
  /// index): consumers must recompute all rows. Cracks of any size are
  /// always expressed row-wise.
  bool full = true;
  /// Representative / record counts at the baseline.
  size_t base_num_representatives = 0;
  size_t base_num_records = 0;
  /// Records (< base_num_records) whose min-k list changed; sorted, unique.
  std::vector<uint32_t> dirty_rows;
  /// Representative positions (< base_num_representatives) whose label or
  /// validity changed (repairs); sorted, unique.
  std::vector<uint32_t> dirty_reps;
};

/// Wall-clock and budget breakdown of one Build call (Figure 2's bars).
struct BuildStats {
  double mine_seconds = 0.0;      ///< pretrained embedding + FPF mining
  double train_seconds = 0.0;     ///< triplet training epochs
  double embed_seconds = 0.0;     ///< embedding all records
  double cluster_seconds = 0.0;   ///< representative selection (FPF)
  double distance_seconds = 0.0;  ///< min-k distance computation
  size_t training_invocations = 0;  ///< labeler calls for triplet data
  size_t rep_invocations = 0;       ///< labeler calls for representatives
  double final_triplet_loss = 0.0;
  /// Representatives whose annotation failed permanently (degraded build).
  size_t failed_representatives = 0;
  /// Training annotations that failed and used a fallback label.
  size_t training_label_failures = 0;

  double TotalSeconds() const {
    return mine_seconds + train_seconds + embed_seconds + cluster_seconds +
           distance_seconds;
  }
  size_t TotalInvocations() const {
    return training_invocations + rep_invocations;
  }
};

/// An immutable-by-default semantic index; cracking appends representatives.
class TastiIndex {
 public:
  /// Builds an index per Algorithm 1. The labeler is charged
  /// `options.num_training_records` training annotations (if triplet
  /// training is on) plus one annotation per representative; wrap it in a
  /// CachingLabeler to avoid double-charging overlapping records.
  static TastiIndex Build(const data::Dataset& dataset,
                          labeler::TargetLabeler* labeler,
                          const IndexOptions& options);

  /// Builds against a fallible oracle. Construction never aborts on oracle
  /// failure: representatives whose annotation fails permanently are kept
  /// in the representative set but marked invalid (rep_label_valid()), and
  /// propagation excludes them. With a fault-free oracle this is
  /// bit-identical to the infallible overload (which delegates here).
  static TastiIndex Build(const data::Dataset& dataset,
                          labeler::FallibleLabeler* oracle,
                          const IndexOptions& options);

  // --- Read accessors ---

  /// Record indices of the representatives, in representative order.
  const std::vector<size_t>& rep_record_ids() const { return rep_record_ids_; }

  /// Cached target labeler outputs, aligned with rep_record_ids().
  const std::vector<data::LabelerOutput>& rep_labels() const {
    return rep_labels_;
  }

  /// Embeddings of every record (records x embedding_dim).
  const nn::Matrix& embeddings() const { return embeddings_; }

  /// Embeddings of the representatives (reps x embedding_dim).
  const nn::Matrix& rep_embeddings() const { return rep_embeddings_; }

  /// Min-k distances from every record to its nearest representatives.
  const cluster::TopKDistances& topk() const { return topk_; }

  /// Per-representative validity flags, aligned with rep_labels(). 0 marks
  /// a representative whose oracle annotation failed; its label is a
  /// placeholder and must not feed propagation.
  const std::vector<uint8_t>& rep_label_valid() const {
    return rep_label_valid_;
  }

  /// Representatives currently lacking a valid annotation.
  size_t num_failed_representatives() const { return num_failed_reps_; }

  /// Positions (into rep_record_ids()) of failed representatives.
  std::vector<size_t> failed_representative_positions() const;

  /// Record ids of failed representatives.
  std::vector<size_t> failed_rep_record_ids() const;

  /// Installs a late-arriving annotation for the failed representative at
  /// `rep_pos`, restoring it to the propagation set (index self-healing).
  void RepairRepresentative(size_t rep_pos, data::LabelerOutput label);

  size_t num_records() const { return embeddings_.rows(); }
  size_t num_representatives() const { return rep_record_ids_.size(); }
  size_t k() const { return topk_.k; }

  /// Propagation-relevant view of this index. Valid only until the next
  /// mutation (cracking, append, repair).
  IndexView View() const {
    IndexView view;
    view.num_records = num_records();
    view.num_representatives = num_representatives();
    view.k = topk_.k;
    view.topk = &topk_;
    view.rep_labels = &rep_labels_;
    view.rep_label_valid = &rep_label_valid_;
    view.num_failed_representatives = num_failed_reps_;
    return view;
  }

  const BuildStats& build_stats() const { return build_stats_; }
  const IndexOptions& options() const { return options_; }

  /// The embedding network the index was built with (trained or
  /// pretrained); used to embed newly appended records. Null only for
  /// indexes loaded from pre-embedder file versions.
  const embed::Embedder* embedder() const { return embedder_.get(); }

  // --- Streaming ingestion ---

  /// Appends new records (rows of sensor features): embeds them with the
  /// stored embedding network and computes their min-k distances. The new
  /// records start unannotated; labeling them during queries and cracking
  /// makes them representatives like any others. Returns the index of the
  /// first appended record. Requires embedder() != nullptr.
  size_t AppendRecords(const nn::Matrix& new_features);

  // --- Cracking (paper Section 3.3) ---

  /// Adds a record annotated during query execution as a new
  /// representative and updates every record's min-k list: a one-record
  /// CrackFromLabels. No-op if the record is already a representative.
  void AddRepresentative(size_t record_id, data::LabelerOutput label);

  /// Bulk-adds every cached annotation of `cache` not yet in the index.
  /// Returns the number of representatives added.
  size_t CrackFrom(const labeler::CachingLabeler& cache);

  /// Bulk-adds annotated records by parallel (record id, label) vectors,
  /// skipping records that are already representatives (an id repeated in
  /// the batch is added once). Every record id must be < num_records().
  /// The whole batch is merged into the min-k lists by one
  /// cluster::RelaxTopK pass. Returns the number of representatives added.
  size_t CrackFromLabels(const std::vector<size_t>& records,
                         const std::vector<data::LabelerOutput>& labels);

  /// True if the record is currently a representative.
  bool IsRepresentative(size_t record_id) const;

  // --- Epoch deltas (incremental propagation) ---

  /// Returns every change since the previous TakeDelta() (dirty min-k
  /// rows, repaired representatives, growth baselines) and starts a fresh
  /// accumulation window at the current state. The first call on an index
  /// always reports a full delta. Serving publishes one snapshot per
  /// TakeDelta, so each epoch's delta is relative to its parent epoch.
  IndexDelta TakeDelta();

  // Internal constructor used by serialization; prefer Build.
  TastiIndex() = default;

  friend class IndexSerializer;

 private:
  IndexOptions options_;
  nn::Matrix embeddings_;
  nn::Matrix rep_embeddings_;
  std::vector<size_t> rep_record_ids_;
  std::vector<data::LabelerOutput> rep_labels_;
  std::vector<uint8_t> rep_label_valid_;  // aligned with rep_labels_
  size_t num_failed_reps_ = 0;
  std::vector<uint8_t> is_rep_;  // per record flag
  cluster::TopKDistances topk_;
  BuildStats build_stats_;
  std::unique_ptr<embed::Embedder> embedder_;
  /// Accumulates mutations since the last TakeDelta(); starts full so an
  /// index without a baseline (fresh build, deserialized) never pretends
  /// to have a row-wise delta.
  IndexDelta delta_;
};

}  // namespace tasti::core

#endif  // TASTI_CORE_INDEX_H_
