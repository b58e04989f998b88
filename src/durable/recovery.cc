#include "durable/recovery.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

namespace tasti::durable {

namespace {

void Apply(core::TastiIndex* index, const WalRecord& record,
           RecoveryStats* stats) {
  switch (record.type) {
    case WalRecordType::kCrack: {
      const std::vector<size_t> records(record.records.begin(),
                                        record.records.end());
      index->CrackFromLabels(records, record.labels);
      ++stats->cracks_replayed;
      break;
    }
    case WalRecordType::kRepair:
      index->RepairRepresentative(record.rep_pos, record.labels.front());
      ++stats->repairs_replayed;
      break;
    case WalRecordType::kAppend:
      index->AppendRecords(record.features);
      ++stats->appends_replayed;
      break;
    case WalRecordType::kEpochPublish:
      break;  // handled by the replay loop
  }
}

/// Describes the first mutation in records[0, committed) that the index
/// would reject, checking each against the state the mutations before it
/// reach; empty when all of them apply cleanly. Appends grow the record
/// count. Cracks only add valid representatives, so a repair must name a
/// representative that was already failed before this segment.
std::string FindInvalidMutation(const core::TastiIndex& index,
                                const std::vector<WalRecord>& records,
                                size_t committed) {
  size_t num_records = index.num_records();
  std::vector<uint8_t> rep_valid = index.rep_label_valid();
  for (size_t j = 0; j < committed; ++j) {
    const WalRecord& record = records[j];
    auto fault = [&](const std::string& what) {
      return "LSN " + std::to_string(record.lsn) + ": " + what;
    };
    switch (record.type) {
      case WalRecordType::kCrack:
        for (uint64_t id : record.records) {
          if (id >= num_records) {
            return fault("crack record id " + std::to_string(id) +
                         " out of range (" + std::to_string(num_records) +
                         " records)");
          }
        }
        break;
      case WalRecordType::kRepair:
        if (record.rep_pos >= rep_valid.size() || rep_valid[record.rep_pos]) {
          return fault("repair of rep_pos " + std::to_string(record.rep_pos) +
                       ", which is not a failed representative");
        }
        rep_valid[record.rep_pos] = 1;
        break;
      case WalRecordType::kAppend:
        if (index.embedder() == nullptr || record.features.rows() == 0 ||
            record.features.cols() != index.embedder()->input_dim()) {
          return fault("append the index cannot embed");
        }
        num_records += record.features.rows();
        break;
      case WalRecordType::kEpochPublish:
        break;
    }
  }
  return "";
}

}  // namespace

Result<RecoveredState> Recover(File* fs, const std::string& dir) {
  if (fs == nullptr) fs = DefaultFile();
  if (!fs->Exists(dir)) {
    return Status::NotFound("no durable state at " + dir);
  }
  RecoveredState out;
  RecoveryStats& stats = out.stats;

  auto quarantine = [&](const std::string& name, const std::string& why) {
    (void)fs->MakeDir(dir + "/quarantine");
    Status moved = fs->Rename(dir + "/" + name, dir + "/quarantine/" + name);
    stats.quarantined_files.push_back(name);
    std::string fault = "quarantined " + name + ": " + why;
    if (!moved.ok()) fault += " (move failed: " + moved.message() + ")";
    stats.faults.push_back(fault);
  };

  // --- 1. Manifest (or fall back to the self-describing checkpoints) ---
  std::optional<Manifest> manifest;
  if (fs->Exists(dir + "/MANIFEST")) {
    Result<std::string> raw = fs->Read(dir + "/MANIFEST");
    Result<Manifest> decoded =
        raw.ok() ? DecodeManifest(*raw) : Result<Manifest>(raw.status());
    if (decoded.ok()) {
      manifest = *decoded;
    } else {
      stats.manifest_missing = true;
      quarantine("MANIFEST", decoded.status().message());
    }
  } else {
    stats.manifest_missing = true;
  }

  Result<std::vector<std::string>> names = fs->List(dir);
  TASTI_RETURN_NOT_OK(names.status());
  uint64_t max_checkpoint_seq = 0;
  for (const std::string& name : *names) {
    if (std::optional<uint64_t> seq = ParseCheckpointFileName(name)) {
      max_checkpoint_seq = std::max(max_checkpoint_seq, *seq);
    }
  }

  // --- 2. Latest loadable checkpoint ---
  std::optional<CheckpointContents> checkpoint;
  auto try_load = [&](const std::string& name) {
    Result<std::string> raw = fs->Read(dir + "/" + name);
    Result<CheckpointContents> decoded =
        raw.ok() ? DecodeCheckpoint(*raw)
                 : Result<CheckpointContents>(raw.status());
    if (decoded.ok()) {
      checkpoint = std::move(*decoded);
      return true;
    }
    quarantine(name, decoded.status().message());
    return false;
  };
  if (manifest.has_value() && !try_load(manifest->checkpoint_file)) {
    manifest.reset();
  }
  if (!checkpoint.has_value()) {
    std::vector<std::pair<uint64_t, std::string>> candidates;
    for (const std::string& name : *names) {
      if (std::optional<uint64_t> seq = ParseCheckpointFileName(name)) {
        candidates.emplace_back(*seq, name);
      }
    }
    std::sort(candidates.rbegin(), candidates.rend());
    for (const auto& [seq, name] : candidates) {
      if (!fs->Exists(dir + "/" + name)) continue;  // already quarantined
      if (try_load(name)) break;
    }
  }
  if (!checkpoint.has_value()) {
    return Status::NotFound("no usable checkpoint in " + dir);
  }
  const Manifest meta = checkpoint->meta;
  stats.checkpoint_seq = meta.checkpoint_seq;
  stats.checkpoint_epoch = meta.epoch;
  out.index = std::move(checkpoint->index);
  out.epoch = meta.epoch;
  out.checkpoint_seq = std::max(max_checkpoint_seq, meta.checkpoint_seq);

  // --- 3. Replay committed WAL records above the high-water mark ---
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : *names) {
    if (std::optional<uint64_t> seq = ParseSegmentFileName(name)) {
      if (*seq >= meta.wal_segment) segments.emplace_back(*seq, name);
    }
  }
  std::sort(segments.begin(), segments.end());

  uint64_t expect_lsn = meta.next_lsn;
  uint64_t last_good_seq = meta.wal_segment - 1;
  bool stop = false;
  std::string stop_reason;
  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& [seq, name] = segments[i];
    if (stop) {
      // Anything past a bad segment is unreachable by contiguous replay; a
      // resumed writer must not find it either.
      quarantine(name, "follows " + stop_reason);
      continue;
    }
    if (seq != last_good_seq + 1) {
      stop = true;
      stop_reason = "a segment-sequence gap";
      quarantine(name, "segment sequence gap (expected " +
                           SegmentFileName(last_good_seq + 1) + ")");
      continue;
    }
    ++stats.segments_read;
    Result<std::string> raw = fs->Read(dir + "/" + name);
    if (!raw.ok()) {
      stop = true;
      stop_reason = "unreadable segment " + name;
      quarantine(name, raw.status().message());
      continue;
    }
    WalSegment segment = DecodeWalSegment(*raw);
    const bool last = i + 1 == segments.size();
    std::string bad;
    if (segment.corrupt) {
      bad = segment.error;
    } else if (segment.torn_bytes > 0 && !last) {
      // A tear is only plausible at the very end of the log; mid-log it
      // means the file was damaged after being written.
      bad = "torn bytes inside a non-final segment";
    }
    if (bad.empty()) {
      uint64_t lsn = expect_lsn;
      for (const WalRecord& record : segment.records) {
        if (record.lsn != lsn) {
          bad = "LSN discontinuity (expected " + std::to_string(lsn) +
                ", found " + std::to_string(record.lsn) + ")";
          break;
        }
        ++lsn;
      }
    }
    // Mutations count only once their epoch-publish marker hit the disk;
    // everything after the last marker was never observable.
    size_t committed_records = 0;
    for (size_t j = 0; j < segment.records.size(); ++j) {
      if (segment.records[j].type == WalRecordType::kEpochPublish) {
        committed_records = j + 1;
      }
    }
    if (bad.empty()) {
      // Validate before applying anything, so a committed mutation the
      // index would reject is handled like bit rot: no batch of this
      // segment is applied, half or whole.
      bad = FindInvalidMutation(out.index, segment.records, committed_records);
    }
    if (!bad.empty()) {
      stop = true;
      stop_reason = "corrupt segment " + name;
      quarantine(name, bad);
      continue;
    }
    // Apply mutations batch-wise at their epoch-publish markers.
    size_t committed_end = 0;
    std::vector<size_t> pending;
    for (size_t j = 0; j < segment.records.size(); ++j) {
      const WalRecord& record = segment.records[j];
      if (record.type == WalRecordType::kEpochPublish) {
        for (size_t p : pending) Apply(&out.index, segment.records[p], &stats);
        stats.records_replayed += pending.size();
        pending.clear();
        out.epoch = record.epoch;
        ++stats.epochs_replayed;
        committed_end = segment.offsets[j + 1];
      } else {
        pending.push_back(j);
      }
    }
    expect_lsn += committed_records;  // truncated tail LSNs get reused
    stats.uncommitted_records_discarded += pending.size();
    last_good_seq = seq;
    if (committed_end < raw->size()) {
      // Drop the uncommitted/torn tail physically too, so a second
      // recovery — and the writer that resumes appending — reads exactly
      // the state returned here.
      stats.torn_bytes_truncated += raw->size() - committed_end;
      Status truncated =
          fs->Write(dir + "/" + name, raw->substr(0, committed_end));
      if (!truncated.ok()) {
        stats.faults.push_back("could not truncate " + name + ": " +
                               truncated.message());
      }
    }
  }
  out.next_lsn = expect_lsn;
  out.wal_segment = last_good_seq + 1;
  return out;
}

}  // namespace tasti::durable
