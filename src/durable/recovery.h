#ifndef TASTI_DURABLE_RECOVERY_H_
#define TASTI_DURABLE_RECOVERY_H_

/// \file recovery.h
/// Crash recovery: latest valid checkpoint + committed WAL replay.
///
/// Recover() rebuilds the exact index state of the last published epoch
/// that reached disk:
///
///  1. Read MANIFEST. If it is missing or unreadable, fall back to
///     scanning checkpoint files directly (each is self-describing) in
///     descending sequence order; unreadable checkpoints are quarantined.
///  2. Deserialize the chosen checkpoint's index.
///  3. Replay WAL segments from the checkpoint's high-water mark in
///     sequence order. Records are buffered and applied to the index only
///     when their epoch-publish marker is read — mutations whose marker
///     never reached disk were never observable and are discarded (and
///     physically truncated, with any torn tail, so a second recovery
///     reads the same bytes). Cracks/appends/repairs replay through the
///     same TastiIndex mutation paths the live server used, which are
///     deterministic — so the recovered epoch is bit-identical to the
///     pre-crash one.
///  4. A segment that fails validation mid-file (bit rot, not a torn
///     tail), or holds a committed mutation the index would reject (a
///     crack id past the record count, a repair of a representative that
///     is not failed), is quarantined into dir/quarantine/ together with
///     every later segment, and replay stops at the last epoch committed
///     before it — no batch of the segment is applied, half or whole:
///     the server starts from the newest intact state instead of refusing
///     to start, surfacing the quarantine as a monitor fault.
///
/// Recovery mutates the directory only in ways that are idempotent
/// (truncation, quarantine moves): recovering twice from the same
/// directory yields the same state.

#include <cstdint>
#include <string>
#include <vector>

#include "core/index.h"
#include "durable/checkpoint.h"
#include "durable/file.h"
#include "util/status.h"

namespace tasti::durable {

struct RecoveryStats {
  bool manifest_missing = false;  ///< fell back to the checkpoint scan
  uint64_t checkpoint_seq = 0;
  uint64_t checkpoint_epoch = 0;
  size_t segments_read = 0;
  size_t records_replayed = 0;  ///< committed mutations applied
  size_t cracks_replayed = 0;
  size_t appends_replayed = 0;
  size_t repairs_replayed = 0;
  size_t epochs_replayed = 0;
  size_t uncommitted_records_discarded = 0;
  size_t torn_bytes_truncated = 0;
  std::vector<std::string> quarantined_files;
  /// Human-readable fault details (the server forwards them to the
  /// monitor as "durability" faults).
  std::vector<std::string> faults;
};

struct RecoveredState {
  core::TastiIndex index;
  uint64_t epoch = 0;  ///< last committed epoch (the one to republish)
  // Positions a resumed DurabilityManager::Open should adopt.
  uint64_t next_lsn = 1;
  uint64_t wal_segment = 1;  ///< next segment sequence to write
  uint64_t checkpoint_seq = 0;
  RecoveryStats stats;
};

/// Recovers from `dir`. NotFound means no usable durable state exists
/// (nothing was ever checkpointed, or everything was quarantined) — the
/// caller should cold-start instead. Pass fs = nullptr for DefaultFile().
Result<RecoveredState> Recover(File* fs, const std::string& dir);

}  // namespace tasti::durable

#endif  // TASTI_DURABLE_RECOVERY_H_
