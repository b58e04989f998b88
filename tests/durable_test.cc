// Tests for durable/: the crash-injecting File, WAL framing and torn/
// corrupt-tail detection, checkpoint + manifest atomicity and version
// skew, recovery (bit-identical replay, quarantine, idempotence), the
// atomic IndexSerializer::Save, and the score-cache invalidation the
// server performs on recovery. Run under ASan in check.sh's sanitize
// stage — the decode paths here parse attacker-shaped (corrupt) bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "core/index.h"
#include "core/scorer.h"
#include "core/serialize.h"
#include "data/dataset.h"
#include "durable/checkpoint.h"
#include "durable/file.h"
#include "durable/recovery.h"
#include "durable/wal.h"
#include "labeler/labeler.h"
#include "serve/server.h"
#include "util/bytes.h"
#include "util/checksum.h"
#include "util/random.h"

namespace tasti::durable {
namespace {

data::Dataset TestDataset(size_t n = 800, uint64_t seed = 91) {
  data::DatasetOptions opts;
  opts.num_records = n;
  opts.seed = seed;
  return data::MakeNightStreet(opts);
}

core::IndexOptions FastIndexOptions() {
  core::IndexOptions opts;
  // Pretrained embedder: fast to build and deterministic to re-embed,
  // which is what kAppend replay relies on.
  opts.use_triplet_training = false;
  opts.num_representatives = 60;
  opts.embedding_dim = 16;
  opts.k = 3;
  return opts;
}

core::TastiIndex BuildSmallIndex(const data::Dataset& ds) {
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  return core::TastiIndex::Build(ds, &adapter, FastIndexOptions());
}

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  // Start from a clean slate: tests re-run in the same TempDir.
  File* fs = DefaultFile();
  if (fs->Exists(dir)) {
    Result<std::vector<std::string>> names = fs->List(dir);
    if (names.ok()) {
      for (const std::string& entry : *names) {
        if (fs->Exists(dir + "/" + entry + "/.")) {  // subdirectory
          Result<std::vector<std::string>> inner =
              fs->List(dir + "/" + entry);
          if (inner.ok()) {
            for (const std::string& f : *inner) {
              (void)fs->Remove(dir + "/" + entry + "/" + f);
            }
          }
          (void)fs->Remove(dir + "/" + entry);
        } else {
          (void)fs->Remove(dir + "/" + entry);
        }
      }
    }
  }
  return dir;
}

uint64_t IndexFingerprint(const core::TastiIndex& index) {
  Result<std::string> blob = core::IndexSerializer::SerializeToString(index);
  EXPECT_TRUE(blob.ok()) << blob.status().message();
  return Fnv1a64(blob->data(), blob->size());
}

// --- durable::File ---

TEST(FileTest, CountsMutationsAndReadsAreFree) {
  const std::string dir = TestDir("file_counts");
  File fs;
  ASSERT_TRUE(fs.MakeDir(dir).ok());
  EXPECT_EQ(fs.ops(), 1u);
  ASSERT_TRUE(fs.Write(dir + "/a", "hello").ok());
  ASSERT_TRUE(fs.Append(dir + "/a", " world").ok());
  EXPECT_EQ(fs.ops(), 3u);
  Result<std::string> read = fs.Read(dir + "/a");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello world");
  EXPECT_TRUE(fs.Exists(dir + "/a"));
  EXPECT_EQ(fs.ops(), 3u);  // reads are uncounted
}

TEST(FileTest, CrashAtOpTearsThenStaysDead) {
  const std::string dir = TestDir("file_crash");
  ASSERT_TRUE(DefaultFile()->MakeDir(dir).ok());
  File fs(CrashPoint{/*crash_at_op=*/2, /*seed=*/7});
  ASSERT_TRUE(fs.Write(dir + "/a", "first").ok());  // op 1: admitted
  const std::string payload(64, 'x');
  Status torn = fs.Write(dir + "/b", payload);  // op 2: the crash point
  EXPECT_FALSE(torn.ok());
  EXPECT_TRUE(fs.crashed());
  if (fs.Exists(dir + "/b")) {
    // At most a seeded prefix of the payload may have landed.
    Result<std::string> b = fs.Read(dir + "/b");
    ASSERT_TRUE(b.ok());
    EXPECT_LE(b->size(), payload.size());
  }
  // Every later mutation fails without side effects.
  EXPECT_FALSE(fs.Write(dir + "/c", "late").ok());
  EXPECT_FALSE(fs.Rename(dir + "/a", dir + "/a2").ok());
  EXPECT_FALSE(fs.Exists(dir + "/c"));
  EXPECT_TRUE(fs.Exists(dir + "/a"));
}

TEST(FileTest, WriteAtomicNeverLeavesTornTarget) {
  const std::string dir = TestDir("file_atomic");
  File clean;
  ASSERT_TRUE(clean.MakeDir(dir).ok());
  ASSERT_TRUE(clean.WriteAtomic(dir + "/t", "old durable state").ok());

  File fs;
  fs.ArmCrash(/*ops_from_now=*/1, /*seed=*/3);
  EXPECT_FALSE(fs.WriteAtomic(dir + "/t", "replacement").ok());
  Result<std::string> after = clean.Read(dir + "/t");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, "old durable state");   // target untouched
  EXPECT_FALSE(clean.Exists(dir + "/t.tmp"));  // tmp cleaned up
}

// --- WAL framing ---

WalRecord CrackRecord(const data::Dataset& ds, uint64_t lsn,
                      std::vector<uint64_t> records) {
  WalRecord record;
  record.type = WalRecordType::kCrack;
  record.lsn = lsn;
  for (uint64_t id : records) record.labels.push_back(ds.ground_truth[id]);
  record.records = std::move(records);
  return record;
}

// One record of each type: a crack of records {3, 9, 12} (LSN 1), a
// repair of rep 5 (LSN 2), a 2x4 append (LSN 3) and an epoch-17 marker
// (LSN 4).
std::vector<WalRecord> AllTypeRecords(const data::Dataset& ds) {
  std::vector<WalRecord> records;
  records.push_back(CrackRecord(ds, 1, {3, 9, 12}));

  WalRecord repair;
  repair.type = WalRecordType::kRepair;
  repair.lsn = 2;
  repair.rep_pos = 5;
  repair.labels.push_back(ds.ground_truth[5]);
  records.push_back(std::move(repair));

  WalRecord append;
  append.type = WalRecordType::kAppend;
  append.lsn = 3;
  append.features = nn::Matrix(2, 4);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      append.features.At(r, c) = static_cast<float>(r * 4 + c) * 0.5f;
    }
  }
  records.push_back(std::move(append));

  WalRecord marker;
  marker.type = WalRecordType::kEpochPublish;
  marker.lsn = 4;
  marker.epoch = 17;
  records.push_back(std::move(marker));
  return records;
}

TEST(WalTest, RecordRoundTripAllTypes) {
  data::Dataset ds = TestDataset(64);
  std::string buffer;
  for (const WalRecord& record : AllTypeRecords(ds)) {
    buffer += EncodeWalRecord(record);
  }

  WalSegment segment = DecodeWalSegment(buffer);
  EXPECT_FALSE(segment.corrupt);
  EXPECT_EQ(segment.torn_bytes, 0u);
  EXPECT_EQ(segment.valid_bytes, buffer.size());
  ASSERT_EQ(segment.records.size(), 4u);
  ASSERT_EQ(segment.offsets.size(), 5u);
  EXPECT_EQ(segment.offsets.back(), buffer.size());

  EXPECT_EQ(segment.records[0].type, WalRecordType::kCrack);
  EXPECT_EQ(segment.records[0].lsn, 1u);
  EXPECT_EQ(segment.records[0].records,
            (std::vector<uint64_t>{3, 9, 12}));
  ASSERT_EQ(segment.records[0].labels.size(), 3u);

  EXPECT_EQ(segment.records[1].type, WalRecordType::kRepair);
  EXPECT_EQ(segment.records[1].rep_pos, 5u);
  ASSERT_EQ(segment.records[1].labels.size(), 1u);

  EXPECT_EQ(segment.records[2].type, WalRecordType::kAppend);
  EXPECT_EQ(segment.records[2].features.rows(), 2u);
  EXPECT_EQ(segment.records[2].features.cols(), 4u);
  EXPECT_FLOAT_EQ(segment.records[2].features.At(1, 3), 3.5f);

  EXPECT_EQ(segment.records[3].type, WalRecordType::kEpochPublish);
  EXPECT_EQ(segment.records[3].epoch, 17u);
}

TEST(WalTest, TornTailIsNotCorruption) {
  data::Dataset ds = TestDataset(64);
  const std::string whole = EncodeWalRecord(CrackRecord(ds, 1, {2, 4}));
  std::string buffer = whole;
  const std::string next = EncodeWalRecord(CrackRecord(ds, 2, {6}));
  buffer += next.substr(0, next.size() / 2);  // crash mid-append

  WalSegment segment = DecodeWalSegment(buffer);
  EXPECT_FALSE(segment.corrupt) << segment.error;
  ASSERT_EQ(segment.records.size(), 1u);
  EXPECT_EQ(segment.valid_bytes, whole.size());
  EXPECT_EQ(segment.torn_bytes, buffer.size() - whole.size());
}

TEST(WalTest, BitFlipMarksSegmentCorrupt) {
  data::Dataset ds = TestDataset(64);
  std::string buffer = EncodeWalRecord(CrackRecord(ds, 1, {2, 4}));
  buffer += EncodeWalRecord(CrackRecord(ds, 2, {6}));
  buffer[buffer.size() / 3] ^= 0x20;  // bit rot inside a whole frame

  WalSegment segment = DecodeWalSegment(buffer);
  EXPECT_TRUE(segment.corrupt);
  EXPECT_FALSE(segment.error.empty());
}

// Frames `payload` the way EncodeWalRecord does: u32 length, payload,
// checksum footer.
std::string Frame(std::string payload) {
  AppendChecksumFooter(&payload);
  std::string frame;
  PutPod(&frame, static_cast<uint32_t>(payload.size()));
  return frame + payload;
}

TEST(WalTest, HugeCrackCountMarksSegmentCorrupt) {
  // One checksummed kCrack frame whose record count is 2^40 with no
  // entries behind it: the count must be refused, not reserved.
  std::string payload;
  PutPod(&payload, static_cast<uint8_t>(WalRecordType::kCrack));
  PutPod(&payload, uint64_t{1});        // lsn
  PutPod(&payload, uint64_t{1} << 40);  // record count
  WalSegment segment = DecodeWalSegment(Frame(payload));
  EXPECT_TRUE(segment.corrupt);
  EXPECT_FALSE(segment.error.empty());
  EXPECT_TRUE(segment.records.empty());
}

// One seeded corruption of `payload`: a random byte, a boundary value (a
// huge count or shape) written over up to 8 bytes, or a truncation.
void Mutate(Rng* rng, std::string* payload) {
  static constexpr uint64_t kBoundary[] = {0,          1,          0xFF,
                                           0x7FFFFFFF, 0xFFFFFFFF, 1ull << 32,
                                           1ull << 40, 1ull << 61, 1ull << 63,
                                           ~0ull};
  const size_t at = rng->UniformInt(payload->size());
  switch (rng->UniformInt(3)) {
    case 0:
      (*payload)[at] = static_cast<char>(rng->UniformInt(256));
      break;
    case 1: {
      const uint64_t value = kBoundary[rng->UniformInt(std::size(kBoundary))];
      std::memcpy(payload->data() + at, &value,
                  std::min(sizeof(value), payload->size() - at));
      break;
    }
    default:
      payload->resize(at);
  }
}

TEST(WalTest, MutatedFramesDecodeOrMarkCorrupt) {
  // Each trial corrupts one frame's payload and re-frames it with a fresh
  // checksum, so the body decoder sees it. The segment must decode or be
  // marked corrupt with an error; the decoder must never abort.
  data::Dataset ds = TestDataset(64);
  std::vector<std::string> payloads;
  for (const WalRecord& record : AllTypeRecords(ds)) {
    const std::string body = EncodeWalRecord(record).substr(sizeof(uint32_t));
    payloads.push_back(body.substr(0, VerifyChecksumFooter(body).value()));
  }
  Rng rng(77);
  for (int trial = 0; trial < 10000; ++trial) {
    const size_t victim = rng.UniformInt(payloads.size());
    std::string buffer;
    for (size_t i = 0; i < payloads.size(); ++i) {
      std::string payload = payloads[i];
      if (i == victim) Mutate(&rng, &payload);
      buffer += Frame(std::move(payload));
    }
    WalSegment segment = DecodeWalSegment(buffer);
    EXPECT_EQ(segment.offsets.size(), segment.records.size() + 1);
    if (segment.corrupt) {
      EXPECT_FALSE(segment.error.empty());
    }
  }
}

TEST(WalTest, SegmentFileNamesRoundTrip) {
  EXPECT_EQ(SegmentFileName(7), "wal-000007.log");
  EXPECT_EQ(ParseSegmentFileName("wal-000007.log"), 7u);
  EXPECT_FALSE(ParseSegmentFileName("wal-7.txt").has_value());
  EXPECT_FALSE(ParseSegmentFileName("checkpoint-000001.ckpt").has_value());
  EXPECT_EQ(ParseCheckpointFileName("checkpoint-000004.ckpt"), 4u);
}

// --- Checkpoint + manifest ---

TEST(CheckpointTest, ManifestRoundTripAndVersionSkew) {
  Manifest m;
  m.checkpoint_seq = 4;
  m.epoch = 11;
  m.wal_segment = 5;
  m.next_lsn = 42;
  m.checkpoint_file = CheckpointFileName(4);

  Result<Manifest> decoded = DecodeManifest(EncodeManifest(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->checkpoint_seq, 4u);
  EXPECT_EQ(decoded->epoch, 11u);
  EXPECT_EQ(decoded->wal_segment, 5u);
  EXPECT_EQ(decoded->next_lsn, 42u);
  EXPECT_EQ(decoded->checkpoint_file, "checkpoint-000004.ckpt");

  // A manifest from a future format version is rejected, not misparsed.
  Result<Manifest> skewed =
      DecodeManifest(EncodeManifest(m, kManifestVersion + 1));
  EXPECT_FALSE(skewed.ok());

  std::string flipped = EncodeManifest(m);
  flipped[6] ^= 1;
  EXPECT_FALSE(DecodeManifest(flipped).ok());
}

TEST(CheckpointTest, CheckpointRoundTripAndVersionSkew) {
  data::Dataset ds = TestDataset(500);
  core::TastiIndex index = BuildSmallIndex(ds);
  Manifest meta;
  meta.checkpoint_seq = 1;
  meta.epoch = 3;
  meta.checkpoint_file = CheckpointFileName(1);

  Result<std::string> blob = EncodeCheckpoint(index, meta);
  ASSERT_TRUE(blob.ok());
  Result<CheckpointContents> decoded = DecodeCheckpoint(*blob);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->meta.epoch, 3u);
  EXPECT_EQ(IndexFingerprint(decoded->index), IndexFingerprint(index));

  Result<std::string> skewed =
      EncodeCheckpoint(index, meta, kCheckpointVersion + 1);
  ASSERT_TRUE(skewed.ok());
  EXPECT_FALSE(DecodeCheckpoint(*skewed).ok());
}

// --- Recovery ---

struct DurableRig {
  data::Dataset ds = TestDataset(600);
  core::TastiIndex index;
  File fs;
  std::string dir;
  std::unique_ptr<DurabilityManager> manager;

  explicit DurableRig(const std::string& name)
      : index(BuildSmallIndex(ds)), dir(TestDir(name)) {
    DurabilityOptions options;
    options.dir = dir;
    options.fs = &fs;
    Result<std::unique_ptr<DurabilityManager>> opened =
        DurabilityManager::Open(options, index, /*epoch=*/1);
    EXPECT_TRUE(opened.ok()) << opened.status().message();
    manager = std::move(*opened);
  }

  /// Cracks `records` into the live index and commits it as `epoch`,
  /// mirroring what the server does under its crack mutex.
  void CrackEpoch(uint64_t epoch, std::vector<uint64_t> records) {
    WalRecord record = CrackRecord(ds, 0, std::move(records));
    const std::vector<size_t> ids(record.records.begin(),
                                  record.records.end());
    index.CrackFromLabels(ids, record.labels);
    ASSERT_TRUE(manager->Log(std::move(record)).ok());
    ASSERT_TRUE(manager->CommitEpoch(index, epoch).ok());
  }
};

TEST(RecoveryTest, ReplaysCommittedEpochsBitIdentically) {
  DurableRig rig("recover_replay");
  rig.CrackEpoch(2, {10, 20, 30});
  rig.CrackEpoch(3, {40, 50});
  const uint64_t want = IndexFingerprint(rig.index);

  Result<RecoveredState> recovered = Recover(&rig.fs, rig.dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->epoch, 3u);
  EXPECT_EQ(IndexFingerprint(recovered->index), want);
  EXPECT_EQ(recovered->stats.cracks_replayed, 2u);
  EXPECT_EQ(recovered->stats.epochs_replayed, 2u);
  EXPECT_FALSE(recovered->stats.manifest_missing);
  EXPECT_TRUE(recovered->stats.quarantined_files.empty());
  // The resume positions continue, not overlap, the replayed log.
  EXPECT_EQ(recovered->next_lsn, rig.manager->stats().records_logged + 1);
}

TEST(RecoveryTest, MissingManifestFallsBackToCheckpointScan) {
  DurableRig rig("recover_no_manifest");
  rig.CrackEpoch(2, {11, 22});
  const uint64_t want = IndexFingerprint(rig.index);
  ASSERT_TRUE(rig.fs.Remove(rig.dir + "/MANIFEST").ok());

  Result<RecoveredState> recovered = Recover(&rig.fs, rig.dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_TRUE(recovered->stats.manifest_missing);
  EXPECT_EQ(recovered->epoch, 2u);
  EXPECT_EQ(IndexFingerprint(recovered->index), want);
}

TEST(RecoveryTest, UncommittedTailDiscardedAndPhysicallyTruncated) {
  DurableRig rig("recover_uncommitted");
  rig.CrackEpoch(2, {10, 20});
  // A crack whose epoch marker never reached the disk: logged, synced via
  // a marker-less barrier we emulate by appending the frame directly.
  WalRecord orphan = CrackRecord(rig.ds, /*lsn=*/3, {30});
  const std::string segment_path =
      rig.dir + "/" + SegmentFileName(rig.manager->stats().checkpoints_written);
  ASSERT_TRUE(rig.fs.Exists(segment_path));
  std::string frame = EncodeWalRecord(orphan);
  ASSERT_TRUE(rig.fs.Append(segment_path, frame).ok());
  // Plus a torn half-frame from the crash itself.
  ASSERT_TRUE(
      rig.fs.Append(segment_path, frame.substr(0, frame.size() / 2)).ok());
  const size_t dirty_size = rig.fs.Read(segment_path)->size();
  const uint64_t want = IndexFingerprint(rig.index);

  Result<RecoveredState> recovered = Recover(&rig.fs, rig.dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->epoch, 2u);
  EXPECT_EQ(IndexFingerprint(recovered->index), want);
  EXPECT_EQ(recovered->stats.uncommitted_records_discarded, 1u);
  EXPECT_GT(recovered->stats.torn_bytes_truncated, 0u);
  const size_t clean_size = rig.fs.Read(segment_path)->size();
  EXPECT_LT(clean_size, dirty_size);

  // Idempotence: a second recovery reads the truncated file and returns
  // the identical state with nothing left to discard.
  Result<RecoveredState> again = Recover(&rig.fs, rig.dir);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->epoch, 2u);
  EXPECT_EQ(IndexFingerprint(again->index), want);
  EXPECT_EQ(again->stats.uncommitted_records_discarded, 0u);
  EXPECT_EQ(again->stats.torn_bytes_truncated, 0u);
}

TEST(RecoveryTest, CorruptSegmentQuarantinedNotFatal) {
  DurableRig rig("recover_corrupt");
  rig.CrackEpoch(2, {10, 20});
  rig.CrackEpoch(3, {30, 40});

  // Bit rot inside a structurally whole frame (not a torn tail): the
  // whole segment is untrustworthy and must be quarantined wholesale —
  // applying even its intact prefix would make recovery non-idempotent.
  const std::string segment_path =
      rig.dir + "/" + SegmentFileName(rig.manager->stats().checkpoints_written);
  Result<std::string> raw = rig.fs.Read(segment_path);
  ASSERT_TRUE(raw.ok());
  std::string damaged = *raw;
  damaged[damaged.size() - 10] ^= 0x40;  // inside the final marker frame
  ASSERT_TRUE(rig.fs.Write(segment_path, damaged).ok());

  Result<RecoveredState> recovered = Recover(&rig.fs, rig.dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  // The damaged segment is quarantined wholesale: recovery rewinds to the
  // checkpoint state (epoch 1) instead of trusting any of its frames.
  EXPECT_EQ(recovered->epoch, 1u);
  ASSERT_EQ(recovered->stats.quarantined_files.size(), 1u);
  EXPECT_FALSE(recovered->stats.faults.empty());
  EXPECT_FALSE(rig.fs.Exists(segment_path));
  EXPECT_TRUE(rig.fs.Exists(rig.dir + "/quarantine/" +
                            recovered->stats.quarantined_files[0]));

  // Idempotence: recovering again finds the quarantined file gone and
  // lands on the same state.
  Result<RecoveredState> again = Recover(&rig.fs, rig.dir);
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_EQ(again->epoch, 1u);
  EXPECT_EQ(IndexFingerprint(again->index),
            IndexFingerprint(recovered->index));
  EXPECT_TRUE(again->stats.quarantined_files.empty());
}

TEST(RecoveryTest, HugeCrackCountQuarantinedNotFatal) {
  // A committed-looking frame whose crack count claims 2^40 entries:
  // recovery must quarantine the segment rather than reserve for it.
  DurableRig rig("recover_huge_count");
  rig.CrackEpoch(2, {10, 20});
  std::string payload;
  PutPod(&payload, static_cast<uint8_t>(WalRecordType::kCrack));
  PutPod(&payload, uint64_t{3});        // lsn
  PutPod(&payload, uint64_t{1} << 40);  // record count
  const std::string segment_path =
      rig.dir + "/" + SegmentFileName(rig.manager->stats().checkpoints_written);
  ASSERT_TRUE(rig.fs.Append(segment_path, Frame(payload)).ok());

  Result<RecoveredState> recovered = Recover(&rig.fs, rig.dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->epoch, 1u);
  ASSERT_EQ(recovered->stats.quarantined_files.size(), 1u);
  EXPECT_FALSE(rig.fs.Exists(segment_path));
}

TEST(RecoveryTest, InvalidCommittedMutationQuarantinedNotApplied) {
  // Committed, well-framed mutations the index would reject: a crack id
  // past the record count, a repair of a valid representative, and a
  // repair past the representative count. Each must be refused before any
  // batch of its segment is applied, exactly like bit rot.
  enum class Bad { kCrackId, kRepairValidRep, kRepairPos };
  for (Bad variant : {Bad::kCrackId, Bad::kRepairValidRep, Bad::kRepairPos}) {
    DurableRig rig("recover_invalid_" +
                   std::to_string(static_cast<int>(variant)));
    const size_t checkpoint_reps = rig.index.num_representatives();
    rig.CrackEpoch(2, {10, 20});

    WalRecord bad;
    bad.lsn = 3;
    bad.labels.push_back(rig.ds.ground_truth[0]);
    if (variant == Bad::kCrackId) {
      bad.type = WalRecordType::kCrack;
      bad.records = {rig.index.num_records() + 5};
    } else {
      bad.type = WalRecordType::kRepair;
      bad.rep_pos = variant == Bad::kRepairValidRep
                        ? 0
                        : rig.index.num_representatives() + 5;
    }
    WalRecord marker;
    marker.type = WalRecordType::kEpochPublish;
    marker.lsn = 4;
    marker.epoch = 3;
    const std::string segment_path =
        rig.dir + "/" +
        SegmentFileName(rig.manager->stats().checkpoints_written);
    ASSERT_TRUE(
        rig.fs.Append(segment_path, EncodeWalRecord(bad) +
                                        EncodeWalRecord(marker)).ok());

    Result<RecoveredState> recovered = Recover(&rig.fs, rig.dir);
    ASSERT_TRUE(recovered.ok()) << recovered.status().message();
    EXPECT_EQ(recovered->epoch, 1u);
    EXPECT_EQ(recovered->index.num_representatives(), checkpoint_reps);
    ASSERT_EQ(recovered->stats.faults.size(), 1u);
    EXPECT_NE(recovered->stats.faults[0].find("LSN 3"), std::string::npos)
        << recovered->stats.faults[0];
    EXPECT_EQ(recovered->stats.records_replayed, 0u);
    EXPECT_FALSE(rig.fs.Exists(segment_path));
  }
}

TEST(RecoveryTest, WidthMismatchedAppendQuarantinedNotFatal) {
  // A committed append of 3-wide rows to an index whose embedder takes the
  // dataset's feature width: replaying it would abort inside the
  // projection, so recovery must quarantine the segment instead.
  DurableRig rig("recover_append_width");
  const size_t checkpoint_records = rig.index.num_records();
  ASSERT_EQ(rig.index.embedder()->input_dim(), rig.ds.features.cols());
  ASSERT_NE(rig.ds.features.cols(), 3u);
  rig.CrackEpoch(2, {10, 20});

  WalRecord append;
  append.type = WalRecordType::kAppend;
  append.lsn = 3;
  append.features = nn::Matrix(2, 3);
  WalRecord marker;
  marker.type = WalRecordType::kEpochPublish;
  marker.lsn = 4;
  marker.epoch = 3;
  const std::string segment_path =
      rig.dir + "/" + SegmentFileName(rig.manager->stats().checkpoints_written);
  ASSERT_TRUE(rig.fs.Append(segment_path, EncodeWalRecord(append) +
                                              EncodeWalRecord(marker)).ok());

  Result<RecoveredState> recovered = Recover(&rig.fs, rig.dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_EQ(recovered->epoch, 1u);
  EXPECT_EQ(recovered->index.num_records(), checkpoint_records);
  ASSERT_EQ(recovered->stats.quarantined_files.size(), 1u);
  EXPECT_EQ(recovered->stats.records_replayed, 0u);
  EXPECT_FALSE(rig.fs.Exists(segment_path));
}

TEST(RecoveryTest, EmptyDirectoryIsNotFound) {
  File fs;
  Result<RecoveredState> recovered =
      Recover(&fs, TestDir("recover_nothing_here") + "_absent");
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

// --- Atomic IndexSerializer::Save ---

TEST(SaveTest, FailedSaveLeavesNoDebris) {
  data::Dataset ds = TestDataset(400);
  core::TastiIndex index = BuildSmallIndex(ds);
  const std::string missing_parent =
      ::testing::TempDir() + "/no_such_dir_xyz/index.bin";
  EXPECT_FALSE(core::IndexSerializer::Save(index, missing_parent).ok());

  // A failed overwrite leaves the previous file byte-for-byte intact.
  const std::string path = TestDir("save_atomic") + "_f";
  ASSERT_TRUE(core::IndexSerializer::Save(index, path).ok());
  Result<std::string> before = DefaultFile()->Read(path);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(
      core::IndexSerializer::Save(index, path + "/not_a_dir/x").ok());
  Result<std::string> after = DefaultFile()->Read(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*before, *after);
  EXPECT_FALSE(DefaultFile()->Exists(path + ".tmp"));

  Result<core::TastiIndex> loaded = core::IndexSerializer::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(IndexFingerprint(*loaded), IndexFingerprint(index));
}

// --- Server integration: recovery + score-cache staleness ---

serve::ServerOptions DurableServerOptions(File* fs, const std::string& dir) {
  serve::ServerOptions opts;
  opts.index = FastIndexOptions();
  opts.num_workers = 1;
  opts.seed = 92;
  opts.durability.dir = dir;
  opts.durability.fs = fs;
  return opts;
}

serve::QuerySpec AggregateSpec(const core::Scorer* scorer) {
  serve::QuerySpec spec;
  spec.kind = serve::QueryKind::kAggregate;
  spec.scorer = scorer;
  spec.error_target = 0.2;
  return spec;
}

TEST(ServerRecoveryTest, RecoversBitIdenticalAfterCrash) {
  data::Dataset ds = TestDataset(700);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  File fs;
  const std::string dir = TestDir("server_recover");
  serve::TastiServer server(&ds, &adapter, DurableServerOptions(&fs, dir));
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);
  EXPECT_TRUE(server.Execute(AggregateSpec(&cars)).status.ok());
  EXPECT_TRUE(server.Execute(AggregateSpec(&present)).status.ok());
  server.Drain();
  const uint64_t epoch = server.current_epoch();
  Result<std::string> want = server.SerializeIndex();
  ASSERT_TRUE(want.ok());

  // Crash before Shutdown's checkpoint: recovery must come from the WAL.
  fs.ArmCrash(/*ops_from_now=*/1, /*seed=*/5);
  server.Shutdown();
  EXPECT_TRUE(server.durability_stats().failed);

  File clean;
  serve::TastiServer revived(&ds, &adapter,
                             DurableServerOptions(&clean, dir));
  ASSERT_TRUE(revived.RecoverFrom().ok());
  EXPECT_EQ(revived.current_epoch(), epoch);
  Result<std::string> got = revived.SerializeIndex();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *want);  // bit-identical to the pre-crash epoch
  ASSERT_TRUE(revived.last_recovery().has_value());
  EXPECT_GT(revived.last_recovery()->epochs_replayed, 0u);

  // The recovered server serves — and keeps its attribution books.
  EXPECT_TRUE(revived.Execute(AggregateSpec(&cars)).status.ok());
  revived.Drain();
  EXPECT_TRUE(revived.CheckAttributionInvariant().ok());
  revived.Shutdown();
}

TEST(ServerRecoveryTest, RecoveryInvalidatesScoreCache) {
  data::Dataset ds = TestDataset(700);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  File fs;
  const std::string dir = TestDir("server_cache_staleness");
  serve::TastiServer server(&ds, &adapter, DurableServerOptions(&fs, dir));
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  // Warm the proxy-score cache at the current epochs.
  EXPECT_TRUE(server.Execute(AggregateSpec(&cars)).status.ok());
  EXPECT_TRUE(server.Execute(AggregateSpec(&cars)).status.ok());
  server.Drain();
  ASSERT_GT(server.score_cache_stats().resident_entries, 0u);

  // Crash: the last crack's epoch publishes in memory but not on disk, so
  // the recovered instance will reuse that epoch id for different content.
  fs.ArmCrash(1, /*seed=*/9);
  EXPECT_TRUE(server.Execute(AggregateSpec(&cars)).status.ok());
  server.Drain();
  server.Shutdown();

  // Warm restart of the same instance: without the explicit Invalidate()
  // in RecoverFrom, the resident entries keyed by the reused epoch ids
  // would serve stale scores as kHit.
  ASSERT_TRUE(server.RecoverFrom().ok());
  serve::ScoreCacheStats cache = server.score_cache_stats();
  EXPECT_GT(cache.invalidations, 0u);
  EXPECT_EQ(cache.resident_entries, 0u);

  serve::QueryResponse response = server.Execute(AggregateSpec(&cars));
  EXPECT_TRUE(response.status.ok());
  EXPECT_EQ(response.proxy_source, serve::ProxySource::kFull);
  server.Drain();
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
  server.Shutdown();
}

TEST(ServerRecoveryTest, CleanShutdownRecoversFromCheckpointAlone) {
  data::Dataset ds = TestDataset(600);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  File fs;
  const std::string dir = TestDir("server_clean_shutdown");
  serve::TastiServer server(&ds, &adapter, DurableServerOptions(&fs, dir));
  ASSERT_TRUE(server.Start().ok());
  core::CountScorer cars(data::ObjectClass::kCar);
  EXPECT_TRUE(server.Execute(AggregateSpec(&cars)).status.ok());
  server.Drain();
  const uint64_t epoch = server.current_epoch();
  Result<std::string> want = server.SerializeIndex();
  ASSERT_TRUE(want.ok());
  server.Shutdown();  // writes the final checkpoint

  File clean;
  serve::TastiServer revived(&ds, &adapter,
                             DurableServerOptions(&clean, dir));
  ASSERT_TRUE(revived.RecoverFrom().ok());
  EXPECT_EQ(revived.current_epoch(), epoch);
  Result<std::string> got = revived.SerializeIndex();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, *want);
  // Clean shutdown means nothing to replay: checkpoint carries it all.
  EXPECT_EQ(revived.last_recovery()->records_replayed, 0u);
  revived.Shutdown();
}

}  // namespace
}  // namespace tasti::durable
