// The durable storage engine's contracts: exact binary round trips, torn /
// corrupt input detected by checksums and rejected with clean Statuses, and
// crash recovery (emulated via storage fault sites — the unbuffered file
// layer leaves exactly the bytes a killed process would) restoring the last
// acknowledged durable state at every thread count.

#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/relational_ops.h"
#include "core/fault_injection.h"
#include "core/thread_pool.h"
#include "constraints/eval_counters.h"
#include "io/commands.h"
#include "io/text_format.h"
#include "storage/binary_format.h"
#include "storage/file_io.h"
#include "storage/snapshot.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"

namespace dodb {
namespace storage {
namespace {

// A fresh directory per call. The names repeat across process runs, so any
// leftover state from an earlier (possibly crashed) run is wiped first.
std::string TestDir(const std::string& tag) {
  static int counter = 0;
  std::string dir =
      ::testing::TempDir() + "dodb_storage_" + tag + std::to_string(counter++);
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(CreateDirIfMissing(dir).ok());
  return dir;
}

GeneralizedRelation RandomRelation(int arity, int tuples, int atoms,
                                   uint64_t seed) {
  std::mt19937_64 rng(seed);
  const RelOp kOps[] = {RelOp::kLt, RelOp::kLe, RelOp::kGe, RelOp::kGt,
                        RelOp::kNeq};
  GeneralizedRelation rel(arity);
  for (int t = 0; t < tuples; ++t) {
    GeneralizedTuple tuple(arity);
    for (int a = 0; a < atoms; ++a) {
      Term lhs = Term::Var(static_cast<int>(rng() % arity));
      // Constants include negatives and non-integers so the BigInt /
      // Rational codec paths are all exercised.
      uint64_t kind = rng() % 4;
      Term rhs =
          kind == 0
              ? Term::Const(Rational(static_cast<int64_t>(rng() % 16) - 8))
          : kind == 1
              ? Term::Const(Rational(static_cast<int64_t>(rng() % 31) - 15,
                                     1 + static_cast<int64_t>(rng() % 7)))
              : Term::Var(static_cast<int>(rng() % arity));
      tuple.AddAtom(DenseAtom(lhs, kOps[rng() % 5], rhs));
    }
    rel.AddTuple(std::move(tuple));
  }
  return rel;
}

Database RandomDatabase(uint64_t seed) {
  Database db;
  db.SetRelation("r1", RandomRelation(1, 6, 3, seed));
  db.SetRelation("r2", RandomRelation(2, 8, 5, seed + 1));
  db.SetRelation("r3", RandomRelation(3, 7, 6, seed + 2));
  db.SetRelation("empty", GeneralizedRelation(2));
  db.SetRelation("top", GeneralizedRelation::True(1));
  return db;
}

// Canonical text of the whole catalog — any representation drift shows.
std::string Fingerprint(const Database& db) { return FormatDatabase(db); }

void ExpectStructurallyEqual(const Database& a, const Database& b) {
  ASSERT_EQ(a.RelationNames(), b.RelationNames());
  for (const std::string& name : a.RelationNames()) {
    EXPECT_TRUE(
        a.FindRelation(name)->StructurallyEquals(*b.FindRelation(name)))
        << "relation " << name;
  }
}

TEST(BinaryFormatTest, RelationPayloadRoundTripsRandomRelations) {
  for (uint64_t seed : {1u, 7u, 42u, 99u}) {
    for (int arity : {1, 2, 4}) {
      GeneralizedRelation rel = RandomRelation(arity, 10, 5, seed);
      ByteWriter writer;
      writer.PutRelationPayload(rel);
      ByteReader reader(writer.data().data(), writer.size());
      GeneralizedRelation decoded(0);
      ASSERT_TRUE(reader.GetRelationPayload(&decoded).ok());
      EXPECT_TRUE(reader.AtEnd());
      EXPECT_TRUE(rel.StructurallyEquals(decoded)) << "seed " << seed;
    }
  }
}

TEST(BinaryFormatTest, BigIntAndRationalEdgeValuesRoundTrip) {
  const Rational values[] = {
      Rational(0), Rational(-1), Rational(1, 3), Rational(-7, 2),
      Rational(BigInt::FromString("123456789012345678901234567890").value(),
               BigInt::FromString("98765432109876543210").value())};
  for (const Rational& value : values) {
    ByteWriter writer;
    writer.PutRational(value);
    ByteReader reader(writer.data().data(), writer.size());
    Rational decoded;
    ASSERT_TRUE(reader.GetRational(&decoded).ok());
    EXPECT_EQ(value, decoded) << value.ToString();
  }
}

TEST(BinaryFormatTest, TruncatedInputIsACleanError) {
  ByteWriter writer;
  writer.PutRelationPayload(RandomRelation(2, 6, 4, 5));
  // Every strict prefix must fail cleanly, never read out of bounds.
  for (size_t len = 0; len < writer.size(); ++len) {
    ByteReader reader(writer.data().data(), len);
    GeneralizedRelation decoded(0);
    Status status = reader.GetRelationPayload(&decoded);
    EXPECT_FALSE(status.ok()) << "prefix " << len;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "prefix " << len;
  }
}

TEST(SnapshotTest, RoundTripIsExactAndThreadCountInvariant) {
  std::vector<std::string> fingerprints;
  for (int threads : {1, 8}) {
    EvalThreadsScope scope(threads);
    // Build through the parallel algebra so the stored tuples come from the
    // same code path a live database uses at this thread count.
    Database db = RandomDatabase(17);
    db.SetRelation("u", algebra::Union(RandomRelation(2, 9, 4, 3),
                                       RandomRelation(2, 9, 4, 4)));
    const std::string path = TestDir("snap") + "/db.snap";
    ASSERT_TRUE(WriteSnapshotFile(db, path).ok());
    Result<Database> loaded = LoadSnapshotFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectStructurallyEqual(db, loaded.value());
    fingerprints.push_back(Fingerprint(loaded.value()));
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
}

TEST(SnapshotTest, MissingFileIsNotFound) {
  Result<Database> loaded = LoadSnapshotFile(TestDir("none") + "/absent.snap");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, CorruptionSweepRejectsEveryRegionCleanly) {
  Database db = RandomDatabase(23);
  const std::string path = TestDir("corrupt") + "/db.snap";
  ASSERT_TRUE(WriteSnapshotFile(db, path).ok());
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
  ASSERT_TRUE(bytes.ok());
  const std::vector<uint8_t> pristine = bytes.value();
  ASSERT_GT(pristine.size(), 40u);

  // One byte flipped per on-disk region: magic, version, relation count,
  // header CRC, first record's name length, a payload byte mid-file, and
  // the final record's CRC (the file's last byte).
  const size_t offsets[] = {3,  8,  12, 16, 20,
                            pristine.size() / 2, pristine.size() - 1};
  for (size_t offset : offsets) {
    std::vector<uint8_t> corrupt = pristine;
    corrupt[offset] ^= 0x40;
    AppendFile file;
    ASSERT_TRUE(file.Open(path, /*truncate=*/true).ok());
    ASSERT_TRUE(file.Append(corrupt.data(), corrupt.size()).ok());
    ASSERT_TRUE(file.Close().ok());
    Result<Database> loaded = LoadSnapshotFile(path);
    EXPECT_FALSE(loaded.ok()) << "offset " << offset;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "offset " << offset << ": " << loaded.status().ToString();
  }

  // Truncation anywhere is also a clean error.
  for (size_t drop : {1u, 4u, 17u}) {
    AppendFile file;
    ASSERT_TRUE(file.Open(path, /*truncate=*/true).ok());
    ASSERT_TRUE(file.Append(pristine.data(), pristine.size() - drop).ok());
    ASSERT_TRUE(file.Close().ok());
    Result<Database> loaded = LoadSnapshotFile(path);
    EXPECT_FALSE(loaded.ok()) << "drop " << drop;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }

  // And the pristine bytes still load (the sweep harness itself is sound).
  AppendFile file;
  ASSERT_TRUE(file.Open(path, /*truncate=*/true).ok());
  ASSERT_TRUE(file.Append(pristine.data(), pristine.size()).ok());
  ASSERT_TRUE(file.Close().ok());
  EXPECT_TRUE(LoadSnapshotFile(path).ok());
}

TEST(WalTest, RecordCodecRoundTripsEveryType) {
  WalRecord create;
  create.type = WalRecordType::kCreateRelation;
  create.name = "edges";
  create.arity = 3;
  WalRecord drop;
  drop.type = WalRecordType::kDropRelation;
  drop.name = "edges";
  WalRecord set;
  set.type = WalRecordType::kSetRelation;
  set.name = "r";
  set.relation = RandomRelation(2, 5, 4, 77);
  WalRecord insert;
  insert.type = WalRecordType::kInsertTuples;
  insert.name = "r";
  insert.relation = RandomRelation(2, 3, 3, 78);

  for (const WalRecord& record : {create, drop, set, insert}) {
    std::vector<uint8_t> payload = EncodeWalRecord(record);
    Result<WalRecord> decoded = DecodeWalRecord(payload.data(), payload.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().type, record.type);
    EXPECT_EQ(decoded.value().name, record.name);
    EXPECT_EQ(decoded.value().arity, record.arity);
    EXPECT_TRUE(decoded.value().relation.StructurallyEquals(record.relation));
  }
}

TEST(WalTest, TornAndCorruptTailsAreTruncatedAtTheLastIntactRecord) {
  const std::string path = TestDir("wal") + "/wal-000000-000000.wal";
  WalWriter writer;
  ASSERT_TRUE(writer.Create(path, 0, 0).ok());
  std::vector<uint64_t> ends;  // file size after each record
  for (int i = 0; i < 3; ++i) {
    WalRecord record;
    record.type = WalRecordType::kCreateRelation;
    record.name = "r" + std::to_string(i);
    record.arity = 1 + i;
    ASSERT_TRUE(writer.Append(EncodeWalRecord(record), nullptr).ok());
    ends.push_back(writer.size());
  }
  ASSERT_TRUE(writer.Sync(nullptr).ok());
  ASSERT_TRUE(writer.Close().ok());

  {  // Intact log.
    Result<WalSegmentContents> contents = ReadWalSegment(path, 0, 0);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents.value().records.size(), 3u);
    EXPECT_FALSE(contents.value().truncated);
    EXPECT_EQ(contents.value().valid_bytes, ends[2]);
  }

  {  // Torn append: a frame prefix promising more bytes than exist.
    AppendFile file;
    ASSERT_TRUE(file.Open(path).ok());
    const uint8_t torn[] = {0x50, 0, 0, 0, 1, 2, 3, 4, 9, 9};
    ASSERT_TRUE(file.Append(torn, sizeof(torn)).ok());
    ASSERT_TRUE(file.Close().ok());
    Result<WalSegmentContents> contents = ReadWalSegment(path, 0, 0);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents.value().records.size(), 3u);
    EXPECT_TRUE(contents.value().truncated);
    EXPECT_EQ(contents.value().valid_bytes, ends[2]);
  }

  {  // A flipped payload byte in the middle record ends the log there.
    Result<std::vector<uint8_t>> bytes = ReadFileBytes(path);
    ASSERT_TRUE(bytes.ok());
    std::vector<uint8_t> corrupt = bytes.value();
    corrupt[ends[0] + 10] ^= 0x01;  // inside record 2's payload
    AppendFile file;
    ASSERT_TRUE(file.Open(path, /*truncate=*/true).ok());
    ASSERT_TRUE(file.Append(corrupt.data(), corrupt.size()).ok());
    ASSERT_TRUE(file.Close().ok());
    Result<WalSegmentContents> contents = ReadWalSegment(path, 0, 0);
    ASSERT_TRUE(contents.ok());
    EXPECT_EQ(contents.value().records.size(), 1u);
    EXPECT_TRUE(contents.value().truncated);
    EXPECT_EQ(contents.value().valid_bytes, ends[0]);
  }

  {  // A misplaced file (valid header, wrong labels) is an error, not a
     // silent empty log.
    Result<WalSegmentContents> contents = ReadWalSegment(path, 1, 0);
    EXPECT_FALSE(contents.ok());
  }
}

// Runs the scripted DML workload through an engine-attached database,
// recording the fingerprint after every acknowledged command.
std::vector<std::string> RunScript(Database* db, StorageEngine* engine,
                                   std::vector<Status>* statuses) {
  const char* kOps[] = {
      "create r(2)",
      "insert into r x0 >= 0 and x0 <= 4 and x1 >= x0",
      "create s(1)",
      "insert into s x0 > 2 and x0 < 9",
      "delete from r where x0 > 3",
      "insert into s x0 = -1/2",
      "drop s",
  };
  std::vector<std::string> fingerprints;
  for (const char* op : kOps) {
    Result<std::string> outcome = ExecuteCommand(db, op, engine);
    if (statuses != nullptr) statuses->push_back(outcome.status());
    fingerprints.push_back(Fingerprint(*db));
  }
  return fingerprints;
}

TEST(StorageEngineTest, ReopenRestoresTheCatalogFromWalAndFromSnapshot) {
  for (int threads : {1, 8}) {
    EvalThreadsScope scope(threads);
    const std::string dir = TestDir("reopen");
    std::string final_fingerprint;
    {
      Database db;
      StorageOptions options;
      options.mode = DurabilityMode::kWal;  // no checkpoint on close
      Result<std::unique_ptr<StorageEngine>> engine =
          StorageEngine::Open(dir, &db, options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      RunScript(&db, engine.value().get(), nullptr);
      final_fingerprint = Fingerprint(db);
      ASSERT_TRUE(engine.value()->Close().ok());
    }
    {  // Pure WAL replay.
      Database db;
      Result<std::unique_ptr<StorageEngine>> engine =
          StorageEngine::Open(dir, &db, {});
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_FALSE(engine.value()->recovery().snapshot_loaded);
      EXPECT_GT(engine.value()->recovery().records_replayed, 0u);
      EXPECT_EQ(Fingerprint(db), final_fingerprint) << threads << " threads";
      // Default mode checkpoints on Close, exercising the snapshot path.
      ASSERT_TRUE(engine.value()->Close().ok());
    }
    {  // Snapshot-seeded recovery, no WAL records.
      Database db;
      Result<std::unique_ptr<StorageEngine>> engine =
          StorageEngine::Open(dir, &db, {});
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_TRUE(engine.value()->recovery().snapshot_loaded);
      EXPECT_EQ(engine.value()->recovery().records_replayed, 0u);
      EXPECT_EQ(Fingerprint(db), final_fingerprint) << threads << " threads";
    }
  }
}

TEST(StorageEngineTest, SegmentRotationAndAutoCheckpointRetireOldFiles) {
  const std::string dir = TestDir("rotate");
  Database db;
  StorageOptions options;
  options.mode = DurabilityMode::kWal;
  options.wal_segment_bytes = 64;  // rotate after nearly every record
  Result<std::unique_ptr<StorageEngine>> engine =
      StorageEngine::Open(dir, &db, options);
  ASSERT_TRUE(engine.ok());
  RunScript(&db, engine.value().get(), nullptr);
  const std::string fingerprint = Fingerprint(db);
  ASSERT_TRUE(engine.value()->Close().ok());
  Result<std::vector<std::string>> names = ListDir(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_GT(names.value().size(), 2u) << "rotation never happened";

  Database recovered;
  Result<std::unique_ptr<StorageEngine>> reopened =
      StorageEngine::Open(dir, &recovered, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GT(reopened.value()->recovery().segments_scanned, 1u);
  EXPECT_EQ(Fingerprint(recovered), fingerprint);

  // A checkpoint collapses everything into one snapshot + one empty WAL.
  ASSERT_TRUE(reopened.value()->Checkpoint().ok());
  Result<std::vector<std::string>> after = ListDir(dir);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().size(), 2u)
      << "old generations not retired";
}

// The crash sweep. For each storage fault site, arm the fault, run the
// scripted workload (and/or a checkpoint), observe the clean failure, then
// reopen without the fault and require the recovered catalog to equal the
// reference state the WAL discipline promises:
//   wal-append:N   crash mid-append of record N  -> state after N-1 records
//   wal-sync:N     crash after fsync, before ack -> state after N records
//   snapshot-*     crash during a checkpoint     -> full pre-checkpoint state
//   wal-replay     crash during recovery itself  -> clean error; next open ok
TEST(StorageEngineCrashTest, KillPointSweepRecoversAcknowledgedState) {
  struct KillPoint {
    const char* spec;
    // Index into the script's fingerprint list the recovered state must
    // equal: records 1..N-1 for an append crash, 1..N for a sync crash.
    size_t expected_index;
  };
  // Record numbers: script op i logs exactly one record (i+1). Faults land
  // on record 4 ("insert into s ...").
  const KillPoint kill_points[] = {
      {"wal-append:4", 2},  // records 1..3 survive
      {"wal-sync:4", 3},    // records 1..4 survive (durable, unacked)
  };
  for (int threads : {1, 8}) {
    EvalThreadsScope scope(threads);

    // Reference fingerprints from a plain in-memory run of the same script.
    Database reference;
    std::vector<std::string> ref_fingerprints =
        RunScript(&reference, nullptr, nullptr);

    for (const KillPoint& kill : kill_points) {
      const std::string dir = TestDir("kill");
      Database db;
      StorageOptions options;
      options.mode = DurabilityMode::kWal;
      options.fault_spec = kill.spec;
      Result<std::unique_ptr<StorageEngine>> engine =
          StorageEngine::Open(dir, &db, options);
      ASSERT_TRUE(engine.ok()) << kill.spec;
      std::vector<Status> statuses;
      RunScript(&db, engine.value().get(), &statuses);
      // Command 4 died at the fault; the engine is sticky-failed after it.
      for (size_t i = 0; i < statuses.size(); ++i) {
        EXPECT_EQ(statuses[i].ok(), i < 3) << kill.spec << " op " << i << ": "
                                           << statuses[i].ToString();
      }
      EXPECT_FALSE(engine.value()->failure().ok()) << kill.spec;
      engine.value().reset();  // "crash": close without checkpoint

      Database recovered;
      Result<std::unique_ptr<StorageEngine>> reopened =
          StorageEngine::Open(dir, &recovered, {});
      ASSERT_TRUE(reopened.ok())
          << kill.spec << ": " << reopened.status().ToString();
      EXPECT_EQ(Fingerprint(recovered), ref_fingerprints[kill.expected_index])
          << kill.spec << " at " << threads << " threads";
      EXPECT_TRUE(reopened.value()->recovery().wal_truncated ==
                  (std::string(kill.spec).find("append") != std::string::npos))
          << kill.spec;

      // The reopened engine is writable: the op that died now succeeds.
      Result<std::string> retry = ExecuteCommand(&recovered, "create retry(1)",
                                                 reopened.value().get());
      EXPECT_TRUE(retry.ok()) << kill.spec << ": " << retry.status().ToString();
    }
  }
}

TEST(StorageEngineCrashTest, CheckpointCrashesLeaveTheOldGenerationIntact) {
  for (const char* spec : {"snapshot-write:1", "snapshot-rename:1"}) {
    for (int threads : {1, 8}) {
      EvalThreadsScope scope(threads);
      const std::string dir = TestDir("ckpt");
      Database db;
      StorageOptions options;
      options.mode = DurabilityMode::kWal;
      options.fault_spec = spec;
      Result<std::unique_ptr<StorageEngine>> engine =
          StorageEngine::Open(dir, &db, options);
      ASSERT_TRUE(engine.ok()) << spec;
      std::vector<Status> statuses;
      RunScript(&db, engine.value().get(), &statuses);
      for (const Status& status : statuses) {
        ASSERT_TRUE(status.ok()) << spec << ": " << status.ToString();
      }
      const std::string fingerprint = Fingerprint(db);
      Status checkpoint = engine.value()->Checkpoint();
      EXPECT_FALSE(checkpoint.ok()) << spec;
      EXPECT_EQ(checkpoint.code(), StatusCode::kResourceExhausted) << spec;
      engine.value().reset();  // crash

      Database recovered;
      Result<std::unique_ptr<StorageEngine>> reopened =
          StorageEngine::Open(dir, &recovered, {});
      ASSERT_TRUE(reopened.ok())
          << spec << ": " << reopened.status().ToString();
      EXPECT_EQ(Fingerprint(recovered), fingerprint)
          << spec << " at " << threads << " threads";
      // The interrupted checkpoint's temp file was cleaned up on reopen.
      Result<std::vector<std::string>> names = ListDir(dir);
      ASSERT_TRUE(names.ok());
      for (const std::string& name : names.value()) {
        EXPECT_FALSE(name.ends_with(".tmp")) << spec << ": " << name;
      }
    }
  }
}

TEST(StorageEngineCrashTest, ReplayCrashFailsCleanlyAndTheNextOpenSucceeds) {
  const std::string dir = TestDir("replay");
  std::string fingerprint;
  {
    Database db;
    StorageOptions options;
    options.mode = DurabilityMode::kWal;
    Result<std::unique_ptr<StorageEngine>> engine =
        StorageEngine::Open(dir, &db, options);
    ASSERT_TRUE(engine.ok());
    RunScript(&db, engine.value().get(), nullptr);
    fingerprint = Fingerprint(db);
    ASSERT_TRUE(engine.value()->Close().ok());
  }
  {
    Database db;
    StorageOptions options;
    // nth = 1: the replay ticker's first Tick always checkpoints, so this
    // fires no matter how few records the log holds.
    options.fault_spec = "wal-replay:1";
    Result<std::unique_ptr<StorageEngine>> engine =
        StorageEngine::Open(dir, &db, options);
    ASSERT_FALSE(engine.ok());
    EXPECT_EQ(engine.status().code(), StatusCode::kResourceExhausted);
  }
  {
    Database db;
    Result<std::unique_ptr<StorageEngine>> engine =
        StorageEngine::Open(dir, &db, {});
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(Fingerprint(db), fingerprint);
  }
}

TEST(StorageEngineCrashTest, EveryStorageFaultSiteIsReachable) {
  // Coverage probe mirroring robustness_test's query-site sweep: an
  // unfaulted engine run must checkpoint every storage site at least once,
  // otherwise the kill-point tests above could pass vacuously.
  const std::string dir = TestDir("coverage");
  Database db;
  StorageOptions options;
  options.mode = DurabilityMode::kWal;
  Result<std::unique_ptr<StorageEngine>> engine =
      StorageEngine::Open(dir, &db, options);
  ASSERT_TRUE(engine.ok());
  RunScript(&db, engine.value().get(), nullptr);
  ASSERT_TRUE(engine.value()->Checkpoint().ok());
  QueryGuard* guard = engine.value()->guard();
  EXPECT_GT(guard->site_checkpoints(GuardSite::kWalAppend), 0u);
  EXPECT_GT(guard->site_checkpoints(GuardSite::kWalSync), 0u);
  EXPECT_GT(guard->site_checkpoints(GuardSite::kWalSyncDegrade), 0u);
  EXPECT_GT(guard->site_checkpoints(GuardSite::kSnapshotWrite), 0u);
  EXPECT_GT(guard->site_checkpoints(GuardSite::kSnapshotRename), 0u);
  ASSERT_TRUE(engine.value()->Close().ok());

  Database recovered;
  Result<std::unique_ptr<StorageEngine>> reopened =
      StorageEngine::Open(dir, &recovered, {});
  ASSERT_TRUE(reopened.ok());
  EXPECT_GT(reopened.value()->guard()->site_checkpoints(GuardSite::kWalReplay),
            0u);
}

TEST(StorageEngineTest, StickyFailureDegradesToTypedReadOnly) {
  // An fsync error mid-service (no crash): the failing op returns its own
  // error, and every later mutation is refused with the distinct kReadOnly
  // code naming the original failure — the contract the server's graceful
  // degradation is built on. Reopening the directory resumes logging.
  const std::string dir = TestDir("degrade");
  Database db;
  StorageOptions options;
  options.mode = DurabilityMode::kWal;
  options.fault_spec = "wal-sync-degrade:2";
  Result<std::unique_ptr<StorageEngine>> engine =
      StorageEngine::Open(dir, &db, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_FALSE(engine.value()->read_only());

  Result<std::string> first =
      ExecuteCommand(&db, "create acked(1)", engine.value().get());
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // The 2nd sync dies: the op reports the injected failure's own code...
  Result<std::string> second =
      ExecuteCommand(&db, "create lost(1)", engine.value().get());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);

  // ...and the engine is sticky-failed, preserving that original code.
  EXPECT_TRUE(engine.value()->read_only());
  EXPECT_EQ(engine.value()->failure().code(),
            StatusCode::kResourceExhausted);

  // Every later mutation gets the typed refusal, not a generic error.
  Result<std::string> refused =
      ExecuteCommand(&db, "create more(1)", engine.value().get());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kReadOnly);
  EXPECT_NE(refused.status().message().find("read-only"), std::string::npos);
  EXPECT_EQ(engine.value()->Checkpoint().code(), StatusCode::kReadOnly);
  engine.value().reset();  // abandon the degraded engine without checkpoint

  Database recovered;
  Result<std::unique_ptr<StorageEngine>> reopened =
      StorageEngine::Open(dir, &recovered, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(reopened.value()->read_only());
  EXPECT_TRUE(recovered.HasRelation("acked"));
  EXPECT_FALSE(recovered.HasRelation("more"));
  Result<std::string> retry =
      ExecuteCommand(&recovered, "create more(1)", reopened.value().get());
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST(StorageEngineTest, CorruptNewestSnapshotFailsLoudly) {
  const std::string dir = TestDir("loud");
  {
    Database db;
    Result<std::unique_ptr<StorageEngine>> engine =
        StorageEngine::Open(dir, &db, {});
    ASSERT_TRUE(engine.ok());
    RunScript(&db, engine.value().get(), nullptr);
    ASSERT_TRUE(engine.value()->Close().ok());  // checkpoints
  }
  Result<std::vector<std::string>> names = ListDir(dir);
  ASSERT_TRUE(names.ok());
  std::string snapshot;
  for (const std::string& name : names.value()) {
    if (name.ends_with(".snap")) snapshot = dir + "/" + name;
  }
  ASSERT_FALSE(snapshot.empty());
  Result<std::vector<uint8_t>> bytes = ReadFileBytes(snapshot);
  ASSERT_TRUE(bytes.ok());
  std::vector<uint8_t> corrupt = bytes.value();
  corrupt[corrupt.size() / 2] ^= 0x10;
  AppendFile file;
  ASSERT_TRUE(file.Open(snapshot, /*truncate=*/true).ok());
  ASSERT_TRUE(file.Append(corrupt.data(), corrupt.size()).ok());
  ASSERT_TRUE(file.Close().ok());

  Database db;
  Result<std::unique_ptr<StorageEngine>> engine =
      StorageEngine::Open(dir, &db, {});
  ASSERT_FALSE(engine.ok()) << "corrupt snapshot silently accepted";
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

TEST(StorageEngineTest, StorageCountersAdvance) {
  EvalCounterSnapshot before = EvalCounters::Snapshot();
  const std::string dir = TestDir("stats");
  Database db;
  Result<std::unique_ptr<StorageEngine>> engine =
      StorageEngine::Open(dir, &db, {});
  ASSERT_TRUE(engine.ok());
  RunScript(&db, engine.value().get(), nullptr);
  ASSERT_TRUE(engine.value()->Close().ok());
  Database recovered;
  Result<std::unique_ptr<StorageEngine>> reopened =
      StorageEngine::Open(dir, &recovered, {});
  ASSERT_TRUE(reopened.ok());
  EvalCounterSnapshot delta = EvalCounters::Snapshot() - before;
  EXPECT_GT(delta.storage_bytes_written, 0u);
  EXPECT_GT(delta.storage_fsyncs, 0u);
  EXPECT_GT(delta.wal_records_appended, 0u);
  EXPECT_GT(delta.snapshots_written, 0u);
  EXPECT_GT(delta.storage_recovery_ns, 0u);
}

}  // namespace
}  // namespace storage
}  // namespace dodb
