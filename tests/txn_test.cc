// The MVCC transaction subsystem's contracts (DESIGN.md §16): transactions
// pin an immutable snapshot at begin and never see later commits, buffered
// DML is invisible until commit, first-committer-wins validation rejects
// overlapping write sets with a typed kTxnConflict, commits are one atomic
// WAL record group (committed transactions survive crash recovery,
// aborted/in-flight ones vanish without trace), a torn commit group at the
// WAL tail surfaces a typed recovery warning, and randomized concurrent
// schedules leave the catalog bit-identical to a serial replay of the
// committed transactions in commit order — at 1 and 8 threads.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/commands.h"
#include "io/database.h"
#include "io/text_format.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/file_io.h"
#include "storage/storage_engine.h"
#include "storage/wal.h"
#include "txn/transaction_manager.h"

namespace dodb {
namespace txn {
namespace {

using storage::StorageEngine;
using storage::StorageOptions;

std::string TestDir(const std::string& tag) {
  static int counter = 0;
  std::string dir =
      ::testing::TempDir() + "dodb_txn_" + tag + std::to_string(counter++);
  std::filesystem::remove_all(dir);
  EXPECT_TRUE(storage::CreateDirIfMissing(dir).ok());
  return dir;
}

// Canonical text of the whole catalog — any drift shows.
std::string Fingerprint(const Database& db) { return FormatDatabase(db); }

// The shared workload catalog: conflict-prone relations r0..r2 plus a
// relation no transaction ever writes (the isolation witness).
void SeedCatalog(Database* db) {
  ASSERT_TRUE(ExecuteCommand(db, "create r0(1)").ok());
  ASSERT_TRUE(ExecuteCommand(db, "create r1(1)").ok());
  ASSERT_TRUE(ExecuteCommand(db, "create r2(1)").ok());
  ASSERT_TRUE(ExecuteCommand(db, "insert into r0 x0 >= 0 and x0 <= 4").ok());
  ASSERT_TRUE(ExecuteCommand(db, "insert into r1 x0 = 7").ok());
  ASSERT_TRUE(ExecuteCommand(db, "create stable(1)").ok());
  ASSERT_TRUE(ExecuteCommand(db, "insert into stable x0 >= 10 and x0 <= 12")
                  .ok());
}

// --- Snapshot isolation & write buffering (in-process) ----------------------

TEST(TxnManagerTest, TransactionReadsThePinnedSnapshotOnly) {
  Database db;
  SeedCatalog(&db);
  TransactionManager mgr(&db, nullptr, nullptr);

  std::unique_ptr<Transaction> txn = mgr.Begin();
  size_t pinned = txn->workspace().FindRelation("r0")->tuple_count();

  // A bare statement auto-commits after the pin; the open transaction must
  // not see it, a transaction begun afterwards must.
  ASSERT_TRUE(mgr.AutoCommit("insert into r0 x0 = 99").ok());
  EXPECT_EQ(txn->workspace().FindRelation("r0")->tuple_count(), pinned);
  EXPECT_EQ(db.FindRelation("r0")->tuple_count(), pinned + 1);

  std::unique_ptr<Transaction> later = mgr.Begin();
  EXPECT_EQ(later->workspace().FindRelation("r0")->tuple_count(), pinned + 1);
  mgr.Abort(std::move(txn));
  mgr.Abort(std::move(later));
}

TEST(TxnManagerTest, BufferedWritesAreVisibleOnlyInTheWorkspaceUntilCommit) {
  Database db;
  SeedCatalog(&db);
  TransactionManager mgr(&db, nullptr, nullptr);

  std::unique_ptr<Transaction> txn = mgr.Begin();
  Result<std::string> buffered =
      mgr.ExecuteBuffered(txn.get(), "insert into r1 x0 = 8");
  ASSERT_TRUE(buffered.ok()) << buffered.status().ToString();
  EXPECT_NE(buffered.value().find("uncommitted"), std::string::npos);
  ASSERT_TRUE(
      mgr.ExecuteBuffered(txn.get(), "create scratch(2)").ok());

  // Own writes visible in the workspace, invisible in the catalog.
  EXPECT_EQ(txn->workspace().FindRelation("r1")->tuple_count(), 2u);
  EXPECT_TRUE(txn->workspace().HasRelation("scratch"));
  EXPECT_EQ(db.FindRelation("r1")->tuple_count(), 1u);
  EXPECT_FALSE(db.HasRelation("scratch"));
  EXPECT_EQ(txn->write_set_size(), 2u);

  uint64_t generation = 0;
  ASSERT_TRUE(mgr.Commit(std::move(txn), nullptr, &generation).ok());
  EXPECT_GT(generation, 0u);
  EXPECT_EQ(db.FindRelation("r1")->tuple_count(), 2u);
  EXPECT_TRUE(db.HasRelation("scratch"));
}

TEST(TxnManagerTest, AbortDiscardsEverythingAndReadOnlyCommitIsTrivial) {
  Database db;
  SeedCatalog(&db);
  TransactionManager mgr(&db, nullptr, nullptr);
  const std::string before = Fingerprint(db);

  std::unique_ptr<Transaction> writer = mgr.Begin();
  ASSERT_TRUE(mgr.ExecuteBuffered(writer.get(), "drop r2").ok());
  ASSERT_TRUE(
      mgr.ExecuteBuffered(writer.get(), "insert into r0 x0 = 55").ok());
  mgr.Abort(std::move(writer));
  EXPECT_EQ(Fingerprint(db), before);

  uint64_t generation_before = mgr.generation();
  std::unique_ptr<Transaction> reader = mgr.Begin();
  EXPECT_TRUE(reader->read_only());
  ASSERT_TRUE(mgr.Commit(std::move(reader)).ok());
  EXPECT_EQ(mgr.generation(), generation_before);  // no generation burned
  EXPECT_EQ(mgr.counters().read_only_commits.load(), 1u);
  EXPECT_EQ(mgr.counters().aborted.load(), 1u);
}

TEST(TxnManagerTest, FirstCommitterWinsOnOverlappingWriteSets) {
  Database db;
  SeedCatalog(&db);
  TransactionManager mgr(&db, nullptr, nullptr);

  std::unique_ptr<Transaction> first = mgr.Begin();
  std::unique_ptr<Transaction> second = mgr.Begin();
  ASSERT_TRUE(
      mgr.ExecuteBuffered(first.get(), "insert into r0 x0 = 20").ok());
  ASSERT_TRUE(
      mgr.ExecuteBuffered(second.get(), "insert into r0 x0 = 21").ok());

  ASSERT_TRUE(mgr.Commit(std::move(first)).ok());
  Status conflicted = mgr.Commit(std::move(second));
  EXPECT_EQ(conflicted.code(), StatusCode::kTxnConflict)
      << conflicted.ToString();
  EXPECT_EQ(mgr.counters().conflicts.load(), 1u);

  // Only the winner's row landed (the seed interval + one point).
  EXPECT_EQ(db.FindRelation("r0")->tuple_count(), 2u);
}

TEST(TxnManagerTest, DisjointWriteSetsBothCommit) {
  Database db;
  SeedCatalog(&db);
  TransactionManager mgr(&db, nullptr, nullptr);

  std::unique_ptr<Transaction> a = mgr.Begin();
  std::unique_ptr<Transaction> b = mgr.Begin();
  ASSERT_TRUE(mgr.ExecuteBuffered(a.get(), "insert into r0 x0 = 30").ok());
  ASSERT_TRUE(mgr.ExecuteBuffered(b.get(), "insert into r1 x0 = 31").ok());
  EXPECT_TRUE(mgr.Commit(std::move(a)).ok());
  EXPECT_TRUE(mgr.Commit(std::move(b)).ok());
  EXPECT_EQ(db.FindRelation("r0")->tuple_count(), 2u);
  EXPECT_EQ(db.FindRelation("r1")->tuple_count(), 2u);
}

TEST(TxnManagerTest, AutoCommitConflictsAnOpenTransactionOnTheSameRelation) {
  Database db;
  SeedCatalog(&db);
  TransactionManager mgr(&db, nullptr, nullptr);

  std::unique_ptr<Transaction> txn = mgr.Begin();
  ASSERT_TRUE(mgr.ExecuteBuffered(txn.get(), "delete from r0 where x0 > 2")
                  .ok());
  ASSERT_TRUE(mgr.AutoCommit("insert into r0 x0 = 40").ok());
  Status conflicted = mgr.Commit(std::move(txn));
  EXPECT_EQ(conflicted.code(), StatusCode::kTxnConflict)
      << conflicted.ToString();
  // The auto-committed row survived; the buffered delete never applied.
  EXPECT_EQ(db.FindRelation("r0")->tuple_count(), 2u);
}

// AutoCommit learns the relation it wrote from the command grammar itself,
// whatever the spacing: for every verb, an open transaction that wrote that
// relation conflicts and one that wrote another relation commits.
TEST(TxnManagerTest, AutoCommitTargetsTheRelationEveryVerbNames) {
  struct Case {
    const char* autocommit;
    const char* same_relation;
  };
  const Case cases[] = {
      {"  create   t9(1) ;", "create t9(1)"},
      {"insert   into\tr0   x0 = 41 ;", "insert into r0 x0 = 42"},
      {"  delete  from   r0   where  x0 > 100 ;", "insert into r0 x0 = 43"},
      {"drop    r2 ;", "insert into r2 x0 = 44"},
  };
  for (const Case& c : cases) {
    Database db;
    SeedCatalog(&db);
    TransactionManager mgr(&db, nullptr, nullptr);
    std::unique_ptr<Transaction> same = mgr.Begin();
    std::unique_ptr<Transaction> other = mgr.Begin();
    ASSERT_TRUE(mgr.ExecuteBuffered(same.get(), c.same_relation).ok())
        << c.same_relation;
    ASSERT_TRUE(mgr.ExecuteBuffered(other.get(), "insert into r1 x0 = 50")
                    .ok());
    ASSERT_TRUE(mgr.AutoCommit(c.autocommit).ok()) << c.autocommit;
    EXPECT_EQ(mgr.Commit(std::move(same)).code(), StatusCode::kTxnConflict)
        << c.autocommit;
    EXPECT_TRUE(mgr.Commit(std::move(other)).ok()) << c.autocommit;
  }
}

// A Begin that observes a commit's generation must also pin that commit's
// snapshot; otherwise it passes first-committer-wins and can overwrite the
// commit it never saw. Warming a large relation keeps any gap between the
// generation moving and the snapshot moving open for a while, so a thread
// spinning on generation() lands in it whenever it exists.
TEST(TxnManagerTest, BeginThatSeesANewGenerationSeesItsCommit) {
  Database db;
  GeneralizedRelation big(1);
  for (int64_t i = 0; i < 20000; ++i) {
    GeneralizedTuple tuple(1);
    tuple.AddAtom(
        DenseAtom(Term::Var(0), RelOp::kGe, Term::Const(Rational(4 * i))));
    tuple.AddAtom(
        DenseAtom(Term::Var(0), RelOp::kLe, Term::Const(Rational(4 * i + 1))));
    big.AddTuple(std::move(tuple));
  }
  db.SetRelation("big", std::move(big));
  TransactionManager mgr(&db, nullptr, nullptr);
  for (int round = 0; round < 8; ++round) {
    const int64_t point = -1 - round;
    const uint64_t before = mgr.generation();
    bool pinned_the_write = false;
    std::thread spinner([&] {
      while (mgr.generation() == before) {
      }
      std::unique_ptr<Transaction> txn = mgr.Begin();
      pinned_the_write =
          txn->workspace().FindRelation("big")->Contains({Rational(point)});
      mgr.Abort(std::move(txn));
    });
    std::unique_ptr<Transaction> writer = mgr.Begin();
    ASSERT_TRUE(mgr.ExecuteBuffered(writer.get(),
                                    "insert into big x0 = " +
                                        std::to_string(point))
                    .ok());
    ASSERT_TRUE(mgr.Commit(std::move(writer)).ok());
    spinner.join();
    EXPECT_TRUE(pinned_the_write) << "round " << round;
  }
}

// --- Durability: atomic commit groups under crash recovery ------------------

TEST(TxnCrashTest, CommittedTransactionsSurviveAbortedAndInFlightVanish) {
  const std::string dir = TestDir("mix");
  std::string expected;
  {
    Database fresh;
    StorageOptions options;
    options.mode = storage::DurabilityMode::kWal;
    Result<std::unique_ptr<StorageEngine>> engine2 =
        StorageEngine::Open(dir, &fresh, options);
    ASSERT_TRUE(engine2.ok());
    TransactionManager mgr(&fresh, engine2.value().get(), nullptr);
    ASSERT_TRUE(mgr.AutoCommit("create r0(1)").ok());
    ASSERT_TRUE(mgr.AutoCommit("insert into r0 x0 >= 0 and x0 <= 4").ok());

    // Committed: lands as ONE kTxnCommit record group.
    std::unique_ptr<Transaction> committed = mgr.Begin();
    ASSERT_TRUE(
        mgr.ExecuteBuffered(committed.get(), "create from_txn(1)").ok());
    ASSERT_TRUE(mgr.ExecuteBuffered(committed.get(),
                                    "insert into from_txn x0 = 1")
                    .ok());
    ASSERT_TRUE(mgr.Commit(std::move(committed)).ok());

    // Aborted and in-flight: never touch the WAL.
    std::unique_ptr<Transaction> aborted = mgr.Begin();
    ASSERT_TRUE(
        mgr.ExecuteBuffered(aborted.get(), "insert into r0 x0 = 50").ok());
    mgr.Abort(std::move(aborted));
    std::unique_ptr<Transaction> in_flight = mgr.Begin();
    ASSERT_TRUE(
        mgr.ExecuteBuffered(in_flight.get(), "drop r0").ok());

    expected = Fingerprint(fresh);
    // "Crash": drop the engine (and the in-flight transaction) with no
    // checkpoint, mid-transaction.
  }
  Database recovered;
  Result<std::unique_ptr<StorageEngine>> reopened =
      StorageEngine::Open(dir, &recovered, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Fingerprint(recovered), expected);
  EXPECT_EQ(reopened.value()->recovery().txn_commits_replayed, 1u);
  EXPECT_GT(reopened.value()->recovery().last_txn_generation, 0u);
  EXPECT_FALSE(reopened.value()->recovery().torn_txn_tail);
}

TEST(TxnCrashTest, KillAtTxnWalCommitLosesOnlyTheUnloggedTransaction) {
  const std::string dir = TestDir("kill");
  std::string expected;
  {
    Database db;
    StorageOptions options;
    options.mode = storage::DurabilityMode::kWal;
    // The storage-side txn fault site: the commit passed validation but the
    // process dies before its WAL group is appended.
    options.fault_spec = "txn-wal-commit:2";
    Result<std::unique_ptr<StorageEngine>> engine =
        StorageEngine::Open(dir, &db, options);
    ASSERT_TRUE(engine.ok());
    TransactionManager mgr(&db, engine.value().get(), nullptr);
    ASSERT_TRUE(mgr.AutoCommit("create r0(1)").ok());

    std::unique_ptr<Transaction> survivor = mgr.Begin();
    ASSERT_TRUE(
        mgr.ExecuteBuffered(survivor.get(), "insert into r0 x0 = 1").ok());
    ASSERT_TRUE(mgr.Commit(std::move(survivor)).ok());
    expected = Fingerprint(db);

    std::unique_ptr<Transaction> victim = mgr.Begin();
    ASSERT_TRUE(
        mgr.ExecuteBuffered(victim.get(), "insert into r0 x0 = 2").ok());
    Status died = mgr.Commit(std::move(victim));
    EXPECT_FALSE(died.ok());
    // The engine is sticky-failed: later writes are refused.
    EXPECT_FALSE(engine.value()->failure().ok());
  }
  Database recovered;
  Result<std::unique_ptr<StorageEngine>> reopened =
      StorageEngine::Open(dir, &recovered, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Fingerprint(recovered), expected);
  EXPECT_EQ(reopened.value()->recovery().txn_commits_replayed, 1u);
}

TEST(TxnCrashTest, TornCommitGroupAtTheTailSurfacesATypedWarning) {
  const std::string dir = TestDir("torn");
  std::string expected;
  {
    Database db;
    StorageOptions options;
    options.mode = storage::DurabilityMode::kWal;
    Result<std::unique_ptr<StorageEngine>> engine =
        StorageEngine::Open(dir, &db, options);
    ASSERT_TRUE(engine.ok());
    TransactionManager mgr(&db, engine.value().get(), nullptr);
    ASSERT_TRUE(mgr.AutoCommit("create r0(1)").ok());
    expected = Fingerprint(db);

    std::unique_ptr<Transaction> txn = mgr.Begin();
    ASSERT_TRUE(mgr.ExecuteBuffered(
                    txn.get(), "insert into r0 x0 >= 0 and x0 <= 9")
                    .ok());
    ASSERT_TRUE(mgr.Commit(std::move(txn)).ok());
    // Crash without checkpoint; then tear the WAL tail mid-commit-group.
  }
  // Find the WAL segment and chop bytes off its tail so the kTxnCommit
  // record's CRC frame is incomplete — exactly what a crash mid-append
  // leaves behind.
  // Segments are "wal-<gen>-<seg>.wal"; the lexicographically largest is
  // the active tail.
  std::string wal_path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("wal-", 0) == 0 && entry.path().string() > wal_path) {
      wal_path = entry.path().string();
    }
  }
  ASSERT_FALSE(wal_path.empty());
  uintmax_t size = std::filesystem::file_size(wal_path);
  ASSERT_GT(size, 12u);
  std::filesystem::resize_file(wal_path, size - 4);

  Database recovered;
  Result<std::unique_ptr<StorageEngine>> reopened =
      StorageEngine::Open(dir, &recovered, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // The torn commit never happened: state is the pre-transaction catalog,
  // and recovery says WHY the tail was discarded instead of silently
  // truncating.
  EXPECT_EQ(Fingerprint(recovered), expected);
  EXPECT_TRUE(reopened.value()->recovery().wal_truncated);
  EXPECT_TRUE(reopened.value()->recovery().torn_txn_tail);
  EXPECT_NE(reopened.value()->recovery().warning.find(
                "unfinished transaction"),
            std::string::npos)
      << reopened.value()->recovery().warning;
  EXPECT_EQ(reopened.value()->recovery().txn_commits_replayed, 0u);
}

// --- Randomized concurrent differential -------------------------------------

// One committed transaction's replayable payload: its commit generation and
// the statements that succeeded inside it, in execution order.
struct CommittedTxn {
  uint64_t generation = 0;
  std::vector<std::string> texts;
};

// Runs `threads` workers, each executing `txns_per_thread` randomized
// transactions (constant-predicate DML so replay is state-independent; see
// below) against one shared manager. Returns the committed transcripts.
std::vector<CommittedTxn> RunConcurrentWorkload(TransactionManager* mgr,
                                                const Database& db,
                                                int threads,
                                                int txns_per_thread,
                                                uint64_t seed) {
  std::mutex mu;
  std::vector<CommittedTxn> committed;
  std::vector<std::thread> workers;
  std::atomic<int> conflicts{0};
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(seed + static_cast<uint64_t>(t) * 7919);
      for (int i = 0; i < txns_per_thread; ++i) {
        std::unique_ptr<Transaction> txn = mgr->Begin();
        // Snapshot isolation witness: a relation nobody writes holds its
        // begin-time shape for the whole transaction, however many commits
        // land meanwhile.
        size_t stable = txn->workspace().FindRelation("stable")->tuple_count();
        std::vector<std::string> texts;
        int ops = 1 + static_cast<int>(rng() % 3);
        for (int k = 0; k < ops; ++k) {
          std::string text;
          uint64_t kind = rng() % 8;
          std::string rel = "r" + std::to_string(rng() % 3);
          int64_t lo = static_cast<int64_t>(rng() % 100);
          if (kind < 4) {
            text = "insert into " + rel + " x0 >= " + std::to_string(lo) +
                   " and x0 <= " + std::to_string(lo + 2);
          } else if (kind < 6) {
            text = "delete from " + rel + " where x0 > " +
                   std::to_string(lo + 40);
          } else if (kind == 6) {
            text = "create t" + std::to_string(t) + "_" + std::to_string(i) +
                   "(1)";
          } else {
            text = "drop " + rel;
          }
          Result<std::string> outcome = mgr->ExecuteBuffered(txn.get(), text);
          if (outcome.ok()) texts.push_back(text);
        }
        EXPECT_EQ(txn->workspace().FindRelation("stable")->tuple_count(),
                  stable);
        if (rng() % 4 == 0) {
          mgr->Abort(std::move(txn));
          continue;
        }
        uint64_t generation = 0;
        Status status = mgr->Commit(std::move(txn), nullptr, &generation);
        if (status.ok()) {
          if (!texts.empty()) {
            std::lock_guard<std::mutex> lock(mu);
            committed.push_back({generation, std::move(texts)});
          }
        } else {
          EXPECT_EQ(status.code(), StatusCode::kTxnConflict)
              << status.ToString();
          conflicts.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  (void)db;
  return committed;
}

// The differential: after a randomized concurrent schedule, the catalog is
// bit-identical to a fresh catalog that replays only the committed
// transactions, serially, in commit-generation order. Holds because the
// workload's predicates are constant (each statement's inserted batch is
// state-independent) and first-committer-wins validation guarantees every
// written relation is untouched between a transaction's begin and commit —
// so serial replay sees exactly the states the workspaces saw.
TEST(TxnDifferentialTest, ConcurrentScheduleMatchesSerialCommitOrderReplay) {
  for (int threads : {1, 8}) {
    Database db;
    SeedCatalog(&db);
    Database reference;
    SeedCatalog(&reference);

    TransactionManager mgr(&db, nullptr, nullptr);
    std::vector<CommittedTxn> committed = RunConcurrentWorkload(
        &mgr, db, threads, /*txns_per_thread=*/threads == 1 ? 40 : 12,
        /*seed=*/20260808);

    std::sort(committed.begin(), committed.end(),
              [](const CommittedTxn& a, const CommittedTxn& b) {
                return a.generation < b.generation;
              });
    for (size_t i = 1; i < committed.size(); ++i) {
      ASSERT_NE(committed[i].generation, committed[i - 1].generation)
          << "commit generations must be unique";
    }
    for (const CommittedTxn& txn : committed) {
      for (const std::string& text : txn.texts) {
        Result<std::string> replayed = ExecuteCommand(&reference, text);
        ASSERT_TRUE(replayed.ok())
            << text << ": " << replayed.status().ToString();
      }
    }
    EXPECT_EQ(Fingerprint(db), Fingerprint(reference))
        << "diverged at " << threads << " threads";
  }
}

// Same differential through the full durable stack: the concurrent schedule
// runs over a storage engine, the process "crashes", and RECOVERY must land
// on the serial-replay state too (commit groups replay atomically, in log
// order = commit order).
TEST(TxnDifferentialTest, RecoveryMatchesSerialReplayAfterConcurrentRun) {
  for (int threads : {1, 8}) {
    const std::string dir = TestDir("diff");
    Database reference;
    std::vector<CommittedTxn> committed;
    {
      Database db;
      StorageOptions options;
      options.mode = storage::DurabilityMode::kWal;
      Result<std::unique_ptr<StorageEngine>> engine =
          StorageEngine::Open(dir, &db, options);
      ASSERT_TRUE(engine.ok());
      TransactionManager mgr(&db, engine.value().get(), nullptr);
      ASSERT_TRUE(mgr.AutoCommit("create r0(1)").ok());
      ASSERT_TRUE(mgr.AutoCommit("create r1(1)").ok());
      ASSERT_TRUE(mgr.AutoCommit("create r2(1)").ok());
      ASSERT_TRUE(mgr.AutoCommit("create stable(1)").ok());
      ASSERT_TRUE(
          mgr.AutoCommit("insert into stable x0 >= 10 and x0 <= 12").ok());
      ASSERT_TRUE(ExecuteCommand(&reference, "create r0(1)").ok());
      ASSERT_TRUE(ExecuteCommand(&reference, "create r1(1)").ok());
      ASSERT_TRUE(ExecuteCommand(&reference, "create r2(1)").ok());
      ASSERT_TRUE(ExecuteCommand(&reference, "create stable(1)").ok());
      ASSERT_TRUE(
          ExecuteCommand(&reference,
                         "insert into stable x0 >= 10 and x0 <= 12")
              .ok());
      committed = RunConcurrentWorkload(&mgr, db, threads,
                                        /*txns_per_thread=*/8,
                                        /*seed=*/777);
      // Crash without checkpoint.
    }
    Database recovered;
    Result<std::unique_ptr<StorageEngine>> reopened =
        StorageEngine::Open(dir, &recovered, {});
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

    std::sort(committed.begin(), committed.end(),
              [](const CommittedTxn& a, const CommittedTxn& b) {
                return a.generation < b.generation;
              });
    for (const CommittedTxn& txn : committed) {
      for (const std::string& text : txn.texts) {
        ASSERT_TRUE(ExecuteCommand(&reference, text).ok()) << text;
      }
    }
    EXPECT_EQ(Fingerprint(recovered), Fingerprint(reference))
        << "recovery diverged at " << threads << " threads";
    EXPECT_EQ(reopened.value()->recovery().txn_commits_replayed,
              committed.size());
  }
}

// --- The served transaction surface -----------------------------------------

namespace srv = ::dodb::server;

srv::ClientOptions Options(uint16_t port) {
  srv::ClientOptions options;
  options.port = port;
  options.connect_timeout_ms = 2000;
  options.io_timeout_ms = 10000;
  return options;
}

TEST(TxnServerTest, StateMachineRejectsInvalidTransitions) {
  Database db;
  SeedCatalog(&db);
  srv::DodbServer server(&db, nullptr, nullptr, srv::ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  srv::DodbClient client(Options(server.port()));
  ASSERT_TRUE(client.Connect().ok());

  EXPECT_EQ(client.CommitTxn().status().code(),
            StatusCode::kTxnInvalidState);
  EXPECT_EQ(client.AbortTxn().status().code(), StatusCode::kTxnInvalidState);
  ASSERT_TRUE(client.Begin().ok());
  EXPECT_TRUE(client.in_transaction());
  EXPECT_EQ(client.Begin().status().code(), StatusCode::kTxnInvalidState);
  EXPECT_EQ(client.Command("\\checkpoint").status().code(),
            StatusCode::kTxnInvalidState);
  EXPECT_TRUE(client.AbortTxn().ok());
  EXPECT_FALSE(client.in_transaction());
  EXPECT_EQ(server.stats().txn_invalid_state.load(), 4u);
  server.Stop();
}

TEST(TxnServerTest, SnapshotIsolationAcrossSessions) {
  Database db;
  SeedCatalog(&db);
  srv::DodbServer server(&db, nullptr, nullptr, srv::ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  srv::DodbClient reader(Options(server.port()));
  srv::DodbClient writer(Options(server.port()));
  ASSERT_TRUE(reader.Connect().ok());
  ASSERT_TRUE(writer.Connect().ok());

  ASSERT_TRUE(reader.Begin().ok());
  Result<srv::QueryResult> before = reader.Query("{ (x) | r1(x) }");
  ASSERT_TRUE(before.ok());

  // A concurrent auto-commit lands a new generation...
  ASSERT_TRUE(writer.Command("insert into r1 x0 = 70").ok());
  Result<srv::QueryResult> outside = writer.Query("{ (x) | r1(x) }");
  ASSERT_TRUE(outside.ok());
  EXPECT_NE(outside.value().text, before.value().text);

  // ...which the pinned transaction must NOT see, before or after.
  Result<srv::QueryResult> during = reader.Query("{ (x) | r1(x) }");
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during.value().text, before.value().text);
  ASSERT_TRUE(reader.CommitTxn().ok());  // read-only commit is trivial

  // Outside the transaction the next query reads the latest snapshot.
  Result<srv::QueryResult> after = reader.Query("{ (x) | r1(x) }");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().text, outside.value().text);
  server.Stop();
}

TEST(TxnServerTest, BufferedWritesInvisibleToOthersUntilCommit) {
  Database db;
  SeedCatalog(&db);
  srv::DodbServer server(&db, nullptr, nullptr, srv::ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  srv::DodbClient a(Options(server.port()));
  srv::DodbClient b(Options(server.port()));
  ASSERT_TRUE(a.Connect().ok());
  ASSERT_TRUE(b.Connect().ok());

  Result<srv::QueryResult> baseline = b.Query("{ (x) | r0(x) }");
  ASSERT_TRUE(baseline.ok());

  ASSERT_TRUE(a.Begin().ok());
  Result<std::string> buffered = a.Command("insert into r0 x0 = 60");
  ASSERT_TRUE(buffered.ok());
  EXPECT_NE(buffered.value().find("uncommitted"), std::string::npos);

  // A sees its own write; B does not.
  Result<srv::QueryResult> own = a.Query("{ (x) | r0(x) }");
  Result<srv::QueryResult> other = b.Query("{ (x) | r0(x) }");
  ASSERT_TRUE(own.ok());
  ASSERT_TRUE(other.ok());
  EXPECT_NE(own.value().text, baseline.value().text);
  EXPECT_EQ(other.value().text, baseline.value().text);

  Result<std::string> committed = a.CommitTxn();
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  Result<srv::QueryResult> visible = b.Query("{ (x) | r0(x) }");
  ASSERT_TRUE(visible.ok());
  EXPECT_EQ(visible.value().text, own.value().text);
  server.Stop();
}

TEST(TxnServerTest, ConflictOverTheWireAndSessionCloseAborts) {
  Database db;
  SeedCatalog(&db);
  srv::DodbServer server(&db, nullptr, nullptr, srv::ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  {
    srv::DodbClient a(Options(server.port()));
    srv::DodbClient b(Options(server.port()));
    ASSERT_TRUE(a.Connect().ok());
    ASSERT_TRUE(b.Connect().ok());
    ASSERT_TRUE(a.Begin().ok());
    ASSERT_TRUE(b.Begin().ok());
    ASSERT_TRUE(a.Command("insert into r2 x0 = 1").ok());
    ASSERT_TRUE(b.Command("insert into r2 x0 = 2").ok());
    ASSERT_TRUE(a.CommitTxn().ok());
    Result<std::string> lost = b.CommitTxn();
    EXPECT_EQ(lost.status().code(), StatusCode::kTxnConflict)
        << lost.status().ToString();
    EXPECT_FALSE(b.in_transaction());

    // A dangling transaction dies with its connection: this open write
    // set must never surface.
    srv::DodbClient dangling(Options(server.port()));
    ASSERT_TRUE(dangling.Connect().ok());
    ASSERT_TRUE(dangling.Begin().ok());
    ASSERT_TRUE(dangling.Command("drop r2").ok());
    dangling.Close();
  }
  server.Stop();
  EXPECT_TRUE(db.HasRelation("r2"));
  EXPECT_EQ(db.FindRelation("r2")->tuple_count(), 1u);
}

TEST(TxnServerTest, ForgedValidationConflictDrivesTheClientRetry) {
  Database db;
  SeedCatalog(&db);
  srv::ServerConfig config;
  // The chaos fault: the first commit loses validation even though nobody
  // else committed. RunReadOnlyTransaction must retry the whole
  // transaction and succeed on the second attempt.
  config.fault_spec = "txn-commit-validate:1";
  srv::DodbServer server(&db, nullptr, nullptr, config);
  ASSERT_TRUE(server.Start().ok());
  srv::DodbClient client(Options(server.port()));
  ASSERT_TRUE(client.Connect().ok());

  Result<std::vector<srv::QueryResult>> answers =
      client.RunReadOnlyTransaction(
          {"{ (x) | r0(x) }", "{ (x) | r1(x) }"});
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers.value().size(), 2u);
  EXPECT_GT(client.retries(), 0u);
  EXPECT_EQ(server.stats().faults_injected.load(), 1u);
  server.Stop();
}

TEST(TxnServerTest, BeginFaultDropsTheConnectionAndTheClientRecovers) {
  Database db;
  SeedCatalog(&db);
  srv::ServerConfig config;
  config.fault_spec = "txn-begin:1";
  srv::DodbServer server(&db, nullptr, nullptr, config);
  ASSERT_TRUE(server.Start().ok());
  srv::DodbClient client(Options(server.port()));
  ASSERT_TRUE(client.Connect().ok());

  // The first begin dies silently with the connection; Begin() retries the
  // transport failure on a fresh session and succeeds.
  Result<std::string> begun = client.Begin();
  ASSERT_TRUE(begun.ok()) << begun.status().ToString();
  EXPECT_TRUE(client.in_transaction());
  EXPECT_GT(client.retries(), 0u);
  EXPECT_EQ(server.stats().faults_injected.load(), 1u);
  ASSERT_TRUE(client.AbortTxn().ok());
  server.Stop();
}

TEST(TxnServerTest, ConcurrentSessionHerdWithDisjointWritesAllCommit) {
  Database db;
  SeedCatalog(&db);
  srv::ServerConfig config;
  config.max_sessions = 8;
  srv::DodbServer server(&db, nullptr, nullptr, config);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      srv::DodbClient client(Options(server.port()));
      if (!client.Connect().ok()) {
        failures.fetch_add(1);
        return;
      }
      std::string rel = "herd" + std::to_string(t);
      if (!client.Begin().ok() ||
          !client.Command("create " + rel + "(1)").ok() ||
          !client.Command("insert into " + rel + " x0 = " +
                          std::to_string(t))
               .ok() ||
          !client.CommitTxn().ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  server.Stop();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    const GeneralizedRelation* rel =
        db.FindRelation("herd" + std::to_string(t));
    ASSERT_NE(rel, nullptr) << t;
    EXPECT_EQ(rel->tuple_count(), 1u) << t;
  }
  const txn::TxnCounters* counters = server.txn_counters();
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->committed.load(), 8u);
  EXPECT_EQ(counters->conflicts.load(), 0u);
}

TEST(TxnServerTest, ServedCommitsAreDurableAndAbortedOnesAreNot) {
  const std::string dir = TestDir("served");
  std::string expected;
  {
    Database db;
    StorageOptions options;
    options.mode = storage::DurabilityMode::kWal;
    Result<std::unique_ptr<StorageEngine>> engine =
        StorageEngine::Open(dir, &db, options);
    ASSERT_TRUE(engine.ok());
    srv::DodbServer server(&db, engine.value().get(), nullptr,
                           srv::ServerConfig{});
    ASSERT_TRUE(server.Start().ok());
    srv::DodbClient client(Options(server.port()));
    ASSERT_TRUE(client.Connect().ok());

    ASSERT_TRUE(client.Command("create base(1)").ok());  // auto-commit
    ASSERT_TRUE(client.Begin().ok());
    ASSERT_TRUE(client.Command("create kept(1)").ok());
    ASSERT_TRUE(client.Command("insert into kept x0 = 3").ok());
    ASSERT_TRUE(client.CommitTxn().ok());
    ASSERT_TRUE(client.Begin().ok());
    ASSERT_TRUE(client.Command("create dropped(1)").ok());
    ASSERT_TRUE(client.AbortTxn().ok());
    server.Stop();
    expected = Fingerprint(db);
    // Crash: no checkpoint, no clean engine close.
  }
  Database recovered;
  Result<std::unique_ptr<StorageEngine>> reopened =
      StorageEngine::Open(dir, &recovered, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Fingerprint(recovered), expected);
  EXPECT_TRUE(recovered.HasRelation("kept"));
  EXPECT_FALSE(recovered.HasRelation("dropped"));
  EXPECT_EQ(reopened.value()->recovery().txn_commits_replayed, 1u);
}

}  // namespace
}  // namespace txn
}  // namespace dodb
