#ifndef DODB_STORAGE_STORAGE_ENGINE_H_
#define DODB_STORAGE_STORAGE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/query_guard.h"
#include "core/status.h"
#include "io/database.h"
#include "storage/wal.h"

namespace dodb {
namespace storage {

/// How much durability the engine provides (the shell's \wal command and
/// Open() select one).
enum class DurabilityMode {
  kOff,            // no files touched; Log* calls are no-ops
  kWal,            // every op logged + fsynced before it is acknowledged
  kWalCheckpoint,  // kWal, plus automatic snapshot checkpoints and a
                   // checkpoint on Close()
};

const char* DurabilityModeName(DurabilityMode mode);

/// Callbacks connecting the engine to a materialized-view registry without a
/// storage→datalog dependency. Views are metadata + derived data: the WAL
/// carries only their definitions (kCreateView/kDropView records), never
/// their tuples — maintenance keeps the log O(delta) in the base change.
/// Checkpoint() re-logs every registered definition into the fresh WAL (the
/// old segments, holding the original create records, are retired), and
/// replay re-registers views *stale*; the caller recomputes them after Open
/// (ViewRegistry::RefreshStale).
struct ViewHooks {
  /// (name, definition text) of every registered view, in creation-safe
  /// (name) order. Called by Checkpoint.
  std::function<std::vector<std::pair<std::string, std::string>>()> list;
  /// Re-registers a view from its definition without evaluating it; the
  /// view starts stale. Called during WAL replay.
  std::function<Status(const std::string& name, const std::string& text)>
      restore;
  /// Unregisters a replayed view drop; returns whether it was registered.
  std::function<bool(const std::string& name)> restore_drop;
};

struct StorageOptions {
  DurabilityMode mode = DurabilityMode::kWalCheckpoint;
  /// Rotate to a new WAL segment once the current one exceeds this.
  uint64_t wal_segment_bytes = 4ull << 20;
  /// fsync batching: sync after every nth logged record. 1 = every record
  /// (full ack-implies-durable); larger values trade the tail of a crash for
  /// throughput, exactly like group commit.
  uint32_t wal_sync_every = 1;
  /// In kWalCheckpoint mode, checkpoint automatically once the live WAL
  /// exceeds this many bytes. 0 = only explicit Checkpoint()/Close().
  uint64_t checkpoint_wal_bytes = 64ull << 20;
  /// Budgets for the engine's guard (recovery replay, snapshot writes).
  /// deadline_ms is measured from Open(), so treat it as a bound on the
  /// engine's whole life, not per-op.
  GuardLimits limits;
  /// Storage fault spec "<site>[:<nth>]" (core/fault_injection.h). Empty =
  /// the DODB_FAULT environment variable when set, else off. The crash
  /// tests arm wal-append / wal-sync / snapshot-write / snapshot-rename /
  /// wal-replay here.
  std::string fault_spec;
  /// Optional view-registry callbacks; without them, replaying a WAL that
  /// holds view records is an error (the database needs its view-aware
  /// opener).
  ViewHooks view_hooks;
};

/// What recovery found when the engine opened.
struct RecoveryInfo {
  bool snapshot_loaded = false;   // a snapshot file seeded the catalog
  uint32_t generation = 0;        // generation recovered into
  size_t segments_scanned = 0;    // WAL segments read
  size_t records_replayed = 0;    // logical ops applied on top of the snapshot
  bool wal_truncated = false;     // a torn/corrupt WAL tail was chopped
  uint64_t recovery_ns = 0;       // wall time of the whole Open() recovery
  /// Transaction commit groups replayed (each counts once in
  /// records_replayed; its sub-operations are not counted separately).
  uint64_t txn_commits_replayed = 0;
  /// Highest transaction commit generation seen in the replayed log; the
  /// TransactionManager resumes numbering above it.
  uint64_t last_txn_generation = 0;
  /// The chopped WAL tail was an unfinished transaction commit: its write
  /// set vanished (correct — the commit never completed), and `warning`
  /// carries the typed message instead of a silent truncation.
  bool torn_txn_tail = false;
  std::string warning;
};

/// Durable storage for one Database: a data directory holding the latest
/// binary snapshot plus the WAL segments written since (DESIGN.md §11).
///
///   dodb_data/
///     snapshot-000007.snap     latest checkpoint (generation 7)
///     wal-000007-000000.wal    segments extending it, in index order
///     wal-000007-000001.wal
///
/// Discipline: callers invoke Log* BEFORE applying the same operation to the
/// in-memory Database; a Log* that returns OK means the op is durable (at
/// wal_sync_every = 1) and recovery will replay it. A Log* error means the
/// op must not be applied or acknowledged — and the engine goes sticky-
/// failed: the failing call returns its own error, and every LATER
/// Log*/Checkpoint is refused with a distinct StatusCode::kReadOnly
/// naming the original failure, because after a failed append the disk
/// state no longer tracks memory and only a fresh Open() (which
/// re-truncates the torn tail) can re-establish the invariant. The typed
/// kReadOnly lets callers (the server, the shell) degrade gracefully —
/// keep answering queries, refuse DML precisely — instead of treating the
/// engine as generically broken. Close() the failed engine and reopen to
/// resume.
///
/// Checkpoint() writes generation N+1: snapshot of the current catalog
/// (atomic temp + rename), a fresh empty WAL, then deletes generation N's
/// files. A crash anywhere in between leaves either generation intact on
/// disk — recovery picks the newest complete snapshot.
///
/// Not thread-safe: the engine serializes with the catalog it mirrors,
/// which is single-writer by construction (the shell/command layer).
class StorageEngine {
 public:
  /// Opens (creating if needed) the data directory, recovers `db` from the
  /// newest snapshot + WAL tail, and leaves the engine ready to log. `db`
  /// must outlive the engine and start empty — recovery replaces its
  /// contents. A corrupt snapshot is a loud error (never silently ignored);
  /// a torn WAL tail is truncated and reported via recovery().
  static Result<std::unique_ptr<StorageEngine>> Open(
      const std::string& dir, Database* db, StorageOptions options = {});

  ~StorageEngine();
  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  /// Logs "create <name>/<arity>" durably. Call before Database::AddRelation.
  Status LogCreate(const std::string& name, int arity);
  /// Logs "drop <name>". Call before Database::RemoveRelation.
  Status LogDrop(const std::string& name);
  /// Logs "set <name> = relation" (insert/delete results, materialized
  /// query results). Call before Database::SetRelation.
  Status LogSet(const std::string& name, const GeneralizedRelation& relation);
  /// Logs "union <batch> into <name>"; replay unions the batch into the
  /// relation's recovered state. Call before applying the same union.
  Status LogInsert(const std::string& name, const GeneralizedRelation& batch);

  /// Logs "create view <name> as <text>". The definition only — the
  /// materialized tuples are derived state, recomputed on recovery. Because
  /// registering a view can itself fail (evaluation), the command layer
  /// creates the view first and logs on success, rolling the registration
  /// back if the log fails — disk never runs ahead of memory.
  Status LogViewCreate(const std::string& name, const std::string& text);
  /// Logs "drop view <name>". Call before ViewRegistry::Drop.
  Status LogViewDrop(const std::string& name);

  /// Logs a whole transaction's write set as ONE atomic kTxnCommit record
  /// group tagged with its commit generation. The group either replays in
  /// full or (torn tail) not at all, so aborted and in-flight transactions
  /// never reach the log and a crashed commit vanishes cleanly. Checkpoints
  /// GuardSite::kTxnWalCommit before the append — a trip there emulates a
  /// crash with the commit validated but not yet durable. Call before
  /// applying the ops to the catalog.
  Status LogTxnCommit(uint64_t txn_generation,
                      const std::vector<WalRecord>& ops);

  /// Writes a new snapshot generation and retires the old WAL.
  Status Checkpoint();

  /// Syncs any batched WAL tail; in kWalCheckpoint mode also checkpoints.
  /// The destructor calls Close() best-effort; call it explicitly to see
  /// the status.
  Status Close();

  const RecoveryInfo& recovery() const { return recovery_; }
  DurabilityMode mode() const { return options_.mode; }
  const std::string& dir() const { return dir_; }
  uint32_t generation() const { return generation_; }
  /// Bytes in the live WAL generation (all segments, headers included).
  uint64_t wal_bytes() const { return wal_bytes_; }
  /// The sticky failure, Ok while healthy.
  Status failure() const { return failed_; }
  /// Whether the engine has degraded to read-only (sticky-failed): queries
  /// against the in-memory catalog still work, every mutation is refused
  /// with kReadOnly until the directory is reopened.
  bool read_only() const { return !failed_.ok(); }

  /// The engine's guard (fault injection, budgets). Never null.
  QueryGuard* guard() { return guard_.get(); }

 private:
  StorageEngine(std::string dir, Database* db, StorageOptions options);

  Status Recover();
  Status ApplyRecord(const WalRecord& record);
  /// Append + policy-driven sync + segment rotation for one encoded record.
  Status LogRecord(const WalRecord& record);
  /// Makes `status` sticky (first failure wins) and returns it.
  Status Fail(Status status);
  /// The typed refusal every post-failure mutation gets: kReadOnly, naming
  /// the sticky failure it degraded on.
  Status RejectReadOnly() const;
  /// Degrade checkpoint + fsync of the batched WAL tail. Every sync the
  /// engine performs goes through here so the wal-sync-degrade fault site
  /// can emulate an fsync EIO at any of them.
  Status SyncWriter();
  std::string SnapshotPath(uint32_t generation) const;
  std::string WalPath(uint32_t generation, uint32_t segment) const;
  Status DeleteGeneration(uint32_t generation);

  const std::string dir_;
  Database* const db_;
  const StorageOptions options_;
  std::unique_ptr<QueryGuard> guard_;

  uint32_t generation_ = 0;
  uint32_t segment_index_ = 0;
  uint64_t wal_bytes_ = 0;
  uint32_t unsynced_records_ = 0;
  WalWriter writer_;
  RecoveryInfo recovery_;
  Status failed_;
  bool closed_ = false;
};

}  // namespace storage
}  // namespace dodb

#endif  // DODB_STORAGE_STORAGE_ENGINE_H_
