#ifndef DODB_TXN_TRANSACTION_MANAGER_H_
#define DODB_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "datalog/view_maintenance.h"
#include "io/database.h"
#include "storage/wal.h"

namespace dodb {

namespace storage {
class StorageEngine;
}  // namespace storage

namespace txn {

/// Multi-version concurrency control over the single-writer catalog
/// (DESIGN.md §16). The manager publishes an immutable, pre-warmed snapshot
/// of the catalog after every commit; transactions pin the snapshot current
/// at begin and never see later commits (snapshot isolation). Writers buffer
/// DML into a private write set and serialize only the commit step:
/// first-committer-wins validation, one atomic kTxnCommit WAL record group,
/// then installation of the next generation. Aborted and in-flight
/// transactions never touch the WAL or the authoritative catalog.
///
/// Concurrency contract:
///   - Begin / Abort / current_snapshot are safe from any thread.
///   - A Transaction object (its workspace, ops, deltas) belongs to ONE
///     thread at a time — the session worker that owns it. ExecuteBuffered
///     and reads against the workspace need no manager lock.
///   - AutoCommit / Commit / Checkpoint serialize on the internal write
///     mutex; everything else stays off it. Readers therefore never wait
///     for writers.
///
/// Snapshot warming: published snapshots are read concurrently by many
/// sessions, but GeneralizedRelation / GeneralizedTuple carry lazy caches
/// (relation index, tuple signature, closure graph) that are not safe to
/// build from two threads at once. Publish() therefore warms every changed
/// relation — builds its index and closes every stored tuple's cached
/// signature + order graph — before the snapshot becomes visible;
/// unchanged relations share the previous snapshot's already-warm objects,
/// so warming is O(changed), not O(catalog).

/// Counters mirrored into \stats and the bench JSONs.
struct TxnCounters {
  std::atomic<uint64_t> begun{0};
  std::atomic<uint64_t> committed{0};
  std::atomic<uint64_t> read_only_commits{0};
  std::atomic<uint64_t> aborted{0};
  std::atomic<uint64_t> conflicts{0};
  std::atomic<uint64_t> snapshots_published{0};
};

/// One open transaction: a pinned snapshot plus the private workspace its
/// statements execute against (own writes visible, later commits not) and
/// the buffered write set replayed at commit. Owned by a single session
/// worker; the manager only touches it inside Commit/Abort.
class Transaction {
 public:
  uint64_t id() const { return id_; }
  uint64_t begin_generation() const { return begin_generation_; }
  /// The statements executed so far (DML only; reads don't count).
  size_t write_set_size() const { return ops_.size(); }
  bool read_only() const { return ops_.empty(); }

  /// The catalog this transaction reads: the pinned snapshot plus every
  /// buffered write applied. Queries evaluate against this.
  const Database& workspace() const { return workspace_; }
  /// Mutable form for single-threaded hosts (the shell) whose query
  /// helpers take Database*; evaluation only builds lazy caches.
  Database* mutable_workspace() { return &workspace_; }

 private:
  friend class TransactionManager;

  uint64_t id_ = 0;
  uint64_t begin_generation_ = 0;
  std::shared_ptr<const Database> snapshot_;
  Database workspace_;
  std::vector<storage::WalRecord> ops_;
  std::vector<BaseDelta> deltas_;
  std::set<std::string> written_;
};

class TransactionManager {
 public:
  /// `db` is the authoritative catalog (single-writer, mutated only under
  /// the manager's write mutex from here on); `engine` (nullable) the
  /// durability layer; `views` (nullable) the registered materialized
  /// views. All must outlive the manager. Publishes the initial snapshot
  /// (generation resumes above the WAL's highest replayed commit
  /// generation when an engine is attached).
  TransactionManager(Database* db, storage::StorageEngine* engine,
                     ViewRegistry* views);

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// Opens a transaction pinned to the current snapshot. Never blocks on
  /// writers.
  std::unique_ptr<Transaction> Begin();

  /// Executes one DML statement inside `txn`: evaluated against the
  /// workspace (snapshot + own writes), buffered into the write set,
  /// nothing logged or installed. Runs entirely off the write mutex.
  Result<std::string> ExecuteBuffered(Transaction* txn, std::string_view text);

  /// Executes one bare (non-transactional) command with the PR 9 serial
  /// semantics — log, apply, maintain views — then publishes the next
  /// generation. Serializes on the write mutex. Auto-commit DML never
  /// conflicts (it sees and extends the latest state by construction).
  Result<std::string> AutoCommit(std::string_view text);

  /// Commits `txn`: first-committer-wins validation of the write set (a
  /// relation written here and committed by anyone else since begin =>
  /// kTxnConflict, nothing logged), one atomic kTxnCommit WAL group, then
  /// the buffered ops + view deltas install the next generation. A
  /// read-only transaction commits trivially (no WAL, no generation).
  /// On success `*warning` (optional) carries a non-fatal view-maintenance
  /// warning, `*commit_generation` (optional) the installed generation (0
  /// for a read-only commit), and the transaction is consumed. On conflict
  /// or WAL failure the catalog is untouched; the transaction is dead
  /// either way.
  Status Commit(std::unique_ptr<Transaction> txn,
                std::string* warning = nullptr,
                uint64_t* commit_generation = nullptr);

  /// Discards `txn`. Nothing to undo anywhere: the write set only ever
  /// lived in the transaction.
  void Abort(std::unique_ptr<Transaction> txn);

  /// The latest published snapshot (never null). Safe from any thread;
  /// cheap (one shared_ptr copy under a short lock). Sessions evaluate
  /// bare reads against this without pinning a whole transaction.
  std::shared_ptr<const Database> current_snapshot() const;

  /// Snapshot checkpoint pass-through, serialized with commits so the
  /// engine never checkpoints mid-commit. Error when no engine.
  Status Checkpoint();

  uint64_t generation() const;
  const TxnCounters& counters() const { return counters_; }

 private:
  /// Applies one buffered op to the authoritative catalog (the same
  /// semantics WAL replay uses, so recovery reproduces commits exactly).
  Status ApplyOp(const storage::WalRecord& op);

  /// Builds the next snapshot: previous snapshot + fresh warmed copies of
  /// `changed` relations (plus any created/dropped names found by diffing).
  /// Warming runs here, outside state_mu_. Caller holds write_mu_.
  std::shared_ptr<const Database> NextSnapshotLocked(
      const std::set<std::string>& changed) const;

  /// Installs a commit in one state_mu_ section: the new generation, the
  /// last-writer marks of `written` and the snapshot `next` that holds the
  /// commit. A Begin therefore never pins a snapshot older than the
  /// generation it records. Caller holds write_mu_.
  void PublishLocked(uint64_t generation, const std::set<std::string>& written,
                     std::shared_ptr<const Database> next);

  /// `changed` plus every materialized view reading one of its names.
  std::set<std::string> WithDependentViews(std::set<std::string> changed)
      const;

  Database* const db_;
  storage::StorageEngine* const engine_;
  ViewRegistry* const views_;

  /// Serializes AutoCommit / Commit / Checkpoint (every db_ mutation).
  std::mutex write_mu_;
  /// Guards snapshot_, generation_, last_writer_ for concurrent Begin /
  /// current_snapshot against the committing thread.
  mutable std::mutex state_mu_;
  std::shared_ptr<const Database> snapshot_;
  uint64_t generation_ = 0;
  /// Last commit generation that wrote each relation. First-committer-wins
  /// validation: a transaction conflicts iff some relation in its write set
  /// has last_writer_ > its begin generation.
  std::map<std::string, uint64_t> last_writer_;

  std::atomic<uint64_t> next_txn_id_{1};
  TxnCounters counters_;
};

}  // namespace txn
}  // namespace dodb

#endif  // DODB_TXN_TRANSACTION_MANAGER_H_
