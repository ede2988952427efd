#ifndef DODB_CORE_QUERY_GUARD_H_
#define DODB_CORE_QUERY_GUARD_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "core/status.h"

namespace dodb {

/// Per-query resource budgets enforced by QueryGuard. Every limit defaults
/// to 0 = off; a guard with no limit set (and no armed fault) never trips,
/// so guarded-but-unlimited runs behave exactly like unguarded ones.
struct GuardLimits {
  /// Wall-clock budget in milliseconds, measured from guard construction.
  uint64_t deadline_ms = 0;
  /// Cap on any single intermediate relation's tuple count, enforced
  /// *during* merges (EvalOptions::max_tuples enforces the same cap, but
  /// only after an operator fully materializes).
  uint64_t max_rel_tuples = 0;
  /// Cap on the total candidate tuples the query may consider across all
  /// operators and threads.
  uint64_t max_work_tuples = 0;
  /// Approximate cap on bytes materialized, accounted at tuple/atom
  /// granularity (monotonic; intermediates are not credited back, so this
  /// bounds cumulative allocation, a conservative over-estimate of peak).
  uint64_t max_memory_bytes = 0;

  bool any() const {
    return deadline_ms != 0 || max_rel_tuples != 0 || max_work_tuples != 0 ||
           max_memory_bytes != 0;
  }
};

/// Where a guard checkpoint lives. One tag per instrumented loop family, so
/// fault injection can trip each abort path individually and EvalStats can
/// report which site tripped first.
enum class GuardSite {
  kAlgebraMaterialize = 0,  // candidate canonicalize/merge in AddTuplesParallel
  kShardJoin,               // per-shard probes in the join enumerator
  kClosureSweep,            // PC-1 sweep iterations in OrderGraph::Close
  kQuantifierElim,          // per-tuple variable elimination in dense_qe
  kFoStep,                  // per-operator size check in FoEvaluator
  kLinearFo,                // per-operator size check in LinearFoEvaluator
  kCellEnumerate,           // cell enumeration in CellEvaluator
  kDatalogRound,            // semi-naive fixpoint rounds
  kDatalogRule,             // per-rule jobs inside a Datalog round
  kCCalcFixpoint,           // C-CALC fix() iteration rounds
  // Storage-engine sites (src/storage/). Tripping one emulates a crash at
  // that point: the bytes already on disk are exactly what a killed process
  // would have left, so recovery tests replay real crash states.
  kSnapshotWrite,           // per-tuple loop inside snapshot serialization
  kSnapshotRename,          // after the temp snapshot is synced, before rename
  kWalAppend,               // mid-record, before the WAL append completes
  kWalSync,                 // after fsync, before the append is acknowledged
  kWalReplay,               // per-record/tuple loop during recovery replay
  // View-maintenance sites (src/datalog/view_maintenance.cc). Reachable
  // only through ViewRegistry maintenance passes; a trip aborts the pass
  // and marks the affected view stale (next access recomputes), never
  // corrupts it — view_maintenance_test sweeps both.
  kViewDeltaApply,          // per-delta-tuple loop in incremental insert /
                            // over-delete propagation
  kViewRederive,            // per-candidate loop in the DRed re-derive pass
  // Degrade site (src/storage/storage_engine.cc). A trip emulates an fsync
  // failure (EIO) rather than a crash: the engine goes sticky-failed and
  // every later mutation is refused with kReadOnly while queries keep
  // working — the server's graceful-degradation contract.
  kWalSyncDegrade,          // before every WAL tail fsync (SyncWriter)
  // Server sites (src/server/). Consumed one-shot by the server's
  // OneShotFault rather than a sticky guard trip: the chaos harness drops
  // exactly the nth connection / tears exactly the nth frame, and the
  // server must keep serving everyone else.
  kServerAccept,            // after accept(), before the session is admitted
  kServerRead,              // after a request frame is read, before dispatch
  kServerWrite,             // mid-response-frame write (torn frame to client)
  kSessionCommit,           // before a session's DML reaches the WAL
  // Transaction sites (src/txn/ + src/server/). Like the server sites these
  // are consumed one-shot: the chaos harness kills exactly the nth begin /
  // commit validation / commit WAL append, and the recovery sweeps prove
  // committed transactions survive while aborted and in-flight ones vanish.
  kTxnBegin,                // after begin is accepted, before it is acked
  kTxnCommitValidate,       // during first-committer-wins write-set check
  kTxnWalCommit,            // before the commit record group reaches the WAL
};
inline constexpr int kGuardSiteCount = 25;
/// Index of the first storage-engine site. Sites below this are reachable
/// from query evaluation; sites from here on are reachable only through the
/// storage engine (the fault sweeps in robustness_test / storage_test split
/// coverage along this boundary).
inline constexpr int kFirstStorageGuardSite = 10;

/// Stable kebab-case name of a site ("closure-sweep"); used by fault specs
/// and stats output.
const char* GuardSiteName(GuardSite site);

/// Thread-safe, trip-once resource governor shared by every evaluator layer
/// of one query. Hot loops call Checkpoint() at a stride; the first limit
/// violation (or armed fault) records a Status and flips an atomic flag that
/// all sibling pool jobs observe, so a mid-operator blowup aborts within one
/// stride instead of after full materialization. The trip Status depends
/// only on which limit fired (never on thread interleaving), so the engine
/// returns one deterministic error regardless of thread count.
class QueryGuard {
 public:
  explicit QueryGuard(GuardLimits limits = {});

  QueryGuard(const QueryGuard&) = delete;
  QueryGuard& operator=(const QueryGuard&) = delete;

  /// Arms the deterministic fault hook: the nth (1-based) Checkpoint at
  /// `site` trips the guard with a ResourceExhausted status naming the
  /// site. Only an unarmed guard is armed: the first arm wins, as the first
  /// trip does, so nested evaluators that resolve the same guard and spec
  /// inside concurrent jobs never write the fault fields workers read.
  void ArmFault(GuardSite site, uint64_t nth);

  /// Records one checkpoint at `site` (plus `work` candidate tuples of
  /// accounted work), then enforces the fault hook, the work budget and the
  /// deadline. Returns false once the guard has tripped — callers unwind
  /// and surface status().
  bool Checkpoint(GuardSite site, uint64_t work = 0);

  /// Accounts work without counting a checkpoint (loop-exit flushes).
  /// Enforces the work/memory budgets but not the deadline — the clock is
  /// only read at Checkpoint(), so per-tuple accounting stays cheap.
  bool AccountWork(GuardSite site, uint64_t work);

  /// Accounts approximately `bytes` of materialized tuple storage against
  /// the memory budget (deadline-free, like AccountWork).
  bool AccountBytes(GuardSite site, uint64_t bytes);

  /// Enforces limits.max_rel_tuples against a relation mid-merge.
  bool CheckRelationSize(GuardSite site, uint64_t tuples);

  /// Trips the guard with an explicit error (first caller wins; later trips
  /// are no-ops). `status` must not be OK.
  void Trip(GuardSite site, Status status);

  /// Whether the guard has tripped. Acquire load — pairs with the release
  /// store in Trip, so a true result guarantees status() sees the error.
  bool tripped() const {
    return tripped_.load(std::memory_order_acquire);
  }

  /// The first trip's Status; Status::Ok() while untripped.
  Status status() const;

  /// Name of the site that tripped first; "" while untripped.
  std::string trip_site_name() const;

  const GuardLimits& limits() const { return limits_; }
  uint64_t checkpoints() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }
  uint64_t site_checkpoints(GuardSite site) const;
  uint64_t accounted_work() const {
    return work_.load(std::memory_order_relaxed);
  }
  /// Peak accounted bytes (equals the monotonic total; see GuardLimits).
  uint64_t peak_bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  bool Enforce(GuardSite site, bool check_deadline);

  const GuardLimits limits_;
  const bool has_deadline_;
  const std::chrono::steady_clock::time_point deadline_;

  std::atomic<bool> tripped_{false};
  std::atomic<uint64_t> checkpoints_{0};
  std::atomic<uint64_t> site_counts_[kGuardSiteCount] = {};
  std::atomic<uint64_t> work_{0};
  std::atomic<uint64_t> bytes_{0};

  std::atomic<int> fault_site_{-1};
  uint64_t fault_nth_ = 0;  // written once, under mu_, before fault_site_

  mutable std::mutex mu_;
  Status trip_status_;        // guarded by mu_
  int trip_site_ = -1;        // guarded by mu_
};

/// The guard governing evaluation on this thread, or nullptr. Like the
/// closure memo scope, the pointer does NOT inherit into pool workers:
/// parallel dispatch sites read it on the dispatching thread, capture it by
/// value, and re-install it inside each worker job with a QueryGuardScope.
QueryGuard* CurrentQueryGuard();

/// RAII thread-local install of CurrentQueryGuard(). nullptr uninstalls for
/// the scope's extent.
class QueryGuardScope {
 public:
  explicit QueryGuardScope(QueryGuard* guard);
  ~QueryGuardScope();
  QueryGuardScope(const QueryGuardScope&) = delete;
  QueryGuardScope& operator=(const QueryGuardScope&) = delete;

 private:
  QueryGuard* prev_;
};

/// Strided checkpoint helper for hot loops: the first Tick() checkpoints
/// immediately (so every entered loop registers its site at least once —
/// fault sweeps rely on this), then every `stride` ticks after that. Work
/// accumulated between checkpoints is flushed on the next checkpoint and at
/// destruction. With a null guard every Tick is a single branch.
class GuardTicker {
 public:
  explicit GuardTicker(QueryGuard* guard, GuardSite site,
                       uint32_t stride = 1024)
      : guard_(guard), site_(site), stride_(stride) {}
  ~GuardTicker() {
    if (guard_ != nullptr && pending_ != 0) {
      guard_->AccountWork(site_, pending_);
    }
  }
  GuardTicker(const GuardTicker&) = delete;
  GuardTicker& operator=(const GuardTicker&) = delete;

  /// Returns false once the guard has tripped.
  bool Tick(uint64_t work = 1) {
    if (guard_ == nullptr) return true;
    pending_ += work;
    if (--countdown_ != 0) return !guard_->tripped();
    countdown_ = stride_;
    bool alive = guard_->Checkpoint(site_, pending_);
    pending_ = 0;
    return alive;
  }

 private:
  QueryGuard* const guard_;
  const GuardSite site_;
  const uint32_t stride_;
  uint32_t countdown_ = 1;  // checkpoint on the first Tick
  uint64_t pending_ = 0;
};

}  // namespace dodb

#endif  // DODB_CORE_QUERY_GUARD_H_
