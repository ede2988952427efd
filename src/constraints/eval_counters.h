#ifndef DODB_CONSTRAINTS_EVAL_COUNTERS_H_
#define DODB_CONSTRAINTS_EVAL_COUNTERS_H_

#include <cstdint>
#include <string>

namespace dodb {

/// One coherent reading of the engine-wide evaluation counters (plain
/// integers; subtract two snapshots to attribute work to a query). Times are
/// wall-clock nanoseconds accumulated on whichever thread did the work.
struct EvalCounterSnapshot {
  uint64_t pairs_considered = 0;   // candidate tuple pairs enumerated
  uint64_t pairs_pruned = 0;       // pairs skipped: bound boxes disjoint
  uint64_t canonicalized = 0;      // candidates run through closure/canon
  uint64_t subsumption_checks = 0; // EntailsTuple calls during merges
  uint64_t hash_skips = 0;         // duplicate searches skipped by hash set
  uint64_t index_builds = 0;       // relation/join index constructions
  uint64_t index_probes = 0;       // probe-side lookups against an index
  uint64_t index_build_ns = 0;
  uint64_t index_probe_ns = 0;
  uint64_t shard_pairs_considered = 0;  // shard pairs examined by joins
  uint64_t shard_pairs_pruned = 0;      // shard pairs skipped: covers disjoint
  uint64_t shard_index_builds = 0;      // shard structure + per-shard indexes
  uint64_t planner_reorders = 0;        // conjunction folds FoEvaluator
                                        // reordered smallest-first
  uint64_t closure_memo_hits = 0;       // canonicalizations served from memo
  uint64_t guard_checkpoints = 0;       // query-guard checkpoints recorded
  uint64_t guard_trips = 0;             // queries aborted by the guard
  uint64_t storage_bytes_written = 0;   // bytes appended to snapshots/WAL
  uint64_t storage_fsyncs = 0;          // fsync calls (files + directories)
  uint64_t wal_records_appended = 0;    // logical ops logged to the WAL
  uint64_t wal_records_replayed = 0;    // logical ops reapplied by recovery
  uint64_t snapshots_written = 0;       // checkpoint snapshots published
  uint64_t storage_recovery_ns = 0;     // wall time spent in Open() recovery
  uint64_t canonical_forms = 0;         // canonical atom lists emitted
  uint64_t canonical_atoms = 0;         // atoms across those lists (avg =
                                        // canonical_atoms / canonical_forms)
  uint64_t canonical_atoms_max = 0;     // largest single list (high-water
                                        // mark, not a delta: operator- keeps
                                        // the later snapshot's value)
  uint64_t arena_bytes = 0;             // atom-arena storage allocated
  uint64_t arena_reuse_hits = 0;        // tuples stored by re-pointing at an
                                        // already-placed arena span
  uint64_t view_delta_tuples = 0;       // base+derived delta tuples pushed
                                        // through incremental view passes
  uint64_t view_rederivations = 0;      // over-deleted view tuples restored
                                        // by the DRed re-derive firing
  uint64_t view_full_recomputes = 0;    // view maintenance passes that fell
                                        // back to a from-scratch fixpoint
  uint64_t view_maintenance_ns = 0;     // wall time inside ApplyDelta /
                                        // Recompute across all views

  EvalCounterSnapshot operator-(const EvalCounterSnapshot& since) const;
  /// Multi-line human-readable rendering (shell \stats).
  std::string ToString() const;
};

/// Process-wide atomic counters behind the per-query EvalStats and the shell
/// \stats report. Updated with relaxed atomics from pool workers and the
/// merge thread; reads are snapshots, not barriers. Counter values are
/// observability only — no evaluation decision ever reads them, so they
/// cannot perturb the determinism contract.
class EvalCounters {
 public:
  static void AddPairsConsidered(uint64_t n);
  static void AddPairsPruned(uint64_t n);
  static void AddCanonicalized(uint64_t n);
  static void AddSubsumptionChecks(uint64_t n);
  static void AddHashSkips(uint64_t n);
  static void AddIndexBuild(uint64_t ns);
  static void AddIndexProbes(uint64_t n, uint64_t ns);
  static void AddShardPairs(uint64_t considered, uint64_t pruned);
  static void AddShardIndexBuilds(uint64_t n);
  static void AddPlannerReorders(uint64_t n);
  static void AddClosureMemoHits(uint64_t n);
  static void AddGuardCheckpoints(uint64_t n);
  static void AddGuardTrips(uint64_t n);
  static void AddStorageBytesWritten(uint64_t n);
  static void AddStorageFsyncs(uint64_t n);
  static void AddWalRecordsAppended(uint64_t n);
  static void AddWalRecordsReplayed(uint64_t n);
  static void AddSnapshotsWritten(uint64_t n);
  static void AddStorageRecoveryNs(uint64_t ns);
  /// One canonical atom list of `atoms` atoms was emitted (updates the
  /// form/atom totals and the high-water mark).
  static void AddCanonicalForm(uint64_t atoms);
  static void AddArenaBytes(uint64_t n);
  static void AddArenaReuseHits(uint64_t n);
  static void AddViewDeltaTuples(uint64_t n);
  static void AddViewRederivations(uint64_t n);
  static void AddViewFullRecomputes(uint64_t n);
  static void AddViewMaintenanceNs(uint64_t ns);

  static EvalCounterSnapshot Snapshot();
};

/// Writes the counter delta covering its lifetime into `*out`: the
/// attribution of process-wide counters to one evaluation.
class CounterDeltaScope {
 public:
  explicit CounterDeltaScope(EvalCounterSnapshot* out)
      : start_(EvalCounters::Snapshot()), out_(out) {}
  ~CounterDeltaScope() { *out_ = EvalCounters::Snapshot() - start_; }
  CounterDeltaScope(const CounterDeltaScope&) = delete;
  CounterDeltaScope& operator=(const CounterDeltaScope&) = delete;

 private:
  EvalCounterSnapshot start_;
  EvalCounterSnapshot* out_;
};

}  // namespace dodb

#endif  // DODB_CONSTRAINTS_EVAL_COUNTERS_H_
