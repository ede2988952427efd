#include "constraints/eval_counters.h"

#include <atomic>

#include "core/str_util.h"

namespace dodb {

namespace {

struct Counters {
  std::atomic<uint64_t> pairs_considered{0};
  std::atomic<uint64_t> pairs_pruned{0};
  std::atomic<uint64_t> canonicalized{0};
  std::atomic<uint64_t> subsumption_checks{0};
  std::atomic<uint64_t> hash_skips{0};
  std::atomic<uint64_t> index_builds{0};
  std::atomic<uint64_t> index_probes{0};
  std::atomic<uint64_t> index_build_ns{0};
  std::atomic<uint64_t> index_probe_ns{0};
  std::atomic<uint64_t> shard_pairs_considered{0};
  std::atomic<uint64_t> shard_pairs_pruned{0};
  std::atomic<uint64_t> shard_index_builds{0};
  std::atomic<uint64_t> planner_reorders{0};
  std::atomic<uint64_t> closure_memo_hits{0};
  std::atomic<uint64_t> guard_checkpoints{0};
  std::atomic<uint64_t> guard_trips{0};
  std::atomic<uint64_t> storage_bytes_written{0};
  std::atomic<uint64_t> storage_fsyncs{0};
  std::atomic<uint64_t> wal_records_appended{0};
  std::atomic<uint64_t> wal_records_replayed{0};
  std::atomic<uint64_t> snapshots_written{0};
  std::atomic<uint64_t> storage_recovery_ns{0};
  std::atomic<uint64_t> canonical_forms{0};
  std::atomic<uint64_t> canonical_atoms{0};
  std::atomic<uint64_t> canonical_atoms_max{0};
  std::atomic<uint64_t> arena_bytes{0};
  std::atomic<uint64_t> arena_reuse_hits{0};
  std::atomic<uint64_t> view_delta_tuples{0};
  std::atomic<uint64_t> view_rederivations{0};
  std::atomic<uint64_t> view_full_recomputes{0};
  std::atomic<uint64_t> view_maintenance_ns{0};
};

Counters& Global() {
  static Counters counters;
  return counters;
}

constexpr auto kRelaxed = std::memory_order_relaxed;

std::string Millis(uint64_t ns) {
  return StrCat(ns / 1000000, ".", (ns / 100000) % 10, " ms");
}

}  // namespace

void EvalCounters::AddPairsConsidered(uint64_t n) {
  Global().pairs_considered.fetch_add(n, kRelaxed);
}
void EvalCounters::AddPairsPruned(uint64_t n) {
  Global().pairs_pruned.fetch_add(n, kRelaxed);
}
void EvalCounters::AddCanonicalized(uint64_t n) {
  Global().canonicalized.fetch_add(n, kRelaxed);
}
void EvalCounters::AddSubsumptionChecks(uint64_t n) {
  Global().subsumption_checks.fetch_add(n, kRelaxed);
}
void EvalCounters::AddHashSkips(uint64_t n) {
  Global().hash_skips.fetch_add(n, kRelaxed);
}
void EvalCounters::AddIndexBuild(uint64_t ns) {
  Global().index_builds.fetch_add(1, kRelaxed);
  Global().index_build_ns.fetch_add(ns, kRelaxed);
}
void EvalCounters::AddIndexProbes(uint64_t n, uint64_t ns) {
  Global().index_probes.fetch_add(n, kRelaxed);
  Global().index_probe_ns.fetch_add(ns, kRelaxed);
}
void EvalCounters::AddShardPairs(uint64_t considered, uint64_t pruned) {
  Global().shard_pairs_considered.fetch_add(considered, kRelaxed);
  Global().shard_pairs_pruned.fetch_add(pruned, kRelaxed);
}
void EvalCounters::AddShardIndexBuilds(uint64_t n) {
  Global().shard_index_builds.fetch_add(n, kRelaxed);
}
void EvalCounters::AddPlannerReorders(uint64_t n) {
  Global().planner_reorders.fetch_add(n, kRelaxed);
}
void EvalCounters::AddClosureMemoHits(uint64_t n) {
  Global().closure_memo_hits.fetch_add(n, kRelaxed);
}
void EvalCounters::AddGuardCheckpoints(uint64_t n) {
  Global().guard_checkpoints.fetch_add(n, kRelaxed);
}
void EvalCounters::AddGuardTrips(uint64_t n) {
  Global().guard_trips.fetch_add(n, kRelaxed);
}
void EvalCounters::AddStorageBytesWritten(uint64_t n) {
  Global().storage_bytes_written.fetch_add(n, kRelaxed);
}
void EvalCounters::AddStorageFsyncs(uint64_t n) {
  Global().storage_fsyncs.fetch_add(n, kRelaxed);
}
void EvalCounters::AddWalRecordsAppended(uint64_t n) {
  Global().wal_records_appended.fetch_add(n, kRelaxed);
}
void EvalCounters::AddWalRecordsReplayed(uint64_t n) {
  Global().wal_records_replayed.fetch_add(n, kRelaxed);
}
void EvalCounters::AddSnapshotsWritten(uint64_t n) {
  Global().snapshots_written.fetch_add(n, kRelaxed);
}
void EvalCounters::AddStorageRecoveryNs(uint64_t ns) {
  Global().storage_recovery_ns.fetch_add(ns, kRelaxed);
}
void EvalCounters::AddCanonicalForm(uint64_t atoms) {
  Counters& c = Global();
  c.canonical_forms.fetch_add(1, kRelaxed);
  c.canonical_atoms.fetch_add(atoms, kRelaxed);
  uint64_t seen = c.canonical_atoms_max.load(kRelaxed);
  while (seen < atoms &&
         !c.canonical_atoms_max.compare_exchange_weak(seen, atoms, kRelaxed)) {
  }
}
void EvalCounters::AddArenaBytes(uint64_t n) {
  Global().arena_bytes.fetch_add(n, kRelaxed);
}
void EvalCounters::AddArenaReuseHits(uint64_t n) {
  Global().arena_reuse_hits.fetch_add(n, kRelaxed);
}
void EvalCounters::AddViewDeltaTuples(uint64_t n) {
  Global().view_delta_tuples.fetch_add(n, kRelaxed);
}
void EvalCounters::AddViewRederivations(uint64_t n) {
  Global().view_rederivations.fetch_add(n, kRelaxed);
}
void EvalCounters::AddViewFullRecomputes(uint64_t n) {
  Global().view_full_recomputes.fetch_add(n, kRelaxed);
}
void EvalCounters::AddViewMaintenanceNs(uint64_t ns) {
  Global().view_maintenance_ns.fetch_add(ns, kRelaxed);
}

EvalCounterSnapshot EvalCounters::Snapshot() {
  const Counters& c = Global();
  EvalCounterSnapshot snap;
  snap.pairs_considered = c.pairs_considered.load(kRelaxed);
  snap.pairs_pruned = c.pairs_pruned.load(kRelaxed);
  snap.canonicalized = c.canonicalized.load(kRelaxed);
  snap.subsumption_checks = c.subsumption_checks.load(kRelaxed);
  snap.hash_skips = c.hash_skips.load(kRelaxed);
  snap.index_builds = c.index_builds.load(kRelaxed);
  snap.index_probes = c.index_probes.load(kRelaxed);
  snap.index_build_ns = c.index_build_ns.load(kRelaxed);
  snap.index_probe_ns = c.index_probe_ns.load(kRelaxed);
  snap.shard_pairs_considered = c.shard_pairs_considered.load(kRelaxed);
  snap.shard_pairs_pruned = c.shard_pairs_pruned.load(kRelaxed);
  snap.shard_index_builds = c.shard_index_builds.load(kRelaxed);
  snap.planner_reorders = c.planner_reorders.load(kRelaxed);
  snap.closure_memo_hits = c.closure_memo_hits.load(kRelaxed);
  snap.guard_checkpoints = c.guard_checkpoints.load(kRelaxed);
  snap.guard_trips = c.guard_trips.load(kRelaxed);
  snap.storage_bytes_written = c.storage_bytes_written.load(kRelaxed);
  snap.storage_fsyncs = c.storage_fsyncs.load(kRelaxed);
  snap.wal_records_appended = c.wal_records_appended.load(kRelaxed);
  snap.wal_records_replayed = c.wal_records_replayed.load(kRelaxed);
  snap.snapshots_written = c.snapshots_written.load(kRelaxed);
  snap.storage_recovery_ns = c.storage_recovery_ns.load(kRelaxed);
  snap.canonical_forms = c.canonical_forms.load(kRelaxed);
  snap.canonical_atoms = c.canonical_atoms.load(kRelaxed);
  snap.canonical_atoms_max = c.canonical_atoms_max.load(kRelaxed);
  snap.arena_bytes = c.arena_bytes.load(kRelaxed);
  snap.arena_reuse_hits = c.arena_reuse_hits.load(kRelaxed);
  snap.view_delta_tuples = c.view_delta_tuples.load(kRelaxed);
  snap.view_rederivations = c.view_rederivations.load(kRelaxed);
  snap.view_full_recomputes = c.view_full_recomputes.load(kRelaxed);
  snap.view_maintenance_ns = c.view_maintenance_ns.load(kRelaxed);
  return snap;
}

EvalCounterSnapshot EvalCounterSnapshot::operator-(
    const EvalCounterSnapshot& since) const {
  EvalCounterSnapshot delta;
  delta.pairs_considered = pairs_considered - since.pairs_considered;
  delta.pairs_pruned = pairs_pruned - since.pairs_pruned;
  delta.canonicalized = canonicalized - since.canonicalized;
  delta.subsumption_checks = subsumption_checks - since.subsumption_checks;
  delta.hash_skips = hash_skips - since.hash_skips;
  delta.index_builds = index_builds - since.index_builds;
  delta.index_probes = index_probes - since.index_probes;
  delta.index_build_ns = index_build_ns - since.index_build_ns;
  delta.index_probe_ns = index_probe_ns - since.index_probe_ns;
  delta.shard_pairs_considered =
      shard_pairs_considered - since.shard_pairs_considered;
  delta.shard_pairs_pruned = shard_pairs_pruned - since.shard_pairs_pruned;
  delta.shard_index_builds = shard_index_builds - since.shard_index_builds;
  delta.planner_reorders = planner_reorders - since.planner_reorders;
  delta.closure_memo_hits = closure_memo_hits - since.closure_memo_hits;
  delta.guard_checkpoints = guard_checkpoints - since.guard_checkpoints;
  delta.guard_trips = guard_trips - since.guard_trips;
  delta.storage_bytes_written =
      storage_bytes_written - since.storage_bytes_written;
  delta.storage_fsyncs = storage_fsyncs - since.storage_fsyncs;
  delta.wal_records_appended =
      wal_records_appended - since.wal_records_appended;
  delta.wal_records_replayed =
      wal_records_replayed - since.wal_records_replayed;
  delta.snapshots_written = snapshots_written - since.snapshots_written;
  delta.storage_recovery_ns = storage_recovery_ns - since.storage_recovery_ns;
  delta.canonical_forms = canonical_forms - since.canonical_forms;
  delta.canonical_atoms = canonical_atoms - since.canonical_atoms;
  // High-water mark, not a rate: the delta keeps the later reading.
  delta.canonical_atoms_max = canonical_atoms_max;
  delta.arena_bytes = arena_bytes - since.arena_bytes;
  delta.arena_reuse_hits = arena_reuse_hits - since.arena_reuse_hits;
  delta.view_delta_tuples = view_delta_tuples - since.view_delta_tuples;
  delta.view_rederivations = view_rederivations - since.view_rederivations;
  delta.view_full_recomputes =
      view_full_recomputes - since.view_full_recomputes;
  delta.view_maintenance_ns = view_maintenance_ns - since.view_maintenance_ns;
  return delta;
}

std::string EvalCounterSnapshot::ToString() const {
  uint64_t pct =
      pairs_considered == 0 ? 0 : 100 * pairs_pruned / pairs_considered;
  uint64_t shard_pct = shard_pairs_considered == 0
                           ? 0
                           : 100 * shard_pairs_pruned / shard_pairs_considered;
  uint64_t avg_tenths_total =
      canonical_forms == 0 ? 0 : 10 * canonical_atoms / canonical_forms;
  uint64_t avg_whole = avg_tenths_total / 10;
  uint64_t avg_tenths = avg_tenths_total % 10;
  return StrCat(
      "  candidate pairs considered   ", pairs_considered, "\n",
      "  pruned by bound signatures   ", pairs_pruned, " (", pct, "%)\n",
      "  tuples canonicalized         ", canonicalized, "\n",
      "  subsumption checks           ", subsumption_checks, "\n",
      "  duplicate searches skipped   ", hash_skips, "\n",
      "  index builds / probes        ", index_builds, " / ", index_probes,
      "\n",
      "  index build / probe time     ", Millis(index_build_ns), " / ",
      Millis(index_probe_ns), "\n",
      "  shard pairs considered       ", shard_pairs_considered, "\n",
      "  pruned by shard covers       ", shard_pairs_pruned, " (", shard_pct,
      "%)\n",
      "  per-shard index builds       ", shard_index_builds, "\n",
      "  planner reorders             ", planner_reorders, "\n",
      "  closure memo hits            ", closure_memo_hits, "\n",
      "  guard checkpoints / trips    ", guard_checkpoints, " / ", guard_trips,
      "\n",
      "  storage bytes written        ", storage_bytes_written, "\n",
      "  storage fsyncs               ", storage_fsyncs, "\n",
      "  wal records appended         ", wal_records_appended, "\n",
      "  wal records replayed         ", wal_records_replayed, "\n",
      "  snapshots written            ", snapshots_written, "\n",
      "  storage recovery time        ", Millis(storage_recovery_ns), "\n",
      "  atoms per canonical tuple    ", avg_whole, ".", avg_tenths,
      " avg / ", canonical_atoms_max, " max\n",
      "  arena bytes / span reuses    ", arena_bytes, " / ", arena_reuse_hits,
      "\n",
      "  view delta tuples            ", view_delta_tuples, "\n",
      "  view rederivations           ", view_rederivations, "\n",
      "  view full recomputes         ", view_full_recomputes, "\n",
      "  view maintenance time        ", Millis(view_maintenance_ns), "\n");
}

}  // namespace dodb
