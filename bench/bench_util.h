#ifndef DODB_BENCH_BENCH_UTIL_H_
#define DODB_BENCH_BENCH_UTIL_H_

// Helpers shared by the benchmark binaries (kept out of workloads.h so the
// generators stay usable from tests without a benchmark dependency).

#include <benchmark/benchmark.h>

#include "dodb/dodb.h"

namespace dodb {
namespace bench {

/// Attaches the engine-counter delta for the measured section to the
/// benchmark's user counters, so every BENCH_*.json row carries the
/// pruning / subsumption / index statistics next to its timings. Counts and
/// times are reported per iteration, so rows that ran different iteration
/// counts compare directly; the atoms-per-tuple ratio and the
/// canonical_atoms_max high-water mark are reported as read.
inline void ReportEvalCounters(benchmark::State& state,
                               const EvalCounterSnapshot& delta) {
  auto per_iteration = [&state](const char* name, double value) {
    state.counters[name] =
        benchmark::Counter(value, benchmark::Counter::kAvgIterations);
  };
  per_iteration("pairs_considered",
                static_cast<double>(delta.pairs_considered));
  per_iteration("pairs_pruned", static_cast<double>(delta.pairs_pruned));
  per_iteration("canonicalized", static_cast<double>(delta.canonicalized));
  per_iteration("subsumption_checks",
                static_cast<double>(delta.subsumption_checks));
  per_iteration("hash_skips", static_cast<double>(delta.hash_skips));
  per_iteration("index_builds", static_cast<double>(delta.index_builds));
  per_iteration("index_probes", static_cast<double>(delta.index_probes));
  per_iteration("index_build_ms",
                static_cast<double>(delta.index_build_ns) / 1e6);
  per_iteration("index_probe_ms",
                static_cast<double>(delta.index_probe_ns) / 1e6);
  per_iteration("shard_pairs_considered",
                static_cast<double>(delta.shard_pairs_considered));
  per_iteration("shard_pairs_pruned",
                static_cast<double>(delta.shard_pairs_pruned));
  per_iteration("shard_index_builds",
                static_cast<double>(delta.shard_index_builds));
  per_iteration("planner_reorders",
                static_cast<double>(delta.planner_reorders));
  per_iteration("closure_memo_hits",
                static_cast<double>(delta.closure_memo_hits));
  state.counters["atoms_per_canonical_tuple"] =
      delta.canonical_forms == 0
          ? 0.0
          : static_cast<double>(delta.canonical_atoms) /
                static_cast<double>(delta.canonical_forms);
  state.counters["canonical_atoms_max"] =
      static_cast<double>(delta.canonical_atoms_max);
  per_iteration("arena_bytes", static_cast<double>(delta.arena_bytes));
  per_iteration("arena_reuse_hits",
                static_cast<double>(delta.arena_reuse_hits));
  per_iteration("view_delta_tuples",
                static_cast<double>(delta.view_delta_tuples));
  per_iteration("view_rederivations",
                static_cast<double>(delta.view_rederivations));
  per_iteration("view_full_recomputes",
                static_cast<double>(delta.view_full_recomputes));
  per_iteration("view_maintenance_ms",
                static_cast<double>(delta.view_maintenance_ns) / 1e6);
}

/// RAII: snapshot on construction, ReportEvalCounters on destruction —
/// wrap the whole benchmark function body after setup.
class ScopedCounterReport {
 public:
  explicit ScopedCounterReport(benchmark::State& state)
      : state_(state), start_(EvalCounters::Snapshot()) {}
  ~ScopedCounterReport() {
    ReportEvalCounters(state_, EvalCounters::Snapshot() - start_);
  }

 private:
  benchmark::State& state_;
  EvalCounterSnapshot start_;
};

}  // namespace bench
}  // namespace dodb

#endif  // DODB_BENCH_BENCH_UTIL_H_
