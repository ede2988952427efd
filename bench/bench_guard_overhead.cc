// Cost of the query guard's checkpoints when nothing trips. Arg "guarded"
// toggles a guard with generous limits (never violated) against the
// guard-free path on the same workload, so same-n row pairs isolate the
// per-checkpoint overhead: the atomic counter bumps in AddTuplesParallel /
// shard-pair probes / closure sweeps, and the strided deadline reads. The
// budget for the whole feature is < 2% on these cases (an untripped guard
// must be effectively free, since \limit is meant to be left on in the
// shell). Outputs are verified structurally identical before timing —
// guarded-untripped runs are bit-identical to unguarded ones.
//
//   - GuardedIntersect: the sharded join of bench_shard_scaling, the
//     densest checkpoint site (one upfront accounting per materialization
//     plus strided per-candidate checks).
//   - GuardedTransitiveClosure: the Datalog TC fixpoint — checkpoints at
//     rounds, rule jobs, and every nested FO materialization.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "bench/workloads.h"
#include "dodb/dodb.h"

namespace dodb {
namespace {

// High enough that no workload here gets near them: the guard stays
// installed and checkpointing, but never trips.
GuardLimits GenerousLimits() {
  GuardLimits limits;
  limits.deadline_ms = uint64_t{1000} * 60 * 60;
  limits.max_work_tuples = uint64_t{1} << 40;
  limits.max_memory_bytes = uint64_t{1} << 50;
  return limits;
}

void BM_GuardedIntersect(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  bool guarded = state.range(1) != 0;
  GeneralizedRelation a = bench::RandomRectangles(2 * n, 0, 1);
  GeneralizedRelation b = bench::RandomRectangles(2 * n, 0, 2);
  GeneralizedRelation with_guard(2), without_guard(2);
  {
    QueryGuard guard(GenerousLimits());
    QueryGuardScope scope(&guard);
    with_guard = algebra::Intersect(a, b);
  }
  without_guard = algebra::Intersect(a, b);
  state.counters["identical"] =
      with_guard.StructurallyEquals(without_guard) ? 1 : 0;

  QueryGuard guard(GenerousLimits());
  QueryGuardScope scope(guarded ? &guard : nullptr);
  bench::ScopedCounterReport eval_counters(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algebra::Intersect(a, b));
  }
  state.counters["checkpoints"] =
      static_cast<double>(guarded ? guard.checkpoints() : 0);
  state.SetComplexityN(n);
}
BENCHMARK(BM_GuardedIntersect)
    ->ArgNames({"n", "guarded"})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({48, 0})
    ->Args({48, 1})
    ->Args({64, 0})
    ->Args({64, 1});

void BM_GuardedTransitiveClosure(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  bool guarded = state.range(1) != 0;
  Database db;
  db.SetRelation("e", bench::PathGraph(n));
  DatalogProgram program = DatalogParser::ParseProgram(R"(
    tc(x, y) :- e(x, y).
    tc(x, y) :- tc(x, z), e(z, y).
  )").value();
  DatalogOptions options;
  if (guarded) {
    options.eval_options.limits = GenerousLimits();
  }
  bench::ScopedCounterReport eval_counters(state);
  for (auto _ : state) {
    DatalogEvaluator evaluator(program, &db, options);
    benchmark::DoNotOptimize(evaluator.Evaluate());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_GuardedTransitiveClosure)
    ->ArgNames({"n", "guarded"})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({48, 0})
    ->Args({48, 1});

}  // namespace
}  // namespace dodb

BENCHMARK_MAIN();
