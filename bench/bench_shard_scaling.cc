// The engine's scaling over input size and worker threads: every row runs
// the one engine (signature-bound shards, cross-round closure memo,
// restricted closure sweep), sweeping n at one thread and threads at
// n = 64. A threads:K row slower than its threads:1 sibling is a
// parallelism bug to chase, not noise to record.
//
//   - ShardedIntersect: join-heavy algebra over scattered boxes; the
//     shard-pair cover matrix prunes whole blocks of the candidate product,
//     and the surviving pairs are canonicalized on the thread pool.
//   - ShardedEquiJoinCompose: path-edge composition; the per-shard interval
//     indexes bound the probes of each surviving shard pair.
//   - ShardedTransitiveClosure: the Datalog fixpoint; the restricted
//     closure sweep and the cross-round closure memo carry most of the
//     canonicalization cost, with shard-skipping subsumption scans on the
//     accumulating IDB.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "bench/workloads.h"
#include "dodb/dodb.h"

namespace dodb {
namespace {

// n sweep at one thread, then the thread sweep at n = 64.
void SizeByThreads(benchmark::internal::Benchmark* bench) {
  bench->ArgNames({"n", "threads"});
  for (int n : {32, 48, 64}) bench->Args({n, 1});
  for (int threads : {2, 4, 8}) bench->Args({64, threads});
}

void BM_ShardedIntersect(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  EvalThreadsScope thread_scope(static_cast<int>(state.range(1)));
  // Scattered boxes with enough tuples that sharding engages (>= kMinTuples
  // per side, >= kShardMinPairs pairs).
  GeneralizedRelation a = bench::RandomRectangles(2 * n, 0, 1);
  GeneralizedRelation b = bench::RandomRectangles(2 * n, 0, 2);
  bench::ScopedCounterReport eval_counters(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algebra::Intersect(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ShardedIntersect)->Apply(SizeByThreads);

void BM_ShardedEquiJoinCompose(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  EvalThreadsScope thread_scope(static_cast<int>(state.range(1)));
  GeneralizedRelation edges = bench::PathGraph(2 * n);
  bench::ScopedCounterReport eval_counters(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algebra::EquiJoin(edges, edges, {{1, 0}}));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ShardedEquiJoinCompose)->Apply(SizeByThreads);

void BM_ShardedTransitiveClosure(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Database db;
  db.SetRelation("e", bench::PathGraph(n));
  DatalogProgram program = DatalogParser::ParseProgram(R"(
    tc(x, y) :- e(x, y).
    tc(x, y) :- tc(x, z), e(z, y).
  )").value();
  DatalogOptions options;
  options.eval_options.num_threads = static_cast<int>(state.range(1));
  bench::ScopedCounterReport eval_counters(state);
  for (auto _ : state) {
    DatalogEvaluator evaluator(program, &db, options);
    benchmark::DoNotOptimize(evaluator.Evaluate());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ShardedTransitiveClosure)->Apply(SizeByThreads);

}  // namespace
}  // namespace dodb

BENCHMARK_MAIN();
