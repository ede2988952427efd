// Out-of-core evaluation benchmarks (DESIGN.md §14): resident vs paged
// operator throughput while the buffer pool's cache budget sweeps from 100%
// of the spilled working set down to 10%.
//
// BM_PagedJoin streams an equi-join over two spilled rectangle relations.
// Every paged row records `ws_bytes` (the encoded out-of-core working set),
// `ws_over_cache` (how many times the working set exceeds the cache — the
// >= 4x rows are the out-of-core acceptance evidence) and `identical` (1
// iff the paged join's fingerprint matches the resident join bit for bit).
//
// BM_PagedTcFixpoint rows are the perf-regression acceptance record: each
// row runs the identical transitive-closure fixpoint with a resident EDB as
// an in-run comparator (a few cold repetitions, the bench_ivm pattern) and
// publishes `paged_vs_resident_ratio`; bench/check_perf_regression.py
// requires the cache_pct=100 rows of BENCH_paged.json to stay <= 1.15 with
// `identical` == 1, and at least one row of the file to show
// `ws_over_cache` >= 4.
//
// Both benchmarks construct private BufferPools (never the global shell
// pool) so the capacity sweep is isolated; spill files live in a scratch
// directory under the system temp root and are removed before exit.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "bench/workloads.h"
#include "dodb/dodb.h"

namespace dodb {
namespace {

using storage::BufferPool;
using storage::RelationPager;
using storage::kPageSize;

std::string ScratchDir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() / ("dodb_bench_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string Fingerprint(const GeneralizedRelation& rel) {
  return rel.ToString() + "#" + std::to_string(rel.tuple_count()) + "/" +
         std::to_string(rel.atom_count());
}

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Caps `pool` at `cache_pct` percent of the working set it currently holds
// (everything just spilled is resident at this point) and returns the
// working-set size. The cap never rounds below one page unless the sweep
// explicitly asks for a sub-page budget.
uint64_t SweepCapacity(BufferPool* pool, int cache_pct) {
  const uint64_t ws = pool->resident_bytes();
  pool->set_capacity_bytes(std::max<uint64_t>(ws * cache_pct / 100, 1));
  return ws;
}

void BM_PagedJoin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const int cache_pct = static_cast<int>(state.range(2));
  const bool paged = state.range(3) != 0;
  EvalThreadsScope eval_threads(threads);

  GeneralizedRelation a = bench::RandomRectangles(n, 1000, /*seed=*/7);
  GeneralizedRelation b = bench::RandomRectangles(n, 1000, /*seed=*/13);
  const std::string resident_fp = Fingerprint(algebra::EquiJoin(a, b, {{1, 0}}));

  if (!paged) {
    bench::ScopedCounterReport scoped(state);
    for (auto _ : state) {
      benchmark::DoNotOptimize(algebra::EquiJoin(a, b, {{1, 0}}));
    }
    state.counters["identical"] = 1;
    state.SetItemsProcessed(state.iterations() * n);
    return;
  }

  const std::string dir = ScratchDir("paged_join");
  BufferPool pool(/*capacity_bytes=*/1ull << 30);
  Result<std::unique_ptr<RelationPager>> pager =
      RelationPager::OpenPaged(dir + "/join.page", &pool);
  if (!pager.ok()) {
    state.SkipWithError(pager.status().ToString().c_str());
    return;
  }
  Result<GeneralizedRelation> pa = pager.value()->Spill(a);
  Result<GeneralizedRelation> pb = pager.value()->Spill(b);
  if (!pa.ok() || !pb.ok()) {
    state.SkipWithError("spill failed");
    return;
  }
  const uint64_t ws = SweepCapacity(&pool, cache_pct);

  const bool identical =
      Fingerprint(algebra::EquiJoin(pa.value(), pb.value(), {{1, 0}})) ==
      resident_fp;
  {
    bench::ScopedCounterReport scoped(state);
    for (auto _ : state) {
      benchmark::DoNotOptimize(
          algebra::EquiJoin(pa.value(), pb.value(), {{1, 0}}));
    }
  }
  state.counters["identical"] = identical ? 1 : 0;
  state.counters["ws_bytes"] = static_cast<double>(ws);
  state.counters["ws_over_cache"] =
      static_cast<double>(ws) / static_cast<double>(pool.capacity_bytes());
  state.SetItemsProcessed(state.iterations() * n);
  pa = GeneralizedRelation(2);  // release paged twins before their store
  pb = GeneralizedRelation(2);
  pager.value().reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_PagedJoin)
    ->ArgNames({"n", "threads", "cache_pct", "paged"})
    ->Args({768, 1, 100, 0})
    ->Args({768, 1, 100, 1})
    ->Args({768, 1, 75, 1})
    ->Args({768, 1, 50, 1})
    ->Args({768, 1, 25, 1})
    ->Args({768, 1, 10, 1})
    ->Args({768, 8, 100, 0})
    ->Args({768, 8, 100, 1})
    ->Args({768, 8, 10, 1})
    ->Unit(benchmark::kMillisecond);

void BM_PagedTcFixpoint(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const int cache_pct = static_cast<int>(state.range(2));
  GeneralizedRelation edge = bench::PathGraph(n);
  Result<DatalogProgram> program = DatalogParser::ParseProgram(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )");
  if (!program.ok()) {
    state.SkipWithError(program.status().ToString().c_str());
    return;
  }

  // In-run comparator: the identical fixpoint over the resident EDB, a few
  // cold repetitions.
  constexpr int kReps = 5;
  std::string resident_fp;
  double resident_ms = 0;
  {
    Database db;
    db.SetRelation("edge", edge);
    DatalogOptions options;
    options.eval_options.num_threads = threads;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kReps; ++i) {
      DatalogEvaluator evaluator(program.value(), &db, options);
      Result<Database> idb = evaluator.Evaluate();
      if (!idb.ok()) {
        state.SkipWithError(idb.status().ToString().c_str());
        return;
      }
      if (i == 0) resident_fp = Fingerprint(*idb.value().FindRelation("tc"));
    }
    resident_ms = MillisSince(start) / kReps;
  }

  const std::string dir = ScratchDir("paged_tc");
  BufferPool pool(/*capacity_bytes=*/1ull << 30);
  Result<std::unique_ptr<RelationPager>> pager =
      RelationPager::OpenPaged(dir + "/tc.page", &pool);
  if (!pager.ok()) {
    state.SkipWithError(pager.status().ToString().c_str());
    return;
  }
  Database db;
  Result<GeneralizedRelation> spilled = pager.value()->Spill(edge);
  if (!spilled.ok()) {
    state.SkipWithError(spilled.status().ToString().c_str());
    return;
  }
  db.SetRelation("edge", std::move(spilled.value()));
  const uint64_t ws = SweepCapacity(&pool, cache_pct);

  DatalogOptions options;
  options.eval_options.num_threads = threads;
  bool identical = true;
  double paged_ms = 0;
  {
    bench::ScopedCounterReport scoped(state);
    const auto start = std::chrono::steady_clock::now();
    for (auto _ : state) {
      DatalogEvaluator evaluator(program.value(), &db, options);
      Result<Database> idb = evaluator.Evaluate();
      if (!idb.ok()) {
        state.SkipWithError(idb.status().ToString().c_str());
        return;
      }
      identical =
          identical && Fingerprint(*idb.value().FindRelation("tc")) ==
                           resident_fp;
    }
    if (state.iterations() > 0) {
      paged_ms = MillisSince(start) / state.iterations();
    }
  }
  state.counters["identical"] = identical ? 1 : 0;
  state.counters["resident_ms"] = resident_ms;
  state.counters["paged_ms"] = paged_ms;
  state.counters["paged_vs_resident_ratio"] =
      resident_ms > 0 ? paged_ms / resident_ms : 0;
  state.counters["ws_bytes"] = static_cast<double>(ws);
  state.counters["ws_over_cache"] =
      static_cast<double>(ws) / static_cast<double>(pool.capacity_bytes());
  state.SetItemsProcessed(state.iterations());
  db = Database();  // release the paged twin before its store
  pager.value().reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_PagedTcFixpoint)
    ->ArgNames({"n", "threads", "cache_pct"})
    ->Args({64, 1, 100})
    ->Args({64, 1, 50})
    ->Args({64, 1, 25})
    ->Args({64, 1, 10})
    ->Args({64, 8, 100})
    ->Args({64, 8, 10})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace dodb

BENCHMARK_MAIN();
