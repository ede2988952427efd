// THM-4.4: inflationary Datalog(not) = PTIME over dense-order constraint
// databases. Two workloads measure the PTIME side of the equation:
//
//   1. transitive closure over growing path graphs (the canonical
//      recursion; runtime must fit a fixed polynomial), and
//   2. the parity-of-an-ordered-set program (a query that is NOT in FO by
//      Theorem 4.2 but is computed here in polynomial time by walking the
//      order — the "extra" power that exactly characterizes PTIME).
//
// Both run over the standard encoding (consecutive-integer constants), the
// representation the theorem's proof reduces to.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include "bench/workloads.h"
#include "dodb/dodb.h"

namespace dodb {
namespace {

void BM_TransitiveClosure(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Database db;
  db.SetRelation("e", bench::PathGraph(n));
  DatalogProgram program = DatalogParser::ParseProgram(R"(
    tc(x, y) :- e(x, y).
    tc(x, y) :- tc(x, z), e(z, y).
  )").value();
  uint64_t iterations = 0;
  bench::ScopedCounterReport eval_counters(state);
  for (auto _ : state) {
    DatalogEvaluator evaluator(program, &db);
    Result<Database> idb = evaluator.Evaluate();
    benchmark::DoNotOptimize(idb);
    iterations = evaluator.iterations();
  }
  // Correctness spot check.
  DatalogEvaluator evaluator(program, &db);
  Database idb = evaluator.Evaluate().value();
  bool correct =
      idb.FindRelation("tc")->Contains({Rational(1), Rational(n)}) &&
      !idb.FindRelation("tc")->Contains({Rational(n), Rational(1)});
  state.counters["iterations"] = static_cast<double>(iterations);
  state.counters["correct"] = correct ? 1 : 0;
  state.SetComplexityN(n);
}
BENCHMARK(BM_TransitiveClosure)
    ->RangeMultiplier(2)
    ->Range(4, 32)
    ->Complexity();

void BM_ParityWalk(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Database db;
  db.SetRelation("v", bench::OrderedPoints(n));
  DatalogProgram program = DatalogParser::ParseProgram(R"(
    between(x, z) :- v(x), v(z), v(y), x < y, y < z.
    succ(x, y) :- v(x), v(y), x < y, not between(x, y).
    smaller(x) :- v(x), v(y), y < x.
    first(x) :- v(x), not smaller(x).
    odd(x) :- first(x).
    even(x) :- succ(y, x), odd(y).
    odd(x) :- succ(y, x), even(y).
  )").value();
  DatalogOptions options;
  options.semantics = DatalogSemantics::kStratified;
  bool odd = false;
  bench::ScopedCounterReport eval_counters(state);
  for (auto _ : state) {
    DatalogEvaluator evaluator(program, &db, options);
    Database idb = evaluator.Evaluate().value();
    odd = idb.FindRelation("odd")->Contains({Rational(n)});
    benchmark::DoNotOptimize(odd);
  }
  state.counters["parity_correct"] = (odd == (n % 2 == 1)) ? 1 : 0;
  state.SetComplexityN(n);
}
BENCHMARK(BM_ParityWalk)
    ->RangeMultiplier(2)
    ->Range(4, 8)
    ->Complexity();

void BM_ConstraintPropagation(benchmark::State& state) {
  // Recursion over *infinite* relations: chained interval overlap, the
  // closed-form fixpoint the language was designed for.
  int n = static_cast<int>(state.range(0));
  std::vector<spatial::Interval> intervals;
  for (int i = 0; i < n; ++i) {
    intervals.push_back(spatial::Interval{Rational(2 * i),
                                          Rational(2 * i + 3)});
  }
  Database db;
  db.SetRelation("iv", spatial::IntervalEndpointRelation(intervals));
  DatalogProgram program = DatalogParser::ParseProgram(R"(
    touch(a1, b1, a2, b2) :- iv(a1, b1), iv(a2, b2), a2 <= b1, a1 <= b2.
    linked(a1, b1, a2, b2) :- touch(a1, b1, a2, b2).
    linked(a1, b1, a3, b3) :- linked(a1, b1, a2, b2), touch(a2, b2, a3, b3).
  )").value();
  bench::ScopedCounterReport eval_counters(state);
  for (auto _ : state) {
    DatalogEvaluator evaluator(program, &db);
    benchmark::DoNotOptimize(evaluator.Evaluate());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ConstraintPropagation)
    ->RangeMultiplier(2)
    ->Range(2, 8)
    ->Complexity();

void BM_EncodedVsRawConstants(benchmark::State& state) {
  // Theorem 4.4's proof works over the standard encoding; evaluation cost
  // is invariant under it (constants only matter through their order).
  int n = static_cast<int>(state.range(0));
  Database raw;
  // Intervals with ugly rational endpoints.
  GeneralizedRelation rel(1);
  for (int i = 0; i < n; ++i) {
    GeneralizedTuple t(1);
    t.AddAtom(DenseAtom(Term::Var(0), RelOp::kGe,
                        Term::Const(Rational(2 * i * 7 + 1, 3))));
    t.AddAtom(DenseAtom(Term::Var(0), RelOp::kLe,
                        Term::Const(Rational(2 * i * 7 + 9, 3))));
    rel.AddTuple(t);
  }
  raw.SetRelation("s", rel);
  bool encoded = state.range(1) != 0;
  Database db = encoded ? raw.Encoded() : raw;
  Query query = FoParser::ParseQuery("{ (x) | not s(x) }").value();
  bench::ScopedCounterReport eval_counters(state);
  for (auto _ : state) {
    FoEvaluator evaluator(&db);
    benchmark::DoNotOptimize(evaluator.Evaluate(query));
  }
}
BENCHMARK(BM_EncodedVsRawConstants)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

}  // namespace
}  // namespace dodb

BENCHMARK_MAIN();
