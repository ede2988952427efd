// Constraint-signature indexing: bound extraction, index maintenance under
// insert/erase, and the differential contract — every operation the index
// prunes is structurally identical at 1 and 8 threads and equal to an
// oracle outside the engine (the operators' set-theoretic definitions at
// every cell witness, or a closed-form answer), because the index only
// skips provably unsatisfiable candidate pairs and provably non-subsuming
// comparisons.

#include "constraints/relation_index.h"

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/relational_ops.h"
#include "bench/workloads.h"
#include "constraints/eval_counters.h"
#include "constraints/tuple_signature.h"
#include "core/thread_pool.h"
#include "datalog/datalog_evaluator.h"
#include "datalog/datalog_parser.h"
#include "fo/evaluator.h"
#include "fo/parser.h"
#include "io/database.h"
#include "oracle.h"

namespace dodb {
namespace {

DenseAtom VarConst(int var, RelOp op, int64_t value) {
  return DenseAtom(Term::Var(var), op, Term::Const(Rational(value)));
}

TEST(TupleSignatureTest, ExtractsClosedOpenAndUnboundedColumns) {
  GeneralizedTuple tuple(2);
  tuple.AddAtom(VarConst(0, RelOp::kGe, 1));
  tuple.AddAtom(VarConst(0, RelOp::kLt, 5));
  const TupleSignature& sig = tuple.CachedSignature();
  ASSERT_EQ(sig.columns.size(), 2u);
  EXPECT_TRUE(sig.columns[0].has_lower);
  EXPECT_FALSE(sig.columns[0].lower_open);
  EXPECT_EQ(sig.columns[0].lower, Rational(1));
  EXPECT_TRUE(sig.columns[0].has_upper);
  EXPECT_TRUE(sig.columns[0].upper_open);
  EXPECT_EQ(sig.columns[0].upper, Rational(5));
  EXPECT_FALSE(sig.columns[1].has_lower);
  EXPECT_FALSE(sig.columns[1].has_upper);
}

TEST(TupleSignatureTest, EqualityPinsBothSidesAndConstSideOrientation) {
  GeneralizedTuple tuple(1);
  // Constant on the left; BoundOfAtom must orient it.
  tuple.AddAtom(DenseAtom(Term::Const(Rational(7)), RelOp::kEq,
                          Term::Var(0)));
  const TupleSignature& sig = tuple.CachedSignature();
  EXPECT_TRUE(sig.columns[0].has_lower);
  EXPECT_TRUE(sig.columns[0].has_upper);
  EXPECT_EQ(sig.columns[0].lower, Rational(7));
  EXPECT_EQ(sig.columns[0].upper, Rational(7));
  EXPECT_FALSE(sig.columns[0].lower_open);
  EXPECT_FALSE(sig.columns[0].upper_open);
}

TEST(TupleSignatureTest, CanonicalFormDerivesBoundsThroughClosure) {
  // Raw atoms bound only x1; the closure also bounds x0 (x0 < x1 <= 3).
  GeneralizedTuple tuple(2);
  tuple.AddAtom(DenseAtom(Term::Var(0), RelOp::kLt, Term::Var(1)));
  tuple.AddAtom(VarConst(1, RelOp::kLe, 3));
  GeneralizedTuple canonical = tuple.Canonical();
  const TupleSignature& sig = canonical.CachedSignature();
  EXPECT_TRUE(sig.columns[0].has_upper);
  EXPECT_TRUE(sig.columns[0].upper_open);
  EXPECT_EQ(sig.columns[0].upper, Rational(3));
}

TEST(TupleSignatureTest, NeqContributesNoBounds) {
  GeneralizedTuple tuple(1);
  tuple.AddAtom(VarConst(0, RelOp::kNeq, 4));
  const TupleSignature& sig = tuple.CachedSignature();
  EXPECT_FALSE(sig.columns[0].has_lower);
  EXPECT_FALSE(sig.columns[0].has_upper);
}

ColumnBound MakeBound(bool has_lower, int64_t lower, bool lower_open,
                      bool has_upper, int64_t upper, bool upper_open) {
  ColumnBound bound;
  if (has_lower) bound.TightenLower(Rational(lower), lower_open);
  if (has_upper) bound.TightenUpper(Rational(upper), upper_open);
  return bound;
}

TEST(TupleSignatureTest, BoundsMayOverlapEdgeCases) {
  ColumnBound closed01 = MakeBound(true, 0, false, true, 1, false);
  ColumnBound closed12 = MakeBound(true, 1, false, true, 2, false);
  ColumnBound open1up = MakeBound(true, 1, true, false, 0, false);
  ColumnBound below1open = MakeBound(false, 0, false, true, 1, true);
  ColumnBound unbounded;
  // Touching closed endpoints share the point 1.
  EXPECT_TRUE(BoundsMayOverlap(closed01, closed12));
  // x <= 1 vs x > 1: touching with one side open.
  EXPECT_FALSE(BoundsMayOverlap(closed01, open1up));
  // x < 1 vs [1, 2].
  EXPECT_FALSE(BoundsMayOverlap(below1open, closed12));
  // Unbounded overlaps everything.
  EXPECT_TRUE(BoundsMayOverlap(unbounded, closed01));
  EXPECT_TRUE(BoundsMayOverlap(unbounded, open1up));
  // Disjoint by value.
  EXPECT_FALSE(BoundsMayOverlap(MakeBound(true, 5, false, false, 0, false),
                                closed12));
}

GeneralizedRelation RandomRelation(int arity, int tuples, int atoms,
                                   uint64_t seed) {
  std::mt19937_64 rng(seed);
  const RelOp kOps[] = {RelOp::kLt, RelOp::kLe, RelOp::kGe, RelOp::kGt,
                        RelOp::kNeq};
  GeneralizedRelation rel(arity);
  for (int t = 0; t < tuples; ++t) {
    GeneralizedTuple tuple(arity);
    for (int a = 0; a < atoms; ++a) {
      Term lhs = Term::Var(static_cast<int>(rng() % arity));
      Term rhs = (rng() % 3 == 0)
                     ? Term::Const(Rational(static_cast<int64_t>(rng() % 8)))
                     : Term::Var(static_cast<int>(rng() % arity));
      tuple.AddAtom(DenseAtom(lhs, kOps[rng() % 5], rhs));
    }
    rel.AddTuple(std::move(tuple));
  }
  return rel;
}

std::string Fingerprint(const GeneralizedRelation& rel) {
  return rel.ToString() + "#" + std::to_string(rel.tuple_count()) + "/" +
         std::to_string(rel.atom_count());
}

TEST(RelationIndexTest, IncrementalMaintenanceMatchesRebuild) {
  std::mt19937_64 rng(99);
  GeneralizedRelation rel(2);
  // Force the lazy build early so every subsequent AddTuple exercises the
  // incremental InsertAt/EraseAt path, including subsumption erases (broad
  // tuples swallowing earlier narrow ones).
  rel.Index();
  for (int step = 0; step < 60; ++step) {
    GeneralizedTuple tuple(2);
    int64_t lo = static_cast<int64_t>(rng() % 10);
    int64_t width = static_cast<int64_t>(rng() % 5);
    tuple.AddAtom(VarConst(0, RelOp::kGe, lo));
    tuple.AddAtom(VarConst(0, RelOp::kLe, lo + width));
    if (rng() % 2 == 0) {
      tuple.AddAtom(VarConst(1, RelOp::kGt, static_cast<int64_t>(rng() % 4)));
    }
    rel.AddTuple(std::move(tuple));
    ASSERT_TRUE(rel.Index().MatchesTuples(rel.tuples()))
        << "index diverged from tuples at step " << step;
  }
  EXPECT_GT(rel.tuple_count(), 0u);
}

TEST(RelationIndexTest, CopiesShareUntilMutation) {
  GeneralizedRelation rel(1);
  GeneralizedTuple a(1);
  a.AddAtom(VarConst(0, RelOp::kGe, 2));
  rel.AddTuple(std::move(a));
  rel.Index();
  GeneralizedRelation copy = rel;
  GeneralizedTuple b(1);
  b.AddAtom(VarConst(0, RelOp::kLt, 1));
  copy.AddTuple(std::move(b));
  // The copy unshared and maintained its own index; the original's still
  // matches its own (unchanged) tuples.
  EXPECT_TRUE(copy.Index().MatchesTuples(copy.tuples()));
  EXPECT_TRUE(rel.Index().MatchesTuples(rel.tuples()));
  EXPECT_EQ(rel.tuple_count() + 1, copy.tuple_count());
}

// The differential contract over random dense-order relations: every
// algebra result is structurally identical at 1 and 8 threads and equal to
// its definition at every cell witness.
TEST(IndexDifferentialTest, AlgebraMatchesOracleAcrossThreads) {
  for (uint64_t seed : {11u, 29u, 47u}) {
    GeneralizedRelation a = RandomRelation(2, 10, 4, seed);
    GeneralizedRelation b = RandomRelation(2, 9, 4, seed + 100);
    std::vector<std::string> reference;
    for (int threads : {1, 8}) {
      EvalThreadsScope scope(threads);
      std::vector<GeneralizedRelation> results;
      results.push_back(algebra::Intersect(a, b));
      results.push_back(algebra::EquiJoin(a, b, {{0, 1}}));
      results.push_back(algebra::Difference(a, b));
      results.push_back(algebra::Union(a, b));
      results.push_back(algebra::ComplementViaDnf(b));
      std::vector<std::string> got;
      for (const GeneralizedRelation& rel : results) {
        got.push_back(Fingerprint(rel));
      }
      if (!reference.empty()) {
        EXPECT_EQ(reference, got) << "seed " << seed << " threads " << threads;
        continue;
      }
      reference = got;
      const std::string context = "seed " + std::to_string(seed);
      oracle::ExpectMatchesOracle(results[0], {&a, &b},
                                  oracle::Intersection(a, b),
                                  context + " intersect");
      oracle::ExpectMatchesOracle(results[1], {&a, &b},
                                  oracle::EquiJoinOf(a, b, {{0, 1}}),
                                  context + " join");
      oracle::ExpectMatchesOracle(results[2], {&a, &b},
                                  oracle::DifferenceOf(a, b),
                                  context + " difference");
      oracle::ExpectMatchesOracle(results[3], {&a, &b}, oracle::UnionOf(a, b),
                                  context + " union");
      oracle::ExpectMatchesOracle(results[4], {&b}, oracle::ComplementOf(b),
                                  context + " complement");
    }
  }
}

TEST(IndexDifferentialTest, WorkloadRelationsMatchOracle) {
  GeneralizedRelation a = bench::RandomRectangles(24, 0, 5);
  GeneralizedRelation b = bench::RandomRectangles(24, 0, 6);
  GeneralizedRelation ia = bench::RandomIntervals(32, 0, 7);
  GeneralizedRelation ib = bench::RandomIntervals(32, 0, 8);
  std::string rect_reference, interval_reference;
  for (int threads : {1, 8}) {
    EvalThreadsScope scope(threads);
    GeneralizedRelation met = algebra::Intersect(a, b);
    GeneralizedRelation diff = algebra::Difference(ia, ib);
    if (!rect_reference.empty()) {
      EXPECT_EQ(rect_reference, Fingerprint(met)) << "threads " << threads;
      EXPECT_EQ(interval_reference, Fingerprint(diff))
          << "threads " << threads;
      continue;
    }
    rect_reference = Fingerprint(met);
    interval_reference = Fingerprint(diff);
    oracle::ExpectMatchesOracle(met, {&a, &b}, oracle::Intersection(a, b),
                                "rectangles");
    oracle::ExpectMatchesOracle(diff, {&ia, &ib},
                                oracle::DifferenceOf(ia, ib), "intervals");
  }
}

TEST(IndexDifferentialTest, DatalogFixpointMatchesClosedForm) {
  const int n = 8;
  Database db;
  db.SetRelation("edge", bench::TwoPathGraph(n));
  DatalogProgram program = DatalogParser::ParseProgram(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").value();
  std::vector<std::vector<Rational>> reach;
  for (int64_t base : {0, 1000}) {
    for (int64_t i = 1; i <= n; ++i) {
      for (int64_t j = i + 1; j <= n; ++j) reach.push_back({base + i, base + j});
    }
  }
  GeneralizedRelation expected = GeneralizedRelation::FromPoints(2, reach);
  std::string reference;
  uint64_t reference_iterations = 0;
  for (int threads : {1, 8}) {
    DatalogOptions options;
    options.eval_options.num_threads = threads;
    DatalogEvaluator evaluator(program, &db, options);
    Database idb = evaluator.Evaluate().value();
    const GeneralizedRelation& tc = *idb.FindRelation("tc");
    if (!reference.empty()) {
      EXPECT_EQ(reference, Fingerprint(tc)) << "threads " << threads;
      EXPECT_EQ(reference_iterations, evaluator.iterations())
          << "threads " << threads;
      continue;
    }
    reference = Fingerprint(tc);
    reference_iterations = evaluator.iterations();
    oracle::ExpectSemanticallyEqual(tc, expected, "tc");
  }
}

TEST(EvalCountersTest, IndexedEvaluationReportsPrunedPairs) {
  GeneralizedRelation a = bench::PathGraph(24);
  GeneralizedRelation b = bench::PathGraph(24);
  EvalCounterSnapshot before = EvalCounters::Snapshot();
  GeneralizedRelation joined = algebra::EquiJoin(a, b, {{1, 0}});
  EvalCounterSnapshot delta = EvalCounters::Snapshot() - before;
  EXPECT_FALSE(joined.IsEmpty());
  EXPECT_GT(delta.pairs_considered, 0u);
  EXPECT_GT(delta.pairs_pruned, 0u);
  EXPECT_GT(delta.index_probes, 0u);
  // The report renders every line.
  std::string report = delta.ToString();
  EXPECT_NE(report.find("pruned by bound signatures"), std::string::npos);
}

TEST(EvalCountersTest, FoEvaluatorAttributesCounterDelta) {
  Database db;
  db.SetRelation("edge", bench::PathGraph(16));
  Query query;
  int fresh = 0;
  query.head = {"x", "y"};
  query.body = bench::DoublingReach(2, "x", "y", &fresh);
  FoEvaluator evaluator(&db);
  ASSERT_TRUE(evaluator.Evaluate(query).ok());
  EXPECT_GT(evaluator.stats().counters.pairs_considered, 0u);
  EXPECT_GT(evaluator.stats().counters.canonicalized, 0u);
}

// A conjunction chain folds smallest-first; written largest-first it is
// reordered once, and the answer is the ascending order's.
TEST(EvalCountersTest, ConjunctionChainFoldsSmallestFirst) {
  Database db;
  db.SetRelation("big", bench::PathGraph(16));
  db.SetRelation("mid", bench::PathGraph(8));
  db.SetRelation("small", bench::PathGraph(4));
  auto run = [&db](const char* text, uint64_t* reorders) {
    FoEvaluator evaluator(&db);
    Result<GeneralizedRelation> answer =
        evaluator.Evaluate(FoParser::ParseQuery(text).value());
    EXPECT_TRUE(answer.ok()) << text;
    *reorders = evaluator.stats().counters.planner_reorders;
    return answer.ok() ? answer.value().ToString() : std::string();
  };
  uint64_t descending_reorders = 0;
  uint64_t ascending_reorders = 0;
  std::string descending =
      run("{ (x, y) | big(x, y) and mid(x, y) and small(x, y) }",
          &descending_reorders);
  std::string ascending =
      run("{ (x, y) | small(x, y) and mid(x, y) and big(x, y) }",
          &ascending_reorders);
  EXPECT_EQ(descending_reorders, 1u);
  EXPECT_EQ(ascending_reorders, 0u);
  EXPECT_EQ(descending, ascending);
  EXPECT_EQ(ascending, bench::PathGraph(4).ToString());
}

}  // namespace
}  // namespace dodb
