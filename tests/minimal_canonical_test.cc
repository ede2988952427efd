// Minimal canonical forms: per variable only the tightest constant
// lower/upper bound survives, plus equality and inequations strictly
// between the bounds. The emitted form is checked against the raw atoms'
// own meaning at every cell witness of randomized soups, and the evaluators
// built on it are checked against oracles outside the engine (cell-witness
// semantics, closed-form answers, the model-theoretic cell evaluator) at 1
// and 8 threads, with the two thread counts structurally identical.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/relational_ops.h"
#include "bench/workloads.h"
#include "complex/ccalc_evaluator.h"
#include "complex/ccalc_parser.h"
#include "constraints/eval_counters.h"
#include "core/thread_pool.h"
#include "datalog/datalog_evaluator.h"
#include "datalog/datalog_parser.h"
#include "fo/cell_evaluator.h"
#include "fo/evaluator.h"
#include "fo/linear_evaluator.h"
#include "fo/parser.h"
#include "io/database.h"
#include "oracle.h"

namespace dodb {
namespace {

DenseAtom VarConst(int var, RelOp op, int64_t value) {
  return DenseAtom(Term::Var(var), op, Term::Const(Rational(value)));
}

// Logical equivalence of two satisfiable conjunctions: each entails the
// other (EntailsTuple closes its receiver, so raw atom lists qualify).
void ExpectEquivalent(const GeneralizedTuple& a, const GeneralizedTuple& b) {
  EXPECT_TRUE(a.EntailsTuple(b)) << a.ToString() << " vs " << b.ToString();
  EXPECT_TRUE(b.EntailsTuple(a)) << b.ToString() << " vs " << a.ToString();
}

TEST(MinimalCanonicalFormTest, KeepsOnlyTightestBoundPerSide) {
  // Four constants, all informative after closure; only >= 1 and < 5 are
  // tight (x > 0 and x < 7 follow through the constant order).
  GeneralizedTuple tuple(1);
  tuple.AddAtom(VarConst(0, RelOp::kGt, 0));
  tuple.AddAtom(VarConst(0, RelOp::kGe, 1));
  tuple.AddAtom(VarConst(0, RelOp::kLt, 5));
  tuple.AddAtom(VarConst(0, RelOp::kLe, 7));
  GeneralizedTuple minimal = tuple.Canonical();
  EXPECT_EQ(minimal.atoms().size(), 2u) << minimal.ToString();
  EXPECT_EQ(minimal.ToString(), "x0 >= 1 and x0 < 5");
  ExpectEquivalent(minimal, tuple);
}

TEST(MinimalCanonicalFormTest, InequationAbsorbedAtBoundSurvivesBetween) {
  // At a closed bound the inequation strengthens the bound instead of
  // surviving: x >= 3 and x != 3 closes to x > 3.
  GeneralizedTuple at_bound(1);
  at_bound.AddAtom(VarConst(0, RelOp::kGe, 3));
  at_bound.AddAtom(VarConst(0, RelOp::kNeq, 3));
  EXPECT_EQ(at_bound.Canonical().ToString(), "x0 > 3");

  // Strictly between the bounds the inequation is not implied and stays.
  GeneralizedTuple between(1);
  between.AddAtom(VarConst(0, RelOp::kGe, 3));
  between.AddAtom(VarConst(0, RelOp::kNeq, 5));
  between.AddAtom(VarConst(0, RelOp::kLe, 9));
  EXPECT_EQ(between.Canonical().ToString(), "x0 >= 3 and x0 != 5 and x0 <= 9");

  // Outside the bounds the inequation is implied and dropped.
  GeneralizedTuple outside(1);
  outside.AddAtom(VarConst(0, RelOp::kLt, 2));
  outside.AddAtom(VarConst(0, RelOp::kNeq, 5));
  EXPECT_EQ(outside.Canonical().ToString(), "x0 < 2");
}

TEST(MinimalCanonicalFormTest, EqualityStandsAloneAndVarVarAtomsAreKept) {
  GeneralizedTuple tuple(2);
  tuple.AddAtom(VarConst(0, RelOp::kEq, 3));
  tuple.AddAtom(VarConst(0, RelOp::kLe, 9));
  tuple.AddAtom(DenseAtom(Term::Var(0), RelOp::kLt, Term::Var(1)));
  GeneralizedTuple minimal = tuple.Canonical();
  // x0 = 3 absorbs every other var-const relation of x0; the var-var atom
  // and x1's derived lower bound survive.
  EXPECT_EQ(minimal.ToString(), "x0 < x1 and x0 = 3 and x1 > 3");
  ExpectEquivalent(minimal, tuple);
}

// Per variable, the canonical form keeps at most one lower and one upper
// constant bound, and an equality to a constant stands alone.
void ExpectAtMostOneBoundPerSide(const GeneralizedTuple& canonical,
                                 const std::string& context) {
  std::vector<int> lower(canonical.arity(), 0);
  std::vector<int> upper(canonical.arity(), 0);
  std::vector<int> equal(canonical.arity(), 0);
  for (const DenseAtom& atom : canonical.atoms()) {
    DenseAtom oriented = atom.Oriented();  // variables sort before constants
    if (!oriented.lhs().is_var() || !oriented.rhs().is_const()) continue;
    const int var = oriented.lhs().var();
    switch (oriented.op()) {
      case RelOp::kGt:
      case RelOp::kGe:
        ++lower[var];
        break;
      case RelOp::kLt:
      case RelOp::kLe:
        ++upper[var];
        break;
      case RelOp::kEq:
        ++equal[var];
        break;
      case RelOp::kNeq:
        break;
    }
  }
  for (int v = 0; v < canonical.arity(); ++v) {
    EXPECT_LE(lower[v], 1) << context << " x" << v;
    EXPECT_LE(upper[v], 1) << context << " x" << v;
    EXPECT_LE(equal[v], 1) << context << " x" << v;
    if (equal[v] != 0) {
      EXPECT_EQ(lower[v] + upper[v], 0) << context << " x" << v;
    }
  }
}

// The randomized heart of the canonical-form contract, against an oracle
// that needs no closure: the raw atoms evaluated directly. Every soup's
// point set is a union of cells over its own constants, so one witness per
// cell decides (a) that the canonical form denotes the same set, (b) that
// the satisfiability verdict is right, and the canonical atoms themselves
// show (c) the minimal shape.
TEST(CanonicalFormOracleTest, RandomSoupsMatchRawAtomsAtEveryCellWitness) {
  std::mt19937_64 rng(7251);
  const RelOp kOps[] = {RelOp::kLt, RelOp::kLe, RelOp::kEq,
                        RelOp::kNeq, RelOp::kGe, RelOp::kGt};
  int satisfiable = 0;
  for (int round = 0; round < 400; ++round) {
    const int arity = 1 + static_cast<int>(rng() % 4);
    const int atoms = 1 + static_cast<int>(rng() % 10);
    GeneralizedTuple tuple(arity);
    for (int a = 0; a < atoms; ++a) {
      Term lhs = Term::Var(static_cast<int>(rng() % arity));
      Term rhs = (rng() % 2 == 0)
                     ? Term::Const(Rational(static_cast<int64_t>(rng() % 12)))
                     : Term::Var(static_cast<int>(rng() % arity));
      tuple.AddAtom(DenseAtom(lhs, kOps[rng() % 6], rhs));
    }
    const std::string context = tuple.ToString();
    std::optional<GeneralizedTuple> canonical = tuple.CanonicalIfSatisfiable();
    bool witnessed = false;
    oracle::ForEachCellWitness(
        arity, tuple.Constants(), [&](const oracle::Point& w) {
          const bool raw = tuple.Contains(w);
          witnessed = witnessed || raw;
          if (canonical.has_value() && canonical->Contains(w) != raw) {
            ADD_FAILURE() << context << ": canonical " << canonical->ToString()
                          << " disagrees at " << oracle::PointString(w);
            return false;
          }
          return true;
        });
    EXPECT_EQ(canonical.has_value(), witnessed) << context;
    if (!canonical.has_value()) continue;
    ++satisfiable;
    ExpectAtMostOneBoundPerSide(*canonical, context);
  }
  // The soup must exercise both verdicts.
  EXPECT_GT(satisfiable, 40);
  EXPECT_LT(satisfiable, 400);
}

std::string StructuralFingerprint(const GeneralizedRelation& rel) {
  return rel.ToString() + "#" + std::to_string(rel.tuple_count());
}

// Algebra over the index and shards (relation sizes past the shard
// thresholds): structurally identical at 1 and 8 threads, and equal to the
// operators' set-theoretic definitions at every cell witness.
TEST(MinimalCanonicalDifferentialTest, AlgebraMatchesOracleAcrossThreads) {
  GeneralizedRelation a = bench::RandomIntervals(64, 0, 5);
  GeneralizedRelation b = bench::RandomIntervals(64, 0, 6);
  std::string reference;
  for (int threads : {1, 8}) {
    EvalThreadsScope scope(threads);
    std::vector<GeneralizedRelation> results;
    results.push_back(algebra::Intersect(a, b));
    results.push_back(algebra::Union(a, b));
    results.push_back(algebra::Difference(a, b));
    results.push_back(algebra::EquiJoin(a, b, {{0, 0}}));
    std::string fingerprint;
    for (const GeneralizedRelation& rel : results) {
      fingerprint += StructuralFingerprint(rel) + "\n";
    }
    if (!reference.empty()) {
      EXPECT_EQ(fingerprint, reference) << "threads " << threads;
      continue;
    }
    reference = fingerprint;
    oracle::ExpectMatchesOracle(results[0], {&a, &b},
                                oracle::Intersection(a, b), "intersect");
    oracle::ExpectMatchesOracle(results[1], {&a, &b}, oracle::UnionOf(a, b),
                                "union");
    oracle::ExpectMatchesOracle(results[2], {&a, &b},
                                oracle::DifferenceOf(a, b), "difference");
    oracle::ExpectMatchesOracle(results[3], {&a, &b},
                                oracle::EquiJoinOf(a, b, {{0, 0}}), "join");
  }
}

TEST(MinimalCanonicalDifferentialTest, FoEvaluatorMatchesClosedFormAnswer) {
  // Two-step pairs of the path 1 -> ... -> 10 that are not edges: exactly
  // (i, i + 2).
  Database db;
  db.SetRelation("e", bench::PathGraph(10));
  Query query = FoParser::ParseQuery(
                    "{ (x, y) | exists z (e(x, z) and e(z, y)) and "
                    "not e(x, y) }")
                    .value();
  std::vector<std::vector<Rational>> two_steps;
  for (int64_t i = 1; i + 2 <= 10; ++i) two_steps.push_back({i, i + 2});
  GeneralizedRelation expected = GeneralizedRelation::FromPoints(2, two_steps);
  std::string reference;
  for (int threads : {1, 8}) {
    EvalOptions options;
    options.num_threads = threads;
    FoEvaluator evaluator(&db, options);
    GeneralizedRelation answer = evaluator.Evaluate(query).value();
    std::string fingerprint = StructuralFingerprint(answer);
    if (reference.empty()) {
      reference = fingerprint;
      oracle::ExpectSemanticallyEqual(answer, expected, "fo query");
    } else {
      EXPECT_EQ(fingerprint, reference) << "threads " << threads;
    }
  }
}

TEST(MinimalCanonicalDifferentialTest, CellEvaluatorRefereesFoEvaluator) {
  // The model-theoretic evaluator is an independent implementation of the
  // same semantics; the algebraic answers, FO and C-CALC at 1 and 8 threads,
  // must agree with it semantically (and the two thread counts
  // structurally). The atoms cover every case of the atom reader: a stored
  // relation as it is or permuted, a repeated variable, constants on closed
  // and on open tuple endpoints, constants inside var-var tuples (which
  // have no box), and all-constant atoms.
  Database db;
  db.SetRelation("e", bench::PathGraph(8));
  GeneralizedRelation r(2);
  auto add = [](GeneralizedRelation* rel, std::vector<DenseAtom> atoms) {
    rel->AddTuple(GeneralizedTuple(rel->arity(), std::move(atoms)));
  };
  add(&r, {VarConst(0, RelOp::kGe, 0), VarConst(0, RelOp::kLe, 3),
           VarConst(1, RelOp::kEq, 7)});
  add(&r, {VarConst(0, RelOp::kGt, 3), VarConst(0, RelOp::kLt, 5),
           VarConst(1, RelOp::kGt, 1), VarConst(1, RelOp::kLe, 4)});
  add(&r, {DenseAtom(Term::Var(0), RelOp::kLt, Term::Var(1))});
  add(&r, {DenseAtom(Term::Var(0), RelOp::kEq, Term::Var(1)),
           VarConst(1, RelOp::kGe, 6)});
  add(&r, {VarConst(0, RelOp::kEq, 5), VarConst(1, RelOp::kEq, 5)});
  db.SetRelation("r", r);
  GeneralizedRelation zone(1);
  add(&zone, {VarConst(0, RelOp::kGe, 0), VarConst(0, RelOp::kLe, 5)});
  add(&zone, {VarConst(0, RelOp::kGt, 7), VarConst(0, RelOp::kLt, 9)});
  db.SetRelation("zone", zone);
  const char* queries[] = {
      "{ (x) | exists y (e(x, y) and x < y) }",
      "{ (x, y) | r(x, y) }",
      "{ (y, x) | r(x, y) }",
      "{ (x) | r(x, x) }",
      "{ (y) | r(3, y) }",
      "{ (y) | r(5, y) }",
      "{ (x) | r(x, 7) }",
      "{ (x) | r(x, 4) and zone(x) }",
      "{ (x) | not r(x, 6) }",
      "{ (y) | exists x (r(x, y) and zone(x)) }",
      "zone(5)",
      "zone(7)",
      "r(3, 7)",
      "r(9, 8)",
  };
  for (const char* text : queries) {
    Query query = FoParser::ParseQuery(text).value();
    CCalcQuery ccalc_query = CCalcParser::ParseQuery(text).value();
    CellFoEvaluator cell_evaluator(&db);
    GeneralizedRelation referee = cell_evaluator.Evaluate(query).value();
    std::string reference;
    for (int threads : {1, 8}) {
      const std::string context =
          std::string(text) + ", threads " + std::to_string(threads);
      EvalOptions options;
      options.num_threads = threads;
      FoEvaluator evaluator(&db, options);
      GeneralizedRelation algebraic = evaluator.Evaluate(query).value();
      oracle::ExpectSemanticallyEqual(algebraic, referee, "FO " + context);
      CCalcOptions ccalc_options;
      ccalc_options.eval_options = options;
      CCalcEvaluator ccalc(&db, ccalc_options);
      GeneralizedRelation from_ccalc = ccalc.Evaluate(ccalc_query).value();
      oracle::ExpectSemanticallyEqual(from_ccalc, referee,
                                      "C-CALC " + context);
      std::string fingerprint = StructuralFingerprint(algebraic) + "\n" +
                                StructuralFingerprint(from_ccalc);
      if (reference.empty()) {
        reference = fingerprint;
      } else {
        EXPECT_EQ(fingerprint, reference) << context;
      }
    }
  }
}

TEST(MinimalCanonicalDifferentialTest, DatalogFixpointMatchesClosedForm) {
  // Transitive closure of two disjoint 16-vertex paths: i -> j for i < j on
  // the same path.
  const int n = 16;
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
    std::string fingerprint = StructuralFingerprint(tc);
    if (reference.empty()) {
      reference = fingerprint;
      reference_iterations = evaluator.iterations();
      EXPECT_EQ(tc.tuple_count(), expected.tuple_count());
      oracle::ExpectSemanticallyEqual(tc, expected, "datalog tc");
    } else {
      EXPECT_EQ(fingerprint, reference) << "threads " << threads;
      EXPECT_EQ(evaluator.iterations(), reference_iterations)
          << "threads " << threads;
    }
  }
}

TEST(MinimalCanonicalDifferentialTest, LinearEvaluatorAgreesOnWitnessGrid) {
  // LinearRelation has no cell decomposition; check membership over a grid
  // that separates every region the scale induces (integers and midpoints
  // across the data range) against the query's definition.
  Database db;
  GeneralizedRelation r = bench::RandomIntervals(16, 0, 11);
  db.SetRelation("r", r);
  Query query =
      FoParser::ParseQuery("{ (x) | r(x) and x + x < 40 }").value();
  for (int threads : {1, 8}) {
    EvalOptions options;
    options.num_threads = threads;
    LinearFoEvaluator evaluator(&db, options);
    LinearRelation answer = evaluator.Evaluate(query).value();
    for (int64_t twice = -10; twice <= 120; ++twice) {
      std::vector<Rational> point = {Rational(twice, 2)};
      EXPECT_EQ(answer.Contains(point), r.Contains(point) && twice < 40)
          << "threads " << threads << " x = " << point[0].ToString();
    }
  }
}

TEST(MinimalCanonicalDifferentialTest, CCalcMatchesClosedFormAnswer) {
  // Every member of a set drawn from R lies in R, and every point of R
  // lies in some such set: the answer is R itself.
  Database db;
  GeneralizedRelation r(1);
  for (int64_t v : {0, 2, 5}) {
    GeneralizedTuple tuple(1);
    tuple.AddAtom(VarConst(0, RelOp::kGe, v));
    tuple.AddAtom(VarConst(0, RelOp::kLe, v + 1));
    r.AddTuple(std::move(tuple));
  }
  db.SetRelation("R", r);
  CCalcQuery query =
      CCalcParser::ParseQuery(
          "{ (x) | exists set X : 1 (x in X and forall y (y in X -> R(y))) }")
          .value();
  for (int threads : {1, 8}) {
    CCalcOptions options;
    options.eval_options.num_threads = threads;
    CCalcEvaluator evaluator(&db, options);
    GeneralizedRelation answer = evaluator.Evaluate(query).value();
    oracle::ExpectSemanticallyEqual(answer, r,
                                    "threads " + std::to_string(threads));
  }
}

TEST(AtomArenaTest, StoredTuplesShareTheRelationArenaAndOutliveIt) {
  // Wide tuples (more atoms than the inline capacity: 16 bounds over 8
  // columns) spill to the heap on construction and are re-pointed at the
  // relation's arena when stored.
  EvalCounterSnapshot before = EvalCounters::Snapshot();
  GeneralizedRelation rel(8);
  for (int t = 0; t < 6; ++t) {
    GeneralizedTuple tuple(8);
    for (int v = 0; v < 8; ++v) {
      tuple.AddAtom(VarConst(v, RelOp::kGe, 10 * t + v));
      tuple.AddAtom(VarConst(v, RelOp::kLe, 10 * t + v + 40));
    }
    rel.AddTuple(std::move(tuple));
  }
  ASSERT_GT(rel.tuple_count(), 0u);
  bool any_arena_backed = false;
  for (const GeneralizedTuple& tuple : rel.tuples()) {
    any_arena_backed = any_arena_backed || tuple.atoms().is_arena_backed();
  }
  EXPECT_TRUE(any_arena_backed);
  EvalCounterSnapshot delta = EvalCounters::Snapshot() - before;
  EXPECT_GT(delta.arena_bytes, 0u);
  // Copying a stored tuple copies a span + keepalive, and the span stays
  // valid after the owning relation dies.
  GeneralizedTuple survivor = rel.tuples().front();
  std::string expected = survivor.ToString();
  rel = GeneralizedRelation(8);  // drop the original storage
  EXPECT_EQ(survivor.ToString(), expected);
  // Mutating a borrowed tuple detaches it from the arena first.
  GeneralizedTuple detached = survivor;
  detached.AddAtom(VarConst(0, RelOp::kNeq, 1000));
  EXPECT_FALSE(detached.atoms().is_arena_backed());
  EXPECT_EQ(detached.atoms().size(), survivor.atoms().size() + 1);
}

TEST(AtomArenaTest, CrossRelationInsertCountsSpanReuse) {
  GeneralizedRelation source(4);
  for (int t = 0; t < 4; ++t) {
    GeneralizedTuple tuple(4);
    for (int v = 0; v < 4; ++v) {
      tuple.AddAtom(VarConst(v, RelOp::kGe, 20 * t + v));
      tuple.AddAtom(VarConst(v, RelOp::kLe, 20 * t + v + 5));
    }
    source.AddTuple(std::move(tuple));
  }
  // Tuples already backed by `source`'s arena are stored in a second
  // relation by pointer copy — counted as reuse hits, no new arena bytes
  // for those spans.
  EvalCounterSnapshot before = EvalCounters::Snapshot();
  GeneralizedRelation copy(4);
  for (const GeneralizedTuple& tuple : source.tuples()) {
    copy.AddCanonicalTuple(tuple);
  }
  EvalCounterSnapshot delta = EvalCounters::Snapshot() - before;
  EXPECT_EQ(copy.tuple_count(), source.tuple_count());
  EXPECT_GT(delta.arena_reuse_hits, 0u);
}

}  // namespace
}  // namespace dodb
