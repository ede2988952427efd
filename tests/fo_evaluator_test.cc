#include "fo/evaluator.h"

#include <random>

#include <gtest/gtest.h>

#include "cells/cell_decomposition.h"
#include "fo/parser.h"

namespace dodb {
namespace {

Term V(int i) { return Term::Var(i); }
Term C(int64_t n) { return Term::Const(Rational(n)); }
DenseAtom A(Term l, RelOp op, Term r) { return DenseAtom(l, op, r); }

// Database used across tests:
//   R = the paper's triangle: { (x, y) | x <= y and x >= 0 and y <= 10 }
//   E = finite edge relation { (1,2), (2,3), (3,4) }
//   S = union of intervals [0,2] and [5,8]
Database MakeDb() {
  Database db;

  GeneralizedRelation triangle(2);
  GeneralizedTuple t(2);
  t.AddAtom(A(V(0), RelOp::kLe, V(1)));
  t.AddAtom(A(V(0), RelOp::kGe, C(0)));
  t.AddAtom(A(V(1), RelOp::kLe, C(10)));
  triangle.AddTuple(t);
  db.SetRelation("R", triangle);

  db.SetRelation("E", GeneralizedRelation::FromPoints(
                          2, {{Rational(1), Rational(2)},
                              {Rational(2), Rational(3)},
                              {Rational(3), Rational(4)}}));

  GeneralizedRelation s(1);
  GeneralizedTuple s1(1);
  s1.AddAtom(A(V(0), RelOp::kGe, C(0)));
  s1.AddAtom(A(V(0), RelOp::kLe, C(2)));
  s.AddTuple(s1);
  GeneralizedTuple s2(1);
  s2.AddAtom(A(V(0), RelOp::kGe, C(5)));
  s2.AddAtom(A(V(0), RelOp::kLe, C(8)));
  s.AddTuple(s2);
  db.SetRelation("S", s);

  return db;
}

GeneralizedRelation EvalQuery(const Database& db, const std::string& text) {
  Query query = FoParser::ParseQuery(text).value();
  FoEvaluator evaluator(&db);
  Result<GeneralizedRelation> result = evaluator.Evaluate(query);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << " for " << text;
  return result.ok() ? result.value() : GeneralizedRelation(0);
}

bool EvalBool(const Database& db, const std::string& text) {
  return !EvalQuery(db, text).IsEmpty();
}

TEST(FoEvaluatorTest, IdentityQuery) {
  Database db = MakeDb();
  GeneralizedRelation out = EvalQuery(db, "{ (x, y) | R(x, y) }");
  EXPECT_TRUE(out.Contains({Rational(1), Rational(5)}));
  EXPECT_FALSE(out.Contains({Rational(5), Rational(1)}));
}

TEST(FoEvaluatorTest, SwappedColumns) {
  Database db = MakeDb();
  GeneralizedRelation out = EvalQuery(db, "{ (y, x) | R(x, y) }");
  EXPECT_TRUE(out.Contains({Rational(5), Rational(1)}));
  EXPECT_FALSE(out.Contains({Rational(1), Rational(5)}));
}

TEST(FoEvaluatorTest, SelectionWithConstant) {
  Database db = MakeDb();
  GeneralizedRelation out = EvalQuery(db, "{ (x, y) | R(x, y) and x > 3 }");
  EXPECT_TRUE(out.Contains({Rational(4), Rational(5)}));
  EXPECT_FALSE(out.Contains({Rational(1), Rational(5)}));
}

TEST(FoEvaluatorTest, ConstantArgument) {
  Database db = MakeDb();
  GeneralizedRelation out = EvalQuery(db, "{ (y) | E(2, y) }");
  EXPECT_TRUE(out.Contains({Rational(3)}));
  EXPECT_FALSE(out.Contains({Rational(2)}));
}

TEST(FoEvaluatorTest, RepeatedVariableArgument) {
  Database db = MakeDb();
  // R(x, x): diagonal of the triangle == [0, 10].
  GeneralizedRelation out = EvalQuery(db, "{ (x) | R(x, x) }");
  EXPECT_TRUE(out.Contains({Rational(0)}));
  EXPECT_TRUE(out.Contains({Rational(10)}));
  EXPECT_FALSE(out.Contains({Rational(11)}));
}

TEST(FoEvaluatorTest, ExistentialProjection) {
  Database db = MakeDb();
  // Projection of the triangle onto y: exists x => y in [0, 10].
  GeneralizedRelation out = EvalQuery(db, "{ (y) | exists x (R(x, y)) }");
  EXPECT_TRUE(out.Contains({Rational(0)}));
  EXPECT_TRUE(out.Contains({Rational(10)}));
  EXPECT_FALSE(out.Contains({Rational(-1, 2)}));
  EXPECT_FALSE(out.Contains({Rational(21, 2)}));
}

TEST(FoEvaluatorTest, JoinComposition) {
  Database db = MakeDb();
  // E ∘ E = {(1,3), (2,4)}.
  GeneralizedRelation out =
      EvalQuery(db, "{ (x, z) | exists y (E(x, y) and E(y, z)) }");
  EXPECT_TRUE(out.Contains({Rational(1), Rational(3)}));
  EXPECT_TRUE(out.Contains({Rational(2), Rational(4)}));
  EXPECT_FALSE(out.Contains({Rational(1), Rational(2)}));
  EXPECT_FALSE(out.Contains({Rational(1), Rational(4)}));
}

TEST(FoEvaluatorTest, NegationAsComplement) {
  Database db = MakeDb();
  GeneralizedRelation out = EvalQuery(db, "{ (x) | not S(x) }");
  EXPECT_TRUE(out.Contains({Rational(3)}));
  EXPECT_TRUE(out.Contains({Rational(-1)}));
  EXPECT_FALSE(out.Contains({Rational(1)}));
  EXPECT_FALSE(out.Contains({Rational(6)}));
}

TEST(FoEvaluatorTest, UniversalQuantifier) {
  Database db = MakeDb();
  // Lower bounds of S: all y in S are >= x  <=>  x <= 0.
  GeneralizedRelation out = EvalQuery(db, "{ (x) | forall y (S(y) -> x <= y) }");
  EXPECT_TRUE(out.Contains({Rational(0)}));
  EXPECT_TRUE(out.Contains({Rational(-5)}));
  EXPECT_FALSE(out.Contains({Rational(1)}));
}

TEST(FoEvaluatorTest, BooleanQueries) {
  Database db = MakeDb();
  EXPECT_TRUE(EvalBool(db, "exists x (S(x) and x > 6)"));
  EXPECT_FALSE(EvalBool(db, "exists x (S(x) and x > 9)"));
  EXPECT_TRUE(EvalBool(db, "forall x (S(x) -> x <= 8)"));
  EXPECT_FALSE(EvalBool(db, "forall x (S(x) -> x <= 7)"));
  EXPECT_TRUE(EvalBool(db, "true"));
  EXPECT_FALSE(EvalBool(db, "false"));
}

TEST(FoEvaluatorTest, UnconstrainedHeadVariable) {
  Database db = MakeDb();
  GeneralizedRelation out = EvalQuery(db, "{ (x, y) | S(x) }");
  EXPECT_TRUE(out.Contains({Rational(1), Rational(999)}));
  EXPECT_FALSE(out.Contains({Rational(3), Rational(0)}));
}

TEST(FoEvaluatorTest, DisjunctionAcrossRelations) {
  Database db = MakeDb();
  GeneralizedRelation out = EvalQuery(db, "{ (x) | S(x) or x > 100 }");
  EXPECT_TRUE(out.Contains({Rational(1)}));
  EXPECT_TRUE(out.Contains({Rational(101)}));
  EXPECT_FALSE(out.Contains({Rational(50)}));
}

TEST(FoEvaluatorTest, InfiniteAnswerRelation) {
  Database db = MakeDb();
  // The answer { (x, y) | x < y } is an infinite set, finitely represented.
  GeneralizedRelation out = EvalQuery(db, "{ (x, y) | x < y }");
  EXPECT_TRUE(out.Contains({Rational(-1000000), Rational(1000000)}));
  EXPECT_FALSE(out.Contains({Rational(0), Rational(0)}));
  EXPECT_EQ(out.tuple_count(), 1u);
}

TEST(FoEvaluatorTest, ShadowedQuantifier) {
  Database db = MakeDb();
  // Inner exists x is independent of the outer head x.
  GeneralizedRelation out =
      EvalQuery(db, "{ (x) | S(x) and exists x (E(x, 2)) }");
  EXPECT_TRUE(out.Contains({Rational(1)}));
  EXPECT_FALSE(out.Contains({Rational(3)}));
}

TEST(FoEvaluatorTest, VacuousQuantifier) {
  Database db = MakeDb();
  GeneralizedRelation out = EvalQuery(db, "{ (x) | S(x) and exists q (q = q) }");
  EXPECT_TRUE(out.Contains({Rational(1)}));
}

TEST(FoEvaluatorTest, DensenessBetweenness) {
  Database db = MakeDb();
  // Between any two S-points there is a rational: with x in [0,2], z in
  // [5,8], some y strictly between always exists => answer true.
  EXPECT_TRUE(EvalBool(
      db, "exists x, z (S(x) and S(z) and x < z and exists y (x < y and y < z))"));
}

TEST(FoEvaluatorTest, RejectsLinearTerms) {
  Database db = MakeDb();
  Query query = FoParser::ParseQuery("{ (x) | x + 1 < 3 }").value();
  FoEvaluator evaluator(&db);
  Result<GeneralizedRelation> result = evaluator.Evaluate(query);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST(FoEvaluatorTest, MissingRelationIsError) {
  Database db = MakeDb();
  Query query = FoParser::ParseQuery("{ (x) | Zap(x) }").value();
  FoEvaluator evaluator(&db);
  EXPECT_EQ(evaluator.Evaluate(query).status().code(), StatusCode::kNotFound);
}

TEST(FoEvaluatorTest, ArityMismatchIsError) {
  Database db = MakeDb();
  Query query = FoParser::ParseQuery("{ (x) | S(x, x) }").value();
  FoEvaluator evaluator(&db);
  EXPECT_EQ(evaluator.Evaluate(query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FoEvaluatorTest, FreeVariableNotInHeadIsError) {
  Database db = MakeDb();
  Query query = FoParser::ParseQuery("{ (x) | R(x, y) }").value();
  FoEvaluator evaluator(&db);
  EXPECT_EQ(evaluator.Evaluate(query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FoEvaluatorTest, TupleLimitEnforced) {
  Database db = MakeDb();
  EvalOptions options;
  options.max_tuples = 1;
  FoEvaluator evaluator(&db, options);
  Query query = FoParser::ParseQuery("{ (x) | S(x) or x > 100 }").value();
  Result<GeneralizedRelation> result = evaluator.Evaluate(query);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(FoEvaluatorTest, StatsAreCounted) {
  Database db = MakeDb();
  FoEvaluator evaluator(&db);
  Query query =
      FoParser::ParseQuery("{ (x) | not S(x) and exists y (E(x, y)) }")
          .value();
  ASSERT_TRUE(evaluator.Evaluate(query).ok());
  EXPECT_GE(evaluator.stats().complements, 1u);
  EXPECT_GE(evaluator.stats().eliminations, 1u);
  EXPECT_GE(evaluator.stats().intersections, 1u);
}

// An atom over a stored relation's columns, in order, is the stored
// relation itself: nothing is re-canonicalized or indexed.
TEST(FoEvaluatorTest, PlainAtomSharesTheStoredRelation) {
  Database db = MakeDb();
  FoEvaluator evaluator(&db);
  Query query = FoParser::ParseQuery("{ (x, y) | E(x, y) }").value();
  GeneralizedRelation answer = evaluator.Evaluate(query).value();
  EXPECT_TRUE(answer.StructurallyEquals(*db.FindRelation("E")));
  EXPECT_EQ(evaluator.stats().counters.canonicalized, 0u);
  EXPECT_EQ(evaluator.stats().counters.index_builds, 0u);
}

// An atom with a constant argument reads only the stored tuples whose box
// admits the constant, so canonicalization scales with the tuples the probe
// matches (10 here; the selection, the elimination and its reindexing each
// canonicalize them), not with the relation (1,000).
TEST(FoEvaluatorTest, ConstantAtomProbesTheStoredRelation) {
  std::vector<std::vector<Rational>> points;
  for (int64_t x = 0; x < 100; ++x) {
    for (int64_t y = 0; y < 10; ++y) points.push_back({Rational(x), Rational(y)});
  }
  Database db;
  db.SetRelation("r", GeneralizedRelation::FromPoints(2, points));
  FoEvaluator evaluator(&db);
  Query query = FoParser::ParseQuery("{ (y) | r(42, y) }").value();
  GeneralizedRelation answer = evaluator.Evaluate(query).value();
  ASSERT_EQ(answer.tuple_count(), 10u);
  for (int64_t y = 0; y < 10; ++y) EXPECT_TRUE(answer.Contains({Rational(y)}));
  EXPECT_LE(evaluator.stats().counters.canonicalized,
            4 * answer.tuple_count());
}

// Closure under automorphisms (paper §3, Definition 3.1): evaluating a
// query on an automorphic image of the database yields the automorphic
// image of the original answer.
class QueryGenericity : public ::testing::TestWithParam<const char*> {};

TEST_P(QueryGenericity, CommutesWithAutomorphism) {
  Database db = MakeDb();
  MonotoneMap map({{Rational(-2), Rational(-17)},
                   {Rational(3), Rational(-1)},
                   {Rational(11), Rational(40)}});
  Database mapped = db.Mapped(map);

  Query query = FoParser::ParseQuery(GetParam()).value();
  FoEvaluator ev1(&db);
  FoEvaluator ev2(&mapped);
  GeneralizedRelation out1 = ev1.Evaluate(query).value();
  GeneralizedRelation out2 = ev2.Evaluate(query).value();
  // Mapping the original answer must equal the answer on the mapped input.
  // Note: this holds only for queries without constants (constants are not
  // moved by the automorphism); the parameterized queries are constant-free.
  GeneralizedRelation mapped_out1 = map.ApplyToRelation(out1);
  Result<bool> equal = CellDecomposition::SemanticallyEqual(mapped_out1, out2);
  ASSERT_TRUE(equal.ok());
  EXPECT_TRUE(equal.value()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    ConstantFreeQueries, QueryGenericity,
    ::testing::Values(
        "{ (x, y) | R(x, y) and x != y }",
        "{ (y) | exists x (R(x, y)) }",
        "{ (x) | not S(x) }",
        "{ (x, z) | exists y (E(x, y) and E(y, z)) }",
        "{ (x) | forall y (S(y) -> x <= y) }"));

}  // namespace
}  // namespace dodb
