// Cross-component validation: independent implementations must agree.
//  - FoEvaluator vs brute-force grid semantics on random formulas,
//  - FoEvaluator vs LinearFoEvaluator on the shared dense fragment,
//  - semi-naive Datalog vs a naive inflationary fixpoint in plain C++,
//  - CCalcEvaluator vs FoEvaluator on the FO fragment,
//  - an end-to-end scenario through the text format.

#include <map>
#include <random>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "cells/cell_decomposition.h"
#include "complex/ccalc_evaluator.h"
#include "complex/ccalc_parser.h"
#include "datalog/datalog_evaluator.h"
#include "datalog/datalog_parser.h"
#include "fo/evaluator.h"
#include "fo/linear_evaluator.h"
#include "fo/parser.h"
#include "io/text_format.h"
#include "oracle.h"

namespace dodb {
namespace {

// ---------------------------------------------------------------------------
// Brute-force reference semantics: quantifiers range over a finite grid that
// is dense enough (>= #vars fresh points per open interval of the constant
// scale, plus points beyond both ends) to be exact for dense-order formulas.

class GridSemantics {
 public:
  GridSemantics(const Database* db, std::vector<Rational> grid)
      : db_(db), grid_(std::move(grid)) {}

  bool Holds(const Formula& f, std::map<std::string, Rational>* env) const {
    switch (f.kind) {
      case FormulaKind::kBool:
        return f.bool_value;
      case FormulaKind::kCompare: {
        Rational lhs = EvalExpr(f.lhs, *env);
        Rational rhs = EvalExpr(f.rhs, *env);
        return OpHolds(lhs.Compare(rhs), f.op);
      }
      case FormulaKind::kRelation: {
        const GeneralizedRelation* rel = db_->FindRelation(f.relation);
        std::vector<Rational> point;
        point.reserve(f.args.size());
        for (const FoExpr& arg : f.args) {
          point.push_back(EvalExpr(arg, *env));
        }
        return rel->Contains(point);
      }
      case FormulaKind::kNot:
        return !Holds(*f.child, env);
      case FormulaKind::kAnd:
        return Holds(*f.child, env) && Holds(*f.child2, env);
      case FormulaKind::kOr:
        return Holds(*f.child, env) || Holds(*f.child2, env);
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        bool exists = f.kind == FormulaKind::kExists;
        return Quantify(f, env, 0, exists);
      }
    }
    return false;
  }

 private:
  bool Quantify(const Formula& f, std::map<std::string, Rational>* env,
                size_t index, bool exists) const {
    if (index == f.bound_vars.size()) return Holds(*f.child, env);
    const std::string& var = f.bound_vars[index];
    auto saved = env->find(var) != env->end()
                     ? std::optional<Rational>((*env)[var])
                     : std::nullopt;
    for (const Rational& v : grid_) {
      (*env)[var] = v;
      bool inner = Quantify(f, env, index + 1, exists);
      if (inner == exists) {
        Restore(env, var, saved);
        return exists;
      }
    }
    Restore(env, var, saved);
    return !exists;
  }

  static void Restore(std::map<std::string, Rational>* env,
                      const std::string& var,
                      const std::optional<Rational>& saved) {
    if (saved.has_value()) {
      (*env)[var] = *saved;
    } else {
      env->erase(var);
    }
  }

  static Rational EvalExpr(const FoExpr& expr,
                           const std::map<std::string, Rational>& env) {
    Rational out = expr.constant;
    for (const auto& [name, coeff] : expr.coeffs) {
      out += coeff * env.at(name);
    }
    return out;
  }

  const Database* db_;
  std::vector<Rational> grid_;
};

std::vector<Rational> MakeGrid(const std::vector<Rational>& constants,
                               int per_gap) {
  std::vector<Rational> grid = constants;
  for (int i = 1; i <= per_gap; ++i) {
    grid.push_back(constants.front() - Rational(i));
    grid.push_back(constants.back() + Rational(i));
  }
  for (size_t g = 0; g + 1 < constants.size(); ++g) {
    for (int i = 1; i <= per_gap; ++i) {
      grid.push_back(constants[g] + (constants[g + 1] - constants[g]) *
                                        Rational(i, per_gap + 1));
    }
  }
  return grid;
}

// Random dense-order formula generator over free variables x, y. Bound
// variables are only used inside their binder's scope and the number of
// quantifier nodes is capped by *budget, keeping the quantifier rank <= 2 —
// which is what makes the finite reference grid below provably exact
// (an Ehrenfeucht-Fraïssé argument needs >= 2^rank - 1 grid points in every
// open segment between named elements and beyond the ends).
FormulaPtr RandomFormula(std::mt19937_64& rng, int depth, int* budget,
                         std::vector<std::string>* scope, int* fresh) {
  const RelOp kOps[] = {RelOp::kLt, RelOp::kLe, RelOp::kEq,
                        RelOp::kNeq, RelOp::kGe, RelOp::kGt};
  auto random_term = [&rng, scope]() {
    switch (rng() % 4) {
      case 0:
        return FoExpr::Variable("x");
      case 1:
        return FoExpr::Variable("y");
      case 2:
        return FoExpr::Constant(
            Rational(static_cast<int64_t>(rng() % 3) * 2));  // 0, 2, 4
      default:
        return scope->empty()
                   ? FoExpr::Variable("x")
                   : FoExpr::Variable((*scope)[rng() % scope->size()]);
    }
  };
  if (depth == 0 || rng() % 3 == 0) {
    if (rng() % 2 == 0) {
      return MakeCompare(random_term(), kOps[rng() % 6], random_term());
    }
    // Relation atom over the database's relations s (unary) or e (binary).
    if (rng() % 2 == 0) {
      return MakeRelation("s", {random_term()});
    }
    return MakeRelation("e", {random_term(), random_term()});
  }
  switch (rng() % 4) {
    case 0:
      return MakeNot(RandomFormula(rng, depth - 1, budget, scope, fresh));
    case 1:
      return MakeAnd(RandomFormula(rng, depth - 1, budget, scope, fresh),
                     RandomFormula(rng, depth - 1, budget, scope, fresh));
    case 2:
      return MakeOr(RandomFormula(rng, depth - 1, budget, scope, fresh),
                    RandomFormula(rng, depth - 1, budget, scope, fresh));
    default: {
      if (*budget <= 0) {
        return MakeCompare(random_term(), kOps[rng() % 6], random_term());
      }
      --*budget;
      std::string var = "z" + std::to_string((*fresh)++);
      scope->push_back(var);
      FormulaPtr body = RandomFormula(rng, depth - 1, budget, scope, fresh);
      scope->pop_back();
      return rng() % 2 == 0 ? MakeExists({var}, std::move(body))
                            : MakeForall({var}, std::move(body));
    }
  }
}

// Quantifier grid: a strict refinement of the probe lattice with >= 4 fresh
// points inside every probe-lattice segment and beyond both ends.
std::vector<Rational> RefineGrid(std::vector<Rational> coarse) {
  std::sort(coarse.begin(), coarse.end());
  std::vector<Rational> fine = coarse;
  for (size_t i = 0; i + 1 < coarse.size(); ++i) {
    for (int j = 1; j <= 4; ++j) {
      fine.push_back(coarse[i] +
                     (coarse[i + 1] - coarse[i]) * Rational(j, 5));
    }
  }
  for (int j = 1; j <= 4; ++j) {
    fine.push_back(coarse.front() - Rational(j));
    fine.push_back(coarse.back() + Rational(j));
  }
  return fine;
}

Database SmallDb() {
  Database db;
  GeneralizedRelation s(1);
  GeneralizedTuple t1(1);
  t1.AddAtom(DenseAtom(Term::Var(0), RelOp::kGe, Term::Const(Rational(0))));
  t1.AddAtom(DenseAtom(Term::Var(0), RelOp::kLt, Term::Const(Rational(2))));
  s.AddTuple(t1);
  GeneralizedTuple t2(1);
  t2.AddAtom(DenseAtom(Term::Var(0), RelOp::kEq, Term::Const(Rational(4))));
  s.AddTuple(t2);
  db.SetRelation("s", s);
  db.SetRelation("e", GeneralizedRelation::FromPoints(
                          2, {{Rational(0), Rational(2)},
                              {Rational(2), Rational(4)}}));
  return db;
}

class FoVsGridProperty : public ::testing::TestWithParam<int> {};

TEST_P(FoVsGridProperty, EvaluatorMatchesGridSemantics) {
  std::mt19937_64 rng(GetParam() * 611953);
  Database db = SmallDb();
  std::vector<Rational> constants = {Rational(0), Rational(2), Rational(4)};
  // Probe values come from the coarse lattice; quantifiers range over its
  // refinement, so every segment between named elements (constants and
  // probe values) holds >= 4 quantifier-grid points — exact for rank <= 2.
  std::vector<Rational> probe_grid = MakeGrid(constants, 2);
  std::vector<Rational> fine_grid = RefineGrid(probe_grid);
  GridSemantics reference(&db, fine_grid);

  for (int trial = 0; trial < 25; ++trial) {
    int fresh = 0;
    int budget = 2;
    std::vector<std::string> scope;
    Query query;
    query.head = {"x", "y"};
    query.body = RandomFormula(rng, 2, &budget, &scope, &fresh);

    FoEvaluator evaluator(&db);
    Result<GeneralizedRelation> answer = evaluator.Evaluate(query);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();

    for (int probe = 0; probe < 40; ++probe) {
      std::map<std::string, Rational> env;
      env["x"] = probe_grid[rng() % probe_grid.size()];
      env["y"] = probe_grid[rng() % probe_grid.size()];
      bool expected = reference.Holds(*query.body, &env);
      bool got = answer.value().Contains({env["x"], env["y"]});
      ASSERT_EQ(got, expected)
          << query.body->ToString() << " at x=" << env["x"]
          << " y=" << env["y"];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoVsGridProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

class FoVsLinearAgreement : public ::testing::TestWithParam<int> {};

TEST_P(FoVsLinearAgreement, DenseQueriesAgreeAcrossEvaluators) {
  std::mt19937_64 rng(GetParam() * 259001);
  Database db = SmallDb();
  std::vector<Rational> constants = {Rational(0), Rational(2), Rational(4)};
  std::vector<Rational> grid = MakeGrid(constants, 4);

  for (int trial = 0; trial < 12; ++trial) {
    int fresh = 0;
    int budget = 2;
    std::vector<std::string> scope;
    Query query;
    query.head = {"x", "y"};
    query.body = RandomFormula(rng, 2, &budget, &scope, &fresh);

    FoEvaluator dense(&db);
    LinearFoEvaluator linear(&db);
    Result<GeneralizedRelation> dense_out = dense.Evaluate(query);
    Result<LinearRelation> linear_out = linear.Evaluate(query);
    ASSERT_TRUE(dense_out.ok());
    ASSERT_TRUE(linear_out.ok());
    for (int probe = 0; probe < 30; ++probe) {
      std::vector<Rational> point = {grid[rng() % grid.size()],
                                     grid[rng() % grid.size()]};
      ASSERT_EQ(dense_out.value().Contains(point),
                linear_out.value().Contains(point))
          << query.body->ToString() << " at (" << point[0] << ", "
          << point[1] << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FoVsLinearAgreement,
                         ::testing::Values(1, 2, 3));

class SemiNaiveAgreement : public ::testing::TestWithParam<int> {};

// The semi-naive engine against the program's inflationary semantics run
// naively in plain C++: every round fires all four rules against the
// previous round's state and adds what they derive, until nothing changes.
// The EDB is a finite set of integer points, so sets of points carry it.
TEST_P(SemiNaiveAgreement, MatchesNaiveFixpoint) {
  using oracle::Point;
  std::mt19937_64 rng(GetParam() * 104947);
  for (int trial = 0; trial < 8; ++trial) {
    // Random sparse graph EDB.
    int n = 4 + static_cast<int>(rng() % 5);
    std::set<Point> e;
    for (int i = 0; i < 2 * n; ++i) {
      e.insert({Rational(static_cast<int64_t>(rng() % n)),
                Rational(static_cast<int64_t>(rng() % n))});
    }
    const std::set<Point> mark = {{Rational(static_cast<int64_t>(rng() % n))}};
    Database db;
    db.SetRelation("e", GeneralizedRelation::FromPoints(
                            2, std::vector<Point>(e.begin(), e.end())));
    db.SetRelation("mark", GeneralizedRelation::FromPoints(
                               1, std::vector<Point>(mark.begin(), mark.end())));
    DatalogProgram program = DatalogParser::ParseProgram(R"(
      tc(x, y) :- e(x, y).
      tc(x, z) :- tc(x, y), tc(y, z).
      hub(x) :- tc(x, y), tc(y, x).
      lonely(x) :- e(x, y), not mark(x), not hub(x).
    )").value();

    std::set<Point> tc, hub, lonely;
    for (bool changed = true; changed;) {
      std::set<Point> next_tc = tc, next_hub = hub, next_lonely = lonely;
      next_tc.insert(e.begin(), e.end());
      for (const Point& xy : tc) {
        for (const Point& yz : tc) {
          if (xy[1] == yz[0]) next_tc.insert({xy[0], yz[1]});
        }
        if (tc.count({xy[1], xy[0]}) != 0) next_hub.insert({xy[0]});
      }
      for (const Point& xy : e) {
        if (mark.count({xy[0]}) == 0 && hub.count({xy[0]}) == 0) {
          next_lonely.insert({xy[0]});
        }
      }
      changed = next_tc != tc || next_hub != hub || next_lonely != lonely;
      tc = std::move(next_tc);
      hub = std::move(next_hub);
      lonely = std::move(next_lonely);
    }

    DatalogEvaluator evaluator(program, &db);
    Database idb = evaluator.Evaluate().value();
    const std::map<std::string, const std::set<Point>*> expected = {
        {"tc", &tc}, {"hub", &hub}, {"lonely", &lonely}};
    for (const auto& [name, points] : expected) {
      oracle::ExpectMatchesOracle(
          *idb.FindRelation(name),
          {db.FindRelation("e"), db.FindRelation("mark")},
          [points](const Point& w) { return points->count(w) != 0; },
          name + ", trial " + std::to_string(trial));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemiNaiveAgreement,
                         ::testing::Values(1, 2, 3, 4));

TEST(CCalcFoFragment, AgreesWithFoEvaluator) {
  Database db = SmallDb();
  const char* queries[] = {
      "{ (x) | s(x) and x > 1 }",
      "{ (x, y) | e(x, y) and x < y }",
      "{ (x) | not s(x) and x >= 0 and x <= 4 }",
      "{ (y) | exists x (e(x, y)) }",
      "{ (x) | forall y (e(x, y) -> s(y)) }",
  };
  for (const char* text : queries) {
    Query fo_query = FoParser::ParseQuery(text).value();
    CCalcQuery c_query = CCalcParser::ParseQuery(text).value();
    FoEvaluator fo(&db);
    CCalcEvaluator ccalc(&db);
    GeneralizedRelation a = fo.Evaluate(fo_query).value();
    GeneralizedRelation b = ccalc.Evaluate(c_query).value();
    Result<bool> equal = CellDecomposition::SemanticallyEqual(a, b);
    ASSERT_TRUE(equal.ok());
    EXPECT_TRUE(equal.value()) << text;
  }
}

TEST(EndToEnd, TextFormatToQueriesToDatalog) {
  // Load a database from text, query it, run recursion, round-trip it.
  Database db = ParseDatabase(R"(
    relation zone(x) {
      x >= 0 and x <= 2;
      x >= 5 and x <= 8;
    }
    relation hop(a, b) {
      a = 0 and b = 2;
      a = 2 and b = 5;
      a = 5 and b = 8;
    }
  )").value();

  FoEvaluator fo(&db);
  GeneralizedRelation gaps =
      fo.Evaluate(FoParser::ParseQuery(
                      "{ (x) | not zone(x) and x > 0 and x < 8 }")
                      .value())
          .value();
  EXPECT_TRUE(gaps.Contains({Rational(3)}));
  EXPECT_FALSE(gaps.Contains({Rational(1)}));

  DatalogProgram program = DatalogParser::ParseProgram(R"(
    reach(a, b) :- hop(a, b).
    reach(a, c) :- reach(a, b), hop(b, c).
  )").value();
  DatalogEvaluator datalog(program, &db);
  Database idb = datalog.Evaluate().value();
  EXPECT_TRUE(
      idb.FindRelation("reach")->Contains({Rational(0), Rational(8)}));

  // Round-trip through the text format preserves all semantics.
  Database back = ParseDatabase(FormatDatabase(db)).value();
  for (const std::string& name : db.RelationNames()) {
    EXPECT_TRUE(CellDecomposition::SemanticallyEqual(
                    *db.FindRelation(name), *back.FindRelation(name))
                    .value());
  }

  // And the standard encoding preserves query answers order-isomorphically.
  Database encoded = db.Encoded();
  FoEvaluator fo_encoded(&encoded);
  GeneralizedRelation gaps_encoded =
      fo_encoded
          .Evaluate(FoParser::ParseQuery("{ (x) | not zone(x) }").value())
          .value();
  // 3 lies between the encoded constants 1 (=2) and 2 (=5): in a gap.
  EXPECT_TRUE(gaps_encoded.Contains({Rational(3, 2)}));
}

}  // namespace
}  // namespace dodb
