// Robustness: the parsers and evaluators must fail *gracefully* (Status,
// never a crash) on malformed or adversarial input, the RelToValue
// neighbor fast path must stay exact, and the query guard must abort a
// runaway query from every checkpoint site with one clean Status.

#include <chrono>
#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "complex/ccalc_evaluator.h"
#include "complex/ccalc_parser.h"
#include "constraints/order_graph.h"
#include "core/query_guard.h"
#include "datalog/datalog_evaluator.h"
#include "datalog/datalog_parser.h"
#include "fo/cell_evaluator.h"
#include "fo/evaluator.h"
#include "fo/linear_evaluator.h"
#include "fo/parser.h"
#include "io/database.h"
#include "io/text_format.h"

namespace dodb {
namespace {

// --- Parser fuzzing ---------------------------------------------------------

std::string RandomTokenSoup(std::mt19937_64& rng, int length) {
  static const char* kPieces[] = {
      "x",   "y",    "R",     "(",    ")",  "{",   "}",   ",",  "|",
      "<",   "<=",   "=",     "!=",   ">",  ">=",  "and", "or", "not",
      "exists", "forall", "true", "false", "in",  "set", ":",  ";",
      ".",   ":-",   "+",     "-",    "*",  "1",   "3/4", "2.5", "relation",
  };
  std::string out;
  for (int i = 0; i < length; ++i) {
    out += kPieces[rng() % (sizeof(kPieces) / sizeof(kPieces[0]))];
    out += ' ';
  }
  return out;
}

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, FoParserNeverCrashes) {
  std::mt19937_64 rng(GetParam() * 823117);
  for (int trial = 0; trial < 300; ++trial) {
    std::string soup = RandomTokenSoup(rng, 1 + static_cast<int>(rng() % 20));
    Result<Query> query = FoParser::ParseQuery(soup);
    if (query.ok()) {
      // Whatever parsed must print and re-parse.
      Result<Query> again = FoParser::ParseQuery(query.value().ToString());
      EXPECT_TRUE(again.ok()) << soup << " -> " << query.value().ToString();
    }
  }
}

TEST_P(ParserFuzz, DatalogParserNeverCrashes) {
  std::mt19937_64 rng(GetParam() * 479001599ull);
  for (int trial = 0; trial < 300; ++trial) {
    std::string soup = RandomTokenSoup(rng, 1 + static_cast<int>(rng() % 20));
    Result<DatalogProgram> program = DatalogParser::ParseProgram(soup);
    if (program.ok()) {
      Result<DatalogProgram> again =
          DatalogParser::ParseProgram(program.value().ToString());
      EXPECT_TRUE(again.ok()) << soup;
    }
  }
}

TEST_P(ParserFuzz, CCalcParserNeverCrashes) {
  std::mt19937_64 rng(GetParam() * 15787);
  for (int trial = 0; trial < 300; ++trial) {
    std::string soup = RandomTokenSoup(rng, 1 + static_cast<int>(rng() % 20));
    Result<CCalcQuery> query = CCalcParser::ParseQuery(soup);
    if (query.ok() && query.value().body != nullptr) {
      (void)query.value().ToString();
    }
  }
}

TEST_P(ParserFuzz, TextFormatNeverCrashes) {
  std::mt19937_64 rng(GetParam() * 60013);
  for (int trial = 0; trial < 300; ++trial) {
    std::string soup = RandomTokenSoup(rng, 1 + static_cast<int>(rng() % 25));
    Result<Database> db = ParseDatabase(soup);
    if (db.ok()) {
      Result<Database> again = ParseDatabase(FormatDatabase(db.value()));
      EXPECT_TRUE(again.ok()) << soup;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(1, 2, 3));

TEST(ParserEdgeCases, DeepNestingDoesNotOverflow) {
  // 200 nested parentheses / negations parse fine (recursive descent is
  // depth-bounded by input length, which is fine at realistic sizes).
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "not (";
  deep += "x < 1";
  for (int i = 0; i < 200; ++i) deep += ")";
  Result<FormulaPtr> f = FoParser::ParseFormula(deep);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value()->kind, FormulaKind::kNot);
}

TEST(ParserEdgeCases, EmptyAndWhitespaceInputs) {
  EXPECT_FALSE(FoParser::ParseQuery("").ok());
  EXPECT_FALSE(FoParser::ParseQuery("   \n\t ").ok());
  EXPECT_FALSE(FoParser::ParseQuery("# only a comment").ok());
  Result<DatalogProgram> empty = DatalogParser::ParseProgram("");
  ASSERT_TRUE(empty.ok());  // the empty program is a program
  EXPECT_TRUE(empty.value().rules.empty());
  Result<Database> empty_db = ParseDatabase("# nothing\n");
  ASSERT_TRUE(empty_db.ok());
  EXPECT_EQ(empty_db.value().relation_count(), 0u);
}

// --- RelToValue neighbor fast path ------------------------------------------

TEST(RelToValueTest, ExactAgainstAllConstantsDefinition) {
  // The closed network: 1 <= x <= 5, x != 3, plus far-away constants that
  // the fast path must still account for through closure monotonicity.
  OrderGraph g(1);
  g.AddAtom(DenseAtom(Term::Var(0), RelOp::kGe, Term::Const(Rational(1))));
  g.AddAtom(DenseAtom(Term::Var(0), RelOp::kLe, Term::Const(Rational(5))));
  g.AddAtom(DenseAtom(Term::Var(0), RelOp::kNeq, Term::Const(Rational(3))));
  g.AddAtom(DenseAtom(Term::Const(Rational(-10)), RelOp::kLt,
                      Term::Const(Rational(20))));  // extra scale constants
  ASSERT_TRUE(g.IsSatisfiable());

  // Probe values inside, outside, between and equal to scale constants.
  struct Case {
    Rational value;
    PaRel expected;
  };
  const Case cases[] = {
      {Rational(-10), kPaGt},        // x >= 1 > -10
      {Rational(0), kPaGt},          // between -10 and 1
      {Rational(1), kPaGe},          // x >= 1, can be equal
      {Rational(2), kPaAll},         // inside the feasible interval
      {Rational(3), kPaNeq},         // explicitly excluded point
      {Rational(5), kPaLe},          // x <= 5
      {Rational(7), kPaLt},          // between 5 and 20
      {Rational(20), kPaLt},
      {Rational(100), kPaLt},        // beyond every constant
  };
  for (const Case& c : cases) {
    EXPECT_EQ(g.RelToValue(0, c.value), c.expected)
        << "value " << c.value.ToString();
  }
}

TEST(RelToValueTest, PinnedVariable) {
  OrderGraph g(1);
  g.AddAtom(DenseAtom(Term::Var(0), RelOp::kEq, Term::Const(Rational(4))));
  EXPECT_EQ(g.RelToValue(0, Rational(4)), kPaEq);
  EXPECT_EQ(g.RelToValue(0, Rational(3)), kPaGt);
  EXPECT_EQ(g.RelToValue(0, Rational(9, 2)), kPaLt);
}

TEST(RelToValueTest, NoConstantsMeansNoInformation) {
  OrderGraph g(2);
  g.AddAtom(DenseAtom(Term::Var(0), RelOp::kLt, Term::Var(1)));
  EXPECT_EQ(g.RelToValue(0, Rational(7)), kPaAll);
}

// Property: the neighbor fast path agrees with the brute-force definition
// (intersecting over every scale constant) on random networks.
class RelToValueProperty : public ::testing::TestWithParam<int> {};

TEST_P(RelToValueProperty, NeighborPathMatchesFullIntersection) {
  std::mt19937_64 rng(GetParam() * 86028121);
  const RelOp kOps[] = {RelOp::kLt, RelOp::kLe, RelOp::kEq,
                        RelOp::kNeq, RelOp::kGe, RelOp::kGt};
  for (int trial = 0; trial < 150; ++trial) {
    OrderGraph g(2);
    std::vector<Rational> scale;
    int atoms = 1 + static_cast<int>(rng() % 5);
    for (int i = 0; i < atoms; ++i) {
      Rational c(static_cast<int64_t>(rng() % 9) - 4);
      scale.push_back(c);
      Term lhs = Term::Var(static_cast<int>(rng() % 2));
      Term rhs = (rng() % 2 == 0) ? Term::Const(c)
                                  : Term::Var(static_cast<int>(rng() % 2));
      g.AddAtom(DenseAtom(lhs, kOps[rng() % 6], rhs));
    }
    if (!g.IsSatisfiable()) continue;
    for (int probe = 0; probe < 10; ++probe) {
      Rational value(static_cast<int64_t>(rng() % 21) - 10, 2);
      PaRel fast = g.RelToValue(0, value);
      // Brute-force reference: intersect over every scale constant.
      PaRel reference = kPaAll;
      for (const Rational& c : scale) {
        int node = -1;
        for (int n = 0; n < g.num_nodes(); ++n) {
          if (g.node_term(n).is_const() && g.node_term(n).constant() == c) {
            node = n;
            break;
          }
        }
        if (node < 0) continue;
        int cmp = c.Compare(value);
        PaRel c_to_value = cmp < 0 ? kPaLt : (cmp == 0 ? kPaEq : kPaGt);
        reference &= PaCompose(g.RelBetween(0, node), c_to_value);
      }
      EXPECT_EQ(fast, reference) << "value " << value.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelToValueProperty,
                         ::testing::Values(1, 2, 3, 4));

// --- Query guard: fault injection and abort paths ---------------------------

// Sanitizer builds run the engine several times slower; widen the wall-clock
// assertions there so the abort-latency bounds only bind in ordinary builds.
#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr int64_t kTimingSlack = 10;
#else
constexpr int64_t kTimingSlack = 1;
#endif

// Two 64-tuple point relations with distinct first-column values: enough
// tuples to shard (>= RelationShards::kMinTuples, distinct lower bounds)
// and 64*64 = 4096 candidate pairs >= kShardMinPairs, so their Intersect
// takes the sharded join path. They agree exactly where 7i = 5i (mod 64).
Database MakeShardJoinDatabase() {
  std::vector<std::vector<Rational>> r_pts, s_pts;
  for (int i = 0; i < 64; ++i) {
    r_pts.push_back({Rational(i), Rational((i * 7) % 64)});
    s_pts.push_back({Rational(i), Rational((i * 5) % 64)});
  }
  Database db;
  db.SetRelation("r", GeneralizedRelation::FromPoints(2, r_pts));
  db.SetRelation("s", GeneralizedRelation::FromPoints(2, s_pts));
  return db;
}

Database MakeEdgeDatabase() {
  Database db;
  db.SetRelation("edge", GeneralizedRelation::FromPoints(
                             2, {{Rational(1), Rational(2)},
                                 {Rational(2), Rational(3)},
                                 {Rational(3), Rational(4)},
                                 {Rational(4), Rational(1)}}));
  return db;
}

std::string DbFingerprint(const Database& db) {
  std::string out;
  for (const std::string& name : db.RelationNames()) {
    const GeneralizedRelation* rel = db.FindRelation(name);
    out += name + "=" + rel->ToString() + "#" +
           std::to_string(rel->tuple_count()) + ";";
  }
  return out;
}

// A workload run under a guard: explicit guard (may be null) plus a fault
// spec, returning the evaluation's Status.
using GuardRun = std::function<Status(QueryGuard*, const std::string&)>;

// Every checkpoint site, exercised by a workload that provably reaches it
// (asserted by the coverage probe below). Tripping the first checkpoint of
// each site must surface exactly one clean ResourceExhausted — never a
// crash, never a mutated database.
TEST(GuardFaultInjectionTest, EverySiteTripsOnceCleanly) {
  Database join_db = MakeShardJoinDatabase();
  Database edge_db = MakeEdgeDatabase();

  auto fo_run = [&join_db](const char* text) {
    return GuardRun(
        [&join_db, text](QueryGuard* guard, const std::string& fault) {
          EvalOptions options;
          options.guard = guard;
          options.fault_spec = fault;
          FoEvaluator evaluator(&join_db, options);
          return evaluator.Evaluate(FoParser::ParseQuery(text).value())
              .status();
        });
  };
  GuardRun linear_run = [&edge_db](QueryGuard* guard,
                                   const std::string& fault) {
    EvalOptions options;
    options.guard = guard;
    options.fault_spec = fault;
    LinearFoEvaluator evaluator(&edge_db, options);
    return evaluator
        .Evaluate(
            FoParser::ParseQuery("{ (x, y) | edge(x, y) and x < y }").value())
        .status();
  };
  GuardRun cell_run = [&edge_db](QueryGuard* guard, const std::string& fault) {
    CellEvalOptions options;
    options.guard = guard;
    options.fault_spec = fault;
    CellFoEvaluator evaluator(&edge_db, options);
    return evaluator
        .Evaluate(
            FoParser::ParseQuery("{ (x) | exists y (edge(x, y)) }").value())
        .status();
  };
  GuardRun datalog_run = [&edge_db](QueryGuard* guard,
                                    const std::string& fault) {
    DatalogOptions options;
    options.eval_options.guard = guard;
    options.eval_options.fault_spec = fault;
    DatalogProgram program =
        DatalogParser::ParseProgram("tc(x, y) :- edge(x, y).\n"
                                    "tc(x, y) :- tc(x, z), edge(z, y).\n")
            .value();
    DatalogEvaluator evaluator(std::move(program), &edge_db, options);
    return evaluator.Evaluate().status();
  };
  GuardRun ccalc_run = [&edge_db](QueryGuard* guard,
                                  const std::string& fault) {
    CCalcOptions options;
    options.eval_options.guard = guard;
    options.eval_options.fault_spec = fault;
    CCalcEvaluator evaluator(&edge_db, options);
    CCalcQuery query =
        CCalcParser::ParseQuery("{ (u, v) | (u, v) in fix P (x, y | "
                                "edge(x, y) or exists z (P(x, z) and "
                                "edge(z, y))) }")
            .value();
    return evaluator.Evaluate(query).status();
  };

  const char* kJoinQuery = "{ (x, y) | r(x, y) and s(x, y) }";
  const char* kExistsQuery = "{ (x) | exists y (r(x, y) and s(x, y)) }";
  struct SweepCase {
    GuardSite site;
    GuardRun run;
  };
  const SweepCase cases[] = {
      {GuardSite::kAlgebraMaterialize, fo_run(kJoinQuery)},
      {GuardSite::kShardJoin, fo_run(kJoinQuery)},
      {GuardSite::kClosureSweep, fo_run(kJoinQuery)},
      {GuardSite::kQuantifierElim, fo_run(kExistsQuery)},
      {GuardSite::kFoStep, fo_run(kJoinQuery)},
      {GuardSite::kLinearFo, linear_run},
      {GuardSite::kCellEnumerate, cell_run},
      {GuardSite::kDatalogRound, datalog_run},
      {GuardSite::kDatalogRule, datalog_run},
      {GuardSite::kCCalcFixpoint, ccalc_run},
  };
  // Query-evaluation sites only; the storage-engine sites from
  // kFirstStorageGuardSite on are swept by storage_test's crash sweep.
  ASSERT_EQ(std::size(cases), static_cast<size_t>(kFirstStorageGuardSite));

  const std::string join_before = DbFingerprint(join_db);
  const std::string edge_before = DbFingerprint(edge_db);

  for (const SweepCase& c : cases) {
    const std::string name = GuardSiteName(c.site);
    // Coverage probe: a limitless guard must observe the site at least once
    // and the run must succeed untripped — otherwise the fault below would
    // pass vacuously.
    QueryGuard probe;
    Status ok_status = c.run(&probe, "");
    ASSERT_TRUE(ok_status.ok()) << name << ": " << ok_status.ToString();
    EXPECT_FALSE(probe.tripped()) << name;
    ASSERT_GT(probe.site_checkpoints(c.site), 0u)
        << "workload never reaches checkpoint site " << name;

    Status tripped = c.run(nullptr, name + ":1");
    ASSERT_FALSE(tripped.ok()) << name << " fault did not surface";
    EXPECT_EQ(tripped.code(), StatusCode::kResourceExhausted) << name;
    EXPECT_NE(tripped.message().find("injected fault"), std::string::npos)
        << name << ": " << tripped.ToString();
    EXPECT_NE(tripped.message().find(name), std::string::npos)
        << tripped.ToString();
    // No partial effects: the input databases are untouched by the abort.
    EXPECT_EQ(DbFingerprint(join_db), join_before) << name;
    EXPECT_EQ(DbFingerprint(edge_db), edge_before) << name;
  }
}

// The acceptance case: a cross product far over budget must abort within
// one checkpoint stride — quickly, and with the *same* Status at every
// thread count (trip messages depend only on the configured limit).
TEST(GuardRobustnessTest, PathologicalCrossProductAbortsFast) {
  Database db;
  std::vector<std::vector<Rational>> pa, pb;
  for (int i = 0; i < 900; ++i) {
    pa.push_back({Rational(i)});
    pb.push_back({Rational(10000 + i)});
  }
  db.SetRelation("a", GeneralizedRelation::FromPoints(1, pa));
  db.SetRelation("b", GeneralizedRelation::FromPoints(1, pb));
  const Query query =
      FoParser::ParseQuery("{ (x, y) | a(x) and b(y) }").value();

  std::vector<std::string> budget_status, deadline_status;
  for (int threads : {1, 8}) {
    {
      EvalOptions options;
      options.num_threads = threads;
      options.limits.max_work_tuples = 4000;
      FoEvaluator evaluator(&db, options);
      auto start = std::chrono::steady_clock::now();
      Result<GeneralizedRelation> answer = evaluator.Evaluate(query);
      int64_t elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      ASSERT_FALSE(answer.ok()) << "threads=" << threads;
      EXPECT_EQ(answer.status().code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(answer.status().message(),
                "query exceeded its work budget of 4000 candidate tuples");
      EXPECT_LT(elapsed_ms, 100 * kTimingSlack) << "threads=" << threads;
      EXPECT_FALSE(evaluator.stats().guard_trip_site.empty());
      EXPECT_GT(evaluator.stats().guard_checkpoints, 0u);
      budget_status.push_back(answer.status().ToString());
    }
    {
      EvalOptions options;
      options.num_threads = threads;
      options.limits.deadline_ms = 20;
      FoEvaluator evaluator(&db, options);
      auto start = std::chrono::steady_clock::now();
      Result<GeneralizedRelation> answer = evaluator.Evaluate(query);
      int64_t elapsed_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - start)
              .count();
      ASSERT_FALSE(answer.ok()) << "threads=" << threads;
      EXPECT_EQ(answer.status().code(), StatusCode::kDeadlineExceeded);
      EXPECT_EQ(answer.status().message(),
                "query exceeded its deadline of 20 ms");
      EXPECT_LT(elapsed_ms, 500 * kTimingSlack) << "threads=" << threads;
      deadline_status.push_back(answer.status().ToString());
    }
  }
  EXPECT_EQ(budget_status[0], budget_status[1]);
  EXPECT_EQ(deadline_status[0], deadline_status[1]);
}

TEST(GuardRobustnessTest, TripSiteIsReportedInStats) {
  Database db = MakeEdgeDatabase();
  EvalOptions options;
  options.fault_spec = "fo-step:1";
  FoEvaluator evaluator(&db, options);
  Result<GeneralizedRelation> answer = evaluator.Evaluate(
      FoParser::ParseQuery("{ (x, y) | edge(x, y) }").value());
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(evaluator.stats().guard_trip_site, "fo-step");
  EXPECT_GT(evaluator.stats().guard_checkpoints, 0u);
}

TEST(GuardRobustnessTest, MalformedFaultSpecIsAnError) {
  Database db = MakeEdgeDatabase();
  const Query query =
      FoParser::ParseQuery("{ (x, y) | edge(x, y) }").value();
  for (const char* spec : {"no-such-site:1", "fo-step:zero", "fo-step:",
                           "fo-step:0", ":", "fo-step:1:2"}) {
    EvalOptions options;
    options.fault_spec = spec;
    FoEvaluator evaluator(&db, options);
    Result<GeneralizedRelation> answer = evaluator.Evaluate(query);
    ASSERT_FALSE(answer.ok()) << spec;
    EXPECT_EQ(answer.status().code(), StatusCode::kInvalidArgument) << spec;
  }
}

// max_iterations budgets a query's rounds: the TC of a 4-cycle needs
// several rounds, so a budget of 1 must abort cleanly.
TEST(GuardRobustnessTest, DatalogRoundBudgetAborts) {
  Database edb = MakeEdgeDatabase();
  DatalogOptions options;
  options.max_iterations = 1;
  DatalogProgram program =
      DatalogParser::ParseProgram("tc(x, y) :- edge(x, y).\n"
                                  "tc(x, y) :- tc(x, z), edge(z, y).\n")
          .value();
  DatalogEvaluator evaluator(std::move(program), &edb, options);
  Result<Database> out = evaluator.Evaluate();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(out.status().message().find("round budget"), std::string::npos)
      << out.status().ToString();
}

}  // namespace
}  // namespace dodb
