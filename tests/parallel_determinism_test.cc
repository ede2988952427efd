// The parallel engine's determinism contract: canonical outputs of the
// algebra, quantifier elimination, FO evaluation and Datalog(not) fixpoints
// are bit-identical at every thread count (1 = the legacy sequential path).

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/relational_ops.h"
#include "constraints/dense_qe.h"
#include "core/query_guard.h"
#include "core/thread_pool.h"
#include "datalog/datalog_evaluator.h"
#include "datalog/datalog_parser.h"
#include "fo/evaluator.h"
#include "fo/parser.h"
#include "io/database.h"

namespace dodb {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

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

// Canonical printed form: relation text plus tuple/atom counts, enough to
// detect any representation difference, not just semantic drift.
std::string Fingerprint(const GeneralizedRelation& rel) {
  return rel.ToString() + "#" + std::to_string(rel.tuple_count()) + "/" +
         std::to_string(rel.atom_count());
}

TEST(ParallelDeterminismTest, AlgebraOpsAreThreadCountInvariant) {
  GeneralizedRelation a = RandomRelation(3, 9, 5, 11);
  GeneralizedRelation b = RandomRelation(3, 8, 4, 23);

  std::vector<std::string> intersect, complement, difference, join;
  for (int threads : kThreadCounts) {
    EvalThreadsScope scope(threads);
    intersect.push_back(Fingerprint(algebra::Intersect(a, b)));
    complement.push_back(Fingerprint(algebra::ComplementViaDnf(b)));
    difference.push_back(Fingerprint(algebra::Difference(a, b)));
    join.push_back(Fingerprint(algebra::EquiJoin(a, b, {{0, 1}})));
  }
  for (size_t i = 1; i < intersect.size(); ++i) {
    EXPECT_EQ(intersect[0], intersect[i]) << "Intersect, threads index " << i;
    EXPECT_EQ(complement[0], complement[i]) << "Complement";
    EXPECT_EQ(difference[0], difference[i]) << "Difference";
    EXPECT_EQ(join[0], join[i]) << "EquiJoin";
  }
}

TEST(ParallelDeterminismTest, QuantifierEliminationIsThreadCountInvariant) {
  GeneralizedRelation rel = RandomRelation(4, 12, 7, 31);
  std::vector<std::string> eliminated, projected;
  for (int threads : kThreadCounts) {
    EvalThreadsScope scope(threads);
    eliminated.push_back(Fingerprint(EliminateVariable(rel, 1)));
    projected.push_back(Fingerprint(ProjectColumns(rel, {2, 0})));
  }
  for (size_t i = 1; i < eliminated.size(); ++i) {
    EXPECT_EQ(eliminated[0], eliminated[i]);
    EXPECT_EQ(projected[0], projected[i]);
  }
}

Database MakeQueryDatabase() {
  Database db;
  db.SetRelation("r", RandomRelation(2, 6, 4, 7));
  db.SetRelation("s", RandomRelation(2, 5, 4, 17));
  db.SetRelation("u", RandomRelation(1, 4, 3, 27));
  return db;
}

TEST(ParallelDeterminismTest, FoQuerySuiteIsThreadCountInvariant) {
  Database db = MakeQueryDatabase();
  const char* kQueries[] = {
      "{ (x, y) | r(x, y) and s(y, x) }",
      "{ (x) | exists y (r(x, y) and not s(x, y)) }",
      "{ (x, z) | exists y (r(x, y) and s(y, z)) }",
      "{ (x) | forall y (s(x, y) or y <= x) }",
      "{ (x, y) | r(x, y) and not u(x) }",
      "{ (x) | exists y (exists z (r(x, y) and s(y, z) and z != x)) }",
  };
  for (const char* text : kQueries) {
    Query query = FoParser::ParseQuery(text).value();
    std::vector<std::string> outputs;
    for (int threads : kThreadCounts) {
      EvalOptions options;
      options.num_threads = threads;
      FoEvaluator evaluator(&db, options);
      Result<GeneralizedRelation> answer = evaluator.Evaluate(query);
      ASSERT_TRUE(answer.ok()) << text << ": " << answer.status().ToString();
      outputs.push_back(Fingerprint(answer.value()));
    }
    for (size_t i = 1; i < outputs.size(); ++i) {
      EXPECT_EQ(outputs[0], outputs[i])
          << text << " differs between num_threads=" << kThreadCounts[0]
          << " and num_threads=" << kThreadCounts[i];
    }
  }
}

// Transitive closure plus a negation-through-recursion-free parity walk:
// exercises naive round 1, semi-naive delta rounds, and negated IDB atoms
// (which always fire naively).
TEST(ParallelDeterminismTest, DatalogFixpointIsThreadCountInvariant) {
  Database edb;
  edb.SetRelation("e", GeneralizedRelation::FromPoints(
                           2, {{Rational(1), Rational(2)},
                               {Rational(2), Rational(3)},
                               {Rational(3), Rational(4)},
                               {Rational(4), Rational(5)},
                               {Rational(2), Rational(6)},
                               {Rational(6), Rational(7)}}));
  edb.SetRelation("v", GeneralizedRelation::FromPoints(
                           1, {{Rational(1)},
                               {Rational(2)},
                               {Rational(3)},
                               {Rational(4)},
                               {Rational(5)}}));
  DatalogProgram program = DatalogParser::ParseProgram(R"(
    tc(x, y) :- e(x, y).
    tc(x, y) :- tc(x, z), e(z, y).
    between(x, z) :- v(x), v(z), v(y), x < y, y < z.
    succ(x, y) :- v(x), v(y), x < y, not between(x, y).
    smaller(x) :- v(x), v(y), y < x.
    first(x) :- v(x), not smaller(x).
    odd(x) :- first(x).
    even(x) :- succ(y, x), odd(y).
    odd(x) :- succ(y, x), even(y).
  )").value();

  std::vector<std::string> fingerprints;
  std::vector<uint64_t> iteration_counts;
  for (int threads : kThreadCounts) {
    DatalogOptions options;
    options.eval_options.num_threads = threads;
    DatalogEvaluator evaluator(program, &edb, options);
    Result<Database> idb = evaluator.Evaluate();
    ASSERT_TRUE(idb.ok()) << idb.status().ToString();
    std::string combined;
    for (const std::string& name : idb.value().RelationNames()) {
      combined += name + "=" +
                  Fingerprint(*idb.value().FindRelation(name)) + ";";
    }
    fingerprints.push_back(std::move(combined));
    iteration_counts.push_back(evaluator.iterations());
  }
  for (size_t i = 1; i < fingerprints.size(); ++i) {
    EXPECT_EQ(fingerprints[0], fingerprints[i])
        << "IDB differs between num_threads=" << kThreadCounts[0] << " and "
        << kThreadCounts[i];
    EXPECT_EQ(iteration_counts[0], iteration_counts[i]);
  }
  // Spot-check the fixpoint itself so "identical" can't mean "identically
  // wrong". Parity needs stratified semantics (inflationary fires
  // "not smaller" before smaller is populated, seeding odd everywhere).
  DatalogOptions options;
  options.semantics = DatalogSemantics::kStratified;
  options.eval_options.num_threads = 8;
  DatalogEvaluator evaluator(program, &edb, options);
  Database idb = evaluator.Evaluate().value();
  EXPECT_TRUE(idb.FindRelation("tc")->Contains({Rational(1), Rational(7)}));
  EXPECT_FALSE(idb.FindRelation("tc")->Contains({Rational(7), Rational(1)}));
  EXPECT_TRUE(idb.FindRelation("odd")->Contains({Rational(5)}));
  EXPECT_FALSE(idb.FindRelation("odd")->Contains({Rational(4)}));
}

// A guard with generous, never-tripping budgets must not change a single
// bit of any output relative to the unguarded run, at 1 thread and at 8.
TEST(ParallelDeterminismTest, GuardedUntrippedEqualsUnguarded) {
  Database db = MakeQueryDatabase();
  const char* kQueries[] = {
      "{ (x, y) | r(x, y) and s(y, x) }",
      "{ (x) | exists y (r(x, y) and not s(x, y)) }",
      "{ (x, z) | exists y (r(x, y) and s(y, z)) }",
      "{ (x) | forall y (s(x, y) or y <= x) }",
      "{ (x) | exists y (exists z (r(x, y) and s(y, z) and z != x)) }",
  };
  GuardLimits generous;
  generous.deadline_ms = 1000 * 60 * 60;
  generous.max_rel_tuples = uint64_t{1} << 40;
  generous.max_work_tuples = uint64_t{1} << 40;
  generous.max_memory_bytes = uint64_t{1} << 50;
  for (const char* text : kQueries) {
    Query query = FoParser::ParseQuery(text).value();
    for (int threads : {1, 8}) {
      EvalOptions unguarded;
      unguarded.num_threads = threads;
      FoEvaluator plain(&db, unguarded);
      Result<GeneralizedRelation> expected = plain.Evaluate(query);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      EXPECT_EQ(plain.stats().guard_checkpoints, 0u);

      EvalOptions guarded = unguarded;
      guarded.limits = generous;
      FoEvaluator watched(&db, guarded);
      Result<GeneralizedRelation> actual = watched.Evaluate(query);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(Fingerprint(expected.value()), Fingerprint(actual.value()))
          << text << " differs under an untripped guard at num_threads="
          << threads;
      EXPECT_GT(watched.stats().guard_checkpoints, 0u) << text;
      EXPECT_EQ(watched.stats().guard_trip_site, "") << text;
    }
  }
}

// The same contract for the Datalog fixpoint: IDB and round count are
// bit-identical with an untripped guard, at 1 thread and at 8. The last
// input arms a fault that never fires on a program whose semi-naive rounds
// fire one rule job per `tc` occurrence, so at 8 threads the nested
// evaluators of concurrent jobs all resolve the one armed guard while
// their siblings checkpoint it (a data race under TSan unless only the
// first arm writes the fault fields).
TEST(ParallelDeterminismTest, GuardedUntrippedDatalogEqualsUnguarded) {
  Database edb;
  edb.SetRelation("e", GeneralizedRelation::FromPoints(
                           2, {{Rational(1), Rational(2)},
                               {Rational(2), Rational(3)},
                               {Rational(3), Rational(4)},
                               {Rational(2), Rational(6)},
                               {Rational(6), Rational(7)}}));
  const char* kLinearTc = R"(
    tc(x, y) :- e(x, y).
    tc(x, y) :- tc(x, z), e(z, y).
  )";
  const char* kDoublingTc = R"(
    tc(x, y) :- e(x, y).
    tc(x, y) :- tc(x, z), tc(z, y).
  )";
  struct Input {
    const char* program;
    int threads;
    const char* fault_spec;
  };
  for (const Input& input : {Input{kLinearTc, 1, ""}, Input{kLinearTc, 8, ""},
                             Input{kDoublingTc, 8, "closure-sweep:1000000000"}}) {
    DatalogProgram program = DatalogParser::ParseProgram(input.program).value();
    DatalogOptions unguarded;
    unguarded.eval_options.num_threads = input.threads;
    DatalogEvaluator plain(program, &edb, unguarded);
    Result<Database> expected = plain.Evaluate();
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    GuardLimits generous;
    generous.deadline_ms = 1000 * 60 * 60;
    generous.max_work_tuples = uint64_t{1} << 40;
    QueryGuard guard(generous);
    DatalogOptions guarded = unguarded;
    guarded.eval_options.guard = &guard;
    guarded.eval_options.fault_spec = input.fault_spec;
    DatalogEvaluator watched(program, &edb, guarded);
    Result<Database> actual = watched.Evaluate();
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_FALSE(guard.tripped());
    EXPECT_EQ(plain.iterations(), watched.iterations());
    if (*input.fault_spec != '\0') {
      // More rule jobs than rounds: some round fired several at once.
      EXPECT_GT(guard.site_checkpoints(GuardSite::kDatalogRule),
                watched.iterations());
    }
    for (const std::string& name : expected.value().RelationNames()) {
      EXPECT_EQ(Fingerprint(*expected.value().FindRelation(name)),
                Fingerprint(*actual.value().FindRelation(name)))
          << name << " differs under an untripped guard at num_threads="
          << input.threads << " with fault spec '" << input.fault_spec
          << "'";
    }
  }
}

TEST(ParallelDeterminismTest, StratifiedDatalogIsThreadCountInvariant) {
  Database edb;
  edb.SetRelation("v", GeneralizedRelation::FromPoints(
                           1, {{Rational(1)},
                               {Rational(2)},
                               {Rational(3)},
                               {Rational(4)}}));
  DatalogProgram program = DatalogParser::ParseProgram(R"(
    smaller(x) :- v(x), v(y), y < x.
    first(x) :- v(x), not smaller(x).
    next(x, y) :- v(x), v(y), x < y.
  )").value();
  std::vector<std::string> fingerprints;
  for (int threads : kThreadCounts) {
    DatalogOptions options;
    options.semantics = DatalogSemantics::kStratified;
    options.eval_options.num_threads = threads;
    DatalogEvaluator evaluator(program, &edb, options);
    Result<Database> idb = evaluator.Evaluate();
    ASSERT_TRUE(idb.ok()) << idb.status().ToString();
    std::string combined;
    for (const std::string& name : idb.value().RelationNames()) {
      combined += name + "=" +
                  Fingerprint(*idb.value().FindRelation(name)) + ";";
    }
    fingerprints.push_back(std::move(combined));
  }
  for (size_t i = 1; i < fingerprints.size(); ++i) {
    EXPECT_EQ(fingerprints[0], fingerprints[i]);
  }
}

}  // namespace
}  // namespace dodb
