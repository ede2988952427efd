// Sharded relation storage: quantile build, incremental maintenance under
// insert/erase, the closure memo, and the differential contract — every
// operation is structurally identical at 1 and 8 threads and equal to an
// oracle outside the engine (the operators' set-theoretic definitions at
// every cell witness, or a closed-form answer), with relations sized so the
// shard-pair probes and the memo both engage.

#include "constraints/relation_shards.h"

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/relational_ops.h"
#include "bench/workloads.h"
#include "constraints/closure_cache.h"
#include "constraints/eval_counters.h"
#include "constraints/relation_index.h"
#include "core/thread_pool.h"
#include "datalog/datalog_evaluator.h"
#include "datalog/datalog_parser.h"
#include "fo/evaluator.h"
#include "io/database.h"
#include "oracle.h"

namespace dodb {
namespace {

DenseAtom VarConst(int var, RelOp op, int64_t value) {
  return DenseAtom(Term::Var(var), op, Term::Const(Rational(value)));
}

std::vector<TupleSignature> SignaturesOf(const GeneralizedRelation& rel) {
  std::vector<TupleSignature> signatures;
  signatures.reserve(rel.tuple_count());
  for (const GeneralizedTuple& tuple : rel.tuples()) {
    signatures.push_back(tuple.CachedSignature());
  }
  return signatures;
}

std::string Fingerprint(const GeneralizedRelation& rel) {
  return rel.ToString() + "#" + std::to_string(rel.tuple_count()) + "/" +
         std::to_string(rel.atom_count());
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
                     ? Term::Const(Rational(static_cast<int64_t>(rng() % 32)))
                     : Term::Var(static_cast<int>(rng() % arity));
      tuple.AddAtom(DenseAtom(lhs, kOps[rng() % 5], rhs));
    }
    rel.AddTuple(std::move(tuple));
  }
  return rel;
}

// Transitive closure of bench::TwoPathGraph(n): i -> j for i < j on the same
// path.
GeneralizedRelation TwoPathReach(int n) {
  std::vector<std::vector<Rational>> reach;
  for (int64_t base : {0, 1000}) {
    for (int64_t i = 1; i <= n; ++i) {
      for (int64_t j = i + 1; j <= n; ++j) reach.push_back({base + i, base + j});
    }
  }
  return GeneralizedRelation::FromPoints(2, reach);
}

TEST(RelationShardsTest, SmallRelationStaysEffectivelyUnsharded) {
  GeneralizedRelation rel = bench::RandomIntervals(8, 0, 3);
  std::vector<TupleSignature> signatures = SignaturesOf(rel);
  RelationShards shards(signatures);
  EXPECT_EQ(shards.shard_count(), 1u);
  EXPECT_EQ(shards.tuple_count(), signatures.size());
  EXPECT_TRUE(shards.SoundFor(signatures));
}

TEST(RelationShardsTest, QuantileBuildBalancesAndCoversMembers) {
  GeneralizedRelation rel = bench::RandomIntervals(64, 0, 5);
  ASSERT_GE(rel.tuple_count(), RelationShards::kMinTuples);
  std::vector<TupleSignature> signatures = SignaturesOf(rel);
  RelationShards shards(signatures);
  EXPECT_GT(shards.shard_count(), 1u);
  EXPECT_LE(shards.shard_count(), RelationShards::kMaxShards);
  EXPECT_TRUE(shards.SoundFor(signatures));
  // Member lists partition the position range, each ascending.
  size_t total = 0;
  for (uint32_t s = 0; s < shards.shard_count(); ++s) {
    const std::vector<size_t>& members = shards.Members(s);
    EXPECT_EQ(members.size(), shards.stats(s).size);
    for (size_t k = 1; k < members.size(); ++k) {
      EXPECT_LT(members[k - 1], members[k]);
    }
    total += members.size();
  }
  EXPECT_EQ(total, signatures.size());
}

TEST(RelationShardsTest, InsertEraseStaysSoundAndTriggersRebuild) {
  GeneralizedRelation rel = bench::RandomIntervals(40, 0, 9);
  std::vector<TupleSignature> signatures = SignaturesOf(rel);
  RelationShards shards(signatures);
  ASSERT_GT(shards.shard_count(), 1u);
  std::mt19937_64 rng(7);
  // Interleaved inserts and erases, mirrored into the signature vector.
  for (int step = 0; step < 50; ++step) {
    if (rng() % 3 != 0 || signatures.empty()) {
      GeneralizedTuple tuple(1);
      int64_t lo = static_cast<int64_t>(rng() % 160);
      tuple.AddAtom(VarConst(0, RelOp::kGe, lo));
      tuple.AddAtom(VarConst(0, RelOp::kLe, lo + 3));
      GeneralizedTuple canonical = tuple.Canonical();
      size_t pos = rng() % (signatures.size() + 1);
      signatures.insert(signatures.begin() + pos,
                        canonical.CachedSignature());
      shards.InsertAt(pos, signatures[pos]);
    } else {
      size_t pos = rng() % signatures.size();
      shards.EraseAt(pos);
      signatures.erase(signatures.begin() + pos);
    }
    ASSERT_TRUE(shards.SoundFor(signatures)) << "step " << step;
  }
  // Keep inserting until the doubling threshold trips.
  while (!shards.NeedsRebuild()) {
    GeneralizedTuple tuple(1);
    tuple.AddAtom(VarConst(0, RelOp::kGe, 0));
    GeneralizedTuple canonical = tuple.Canonical();
    signatures.push_back(canonical.CachedSignature());
    shards.InsertAt(signatures.size() - 1, signatures.back());
  }
  RelationShards rebuilt(signatures);
  EXPECT_TRUE(rebuilt.SoundFor(signatures));
}

TEST(RelationShardsTest, CopyCarriesAssignmentAndRebuildsCaches) {
  GeneralizedRelation rel = bench::RandomIntervals(48, 0, 11);
  std::vector<TupleSignature> signatures = SignaturesOf(rel);
  RelationShards shards(signatures);
  shards.Members(0);  // fault in the lazy caches before copying
  RelationShards copy(shards);
  EXPECT_EQ(copy.shard_count(), shards.shard_count());
  EXPECT_TRUE(copy.SoundFor(signatures));
  for (size_t pos = 0; pos < signatures.size(); ++pos) {
    EXPECT_EQ(copy.shard_of(pos), shards.shard_of(pos));
  }
}

TEST(RelationIndexShardTest, IndexExposesLazyShardsAndMaintainsThem) {
  GeneralizedRelation rel = bench::RandomIntervals(64, 0, 13);
  const RelationShards* shards = rel.Index().Shards();
  ASSERT_NE(shards, nullptr);
  EXPECT_GT(shards->shard_count(), 1u);
  EXPECT_EQ(shards->tuple_count(), rel.tuple_count());
  // Incremental maintenance: inserts keep the partition position-parallel.
  std::mt19937_64 rng(21);
  for (int step = 0; step < 24; ++step) {
    GeneralizedTuple tuple(1);
    int64_t lo = static_cast<int64_t>(rng() % 250);
    tuple.AddAtom(VarConst(0, RelOp::kGe, lo));
    tuple.AddAtom(VarConst(0, RelOp::kLt, lo + 2));
    rel.AddTuple(std::move(tuple));
    ASSERT_TRUE(rel.Index().MatchesTuples(rel.tuples())) << "step " << step;
    const RelationShards* current = rel.Index().Shards();
    ASSERT_NE(current, nullptr);
    EXPECT_EQ(current->tuple_count(), rel.tuple_count()) << "step " << step;
  }
}

TEST(ClosureCacheTest, MemoizedCanonicalMatchesDirectComputation) {
  ClosureCache memo;
  GeneralizedTuple tuple(2);
  tuple.AddAtom(DenseAtom(Term::Var(0), RelOp::kLt, Term::Var(1)));
  tuple.AddAtom(VarConst(1, RelOp::kLe, 3));
  std::optional<GeneralizedTuple> direct = tuple.CanonicalIfSatisfiable();
  std::optional<GeneralizedTuple> first = memo.CanonicalIfSatisfiable(tuple);
  std::optional<GeneralizedTuple> second = memo.CanonicalIfSatisfiable(tuple);
  ASSERT_TRUE(direct.has_value());
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(direct->ToString(), first->ToString());
  EXPECT_EQ(direct->ToString(), second->ToString());
  EXPECT_EQ(memo.size(), 1u);
  // Unsatisfiable tuples memoize to nullopt, not to a stale canonical.
  GeneralizedTuple contradiction(1);
  contradiction.AddAtom(VarConst(0, RelOp::kLt, 0));
  contradiction.AddAtom(VarConst(0, RelOp::kGt, 0));
  EXPECT_FALSE(memo.CanonicalIfSatisfiable(contradiction).has_value());
  EXPECT_FALSE(memo.CanonicalIfSatisfiable(contradiction).has_value());
  EXPECT_EQ(memo.size(), 2u);
}

// x0 >= 5 and x0 > 2 share one DenseAtom::Hash, so a memo keyed on that
// hash serves the first list's canonical form for the second.
TEST(ClosureCacheTest, AtomListsWithEqualAtomHashesKeepTheirOwnForms) {
  GeneralizedTuple at_least_five(1);
  at_least_five.AddAtom(VarConst(0, RelOp::kGe, 5));
  GeneralizedTuple above_two(1);
  above_two.AddAtom(VarConst(0, RelOp::kGt, 2));
  ClosureCache memo;
  EXPECT_EQ(memo.CanonicalIfSatisfiable(at_least_five)->ToString(),
            "x0 >= 5");
  EXPECT_EQ(memo.CanonicalIfSatisfiable(above_two)->ToString(), "x0 > 2");
  EXPECT_EQ(memo.size(), 2u);
}

TEST(ClosureCacheTest, EverySmallAtomIsServedItsOwnCanonicalForm) {
  // The 252 atoms x{0,1,2} op c with c in 0..13 fold to only 217 distinct
  // DenseAtom::Hash values; one shared memo must keep all 252 apart.
  const RelOp kOps[] = {RelOp::kLt, RelOp::kLe, RelOp::kEq,
                        RelOp::kNeq, RelOp::kGe, RelOp::kGt};
  ClosureCache memo;
  for (int var = 0; var < 3; ++var) {
    for (RelOp op : kOps) {
      for (int64_t c = 0; c < 14; ++c) {
        GeneralizedTuple tuple(3);
        tuple.AddAtom(VarConst(var, op, c));
        std::optional<GeneralizedTuple> served =
            memo.CanonicalIfSatisfiable(tuple);
        ASSERT_TRUE(served.has_value()) << tuple.ToString();
        EXPECT_EQ(served->ToString(), tuple.Canonical().ToString());
      }
    }
  }
  EXPECT_EQ(memo.size(), 252u);
}

// Every algebra result is structurally identical at 1 and 8 threads, and
// the results small enough for a cell sweep equal their definitions.
// Relations are sized past kMinTuples/kShardMinPairs so the sharded kernel
// engages (verified by the counter test below).
TEST(ShardDifferentialTest, AlgebraMatchesOracleAcrossThreads) {
  GeneralizedRelation a = bench::RandomIntervals(64, 0, 5);
  GeneralizedRelation b = bench::RandomIntervals(64, 0, 6);
  GeneralizedRelation ra = bench::RandomRectangles(48, 0, 7);
  GeneralizedRelation rb = bench::RandomRectangles(48, 0, 8);
  std::vector<std::string> reference;
  for (int threads : {1, 8}) {
    EvalThreadsScope scope(threads);
    GeneralizedRelation intervals_met = algebra::Intersect(a, b);
    GeneralizedRelation intervals_diff = algebra::Difference(a, b);
    GeneralizedRelation boxes_met = algebra::Intersect(ra, rb);
    std::vector<std::string> got;
    got.push_back(Fingerprint(intervals_met));
    got.push_back(Fingerprint(boxes_met));
    got.push_back(Fingerprint(algebra::EquiJoin(ra, rb, {{1, 0}})));
    got.push_back(Fingerprint(intervals_diff));
    got.push_back(Fingerprint(algebra::Union(ra, rb)));
    if (!reference.empty()) {
      EXPECT_EQ(reference, got) << "threads " << threads;
      continue;
    }
    reference = got;
    oracle::ExpectMatchesOracle(intervals_met, {&a, &b},
                                oracle::Intersection(a, b), "intersect");
    oracle::ExpectMatchesOracle(intervals_diff, {&a, &b},
                                oracle::DifferenceOf(a, b), "difference");
    oracle::ExpectMatchesOracle(boxes_met, {&ra, &rb},
                                oracle::Intersection(ra, rb), "box intersect");
  }
}

// The join enumerator picks its strategy by input size; these sizes
// straddle both thresholds: 3x4 = 12 pairs stay below 16 (all pairs),
// 12x12 = 144 below 256 (the flat probe), and the 64/48-tuple relations
// hold several shards each (shard pairs). Every operator, a two-pair
// EquiJoin and a non-injective Rename included, is structurally identical
// at 1 and 8 threads in every regime.
TEST(ShardDifferentialTest, EveryJoinStrategyIsThreadCountInvariant) {
  auto run_suite = [](const GeneralizedRelation& xa,
                      const GeneralizedRelation& xb,
                      const GeneralizedRelation& xra,
                      const GeneralizedRelation& xrb) {
    std::vector<std::string> prints;
    prints.push_back(Fingerprint(algebra::Intersect(xa, xb)));
    prints.push_back(Fingerprint(algebra::Intersect(xra, xrb)));
    prints.push_back(Fingerprint(algebra::EquiJoin(xra, xrb, {{1, 0}})));
    prints.push_back(
        Fingerprint(algebra::EquiJoin(xra, xrb, {{0, 1}, {1, 0}})));
    prints.push_back(Fingerprint(algebra::Difference(xa, xb)));
    prints.push_back(Fingerprint(algebra::Union(xra, xrb)));
    prints.push_back(Fingerprint(algebra::CrossProduct(xa, xb)));
    prints.push_back(Fingerprint(algebra::Select(xra, VarConst(0, RelOp::kLt,
                                                               40))));
    prints.push_back(Fingerprint(algebra::Rename(xra, {1, 0}, 2)));
    prints.push_back(Fingerprint(algebra::Rename(xra, {0, 0}, 1)));
    prints.push_back(Fingerprint(algebra::Complement(xa)));
    return prints;
  };

  enum Strategy { kAllPairs, kFlatProbe, kShardPairs };
  struct Sizes {
    int left;
    int right;
    int rect_left;
    int rect_right;
    Strategy strategy;
  };
  for (const Sizes& n :
       {Sizes{3, 4, 3, 4, kAllPairs}, Sizes{12, 12, 12, 12, kFlatProbe},
        Sizes{64, 64, 48, 48, kShardPairs}}) {
    const std::string label = std::to_string(n.left) + "x" +
                              std::to_string(n.right);
    GeneralizedRelation a = bench::RandomIntervals(n.left, 0, 5);
    GeneralizedRelation b = bench::RandomIntervals(n.right, 0, 6);
    GeneralizedRelation ra = bench::RandomRectangles(n.rect_left, 0, 7);
    GeneralizedRelation rb = bench::RandomRectangles(n.rect_right, 0, 8);
    const size_t pairs = a.tuple_count() * b.tuple_count();
    ASSERT_EQ(pairs < 16 ? kAllPairs : pairs < 256 ? kFlatProbe : kShardPairs,
              n.strategy)
        << label;
    if (n.strategy == kShardPairs) {
      ASSERT_GT(a.Index().Shards()->shard_count(), 1u);
      ASSERT_GT(b.Index().Shards()->shard_count(), 1u);
      ASSERT_GT(ra.Index().Shards()->shard_count(), 1u);
      ASSERT_GT(rb.Index().Shards()->shard_count(), 1u);
    }

    std::vector<std::string> baseline;
    {
      EvalThreadsScope threads(1);
      // Only the probing strategies prune pairs.
      EvalCounterSnapshot before = EvalCounters::Snapshot();
      algebra::Intersect(a, b);
      EvalCounterSnapshot delta = EvalCounters::Snapshot() - before;
      EXPECT_EQ(delta.pairs_pruned == 0, n.strategy == kAllPairs) << label;
      baseline = run_suite(a, b, ra, rb);
    }
    EvalThreadsScope threads(8);
    EXPECT_EQ(baseline, run_suite(a, b, ra, rb)) << label << " at 8 threads";
  }
}

TEST(ShardDifferentialTest, RandomAtomSoupMatchesOracle) {
  for (uint64_t seed : {5u, 17u, 61u}) {
    GeneralizedRelation a = RandomRelation(2, 60, 3, seed);
    GeneralizedRelation b = RandomRelation(2, 60, 3, seed + 1000);
    std::vector<std::string> reference;
    for (int threads : {1, 8}) {
      EvalThreadsScope scope(threads);
      GeneralizedRelation met = algebra::Intersect(a, b);
      GeneralizedRelation diff = algebra::Difference(a, b);
      std::vector<std::string> got;
      got.push_back(Fingerprint(met));
      got.push_back(Fingerprint(algebra::EquiJoin(a, b, {{0, 1}})));
      got.push_back(Fingerprint(diff));
      if (!reference.empty()) {
        EXPECT_EQ(reference, got) << "seed " << seed << " threads " << threads;
        continue;
      }
      reference = got;
      const std::string context = "seed " + std::to_string(seed);
      oracle::ExpectMatchesOracle(met, {&a, &b}, oracle::Intersection(a, b),
                                  context + " intersect");
      oracle::ExpectMatchesOracle(diff, {&a, &b}, oracle::DifferenceOf(a, b),
                                  context + " difference");
    }
  }
}

// Incremental maintenance: grow both relations tuple by tuple (exercising
// InsertAt/EraseAt through subsumption churn) and re-join after each batch
// — the maintained shards must keep every join exact throughout.
TEST(ShardDifferentialTest, MaintainedShardsMatchOracleAfterInserts) {
  std::mt19937_64 rng(133);
  GeneralizedRelation a = bench::RandomIntervals(48, 0, 31);
  GeneralizedRelation b = bench::RandomIntervals(48, 0, 32);
  a.Index().Shards();  // force the builds so inserts hit maintenance
  b.Index().Shards();
  for (int batch = 0; batch < 4; ++batch) {
    for (int i = 0; i < 6; ++i) {
      GeneralizedTuple tuple(1);
      int64_t lo = static_cast<int64_t>(rng() % 200);
      int64_t width = 1 + static_cast<int64_t>(rng() % 6);
      tuple.AddAtom(VarConst(0, RelOp::kGe, lo));
      tuple.AddAtom(VarConst(0, RelOp::kLe, lo + width));
      ((i % 2 == 0) ? a : b).AddTuple(std::move(tuple));
    }
    std::string reference;
    for (int threads : {1, 8}) {
      EvalThreadsScope scope(threads);
      GeneralizedRelation met = algebra::Intersect(a, b);
      if (reference.empty()) {
        reference = Fingerprint(met);
        oracle::ExpectMatchesOracle(met, {&a, &b}, oracle::Intersection(a, b),
                                    "batch " + std::to_string(batch));
      } else {
        EXPECT_EQ(reference, Fingerprint(met))
            << "batch " << batch << " threads " << threads;
      }
    }
  }
}

TEST(ShardDifferentialTest, DatalogFixpointMatchesClosedForm) {
  const int n = 20;
  Database db;
  db.SetRelation("edge", bench::TwoPathGraph(n));
  DatalogProgram program = DatalogParser::ParseProgram(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").value();
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
    oracle::ExpectSemanticallyEqual(tc, TwoPathReach(n), "tc");
  }
}

TEST(ShardDifferentialTest, FoConjunctionChainMatchesClosedForm) {
  // reach_4 over the path 1 -> ... -> 24: x = y, or y lies 1..4 steps
  // after x.
  const int n = 24;
  Database db;
  db.SetRelation("edge", bench::PathGraph(n));
  Query query;
  int fresh = 0;
  query.head = {"x", "y"};
  query.body = bench::DoublingReach(2, "x", "y", &fresh);
  GeneralizedRelation expected(2);
  expected.AddTuple(GeneralizedTuple(
      2, {DenseAtom(Term::Var(0), RelOp::kEq, Term::Var(1))}));
  for (int64_t i = 1; i <= n; ++i) {
    for (int64_t j = i + 1; j <= std::min<int64_t>(n, i + 4); ++j) {
      expected.AddTuple(GeneralizedTuple::Point({i, j}));
    }
  }
  std::string reference;
  for (int threads : {1, 8}) {
    EvalOptions options;
    options.num_threads = threads;
    FoEvaluator evaluator(&db, options);
    GeneralizedRelation answer = evaluator.Evaluate(query).value();
    if (!reference.empty()) {
      EXPECT_EQ(reference, Fingerprint(answer)) << "threads " << threads;
      continue;
    }
    reference = Fingerprint(answer);
    oracle::ExpectSemanticallyEqual(answer, expected, "reach_4");
  }
}

TEST(ShardCountersTest, ShardedJoinReportsShardPairsAndMemoHits) {
  GeneralizedRelation a = bench::RandomIntervals(64, 0, 41);
  GeneralizedRelation b = bench::RandomIntervals(64, 0, 42);
  EvalCounterSnapshot before = EvalCounters::Snapshot();
  GeneralizedRelation met = algebra::Intersect(a, b);
  EvalCounterSnapshot delta = EvalCounters::Snapshot() - before;
  EXPECT_FALSE(met.IsEmpty());
  EXPECT_GT(delta.shard_pairs_considered, 0u);
  EXPECT_GT(delta.shard_pairs_pruned, 0u);
  EXPECT_GT(delta.shard_index_builds, 0u);
  std::string report = delta.ToString();
  EXPECT_NE(report.find("shard pairs considered"), std::string::npos);
  EXPECT_NE(report.find("pruned by shard covers"), std::string::npos);
  // The closure memo counter flows through the Datalog evaluator, which
  // shares one memo across fixpoint rounds. The doubling TC joins tc with
  // itself, so later rounds re-derive candidate conjunctions that earlier
  // rounds already canonicalized (the linear TC derives each candidate
  // once, so it gets no hits).
  Database db;
  db.SetRelation("edge", bench::PathGraph(16));
  DatalogProgram program = DatalogParser::ParseProgram(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), tc(z, y).
  )").value();
  for (int threads : {1, 8}) {
    DatalogOptions options;
    options.eval_options.num_threads = threads;
    DatalogEvaluator evaluator(program, &db, options);
    ASSERT_TRUE(evaluator.Evaluate().ok());
    EXPECT_GT(evaluator.counters().closure_memo_hits, 0u)
        << "threads " << threads;
  }
}

// Delete-heavy view maintenance erases tuples from a copy-on-write copy of
// a sharded relation, one structural erase at a time. The copy must carry
// the shard partition across the detach and maintain it incrementally —
// before that fix, every MutableIndex() detach dropped the partition and
// the next probe paid a from-scratch quantile rebuild, O(n) per erase.
TEST(ShardCountersTest, EraseLoopOnCopiedRelationKeepsShardPartition) {
  GeneralizedRelation rel = bench::RandomIntervals(128, 0, 77);
  rel.Index().Shards();  // fault in the partition (counts one build)

  EvalCounterSnapshot before = EvalCounters::Snapshot();
  GeneralizedRelation copy = rel;  // COW: shares tuples and index
  std::vector<GeneralizedTuple> stored(copy.tuples().begin(),
                                       copy.tuples().end());
  ASSERT_GE(stored.size(), RelationShards::kMinTuples);
  for (size_t i = 0; i < stored.size() / 2; ++i) {
    ASSERT_TRUE(copy.EraseCanonicalTuple(stored[i]));
    // Probe between erases, like an over-delete wave joining against the
    // shrinking relation: must reuse the maintained partition.
    ASSERT_GT(copy.Index().Shards()->shard_count(), 0u);
  }
  EvalCounterSnapshot delta = EvalCounters::Snapshot() - before;
  EXPECT_EQ(delta.shard_index_builds, 0u)
      << "erase loop rebuilt the shard partition from scratch";
  EXPECT_EQ(copy.tuple_count(), stored.size() - stored.size() / 2);
  // The source snapshot is untouched (COW isolation).
  EXPECT_EQ(rel.tuple_count(), stored.size());
}

}  // namespace
}  // namespace dodb
