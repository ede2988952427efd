// Out-of-core storage: the buffer pool's pin/evict/writeback mechanics, the
// paged record store's page-chain + CRC contract, and the differential
// guarantee of spilled relations — every algebra, Datalog and
// view-maintenance result over them is bit-identical to the resident run,
// at every thread count and at any cache size, because every operator runs
// one body over both storage forms.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/relational_ops.h"
#include "bench/workloads.h"
#include "constraints/eval_counters.h"
#include "constraints/relation_shards.h"
#include "core/fault_injection.h"
#include "core/query_guard.h"
#include "core/thread_pool.h"
#include "datalog/datalog_evaluator.h"
#include "datalog/datalog_parser.h"
#include "datalog/view_maintenance.h"
#include "fo/evaluator.h"
#include "fo/parser.h"
#include "io/commands.h"
#include "io/database.h"
#include "storage/buffer_pool.h"
#include "storage/paged_relation.h"
#include "storage/record_store.h"

namespace dodb {
namespace storage {
namespace {

std::string TestPath(const std::string& tag) {
  static int counter = 0;
  std::string path =
      ::testing::TempDir() + "dodb_paged_" + tag + std::to_string(counter++);
  std::filesystem::remove_all(path);
  return path;
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

// ---------------------------------------------------------------------------
// Buffer pool mechanics.

TEST(BufferPoolTest, FetchHitsMissesAndEvictsWithinCapacity) {
  const std::string path = TestPath("pool");
  RandomAccessFile file;
  ASSERT_TRUE(file.Open(path, /*truncate=*/true).ok());

  BufferPool pool(/*capacity_bytes=*/2 * kPageSize);
  uint64_t id = pool.RegisterFile(&file);

  EvalCounterSnapshot before = EvalCounters::Snapshot();
  // Write four distinct pages through the pool (2x the capacity).
  for (uint64_t page = 0; page < 4; ++page) {
    Result<BufferPool::Page> handle = pool.Create(id, page);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handle.value().data()[0] = static_cast<uint8_t>(0xA0 + page);
    handle.value().MarkDirty();
  }
  EXPECT_LE(pool.resident_bytes(), pool.capacity_bytes());
  EXPECT_EQ(pool.pinned_frames(), 0u);

  // Re-read all four: the two evicted pages must come back from the file
  // with their written-back bytes intact.
  for (uint64_t page = 0; page < 4; ++page) {
    Result<BufferPool::Page> handle = pool.Fetch(id, page);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    EXPECT_EQ(handle.value().data()[0], static_cast<uint8_t>(0xA0 + page))
        << "page " << page;
  }
  EvalCounterSnapshot delta = EvalCounters::Snapshot() - before;
  EXPECT_GT(delta.page_cache_misses, 0u);
  EXPECT_GT(delta.page_evictions, 0u);
  EXPECT_GT(delta.page_writeback_bytes, 0u);

  // A pinned page survives even when the pool wants its frame.
  Result<BufferPool::Page> pinned = pool.Fetch(id, 0);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pool.pinned_frames(), 1u);
  for (uint64_t page = 4; page < 8; ++page) {
    Result<BufferPool::Page> handle = pool.Create(id, page);
    ASSERT_TRUE(handle.ok());
  }
  EXPECT_EQ(pinned.value().data()[0], 0xA0);
  pinned = BufferPool::Page();
  EXPECT_EQ(pool.pinned_frames(), 0u);

  ASSERT_TRUE(pool.UnregisterFile(id, /*flush=*/false).ok());
  ASSERT_TRUE(file.Close().ok());
  std::filesystem::remove(path);
}

TEST(BufferPoolTest, CreateZeroesAResidentReusedPage) {
  const std::string path = TestPath("zero");
  RandomAccessFile file;
  ASSERT_TRUE(file.Open(path, /*truncate=*/true).ok());
  BufferPool pool(64 * kPageSize);
  uint64_t id = pool.RegisterFile(&file);
  {
    Result<BufferPool::Page> handle = pool.Create(id, 3);
    ASSERT_TRUE(handle.ok());
    std::fill(handle.value().data(), handle.value().data() + kPageSize, 0xFF);
    handle.value().MarkDirty();
  }
  // Re-creating the still-resident page (a freed record page being reused)
  // must hand back zeroed bytes, never the stale record.
  {
    Result<BufferPool::Page> handle = pool.Create(id, 3);
    ASSERT_TRUE(handle.ok());
    for (size_t i = 0; i < kPageSize; ++i) {
      ASSERT_EQ(handle.value().data()[i], 0) << "byte " << i;
    }
  }
  ASSERT_TRUE(pool.UnregisterFile(id, /*flush=*/false).ok());
  ASSERT_TRUE(file.Close().ok());
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Paged record store.

TEST(PagedRecordStoreTest, MultiPageRecordsRoundTripAndFree) {
  const std::string path = TestPath("store");
  BufferPool pool(4 * kPageSize);
  Result<std::unique_ptr<PagedRecordStore>> store =
      PagedRecordStore::Open(path, &pool);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  std::mt19937_64 rng(11);
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> records;
  // Sizes straddle the page-payload boundary: sub-page, exactly one page,
  // and a three-page chain.
  for (size_t size : {16ul, PagedRecordStore::kPagePayload,
                      2 * PagedRecordStore::kPagePayload + 100}) {
    std::vector<uint8_t> payload(size);
    for (uint8_t& byte : payload) byte = static_cast<uint8_t>(rng());
    Result<uint64_t> id = store.value()->Put(payload.data(), payload.size());
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    records.emplace_back(id.value(), std::move(payload));
  }
  for (const auto& [id, payload] : records) {
    std::vector<uint8_t> got;
    ASSERT_TRUE(store.value()->Get(id, &got).ok());
    EXPECT_EQ(got, payload) << "record " << id;
  }
  EXPECT_GT(store.value()->payload_bytes(), 0u);

  // Freed pages are reused: releasing the big record and storing another
  // must not grow the file's page high-water mark.
  uint64_t pages_before = store.value()->allocated_pages();
  ASSERT_TRUE(store.value()->Free(records.back().first).ok());
  std::vector<uint8_t> again(2 * PagedRecordStore::kPagePayload + 100, 0x5A);
  Result<uint64_t> id = store.value()->Put(again.data(), again.size());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store.value()->allocated_pages(), pages_before);
  std::vector<uint8_t> got;
  ASSERT_TRUE(store.value()->Get(id.value(), &got).ok());
  EXPECT_EQ(got, again);

  store.value().reset();
  std::filesystem::remove(path);
}

TEST(PagedRecordStoreTest, CorruptedPageFailsTheChecksumCleanly) {
  const std::string path = TestPath("crc");
  BufferPool pool(2 * kPageSize);  // small: forces the record to disk
  Result<std::unique_ptr<PagedRecordStore>> store =
      PagedRecordStore::Open(path, &pool);
  ASSERT_TRUE(store.ok());
  std::vector<uint8_t> payload(3 * PagedRecordStore::kPagePayload, 0x3C);
  Result<uint64_t> id = store.value()->Put(payload.data(), payload.size());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(store.value()->Flush().ok());

  // Flip one payload byte of the record's first page on disk, then evict
  // the clean cached copy so the next Get must re-read the bad bytes.
  {
    RandomAccessFile raw;
    ASSERT_TRUE(raw.Open(path).ok());
    uint64_t offset =
        id.value() * kPageSize + PagedRecordStore::kPageHeaderSize;
    uint8_t byte = 0;
    ASSERT_TRUE(raw.ReadAt(offset, &byte, 1).ok());
    byte ^= 0xFF;
    ASSERT_TRUE(raw.WriteAt(offset, &byte, 1).ok());
    ASSERT_TRUE(raw.Close().ok());
  }
  pool.set_capacity_bytes(0);  // evict everything clean
  pool.set_capacity_bytes(2 * kPageSize);

  std::vector<uint8_t> got;
  Status corrupt = store.value()->Get(id.value(), &got);
  EXPECT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.ToString().find("checksum"), std::string::npos)
      << corrupt.ToString();

  store.value().reset();
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Spilled relations.

TEST(RelationPagerTest, SpillPreservesStructureAndMaterializesBack) {
  const std::string path = TestPath("spill");
  BufferPool pool(8 * kPageSize);
  Result<std::unique_ptr<RelationPager>> pager =
      RelationPager::OpenPaged(path, &pool);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();

  GeneralizedRelation rel = bench::RandomRectangles(60, 0, 5);
  EvalCounterSnapshot before = EvalCounters::Snapshot();
  Result<GeneralizedRelation> paged = pager.value()->Spill(rel);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_TRUE(paged.value().is_paged());
  EXPECT_EQ(paged.value().tuple_count(), rel.tuple_count());
  EXPECT_EQ(paged.value().arity(), rel.arity());
  EXPECT_GT((EvalCounters::Snapshot() - before).paged_spill_bytes, 0u);

  // tuples() materializes the exact canonical vector, position by position.
  before = EvalCounters::Snapshot();
  const std::vector<GeneralizedTuple>& got = paged.value().tuples();
  ASSERT_EQ(got.size(), rel.tuples().size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ToString(), rel.tuples()[i].ToString()) << "tuple " << i;
  }
  EXPECT_EQ((EvalCounters::Snapshot() - before).paged_materializations, 1u);

  // Copies share the one materialization; the original stays paged until a
  // mutation residentizes it.
  EXPECT_TRUE(paged.value().is_paged());
  EXPECT_TRUE(paged.value().StructurallyEquals(rel));

  pager.value().reset();
  std::filesystem::remove(path);
}

TEST(RelationPagerTest, MemoryBackendSpillsWithoutAFile) {
  std::unique_ptr<RelationPager> pager = RelationPager::InMemory();
  GeneralizedRelation rel = bench::RandomIntervals(40, 0, 9);
  Result<GeneralizedRelation> paged = pager->Spill(rel);
  ASSERT_TRUE(paged.ok());
  EXPECT_TRUE(paged.value().is_paged());
  EXPECT_TRUE(paged.value().StructurallyEquals(rel));
  // Empty relations skip the spill entirely.
  Result<GeneralizedRelation> empty = pager->Spill(GeneralizedRelation(2));
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty.value().is_paged());
}

// ---------------------------------------------------------------------------
// The differential contract: paged in, resident out, bit-identical.

// Every operator runs one body over resident and paged inputs; the sizes
// straddle the join enumerator's strategy thresholds: 3x4 = 12 pairs stay
// below 16 (all pairs), 12x12 = 144 below 256 (the flat probe), and the
// 64/48-tuple relations hold several shards each (shard pairs).
TEST(PagedDifferentialTest, AlgebraMatchesResidentAcrossThreads) {
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
    prints.push_back(Fingerprint(algebra::Select(
        xra, DenseAtom(Term::Var(0), RelOp::kLt,
                       Term::Const(Rational(40))))));
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

    std::unique_ptr<RelationPager> pager = RelationPager::InMemory();
    GeneralizedRelation pa = pager->Spill(a).value();
    GeneralizedRelation pb = pager->Spill(b).value();
    GeneralizedRelation pra = pager->Spill(ra).value();
    GeneralizedRelation prb = pager->Spill(rb).value();

    for (int threads : {1, 8}) {
      EvalThreadsScope scope(threads);
      // Resident at this thread count, both sides paged, and mixed
      // paged/resident (each orientation).
      EXPECT_EQ(baseline, run_suite(a, b, ra, rb))
          << label << " resident, threads " << threads;
      EXPECT_EQ(baseline, run_suite(pa, pb, pra, prb))
          << label << " both paged, threads " << threads;
      EXPECT_EQ(baseline, run_suite(pa, b, pra, rb))
          << label << " left paged, threads " << threads;
      EXPECT_EQ(baseline, run_suite(a, pb, ra, prb))
          << label << " right paged, threads " << threads;
    }
  }
}

TEST(PagedDifferentialTest, RandomAtomSoupMatchesResident) {
  std::unique_ptr<RelationPager> pager = RelationPager::InMemory();
  for (uint64_t seed : {5u, 17u, 61u}) {
    GeneralizedRelation a = RandomRelation(2, 60, 3, seed);
    GeneralizedRelation b = RandomRelation(2, 60, 3, seed + 1000);
    std::vector<std::string> baseline;
    {
      EvalThreadsScope threads(1);
      baseline.push_back(Fingerprint(algebra::Intersect(a, b)));
      baseline.push_back(Fingerprint(algebra::EquiJoin(a, b, {{0, 1}})));
      baseline.push_back(Fingerprint(algebra::Difference(a, b)));
    }
    GeneralizedRelation pa = pager->Spill(a).value();
    GeneralizedRelation pb = pager->Spill(b).value();
    for (int threads : {1, 8}) {
      EvalThreadsScope scope(threads);
      std::vector<std::string> got;
      got.push_back(Fingerprint(algebra::Intersect(pa, pb)));
      got.push_back(Fingerprint(algebra::EquiJoin(pa, pb, {{0, 1}})));
      got.push_back(Fingerprint(algebra::Difference(pa, pb)));
      EXPECT_EQ(baseline, got) << "seed " << seed << " threads " << threads;
    }
  }
}

// A cache far smaller than the working set: every run fetch churns pages
// through eviction, and the results still match bit for bit (the ISSUE's
// "working set >= 4x cache" completion guarantee, in miniature).
TEST(PagedDifferentialTest, TinyCacheStillMatchesResident) {
  const std::string path = TestPath("tiny");
  BufferPool pool(64 * kPageSize);
  Result<std::unique_ptr<RelationPager>> pager =
      RelationPager::OpenPaged(path, &pool);
  ASSERT_TRUE(pager.ok());

  GeneralizedRelation a = bench::RandomRectangles(192, 0, 5);
  GeneralizedRelation b = bench::RandomRectangles(192, 0, 6);
  std::string expect_join, expect_diff;
  {
    EvalThreadsScope threads(1);
    expect_join = Fingerprint(algebra::EquiJoin(a, b, {{1, 0}}));
    expect_diff = Fingerprint(algebra::Difference(a, b));
  }
  GeneralizedRelation pa = pager.value()->Spill(a).value();
  GeneralizedRelation pb = pager.value()->Spill(b).value();
  // Shrink the cache to a quarter of the out-of-core working set (floor one
  // page), so every scan churns pages through CLOCK eviction.
  uint64_t working_set = pager.value()->store().payload_bytes();
  ASSERT_GE(working_set, 4 * kPageSize)
      << "working set must span several pages for this test to bite";
  pool.set_capacity_bytes(working_set / 4);
  for (int threads : {1, 8}) {
    EvalThreadsScope scope(threads);
    EXPECT_EQ(expect_join, Fingerprint(algebra::EquiJoin(pa, pb, {{1, 0}})))
        << "threads " << threads;
    EXPECT_EQ(expect_diff, Fingerprint(algebra::Difference(pa, pb)))
        << "threads " << threads;
  }
  EXPECT_EQ(pool.pinned_frames(), 0u);
  pager.value().reset();
  std::filesystem::remove(path);
}

// Streaming means streaming: a join over paged inputs fetches runs but
// never pays a full materialization, and neither does any other operator
// reading paged inputs through the one kernel.
TEST(PagedDifferentialTest, JoinStreamsRunsWithoutMaterializing) {
  std::unique_ptr<RelationPager> pager = RelationPager::InMemory();
  GeneralizedRelation a = bench::RandomIntervals(64, 0, 5);
  GeneralizedRelation b = bench::RandomIntervals(64, 0, 6);
  GeneralizedRelation pa = pager->Spill(a).value();
  GeneralizedRelation pb = pager->Spill(b).value();
  EvalCounterSnapshot before = EvalCounters::Snapshot();
  GeneralizedRelation met = algebra::Intersect(pa, pb);
  EvalCounterSnapshot delta = EvalCounters::Snapshot() - before;
  EXPECT_FALSE(met.IsEmpty());
  EXPECT_GT(delta.paged_runs_fetched, 0u);
  EXPECT_EQ(delta.paged_materializations, 0u);

  GeneralizedRelation pra =
      pager->Spill(bench::RandomRectangles(48, 0, 7)).value();
  GeneralizedRelation prb =
      pager->Spill(bench::RandomRectangles(48, 0, 8)).value();
  const DenseAtom below_40(Term::Var(0), RelOp::kLt, Term::Const(Rational(40)));
  const std::pair<const char*, std::function<GeneralizedRelation()>> ops[] = {
      {"EquiJoin", [&] { return algebra::EquiJoin(pra, prb, {{1, 0}}); }},
      {"CrossProduct", [&] { return algebra::CrossProduct(pa, pb); }},
      {"Difference", [&] { return algebra::Difference(pra, prb); }},
      {"Select", [&] { return algebra::Select(pra, below_40); }},
      {"Rename", [&] { return algebra::Rename(pra, {0, 0}, 1); }},
  };
  for (const auto& [name, op] : ops) {
    before = EvalCounters::Snapshot();
    GeneralizedRelation out = op();
    delta = EvalCounters::Snapshot() - before;
    EXPECT_FALSE(out.IsEmpty()) << name;
    EXPECT_EQ(delta.paged_materializations, 0u) << name;
  }
  EXPECT_TRUE(pa.is_paged() && pb.is_paged() && pra.is_paged() &&
              prb.is_paged());
}

TEST(PagedDifferentialTest, DatalogFixpointMatchesResident) {
  GeneralizedRelation edge = bench::TwoPathGraph(20);
  DatalogProgram program = DatalogParser::ParseProgram(R"(
    tc(x, y) :- edge(x, y).
    tc(x, y) :- tc(x, z), edge(z, y).
  )").value();

  std::string baseline;
  uint64_t baseline_iterations = 0;
  {
    Database db;
    db.SetRelation("edge", edge);
    DatalogOptions options;
    options.eval_options.num_threads = 1;
    DatalogEvaluator evaluator(program, &db, options);
    Database idb = evaluator.Evaluate().value();
    baseline = Fingerprint(*idb.FindRelation("tc"));
    baseline_iterations = evaluator.iterations();
  }

  std::unique_ptr<RelationPager> pager = RelationPager::InMemory();
  for (int threads : {1, 8}) {
    Database db;
    db.SetRelation("edge", pager->Spill(edge).value());
    ASSERT_TRUE(db.FindRelation("edge")->is_paged());
    DatalogOptions options;
    options.eval_options.num_threads = threads;
    DatalogEvaluator evaluator(program, &db, options);
    Database idb = evaluator.Evaluate().value();
    EXPECT_EQ(baseline, Fingerprint(*idb.FindRelation("tc")))
        << "threads " << threads;
    EXPECT_EQ(baseline_iterations, evaluator.iterations())
        << "threads " << threads;
  }
}

TEST(PagedDifferentialTest, FoEvaluationMatchesResident) {
  GeneralizedRelation edge = bench::PathGraph(24);
  Query query = FoParser::ParseQuery(
      "{ (x, y) | exists z (edge(x, z) and edge(z, y)) }").value();

  std::string baseline;
  {
    Database db;
    db.SetRelation("edge", edge);
    EvalOptions options;
    options.num_threads = 1;
    FoEvaluator evaluator(&db, options);
    baseline = Fingerprint(evaluator.Evaluate(query).value());
  }
  std::unique_ptr<RelationPager> pager = RelationPager::InMemory();
  for (int threads : {1, 8}) {
    Database db;
    db.SetRelation("edge", pager->Spill(edge).value());
    EvalOptions options;
    options.num_threads = threads;
    FoEvaluator evaluator(&db, options);
    EXPECT_EQ(baseline, Fingerprint(evaluator.Evaluate(query).value()))
        << "threads " << threads;
  }
}

// Incremental view maintenance over a paged base: the DML path residentizes
// the mutated relation, the maintenance delta fires against it, and the
// final view contents match the all-resident run exactly.
TEST(PagedDifferentialTest, ViewMaintenanceMatchesResident) {
  const char* kTc = "tc(x, y) :- edge(x, y). tc(x, y) :- tc(x, z), edge(z, y).";
  auto insert_edge = [](int from, int to) {
    return "insert into edge x0 = " + std::to_string(from) +
           " and x1 = " + std::to_string(to);
  };

  auto run = [&](bool paged, int threads) {
    Database db;
    ViewRegistry views;
    views.options().datalog.eval_options.num_threads = threads;
    EXPECT_TRUE(ExecuteCommand(&db, "create edge(2)", nullptr, &views).ok());
    for (int i = 1; i <= 8; ++i) {
      EXPECT_TRUE(
          ExecuteCommand(&db, insert_edge(i, i + 1), nullptr, &views).ok());
    }
    std::unique_ptr<RelationPager> pager = RelationPager::InMemory();
    if (paged) {
      db.SetRelation("edge", pager->Spill(*db.FindRelation("edge")).value());
    }
    EXPECT_TRUE(views.Create("tc", kTc, &db).ok());
    // Incremental inserts, then an over-delete, against the paged base.
    for (int i = 9; i <= 12; ++i) {
      EXPECT_TRUE(
          ExecuteCommand(&db, insert_edge(i, i + 1), nullptr, &views).ok());
      if (paged) {
        db.SetRelation("edge",
                       pager->Spill(*db.FindRelation("edge")).value());
      }
    }
    EXPECT_TRUE(
        ExecuteCommand(&db, "delete from edge where x0 > 10", nullptr, &views)
            .ok());
    return Fingerprint(*db.FindRelation("tc"));
  };

  std::string baseline = run(/*paged=*/false, /*threads=*/1);
  for (int threads : {1, 8}) {
    EXPECT_EQ(baseline, run(/*paged=*/true, threads))
        << "threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// Fault sites: tripped guards unwind cleanly and leave the pool unpinned.

TEST(PagedFaultTest, EvictionFaultLeavesPoolUnpinnedAndConsistent) {
  const std::string path = TestPath("fault_evict");
  BufferPool pool(2 * kPageSize);
  Result<std::unique_ptr<RelationPager>> pager =
      RelationPager::OpenPaged(path, &pool);
  ASSERT_TRUE(pager.ok());
  GeneralizedRelation rel = bench::RandomRectangles(96, 0, 5);
  GeneralizedRelation paged = pager.value()->Spill(rel).value();

  QueryGuard guard;
  ASSERT_TRUE(ArmFaultFromSpec(&guard, "page-evict:3").ok());
  {
    QueryGuardScope scope(&guard);
    // Enough churn through a 2-page cache to reach the 3rd eviction.
    std::vector<GeneralizedTuple> out;
    Status status = Status::Ok();
    for (size_t run = 0; run < paged.PagedSource()->run_count(); ++run) {
      status = paged.PagedSource()->FetchRun(run, &out);
      if (!status.ok()) break;
    }
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.trip_site_name(), "page-evict");
  EXPECT_EQ(pool.pinned_frames(), 0u);

  // The pool is fully usable after the trip: the same scan succeeds.
  std::vector<GeneralizedTuple> out;
  for (size_t run = 0; run < paged.PagedSource()->run_count(); ++run) {
    ASSERT_TRUE(paged.PagedSource()->FetchRun(run, &out).ok()) << run;
  }
  pager.value().reset();
  std::filesystem::remove(path);
}

TEST(PagedFaultTest, WritebackFaultAbortsSpillWithoutLeakingPages) {
  const std::string path = TestPath("fault_wb");
  BufferPool pool(2 * kPageSize);
  Result<std::unique_ptr<RelationPager>> pager =
      RelationPager::OpenPaged(path, &pool);
  ASSERT_TRUE(pager.ok());
  GeneralizedRelation rel = bench::RandomRectangles(96, 0, 5);

  QueryGuard guard;
  ASSERT_TRUE(ArmFaultFromSpec(&guard, "page-writeback:2").ok());
  {
    QueryGuardScope scope(&guard);
    Result<GeneralizedRelation> spilled = pager.value()->Spill(rel);
    EXPECT_FALSE(spilled.ok());
    EXPECT_EQ(spilled.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.trip_site_name(), "page-writeback");
  EXPECT_EQ(pool.pinned_frames(), 0u);

  // The failed Spill rolled its records back; a retry succeeds and the
  // paged twin matches.
  Result<GeneralizedRelation> retry = pager.value()->Spill(rel);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_TRUE(retry.value().StructurallyEquals(rel));
  pager.value().reset();
  std::filesystem::remove(path);
}

// A tripped fetch inside an evaluation surfaces as the guard's clean error,
// never as a wrong answer.
TEST(PagedFaultTest, TrippedFetchAbortsTheQueryCleanly) {
  const std::string path = TestPath("fault_query");
  BufferPool pool(2 * kPageSize);
  Result<std::unique_ptr<RelationPager>> pager =
      RelationPager::OpenPaged(path, &pool);
  ASSERT_TRUE(pager.ok());
  Database db;
  GeneralizedRelation edge = bench::RandomRectangles(96, 0, 5);
  db.SetRelation("edge", pager.value()->Spill(edge).value());

  Query query = FoParser::ParseQuery(
      "{ (x, y) | edge(x, y) and edge(y, x) }").value();
  EvalOptions options;
  options.num_threads = 1;
  options.fault_spec = "page-evict:1";
  options.limits.max_work_tuples = 100000000;  // any limit creates a guard
  FoEvaluator evaluator(&db, options);
  Result<GeneralizedRelation> out = evaluator.Evaluate(query);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(evaluator.stats().guard_trip_site, "page-evict");
  EXPECT_EQ(pool.pinned_frames(), 0u);
  pager.value().reset();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace storage
}  // namespace dodb
