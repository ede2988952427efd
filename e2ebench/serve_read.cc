// serve_read: the paper's closed-form FO read path behind the server.
//
// A closed loop of up to four client connections (never more than nproc)
// sends queries drawn from a seeded pool of distinct instances to an
// in-memory server hosted in this process, running with the engine's
// default settings. The catalog holds 2-D rectangle relations land/flood
// and 1-D interval relations zone/hazard. The mix is 40% point probes, 30%
// range selections, 20% join + exists projections (dense QE) and 10%
// differences against the small `hazard` relation: a large right side of a
// negation costs tens of milliseconds in 1-D and seconds in 2-D, and would
// swamp every other kind. fo, algebra and constraints do nearly all the
// work; txn only hands out snapshots; storage and datalog do none.

#include <memory>
#include <set>
#include <thread>

#include "bench.h"
#include "layers.h"
#include "trace.h"

namespace dodb {
namespace e2e {
namespace {

using server::ClientOptions;
using server::DodbClient;
using server::DodbServer;
using server::QueryResult;
using server::ServerConfig;

struct Sizes {
  int rects;      // land and flood, each
  int zones;      // zone intervals
  int hazards;    // hazard intervals
  int pool;       // distinct query instances
};

Sizes SizesFor(const Options& options) {
  if (options.tiny) return Sizes{12, 24, 4, 16};
  return Sizes{200, 400, 50, 120};
}

// Rectangles scattered along a band: x grows with i so neighbours overlap
// locally but no rectangle subsumes the rest. Sizes vary little, so every
// seed yields a catalog of the same density.
GeneralizedRelation Rectangles(int n, Rng* rng) {
  std::vector<spatial::Rect> rects;
  for (int i = 0; i < n; ++i) {
    const int64_t x = 2 * i + static_cast<int64_t>(rng->Below(2));
    const int64_t y = static_cast<int64_t>(rng->Below(32));
    const int64_t w = 2 + static_cast<int64_t>(rng->Below(3));
    const int64_t h = 3 + static_cast<int64_t>(rng->Below(4));
    rects.push_back(spatial::Rect{Rational(x), Rational(x + w), Rational(y),
                                  Rational(y + h)});
  }
  return spatial::RectUnion(rects);
}

// Closed intervals: interval i starts near `spacing * i`.
GeneralizedRelation Intervals(int n, int64_t spacing, int64_t max_len,
                              Rng* rng) {
  std::vector<spatial::Interval> intervals;
  for (int i = 0; i < n; ++i) {
    const int64_t a =
        spacing * i + static_cast<int64_t>(rng->Below(spacing / 2 + 1));
    const int64_t b = a + 1 + static_cast<int64_t>(rng->Below(max_len));
    intervals.push_back(spatial::Interval{Rational(a), Rational(b)});
  }
  return spatial::IntervalUnion(intervals);
}

// The query kinds, one block of ten per mix step: 40% point probes, 30%
// range selections, 20% join + exists, 10% differences.
enum class Kind { kSlice, kMember, kRectRange, kZoneRange, kJoin, kNegation };
constexpr Kind kMix[10] = {Kind::kSlice,     Kind::kSlice,    Kind::kMember,
                           Kind::kMember,    Kind::kRectRange, Kind::kRectRange,
                           Kind::kZoneRange, Kind::kJoin,     Kind::kJoin,
                           Kind::kNegation};

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kSlice: return "slice";
    case Kind::kMember: return "member";
    case Kind::kRectRange: return "rect_range";
    case Kind::kZoneRange: return "zone_range";
    case Kind::kJoin: return "join";
    case Kind::kNegation: return "negation";
  }
  return "";
}

struct PoolQuery {
  std::string text;
  std::string expected;
};

Database BuildCatalog(const Sizes& sizes, uint64_t seed) {
  Rng rng(StreamSeed(seed, 1));
  Database db;
  db.SetRelation("land", Rectangles(sizes.rects, &rng));
  db.SetRelation("flood", Rectangles(sizes.rects, &rng));
  db.SetRelation("zone", Intervals(sizes.zones, 4, 4, &rng));
  // hazard spreads over the same span as zone.
  db.SetRelation("hazard",
                 Intervals(sizes.hazards, 4 * sizes.zones / sizes.hazards, 6,
                           &rng));
  return db;
}

// One instance of `kind` at a seeded position. Widths are fixed so that
// instances of one kind cost about the same wherever they land.
std::string GenerateQuery(Kind kind, const Sizes& sizes, Rng* rng) {
  const uint64_t x_span = 2 * sizes.rects;
  const uint64_t z_span = 4 * sizes.zones;
  const char* rect = rng->Below(2) == 0 ? "land" : "flood";
  const uint64_t x = rng->Below(x_span - 16);
  const uint64_t z = rng->Below(z_span - 40);
  switch (kind) {
    case Kind::kSlice:
      return StrCat("{ (y) | ", rect, "(", x, ", y) }");
    case Kind::kMember:
      return StrCat("zone(", z, ")");
    case Kind::kRectRange:
      return StrCat("{ (x, y) | ", rect, "(x, y) and x >= ", x,
                    " and x <= ", x + 16, " }");
    case Kind::kZoneRange:
      return StrCat("{ (x) | zone(x) and x >= ", z, " and x <= ", z + 40,
                    " }");
    case Kind::kJoin:
      return StrCat("{ (x) | exists y (land(x, y) and flood(x, y)) and x >= ",
                    x, " and x <= ", x + 16, " }");
    case Kind::kNegation:
      return StrCat("{ (x) | zone(x) and x >= ", z, " and x <= ", z + 40,
                    " and not hazard(x) }");
  }
  return "";
}

// Distinct query instances in the exact mix, with their reference answers
// computed in-process against the catalog. `ms_by_kind` collects the
// in-process evaluation time of each kind.
bool BuildPool(const Database& db, const Sizes& sizes, uint64_t seed,
               std::vector<PoolQuery>* pool,
               std::map<std::string, double>* ms_by_kind) {
  Rng rng(StreamSeed(seed, 2));
  std::set<std::string> seen;
  pool->clear();
  while (static_cast<int>(pool->size()) < sizes.pool) {
    const Kind kind = kMix[pool->size() % 10];
    std::string text = GenerateQuery(kind, sizes, &rng);
    if (!seen.insert(text).second) continue;
    const Clock::time_point start = Clock::now();
    Result<std::string> expected = ReferenceAnswer(db, text);
    (*ms_by_kind)[KindName(kind)] += MillisSince(start);
    if (!expected.ok()) {
      fprintf(stderr, "reference answer for %s failed: %s\n", text.c_str(),
              expected.status().ToString().c_str());
      return false;
    }
    pool->push_back(PoolQuery{std::move(text), std::move(expected).value()});
  }
  return true;
}

int Connections() {
  return std::max(1, std::min(4, HardwareThreads()));
}

// Everything a run needs, torn down in reverse order: clients, server,
// catalog.
struct ReadSetup {
  Database db;
  std::vector<PoolQuery> pool;
  std::map<std::string, double> reference_ms;  // by kind
  std::unique_ptr<DodbServer> server;
  std::vector<std::unique_ptr<DodbClient>> clients;
};

bool SetUp(const Options& options, int connections, ReadSetup* setup) {
  const Sizes sizes = SizesFor(options);
  setup->db = BuildCatalog(sizes, options.seed);
  if (!BuildPool(setup->db, sizes, options.seed, &setup->pool,
                 &setup->reference_ms)) {
    return false;
  }
  setup->server = std::make_unique<DodbServer>(&setup->db, nullptr, nullptr,
                                               ServerConfig{});
  Status started = setup->server->Start();
  if (!started.ok()) {
    fprintf(stderr, "server start: %s\n", started.ToString().c_str());
    return false;
  }
  ClientOptions client_options;
  client_options.port = setup->server->port();
  for (int c = 0; c < connections; ++c) {
    setup->clients.push_back(std::make_unique<DodbClient>(client_options));
    Status connected = setup->clients.back()->Connect();
    if (!connected.ok()) {
      fprintf(stderr, "connect: %s\n", connected.ToString().c_str());
      return false;
    }
  }
  return true;
}

struct LoopOutcome {
  LatencyLog latencies;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  double elapsed_s = 0.0;
};

// The closed loop: every connection sends its next query as soon as the
// previous answer arrives, until the deadline.
LoopOutcome ClosedLoop(ReadSetup* setup, const Options& options) {
  const int connections = static_cast<int>(setup->clients.size());
  std::vector<LoopOutcome> per(connections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = DeadlineAfter(options.seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(StreamSeed(options.seed, 100 + c));
      LoopOutcome& mine = per[c];
      while (Clock::now() < deadline) {
        const PoolQuery& q = setup->pool[rng.Below(setup->pool.size())];
        const Clock::time_point sent = Clock::now();
        Result<QueryResult> answer = setup->clients[c]->Query(q.text);
        mine.latencies.Add(MillisSince(sent), SecondsSince(start));
        ++mine.attempted;
        if (!answer.ok()) {
          ++mine.failed;
        } else if (answer.value().text != q.expected) {
          ++mine.failed;
          ++mine.wrong;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopOutcome total;
  total.elapsed_s = SecondsSince(start);
  for (const LoopOutcome& o : per) {
    total.latencies.Append(o.latencies);
    total.attempted += o.attempted;
    total.failed += o.failed;
    total.wrong += o.wrong;
  }
  return total;
}

// The traced replay: the request sequence connection 0 would send, issued
// on one connection, first untraced and then traced. For each traced
// request the layer calls the server makes are re-issued in-process
// against an identical published snapshot, each inside its own span.
void TracedReplay(ReadSetup* setup, const Options& options,
                  RunResult* result) {
  DodbClient* client = setup->clients[0].get();
  Rng rng(StreamSeed(options.seed, 100));
  std::vector<size_t> sequence;

  // Untraced pass: fixes the sequence length by time.
  LatencyLog untraced;
  const Clock::time_point untraced_deadline =
      DeadlineAfter(options.seconds / 3);
  while (Clock::now() < untraced_deadline) {
    sequence.push_back(rng.Below(setup->pool.size()));
    const PoolQuery& q = setup->pool[sequence.back()];
    const Clock::time_point sent = Clock::now();
    Result<QueryResult> answer = client->Query(q.text);
    untraced.Add(MillisSince(sent));
    ++result->attempted;
    if (!answer.ok() || answer.value().text != q.expected) {
      ++result->failed;
      result->correct = false;
    }
  }

  // The replica: a copy of the catalog behind its own transaction manager,
  // so current_snapshot() hands out the same pre-warmed snapshot the
  // server's sessions read.
  Database replica = setup->db;
  txn::TransactionManager replica_txn(&replica, nullptr, nullptr);

  Tracer tracer;
  CounterDelta counters;
  LatencyLog traced;
  double round_trips_ms = 0.0;
  for (size_t index : sequence) {
    const PoolQuery& q = setup->pool[index];
    const uint64_t request = tracer.NewRequest();
    const uint64_t root = tracer.Open("request", 0, request);

    const uint64_t rt = tracer.Open("server.round_trip", root, request);
    Result<QueryResult> answer = client->Query(q.text);
    const double rt_ms = tracer.Close(rt);
    traced.Add(rt_ms);
    round_trips_ms += rt_ms;
    ++result->attempted;
    bool ok = answer.ok() && answer.value().text == q.expected;

    std::shared_ptr<const Database> snapshot = InSpan(
        &tracer, "txn.snapshot", root, request,
        [&] { return replica_txn.current_snapshot(); });
    Result<std::string> text =
        ReissueRead(&tracer, root, request, q.text, *snapshot, &counters);
    ok = ok && text.ok() && text.value() == q.expected;
    tracer.Close(root);
    if (!ok) {
      ++result->failed;
      result->correct = false;
    }
  }

  const double n = static_cast<double>(sequence.size());
  const double attributed =
      tracer.TotalMs("txn.snapshot") + tracer.TotalMs("fo.parse") +
      tracer.TotalMs("fo.evaluate") + tracer.TotalMs("fo.render") +
      tracer.TotalMs("server.encode");
  result->Set("server.round_trip_ms", round_trips_ms / n, "ms");
  result->Set("server.encode_ms", tracer.TotalMs("server.encode") / n, "ms");
  result->Set("server.unattributed_ms", (round_trips_ms - attributed) / n,
              "ms");
  result->Set("fo.parse_ms", tracer.TotalMs("fo.parse") / n, "ms");
  result->Set("fo.evaluate_ms", tracer.TotalMs("fo.evaluate") / n, "ms");
  result->Set("fo.render_ms", tracer.TotalMs("fo.render") / n, "ms");
  result->Set("txn.snapshot_ms", tracer.TotalMs("txn.snapshot") / n, "ms");
  SetConstraintMetrics(result, counters.total(), n);
  result->Set("trace.unattributed_frac",
              round_trips_ms > 0 ? (round_trips_ms - attributed) / round_trips_ms
                                 : 0.0,
              "frac");
  const double untraced_p50 = untraced.Quantile(0.5);
  result->Set("trace.overhead_frac",
              untraced_p50 > 0 ? traced.Quantile(0.5) / untraced_p50 - 1.0 : 0.0,
              "frac");
  result->Info("trace_requests", std::to_string(sequence.size()));
  const std::string path = StrCat(options.work_dir, "/spans-serve_read-",
                                  options.seed, ".jsonl");
  Status written = tracer.WriteJsonl(path);
  result->Info("trace_spans", written.ok() ? path : written.ToString());
}

}  // namespace

RunResult RunServeRead(const Options& options) {
  RunResult result;
  const int connections = Connections();
  std::unique_ptr<ReadSetup> setup;
  double setup_s = 0.0;
  const bool set_up = TimedSetups(
      kSetupReps,
      [&] {
        setup = std::make_unique<ReadSetup>();
        return SetUp(options, connections, setup.get());
      },
      [&] { setup.reset(); }, &setup_s);
  if (!set_up) {
    result.correct = false;
    return result;
  }
  const GeneralizedRelation* land = setup->db.FindRelation("land");
  const GeneralizedRelation* flood = setup->db.FindRelation("flood");
  const GeneralizedRelation* zone = setup->db.FindRelation("zone");
  const GeneralizedRelation* hazard = setup->db.FindRelation("hazard");
  result.Info("sizes",
              StrCat("land=", land->tuple_count(),
                     " flood=", flood->tuple_count(),
                     " zone=", zone->tuple_count(),
                     " hazard=", hazard->tuple_count(),
                     " pool=", setup->pool.size(),
                     " connections=", connections));
  std::string per_kind;
  for (const auto& [kind, ms] : setup->reference_ms) {
    per_kind += StrCat(per_kind.empty() ? "" : " ", kind, "=", ms, "ms");
  }
  result.Info("reference_eval_ms_by_kind", per_kind);
  if (options.corrupt_reference) {
    // The first query connection 0 sends gets a wrong reference answer.
    Rng rng(StreamSeed(options.seed, 100));
    setup->pool[rng.Below(setup->pool.size())].expected += " ";
  }

  if (options.trace) {
    TracedReplay(setup.get(), options, &result);
  } else {
    LoopOutcome loop = ClosedLoop(setup.get(), options);
    result.attempted = loop.attempted;
    result.failed = loop.failed;
    result.correct = loop.wrong == 0;
    // Every operation is a query: the op and query families coincide.
    SetLatencyQuantiles(&result, "op", loop.latencies);
    SetLatencyQuantiles(&result, "query", loop.latencies);
    const double rate = loop.latencies.MedianWindowRate(loop.elapsed_s);
    result.Set("ops_per_s", rate, "1/s");
    result.Set("query_per_s", rate, "1/s");
  }
  result.Set("setup_s", setup_s, "s");
  setup.reset();
  return result;
}

}  // namespace e2e
}  // namespace dodb
