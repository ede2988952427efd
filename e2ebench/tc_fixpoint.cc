// tc_fixpoint: the Thm 4.4 side of the paper, in-process with no server.
//
// From-scratch Datalog fixpoints, round-robin over three programs at the
// engine's default thread count:
//   tc_path64   transitive closure of a 64-vertex point path;
//   tc_boxes32  transitive closure of a step relation over a chain of 32
//               overlapping intervals (x < y inside each interval), whose
//               derived tuples carry var-var atoms;
//   conn_neg32  stratified connectivity with negation on two 16-vertex
//               paths.
// After each fixpoint the program's goal is answered against it. datalog,
// constraints and core/thread_pool do all the work; server, txn and
// storage do none, so a datalog-only change must leave serve_read alone.
//
// Every fixpoint is checked against a fingerprint derived from the input's
// shape, not from another run of the engine: tuple counts where they are
// known in closed form, and membership probes at seeded points.

#include <memory>

#include "bench.h"
#include "layers.h"
#include "trace.h"

namespace dodb {
namespace e2e {
namespace {

struct Probe {
  std::vector<Rational> point;
  bool member = false;
};

// One program over its own EDB, with what a correct fixpoint must show.
struct Program {
  std::string name;
  DatalogProgram parsed;
  DatalogOptions options;
  Database edb;
  std::string relation;        // the fingerprinted IDB relation
  size_t expected_tuples = 0;  // its closed-form tuple count
  std::vector<Probe> probes;   // on `relation`
  size_t expected_answer = 0;  // tuples in the goal's answer; 0 = unchecked
  std::vector<Probe> answer_probes;
};

struct Sizes {
  int path;   // vertices of the point path
  int boxes;  // intervals in the step chain
  int half;   // vertices per path of the connectivity graph
};

Sizes SizesFor(const Options& options) {
  if (options.tiny) return Sizes{8, 6, 4};
  return Sizes{64, 32, 16};
}

// Strictly increasing labels starting near `base`, seeded gaps of 1-3.
std::vector<int64_t> Labels(int n, int64_t base, Rng* rng) {
  std::vector<int64_t> labels;
  int64_t v = base + static_cast<int64_t>(rng->Below(10));
  for (int i = 0; i < n; ++i) {
    labels.push_back(v);
    v += 1 + static_cast<int64_t>(rng->Below(3));
  }
  return labels;
}

std::vector<std::vector<Rational>> PathPoints(const std::vector<int64_t>& v) {
  std::vector<std::vector<Rational>> points;
  for (size_t i = 0; i + 1 < v.size(); ++i) {
    points.push_back({Rational(v[i]), Rational(v[i + 1])});
  }
  return points;
}

bool Parse(const std::string& text, Program* p) {
  Result<DatalogProgram> parsed = DatalogParser::ParseProgram(text);
  if (!parsed.ok()) {
    fprintf(stderr, "%s: %s\n", p->name.c_str(),
            parsed.status().ToString().c_str());
    return false;
  }
  p->parsed = std::move(parsed).value();
  return p->parsed.queries.size() == 1;
}

bool PathProgram(int n, Rng* rng, Program* p) {
  p->name = "tc_path64";
  const std::vector<int64_t> v = Labels(n, 0, rng);
  const size_t source = rng->Below(n - 1);
  p->edb.SetRelation("e", GeneralizedRelation::FromPoints(2, PathPoints(v)));
  p->relation = "tc";
  p->expected_tuples = static_cast<size_t>(n) * (n - 1) / 2;
  for (int k = 0; k < 8; ++k) {
    const size_t i = rng->Below(n);
    const size_t j = rng->Below(n);
    p->probes.push_back(Probe{{Rational(v[i]), Rational(v[j])}, i < j});
  }
  p->expected_answer = n - 1 - source;
  p->answer_probes = {Probe{{Rational(v[n - 1])}, true},
                      Probe{{Rational(v[source])}, false}};
  return Parse(StrCat("tc(x, y) :- e(x, y).\n"
                      "tc(x, y) :- tc(x, z), e(z, y).\n"
                      "?- tc(",
                      v[source], ", y).\n"),
               p);
}

// Intervals I_i = [a_i, b_i] with a_i < a_{i+1} <= b_i < b_{i+1}:
// consecutive intervals overlap and none nests in another, so the closure
// of "step forward inside one interval" is exactly
// { (x, y) | a_0 <= x < y <= b_last }, stored as one tuple per pair i <= j.
bool BoxesProgram(int m, Rng* rng, Program* p) {
  p->name = "tc_boxes32";
  int64_t lo = 0;
  int64_t hi = 0;
  Status created = p->edb.AddRelation("step", GeneralizedRelation(2));
  for (int i = 0; i < m && created.ok(); ++i) {
    const int64_t a = 3 * i + static_cast<int64_t>(rng->Below(2));
    const int64_t b = a + 4 + static_cast<int64_t>(rng->Below(2));
    if (i == 0) lo = a;
    hi = b;
    // One insert per interval: a single insert of the whole disjunction
    // evaluates to a wrong relation (README.md, "Known engine defects").
    Result<std::string> inserted = ExecuteCommand(
        &p->edb, StrCat("insert into step x0 >= ", a, " and x0 <= ", b,
                        " and x1 >= ", a, " and x1 <= ", b, " and x0 < x1"));
    if (!inserted.ok()) created = inserted.status();
  }
  if (!created.ok()) {
    fprintf(stderr, "%s: cannot build step: %s\n", p->name.c_str(),
            created.ToString().c_str());
    return false;
  }
  p->expected_tuples = static_cast<size_t>(m) * (m + 1) / 2;
  p->relation = "tc";
  // Half-integer probes test both bounds and the strict x < y.
  auto member = [&](const Rational& x, const Rational& y) {
    return Rational(lo) <= x && x < y && y <= Rational(hi);
  };
  for (int k = 0; k < 12; ++k) {
    const Rational x(static_cast<int64_t>(rng->Below(2 * (hi - lo + 4))) +
                         2 * (lo - 2),
                     2);
    const Rational y =
        k % 4 == 0 ? x
                   : Rational(static_cast<int64_t>(rng->Below(
                                  2 * (hi - lo + 4))) +
                                  2 * (lo - 2),
                              2);
    p->probes.push_back(Probe{{x, y}, member(x, y)});
  }
  const int64_t source = lo + (hi - lo) / 2;
  p->answer_probes = {Probe{{Rational(hi)}, true},
                      Probe{{Rational(source)}, false},
                      Probe{{Rational(2 * source + 1, 2)}, true},
                      Probe{{Rational(hi + 1)}, false}};
  return Parse(StrCat("tc(x, y) :- step(x, y).\n"
                      "tc(x, y) :- tc(x, z), step(z, y).\n"
                      "?- tc(",
                      source, ", y).\n"),
               p);
}

// Two disjoint paths; reach spreads from the minimal vertex (on path A),
// so exactly path B's vertices are unreached.
bool ConnectivityProgram(int half, Rng* rng, Program* p) {
  p->name = "conn_neg32";
  const std::vector<int64_t> a = Labels(half, 0, rng);
  const std::vector<int64_t> b = Labels(half, 1000, rng);
  std::vector<std::vector<Rational>> points = PathPoints(a);
  for (auto& edge : PathPoints(b)) points.push_back(edge);
  p->edb.SetRelation("edge", GeneralizedRelation::FromPoints(2, points));
  p->options.semantics = DatalogSemantics::kStratified;
  p->relation = "reach";
  p->expected_tuples = half;
  for (int k = 0; k < 4; ++k) {
    p->probes.push_back(Probe{{Rational(a[rng->Below(half)])}, true});
    p->probes.push_back(Probe{{Rational(b[rng->Below(half)])}, false});
  }
  p->expected_answer = half;
  p->answer_probes = {Probe{{Rational(b[0])}, true},
                      Probe{{Rational(a[half - 1])}, false}};
  return Parse(
      "vertex(x) :- edge(x, y).\n"
      "vertex(y) :- edge(x, y).\n"
      "link(x, y) :- edge(x, y).\n"
      "link(x, y) :- edge(y, x).\n"
      "smaller(x) :- vertex(x), vertex(y), y < x.\n"
      "reach(x) :- vertex(x), not smaller(x).\n"
      "reach(y) :- reach(x), link(x, y).\n"
      "unreached(x) :- vertex(x), not reach(x).\n"
      "?- unreached(x).\n",
      p);
}

bool BuildPrograms(const Options& options, std::vector<Program>* programs) {
  const Sizes sizes = SizesFor(options);
  Rng rng(StreamSeed(options.seed, 3));
  programs->assign(3, Program());
  return PathProgram(sizes.path, &rng, &(*programs)[0]) &&
         BoxesProgram(sizes.boxes, &rng, &(*programs)[1]) &&
         ConnectivityProgram(sizes.half, &rng, &(*programs)[2]);
}

bool ProbesHold(const GeneralizedRelation& rel,
                const std::vector<Probe>& probes) {
  for (const Probe& probe : probes) {
    if (rel.Contains(probe.point) != probe.member) return false;
  }
  return true;
}

bool FixpointMatches(const Program& p, const Database& idb) {
  const GeneralizedRelation* rel = idb.FindRelation(p.relation);
  if (rel == nullptr) return false;
  return rel->tuple_count() == p.expected_tuples &&
         ProbesHold(*rel, p.probes);
}

bool AnswerMatches(const Program& p, const GeneralizedRelation& answer) {
  if (p.expected_answer != 0 && answer.tuple_count() != p.expected_answer) {
    return false;
  }
  return ProbesHold(answer, p.answer_probes);
}

// One verified fixpoint plus its goal answer.
struct OpTiming {
  double evaluate_ms = 0.0;
  double answer_ms = 0.0;
  bool ok = false;
};

OpTiming RunOnce(const Program& p, int threads) {
  OpTiming t;
  DatalogOptions options = p.options;
  options.eval_options.num_threads = threads;
  DatalogEvaluator evaluator(p.parsed, &p.edb, options);
  Clock::time_point start = Clock::now();
  Result<Database> idb = evaluator.Evaluate();
  t.evaluate_ms = MillisSince(start);
  if (!idb.ok() || !FixpointMatches(p, idb.value())) return t;
  start = Clock::now();
  Result<GeneralizedRelation> answer =
      evaluator.Answer(p.parsed.queries[0], idb.value());
  t.answer_ms = MillisSince(start);
  t.ok = answer.ok() && AnswerMatches(p, answer.value());
  return t;
}

void TracedReplay(const std::vector<Program>& programs, const Options& options,
                  RunResult* result) {
  // Untraced pass: fixes how many round-robin operations the replay has.
  double untraced_total = 0.0;
  size_t ops = 0;
  const Clock::time_point deadline = DeadlineAfter(options.seconds / 3);
  while (Clock::now() < deadline || ops < programs.size()) {
    const OpTiming t = RunOnce(programs[ops % programs.size()], 0);
    untraced_total += t.evaluate_ms;
    ++ops;
    ++result->attempted;
    if (!t.ok) {
      ++result->failed;
      result->correct = false;
    }
  }

  // Traced pass over the same operations.
  Tracer tracer;
  CounterDelta counters;
  std::vector<double> evaluate_ms(programs.size(), 0.0);
  std::vector<double> runs(programs.size(), 0.0);
  std::vector<double> rounds(programs.size(), 0.0);
  double traced_total = 0.0;
  double request_total = 0.0;
  for (size_t i = 0; i < ops; ++i) {
    const size_t which = i % programs.size();
    const Program& p = programs[which];
    const uint64_t request = tracer.NewRequest();
    const uint64_t root = tracer.Open("request", 0, request);
    DatalogEvaluator evaluator(p.parsed, &p.edb, p.options);
    const uint64_t span = tracer.Open("datalog.evaluate", root, request);
    counters.Begin();
    const Result<Database> idb = evaluator.Evaluate();
    counters.End();
    const double ms = tracer.Close(span);
    evaluate_ms[which] += ms;
    runs[which] += 1;
    rounds[which] = static_cast<double>(evaluator.iterations());
    traced_total += ms;
    bool ok = InSpan(&tracer, "verify", root, request, [&] {
      return idb.ok() && FixpointMatches(p, idb.value());
    });
    if (ok) {
      Result<GeneralizedRelation> answer =
          InSpan(&tracer, "fo.evaluate", root, request, [&] {
            return evaluator.Answer(p.parsed.queries[0], idb.value());
          });
      ok = InSpan(&tracer, "verify", root, request, [&] {
        return answer.ok() && AnswerMatches(p, answer.value());
      });
    }
    request_total += tracer.Close(root);
    ++result->attempted;
    if (!ok) {
      ++result->failed;
      result->correct = false;
    }
  }

  // Parallel speedup: the same fixpoint at 1 thread and at the default,
  // alternating so drift hits both sides alike.
  const int reps = options.tiny ? 1 : 3;
  for (size_t which = 0; which < programs.size(); ++which) {
    std::vector<double> serial;
    std::vector<double> parallel;
    for (int r = 0; r < reps; ++r) {
      serial.push_back(RunOnce(programs[which], 1).evaluate_ms);
      parallel.push_back(RunOnce(programs[which], 0).evaluate_ms);
    }
    const std::string& name = programs[which].name;
    const double parallel_ms = Median(parallel);
    result->Set("core.parallel_speedup." + name,
                parallel_ms > 0 ? Median(serial) / parallel_ms : 0.0, "ratio");
    result->Set("datalog.evaluate_ms." + name,
                runs[which] > 0 ? evaluate_ms[which] / runs[which] : 0.0, "ms");
    result->Set("datalog.rounds." + name, rounds[which], "count");
  }

  const double n = static_cast<double>(ops);
  SetConstraintMetrics(result, counters.total(), n);
  result->Set("fo.evaluate_ms", tracer.TotalMs("fo.evaluate") / n, "ms");
  const double attributed = tracer.TotalMs("datalog.evaluate") +
                            tracer.TotalMs("fo.evaluate") +
                            tracer.TotalMs("verify");
  result->Set("trace.unattributed_frac",
              request_total > 0 ? (request_total - attributed) / request_total
                                : 0.0,
              "frac");
  result->Set("trace.overhead_frac",
              untraced_total > 0 ? traced_total / untraced_total - 1.0 : 0.0,
              "frac");
  result->Info("trace_requests", std::to_string(ops));
  const std::string path = StrCat(options.work_dir, "/spans-tc_fixpoint-",
                                  options.seed, ".jsonl");
  Status written = tracer.WriteJsonl(path);
  result->Info("trace_spans", written.ok() ? path : written.ToString());
}

}  // namespace

RunResult RunTcFixpoint(const Options& options) {
  RunResult result;
  std::vector<Program> programs;
  double setup_s = 0.0;
  // Set-up builds the inputs and runs every program once, so lazy state
  // (the thread pool, interned constants) is in place before timing.
  const bool set_up = TimedSetups(
      kSetupReps,
      [&] {
        if (!BuildPrograms(options, &programs)) return false;
        for (const Program& p : programs) {
          if (!RunOnce(p, 0).ok) {
            fprintf(stderr, "%s: warm-up fixpoint is wrong\n",
                    p.name.c_str());
            return false;
          }
        }
        return true;
      },
      [&] { programs.clear(); }, &setup_s);
  if (!set_up) {
    result.correct = false;
    return result;
  }
  result.Info("sizes",
              StrCat("path_vertices=", SizesFor(options).path,
                     " boxes=", SizesFor(options).boxes,
                     " conn_vertices=", 2 * SizesFor(options).half,
                     " threads=", DefaultNumThreads()));
  if (options.corrupt_reference) ++programs[0].expected_tuples;

  if (options.trace) {
    TracedReplay(programs, options, &result);
  } else {
    // Throughput comes from the median round-robin cycle, so a slow spell
    // of the host that covers less than half the run does not move it.
    LatencyLog fixpoints;
    LatencyLog answers;
    std::vector<double> cycle_s;
    const Clock::time_point deadline = DeadlineAfter(options.seconds);
    while (Clock::now() < deadline || cycle_s.empty()) {
      const Clock::time_point cycle_start = Clock::now();
      for (const Program& p : programs) {
        const OpTiming t = RunOnce(p, 0);
        ++result.attempted;
        if (!t.ok) {
          ++result.failed;
          result.correct = false;
          continue;
        }
        fixpoints.Add(t.evaluate_ms);
        answers.Add(t.answer_ms);
      }
      cycle_s.push_back(SecondsSince(cycle_start));
    }
    const double per_s =
        static_cast<double>(programs.size()) / Median(cycle_s);
    SetLatencyQuantiles(&result, "op", fixpoints);
    SetLatencyQuantiles(&result, "query", answers);
    result.Set("ops_per_s", per_s, "1/s");
    result.Set("query_per_s", per_s, "1/s");
  }
  result.Set("setup_s", setup_s, "s");
  return result;
}

}  // namespace e2e
}  // namespace dodb
