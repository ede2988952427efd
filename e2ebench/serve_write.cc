// serve_write: durable writes beside a live materialized view.
//
// The server runs WAL-durable (kWal: every commit is logged and fsynced
// before it is acknowledged; no checkpoints). The catalog is a forest of
// chains in `edge` and a materialized transitive-closure view `reach` over
// it. Two writer connections run single-statement transactions that delete
// an edge of one of their own chains and then re-insert it, so the state
// returns to the start after every cycle and the runs stay steady. Both
// writers write `edge`, so today's relation-level validation makes them
// conflict; the harness retries kTxnConflict after a seeded backoff, and a
// write is timed from its first begin to the acknowledged commit, retries
// included. Two reader connections query `reach` one chain at a time.
// io (DML), txn (validation, commit, publish), storage (WAL) and datalog
// (view maintenance) do most of the work.
//
// Checks: each read must equal a state its chain passed through (the full
// chain, or the chain minus the one edge its writer had deleted at an
// overlapping time), and after the run a cold StorageEngine::Open of the
// WAL directory must reproduce the live catalog bit for bit.

#include <unistd.h>

#include <filesystem>
#include <memory>
#include <mutex>
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

constexpr char kReachProgram[] =
    "reach(x, y) :- edge(x, y). reach(x, z) :- reach(x, y), edge(y, z).";
constexpr int kWriters = 2;
constexpr int kReaders = 2;

struct Forest {
  int chains;
  int length;  // vertices per chain
  std::vector<int64_t> base;  // first vertex of each chain

  int64_t Vertex(int chain, int j) const { return base[chain] + j; }
};

Forest MakeForest(const Options& options) {
  Forest forest;
  forest.chains = options.tiny ? 4 : 24;
  forest.length = options.tiny ? 4 : 8;
  Rng rng(StreamSeed(options.seed, 4));
  int64_t next = static_cast<int64_t>(rng.Below(8));
  for (int c = 0; c < forest.chains; ++c) {
    forest.base.push_back(next);
    next += forest.length + 1 + static_cast<int64_t>(rng.Below(4));
  }
  return forest;
}

std::string EdgeFormula(int64_t a, int64_t b) {
  return StrCat("x0 = ", a, " and x1 = ", b);
}

std::string DeleteText(const Forest& f, int chain, int j) {
  return StrCat("delete from edge where ",
                EdgeFormula(f.Vertex(chain, j), f.Vertex(chain, j + 1)));
}

std::string InsertText(const Forest& f, int chain, int j) {
  return StrCat("insert into edge ",
                EdgeFormula(f.Vertex(chain, j), f.Vertex(chain, j + 1)));
}

std::string ReadText(const Forest& f, int chain) {
  return StrCat("{ (x, y) | reach(x, y) and x >= ", f.Vertex(chain, 0),
                " and x <= ", f.Vertex(chain, f.length - 1), " }");
}

// The answer of ReadText(chain) when edge `cut` (0-based, -1 = none) is
// missing: pairs i < k inside one surviving segment.
Result<std::string> ChainAnswer(const Forest& f, int chain, int cut) {
  std::vector<std::vector<Rational>> points;
  for (int i = 0; i < f.length; ++i) {
    for (int k = i + 1; k < f.length; ++k) {
      if (cut >= 0 && i <= cut && k > cut) continue;
      points.push_back({Rational(f.Vertex(chain, i)),
                        Rational(f.Vertex(chain, k))});
    }
  }
  Database db;
  db.SetRelation("reach", GeneralizedRelation::FromPoints(2, points));
  return ReferenceAnswer(db, ReadText(f, chain));
}

storage::StorageOptions WalOptions(ViewRegistry* views) {
  storage::StorageOptions options;
  options.mode = storage::DurabilityMode::kWal;
  options.wal_sync_every = 1;
  options.view_hooks.list = [views] {
    std::vector<std::pair<std::string, std::string>> defs;
    for (const MaterializedView* view : views->Views()) {
      defs.emplace_back(view->name(), view->text());
    }
    return defs;
  };
  options.view_hooks.restore = [views](const std::string& name,
                                       const std::string& text) {
    return views->Restore(name, text);
  };
  options.view_hooks.restore_drop = [views](const std::string& name) {
    return views->RestoreDrop(name);
  };
  return options;
}

// A durable catalog holding the forest and the reach view: the live
// server's, or the replica the traced replay re-issues writes against.
// Members are destroyed in reverse order, the engine before the catalog.
struct Durable {
  std::string dir;
  Database db;
  ViewRegistry views;
  std::unique_ptr<storage::StorageEngine> engine;

  Durable() = default;
  Durable(const Durable&) = delete;
  Durable& operator=(const Durable&) = delete;
  ~Durable() {
    engine.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

bool OpenDurable(const std::string& dir, const Forest& forest,
                 Durable* d) {
  std::filesystem::remove_all(dir);
  d->dir = dir;
  auto opened = storage::StorageEngine::Open(dir, &d->db, WalOptions(&d->views));
  if (!opened.ok()) {
    fprintf(stderr, "open %s: %s\n", dir.c_str(),
            opened.status().ToString().c_str());
    return false;
  }
  d->engine = std::move(opened).value();
  std::string edges;
  for (int c = 0; c < forest.chains; ++c) {
    for (int j = 0; j + 1 < forest.length; ++j) {
      if (!edges.empty()) edges += " or ";
      edges += StrCat("(",
                      EdgeFormula(forest.Vertex(c, j), forest.Vertex(c, j + 1)),
                      ")");
    }
  }
  for (const std::string& command :
       {std::string("create edge(2)"), "insert into edge " + edges}) {
    Result<std::string> done =
        ExecuteCommand(&d->db, command, d->engine.get(), &d->views);
    if (!done.ok()) {
      fprintf(stderr, "%s: %s\n", command.c_str(),
              done.status().ToString().c_str());
      return false;
    }
  }
  Result<const MaterializedView*> view =
      d->views.Create("reach", kReachProgram, &d->db);
  if (!view.ok() || !d->engine->LogViewCreate("reach", kReachProgram).ok()) {
    fprintf(stderr, "cannot materialize reach\n");
    return false;
  }
  return true;
}

struct WriteSetup {
  Forest forest;
  Durable live;
  std::unique_ptr<DodbServer> server;
  std::vector<std::unique_ptr<DodbClient>> clients;  // writers, then readers
  // expected[chain][cut + 1]: the read's answer with edge `cut` missing.
  std::vector<std::vector<std::string>> expected;
};

bool SetUp(const Options& options, int rep, WriteSetup* s) {
  s->forest = MakeForest(options);
  const std::string dir = StrCat(options.work_dir, "/serve_write-", getpid(),
                                 "-", rep);
  if (!OpenDurable(dir, s->forest, &s->live)) return false;
  s->server = std::make_unique<DodbServer>(&s->live.db, s->live.engine.get(),
                                           &s->live.views, ServerConfig{});
  Status started = s->server->Start();
  if (!started.ok()) {
    fprintf(stderr, "server start: %s\n", started.ToString().c_str());
    return false;
  }
  ClientOptions client_options;
  client_options.port = s->server->port();
  for (int c = 0; c < kWriters + kReaders; ++c) {
    s->clients.push_back(std::make_unique<DodbClient>(client_options));
    if (!s->clients.back()->Connect().ok()) return false;
  }
  s->expected.assign(s->forest.chains, {});
  for (int c = 0; c < s->forest.chains; ++c) {
    for (int cut = -1; cut + 1 < s->forest.length; ++cut) {
      Result<std::string> answer = ChainAnswer(s->forest, c, cut);
      if (!answer.ok()) return false;
      s->expected[c].push_back(std::move(answer).value());
    }
  }
  return true;
}

// Which cut (-1 = none) a read's answer shows; -2 when it matches no state
// the chain can be in.
int MatchState(const WriteSetup& s, int chain, const std::string& text) {
  const std::vector<std::string>& states = s.expected[chain];
  for (size_t k = 0; k < states.size(); ++k) {
    if (states[k] == text) return static_cast<int>(k) - 1;
  }
  return -2;
}

struct Window {
  Clock::time_point from;
  Clock::time_point to;
};

// What the concurrent phase records for the checks and the metrics.
struct LoopOutcome {
  LatencyLog writes;
  LatencyLog reads;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t commit_attempts = 0;
  uint64_t conflicts = 0;
  double elapsed_s = 0.0;
  std::string first_error;  // what the first failed operation saw

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

// One write: a single-statement transaction, retried on kTxnConflict after
// a seeded backoff of 0-0.5 ms. The backoff stays short and flat on purpose:
// the writer that won has already begun its next transaction, so a growing
// backoff only hands it the next race too, and the loser's latency tail
// then depends on chance streaks rather than on the engine.
//
// `edges_mu` keeps a begin from landing while another writer's commit is
// being published: the engine bumps the generation before it installs the
// new snapshot, so a transaction begun in between pins the old snapshot
// under the new generation, passes validation and loses the other commit's
// update (README.md, "Known engine defects"). Holding the lock over both
// calls keeps that window closed; the buffered statements still overlap,
// so writers still conflict.
Status Write(DodbClient* client, const std::string& text, std::mutex* edges_mu,
             Rng* rng, uint64_t* commit_attempts, uint64_t* conflicts) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    Result<std::string> begun = [&] {
      std::lock_guard<std::mutex> lock(*edges_mu);
      return client->Begin();
    }();
    if (!begun.ok()) return begun.status();
    Result<std::string> buffered = client->Command(text);
    if (!buffered.ok()) {
      (void)client->AbortTxn();
      return buffered.status();
    }
    ++*commit_attempts;
    Result<std::string> committed = [&] {
      std::lock_guard<std::mutex> lock(*edges_mu);
      return client->CommitTxn();
    }();
    if (committed.ok()) return Status::Ok();
    if (committed.status().code() != StatusCode::kTxnConflict) {
      return committed.status();
    }
    ++*conflicts;
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(rng->Below(500))));
  }
  return Status::Unavailable("no commit after 200 conflicts");
}

LoopOutcome ClosedLoop(WriteSetup* s, const Options& options, double seconds,
                       std::vector<std::vector<Window>>* cut_windows) {
  const Forest& f = s->forest;
  std::vector<LoopOutcome> per(kWriters + kReaders);
  std::mutex edges_mu;
  std::mutex windows_mu;
  struct ReadSeen {
    int chain;
    int cut;
    Window window;
  };
  std::vector<std::vector<ReadSeen>> seen(kReaders);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = DeadlineAfter(seconds);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(StreamSeed(options.seed, 200 + w));
      LoopOutcome& mine = per[w];
      DodbClient* client = s->clients[w].get();
      const int owned = (f.chains - w + kWriters - 1) / kWriters;
      while (Clock::now() < deadline) {
        const int chain = w + kWriters * static_cast<int>(rng.Below(owned));
        const int j = static_cast<int>(rng.Below(f.length - 1));
        const Clock::time_point cut_from = Clock::now();
        const std::string deletion = DeleteText(f, chain, j);
        Status done = Write(client, deletion, &edges_mu, &rng,
                            &mine.commit_attempts, &mine.conflicts);
        mine.writes.Add(MillisSince(cut_from), SecondsSince(start));
        ++mine.attempted;
        if (!done.ok()) {
          mine.Fail(deletion + ": " + done.ToString());
          continue;
        }
        // The re-insert always runs, past the deadline too, so every
        // cycle ends where it began.
        const Clock::time_point sent = Clock::now();
        const std::string insertion = InsertText(f, chain, j);
        done = Write(client, insertion, &edges_mu, &rng,
                     &mine.commit_attempts, &mine.conflicts);
        mine.writes.Add(MillisSince(sent), SecondsSince(start));
        ++mine.attempted;
        if (!done.ok()) mine.Fail(insertion + ": " + done.ToString());
        std::lock_guard<std::mutex> lock(windows_mu);
        (*cut_windows)[chain * f.length + j].push_back(
            Window{cut_from, Clock::now()});
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(StreamSeed(options.seed, 300 + r));
      LoopOutcome& mine = per[kWriters + r];
      DodbClient* client = s->clients[kWriters + r].get();
      while (Clock::now() < deadline) {
        const int chain = static_cast<int>(rng.Below(f.chains));
        const Clock::time_point sent = Clock::now();
        Result<QueryResult> answer = client->Query(ReadText(f, chain));
        const Clock::time_point received = Clock::now();
        mine.reads.Add(MillisSince(sent), SecondsSince(start));
        ++mine.attempted;
        if (!answer.ok()) {
          mine.Fail(answer.status().ToString());
          continue;
        }
        const int cut = MatchState(*s, chain, answer.value().text);
        if (cut == -2) {
          ++mine.wrong;
          mine.Fail(StrCat("chain ", chain, " read matches no state: ",
                           answer.value().text));
        } else if (cut >= 0) {
          seen[r].push_back(ReadSeen{chain, cut, Window{sent, received}});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopOutcome total;
  total.elapsed_s = SecondsSince(start);
  for (const LoopOutcome& o : per) {
    total.writes.Append(o.writes);
    total.reads.Append(o.reads);
    total.attempted += o.attempted;
    total.failed += o.failed;
    total.wrong += o.wrong;
    total.commit_attempts += o.commit_attempts;
    total.conflicts += o.conflicts;
    if (total.first_error.empty()) total.first_error = o.first_error;
  }
  // A read that saw an edge missing must overlap a time its writer had
  // that edge deleted.
  for (const auto& reads : seen) {
    for (const ReadSeen& read : reads) {
      bool overlaps = false;
      for (const Window& cut : (*cut_windows)[read.chain * f.length + read.cut]) {
        if (cut.from <= read.window.to && read.window.from <= cut.to) {
          overlaps = true;
          break;
        }
      }
      if (!overlaps) {
        ++total.wrong;
        total.Fail(StrCat("chain ", read.chain, " read saw edge ", read.cut,
                          " missing outside every window that deleted it"));
      }
    }
  }
  return total;
}

std::vector<uint8_t> Encode(const GeneralizedRelation& rel) {
  storage::ByteWriter writer;
  writer.PutRelationPayload(rel);
  return writer.Take();
}

// Closes the live engine, recovers the WAL directory cold into a fresh
// catalog and compares every relation's binary encoding with the live one.
bool RecoveryMatches(WriteSetup* s, std::string* detail) {
  s->clients.clear();
  s->server.reset();
  Status closed = s->live.engine->Close();
  s->live.engine.reset();
  if (!closed.ok()) {
    *detail = "close: " + closed.ToString();
    return false;
  }
  Database recovered;
  ViewRegistry views;
  auto opened = storage::StorageEngine::Open(s->live.dir, &recovered,
                                             WalOptions(&views));
  if (!opened.ok()) {
    *detail = "reopen: " + opened.status().ToString();
    return false;
  }
  Status refreshed = views.RefreshStale(&recovered);
  if (!refreshed.ok()) {
    *detail = "refresh: " + refreshed.ToString();
    return false;
  }
  const std::vector<std::string> names = s->live.db.RelationNames();
  if (recovered.RelationNames() != names) {
    *detail = "relation names differ";
    return false;
  }
  for (const std::string& name : names) {
    const GeneralizedRelation& got = *recovered.FindRelation(name);
    const GeneralizedRelation& want = *s->live.db.FindRelation(name);
    if (Encode(got) != Encode(want)) {
      const GeneralizedRelation lost = StructuralTupleDifference(want, got);
      const GeneralizedRelation extra = StructuralTupleDifference(got, want);
      *detail = StrCat("relation '", name, "' differs: live ",
                       want.tuple_count(), " tuples, recovered ",
                       got.tuple_count(), " (edge: live ",
                       s->live.db.FindRelation("edge")->tuple_count(),
                       ", recovered ", recovered.FindRelation("edge")->tuple_count(),
                       ", stale ", views.Find("reach")->stale(),
                       ")); only live ", lost.ToString(),
                       "; only recovered ", extra.ToString());
      return false;
    }
  }
  *detail = StrCat("ok (", opened.value()->recovery().records_replayed,
                   " WAL records replayed)");
  return true;
}

// The traced replay: one generated sequence of writes and reads issued on
// one connection, first untraced and then traced. Each traced request's
// layer calls are re-issued in-process against a replica durable catalog
// that has seen the same history, each inside its own span.
void TracedReplay(WriteSetup* s, const Options& options, double seconds,
                  RunResult* result) {
  const Forest& f = s->forest;
  DodbClient* client = s->clients[0].get();
  struct Op {
    bool write;
    std::string text;
    int chain;
    int cut;  // for reads: the expected missing edge (-1 = none)
  };
  // Cycles of delete, read, re-insert, read; the first read of a cycle
  // sometimes lands on the cut chain.
  Rng rng(StreamSeed(options.seed, 400));
  std::vector<Op> ops;
  auto add_cycle = [&] {
    const int chain = static_cast<int>(rng.Below(f.chains));
    const int j = static_cast<int>(rng.Below(f.length - 1));
    const int read1 = rng.Below(2) == 0 ? chain
                                        : static_cast<int>(rng.Below(f.chains));
    const int read2 = static_cast<int>(rng.Below(f.chains));
    ops.push_back(Op{true, DeleteText(f, chain, j), chain, -1});
    ops.push_back(Op{false, ReadText(f, read1), read1, read1 == chain ? j : -1});
    ops.push_back(Op{true, InsertText(f, chain, j), chain, -1});
    ops.push_back(Op{false, ReadText(f, read2), read2, -1});
  };

  // Untraced pass: sizes the sequence by time, whole cycles only.
  std::vector<double> untraced_rt;
  auto issue = [&](const Op& op, std::vector<double>* round_trips,
                   Tracer* tracer, uint64_t root, uint64_t request) {
    auto call = [&](auto&& fn) {
      const uint64_t span =
          tracer ? tracer->Open("server.round_trip", root, request) : 0;
      const Clock::time_point sent = Clock::now();
      auto out = fn();
      round_trips->push_back(tracer ? tracer->Close(span) : MillisSince(sent));
      return out;
    };
    if (op.write) {
      bool ok = call([&] { return client->Begin().ok(); });
      ok = ok && call([&] { return client->Command(op.text).ok(); });
      ok = ok && call([&] { return client->CommitTxn().ok(); });
      return std::make_pair(ok, std::string());
    }
    Result<QueryResult> answer = call([&] { return client->Query(op.text); });
    const bool ok = answer.ok() &&
                    answer.value().text == s->expected[op.chain][op.cut + 1];
    return std::make_pair(ok, answer.ok() ? answer.value().text : "");
  };
  const Clock::time_point deadline = DeadlineAfter(seconds / 2);
  while (Clock::now() < deadline || ops.empty()) {
    const size_t first = ops.size();
    add_cycle();
    for (size_t i = first; i < ops.size(); ++i) {
      ++result->attempted;
      if (!issue(ops[i], &untraced_rt, nullptr, 0, 0).first) {
        ++result->failed;
        result->correct = false;
      }
    }
  }

  Durable replica;
  if (!OpenDurable(StrCat(options.work_dir, "/serve_write-replica-", getpid()),
                   f, &replica)) {
    result->correct = false;
    return;
  }
  txn::TransactionManager manager(&replica.db, replica.engine.get(),
                                  &replica.views);

  Tracer tracer;
  CounterDelta read_counters;
  CounterDelta write_counters;
  std::vector<double> traced_rt;
  double dml_bytes = 0.0;
  double writes = 0.0;
  double reads = 0.0;
  for (const Op& op : ops) {
    const uint64_t request = tracer.NewRequest();
    const uint64_t root = tracer.Open("request", 0, request);
    auto [ok, live_text] = issue(op, &traced_rt, &tracer, root, request);
    if (op.write) {
      writes += 1;
      dml_bytes += static_cast<double>(op.text.size());
      std::unique_ptr<txn::Transaction> txn = InSpan(
          &tracer, "txn.begin", root, request, [&] { return manager.Begin(); });
      Result<std::string> buffered =
          InSpan(&tracer, "io.command", root, request,
                 [&] { return manager.ExecuteBuffered(txn.get(), op.text); });
      Status committed = InSpan(&tracer, "txn.commit", root, request, [&] {
        write_counters.Begin();
        Status st = manager.Commit(std::move(txn));
        write_counters.End();
        return st;
      });
      ok = ok && buffered.ok() && committed.ok();
    } else {
      reads += 1;
      std::shared_ptr<const Database> snapshot =
          InSpan(&tracer, "txn.snapshot", root, request,
                 [&] { return manager.current_snapshot(); });
      Result<std::string> text = ReissueRead(&tracer, root, request, op.text,
                                             *snapshot, &read_counters);
      ok = ok && text.ok() && text.value() == live_text;
    }
    tracer.Close(root);
    ++result->attempted;
    if (!ok) {
      ++result->failed;
      result->correct = false;
    }
  }

  double round_trips = 0.0;
  for (double ms : traced_rt) round_trips += ms;
  const double attributed =
      tracer.TotalMs("txn.begin") + tracer.TotalMs("io.command") +
      tracer.TotalMs("txn.commit") + tracer.TotalMs("txn.snapshot") +
      tracer.TotalMs("fo.parse") + tracer.TotalMs("fo.evaluate") +
      tracer.TotalMs("fo.render") + tracer.TotalMs("server.encode");
  const double n = static_cast<double>(ops.size());
  const double calls = static_cast<double>(traced_rt.size());
  result->Set("server.round_trip_ms", round_trips / calls, "ms");
  result->Set("server.unattributed_ms", (round_trips - attributed) / n, "ms");
  result->Set("server.encode_ms", tracer.TotalMs("server.encode") / reads,
              "ms");
  result->Set("fo.parse_ms", tracer.TotalMs("fo.parse") / reads, "ms");
  result->Set("fo.evaluate_ms", tracer.TotalMs("fo.evaluate") / reads, "ms");
  result->Set("fo.render_ms", tracer.TotalMs("fo.render") / reads, "ms");
  result->Set("txn.snapshot_ms", tracer.TotalMs("txn.snapshot") / reads, "ms");
  result->Set("txn.begin_ms", tracer.TotalMs("txn.begin") / writes, "ms");
  result->Set("txn.commit_ms", tracer.TotalMs("txn.commit") / writes, "ms");
  result->Set("io.command_ms", tracer.TotalMs("io.command") / writes, "ms");

  const EvalCounterSnapshot& w = write_counters.total();
  result->Set("datalog.view_maintain_ms",
              static_cast<double>(w.view_maintenance_ns) / 1e6 / writes, "ms");
  result->Set("datalog.view_delta_tuples",
              static_cast<double>(w.view_delta_tuples) / writes, "count");
  result->Set("datalog.view_full_recomputes",
              static_cast<double>(w.view_full_recomputes) / writes, "count");
  result->Set("storage.fsyncs_per_write",
              static_cast<double>(w.storage_fsyncs) / writes, "count");
  result->Set("storage.wal_bytes_per_write",
              static_cast<double>(w.storage_bytes_written) / writes, "B");
  result->Set("storage.write_amp",
              static_cast<double>(w.storage_bytes_written) / dml_bytes,
              "ratio");
  EvalCounterSnapshot all = read_counters.total();
  all.canonicalized += w.canonicalized;
  all.closure_memo_hits += w.closure_memo_hits;
  all.subsumption_checks += w.subsumption_checks;
  all.canonical_forms += w.canonical_forms;
  all.canonical_atoms += w.canonical_atoms;
  all.pairs_considered += w.pairs_considered;
  all.pairs_pruned += w.pairs_pruned;
  all.shard_pairs_considered += w.shard_pairs_considered;
  all.shard_pairs_pruned += w.shard_pairs_pruned;
  all.index_builds += w.index_builds;
  all.index_build_ns += w.index_build_ns;
  all.index_probe_ns += w.index_probe_ns;
  SetConstraintMetrics(result, all, n);
  result->Set("trace.unattributed_frac",
              round_trips > 0 ? (round_trips - attributed) / round_trips : 0.0,
              "frac");
  const double untraced_p50 = Median(untraced_rt);
  result->Set("trace.overhead_frac",
              untraced_p50 > 0 ? Median(traced_rt) / untraced_p50 - 1.0 : 0.0,
              "frac");
  result->Info("trace_requests",
               StrCat(ops.size(), " (", writes, " writes, ", reads, " reads)"));
  const std::string path = StrCat(options.work_dir, "/spans-serve_write-",
                                  options.seed, ".jsonl");
  Status written = tracer.WriteJsonl(path);
  result->Info("trace_spans", written.ok() ? path : written.ToString());
}

}  // namespace

RunResult RunServeWrite(const Options& options) {
  RunResult result;
  std::unique_ptr<WriteSetup> setup;
  int rep = 0;
  double setup_s = 0.0;
  const bool set_up = TimedSetups(
      kSetupReps,
      [&] {
        setup = std::make_unique<WriteSetup>();
        return SetUp(options, rep++, setup.get());
      },
      [&] { setup.reset(); }, &setup_s);
  if (!set_up) {
    result.correct = false;
    return result;
  }
  const Forest& f = setup->forest;
  result.Info("sizes", StrCat("chains=", f.chains, " chain_vertices=", f.length,
                              " edges=", f.chains * (f.length - 1),
                              " reach=",
                              setup->live.db.FindRelation("reach")->tuple_count(),
                              " writers=", kWriters, " readers=", kReaders,
                              " durability=kWal fsync_every_commit"));
  if (options.corrupt_reference) {
    // The full-chain answer of the first chain reader 0 reads.
    Rng rng(StreamSeed(options.seed, 300));
    setup->expected[rng.Below(f.chains)][0] += " ";
  }

  std::vector<std::vector<Window>> cut_windows(f.chains * f.length);
  const double loop_seconds = options.trace ? options.seconds / 3
                                            : options.seconds;
  LoopOutcome loop = ClosedLoop(setup.get(), options, loop_seconds,
                                &cut_windows);
  result.attempted = loop.attempted;
  result.failed = loop.failed;
  result.correct = loop.wrong == 0;
  const double conflict_frac =
      loop.commit_attempts > 0
          ? static_cast<double>(loop.conflicts) /
                static_cast<double>(loop.commit_attempts)
          : 0.0;
  if (options.trace) {
    result.Set("txn.conflict_frac", conflict_frac, "frac");
    TracedReplay(setup.get(), options, options.seconds / 3, &result);
  } else {
    SetLatencyQuantiles(&result, "op", loop.writes);
    SetLatencyQuantiles(&result, "query", loop.reads);
    result.Set("ops_per_s", loop.writes.MedianWindowRate(loop.elapsed_s),
               "1/s");
    result.Set("query_per_s", loop.reads.MedianWindowRate(loop.elapsed_s),
               "1/s");
  }
  if (!loop.first_error.empty()) result.Info("first_error", loop.first_error);
  result.Info("conflicts",
              StrCat(loop.conflicts, " of ", loop.commit_attempts,
                     " commit attempts (",
                     loop.writes.count() > 0
                         ? static_cast<double>(loop.conflicts) /
                               static_cast<double>(loop.writes.count())
                         : 0.0,
                     " per write)"));
  std::string detail;
  const bool recovered = RecoveryMatches(setup.get(), &detail);
  result.Info("recovery", detail);
  if (!recovered) result.correct = false;
  result.Set("setup_s", setup_s, "s");
  setup.reset();
  return result;
}

}  // namespace e2e
}  // namespace dodb
