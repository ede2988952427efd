#include "layers.h"

#include <algorithm>

namespace dodb {
namespace e2e {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},          {"peak_rss_mb", "MiB"},
      {"ok_frac", "frac"},       {"op_p50_ms", "ms"},
      {"op_p90_ms", "ms"},       {"ops_per_s", "1/s"},
      {"query_p50_ms", "ms"},    {"query_p90_ms", "ms"},
      {"query_per_s", "1/s"},
  };
  return kMetrics;
}

const std::vector<std::string>& FixpointProgramNames() {
  static const std::vector<std::string> kNames = {"tc_path64", "tc_boxes32",
                                                  "conn_neg32"};
  return kNames;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = [] {
    std::vector<MetricSpec> m = {
        {"server.round_trip_ms", "ms"},
        {"server.encode_ms", "ms"},
        {"server.unattributed_ms", "ms"},
        {"fo.parse_ms", "ms"},
        {"fo.evaluate_ms", "ms"},
        {"fo.render_ms", "ms"},
        {"constraints.canonicalized", "count"},
        {"constraints.closure_memo_hit_frac", "frac"},
        {"constraints.subsumption_checks", "count"},
        {"constraints.atoms_per_tuple", "count"},
        {"constraints.pairs_considered", "count"},
        {"constraints.pairs_pruned_frac", "frac"},
        {"constraints.shard_pairs_pruned_frac", "frac"},
        {"constraints.index_builds", "count"},
        {"constraints.index_build_ms", "ms"},
        {"constraints.index_probe_ms", "ms"},
        {"datalog.view_maintain_ms", "ms"},
        {"datalog.view_delta_tuples", "count"},
        {"datalog.view_full_recomputes", "count"},
        {"txn.begin_ms", "ms"},
        {"txn.commit_ms", "ms"},
        {"txn.snapshot_ms", "ms"},
        {"txn.conflict_frac", "frac"},
        {"io.command_ms", "ms"},
        {"storage.fsyncs_per_write", "count"},
        {"storage.wal_bytes_per_write", "B"},
        {"storage.write_amp", "ratio"},
        {"trace.unattributed_frac", "frac"},
        {"trace.overhead_frac", "frac"},
    };
    for (const std::string& program : FixpointProgramNames()) {
      m.push_back({"datalog.evaluate_ms." + program, "ms"});
      m.push_back({"datalog.rounds." + program, "count"});
      m.push_back({"core.parallel_speedup." + program, "ratio"});
    }
    return m;
  }();
  return kMetrics;
}

namespace {

double Ratio(uint64_t num, uint64_t den) {
  if (den == 0) return 0.0;
  return std::min(1.0, static_cast<double>(num) / static_cast<double>(den));
}

}  // namespace

void SetConstraintMetrics(RunResult* result, const EvalCounterSnapshot& d,
                          double ops) {
  auto per_op = [ops](double v) { return ops > 0 ? v / ops : 0.0; };
  result->Set("constraints.canonicalized",
              per_op(static_cast<double>(d.canonicalized)), "count");
  result->Set("constraints.closure_memo_hit_frac",
              Ratio(d.closure_memo_hits, d.canonicalized), "frac");
  result->Set("constraints.subsumption_checks",
              per_op(static_cast<double>(d.subsumption_checks)), "count");
  result->Set("constraints.atoms_per_tuple",
              d.canonical_forms == 0
                  ? 0.0
                  : static_cast<double>(d.canonical_atoms) /
                        static_cast<double>(d.canonical_forms),
              "count");
  result->Set("constraints.pairs_considered",
              per_op(static_cast<double>(d.pairs_considered)), "count");
  result->Set("constraints.pairs_pruned_frac",
              Ratio(d.pairs_pruned, d.pairs_considered), "frac");
  result->Set("constraints.shard_pairs_pruned_frac",
              Ratio(d.shard_pairs_pruned, d.shard_pairs_considered), "frac");
  result->Set("constraints.index_builds",
              per_op(static_cast<double>(d.index_builds)), "count");
  result->Set("constraints.index_build_ms",
              per_op(static_cast<double>(d.index_build_ns) / 1e6), "ms");
  result->Set("constraints.index_probe_ms",
              per_op(static_cast<double>(d.index_probe_ns) / 1e6), "ms");
}

Result<std::string> ReissueRead(Tracer* tracer, uint64_t parent,
                                uint64_t request, const std::string& text,
                                const Database& snapshot,
                                CounterDelta* counters) {
  const server::ServerConfig config;
  Result<Query> query = InSpan(tracer, "fo.parse", parent, request, [&] {
    Result<Query> parsed = FoParser::ParseQuery(text);
    if (parsed.ok()) {
      Result<QueryAnalysis> analysis = Analyze(parsed.value(), &snapshot);
      if (!analysis.ok()) return Result<Query>(analysis.status());
    }
    return parsed;
  });
  if (!query.ok()) return query.status();
  QueryGuard guard(config.session_limits);
  EvalOptions eval_options = config.eval_options;
  eval_options.guard = &guard;
  Result<GeneralizedRelation> out =
      InSpan(tracer, "fo.evaluate", parent, request, [&] {
        counters->Begin();
        FoEvaluator evaluator(&snapshot, eval_options);
        Result<GeneralizedRelation> r = evaluator.Evaluate(query.value());
        counters->End();
        return r;
      });
  if (!out.ok()) return out.status();
  server::Response response;
  std::string rendered = InSpan(tracer, "fo.render", parent, request, [&] {
    if (query.value().head.empty()) {
      response.message = out.value().IsEmpty() ? "false" : "true";
      return response.message;
    }
    response.has_relation = true;
    response.relation = MinimizeRelation(out.value());
    response.head = query.value().head;
    return response.relation.ToString(&response.head);
  });
  Result<server::Response> decoded =
      InSpan(tracer, "server.encode", parent, request, [&] {
        return server::DecodeResponse(server::EncodeResponse(response));
      });
  if (!decoded.ok()) return decoded.status();
  return rendered;
}

void CounterDelta::Add(const EvalCounterSnapshot& d) {
  total_.pairs_considered += d.pairs_considered;
  total_.pairs_pruned += d.pairs_pruned;
  total_.canonicalized += d.canonicalized;
  total_.subsumption_checks += d.subsumption_checks;
  total_.index_builds += d.index_builds;
  total_.index_build_ns += d.index_build_ns;
  total_.index_probe_ns += d.index_probe_ns;
  total_.shard_pairs_considered += d.shard_pairs_considered;
  total_.shard_pairs_pruned += d.shard_pairs_pruned;
  total_.closure_memo_hits += d.closure_memo_hits;
  total_.storage_bytes_written += d.storage_bytes_written;
  total_.storage_fsyncs += d.storage_fsyncs;
  total_.canonical_forms += d.canonical_forms;
  total_.canonical_atoms += d.canonical_atoms;
  total_.view_delta_tuples += d.view_delta_tuples;
  total_.view_full_recomputes += d.view_full_recomputes;
  total_.view_maintenance_ns += d.view_maintenance_ns;
}

}  // namespace e2e
}  // namespace dodb
