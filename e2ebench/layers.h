#ifndef DODB_E2EBENCH_LAYERS_H_
#define DODB_E2EBENCH_LAYERS_H_

// The metric tables: every end-to-end metric (untraced run) and every
// per-layer metric (traced run), with units. The harness prints each one on
// every workload; a per-layer metric whose layer a workload never calls
// reads 0 there.

#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace dodb {
namespace e2e {

struct MetricSpec {
  std::string name;
  std::string unit;
};

const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// The Datalog programs of tc_fixpoint, by metric suffix.
const std::vector<std::string>& FixpointProgramNames();

/// The constraints.* metrics from an EvalCounters delta, per operation.
void SetConstraintMetrics(RunResult* result, const EvalCounterSnapshot& delta,
                          double ops);

/// Accumulates EvalCounters deltas over a set of calls.
class CounterDelta {
 public:
  void Begin() { start_ = EvalCounters::Snapshot(); }
  void End() { Add(EvalCounters::Snapshot() - start_); }
  const EvalCounterSnapshot& total() const { return total_; }

 private:
  void Add(const EvalCounterSnapshot& d);

  EvalCounterSnapshot start_;
  EvalCounterSnapshot total_;
};

/// Re-issues the layer calls the server makes for one read, in-process
/// against `snapshot`, each inside its own span under `parent`: fo.parse
/// (ParseQuery + Analyze), fo.evaluate (FoEvaluator with the server's
/// default options and a fresh guard; its EvalCounters delta goes into
/// `counters`), fo.render (minimize + ToString) and server.encode
/// (EncodeResponse + DecodeResponse). Returns the rendered answer.
Result<std::string> ReissueRead(Tracer* tracer, uint64_t parent,
                                uint64_t request, const std::string& text,
                                const Database& snapshot,
                                CounterDelta* counters);

}  // namespace e2e
}  // namespace dodb

#endif  // DODB_E2EBENCH_LAYERS_H_
