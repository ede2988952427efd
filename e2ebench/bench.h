#ifndef DODB_E2EBENCH_BENCH_H_
#define DODB_E2EBENCH_BENCH_H_

// Shared pieces of the end-to-end benchmark harness: run options, the
// result every workload fills in, latency logs and small timing helpers.
// The harness drives dodb only through its public headers.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dodb/dodb.h"

namespace dodb {
namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 20.0;
  /// false: the untraced run, end-to-end metrics. true: the traced replay,
  /// per-layer metrics.
  bool trace = false;
  /// Smoke-test sizes: every workload shrinks to a few tuples.
  bool tiny = false;
  /// Verifier self-test: one reference answer is deliberately wrong, so a
  /// working verifier must report the run incorrect.
  bool corrupt_reference = false;
  /// Scratch directory for WAL data and span files (inside the checkout).
  std::string work_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `failed` counts operations that errored
/// or returned a wrong answer; `correct` is false when any answer was wrong
/// or a recovery check failed.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Extra lines printed ahead of the result (sizes, tails, diagnostics).
  std::vector<std::pair<std::string, std::string>> info;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
};

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline Clock::time_point DeadlineAfter(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Latency samples in milliseconds, each with the time it completed
/// (seconds since the measured phase began).
class LatencyLog {
 public:
  void Add(double ms, double done_s = 0.0) {
    samples_.push_back(ms);
    done_s_.push_back(done_s);
  }
  void Append(const LatencyLog& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    done_s_.insert(done_s_.end(), other.done_s_.begin(), other.done_s_.end());
  }
  size_t count() const { return samples_.size(); }
  /// Linear-interpolated quantile q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  /// Throughput as the median, over the whole one-second windows of
  /// [0, elapsed_s), of the operations completed in each. A slow spell of
  /// the host that covers less than half the run does not move it.
  double MedianWindowRate(double elapsed_s) const;

 private:
  std::vector<double> samples_;
  std::vector<double> done_s_;
};

double Median(std::vector<double> values);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// ok_frac = 1 - error_frac, guarded against an empty run.
double OkFrac(uint64_t attempted, uint64_t failed);

/// Sets <family>_p50_ms and <family>_p90_ms, and an info line with the
/// sample count and the p99 and maximum for readers. p90 is the tail the
/// metrics carry: it is the highest percentile with at least ten samples
/// beyond it on every workload (tc_fixpoint completes under 200 fixpoints
/// in a run), and it is steadier than p99 on a shared host.
void SetLatencyQuantiles(RunResult* result, const std::string& family,
                         const LatencyLog& log);

/// The shell's presentation form of a query answer: every tuple minimized,
/// rendered under the head, or "true"/"false" for a boolean query — the
/// same text DodbClient::Query returns.
std::string RenderAnswer(const Query& query, const GeneralizedRelation& out);

/// Minimizes every tuple (the server's response form).
GeneralizedRelation MinimizeRelation(const GeneralizedRelation& relation);

/// Evaluates `text` in-process against `db` and renders it like the
/// server would. Used for reference answers.
Result<std::string> ReferenceAnswer(const Database& db,
                                    const std::string& text);

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Runs `setup` `reps` times and returns the median wall time in seconds.
/// `teardown` runs untimed between repetitions; the last setup is kept.
/// `setup` returns false on failure (the run then aborts).
template <typename Setup, typename Teardown>
bool TimedSetups(int reps, Setup&& setup, Teardown&& teardown,
                 double* median_s) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    if (i > 0) teardown();
    const Clock::time_point start = Clock::now();
    if (!setup()) return false;
    times.push_back(SecondsSince(start));
  }
  *median_s = Median(times);
  return true;
}

/// Splitmix64: the harness's only random source, seeded per stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

 private:
  uint64_t state_;
};

/// Mixes a run seed with a stream tag so each connection draws its own
/// reproducible sequence.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

RunResult RunServeRead(const Options& options);
RunResult RunServeWrite(const Options& options);
RunResult RunTcFixpoint(const Options& options);

}  // namespace e2e
}  // namespace dodb

#endif  // DODB_E2EBENCH_BENCH_H_
