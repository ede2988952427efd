#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace dodb {
namespace e2e {

double LatencyLog::Quantile(double q) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double LatencyLog::MedianWindowRate(double elapsed_s) const {
  std::vector<double> per_window(
      std::max<size_t>(1, static_cast<size_t>(elapsed_s)), 0.0);
  for (double done : done_s_) {
    const size_t w = static_cast<size_t>(done);
    if (done >= 0.0 && w < per_window.size()) per_window[w] += 1.0;
  }
  return Median(per_window);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double OkFrac(uint64_t attempted, uint64_t failed) {
  if (attempted == 0) return 0.0;
  return 1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
}

void SetLatencyQuantiles(RunResult* result, const std::string& family,
                         const LatencyLog& log) {
  result->Set(family + "_p50_ms", log.Quantile(0.50), "ms");
  result->Set(family + "_p90_ms", log.Quantile(0.90), "ms");
  result->Info(family + "_latency",
               StrCat(log.count(), " samples, p99 ", log.Quantile(0.99),
                      " ms, max ", log.Quantile(1.0), " ms"));
}

GeneralizedRelation MinimizeRelation(const GeneralizedRelation& relation) {
  GeneralizedRelation pretty(relation.arity());
  for (const GeneralizedTuple& tuple : relation.tuples()) {
    pretty.AddTuple(tuple.Minimized());
  }
  return pretty;
}

std::string RenderAnswer(const Query& query, const GeneralizedRelation& out) {
  if (query.head.empty()) return out.IsEmpty() ? "false" : "true";
  return MinimizeRelation(out).ToString(&query.head);
}

Result<std::string> ReferenceAnswer(const Database& db,
                                    const std::string& text) {
  Result<Query> query = FoParser::ParseQuery(text);
  if (!query.ok()) return query.status();
  FoEvaluator evaluator(&db);
  Result<GeneralizedRelation> out = evaluator.Evaluate(query.value());
  if (!out.ok()) return out.status();
  return RenderAnswer(query.value(), out.value());
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng mix(seed * 0x100000001b3ull + stream);
  return mix.Next();
}

}  // namespace e2e
}  // namespace dodb
