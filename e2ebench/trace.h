#ifndef DODB_E2EBENCH_TRACE_H_
#define DODB_E2EBENCH_TRACE_H_

// Spans for the traced replay. Each span has a name, a start and end on
// one steady clock, the span that caused it and the request it belongs to;
// they stay in memory and are written out as JSON lines when the run ends.
//
// The replay is sequential, so the tracer is single-threaded: only the
// replay thread opens and closes spans.

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "bench.h"

namespace dodb {
namespace e2e {

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// A fresh request id; spans of one request share it.
  uint64_t NewRequest() { return ++last_request_; }

  /// Opens a span and returns its id (ids start at 1; 0 = no parent).
  uint64_t Open(const std::string& name, uint64_t parent, uint64_t request);

  /// Closes span `id` and returns its duration in milliseconds.
  double Close(uint64_t id);

  /// Sum of the durations of every closed span called `name`, in ms.
  double TotalMs(const std::string& name) const;

  /// One JSON object per span: name, id, parent, request, start_ns, end_ns.
  Status WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    uint64_t parent = 0;
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = -1;  // -1 while open
  };

  int64_t NowNs() const;

  Clock::time_point origin_;
  uint64_t last_request_ = 0;
  std::vector<Span> spans_;
};

/// Runs `fn` inside a span and returns its result.
template <typename F>
auto InSpan(Tracer* tracer, const std::string& name, uint64_t parent,
            uint64_t request, F&& fn) {
  const uint64_t id = tracer->Open(name, parent, request);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    tracer->Close(id);
  } else {
    auto out = fn();
    tracer->Close(id);
    return out;
  }
}

}  // namespace e2e
}  // namespace dodb

#endif  // DODB_E2EBENCH_TRACE_H_
