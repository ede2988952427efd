#include "trace.h"

#include <fstream>

namespace dodb {
namespace e2e {

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

uint64_t Tracer::Open(const std::string& name, uint64_t parent,
                      uint64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return spans_.size();
}

double Tracer::Close(uint64_t id) {
  Span& span = spans_.at(id - 1);
  span.end_ns = NowNs();
  return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}

double Tracer::TotalMs(const std::string& name) const {
  int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.end_ns >= 0 && span.name == name) {
      total += span.end_ns - span.start_ns;
    }
  }
  return static_cast<double>(total) / 1e6;
}

Status Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Unavailable(StrCat("cannot write ", path));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"name\":\"" << span.name << "\",\"id\":" << (i + 1)
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  }
  out.close();
  if (!out) return Status::Unavailable(StrCat("short write to ", path));
  return Status::Ok();
}

}  // namespace e2e
}  // namespace dodb
