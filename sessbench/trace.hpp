// In-memory span recorder for the traced benchmark run. Spans are kept
// in a vector (one mutex, appended from the client threads) and written
// as one JSON file when the run ends, so recording costs two clock reads
// and a push_back per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

namespace sessbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  std::int64_t id = -1;      // session index; -1 for layer probes
  std::int64_t parent = -1;  // index into the span list; -1 = root
  double start_us = 0;       // relative to the tracer's origin
  double end_us = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  // Records a finished span and returns its index (for children), or -1
  // when tracing is off.
  std::int64_t record(const std::string& name, std::int64_t id,
                      std::int64_t parent, Clock::time_point start,
                      Clock::time_point end) {
    if (!enabled_) return -1;
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, id, parent, us(start), us(end)});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  // Writes {"spans":[...]} to path; false if the file cannot be written.
  bool write(const std::string& path) const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path);
    os << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
         << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
         << ",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
         << "}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  [[nodiscard]] double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace sessbench
