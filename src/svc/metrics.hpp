// Service-tier metrics: named counters, gauges, and latency histograms
// behind one registry — the serving front's one ledger, exported as the
// JSON object of its `STATS` line and `--json` file (pretty-printed by
// `maxelctl stats`).
//
// Design point: registration (name lookup) takes a mutex, but the hot
// path — bumping a Counter/Gauge or observing a Histogram sample — is
// lock-free atomics, so per-round instrumentation inside broker workers
// costs nanoseconds and stays tsan-clean. Handles returned by the
// registry are stable for the registry's lifetime (metrics are never
// removed), so callers look a metric up once and keep the reference.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace maxel::svc {

// Monotonic event count (admission rejects, sessions served, ...).
class Counter {
 public:
  // Returns the count after this increment.
  std::uint64_t inc(std::uint64_t n = 1) {
    return v_.fetch_add(n, std::memory_order_relaxed) + n;
  }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

// Instantaneous level (queue depth, spool fill, active workers).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  // High-water mark: lifts the level to v unless it is already higher,
  // so concurrent raisers can never lower it.
  void raise_to(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

// Latency histogram over seconds: power-of-two buckets from 1 us up,
// plus count/sum for the mean. Bucket i counts samples in
// [2^i us, 2^(i+1) us); the last bucket is open-ended (~ >= 2147 s).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  void observe(double seconds);

  struct Snapshot {
    std::uint64_t count = 0;
    double sum_seconds = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    // Inclusive upper bound of bucket i in seconds (last is +inf).
    static double bucket_bound(std::size_t i);
    [[nodiscard]] double mean_seconds() const {
      return count == 0 ? 0.0 : sum_seconds / static_cast<double>(count);
    }
    // Linear-interpolated quantile (q in [0,1]) from the bucket counts.
    [[nodiscard]] double quantile_seconds(double q) const;
  };
  [[nodiscard]] Snapshot snapshot() const;

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_us_{0};  // sum in integer microseconds
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

// Name -> metric registry. Lookup-or-create is mutex-guarded; the
// returned references stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // One JSON object: counters/gauges as numbers, histograms as
  // {count, sum_seconds, mean_seconds, p50/p95/p99_seconds, buckets}.
  [[nodiscard]] std::string to_json() const;

 private:
  template <typename T>
  struct Named {
    std::string name;
    std::unique_ptr<T> metric;
  };
  template <typename T>
  T& lookup(std::vector<Named<T>>& list, const std::string& name);

  mutable std::mutex mu_;
  std::vector<Named<Counter>> counters_;
  std::vector<Named<Gauge>> gauges_;
  std::vector<Named<Histogram>> histograms_;
};

}  // namespace maxel::svc
