// Process-wide observability metrics: lock-free counters and gauges plus a
// log-bucketed histogram, all owned by a named Registry singleton.
//
// Layering: obs sits *below* util (util::ThreadPool is itself instrumented),
// so nothing in this library may include other cpsguard headers.
//
// Hot-path usage pattern — resolve the metric once, then touch an atomic:
//
//   static obs::Counter& c = obs::Registry::instance().counter("nn.batches");
//   c.increment();
//
// Registry lookups take a mutex and are meant for setup / reporting code,
// not per-iteration loops.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cpsguard::obs {

/// Monotonic event count. All operations are wait-free atomics; concurrent
/// adds never lose increments (the Registry concurrency test asserts exact
/// totals under contention).
class Counter {
 public:
  void increment() { value_.fetch_add(1, std::memory_order_relaxed); }
  void add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (thread counts, queue depths, ...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta);
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Aggregated view of a histogram at one point in time.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Log-bucketed histogram of positive doubles (durations, norms, sizes).
/// Buckets split every power of two into kSubBuckets linear sub-buckets,
/// giving ~9% relative quantile resolution over ~38 orders of magnitude.
/// record() is lock-free; count and sum are exact, quantiles are bucket
/// midpoint estimates.
class Histogram {
 public:
  static constexpr int kMinExp = -64;     // smallest octave: 2^-64
  static constexpr int kMaxExp = 64;      // largest octave:  2^64
  static constexpr int kSubBuckets = 8;   // linear splits per octave
  static constexpr int kNumBuckets = (kMaxExp - kMinExp) * kSubBuckets + 2;

  /// Record one observation. Non-positive and non-finite values fall into
  /// the underflow/overflow buckets but still count toward count/sum/min/max
  /// (NaN is dropped entirely).
  void record(double v);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Quantile estimate for q in [0, 1], clamped to [min, max]; 0 when
  /// empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] HistogramSnapshot snapshot() const;

  void reset();

 private:
  static int bucket_index(double v);
  static double bucket_midpoint(int index);

  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> has_extrema_{false};
};

/// Named metric registry. Metrics live for the rest of the process once
/// created (references stay valid), so call sites can cache them in statics.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Sorted snapshots for reporting (manifest dumps, tests).
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counters() const;
  [[nodiscard]] std::vector<std::pair<std::string, double>> gauges() const;
  [[nodiscard]] std::vector<std::pair<std::string, HistogramSnapshot>>
  histograms() const;

  /// Zero every metric (keeps registrations). Test/bench isolation only.
  void reset_all();

 private:
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace cpsguard::obs
