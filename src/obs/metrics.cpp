#include "obs/metrics.h"

#include <cmath>

namespace cpsguard::obs {

namespace {

// CAS loop instead of fetch_add(double): portable across toolchains that
// lack lock-free FP RMW, and the pattern is reused for min/max below.
void atomic_add(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur && !target.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur && !target.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
  }
}

}  // namespace

void Gauge::add(double delta) { atomic_add(value_, delta); }

int Histogram::bucket_index(double v) {
  if (!(v > 0.0) || !std::isfinite(v)) {
    return v > 0.0 ? kNumBuckets - 1 : 0;  // +inf overflows, <=0 underflows
  }
  int exp = 0;
  const double mantissa = std::frexp(v, &exp);  // mantissa in [0.5, 1)
  const int octave = exp - 1;                   // v in [2^octave, 2^(octave+1))
  if (octave < kMinExp) return 0;
  if (octave >= kMaxExp) return kNumBuckets - 1;
  const int sub = std::min(kSubBuckets - 1,
                           static_cast<int>((mantissa * 2.0 - 1.0) * kSubBuckets));
  return 1 + (octave - kMinExp) * kSubBuckets + sub;
}

double Histogram::bucket_midpoint(int index) {
  if (index <= 0) return 0.0;
  if (index >= kNumBuckets - 1) return std::ldexp(1.0, kMaxExp);
  const int linear = index - 1;
  const int octave = kMinExp + linear / kSubBuckets;
  const int sub = linear % kSubBuckets;
  const double lo = std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, octave);
  const double hi =
      std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets, octave);
  return 0.5 * (lo + hi);
}

void Histogram::record(double v) {
  if (std::isnan(v)) return;
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  // First-recorder initializes the extrema; races here only widen the
  // window in which min/max start at the true first value, never corrupt it.
  if (!has_extrema_.exchange(true, std::memory_order_acq_rel)) {
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  } else {
    atomic_min(min_, v);
    atomic_max(max_, v);
  }
}

double Histogram::quantile(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::fmin(std::fmax(q, 0.0), 1.0);
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total - 1));
  // A bucket midpoint can lie outside the observed range (one value of 256
  // sits in a bucket whose midpoint is 272), so the estimate is clamped to
  // [min, max]: a quantile never exceeds the extrema it summarizes.
  const double lo = min_.load(std::memory_order_relaxed);
  const double hi = max_.load(std::memory_order_relaxed);
  std::uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > rank) return std::fmin(std::fmax(bucket_midpoint(i), lo), hi);
  }
  return hi;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count();
  s.sum = sum();
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  s.p50 = quantile(0.50);
  s.p90 = quantile(0.90);
  s.p99 = quantile(0.99);
  return s;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  has_extrema_.store(false, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  const std::scoped_lock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->value());
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->value());
  return out;
}

std::vector<std::pair<std::string, HistogramSnapshot>> Registry::histograms()
    const {
  const std::scoped_lock lock(mutex_);
  std::vector<std::pair<std::string, HistogramSnapshot>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h->snapshot());
  return out;
}

void Registry::reset_all() {
  const std::scoped_lock lock(mutex_);
  for (auto& [_, c] : counters_) c->reset();
  for (auto& [_, g] : gauges_) g->reset();
  for (auto& [_, h] : histograms_) h->reset();
}

}  // namespace cpsguard::obs
