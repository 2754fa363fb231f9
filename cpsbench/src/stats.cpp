#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cpsbench {

std::size_t nearest_rank(double p, std::size_t n) {
  if (n == 0) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile must be in (0, 100]");
  }
  // p * n / 100 in long double keeps e.g. 99 * 100 / 100 from landing a
  // hair above 99 and rounding up one rank.
  const long double exact =
      static_cast<long double>(p) * static_cast<long double>(n) / 100.0L;
  auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9L));
  return std::clamp<std::size_t>(rank, 1, n);
}

namespace {

template <typename T>
T percentile_impl(std::span<T> samples, double p) {
  const std::size_t k = nearest_rank(p, samples.size()) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(k),
                   samples.end());
  return samples[k];
}

}  // namespace

std::uint32_t percentile(std::span<std::uint32_t> samples, double p) {
  return percentile_impl(samples, p);
}

double percentile(std::span<double> samples, double p) {
  return percentile_impl(samples, p);
}

double median(std::vector<double> values) {
  return percentile(std::span<double>(values), 50.0);
}

namespace {

/// Calls group(first, last) for each block of intervals [first, last).
template <typename F>
void for_each_block(std::size_t n, std::size_t blocks, F group) {
  if (n == 0 || blocks == 0) throw std::invalid_argument("block median of no data");
  blocks = std::min(blocks, n);
  for (std::size_t b = 0; b < blocks; ++b) group(b * n / blocks, (b + 1) * n / blocks);
}

template <typename T>
double block_percentile_impl(std::span<T> samples, std::span<const double> counts,
                             std::size_t blocks, double p) {
  std::vector<std::size_t> offset(counts.size() + 1, 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    offset[i + 1] = offset[i] + static_cast<std::size_t>(counts[i]);
  }
  if (offset.back() != samples.size()) {
    throw std::invalid_argument("block_median_percentile: counts != samples");
  }
  std::vector<double> stats;
  for_each_block(counts.size(), blocks, [&](std::size_t first, std::size_t last) {
    const std::span<T> group =
        samples.subspan(offset[first], offset[last] - offset[first]);
    if (!group.empty()) stats.push_back(static_cast<double>(percentile(group, p)));
  });
  if (stats.empty()) throw std::invalid_argument("block median of no samples");
  return median(std::move(stats));
}

}  // namespace

double block_median_rate(std::span<const double> work,
                         std::span<const double> seconds, std::size_t blocks) {
  if (work.size() != seconds.size()) {
    throw std::invalid_argument("block_median_rate: series lengths differ");
  }
  std::vector<double> rates;
  for_each_block(work.size(), blocks, [&](std::size_t first, std::size_t last) {
    double w = 0;
    double s = 0;
    for (std::size_t i = first; i < last; ++i) {
      w += work[i];
      s += seconds[i];
    }
    rates.push_back(w / s);
  });
  return median(std::move(rates));
}

double block_median_percentile(std::span<std::uint32_t> samples,
                               std::span<const double> counts, std::size_t blocks,
                               double p) {
  return block_percentile_impl(samples, counts, blocks, p);
}

}  // namespace cpsbench
