// Exact order statistics over the benchmark's own samples.
//
// Percentiles are nearest-rank: the p-th percentile of n samples is the
// sample of 1-based rank ceil(p/100 * n) in ascending order, so it is always
// one of the measured values and min <= p50 <= p99 <= max holds by
// construction. The program's obs::Histogram quantiles are bucket estimates
// (and not clamped to [min, max]); the benchmark never reads them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cpsbench {

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` > 0
/// samples. Throws std::invalid_argument outside those ranges.
[[nodiscard]] std::size_t nearest_rank(double p, std::size_t n);

/// Nearest-rank percentile. Reorders `samples` (nth_element) but keeps the
/// multiset, so several percentiles can be taken from one buffer in turn.
[[nodiscard]] std::uint32_t percentile(std::span<std::uint32_t> samples,
                                       double p);
[[nodiscard]] double percentile(std::span<double> samples, double p);

/// Nearest-rank median (p = 50) of a copy of `values`.
[[nodiscard]] double median(std::vector<double> values);

// Block medians. A run's intervals (serve cycles, campaign passes) are
// split into `blocks` consecutive groups of near-equal length (each
// interval its own group when there are fewer intervals than blocks); a
// statistic is taken per group and the nearest-rank median over groups is
// reported, so host noise that lands in a few groups cannot move it.

/// Median over groups of sum(work) / sum(seconds).
[[nodiscard]] double block_median_rate(std::span<const double> work,
                                       std::span<const double> seconds,
                                       std::size_t blocks);

/// Median over groups of the nearest-rank percentile `p` of the group's
/// samples. `samples` holds each interval's samples back to back and
/// `counts[i]` is how many interval i contributed; groups without samples
/// are skipped. Reorders samples within each group.
[[nodiscard]] double block_median_percentile(std::span<std::uint32_t> samples,
                                             std::span<const double> counts,
                                             std::size_t blocks, double p);

}  // namespace cpsbench
