#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>
#include <vector>

#include "stats.h"

namespace cpsbench {
namespace {

TEST(NearestRank, KnownRanks) {
  EXPECT_EQ(nearest_rank(50, 1), 1u);
  EXPECT_EQ(nearest_rank(50, 2), 1u);
  EXPECT_EQ(nearest_rank(50, 3), 2u);
  EXPECT_EQ(nearest_rank(50, 10), 5u);
  EXPECT_EQ(nearest_rank(99, 100), 99u);
  EXPECT_EQ(nearest_rank(99, 101), 100u);
  EXPECT_EQ(nearest_rank(99, 16), 16u);
  EXPECT_EQ(nearest_rank(100, 7), 7u);
  EXPECT_EQ(nearest_rank(0.001, 7), 1u);
}

TEST(NearestRank, RejectsBadInput) {
  EXPECT_THROW((void)nearest_rank(50, 0), std::invalid_argument);
  EXPECT_THROW((void)nearest_rank(0, 5), std::invalid_argument);
  EXPECT_THROW((void)nearest_rank(100.5, 5), std::invalid_argument);
  EXPECT_THROW((void)nearest_rank(-1, 5), std::invalid_argument);
}

TEST(Percentile, KnownVectors) {
  // Wikipedia's nearest-rank example: {15, 20, 35, 40, 50}.
  std::vector<double> v = {50, 15, 40, 20, 35};
  EXPECT_EQ(percentile(std::span<double>(v), 5), 15);
  EXPECT_EQ(percentile(std::span<double>(v), 30), 20);
  EXPECT_EQ(percentile(std::span<double>(v), 40), 20);
  EXPECT_EQ(percentile(std::span<double>(v), 50), 35);
  EXPECT_EQ(percentile(std::span<double>(v), 100), 50);

  std::vector<std::uint32_t> hundred(100);
  for (std::uint32_t i = 0; i < 100; ++i) hundred[i] = 100 - i;  // 100..1
  EXPECT_EQ(percentile(std::span<std::uint32_t>(hundred), 50), 50u);
  EXPECT_EQ(percentile(std::span<std::uint32_t>(hundred), 99), 99u);
  EXPECT_EQ(percentile(std::span<std::uint32_t>(hundred), 100), 100u);

  EXPECT_EQ(median({3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.0);  // lower middle, a sample
}

TEST(Percentile, OrderedAndBoundedOnRandomInputs) {
  std::mt19937_64 rng(12345);
  for (int trial = 0; trial < 200; ++trial) {
    std::uniform_int_distribution<std::size_t> size(1, 5000);
    std::lognormal_distribution<double> value(0.0, 2.0);
    std::vector<std::uint32_t> xs(size(rng));
    for (auto& x : xs) x = static_cast<std::uint32_t>(value(rng) * 1000.0);
    const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
    const std::uint32_t min = *lo;
    const std::uint32_t max = *hi;
    std::vector<std::uint32_t> buf = xs;  // percentile reorders its input
    const std::uint32_t p50 = percentile(std::span<std::uint32_t>(buf), 50);
    const std::uint32_t p99 = percentile(std::span<std::uint32_t>(buf), 99);
    EXPECT_LE(min, p50);
    EXPECT_LE(p50, p99);
    EXPECT_LE(p99, max);
    EXPECT_NE(std::find(xs.begin(), xs.end(), p99), xs.end());
    // The rank definition: at least p% of samples are <= the percentile.
    const auto below = static_cast<std::size_t>(
        std::count_if(xs.begin(), xs.end(), [&](std::uint32_t x) { return x <= p99; }));
    EXPECT_GE(below * 100, 99 * xs.size());
  }
}

TEST(BlockMedianRate, MedianOfBlockRates) {
  // Four blocks of two intervals: rates 10, 10, 1, 100 -> lower middle 10.
  const std::vector<double> work = {10, 10, 20, 20, 1, 1, 100, 100};
  const std::vector<double> secs = {1, 1, 2, 2, 1, 1, 1, 1};
  EXPECT_EQ(block_median_rate(work, secs, 4), 10.0);
  // One block is the plain total rate.
  EXPECT_DOUBLE_EQ(block_median_rate(work, secs, 1), 262.0 / 10.0);
  // More blocks than intervals: one interval per block.
  EXPECT_EQ(block_median_rate(std::vector<double>{4}, std::vector<double>{2}, 20), 2.0);
  EXPECT_THROW((void)block_median_rate(work, std::vector<double>{1}, 4),
               std::invalid_argument);
}

TEST(BlockMedianPercentile, PerGroupThenMedian) {
  // Three intervals with 2, 3 and 2 samples; three groups of one interval.
  std::vector<std::uint32_t> samples = {5, 1, 9, 7, 8, 100, 200};
  const std::vector<double> counts = {2, 3, 2};
  // Group p50s: 1, 8, 100 -> median 8. Group p100s: 5, 9, 200 -> 9.
  std::vector<std::uint32_t> copy = samples;
  EXPECT_EQ(block_median_percentile(std::span<std::uint32_t>(copy), counts, 3, 50), 8.0);
  copy = samples;
  EXPECT_EQ(block_median_percentile(std::span<std::uint32_t>(copy), counts, 3, 100), 9.0);
  // One group is the plain percentile.
  copy = samples;
  EXPECT_EQ(block_median_percentile(std::span<std::uint32_t>(copy), counts, 1, 50), 8.0);
  // Empty intervals are skipped; counts must cover the samples exactly.
  std::vector<std::uint32_t> d = {3, 1};
  EXPECT_EQ(block_median_percentile(std::span<std::uint32_t>(d), std::vector<double>{0, 2}, 2,
                                    100),
            3.0);
  EXPECT_THROW((void)block_median_percentile(std::span<std::uint32_t>(d),
                                             std::vector<double>{1}, 1, 50),
               std::invalid_argument);
}

}  // namespace
}  // namespace cpsbench
