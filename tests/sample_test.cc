#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/quantizer.h"
#include "gen/synthetic.h"
#include "sample/reservoir.h"

namespace zsky {
namespace {

TEST(ReservoirTest, SampleSizeAndUniqueness) {
  Rng rng(1);
  const auto rows = ReservoirSampleIndices(1000, 100, rng);
  EXPECT_EQ(rows.size(), 100u);
  auto sorted = rows;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  EXPECT_LT(sorted.back(), 1000u);
}

TEST(ReservoirTest, KAtLeastNReturnsAll) {
  Rng rng(2);
  for (const size_t k : {size_t{20}, size_t{10}}) {
    const auto rows = ReservoirSampleIndices(10, k, rng);
    ASSERT_EQ(rows.size(), 10u) << "k=" << k;
    for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(rows[i], i) << "k=" << k;
  }
}

TEST(ReservoirTest, LargeSampleIsDistinctSortedAndInRange) {
  const size_t n = 1'000'000;
  const size_t k = 10'000;
  Rng rng(5);
  const auto rows = ReservoirSampleIndices(n, k, rng);
  ASSERT_EQ(rows.size(), k);
  // Ascending with no repeats, and inside [0, n).
  for (size_t i = 1; i < rows.size(); ++i) {
    ASSERT_LT(rows[i - 1], rows[i]) << "at " << i;
  }
  EXPECT_LT(rows.back(), n);
}

TEST(ReservoirTest, BucketCountsStayNearUniform) {
  // 100 equal buckets of a 1M-row range, 10k rows drawn: each bucket
  // expects 100 with a binomial standard deviation of ~9.95; allow 5 of
  // them either way. The last buckets are where Floyd's algorithm takes
  // row j itself on a repeat draw, so a skew there would show first.
  const size_t n = 1'000'000;
  const size_t k = 10'000;
  const size_t buckets = 100;
  Rng rng(6);
  std::vector<int> counts(buckets, 0);
  for (uint32_t row : ReservoirSampleIndices(n, k, rng)) {
    ++counts[row / (n / buckets)];
  }
  for (size_t b = 0; b < buckets; ++b) {
    EXPECT_NEAR(counts[b], 100.0, 50.0) << "bucket " << b;
  }
}

TEST(ReservoirTest, EverySubsetEquallyLikely) {
  // Uniform without replacement means every k-subset, not only every row,
  // is equally likely. n = 5, k = 2: ten subsets, 20k draws, 2000
  // expected each with a standard deviation of ~42; allow 200.
  const size_t n = 5;
  const size_t k = 2;
  const int trials = 20'000;
  std::map<std::vector<uint32_t>, int> counts;
  Rng rng(14);
  for (int t = 0; t < trials; ++t) ++counts[ReservoirSampleIndices(n, k, rng)];
  ASSERT_EQ(counts.size(), 10u);
  for (const auto& [subset, count] : counts) {
    EXPECT_NEAR(count, 2000, 200)
        << "subset {" << subset[0] << ", " << subset[1] << "}";
  }
}

TEST(ReservoirTest, SameSeedSameSample) {
  Rng a(11);
  Rng b(11);
  Rng c(12);
  const auto first = ReservoirSampleIndices(100'000, 1'000, a);
  EXPECT_EQ(first, ReservoirSampleIndices(100'000, 1'000, b));
  EXPECT_NE(first, ReservoirSampleIndices(100'000, 1'000, c));
}

TEST(ReservoirTest, DrawsOncePerSampledRow) {
  // k draws for k rows, however large n is: afterwards the generator
  // stands where k plain draws leave it.
  Rng sampler(13);
  Rng reference(13);
  ReservoirSampleIndices(50'000'000, 500, sampler);
  for (int i = 0; i < 500; ++i) reference.Next();
  EXPECT_EQ(sampler.Next(), reference.Next());
}

TEST(ReservoirTest, ApproximatelyUniform) {
  // Each index should be selected with probability k/n; count selections
  // over many trials and bound the deviation.
  const size_t n = 50;
  const size_t k = 10;
  const int trials = 5000;
  std::vector<int> counts(n, 0);
  Rng rng(3);
  for (int t = 0; t < trials; ++t) {
    for (uint32_t row : ReservoirSampleIndices(n, k, rng)) ++counts[row];
  }
  const double expected = static_cast<double>(trials) * k / n;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(counts[i], expected, 0.15 * expected) << "index " << i;
  }
}

TEST(ReservoirTest, GatherPoints) {
  const Quantizer q(8);
  const PointSet ps =
      GenerateQuantized(Distribution::kIndependent, 500, 3, 7, q);
  Rng rng(4);
  const PointSet sample = ReservoirSample(ps, 50, rng);
  EXPECT_EQ(sample.size(), 50u);
  EXPECT_EQ(sample.dim(), 3u);
}

}  // namespace
}  // namespace zsky
