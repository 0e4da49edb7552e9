#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "algo/skyband.h"
#include "case_names.h"
#include "common/dominance.h"
#include "common/quantizer.h"
#include "core/skyband_executor.h"
#include "gen/synthetic.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 12;

PointSet MakePoints(Distribution d, size_t n, uint32_t dim, uint64_t seed) {
  return GenerateQuantized(d, n, dim, seed, Quantizer(kBits));
}

struct BandCase {
  Distribution distribution;
  size_t n;
  uint32_t dim;
  uint32_t k;
  uint64_t seed;
};

std::string CaseName(const BandCase& c) {
  return SeededCaseName(c.distribution, c.n, c.dim, c.seed,
                        "_k" + std::to_string(c.k));
}
void PrintTo(const BandCase& c, std::ostream* os) { *os << CaseName(c); }

class DistributedSkybandTest : public ::testing::TestWithParam<BandCase> {};

TEST_P(DistributedSkybandTest, MatchesCentralizedOracle) {
  const BandCase& c = GetParam();
  const PointSet points = MakePoints(c.distribution, c.n, c.dim, c.seed);
  SkybandOptions options;
  options.k = c.k;
  options.num_groups = 6;
  options.bits = kBits;
  options.sample_ratio = 0.05;
  const SkylineQueryResult result = DistributedSkyband(points, options);
  EXPECT_EQ(result.skyline, NaiveSkyband(points, c.k));
  EXPECT_GE(result.metrics.candidates, result.skyline.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, DistributedSkybandTest,
    ::testing::Values(
        BandCase{Distribution::kIndependent, 3000, 3, 1, 1},
        BandCase{Distribution::kIndependent, 3000, 3, 2, 2},
        BandCase{Distribution::kIndependent, 3000, 5, 3, 3},
        BandCase{Distribution::kCorrelated, 3000, 4, 2, 4},
        BandCase{Distribution::kAnticorrelated, 2000, 3, 2, 5},
        BandCase{Distribution::kAnticorrelated, 2000, 4, 5, 6}),
    CaseNameGenerator());

TEST(DistributedSkybandTest, KOneEqualsDistributedSkyline) {
  const PointSet points = MakePoints(Distribution::kIndependent, 4000, 4, 7);
  SkybandOptions options;
  options.k = 1;
  options.bits = kBits;
  EXPECT_EQ(DistributedSkyband(points, options).skyline,
            NaiveSkyband(points, 1));
}

TEST(DistributedSkybandTest, FilterCanBeDisabled) {
  const PointSet points = MakePoints(Distribution::kIndependent, 3000, 3, 8);
  SkybandOptions with;
  with.k = 2;
  with.bits = kBits;
  SkybandOptions without = with;
  without.enable_sample_filter = false;
  const auto r_with = DistributedSkyband(points, with);
  const auto r_without = DistributedSkyband(points, without);
  EXPECT_EQ(r_with.skyline, r_without.skyline);
  EXPECT_GT(r_with.metrics.filtered_by_szb, 0u);
  EXPECT_EQ(r_without.metrics.filtered_by_szb, 0u);
}

TEST(DistributedSkybandTest, EmptyInput) {
  PointSet empty(3);
  SkybandOptions options;
  options.bits = kBits;
  EXPECT_TRUE(DistributedSkyband(empty, options).skyline.empty());
}

TEST(ZBTreeCountTest, CountDominatorsMatchesBruteForce) {
  const PointSet ps = MakePoints(Distribution::kIndependent, 800, 3, 9);
  ZOrderCodec codec(3, kBits);
  ZBTree tree(&codec, ps);
  const PointSet probes = MakePoints(Distribution::kIndependent, 100, 3, 10);
  for (size_t i = 0; i < probes.size(); ++i) {
    size_t brute = 0;
    for (size_t j = 0; j < ps.size(); ++j) {
      if (Dominates(ps[j], probes[i])) ++brute;
    }
    for (size_t cap : {size_t{1}, size_t{3}, size_t{1000}}) {
      EXPECT_EQ(tree.CountDominatorsOf(probes[i], cap),
                std::min(brute, cap))
          << "probe " << i << " cap " << cap;
    }
  }
}

}  // namespace
}  // namespace zsky
