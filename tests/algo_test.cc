#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "algo/bnl.h"
#include "algo/skyline.h"
#include "algo/sort_based.h"
#include "case_names.h"
#include "common/quantizer.h"
#include "gen/synthetic.h"

namespace zsky {
namespace {

PointSet HotelExample() {
  // Figure 1(a)-style data: (distance, rate). p4 dominates p5; p0 and p2
  // sit on the skyline.
  PointSet ps(2);
  ps.Append({1, 9});   // 0: nearest, most expensive.
  ps.Append({3, 7});   // 1
  ps.Append({2, 5});   // 2: dominates 1? (2<=3, 5<=7) yes.
  ps.Append({5, 3});   // 3
  ps.Append({4, 2});   // 4: dominates 5.
  ps.Append({6, 4});   // 5
  ps.Append({8, 1});   // 6
  return ps;
}

TEST(NaiveSkylineTest, HotelExample) {
  const SkylineIndices sky = NaiveSkyline(HotelExample());
  EXPECT_EQ(sky, (SkylineIndices{0, 2, 4, 6}));
}

TEST(BnlTest, MatchesNaiveOnHotelExample) {
  EXPECT_EQ(BnlSkyline(HotelExample()), NaiveSkyline(HotelExample()));
}

TEST(BnlTest, EmptyAndSingle) {
  PointSet empty(3);
  EXPECT_TRUE(BnlSkyline(empty).empty());
  PointSet one(3);
  one.Append({1, 2, 3});
  EXPECT_EQ(BnlSkyline(one), (SkylineIndices{0}));
}

TEST(BnlTest, DuplicatePointsAllSurvive) {
  PointSet ps(2);
  ps.Append({1, 1});
  ps.Append({1, 1});
  ps.Append({2, 2});
  EXPECT_EQ(BnlSkyline(ps), (SkylineIndices{0, 1}));
}

TEST(BnlTest, AllSkylineAntiDiagonal) {
  PointSet ps(2);
  for (Coord i = 0; i < 10; ++i) ps.Append({i, 9 - i});
  EXPECT_EQ(BnlSkyline(ps).size(), 10u);
}

TEST(BnlTest, SingleSkylineChain) {
  PointSet ps(2);
  for (Coord i = 0; i < 10; ++i) ps.Append({i, i});
  EXPECT_EQ(BnlSkyline(ps), (SkylineIndices{0}));
}

TEST(SortBasedTest, MatchesNaiveOnHotelExample) {
  EXPECT_EQ(SortBasedSkyline(HotelExample()), NaiveSkyline(HotelExample()));
}

TEST(SortBasedTest, EmptyAndSingle) {
  PointSet empty(2);
  EXPECT_TRUE(SortBasedSkyline(empty).empty());
  PointSet one(2);
  one.Append({5, 5});
  EXPECT_EQ(SortBasedSkyline(one), (SkylineIndices{0}));
}

TEST(SortBasedTest, DuplicatePointsAllSurvive) {
  PointSet ps(2);
  ps.Append({3, 4});
  ps.Append({3, 4});
  EXPECT_EQ(SortBasedSkyline(ps).size(), 2u);
}

struct RandomCase {
  Distribution distribution;
  size_t n;
  uint32_t dim;
  uint64_t seed;
};

std::string CaseName(const RandomCase& c) {
  return SeededCaseName(c.distribution, c.n, c.dim, c.seed);
}
void PrintTo(const RandomCase& c, std::ostream* os) { *os << CaseName(c); }

class SkylineOracleTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(SkylineOracleTest, BnlAndSortBasedMatchNaive) {
  const RandomCase& c = GetParam();
  const Quantizer q(10);
  const PointSet ps =
      GenerateQuantized(c.distribution, c.n, c.dim, c.seed, q);
  const SkylineIndices oracle = NaiveSkyline(ps);
  EXPECT_EQ(BnlSkyline(ps), oracle);
  EXPECT_EQ(SortBasedSkyline(ps), oracle);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, SkylineOracleTest,
    ::testing::Values(
        RandomCase{Distribution::kIndependent, 300, 2, 1},
        RandomCase{Distribution::kIndependent, 300, 5, 2},
        RandomCase{Distribution::kIndependent, 500, 8, 3},
        RandomCase{Distribution::kCorrelated, 300, 3, 4},
        RandomCase{Distribution::kCorrelated, 500, 6, 5},
        RandomCase{Distribution::kAnticorrelated, 300, 2, 6},
        RandomCase{Distribution::kAnticorrelated, 400, 4, 7},
        RandomCase{Distribution::kAnticorrelated, 200, 7, 8},
        RandomCase{Distribution::kIndependent, 64, 1, 9},
        RandomCase{Distribution::kIndependent, 1000, 3, 10}),
    CaseNameGenerator());

}  // namespace
}  // namespace zsky
