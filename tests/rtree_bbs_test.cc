#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "algo/bnl.h"
#include "algo/sort_based.h"
#include "case_names.h"
#include "common/quantizer.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "index/bbs.h"
#include "index/constrained.h"
#include "index/rtree.h"
#include "index/zsearch.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 10;

PointSet MakePoints(Distribution d, size_t n, uint32_t dim, uint64_t seed) {
  return GenerateQuantized(d, n, dim, seed, Quantizer(kBits));
}

TEST(RTreeTest, BuildShape) {
  const PointSet ps = MakePoints(Distribution::kIndependent, 1000, 3, 1);
  RTree::Options options;
  options.leaf_capacity = 8;
  options.fanout = 4;
  RTree tree(ps, options);
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_GE(tree.height(), 3u);
}

TEST(RTreeTest, EmptyTree) {
  PointSet empty(2);
  RTree tree(empty);
  EXPECT_TRUE(tree.empty());
  EXPECT_FALSE(tree.has_root());
  PointSet probe(2);
  probe.Append({0, 0});
  probe.Append({100, 100});
  EXPECT_TRUE(tree.QueryBox(probe[0], probe[1]).empty());
}

TEST(RTreeTest, BoxesContainTheirPoints) {
  const PointSet ps = MakePoints(Distribution::kAnticorrelated, 2000, 4, 2);
  RTree tree(ps);
  // Every entry must be inside the box of every ancestor; check the root
  // and all leaves.
  const RZRegion& root_box = tree.box(tree.root());
  for (size_t slot = 0; slot < tree.size(); ++slot) {
    EXPECT_TRUE(root_box.ContainsPoint(tree.point(slot)));
  }
}

TEST(RTreeTest, QueryBoxMatchesBruteForce) {
  const PointSet ps = MakePoints(Distribution::kIndependent, 2000, 3, 3);
  RTree tree(ps);
  Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Coord> lo(3), hi(3);
    for (uint32_t k = 0; k < 3; ++k) {
      Coord a = static_cast<Coord>(rng.NextBounded(1024));
      Coord b = static_cast<Coord>(rng.NextBounded(1024));
      lo[k] = std::min(a, b);
      hi[k] = std::max(a, b);
    }
    std::vector<uint32_t> brute;
    for (size_t i = 0; i < ps.size(); ++i) {
      bool inside = true;
      for (uint32_t k = 0; k < 3 && inside; ++k) {
        inside = ps[i][k] >= lo[k] && ps[i][k] <= hi[k];
      }
      if (inside) brute.push_back(static_cast<uint32_t>(i));
    }
    EXPECT_EQ(tree.QueryBox(lo, hi), brute) << "trial " << trial;
  }
}

TEST(RTreeTest, CustomIds) {
  PointSet ps(2);
  ps.Append({1, 1});
  ps.Append({2, 2});
  RTree tree(ps, std::vector<uint32_t>{7, 9}, RTree::Options());
  PointSet corners(2);
  corners.Append({0, 0});
  corners.Append({10, 10});
  EXPECT_EQ(tree.QueryBox(corners[0], corners[1]),
            (std::vector<uint32_t>{7, 9}));
}

struct BbsCase {
  Distribution distribution;
  size_t n;
  uint32_t dim;
  uint64_t seed;
};

std::string CaseName(const BbsCase& c) {
  return SeededCaseName(c.distribution, c.n, c.dim, c.seed);
}
void PrintTo(const BbsCase& c, std::ostream* os) { *os << CaseName(c); }

class BbsOracleTest : public ::testing::TestWithParam<BbsCase> {};

TEST_P(BbsOracleTest, MatchesSortBased) {
  const BbsCase& c = GetParam();
  const PointSet ps = MakePoints(c.distribution, c.n, c.dim, c.seed);
  ZOrderCodec codec(c.dim, kBits);
  EXPECT_EQ(BbsSkyline(codec, ps), SortBasedSkyline(ps));
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, BbsOracleTest,
    ::testing::Values(BbsCase{Distribution::kIndependent, 2000, 2, 10},
                      BbsCase{Distribution::kIndependent, 2000, 5, 11},
                      BbsCase{Distribution::kCorrelated, 2000, 4, 12},
                      BbsCase{Distribution::kAnticorrelated, 1500, 3, 13},
                      BbsCase{Distribution::kAnticorrelated, 800, 6, 14},
                      BbsCase{Distribution::kIndependent, 1, 3, 15},
                      BbsCase{Distribution::kIndependent, 17, 2, 16}),
    CaseNameGenerator());

TEST(BbsTest, EmptyInput) {
  ZOrderCodec codec(3, kBits);
  PointSet empty(3);
  EXPECT_TRUE(BbsSkyline(codec, empty).empty());
}

TEST(BbsTest, PruningFiresOnCorrelatedData) {
  ZOrderCodec codec(4, kBits);
  const PointSet ps = MakePoints(Distribution::kCorrelated, 5000, 4, 17);
  BbsStats stats;
  const SkylineIndices sky = BbsSkyline(codec, ps, RTree::Options(), &stats);
  EXPECT_EQ(sky, SortBasedSkyline(ps));
  EXPECT_GT(stats.nodes_pruned, 0u);
  // BBS's selling point: most points are never even popped.
  EXPECT_LT(stats.points_tested, ps.size() / 2);
}

TEST(ConstrainedSkylineTest, MatchesBruteForce) {
  const PointSet ps = MakePoints(Distribution::kIndependent, 2000, 3, 20);
  ZOrderCodec codec(3, kBits);
  RTree tree(ps);
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Coord> lo(3), hi(3);
    for (uint32_t k = 0; k < 3; ++k) {
      Coord a = static_cast<Coord>(rng.NextBounded(1024));
      Coord b = static_cast<Coord>(rng.NextBounded(1024));
      lo[k] = std::min(a, b);
      hi[k] = std::max(a, b);
    }
    // Brute force: gather inside, naive skyline, map back.
    std::vector<uint32_t> inside;
    for (size_t i = 0; i < ps.size(); ++i) {
      bool in = true;
      for (uint32_t k = 0; k < 3 && in; ++k) {
        in = ps[i][k] >= lo[k] && ps[i][k] <= hi[k];
      }
      if (in) inside.push_back(static_cast<uint32_t>(i));
    }
    SkylineIndices expected;
    const PointSet region = PointSet::Gather(ps, inside);
    for (uint32_t i : NaiveSkyline(region)) expected.push_back(inside[i]);
    SortSkyline(expected);
    EXPECT_EQ(ConstrainedSkyline(codec, ps, tree, lo, hi), expected)
        << "trial " << trial;
  }
}

TEST(ConstrainedSkylineTest, WholeSpaceEqualsGlobalSkyline) {
  const PointSet ps = MakePoints(Distribution::kAnticorrelated, 1500, 4, 22);
  ZOrderCodec codec(4, kBits);
  RTree tree(ps);
  const std::vector<Coord> lo(4, 0);
  const std::vector<Coord> hi(4, (Coord{1} << kBits) - 1);
  EXPECT_EQ(ConstrainedSkyline(codec, ps, tree, lo, hi),
            SortBasedSkyline(ps));
}

TEST(ConstrainedSkylineTest, EmptyBox) {
  const PointSet ps = MakePoints(Distribution::kIndependent, 500, 2, 23);
  ZOrderCodec codec(2, kBits);
  RTree tree(ps);
  // A box outside the quantized domain's occupied range is very likely
  // empty; use an impossible inverted range instead for determinism.
  const std::vector<Coord> lo{1023, 1023};
  const std::vector<Coord> hi{1023, 1023};
  const auto result = ConstrainedSkyline(codec, ps, tree, lo, hi);
  // Either empty or the exact corner points; verify via brute force.
  for (uint32_t row : result) {
    EXPECT_EQ(ps[row][0], 1023u);
    EXPECT_EQ(ps[row][1], 1023u);
  }
}

TEST(BbsTest, AgreesWithZSearchAcrossGeometries) {
  const PointSet ps = MakePoints(Distribution::kIndependent, 3000, 4, 18);
  ZOrderCodec codec(4, kBits);
  const SkylineIndices expected = ZSearchSkyline(codec, ps);
  for (uint32_t leaf : {4u, 32u}) {
    for (uint32_t fanout : {2u, 16u}) {
      RTree::Options options;
      options.leaf_capacity = leaf;
      options.fanout = fanout;
      EXPECT_EQ(BbsSkyline(codec, ps, options), expected)
          << "leaf=" << leaf << " fanout=" << fanout;
    }
  }
}

}  // namespace
}  // namespace zsky
