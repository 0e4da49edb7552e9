#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "algo/skyline.h"
#include "algo/sort_based.h"
#include "case_names.h"
#include "common/dominance.h"
#include "common/quantizer.h"
#include "gen/synthetic.h"
#include "index/dynamic_skyline.h"
#include "index/zbtree.h"
#include "index/zmerge.h"
#include "index/zsearch.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 10;

PointSet MakePoints(Distribution d, size_t n, uint32_t dim, uint64_t seed) {
  return GenerateQuantized(d, n, dim, seed, Quantizer(kBits));
}

TEST(ZBTreeTest, BuildShape) {
  ZOrderCodec codec(3, kBits);
  PointSet ps = MakePoints(Distribution::kIndependent, 1000, 3, 1);
  ZBTree::Options options;
  options.leaf_capacity = 8;
  options.fanout = 4;
  ZBTree tree(&codec, ps, options);
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_EQ(tree.alive_count(), 1000u);
  EXPECT_GE(tree.height(), 3u);
  // Entries must come out in non-decreasing Z-order.
  for (size_t slot = 1; slot < tree.size(); ++slot) {
    const auto prev = tree.zwords(slot - 1);
    const auto cur = tree.zwords(slot);
    EXPECT_TRUE(std::lexicographical_compare(prev.begin(), prev.end(),
                                             cur.begin(), cur.end()) ||
                std::equal(prev.begin(), prev.end(), cur.begin()));
  }
}

TEST(ZBTreeTest, EmptyTree) {
  ZOrderCodec codec(2, kBits);
  PointSet ps(2);
  ZBTree tree(&codec, ps);
  EXPECT_TRUE(tree.empty());
  PointSet probe(2);
  probe.Append({1, 1});
  EXPECT_FALSE(tree.ExistsDominatorOf(probe[0]));
  EXPECT_EQ(tree.RemoveDominatedBy(probe[0]), 0u);
}

TEST(ZBTreeTest, ExistsDominatorMatchesBruteForce) {
  ZOrderCodec codec(4, kBits);
  PointSet ps = MakePoints(Distribution::kAnticorrelated, 400, 4, 2);
  ZBTree tree(&codec, ps);
  PointSet probes = MakePoints(Distribution::kIndependent, 200, 4, 3);
  for (size_t i = 0; i < probes.size(); ++i) {
    bool brute = false;
    for (size_t j = 0; j < ps.size(); ++j) {
      if (Dominates(ps[j], probes[i])) {
        brute = true;
        break;
      }
    }
    EXPECT_EQ(tree.ExistsDominatorOf(probes[i]), brute) << "probe " << i;
  }
}

TEST(ZBTreeTest, RemoveDominatedMatchesBruteForce) {
  ZOrderCodec codec(3, kBits);
  PointSet ps = MakePoints(Distribution::kIndependent, 500, 3, 4);
  ZBTree tree(&codec, ps);
  PointSet probes = MakePoints(Distribution::kIndependent, 20, 3, 5);
  size_t expected_alive = ps.size();
  std::vector<uint8_t> alive(ps.size(), 1);
  for (size_t i = 0; i < probes.size(); ++i) {
    size_t brute_removed = 0;
    for (size_t j = 0; j < ps.size(); ++j) {
      if (alive[j] && Dominates(probes[i], ps[j])) {
        alive[j] = 0;
        ++brute_removed;
      }
    }
    EXPECT_EQ(tree.RemoveDominatedBy(probes[i]), brute_removed);
    expected_alive -= brute_removed;
    EXPECT_EQ(tree.alive_count(), expected_alive);
  }
  // Collect survivors and compare id sets.
  PointSet survivors(3);
  std::vector<uint32_t> ids;
  tree.CollectAlive(survivors, ids);
  EXPECT_EQ(ids.size(), expected_alive);
  std::sort(ids.begin(), ids.end());
  std::vector<uint32_t> brute_ids;
  for (uint32_t j = 0; j < ps.size(); ++j) {
    if (alive[j]) brute_ids.push_back(j);
  }
  EXPECT_EQ(ids, brute_ids);
}

TEST(ZBTreeTest, CustomIds) {
  ZOrderCodec codec(2, kBits);
  PointSet ps(2);
  ps.Append({1, 2});
  ps.Append({3, 4});
  ZBTree tree(&codec, ps, std::vector<uint32_t>{100, 200},
              ZBTree::Options());
  PointSet out(2);
  std::vector<uint32_t> ids;
  tree.CollectAlive(out, ids);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint32_t>{100, 200}));
}

TEST(DynamicSkylineTest, AppendAndQuery) {
  ZOrderCodec codec(2, kBits);
  DynamicSkyline sky(&codec);
  PointSet ps(2);
  ps.Append({5, 5});
  ps.Append({6, 6});
  ps.Append({4, 7});
  EXPECT_FALSE(sky.ExistsDominatorOf(ps[0]));
  sky.Append(ps[0], 0);
  EXPECT_TRUE(sky.ExistsDominatorOf(ps[1]));
  EXPECT_FALSE(sky.ExistsDominatorOf(ps[2]));
  EXPECT_EQ(sky.size(), 1u);
}

TEST(DynamicSkylineTest, ManyAppendsTriggerTreeBuilds) {
  ZOrderCodec codec(3, kBits);
  DynamicSkyline sky(&codec);
  PointSet ps = MakePoints(Distribution::kAnticorrelated, 2000, 3, 6);
  size_t appended = 0;
  for (size_t i = 0; i < ps.size(); ++i) {
    if (!sky.ExistsDominatorOf(ps[i])) {
      sky.RemoveDominatedBy(ps[i]);
      sky.Append(ps[i], static_cast<uint32_t>(i));
      ++appended;
    }
  }
  EXPECT_GT(sky.tree_count(), 0u);
  // Exported contents must equal the true skyline of the input.
  PointSet out(3);
  std::vector<uint32_t> ids;
  sky.Export(out, ids);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, SortBasedSkyline(ps));
}

TEST(DynamicSkylineTest, RemoveDominatedAcrossTreesAndBuffer) {
  ZOrderCodec codec(2, kBits);
  DynamicSkyline sky(&codec);
  PointSet ps(2);
  // A descending staircase: all incomparable.
  for (Coord i = 0; i < 200; ++i) ps.Append({i + 1, 200 - i});
  for (size_t i = 0; i < ps.size(); ++i) {
    sky.Append(ps[i], static_cast<uint32_t>(i));
  }
  EXPECT_EQ(sky.size(), 200u);
  PointSet killer(2);
  killer.Append({0, 0});
  EXPECT_EQ(sky.RemoveDominatedBy(killer[0]), 200u);
  EXPECT_TRUE(sky.empty());
}

TEST(DynamicSkylineTest, BoundingRegionCoversContents) {
  ZOrderCodec codec(2, kBits);
  DynamicSkyline sky(&codec);
  EXPECT_FALSE(sky.BoundingRegion().has_value());
  PointSet ps(2);
  for (Coord i = 0; i < 100; ++i) ps.Append({i, 99 - i});
  for (size_t i = 0; i < ps.size(); ++i) {
    sky.Append(ps[i], static_cast<uint32_t>(i));
  }
  const auto region = sky.BoundingRegion();
  ASSERT_TRUE(region.has_value());
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_TRUE(region->ContainsPoint(ps[i]));
  }
}

struct ZCase {
  Distribution distribution;
  size_t n;
  uint32_t dim;
  uint64_t seed;
};

std::string CaseName(const ZCase& c) {
  return SeededCaseName(c.distribution, c.n, c.dim, c.seed);
}
void PrintTo(const ZCase& c, std::ostream* os) { *os << CaseName(c); }

class ZSearchOracleTest : public ::testing::TestWithParam<ZCase> {};

TEST_P(ZSearchOracleTest, MatchesSortBased) {
  const ZCase& c = GetParam();
  ZOrderCodec codec(c.dim, kBits);
  const PointSet ps = MakePoints(c.distribution, c.n, c.dim, c.seed);
  EXPECT_EQ(ZSearchSkyline(codec, ps), SortBasedSkyline(ps));
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, ZSearchOracleTest,
    ::testing::Values(ZCase{Distribution::kIndependent, 2000, 2, 1},
                      ZCase{Distribution::kIndependent, 2000, 5, 2},
                      ZCase{Distribution::kIndependent, 500, 9, 3},
                      ZCase{Distribution::kCorrelated, 2000, 4, 4},
                      ZCase{Distribution::kAnticorrelated, 1000, 3, 5},
                      ZCase{Distribution::kAnticorrelated, 800, 6, 6},
                      ZCase{Distribution::kIndependent, 1, 4, 7},
                      ZCase{Distribution::kIndependent, 63, 2, 8}),
    CaseNameGenerator());

TEST(ZSearchTest, StatsPopulated) {
  ZOrderCodec codec(4, kBits);
  const PointSet ps = MakePoints(Distribution::kIndependent, 5000, 4, 9);
  ZSearchStats stats;
  ZSearchSkyline(codec, ps, ZBTree::Options(), &stats);
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(stats.nodes_pruned, 0u);
  EXPECT_LT(stats.points_tested, ps.size());  // Pruning must skip points.
}

class ZMergeOracleTest : public ::testing::TestWithParam<ZCase> {};

// Z-merge of per-chunk skylines must equal the skyline of the union.
TEST_P(ZMergeOracleTest, MergedChunksEqualGlobalSkyline) {
  const ZCase& c = GetParam();
  ZOrderCodec codec(c.dim, kBits);
  const PointSet ps = MakePoints(c.distribution, c.n, c.dim, c.seed);
  const size_t chunks = 5;
  DynamicSkyline sky(&codec);
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    const size_t begin = chunk * ps.size() / chunks;
    const size_t end = (chunk + 1) * ps.size() / chunks;
    PointSet part(c.dim);
    std::vector<uint32_t> rows;
    for (size_t i = begin; i < end; ++i) {
      part.AppendFrom(ps, i);
      rows.push_back(static_cast<uint32_t>(i));
    }
    // Local skyline of the chunk (dominance-free input for Z-merge).
    const SkylineIndices local = SortBasedSkyline(part);
    PointSet local_points(c.dim);
    std::vector<uint32_t> local_ids;
    for (uint32_t i : local) {
      local_points.AppendFrom(part, i);
      local_ids.push_back(rows[i]);
    }
    ZBTree src(&codec, local_points, std::move(local_ids),
               ZBTree::Options());
    ZMerge(src, sky);
  }
  PointSet out(c.dim);
  std::vector<uint32_t> ids;
  sky.Export(out, ids);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, SortBasedSkyline(ps));
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, ZMergeOracleTest,
    ::testing::Values(ZCase{Distribution::kIndependent, 3000, 3, 11},
                      ZCase{Distribution::kIndependent, 2000, 6, 12},
                      ZCase{Distribution::kCorrelated, 3000, 4, 13},
                      ZCase{Distribution::kAnticorrelated, 1500, 2, 14},
                      ZCase{Distribution::kAnticorrelated, 1000, 5, 15},
                      ZCase{Distribution::kIndependent, 10, 3, 16}),
    CaseNameGenerator());

TEST(ZMergeTest, StatsTrackPruning) {
  ZOrderCodec codec(2, kBits);
  // Existing skyline near the origin dominates a far-away candidate tree:
  // everything should be discarded at the region level.
  PointSet sky_points(2);
  sky_points.Append({0, 0});
  DynamicSkyline sky(&codec);
  sky.Append(sky_points[0], 0);
  PointSet far(2);
  for (Coord i = 0; i < 64; ++i) far.Append({i + 500, 500 + (64 - i)});
  const SkylineIndices far_sky = SortBasedSkyline(far);
  PointSet far_points = PointSet::Gather(far, far_sky);
  ZBTree src(&codec, far_points, ZBTree::Options());
  ZMergeStats stats;
  ZMerge(src, sky, &stats);
  EXPECT_EQ(sky.size(), 1u);
  EXPECT_GE(stats.subtrees_discarded, 1u);
  // Region-level pruning must discard most candidates without point tests.
  EXPECT_LT(stats.points_tested, far_points.size());
}

TEST(ZMergeTest, IncomparableSubtreeAppendedWholesale) {
  ZOrderCodec codec(2, kBits);
  DynamicSkyline sky(&codec);
  PointSet corner(2);
  corner.Append({1023, 0});
  sky.Append(corner[0], 9999);
  // Candidates incomparable with the single skyline point.
  PointSet cands(2);
  for (Coord i = 0; i < 32; ++i) cands.Append({i + 200, 800 - i});
  ZBTree src(&codec, cands, ZBTree::Options());
  ZMergeStats stats;
  ZMerge(src, sky, &stats);
  EXPECT_EQ(sky.size(), 1u + 32u);
  EXPECT_GE(stats.subtrees_appended, 1u);
}

}  // namespace
}  // namespace zsky
