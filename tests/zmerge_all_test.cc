#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>

#include "algo/sort_based.h"
#include "case_names.h"
#include "common/quantizer.h"
#include "gen/synthetic.h"
#include "index/zmerge.h"
#include "index/zsearch.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 10;

PointSet MakePoints(Distribution d, size_t n, uint32_t dim, uint64_t seed) {
  return GenerateQuantized(d, n, dim, seed, Quantizer(kBits));
}

// Builds per-chunk local-skyline trees (the shape MR job 2 receives).
struct CandidateTrees {
  std::vector<std::unique_ptr<ZBTree>> trees;
  std::vector<const ZBTree*> ptrs;
};

CandidateTrees BuildChunkTrees(const ZOrderCodec& codec, const PointSet& ps,
                               size_t chunks) {
  CandidateTrees out;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t begin = c * ps.size() / chunks;
    const size_t end = (c + 1) * ps.size() / chunks;
    PointSet chunk(ps.dim());
    std::vector<uint32_t> rows;
    for (size_t i = begin; i < end; ++i) {
      chunk.AppendFrom(ps, i);
      rows.push_back(static_cast<uint32_t>(i));
    }
    PointSet local(ps.dim());
    std::vector<uint32_t> ids;
    for (uint32_t i : SortBasedSkyline(chunk)) {
      local.AppendFrom(chunk, i);
      ids.push_back(rows[i]);
    }
    out.trees.push_back(std::make_unique<ZBTree>(&codec, local,
                                                 std::move(ids),
                                                 ZBTree::Options()));
    out.ptrs.push_back(out.trees.back().get());
  }
  return out;
}

struct MergeCase {
  Distribution distribution;
  size_t n;
  uint32_t dim;
  size_t chunks;
  uint64_t seed;
};

std::string CaseName(const MergeCase& c) {
  return SeededCaseName(c.distribution, c.n, c.dim, c.seed,
                        "_c" + std::to_string(c.chunks));
}
void PrintTo(const MergeCase& c, std::ostream* os) { *os << CaseName(c); }

class ZMergeAllOracleTest : public ::testing::TestWithParam<MergeCase> {};

TEST_P(ZMergeAllOracleTest, EqualsGlobalSkyline) {
  const MergeCase& c = GetParam();
  ZOrderCodec codec(c.dim, kBits);
  const PointSet ps = MakePoints(c.distribution, c.n, c.dim, c.seed);
  CandidateTrees trees = BuildChunkTrees(codec, ps, c.chunks);
  ZMergeStats stats;
  const SkylineIndices merged =
      ZMergeAll(codec, trees.ptrs, ZBTree::Options(), &stats);
  EXPECT_EQ(merged, SortBasedSkyline(ps));
  EXPECT_GT(stats.points_tested, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, ZMergeAllOracleTest,
    ::testing::Values(
        MergeCase{Distribution::kIndependent, 4000, 3, 8, 1},
        MergeCase{Distribution::kIndependent, 4000, 6, 3, 2},
        MergeCase{Distribution::kCorrelated, 4000, 4, 16, 3},
        MergeCase{Distribution::kAnticorrelated, 2000, 2, 5, 4},
        MergeCase{Distribution::kAnticorrelated, 2000, 5, 7, 5},
        MergeCase{Distribution::kIndependent, 100, 3, 50, 6},
        MergeCase{Distribution::kIndependent, 4000, 3, 1, 7}),
    CaseNameGenerator());

TEST(ZMergeAllTest, EmptyInput) {
  ZOrderCodec codec(3, kBits);
  EXPECT_TRUE(ZMergeAll(codec, {}, ZBTree::Options()).empty());
}

TEST(ZMergeAllTest, NullAndEmptyTreesSkipped) {
  ZOrderCodec codec(2, kBits);
  PointSet empty(2);
  ZBTree empty_tree(&codec, empty);
  PointSet one(2);
  one.Append({3, 4});
  ZBTree one_tree(&codec, one, std::vector<uint32_t>{42}, ZBTree::Options());
  const SkylineIndices merged =
      ZMergeAll(codec, {nullptr, &empty_tree, &one_tree}, ZBTree::Options());
  EXPECT_EQ(merged, (SkylineIndices{42}));
}

TEST(ZMergeAllTest, RegionDiscardsFireOnCorrelatedChunks) {
  // Chunk 0 holds near-origin points; chunk 1 holds a dominated cluster
  // whose whole tree should be discarded at region level.
  ZOrderCodec codec(2, kBits);
  PointSet good(2);
  PointSet bad(2);
  for (Coord i = 0; i < 64; ++i) {
    good.Append({i, 64 - i});
    bad.Append({i + 500, 1000 - i});
  }
  ZBTree good_tree(&codec, good);
  std::vector<uint32_t> bad_ids(64);
  for (uint32_t i = 0; i < 64; ++i) bad_ids[i] = 1000 + i;
  ZBTree bad_tree(&codec, bad, std::move(bad_ids), ZBTree::Options());
  ZMergeStats stats;
  const SkylineIndices merged = ZMergeAll(
      codec, {&good_tree, &bad_tree}, ZBTree::Options(), &stats);
  EXPECT_EQ(merged.size(), 64u);  // Only the good staircase survives.
  EXPECT_GT(stats.subtrees_discarded, 0u);
  for (uint32_t id : merged) EXPECT_LT(id, 1000u);
}

TEST(ZMergeAllTest, DuplicatePointsAcrossTreesAllSurvive) {
  ZOrderCodec codec(2, kBits);
  PointSet a(2);
  a.Append({5, 5});
  PointSet b(2);
  b.Append({5, 5});
  ZBTree ta(&codec, a, std::vector<uint32_t>{1}, ZBTree::Options());
  ZBTree tb(&codec, b, std::vector<uint32_t>{2}, ZBTree::Options());
  const SkylineIndices merged =
      ZMergeAll(codec, {&ta, &tb}, ZBTree::Options());
  EXPECT_EQ(merged, (SkylineIndices{1, 2}));
}

TEST(ZMergeAllTest, AgreesWithPairwiseZMerge) {
  ZOrderCodec codec(4, kBits);
  const PointSet ps = MakePoints(Distribution::kAnticorrelated, 3000, 4, 8);
  CandidateTrees trees = BuildChunkTrees(codec, ps, 6);
  const SkylineIndices kway =
      ZMergeAll(codec, trees.ptrs, ZBTree::Options());
  DynamicSkyline sky(&codec);
  for (const ZBTree* tree : trees.ptrs) ZMerge(*tree, sky);
  PointSet out(4);
  SkylineIndices pairwise;
  sky.Export(out, pairwise);
  SortSkyline(pairwise);
  EXPECT_EQ(kway, pairwise);
}

}  // namespace
}  // namespace zsky
