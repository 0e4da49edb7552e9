#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "algo/sort_based.h"
#include "case_names.h"
#include "common/quantizer.h"
#include "core/streaming.h"
#include "gen/synthetic.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 10;

PointSet MakePoints(Distribution d, size_t n, uint32_t dim, uint64_t seed) {
  return GenerateQuantized(d, n, dim, seed, Quantizer(kBits));
}

struct Case {
  Distribution distribution;
  size_t n;
  uint32_t dim;
  uint64_t seed;
};

std::string CaseName(const Case& c) {
  return SeededCaseName(c.distribution, c.n, c.dim, c.seed);
}
void PrintTo(const Case& c, std::ostream* os) { *os << CaseName(c); }

class StreamingOracleTest : public ::testing::TestWithParam<Case> {};

// After inserting a whole dataset in any order, the maintained skyline
// must equal the batch skyline.
TEST_P(StreamingOracleTest, MatchesBatchSkyline) {
  const Case& c = GetParam();
  const PointSet ps = MakePoints(c.distribution, c.n, c.dim, c.seed);
  ZOrderCodec codec(c.dim, kBits);
  StreamingSkyline stream(&codec);
  for (size_t i = 0; i < ps.size(); ++i) {
    stream.Insert(ps[i], static_cast<uint32_t>(i));
  }
  EXPECT_EQ(stream.CurrentIds(), SortBasedSkyline(ps));
  EXPECT_EQ(stream.seen_total(), ps.size());
  EXPECT_EQ(stream.seen_total(),
            stream.size() + stream.rejected_total() +
                stream.evicted_total());
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, StreamingOracleTest,
    ::testing::Values(Case{Distribution::kIndependent, 3000, 3, 1},
                      Case{Distribution::kIndependent, 3000, 6, 2},
                      Case{Distribution::kCorrelated, 3000, 4, 3},
                      Case{Distribution::kAnticorrelated, 2000, 2, 4},
                      Case{Distribution::kAnticorrelated, 1500, 5, 5}),
    CaseNameGenerator());

TEST(StreamingTest, InsertReturnsMembership) {
  ZOrderCodec codec(2, kBits);
  StreamingSkyline stream(&codec);
  PointSet ps(2);
  ps.Append({5, 5});
  ps.Append({6, 6});  // Dominated on arrival.
  ps.Append({2, 2});  // Evicts (5,5).
  EXPECT_TRUE(stream.Insert(ps[0], 0));
  EXPECT_FALSE(stream.Insert(ps[1], 1));
  EXPECT_TRUE(stream.Insert(ps[2], 2));
  EXPECT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream.evicted_total(), 1u);
  EXPECT_EQ(stream.rejected_total(), 1u);
  EXPECT_EQ(stream.CurrentIds(), (SkylineIndices{2}));
}

TEST(StreamingTest, WorstCaseAdversarialOrder) {
  // Feed points best-last so every insertion evicts: stresses removal and
  // compaction paths.
  ZOrderCodec codec(2, kBits);
  StreamingSkyline stream(&codec);
  for (Coord v = 500; v-- > 0;) {
    PointSet p(2);
    p.Append({v, v});
    EXPECT_TRUE(stream.Insert(p[0], v));
  }
  EXPECT_EQ(stream.size(), 1u);
  EXPECT_EQ(stream.evicted_total(), 499u);
  EXPECT_EQ(stream.CurrentIds(), (SkylineIndices{0}));
}

TEST(StreamingTest, SnapshotMatchesIds) {
  ZOrderCodec codec(3, kBits);
  StreamingSkyline stream(&codec);
  const PointSet ps = MakePoints(Distribution::kIndependent, 500, 3, 6);
  for (size_t i = 0; i < ps.size(); ++i) {
    stream.Insert(ps[i], static_cast<uint32_t>(i));
  }
  PointSet points(3);
  std::vector<uint32_t> ids;
  stream.Snapshot(points, ids);
  EXPECT_EQ(points.size(), ids.size());
  EXPECT_EQ(ids.size(), stream.size());
}

}  // namespace
}  // namespace zsky
