#include <gtest/gtest.h>

#include <deque>
#include <ostream>
#include <string>

#include "algo/skyline.h"
#include "case_names.h"
#include "common/dominance.h"
#include "common/quantizer.h"
#include "core/windowed_skyline.h"
#include "gen/synthetic.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 8;

PointSet MakePoints(Distribution d, size_t n, uint32_t dim, uint64_t seed) {
  return GenerateQuantized(d, n, dim, seed, Quantizer(kBits));
}

// Brute-force reference: skyline of the last `window` points.
SkylineIndices BruteWindowSkyline(const PointSet& stream, size_t upto,
                                  size_t window) {
  const size_t begin = upto >= window ? upto - window : 0;
  SkylineIndices result;
  for (size_t i = begin; i < upto; ++i) {
    bool dominated = false;
    for (size_t j = begin; j < upto && !dominated; ++j) {
      dominated = j != i && Dominates(stream[j], stream[i]);
    }
    if (!dominated) result.push_back(static_cast<uint32_t>(i));
  }
  return result;
}

struct WindowCase {
  Distribution distribution;
  size_t n;
  uint32_t dim;
  size_t window;
  uint64_t seed;
};

std::string CaseName(const WindowCase& c) {
  return SeededCaseName(c.distribution, c.n, c.dim, c.seed,
                        "_w" + std::to_string(c.window));
}
void PrintTo(const WindowCase& c, std::ostream* os) { *os << CaseName(c); }

class WindowedOracleTest : public ::testing::TestWithParam<WindowCase> {};

TEST_P(WindowedOracleTest, MatchesBruteForceAtEveryStep) {
  const WindowCase& c = GetParam();
  const PointSet stream = MakePoints(c.distribution, c.n, c.dim, c.seed);
  WindowedSkyline sky(c.dim, c.window);
  for (size_t i = 0; i < stream.size(); ++i) {
    sky.Insert(stream[i], static_cast<uint32_t>(i));
    // Check at a stride (every arrival for small inputs) to keep the
    // quadratic oracle affordable.
    if (i % 17 == 0 || i + 1 == stream.size()) {
      EXPECT_EQ(sky.CurrentIds(), BruteWindowSkyline(stream, i + 1, c.window))
          << "after arrival " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, WindowedOracleTest,
    ::testing::Values(WindowCase{Distribution::kIndependent, 600, 2, 50, 1},
                      WindowCase{Distribution::kIndependent, 600, 4, 100, 2},
                      WindowCase{Distribution::kCorrelated, 600, 3, 64, 3},
                      WindowCase{Distribution::kAnticorrelated, 500, 3, 40,
                                 4},
                      WindowCase{Distribution::kIndependent, 300, 2, 1, 5},
                      WindowCase{Distribution::kIndependent, 100, 3, 1000,
                                 6}),
    CaseNameGenerator());

TEST(WindowedTest, ExpiredDominatorRevealsSuccessor) {
  // p0 dominates p1; after p0 expires, p1 becomes skyline... but p1 was
  // dominated by an OLDER point, so it stays critical and resurfaces.
  WindowedSkyline sky(2, 2);
  PointSet ps(2);
  ps.Append({0, 0});  // id 0: dominates everything.
  ps.Append({5, 5});  // id 1: dominated by 0 (older), kept critical.
  ps.Append({6, 7});  // id 2: dominated by 1 (older), kept critical.
  sky.Insert(ps[0], 0);
  sky.Insert(ps[1], 1);
  EXPECT_EQ(sky.CurrentIds(), (SkylineIndices{0}));
  sky.Insert(ps[2], 2);  // Window is now {1, 2}; 0 expired.
  EXPECT_EQ(sky.CurrentIds(), (SkylineIndices{1}));
}

TEST(WindowedTest, YoungerDominatorDiscardsForever) {
  WindowedSkyline sky(2, 3);
  PointSet ps(2);
  ps.Append({5, 5});  // id 0.
  ps.Append({1, 1});  // id 1: dominates 0 -> 0 gone forever.
  sky.Insert(ps[0], 0);
  sky.Insert(ps[1], 1);
  EXPECT_EQ(sky.critical_size(), 1u);
  EXPECT_EQ(sky.CurrentIds(), (SkylineIndices{1}));
}

TEST(WindowedTest, WindowOfOneKeepsOnlyNewest) {
  WindowedSkyline sky(2, 1);
  PointSet ps(2);
  ps.Append({1, 1});
  ps.Append({9, 9});
  sky.Insert(ps[0], 0);
  sky.Insert(ps[1], 1);
  EXPECT_EQ(sky.CurrentIds(), (SkylineIndices{1}));
}

TEST(WindowedTest, CriticalSetStaysBounded) {
  // On correlated data the critical set should stay tiny relative to the
  // window (most points are dominated by younger ones quickly).
  const PointSet stream = MakePoints(Distribution::kCorrelated, 5000, 3, 7);
  WindowedSkyline sky(3, 1000);
  for (size_t i = 0; i < stream.size(); ++i) {
    sky.Insert(stream[i], static_cast<uint32_t>(i));
  }
  EXPECT_LT(sky.critical_size(), 400u);
}

}  // namespace
}  // namespace zsky
