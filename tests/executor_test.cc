#include <gtest/gtest.h>

#include "algo/bnl.h"
#include "common/quantizer.h"
#include "core/executor.h"
#include "core/mr_gpmrs.h"
#include "gen/synthetic.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 12;

PointSet MakePoints(Distribution d, size_t n, uint32_t dim, uint64_t seed) {
  return GenerateQuantized(d, n, dim, seed, Quantizer(kBits));
}

struct PipelineCase {
  PartitioningScheme partitioning;
  LocalAlgorithm local;
  MergeAlgorithm merge;
  Distribution distribution;
  uint32_t dim;
};

// Readable parameterized-test names ("zdg_zs_zm_anticorrelated_d3").
std::string PipelineCaseName(
    const ::testing::TestParamInfo<PipelineCase>& info) {
  const PipelineCase& c = info.param;
  std::string name = std::string(PartitioningSchemeName(c.partitioning)) +
                     "_" + std::string(LocalAlgorithmName(c.local)) + "_" +
                     std::string(MergeAlgorithmName(c.merge)) + "_" +
                     std::string(DistributionName(c.distribution)) + "_d" +
                     std::to_string(c.dim);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class PipelineOracleTest : public ::testing::TestWithParam<PipelineCase> {};

// The load-bearing integration property: every strategy combination must
// produce exactly the centralized skyline.
TEST_P(PipelineOracleTest, MatchesCentralizedOracle) {
  const PipelineCase& c = GetParam();
  const PointSet points = MakePoints(c.distribution, 4000, c.dim, 77);
  ExecutorOptions options;
  options.partitioning = c.partitioning;
  options.local = c.local;
  options.merge = c.merge;
  options.num_groups = 6;
  options.expansion = 3;
  options.sample_ratio = 0.05;
  options.bits = kBits;
  options.num_map_tasks = 7;
  options.num_threads = 4;
  const ParallelSkylineExecutor executor(options);
  const SkylineQueryResult result = executor.Execute(points);
  EXPECT_EQ(result.skyline, BnlSkyline(points)) << options.Label();
  EXPECT_GT(result.metrics.candidates, 0u);
  EXPECT_GE(result.metrics.candidates, result.skyline.size());
  EXPECT_GT(result.metrics.total_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, PipelineOracleTest,
    ::testing::Values(
        PipelineCase{PartitioningScheme::kGrid, LocalAlgorithm::kSortBased,
                     MergeAlgorithm::kSortBased, Distribution::kIndependent,
                     4},
        PipelineCase{PartitioningScheme::kGrid, LocalAlgorithm::kZSearch,
                     MergeAlgorithm::kZMerge, Distribution::kAnticorrelated,
                     3},
        PipelineCase{PartitioningScheme::kAngle, LocalAlgorithm::kSortBased,
                     MergeAlgorithm::kZSearch, Distribution::kIndependent, 5},
        PipelineCase{PartitioningScheme::kAngle, LocalAlgorithm::kZSearch,
                     MergeAlgorithm::kZMerge, Distribution::kCorrelated, 4},
        PipelineCase{PartitioningScheme::kQuadTree, LocalAlgorithm::kZSearch,
                     MergeAlgorithm::kZMerge, Distribution::kIndependent, 4},
        PipelineCase{PartitioningScheme::kQuadTree,
                     LocalAlgorithm::kSortBased, MergeAlgorithm::kSortBased,
                     Distribution::kAnticorrelated, 5},
        PipelineCase{PartitioningScheme::kNaiveZ, LocalAlgorithm::kZSearch,
                     MergeAlgorithm::kZMerge, Distribution::kIndependent, 5},
        PipelineCase{PartitioningScheme::kNaiveZ, LocalAlgorithm::kSortBased,
                     MergeAlgorithm::kSortBased,
                     Distribution::kAnticorrelated, 2},
        PipelineCase{PartitioningScheme::kZhg, LocalAlgorithm::kZSearch,
                     MergeAlgorithm::kZMerge, Distribution::kIndependent, 4},
        PipelineCase{PartitioningScheme::kZhg, LocalAlgorithm::kSortBased,
                     MergeAlgorithm::kZMerge, Distribution::kAnticorrelated,
                     6},
        PipelineCase{PartitioningScheme::kZdg, LocalAlgorithm::kZSearch,
                     MergeAlgorithm::kZMerge, Distribution::kIndependent, 5},
        PipelineCase{PartitioningScheme::kZdg, LocalAlgorithm::kZSearch,
                     MergeAlgorithm::kZMerge, Distribution::kCorrelated, 4},
        PipelineCase{PartitioningScheme::kZdg, LocalAlgorithm::kZSearch,
                     MergeAlgorithm::kZMerge, Distribution::kAnticorrelated,
                     3},
        PipelineCase{PartitioningScheme::kZdg, LocalAlgorithm::kZSearch,
                     MergeAlgorithm::kParallelZMerge,
                     Distribution::kAnticorrelated, 4},
        PipelineCase{PartitioningScheme::kNaiveZ, LocalAlgorithm::kZSearch,
                     MergeAlgorithm::kParallelZMerge,
                     Distribution::kIndependent, 5},
        PipelineCase{PartitioningScheme::kZdg, LocalAlgorithm::kSortBased,
                     MergeAlgorithm::kZSearch, Distribution::kIndependent,
                     8}),
    PipelineCaseName);

// Exhaustive strategy matrix: every partitioning x local x merge
// combination must compute the exact skyline on every distribution.
TEST(PipelineMatrixTest, AllCombinations) {
  const PartitioningScheme partitionings[] = {
      PartitioningScheme::kRandom,   PartitioningScheme::kGrid,
      PartitioningScheme::kAngle,    PartitioningScheme::kQuadTree,
      PartitioningScheme::kNaiveZ,   PartitioningScheme::kZhg,
      PartitioningScheme::kZdg};
  const LocalAlgorithm locals[] = {LocalAlgorithm::kSortBased,
                                   LocalAlgorithm::kZSearch,
                                   LocalAlgorithm::kBbs};
  const MergeAlgorithm merges[] = {
      MergeAlgorithm::kSortBased, MergeAlgorithm::kZSearch,
      MergeAlgorithm::kZMerge, MergeAlgorithm::kParallelZMerge};
  for (auto dist : {Distribution::kIndependent, Distribution::kCorrelated,
                    Distribution::kAnticorrelated}) {
    const PointSet points = MakePoints(dist, 1200, 4, 90);
    const SkylineIndices oracle = BnlSkyline(points);
    for (auto partitioning : partitionings) {
      for (auto local : locals) {
        for (auto merge : merges) {
          ExecutorOptions options;
          options.partitioning = partitioning;
          options.local = local;
          options.merge = merge;
          options.bits = kBits;
          options.num_groups = 5;
          options.merge_reducers = 3;
          options.num_map_tasks = 4;
          const auto result =
              ParallelSkylineExecutor(options).Execute(points);
          ASSERT_EQ(result.skyline, oracle)
              << options.Label() << " on "
              << std::string(DistributionName(dist));
        }
      }
    }
  }
}

TEST(ExecutorTest, RandomPartitioningBalancesPerfectly) {
  const PointSet points = MakePoints(Distribution::kIndependent, 20000, 4,
                                     91);
  ExecutorOptions options;
  options.bits = kBits;
  options.partitioning = PartitioningScheme::kRandom;
  options.num_groups = 8;
  options.enable_szb_filter = false;
  const auto result = ParallelSkylineExecutor(options).Execute(points);
  EXPECT_EQ(result.skyline, BnlSkyline(points));
  // Hash routing: reduce inputs within ~15% of each other.
  size_t min_in = SIZE_MAX;
  size_t max_in = 0;
  for (const auto& task : result.metrics.job1.reduce_tasks) {
    min_in = std::min(min_in, task.records_in);
    max_in = std::max(max_in, task.records_in);
  }
  EXPECT_LT(max_in, min_in + min_in / 4);
}

TEST(ExecutorTest, EmptyInput) {
  ExecutorOptions options;
  options.bits = kBits;
  const ParallelSkylineExecutor executor(options);
  PointSet empty(4);
  const SkylineQueryResult result = executor.Execute(empty);
  EXPECT_TRUE(result.skyline.empty());
}

TEST(ExecutorTest, TinyInput) {
  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 8;
  const ParallelSkylineExecutor executor(options);
  PointSet points(2);
  points.Append({1, 2});
  points.Append({2, 1});
  points.Append({3, 3});
  const SkylineQueryResult result = executor.Execute(points);
  EXPECT_EQ(result.skyline, (SkylineIndices{0, 1}));
}

TEST(ExecutorTest, SzbFilterReducesShuffledRecords) {
  const PointSet points = MakePoints(Distribution::kIndependent, 8000, 3, 5);
  ExecutorOptions with;
  with.bits = kBits;
  with.enable_szb_filter = true;
  ExecutorOptions without = with;
  without.enable_szb_filter = false;
  const auto r_with = ParallelSkylineExecutor(with).Execute(points);
  const auto r_without = ParallelSkylineExecutor(without).Execute(points);
  EXPECT_EQ(r_with.skyline, r_without.skyline);
  EXPECT_GT(r_with.metrics.filtered_by_szb, 0u);
  EXPECT_LT(r_with.metrics.job1.shuffle_records,
            r_without.metrics.job1.shuffle_records);
}

TEST(ExecutorTest, CombinerReducesShuffle) {
  const PointSet points = MakePoints(Distribution::kIndependent, 8000, 3, 6);
  ExecutorOptions with;
  with.bits = kBits;
  with.enable_szb_filter = false;
  with.enable_combiner = true;
  ExecutorOptions without = with;
  without.enable_combiner = false;
  const auto r_with = ParallelSkylineExecutor(with).Execute(points);
  const auto r_without = ParallelSkylineExecutor(without).Execute(points);
  EXPECT_EQ(r_with.skyline, r_without.skyline);
  EXPECT_LT(r_with.metrics.job1.shuffle_records,
            r_without.metrics.job1.shuffle_records);
}

TEST(ExecutorTest, MetricsPlausible) {
  const PointSet points = MakePoints(Distribution::kAnticorrelated, 6000, 4, 7);
  ExecutorOptions options;
  options.bits = kBits;
  options.partitioning = PartitioningScheme::kZdg;
  const auto result = ParallelSkylineExecutor(options).Execute(points);
  const PhaseMetrics& pm = result.metrics;
  EXPECT_GT(pm.sample_size, 0u);
  EXPECT_GT(pm.sample_skyline_size, 0u);
  EXPECT_GT(pm.num_partitions, 0u);
  EXPECT_GE(pm.num_groups, 1u);
  EXPECT_GT(pm.preprocess_ms, 0.0);
  EXPECT_GT(pm.job1_ms, 0.0);
  EXPECT_GT(pm.job2_ms, 0.0);
  EXPECT_GE(pm.total_ms, pm.job1_ms);
  EXPECT_EQ(pm.job1.map_tasks.size(), options.num_map_tasks);
  // The engine fills map-side records_in from the executor's split sizes
  // (the seed left it zero).
  size_t map_in = 0;
  for (const auto& task : pm.job1.map_tasks) map_in += task.records_in;
  EXPECT_EQ(map_in, points.size());
}

// The hot-path machinery (block dominance kernel, split job-2 map wave)
// must be output-invisible: the hot configuration yields the
// bit-identical skyline of the seed-mode configuration.
TEST(ExecutorTest, HotPathTogglesAreOutputInvisible) {
  const PointSet points = MakePoints(Distribution::kAnticorrelated, 6000, 5,
                                     17);
  auto run = [&](bool hot) {
    ExecutorOptions options;
    options.bits = kBits;
    options.partitioning = PartitioningScheme::kZdg;
    options.merge = MergeAlgorithm::kParallelZMerge;
    options.num_threads = 4;
    options.use_block_kernel = hot;
    options.job2_map_tasks = hot ? 0 : 1;  // Seed ran job 2's map as 1 task.
    return ParallelSkylineExecutor(options).Execute(points);
  };
  const auto hot = run(true);
  const auto seed_mode = run(false);
  EXPECT_EQ(hot.skyline, seed_mode.skyline);
  EXPECT_EQ(hot.skyline, BnlSkyline(points));
  EXPECT_GT(hot.metrics.job2.map_tasks.size(), 1u);
  EXPECT_EQ(seed_mode.metrics.job2.map_tasks.size(), 1u);
}

TEST(ExecutorTest, SimulatedClusterMetricsPopulated) {
  const PointSet points = MakePoints(Distribution::kIndependent, 5000, 4, 50);
  ExecutorOptions options;
  options.bits = kBits;
  const auto result = ParallelSkylineExecutor(options).Execute(points);
  const PhaseMetrics& pm = result.metrics;
  EXPECT_GT(pm.sim_job1_ms, 0.0);
  EXPECT_GT(pm.sim_job2_ms, 0.0);
  EXPECT_NEAR(pm.sim_total_ms, pm.preprocess_ms + pm.sim_job1_ms +
                                   pm.sim_job2_ms,
              1e-9);
  // Simulated time cannot exceed the single-threaded measured time by
  // more than the shuffle modelling term.
  EXPECT_LT(pm.sim_job1_ms,
            pm.job1.map_wall_ms + pm.job1.reduce_wall_ms + 1000.0);
}

TEST(ExecutorTest, SimWorkersOverride) {
  const PointSet points = MakePoints(Distribution::kIndependent, 5000, 4, 51);
  ExecutorOptions one;
  one.bits = kBits;
  one.sim_workers = 1;
  ExecutorOptions many = one;
  many.sim_workers = 64;
  const auto r1 = ParallelSkylineExecutor(one).Execute(points);
  const auto r64 = ParallelSkylineExecutor(many).Execute(points);
  EXPECT_EQ(r1.skyline, r64.skyline);
  // More slots can only shrink a wave's makespan (same measured tasks up
  // to run-to-run noise; allow generous slack).
  EXPECT_LT(r64.metrics.sim_job1_ms, 4.0 * r1.metrics.sim_job1_ms);
}

TEST(ExecutorTest, SingleGroupSingleMapTask) {
  const PointSet points = MakePoints(Distribution::kAnticorrelated, 2000, 3,
                                     52);
  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 1;
  options.num_map_tasks = 1;
  const auto result = ParallelSkylineExecutor(options).Execute(points);
  EXPECT_EQ(result.skyline, BnlSkyline(points));
}

TEST(ExecutorTest, ManyGroupsFewPoints) {
  const PointSet points = MakePoints(Distribution::kIndependent, 40, 3, 53);
  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 64;
  options.num_map_tasks = 64;
  const auto result = ParallelSkylineExecutor(options).Execute(points);
  EXPECT_EQ(result.skyline, BnlSkyline(points));
}

TEST(ExecutorTest, AllDuplicateInput) {
  PointSet points(3);
  for (int i = 0; i < 1000; ++i) points.Append({5, 5, 5});
  ExecutorOptions options;
  options.bits = kBits;
  const auto result = ParallelSkylineExecutor(options).Execute(points);
  EXPECT_EQ(result.skyline.size(), 1000u);  // Duplicates never dominate.
}

TEST(MrGpmrsTest, ReducerCountDoesNotChangeResult) {
  const PointSet points = MakePoints(Distribution::kIndependent, 3000, 4, 54);
  SkylineIndices expected = BnlSkyline(points);
  for (uint32_t reducers : {1u, 2u, 8u, 32u}) {
    MrGpmrsOptions options;
    options.bits = kBits;
    options.num_cells = 16;
    options.num_merge_reducers = reducers;
    EXPECT_EQ(MrGpmrsSkyline(points, options).skyline, expected)
        << reducers << " reducers";
  }
}

TEST(MrGpmrsTest, ZSearchLocalAlgorithm) {
  const PointSet points = MakePoints(Distribution::kAnticorrelated, 3000, 4,
                                     55);
  MrGpmrsOptions options;
  options.bits = kBits;
  options.local = LocalAlgorithm::kZSearch;
  EXPECT_EQ(MrGpmrsSkyline(points, options).skyline, BnlSkyline(points));
}

TEST(MrGpmrsTest, CellPruningFiresOnCorrelatedData) {
  const PointSet points = MakePoints(Distribution::kCorrelated, 5000, 4, 56);
  MrGpmrsOptions options;
  options.bits = kBits;
  options.num_cells = 32;
  const auto result = MrGpmrsSkyline(points, options);
  EXPECT_EQ(result.skyline, BnlSkyline(points));
  EXPECT_GT(result.metrics.dropped_by_pruning, 0u);
}

TEST(ExecutorTest, SurvivesInjectedTaskFailures) {
  const PointSet points = MakePoints(Distribution::kIndependent, 6000, 4, 58);
  ExecutorOptions clean;
  clean.bits = kBits;
  const SkylineIndices expected =
      ParallelSkylineExecutor(clean).Execute(points).skyline;

  ExecutorOptions faulty = clean;
  faulty.max_task_attempts = 20;
  // Every task crashes on its first two attempts, in both jobs and waves.
  faulty.failure_injector = [](int, size_t, uint32_t attempt) {
    return attempt <= 2;
  };
  const auto result = ParallelSkylineExecutor(faulty).Execute(points);
  EXPECT_EQ(result.skyline, expected);
  EXPECT_TRUE(result.metrics.job1.succeeded);
  EXPECT_TRUE(result.metrics.job2.succeeded);
  EXPECT_GT(result.metrics.job1.failed_attempts, 0u);
  EXPECT_GT(result.metrics.job2.failed_attempts, 0u);
}

TEST(ExecutorTest, ExhaustedRetriesReportFailure) {
  const PointSet points = MakePoints(Distribution::kIndependent, 2000, 3, 59);
  ExecutorOptions options;
  options.bits = kBits;
  options.max_task_attempts = 2;
  options.failure_injector = [](int wave, size_t task, uint32_t) {
    return wave == 0 && task == 0;  // First map task never commits.
  };
  const auto result = ParallelSkylineExecutor(options).Execute(points);
  EXPECT_FALSE(result.metrics.job1.succeeded);
}

TEST(ExecutorTest, ParallelMergeMatchesSingleReducerMerge) {
  const PointSet points =
      MakePoints(Distribution::kAnticorrelated, 8000, 4, 57);
  ExecutorOptions single;
  single.bits = kBits;
  single.merge = MergeAlgorithm::kZMerge;
  ExecutorOptions parallel = single;
  parallel.merge = MergeAlgorithm::kParallelZMerge;
  for (uint32_t reducers : {1u, 2u, 5u, 16u}) {
    parallel.merge_reducers = reducers;
    EXPECT_EQ(ParallelSkylineExecutor(parallel).Execute(points).skyline,
              ParallelSkylineExecutor(single).Execute(points).skyline)
        << reducers << " merge reducers";
  }
}

TEST(ExecutorTest, DeterministicAcrossRuns) {
  const PointSet points = MakePoints(Distribution::kIndependent, 5000, 5, 8);
  ExecutorOptions options;
  options.bits = kBits;
  const auto a = ParallelSkylineExecutor(options).Execute(points);
  const auto b = ParallelSkylineExecutor(options).Execute(points);
  EXPECT_EQ(a.skyline, b.skyline);
}

// The parallel merge builds its partial trees on the executor's pool; the
// skyline must not depend on how many threads that pool has.
TEST(ExecutorTest, ParallelMergeIndependentOfThreadCount) {
  const PointSet points =
      MakePoints(Distribution::kAnticorrelated, 6000, 5, 61);
  const SkylineIndices oracle = BnlSkyline(points);
  ExecutorOptions options;
  options.bits = kBits;
  options.merge = MergeAlgorithm::kParallelZMerge;
  options.merge_reducers = 4;
  for (const uint32_t threads : {1u, 2u, 4u}) {
    options.num_threads = threads;
    EXPECT_EQ(ParallelSkylineExecutor(options).Execute(points).skyline,
              oracle)
        << threads << " threads";
  }
}

// An executor owns one pool for its lifetime: queries over different
// inputs run back to back on it and each still matches its oracle.
TEST(ExecutorTest, OneExecutorServesSuccessiveQueries) {
  ExecutorOptions options;
  options.bits = kBits;
  options.num_threads = 3;
  options.merge = MergeAlgorithm::kParallelZMerge;
  const ParallelSkylineExecutor executor(options);
  const PointSet anti = MakePoints(Distribution::kAnticorrelated, 5000, 4, 3);
  const PointSet indep = MakePoints(Distribution::kIndependent, 3000, 6, 4);
  const SkylineIndices first = executor.Execute(anti).skyline;
  EXPECT_EQ(first, BnlSkyline(anti));
  EXPECT_EQ(executor.Execute(indep).skyline, BnlSkyline(indep));
  EXPECT_EQ(executor.Execute(anti).skyline, first);
}

TEST(ExecutorTest, HighDimensionalInput) {
  // 64-d clustered data exercises the multi-word Z-address paths.
  const Quantizer q(kBits);
  const auto values = GenerateClustered(800, 64, 8, 0.05, 9);
  const PointSet points = q.QuantizeAll(values, 64);
  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  const auto result = ParallelSkylineExecutor(options).Execute(points);
  EXPECT_EQ(result.skyline, BnlSkyline(points));
}

struct GpmrsCase {
  Distribution distribution;
  uint32_t dim;
  uint64_t seed;
};

class MrGpmrsOracleTest : public ::testing::TestWithParam<GpmrsCase> {};

TEST_P(MrGpmrsOracleTest, MatchesCentralizedOracle) {
  const GpmrsCase& c = GetParam();
  const PointSet points = MakePoints(c.distribution, 4000, c.dim, c.seed);
  MrGpmrsOptions options;
  options.bits = kBits;
  options.num_cells = 16;
  options.num_merge_reducers = 4;
  const SkylineQueryResult result = MrGpmrsSkyline(points, options);
  EXPECT_EQ(result.skyline, BnlSkyline(points));
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, MrGpmrsOracleTest,
    ::testing::Values(GpmrsCase{Distribution::kIndependent, 4, 1},
                      GpmrsCase{Distribution::kIndependent, 2, 2},
                      GpmrsCase{Distribution::kCorrelated, 5, 3},
                      GpmrsCase{Distribution::kAnticorrelated, 3, 4},
                      GpmrsCase{Distribution::kAnticorrelated, 6, 5}));

TEST(MrGpmrsTest, EmptyInput) {
  PointSet empty(3);
  MrGpmrsOptions options;
  options.bits = kBits;
  EXPECT_TRUE(MrGpmrsSkyline(empty, options).skyline.empty());
}

// The CLI parses --scheme/--local/--merge through these inverses, so every
// value must be reachable by its name and no other string may parse.
TEST(OptionsNameTest, EveryValueRoundTripsThroughItsName) {
  for (const PartitioningScheme s :
       {PartitioningScheme::kRandom, PartitioningScheme::kGrid,
        PartitioningScheme::kAngle, PartitioningScheme::kQuadTree,
        PartitioningScheme::kNaiveZ, PartitioningScheme::kZhg,
        PartitioningScheme::kZdg}) {
    EXPECT_EQ(PartitioningSchemeFromName(PartitioningSchemeName(s)), s)
        << PartitioningSchemeName(s);
  }
  for (const LocalAlgorithm a :
       {LocalAlgorithm::kSortBased, LocalAlgorithm::kZSearch,
        LocalAlgorithm::kBbs}) {
    EXPECT_EQ(LocalAlgorithmFromName(LocalAlgorithmName(a)), a)
        << LocalAlgorithmName(a);
  }
  for (const MergeAlgorithm m :
       {MergeAlgorithm::kSortBased, MergeAlgorithm::kZSearch,
        MergeAlgorithm::kZMerge, MergeAlgorithm::kParallelZMerge}) {
    EXPECT_EQ(MergeAlgorithmFromName(MergeAlgorithmName(m)), m)
        << MergeAlgorithmName(m);
  }
}

TEST(OptionsNameTest, UnknownNamesAreRejected) {
  for (const char* name : {"", "unknown", "ZDG", "zdg ", "zm+"}) {
    EXPECT_FALSE(PartitioningSchemeFromName(name).has_value()) << name;
    EXPECT_FALSE(LocalAlgorithmFromName(name).has_value()) << name;
    EXPECT_FALSE(MergeAlgorithmFromName(name).has_value()) << name;
  }
}

}  // namespace
}  // namespace zsky
