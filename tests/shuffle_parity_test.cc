// Pipeline-level parity matrix for the zero-copy columnar shuffle: the
// full executor — plan build, candidate job, merge job — must produce the
// BNL oracle's skyline across the shuffle's memory modes (in-memory, full
// spill, budget-triggered partial spill), combiner on/off, and injected
// task retries, and leave no spill file behind. Run under ASan and TSan by
// `scripts/check.sh shuffle`. (The test name dates from when a second,
// legacy record path was compared here too.)

#include <gtest/gtest.h>

#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "algo/bnl.h"
#include "common/quantizer.h"
#include "core/executor.h"
#include "gen/synthetic.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 12;

enum class SpillMode { kInMemory, kFullSpill, kBudget };

const char* SpillModeName(SpillMode mode) {
  switch (mode) {
    case SpillMode::kInMemory:
      return "in_memory";
    case SpillMode::kFullSpill:
      return "full_spill";
    case SpillMode::kBudget:
      return "budget";
  }
  return "?";
}

struct ParityCase {
  SpillMode spill;
  bool combiner;
  bool retry;
};

std::string ParityCaseLabel(const ParityCase& c) {
  return std::string(SpillModeName(c.spill)) +
         (c.combiner ? "_combiner" : "_nocombiner") +
         (c.retry ? "_retry" : "_noretry");
}

std::string ParityCaseName(const ::testing::TestParamInfo<ParityCase>& info) {
  return ParityCaseLabel(info.param);
}

// Without it CTest IDs carry the struct's raw bytes, padding included.
void PrintTo(const ParityCase& c, std::ostream* os) {
  *os << ParityCaseLabel(c);
}

class ShuffleParityTest : public ::testing::TestWithParam<ParityCase> {};

SkylineQueryResult RunPipeline(const PointSet& points, const ParityCase& c,
                               const std::string& spill_dir) {
  ExecutorOptions options;
  options.partitioning = PartitioningScheme::kZdg;
  options.local = LocalAlgorithm::kZSearch;
  options.merge = MergeAlgorithm::kZMerge;
  options.num_groups = 6;
  options.expansion = 3;
  options.sample_ratio = 0.05;
  options.bits = kBits;
  options.num_map_tasks = 7;
  options.num_threads = 4;
  options.enable_combiner = c.combiner;
  options.spill_dir = spill_dir;
  switch (c.spill) {
    case SpillMode::kInMemory:
      break;
    case SpillMode::kFullSpill:
      options.spill_to_disk = true;
      break;
    case SpillMode::kBudget:
      // The budget is accounted at chunk capacity (~64 KiB per non-empty
      // bucket), so each of job 1's map tasks pins a few hundred KiB.
      // 1 MiB holds the first task or two and forces the rest to spill
      // mid-wave: a partial spill whatever the completion order.
      options.shuffle_memory_budget_bytes = 1024 * 1024;
      break;
  }
  if (c.retry) {
    options.max_task_attempts = 3;
    options.failure_injector = [](int /*wave*/, size_t task,
                                  uint32_t attempt) {
      return attempt == 1 && task % 3 == 0;
    };
  }
  return ParallelSkylineExecutor(options).Execute(points);
}

TEST_P(ShuffleParityTest, ColumnarAndLegacySkylinesAreBitIdentical) {
  namespace fs = std::filesystem;
  const ParityCase& c = GetParam();
  // Per-test-case directory: parameterized cases run as concurrent
  // processes under `ctest -j`, and a shared directory would let one
  // case's remove_all race a sibling's spill-file creation.
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("zsky_shuffle_parity_" + ParityCaseLabel(c));
  fs::create_directories(dir);

  const PointSet points = GenerateQuantized(Distribution::kAnticorrelated,
                                            4000, 6, 99, Quantizer(kBits));
  const SkylineIndices oracle = BnlSkyline(points);

  const SkylineQueryResult result = RunPipeline(points, c, dir.string());
  const PhaseMetrics& pm = result.metrics;
  EXPECT_EQ(result.skyline, oracle);
  // Every candidate job 2 merged came through job 1's reducers.
  EXPECT_EQ(pm.job2.shuffle_records, pm.candidates);
  if (c.spill == SpillMode::kFullSpill) {
    EXPECT_GT(pm.job1.spill_bytes, 0u);
    EXPECT_EQ(pm.job1.spilled_tasks,
              static_cast<size_t>(pm.job1.map_tasks.size()));
  } else if (c.spill == SpillMode::kBudget) {
    // The budget actually triggered a partial spill in job 1.
    EXPECT_GT(pm.job1.spilled_tasks, 0u);
    EXPECT_LT(pm.job1.spilled_tasks, pm.job1.map_tasks.size());
  } else {
    EXPECT_EQ(pm.job1.spilled_tasks, 0u);
  }
  if (c.retry) {
    // Tasks 0, 3, 6 of each wave fail their first attempt.
    EXPECT_GT(pm.job1.failed_attempts, 0u);
  } else {
    EXPECT_EQ(pm.job1.failed_attempts, 0u);
  }

  // No spill files may survive a query.
  size_t leftover = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("zsky_spill_", 0) == 0) {
      ++leftover;
    }
  }
  EXPECT_EQ(leftover, 0u);
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ShuffleParityTest,
    ::testing::Values(
        ParityCase{SpillMode::kInMemory, /*combiner=*/true, /*retry=*/false},
        ParityCase{SpillMode::kInMemory, /*combiner=*/false, /*retry=*/false},
        ParityCase{SpillMode::kInMemory, /*combiner=*/true, /*retry=*/true},
        ParityCase{SpillMode::kFullSpill, /*combiner=*/true, /*retry=*/false},
        ParityCase{SpillMode::kFullSpill, /*combiner=*/false, /*retry=*/true},
        ParityCase{SpillMode::kBudget, /*combiner=*/true, /*retry=*/false},
        ParityCase{SpillMode::kBudget, /*combiner=*/false, /*retry=*/true}),
    ParityCaseName);

// The executor's spill_dir option reaches the engine: spilling into a
// fresh directory leaves its files there during the job and cleans them
// up afterwards (observable as the directory having been used).
TEST(ShuffleParityTest2, ExecutorSpillDirIsUsedAndCleaned) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "zsky_spilldir_probe";
  fs::create_directories(dir);
  const PointSet points = GenerateQuantized(Distribution::kIndependent, 2000,
                                            4, 7, Quantizer(kBits));
  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_map_tasks = 4;
  options.num_threads = 2;
  options.spill_to_disk = true;
  options.spill_dir = dir.string();
  const SkylineQueryResult result =
      ParallelSkylineExecutor(options).Execute(points);
  EXPECT_EQ(result.skyline, BnlSkyline(points));
  EXPECT_GT(result.metrics.job1.spill_bytes, 0u);
  for (const auto& entry : fs::directory_iterator(dir)) {
    ADD_FAILURE() << "leftover spill file: " << entry.path();
  }
  fs::remove_all(dir);
}

}  // namespace
}  // namespace zsky
