#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "algo/bnl.h"
#include "common/cpu.h"
#include "common/dominance.h"
#include "common/dominance_block.h"
#include "common/quantizer.h"
#include "common/scan_counters.h"
#include "core/executor.h"
#include "core/pipeline.h"
#include "core/query_plan.h"
#include "gen/synthetic.h"
#include "io/columnar.h"
#include "mapreduce/worker_pool.h"
#include "mask_kernel_cases.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 12;

std::string TempZsc(const char* tag) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + tag +
         ".zsc";
}

// Restores the previous ISA tier on scope exit (mirrors
// simd_dispatch_test's helper).
class ScopedIsa {
 public:
  ScopedIsa() : saved_(ActiveIsa()) {}
  ~ScopedIsa() { SetActiveIsa(saved_); }

 private:
  Isa saved_;
};

// --- The SoA mask kernel itself, against a scalar Dominates oracle, on
// every tier the host supports, through SoAMaskAnyDominated — the entry
// the map wave calls, which picks the column-wise or the row-wise
// orientation by filter size. The kernels' early exits (all-dominated
// groups, min-pruned tiles) and row tails must never change the answer.
TEST(ColumnarDirectKernelTest, MaskMatchesDominatesOracleAcrossTiers) {
  ScopedIsa guard;
  for (const uint32_t dim : mask_cases::Dims()) {
    for (const size_t filt_size : mask_cases::FilterSizes()) {
      const mask_cases::MaskCase c =
          mask_cases::MakeCase(dim, filt_size, dim * 7919 + filt_size);
      // Every case mixes dominated and undominated rows.
      ASSERT_GT(c.ExpectCount(0, mask_cases::kRows), 0u);
      ASSERT_LT(c.ExpectCount(0, mask_cases::kRows), mask_cases::kRows);
      const MaskFilterIndex index(c.filter);
      const simd::MaskFilterPruning pruning = index.pruning();
      for (const Isa isa : {Isa::kScalar, Isa::kSse42, Isa::kAvx2}) {
        if (!IsaSupported(isa)) continue;
        SetActiveIsa(isa);
        for (const auto& [begin, end] : mask_cases::Ranges()) {
          const std::string label = std::string(IsaName(isa)) + " dim " +
                                    std::to_string(dim) + " filter " +
                                    std::to_string(filt_size) + " rows [" +
                                    std::to_string(begin) + ", " +
                                    std::to_string(end) + ")";
          const std::vector<uint8_t> expect = c.Expect(begin, end);
          std::vector<uint8_t> mask(end - begin, 0xCC);
          EXPECT_EQ(SoAMaskAnyDominated(c.soa.data(), c.stride, dim, begin,
                                        end, c.filter.lanes(),
                                        c.filter.lane_stride(),
                                        c.filter.size(), nullptr, mask.data()),
                    c.ExpectCount(begin, end))
              << label;
          EXPECT_EQ(mask, expect) << label;
          // The min-pruned index (Morton-reordered copy + tile and
          // supertile minima) must answer identically to the plain scan.
          std::vector<uint8_t> pruned(end - begin, 0xCC);
          EXPECT_EQ(SoAMaskAnyDominated(c.soa.data(), c.stride, dim, begin,
                                        end, index.block.lanes(),
                                        index.block.lane_stride(),
                                        index.size(), &pruning,
                                        pruned.data()),
                    c.ExpectCount(begin, end))
              << label;
          EXPECT_EQ(pruned, expect) << label;
        }
        // The single-point probe is the row-wise pruned kernel over one
        // row, whatever the filter's size.
        for (size_t i = 0; i < mask_cases::kRows; ++i) {
          ASSERT_EQ(index.AnyDominates(c.Row(i)), c.dominated[i] != 0)
              << IsaName(isa) << " dim " << dim << " filter " << filt_size
              << " row " << i;
        }
        // Empty filter leaves the mask all-zero.
        std::vector<uint8_t> none(mask_cases::kRows, 0xCC);
        EXPECT_EQ(SoAMaskAnyDominated(c.soa.data(), c.stride, dim, 0,
                                      mask_cases::kRows, c.filter.lanes(),
                                      c.filter.lane_stride(), 0, nullptr,
                                      none.data()),
                  0u);
        EXPECT_EQ(none, std::vector<uint8_t>(mask_cases::kRows, 0));
      }
    }
  }
}

// --- The plain map wave runs one loop over SoA tiles for every backing:
// a `.zsc` mapping feeds its columns in place ("direct"), a heap PointSet
// and a columnar view without a uniform stride ("cursor": RowBlockCursor
// transposes its columns) feed transposed heap tiles. All of them must
// give the same skyline (= the BNL oracle) AND the same job-1 work: the
// same filtered / pruned counts and the same candidate list.

// A columnar view over `points` whose columns sit at non-uniform offsets
// inside one buffer, so DatasetView::SoaSpan refuses it and the map wave
// reads it through RowBlockCursor (needs dim >= 3: two columns are always
// uniformly spaced).
class ScatteredColumns {
 public:
  explicit ScatteredColumns(const PointSet& points)
      : stride_(points.size() + 64),
        buffer_(stride_ * points.dim() + 8 * points.dim()),
        columns_(points.dim()) {
    for (uint32_t d = 0; d < points.dim(); ++d) {
      Coord* column = buffer_.data() + d * stride_ + (d % 2) * 8;
      columns_[d] = column;
      for (size_t i = 0; i < points.size(); ++i) column[i] = points[i][d];
    }
    view_ = DatasetView::Columnar(columns_.data(), points.size(),
                                  points.dim());
  }
  // The view points into this object's own buffers.
  ScatteredColumns(const ScatteredColumns&) = delete;
  ScatteredColumns& operator=(const ScatteredColumns&) = delete;

  const DatasetView& view() const { return view_; }

 private:
  size_t stride_;
  std::vector<Coord> buffer_;
  std::vector<const Coord*> columns_;
  DatasetView view_;
};

struct Job1Run {
  CandidateList candidates;  // Sorted: the emit order is schedule-dependent.
  PhaseMetrics metrics;
};

Job1Run RunJob1(const PreparedPlan& plan, const ExecutorOptions& options,
                const DatasetView& view, const uint8_t* alive = nullptr) {
  mr::WorkerPool pool(options.num_threads);
  Job1Run run;
  run.candidates =
      RunCandidateJob(plan, options, view, &pool, run.metrics, {}, alive);
  std::sort(run.candidates.begin(), run.candidates.end());
  return run;
}

// Job 1 over two backings of the same rows did the same work.
void ExpectSameJob1(const Job1Run& a, const Job1Run& b,
                    const std::string& label) {
  EXPECT_EQ(a.metrics.filtered_by_szb, b.metrics.filtered_by_szb) << label;
  EXPECT_EQ(a.metrics.dropped_by_pruning, b.metrics.dropped_by_pruning)
      << label;
  EXPECT_EQ(a.metrics.dropped_by_tombstone, b.metrics.dropped_by_tombstone)
      << label;
  EXPECT_EQ(a.candidates, b.candidates) << label;
}

struct DirectCase {
  PartitioningScheme partitioning;
  LocalAlgorithm local;
};

std::string DirectCaseName(const ::testing::TestParamInfo<DirectCase>& info) {
  std::string name =
      std::string(PartitioningSchemeName(info.param.partitioning)) + "_" +
      std::string(LocalAlgorithmName(info.param.local));
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class ColumnarDirectParityTest : public ::testing::TestWithParam<DirectCase> {
 protected:
  static void SetUpTestSuite() {
    points_ = new PointSet(GenerateQuantized(Distribution::kAnticorrelated,
                                             3000, 4, 515, Quantizer(kBits)));
    path_ = new std::string(TempZsc("mask_wave_parity"));
    std::string error;
    ASSERT_TRUE(WriteColumnarFile(*path_, *points_, kBits, &error)) << error;
  }
  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete points_;
    delete path_;
    points_ = nullptr;
    path_ = nullptr;
  }

  static PointSet* points_;
  static std::string* path_;
};

PointSet* ColumnarDirectParityTest::points_ = nullptr;
std::string* ColumnarDirectParityTest::path_ = nullptr;

TEST_P(ColumnarDirectParityTest, DirectMatchesCursorAndHeap) {
  const DirectCase& c = GetParam();
  ExecutorOptions options;
  options.partitioning = c.partitioning;
  options.local = c.local;
  options.merge = MergeAlgorithm::kZMerge;
  options.num_groups = 6;
  options.expansion = 3;
  options.sample_ratio = 0.05;
  options.bits = kBits;
  options.num_map_tasks = 7;
  options.num_threads = 4;

  std::string error;
  const auto mapped = ColumnarDataset::Open(*path_, &error);
  ASSERT_NE(mapped, nullptr) << error;
  const ScatteredColumns scattered(*points_);
  const Coord* base = nullptr;
  size_t stride = 0;
  ASSERT_TRUE(mapped->view().SoaSpan(&base, &stride));
  ASSERT_FALSE(scattered.view().SoaSpan(&base, &stride));

  const SkylineIndices heap =
      ParallelSkylineExecutor(options).Execute(*points_).skyline;
  const SkylineIndices direct =
      ParallelSkylineExecutor(options).Execute(mapped->view()).skyline;
  const SkylineIndices cursor =
      ParallelSkylineExecutor(options).Execute(scattered.view()).skyline;
  EXPECT_EQ(heap, direct) << options.Label();
  EXPECT_EQ(direct, cursor) << options.Label();
  EXPECT_EQ(direct, BnlSkyline(*points_)) << options.Label();

  // One plan, three backings: identical job-1 work.
  const PreparedPlan plan = PreparePlan(*points_, options);
  const Job1Run heap_run = RunJob1(plan, options, *points_);
  ExpectSameJob1(heap_run, RunJob1(plan, options, mapped->view()),
                 options.Label() + " heap vs .zsc");
  ExpectSameJob1(heap_run, RunJob1(plan, options, scattered.view()),
                 options.Label() + " heap vs cursor");
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAndLocals, ColumnarDirectParityTest,
    ::testing::ValuesIn([] {
      std::vector<DirectCase> cases;
      for (PartitioningScheme scheme :
           {PartitioningScheme::kRandom, PartitioningScheme::kGrid,
            PartitioningScheme::kAngle, PartitioningScheme::kQuadTree,
            PartitioningScheme::kNaiveZ, PartitioningScheme::kZhg,
            PartitioningScheme::kZdg}) {
        for (LocalAlgorithm local :
             {LocalAlgorithm::kSortBased, LocalAlgorithm::kZSearch,
              LocalAlgorithm::kBbs}) {
          cases.push_back({scheme, local});
        }
      }
      return cases;
    }()),
    DirectCaseName);

// Heap tiles and mapped columns agree on every ISA tier, and every tier
// agrees with every other (the mask kernel's dispatch cannot change
// results or counters).
TEST(ColumnarDirectIsaTest, AllTiersBitIdentical) {
  const PointSet points = GenerateQuantized(Distribution::kAnticorrelated,
                                            4000, 6, 77, Quantizer(kBits));
  const std::string path = TempZsc("mask_wave_isa");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;
  const auto mapped = ColumnarDataset::Open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;

  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  const SkylineIndices oracle = BnlSkyline(points);
  const PreparedPlan plan = PreparePlan(points, options);
  ASSERT_TRUE(plan.szb_block.has_value());

  ScopedIsa guard;
  std::optional<Job1Run> first_tier;
  for (const Isa isa : {Isa::kScalar, Isa::kSse42, Isa::kAvx2}) {
    if (!IsaSupported(isa)) continue;
    SetActiveIsa(isa);
    const SkylineIndices direct =
        ParallelSkylineExecutor(options).Execute(mapped->view()).skyline;
    const SkylineIndices heap =
        ParallelSkylineExecutor(options).Execute(points).skyline;
    EXPECT_EQ(direct, oracle) << IsaName(isa);
    EXPECT_EQ(heap, oracle) << IsaName(isa);
    const Job1Run heap_run = RunJob1(plan, options, points);
    ExpectSameJob1(heap_run, RunJob1(plan, options, mapped->view()),
                   std::string(IsaName(isa)) + " heap vs .zsc");
    if (!first_tier.has_value()) {
      first_tier = heap_run;
    } else {
      ExpectSameJob1(*first_tier, heap_run,
                     std::string(IsaName(isa)) + " vs first tier");
    }
  }
  std::remove(path.c_str());
}

// --- transpose_bytes meters file transposes only: an SZB-eligible plain
// query over a `.zsc` backing reads the mapped columns in place (zero),
// a heap backing's tile transposes are not file transposes (zero), and a
// columnar view without a uniform stride is transposed by RowBlockCursor
// (every scanned row at least once).
TEST(ColumnarDirectMetricsTest, TransposeBytesZeroOnDirectPlan) {
  const PointSet points = GenerateQuantized(Distribution::kIndependent, 20000,
                                            6, 321, Quantizer(kBits));
  const std::string path = TempZsc("mask_wave_transpose");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;
  const auto mapped = ColumnarDataset::Open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;

  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  ASSERT_TRUE(options.batch_szb_filter && options.use_block_kernel);
  const SkylineQueryResult direct =
      ParallelSkylineExecutor(options).Execute(mapped->view());
  EXPECT_EQ(direct.metrics.job1.transpose_bytes, 0u);
  const SkylineQueryResult heap =
      ParallelSkylineExecutor(options).Execute(points);
  EXPECT_EQ(heap.metrics.job1.transpose_bytes, 0u);

  const ScatteredColumns scattered(points);
  const SkylineQueryResult cursor =
      ParallelSkylineExecutor(options).Execute(scattered.view());
  EXPECT_GE(cursor.metrics.job1.transpose_bytes,
            points.size() * points.dim() * sizeof(Coord));
  EXPECT_EQ(direct.skyline, heap.skyline);
  EXPECT_EQ(direct.skyline, cursor.skyline);
  EXPECT_EQ(direct.metrics.filtered_by_szb, heap.metrics.filtered_by_szb);
  EXPECT_EQ(direct.metrics.candidates, heap.metrics.candidates);
  std::remove(path.c_str());
}

// --- Heap-path cases of the mask wave, each against the BNL oracle.

// Rows some sample-skyline point strictly dominates: what the SZB filter
// (block + tree, whatever the split) must report as filtered_by_szb.
size_t CountSampleDominated(const PreparedPlan& plan, const PointSet& points,
                            const uint8_t* alive = nullptr) {
  DominanceBlock all(points.dim());
  all.AppendAll(plan.sample_skyline);
  size_t count = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    if (alive != nullptr && alive[i] == 0) continue;
    count += all.AnyDominates(points[i]) ? 1 : 0;
  }
  return count;
}

// A sample skyline above kSzbBlockCap: the block takes the head, the tree
// the overflow, and the wave probes the tree for every mask survivor.
TEST(MaskWaveHeapTest, BandAboveBlockCapUsesBlockAndTree) {
  const PointSet points = GenerateQuantized(Distribution::kAnticorrelated,
                                            14000, 8, 91, Quantizer(kBits));
  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  options.sample_ratio = 0.75;
  const PreparedPlan plan = PreparePlan(points, options);
  ASSERT_GT(plan.sample_skyline.size(), kSzbBlockCap);
  ASSERT_TRUE(plan.szb_block.has_value());
  EXPECT_EQ(plan.szb_block->size(), kSzbBlockCap);
  ASSERT_NE(plan.szb_tree, nullptr);

  const SkylineQueryResult result =
      ParallelSkylineExecutor(options).Execute(points);
  EXPECT_EQ(result.skyline, BnlSkyline(points));
  const Job1Run run = RunJob1(plan, options, points);
  EXPECT_EQ(run.metrics.filtered_by_szb, CountSampleDominated(plan, points));

  const std::string path = TempZsc("mask_wave_overflow");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;
  const auto mapped = ColumnarDataset::Open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;
  ExpectSameJob1(run, RunJob1(plan, options, mapped->view()), "heap vs .zsc");
  std::remove(path.c_str());
}

// The write path's tombstone mask: dead rows are skipped before the mask
// is consulted, and the answer is the skyline of the alive rows.
TEST(MaskWaveHeapTest, TombstoneMaskMatchesAliveOracle) {
  const PointSet points = GenerateQuantized(Distribution::kAnticorrelated,
                                            5000, 5, 33, Quantizer(kBits));
  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  const PreparedPlan plan = PreparePlan(points, options);
  ASSERT_TRUE(plan.szb_block.has_value());

  // Kill every third row and half of the full skyline, sparing sampled
  // rows: the plan's filter is only sound while every sampled row lives
  // (the service patches the plan otherwise). Dead skyline rows uncover
  // the alive rows they dominated, which must then reach the skyline.
  std::vector<uint8_t> sampled(points.size(), 0);
  for (uint32_t row : plan.sample_rows) sampled[row] = 1;
  std::vector<uint8_t> alive(points.size(), 1);
  for (size_t i = 0; i < points.size(); i += 3) alive[i] = sampled[i] ? 1 : 0;
  const SkylineIndices full = BnlSkyline(points);
  for (size_t j = 0; j < full.size() / 2; ++j) {
    if (sampled[full[j]] == 0) alive[full[j]] = 0;
  }
  std::vector<uint32_t> alive_rows;
  size_t dead = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    if (alive[i] != 0) {
      alive_rows.push_back(static_cast<uint32_t>(i));
    } else {
      ++dead;
    }
  }
  const PointSet alive_points = PointSet::Gather(points, alive_rows);
  SkylineIndices expect;
  for (uint32_t i : BnlSkyline(alive_points)) expect.push_back(alive_rows[i]);

  mr::WorkerPool pool(options.num_threads);
  PhaseMetrics pm;
  CandidateList candidates =
      RunCandidateJob(plan, options, points, &pool, pm, {}, alive.data());
  EXPECT_EQ(pm.dropped_by_tombstone, dead);
  EXPECT_EQ(pm.filtered_by_szb,
            CountSampleDominated(plan, points, alive.data()));
  for (const auto& [gid, row] : candidates) {
    EXPECT_NE(alive[row], 0) << "dead row " << row << " became a candidate";
  }
  EXPECT_EQ(RunMergeJob(plan, options, points, std::move(candidates), &pool,
                        pm),
            expect);

  const std::string path = TempZsc("mask_wave_tombstone");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;
  const auto mapped = ColumnarDataset::Open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;
  ExpectSameJob1(RunJob1(plan, options, points, alive.data()),
                 RunJob1(plan, options, mapped->view(), alive.data()),
                 "heap vs .zsc");
  std::remove(path.c_str());
}

// batch_szb_filter = false: no block, an all-clear mask, and every row
// takes the tree probe — the same filter answer through another
// structure, so the counters match the batched plan's.
TEST(MaskWaveHeapTest, TreeOnlyFilterWithoutBlock) {
  const PointSet points = GenerateQuantized(Distribution::kAnticorrelated,
                                            6000, 6, 47, Quantizer(kBits));
  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  ExecutorOptions tree_only = options;
  tree_only.batch_szb_filter = false;
  const PreparedPlan batched = PreparePlan(points, options);
  const PreparedPlan plan = PreparePlan(points, tree_only);
  ASSERT_FALSE(plan.szb_block.has_value());
  ASSERT_NE(plan.szb_tree, nullptr);

  EXPECT_EQ(ParallelSkylineExecutor(tree_only).Execute(points).skyline,
            BnlSkyline(points));
  const Job1Run run = RunJob1(plan, tree_only, points);
  EXPECT_EQ(run.metrics.filtered_by_szb, CountSampleDominated(plan, points));
  ExpectSameJob1(run, RunJob1(batched, options, points), "tree vs block");
}

// --- Sketch pruning: a constrained query over a multi-block `.zsc` whose
// box excludes whole sketch blocks must skip them wholesale — with the
// skyline AND the box-drop counter bit-identical to the heap run, and the
// pruned-row counter accounting for the skipped blocks.
TEST(OutOfCoreSketchTest, BoxPruningParityAndCounter) {
  // Three sketch blocks with disjoint value ranges: rows of block b lie in
  // [b * 1200, b * 1200 + 500]. A box capped at 600 makes blocks 1 and 2
  // sketch-disjoint.
  const uint32_t dim = 4;
  const size_t block = static_cast<size_t>(kColumnarSketchBlockRows);
  const size_t n = 3 * block;
  PointSet points(dim);
  std::mt19937 rng(99);
  std::uniform_int_distribution<Coord> low(0, 500);
  std::vector<Coord> row(dim);
  for (size_t i = 0; i < n; ++i) {
    const Coord base = static_cast<Coord>(1200 * (i / block));
    for (uint32_t d = 0; d < dim; ++d) row[d] = base + low(rng);
    points.Append(row);
  }
  const std::string path = TempZsc("outofcore_sketch");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;
  const auto mapped = ColumnarDataset::Open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;
  ASSERT_TRUE(mapped->has_sketch());
  ASSERT_EQ(mapped->sketch_blocks(), 3u);

  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  QueryDesc desc;
  desc.box_lo.assign(dim, 0);
  desc.box_hi.assign(dim, 600);

  const SkylineQueryResult heap =
      ParallelSkylineExecutor(options).Execute(points, desc);
  const SkylineQueryResult cold =
      ParallelSkylineExecutor(options).Execute(mapped->view(), desc);
  EXPECT_EQ(heap.skyline, cold.skyline);
  EXPECT_EQ(heap.metrics.dropped_by_box, cold.metrics.dropped_by_box);
  // The heap view has no sketch; the columnar run skipped two whole
  // blocks without touching their pages.
  EXPECT_EQ(heap.metrics.job1.rows_pruned_by_sketch, 0u);
  EXPECT_GE(cold.metrics.job1.rows_pruned_by_sketch, 2 * block);
  std::remove(path.c_str());
}

// A pre-sketch file (synthesized by truncating at the trailer offset)
// takes the unpruned scan and still answers identically.
TEST(OutOfCoreSketchTest, PreSketchFileScansUnpruned) {
  const PointSet points = GenerateQuantized(Distribution::kIndependent, 5000,
                                            4, 11, Quantizer(kBits));
  const std::string path = TempZsc("outofcore_presketch");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(ColumnarSketchOffset(4, 5000))),
            0);
  const auto mapped = ColumnarDataset::Open(path, &error);
  ASSERT_NE(mapped, nullptr) << error;
  EXPECT_FALSE(mapped->has_sketch());

  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  QueryDesc desc;
  desc.box_lo.assign(4, 0);
  desc.box_hi.assign(4, 1000);
  const SkylineQueryResult heap =
      ParallelSkylineExecutor(options).Execute(points, desc);
  const SkylineQueryResult cold =
      ParallelSkylineExecutor(options).Execute(mapped->view(), desc);
  EXPECT_EQ(heap.skyline, cold.skyline);
  EXPECT_EQ(cold.metrics.job1.rows_pruned_by_sketch, 0u);
  std::remove(path.c_str());
}

// --- Readahead torture: a tiny residency budget, concurrent queries on
// one dataset, ranges at and past the end, and teardown races between
// the worker and the destructor. Run under ASan/TSan by scripts/check.sh.
TEST(OutOfCoreReadaheadTest, ConcurrentQueriesUnderTinyBudget) {
  const PointSet points = GenerateQuantized(Distribution::kAnticorrelated,
                                            60000, 6, 1234, Quantizer(kBits));
  const std::string path = TempZsc("outofcore_readahead");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;

  ColumnarDataset::Options map_options;
  map_options.bounded_residency = true;
  map_options.readahead = true;
  const auto mapped = ColumnarDataset::Open(path, &error, map_options);
  ASSERT_NE(mapped, nullptr) << error;
  ASSERT_TRUE(mapped->view().has_prefetch_hook());

  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  options.shuffle_memory_budget_bytes = 64 * 1024;
  const SkylineIndices expect =
      ParallelSkylineExecutor(options).Execute(points).skyline;

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int q = 0; q < 3; ++q) {
        const SkylineIndices got =
            ParallelSkylineExecutor(options).Execute(mapped->view()).skyline;
        if (got != expect) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0u);

  // Hostile direct requests: clamped, empty, and out-of-range are all
  // no-ops that must not wedge or crash the worker.
  mapped->RequestReadahead(points.size() - 10, points.size() + 100);
  mapped->RequestReadahead(5, 5);
  mapped->RequestReadahead(points.size() + 1, points.size() + 2);
  for (int i = 0; i < 100; ++i) mapped->RequestReadahead(0, 1000);
  std::remove(path.c_str());
  // Destructor joins the worker with requests possibly still queued.
}

TEST(OutOfCoreReadaheadTest, DisarmedViewNeverPrefetches) {
  const PointSet points = GenerateQuantized(Distribution::kIndependent, 20000,
                                            4, 5, Quantizer(kBits));
  const std::string path = TempZsc("outofcore_readahead_off");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;
  ColumnarDataset::Options map_options;
  map_options.readahead = true;
  const auto mapped = ColumnarDataset::Open(path, &error, map_options);
  ASSERT_NE(mapped, nullptr) << error;

  // ExecutorOptions::readahead = false disarms the hook for the query
  // without touching the backing: zero readahead bytes metered.
  ExecutorOptions options;
  options.bits = kBits;
  options.num_groups = 4;
  options.num_threads = 2;
  options.readahead = false;
  const SkylineQueryResult off =
      ParallelSkylineExecutor(options).Execute(mapped->view());
  EXPECT_EQ(off.metrics.job1.readahead_bytes, 0u);
  EXPECT_EQ(off.skyline,
            ParallelSkylineExecutor(options).Execute(points).skyline);
  std::remove(path.c_str());
}

// Open-then-destroy without any query: the lazily-spawned worker never
// starts, and the destructor must not block on it.
TEST(OutOfCoreReadaheadTest, IdleDatasetTearsDownCleanly) {
  const PointSet points = GenerateQuantized(Distribution::kIndependent, 1000,
                                            3, 8, Quantizer(kBits));
  const std::string path = TempZsc("outofcore_readahead_idle");
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;
  ColumnarDataset::Options map_options;
  map_options.readahead = true;
  for (int i = 0; i < 3; ++i) {
    const auto mapped = ColumnarDataset::Open(path, &error, map_options);
    ASSERT_NE(mapped, nullptr) << error;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace zsky
