#ifndef ZSKY_CORE_EXECUTOR_H_
#define ZSKY_CORE_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "algo/skyline.h"
#include "common/dataset_view.h"
#include "common/point_set.h"
#include "common/query_desc.h"
#include "core/options.h"
#include "index/zmerge.h"
#include "mapreduce/metrics.h"
#include "mapreduce/worker_pool.h"

namespace zsky {

struct PreparedPlan;

// Per-phase timings and counters of one pipeline run.
struct PhaseMetrics {
  // Phase timings (preprocess = sampling + plan learning; job1 = candidate
  // computation; job2 = candidate merging). Queries that reuse a cached
  // PreparedPlan report preprocess_ms = 0 — the build cost is charged to
  // the query that built the plan and amortized for everyone after it.
  double preprocess_ms = 0.0;
  double job1_ms = 0.0;
  double job2_ms = 0.0;
  double total_ms = 0.0;
  // True iff this query ran against a previously built plan (warm path).
  bool plan_reused = false;

  // Simulated cluster times (per-task times scheduled onto
  // ExecutorOptions::sim_workers slots + shuffle bandwidth): what the run
  // would cost on a real cluster. These are the benchmark quantities; see
  // mr::JobMetrics::SimulatedMs.
  double sim_job1_ms = 0.0;
  double sim_job2_ms = 0.0;
  double sim_total_ms = 0.0;

  // Intermediate-data metrics (the paper's Figure 9 quantities).
  size_t candidates = 0;          // Skyline candidates emitted by job 1.
  size_t filtered_by_szb = 0;     // Points dropped by the SZB-tree filter.
  size_t dropped_by_pruning = 0;  // Points in pruned partitions (ZDG).

  // Query-variant metrics (common/query_desc.h).
  size_t dropped_by_box = 0;        // Points outside the constraint box.
  size_t regions_pruned_by_box = 0; // Partitions/cells whose whole RZ-region
                                    // fell outside the box (dropped before
                                    // any point was tested).
  size_t subspace_plan_rebuilds = 0;  // Plan variants this query built (0 on
                                      // the warm path).
  uint32_t skyband_k = 1;             // k of the query (1 = plain skyline).

  // Write-path metrics (docs/updates.md); 0 for read-only snapshots.
  size_t dropped_by_tombstone = 0;  // Deleted base rows skipped by the
                                    // pipeline's alive mask.
  size_t delta_rows = 0;            // Alive delta-buffer rows overlaid on
                                    // this query's result.

  // Process-lifetime high-water mark of candidate-side memory (local
  // skyline gathers + merge trees) as metered by ScopedCandidateBytes —
  // the measured term bench_outofcore's RSS ceiling budgets with.
  size_t candidate_peak_bytes = 0;

  // Preprocessing plan shape.
  size_t sample_size = 0;
  size_t sample_skyline_size = 0;
  size_t num_partitions = 0;
  size_t pruned_partitions = 0;
  size_t num_groups = 0;

  mr::JobMetrics job1;
  mr::JobMetrics job2;
  ZMergeStats merge_stats;
};

// Result of a distributed skyline query.
struct SkylineQueryResult {
  SkylineIndices skyline;  // Ascending row indices into the input.
  PhaseMetrics metrics;
};

// One-shot orchestrator of the paper's three-phase parallel skyline
// pipeline:
//   1. preprocess (core/query_plan.h): reservoir-sample, learn partition
//      pivots and the partition->group map (PGmap), build the
//      sample-skyline SZB filter -> PreparedPlan;
//   2. MR job 1 (core/pipeline.h): route points to groups (filtering
//      against the sample skyline), compute per-group local skylines ->
//      candidates;
//   3. MR job 2 (core/pipeline.h): merge candidates (Z-merge or a
//      centralized re-run).
//
// Configured by ExecutorOptions to realize every strategy combination the
// paper evaluates (Grid/Angle/Naive-Z/ZHG/ZDG x SB/ZS x SB/ZS/ZM).
//
// For repeated queries over one dataset, build the plan once with
// PreparePlan() and call ExecuteWithPlan(), or use the concurrent serving
// front-end in core/query_service.h — Execute() re-learns the plan from
// scratch on every call.
class ParallelSkylineExecutor {
 public:
  explicit ParallelSkylineExecutor(const ExecutorOptions& options);

  const ExecutorOptions& options() const { return options_; }

  // Computes the skyline of `points`. Coordinates must fit in
  // options().bits bits per dimension (the Quantizer guarantees this).
  // `points` is a DatasetView: heap PointSets convert implicitly, and an
  // mmap'd columnar dataset (io/columnar.h) runs the identical pipeline
  // out of core — bit-identical results across backings by construction.
  // The view is only borrowed for the call; the backing must stay alive
  // until Execute returns.
  //
  // Safe to call repeatedly, but SINGLE-CALLER: concurrent calls on one
  // executor are not supported. They would not corrupt results (each call
  // owns its state and WorkerPool::Run serializes individual waves), but
  // the two pipelines' waves interleave arbitrarily on the shared pool, so
  // per-phase timings become meaningless and latency degrades for both.
  // For concurrent serving use QueryService, which admits queries
  // concurrently and tickets their pipeline execution through the pool.
  SkylineQueryResult Execute(const DatasetView& points) const;

  // Variant-aware one-shot execution: computes the skyline described by
  // `desc` (constraint box / dimension subset / directions / k-skyband —
  // see common/query_desc.h). A default desc is bit-identical to
  // Execute(points).
  SkylineQueryResult Execute(const DatasetView& points,
                             const QueryDesc& desc) const;

  // Runs phases 2+3 against a previously built plan, skipping the
  // preprocessing entirely (metrics report preprocess_ms = 0 and
  // plan_reused = true). `plan` must have been built by PreparePlan() from
  // these `points` with plan-shaping options equal to this executor's
  // (same partitioning, num_groups, expansion, sample_ratio, bits, seed,
  // tree geometry and filter toggles); bit-identical to Execute() by
  // construction. Same single-caller contract as Execute().
  SkylineQueryResult ExecuteWithPlan(const PreparedPlan& plan,
                                     const DatasetView& points) const;

  // Variant-aware plan reuse: shapes (dims/flips/k) resolve through the
  // plan's variant cache, the box is handled per query — so a desc that
  // only changes the box takes the same warm path as the plain query
  // (plan_reused stays true, subspace_plan_rebuilds stays 0).
  SkylineQueryResult ExecuteWithPlan(const PreparedPlan& plan,
                                     const DatasetView& points,
                                     const QueryDesc& desc) const;

 private:
  ExecutorOptions options_;
  // Persistent worker pool shared by both MR jobs and the final merge of
  // every Execute() call (created once with the executor).
  std::unique_ptr<mr::WorkerPool> pool_;
};

}  // namespace zsky

#endif  // ZSKY_CORE_EXECUTOR_H_
