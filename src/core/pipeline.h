#ifndef ZSKY_CORE_PIPELINE_H_
#define ZSKY_CORE_PIPELINE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "algo/skyline.h"
#include "common/dataset_view.h"
#include "common/point_set.h"
#include "core/executor.h"
#include "core/options.h"
#include "core/query_plan.h"
#include "mapreduce/worker_pool.h"

namespace zsky {

// One skyline candidate emitted by MR job 1: (group id, row index into the
// dataset the plan was prepared for).
using CandidateList = std::vector<std::pair<int32_t, uint32_t>>;

// The two MapReduce jobs of the paper's pipeline, expressed over a
// `const PreparedPlan&` so the preprocessing artifacts are built once and
// shared across queries (and so the planner can price a plan without
// running it). Both functions only *read* the plan; they are safe to call
// concurrently on one plan from different threads as long as each call
// uses its own PhaseMetrics and the two calls do not share a WorkerPool
// wave sequence (see core/query_service.h for the serving-side gate).
//
// `options` supplies the pipeline knobs (map-task counts, threads, merge
// algorithm, combiner, retry policy, simulated-cluster model). Its
// plan-shaping fields must match `plan.options` — reusing a plan under a
// different partitioning scheme, group count, or bit width is undefined.
// Every wave of both jobs runs on `pool`, the caller's persistent pool;
// it must not be null.
//
// `points` is a DatasetView: heap PointSets convert implicitly, and mmap'd
// columnar datasets (io/columnar.h) are consumed as row-ranges over the
// view — only filter survivors / merge candidates are ever materialized
// on the heap. A plain query's map wave is one loop over SoA tiles (the
// mapped columns in place, or heap rows transposed into cache-resident
// tiles) running the min-pruned SZB mask kernel; other descs scan
// RowBlockCursor blocks row by row. The result and the job-1 counters are
// bit-identical across backings by construction.

// Both jobs take a QueryDesc (common/query_desc.h) selecting the query
// variant. The default desc is the plain full-space skyline and takes the
// mask wave above. A non-default desc resolves its shape through
// the plan's variant cache (PreparedPlan::Variant) and handles the
// constraint box per query: the mapper routes each point first so that
// whole partitions whose RZ-region falls outside the box are dropped
// before the point is box-tested or probed against the filter
// (pm.regions_pruned_by_box), in-box survivors are filtered against the
// skyline/k-band of the *in-box* sample (a full-space filter would be
// unsound under a box), and k > 1 swaps every local/merge skyline for a
// k-skyband. The same desc must be passed to both jobs.

// MR job 1 (Algorithm 3): filter each point against the plan's sample
// skyline, route survivors to groups, compute per-group local skylines.
// Fills pm.job1 / job1_ms / sim_job1_ms, candidates, filtered_by_szb,
// dropped_by_pruning, dropped_by_box, regions_pruned_by_box,
// subspace_plan_rebuilds and skyband_k.
//
// `alive`, when non-null, is the write path's tombstone mask
// (docs/updates.md): points.size() entries, rows with alive[row] == 0 are
// skipped before any transform, route, or probe — the pipeline computes
// over the surviving rows exactly as if the dataset never contained the
// dead ones (pm.dropped_by_tombstone counts the skips). A null mask is
// byte-for-byte the unmasked code path.
CandidateList RunCandidateJob(const PreparedPlan& plan,
                              const ExecutorOptions& options,
                              const DatasetView& points,
                              mr::WorkerPool* pool, PhaseMetrics& pm,
                              const QueryDesc& desc = {},
                              const uint8_t* alive = nullptr);

// MR job 2 (Section 5.3): merge the candidates into the global skyline
// (Z-merge, parallel two-level Z-merge, or a centralized re-run). For
// desc.k > 1 every merge algorithm becomes an exact skyband recount over
// the candidates (reducers emit partial k-bands, the master recounts their
// union). Fills pm.job2 / job2_ms / sim_job2_ms / merge_stats. Returns the
// band in ascending row order.
SkylineIndices RunMergeJob(const PreparedPlan& plan,
                           const ExecutorOptions& options,
                           const DatasetView& points,
                           CandidateList candidates, mr::WorkerPool* pool,
                           PhaseMetrics& pm, const QueryDesc& desc = {});

}  // namespace zsky

#endif  // ZSKY_CORE_PIPELINE_H_
