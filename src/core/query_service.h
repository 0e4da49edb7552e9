#ifndef ZSKY_CORE_QUERY_SERVICE_H_
#define ZSKY_CORE_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "common/dataset_view.h"
#include "common/point_set.h"
#include "core/delta.h"
#include "core/executor.h"
#include "core/options.h"
#include "core/planner.h"
#include "core/query_plan.h"
#include "io/columnar.h"
#include "mapreduce/worker_pool.h"

namespace zsky {

// Pipeline-only knobs a single query may override against the shared plan.
// Anything that re-shapes the plan (partitioning scheme, group count,
// sample ratio, bits, filter toggles) is fixed per service — change it by
// constructing a new service (or re-issuing SetDataset on one built with
// the new options).
struct QueryRequest {
  std::optional<MergeAlgorithm> merge;
  std::optional<uint32_t> merge_reducers;
  std::optional<uint32_t> num_map_tasks;
  std::optional<uint32_t> job2_map_tasks;
  // The query variant (common/query_desc.h): constraint box, dimension
  // subset, per-dimension directions, k-skyband. Shapes resolve through
  // the snapshot plan's variant cache; the box is pure per-query state —
  // neither invalidates the cached plan (a box-only change keeps
  // plan_reused = true and subspace_plan_rebuilds = 0).
  QueryDesc desc;
};

struct QueryServiceOptions {
  // Plan + default pipeline configuration. The service owns the one pool
  // every query runs on.
  ExecutorOptions executor;
  // Bounded admission: at most this many Query() calls are in flight at
  // once; excess callers block until a slot frees. This caps the queue in
  // front of the pool gate (and the memory the queued queries pin).
  uint32_t max_in_flight = 8;

  // Cost-based adaptive planning (docs/scheduling.md): plan builds run
  // ChoosePlan over the dataset and use its chosen configuration
  // (partitioning / local algorithm / merge / num_groups) instead of the
  // fixed executor settings. After every query the predicted-vs-actual
  // per-stage error is recorded in the metrics registry
  // (plan_job1_rel_err_pct / plan_job2_rel_err_pct histograms); when
  // either stage's relative error exceeds `replan_threshold` the cost
  // model's calibration is updated from the measurement and the plan is
  // rebuilt on the next query.
  bool adaptive_planning = false;
  double replan_threshold = 0.5;

  // When non-empty, the learned PlanCalibration is persisted across
  // restarts: the constructor loads the file if it exists (a missing or
  // malformed file silently keeps the defaults — cold start) and the
  // destructor writes the current calibration back. A restarted server
  // therefore resumes from the constants the previous run converged to
  // instead of re-learning them from scratch (core/calibration_io.h).
  std::string calibration_file;

  // Write path (docs/updates.md): once the delta buffer holds this many
  // rows (inserts plus base tombstones) the mutation that crossed the
  // threshold folds it into a fresh base snapshot — full reservoir
  // sample, new plan, compacted logical ids. 0 disables automatic merges
  // (Merge() still works).
  size_t delta_merge_threshold = 8192;
};

// Outcome of one Insert/Delete batch (or an explicit Merge). `ok` is
// false only for malformed requests (dimension mismatch, no dataset);
// the batch is then rejected wholesale and service state is untouched.
struct MutationResult {
  bool ok = true;
  std::string error;
  size_t applied = 0;    // Rows inserted / ids tombstoned.
  size_t fast_path = 0;  // Inserts rejected by the plan's sample-skyline
                         // filter: proven dominated by one SIMD probe,
                         // touched nothing but the delta buffer.
  size_t rejected = 0;   // Delete ids out of range or already dead
                         // (skipped; the rest of the batch applies).
  uint32_t first_id = 0; // Logical id of the batch's first inserted row.
  bool merged = false;   // This mutation crossed the merge threshold.
  size_t repair_partitions = 0;  // Partitions the delete repair rescanned
                                 // (box-pruned pipeline re-run).
  double ms = 0.0;
};

// Write-side state of the current snapshot (delta_stats()).
struct DeltaStats {
  bool active = false;      // Mutations pending since the last merge /
                            // SetDataset (delta overlay in effect).
  size_t logical_rows = 0;  // Base + delta rows, including tombstones.
  size_t alive_rows = 0;
  size_t delta_rows = 0;    // Buffered delta rows (including dead).
  size_t base_dead = 0;     // Tombstoned base rows.
  size_t band_size = 0;     // Maintained base-skyline size.
};

// Concurrent serving front-end over one dataset snapshot: owns the
// dataset, a cached PreparedPlan, and the shared worker pool, and admits
// Query() calls from many threads.
//
// Layering (see docs/architecture.md):
//   plan     (core/query_plan.h)  — built once per dataset, immutable;
//   pipeline (core/pipeline.h)    — per-query MR jobs over `const plan&`;
//   service  (this file)          — snapshots, admission, pool ticketing,
//                                   and the write path (core/delta.h).
//
// Concurrency contract:
//  - Query() is safe from any number of threads. Admission is bounded by
//    max_in_flight; beyond it callers block.
//  - The first query after construction or SetDataset() builds the plan
//    (exactly once — concurrent cold queries wait for the builder) and
//    charges its build time as preprocess_ms. Every later query reports
//    preprocess_ms = 0 and plan_reused = true.
//  - Pipeline execution is ticketed through the shared pool: one query's
//    MR waves run at a time, with full intra-query parallelism.
//    WorkerPool::Run serializes single waves, not wave *sequences*, so
//    without the ticket two queries' waves would interleave arbitrarily —
//    the executor's documented single-caller hazard.
//  - SetDataset() atomically swaps the snapshot and invalidates the cached
//    plan. In-flight queries finish against the snapshot they acquired;
//    queries admitted afterwards see the new dataset.
//  - Insert()/Delete()/Merge() are safe from any number of threads and
//    concurrently with queries; mutations serialize against each other.
//    Every mutation publishes a NEW immutable snapshot (shared base +
//    copy-on-write delta), so an in-flight query computes over exactly
//    the logical dataset that existed when it acquired its snapshot —
//    epoch-based reclamation by shared_ptr: the old snapshot (and any
//    merge-produced file) lives until its last reader drops it.
class QueryService {
 public:
  explicit QueryService(const QueryServiceOptions& options);
  // Convenience: construct and install the first dataset. The plan is
  // still built lazily by the first Query().
  QueryService(const QueryServiceOptions& options, PointSet points);
  // Persists the calibration when options().calibration_file is set.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  const QueryServiceOptions& options() const { return options_; }

  // Installs or replaces the dataset snapshot; the cached plan is
  // invalidated and rebuilt by the next Query(), and any pending delta
  // buffer is discarded with the old snapshot. Safe to call while queries
  // are in flight.
  void SetDataset(PointSet points);

  // Out-of-core variant: mmaps a `.zsc` columnar file (io/columnar.h) and
  // installs it as the dataset snapshot — the points are served straight
  // from the page cache, never heap-materialized. When the executor's
  // shuffle_memory_budget_bytes is non-zero the mapping runs with bounded
  // residency (pages are dropped behind every map scan), so the service's
  // resident set stays O(budget + plan) instead of O(dataset). Returns
  // false and sets `error` on a missing or malformed file; the current
  // snapshot is untouched. Same swap semantics as SetDataset.
  //
  // A file-backed snapshot accepts mutations like a heap one: the delta
  // buffer lives on the heap over the read-only mapping, and a merge
  // streams a new `.zsc` beside the original (owned by the merged
  // snapshot and unlinked when its last reader drops it).
  bool SetDatasetFile(const std::string& path, std::string* error);

  // Computes the skyline of the current dataset snapshot. Must not be
  // called before a dataset is installed.
  SkylineQueryResult Query() { return Query(QueryRequest{}); }
  SkylineQueryResult Query(const QueryRequest& request);

  // --- Write path (docs/updates.md) -----------------------------------
  //
  // Logical row ids: base rows keep their dataset row ids; a row inserted
  // while the base holds B logical-delta rows gets the next id after the
  // current id space. Deletes address these ids. A merge COMPACTS ids
  // (alive base rows in ascending order, then alive delta rows in
  // insertion order), so ids are stable only between merges —
  // MutationResult::merged / first_id let callers track the renumbering.

  // Inserts a batch of points (dimensions must match the base dataset).
  // A point the plan's sample-skyline filter proves dominated touches
  // nothing but the delta buffer (result.fast_path); every insert leaves
  // the base plan untouched. Requires an installed dataset.
  MutationResult Insert(const PointSet& points);

  // Tombstones the given logical ids. Out-of-range or already-dead ids
  // are counted in result.rejected and skipped. Deleting a point of the
  // maintained base skyline triggers exclusive-dominance-region repair: a
  // box-constrained pipeline re-run over only the partitions intersecting
  // the deleted points' dominance region (result.repair_partitions).
  MutationResult Delete(std::span<const uint32_t> ids);

  // Folds the delta buffer into a fresh base snapshot now (full plan
  // rebuild, compacted ids). Returns false when there is nothing to merge
  // or the merge lost the publish race to a concurrent SetDataset.
  bool Merge();

  DeltaStats delta_stats() const;

  struct Stats {
    size_t queries = 0;        // Completed Query() calls.
    size_t plan_builds = 0;    // Cold plan constructions (1 per dataset).
    size_t replans = 0;        // Rebuilds triggered by prediction error.
    size_t peak_in_flight = 0; // Max concurrently admitted queries seen.
    double plan_build_ms_total = 0.0;
    double query_ms_total = 0.0;  // Sum of per-query total_ms.
    // Write path.
    size_t inserts = 0;            // Rows inserted.
    size_t deletes = 0;            // Rows tombstoned.
    size_t fast_path_inserts = 0;  // Sample-skyline-filter insert rejects.
    size_t merges = 0;             // Delta merges folded into the base.
    size_t repairs = 0;            // Delete batches that repaired the band.
    size_t plan_patches = 0;       // Plans re-derived by sampled-row death.
  };
  Stats stats() const;

  // Current cost-model calibration (adaptive planning only; defaults
  // otherwise). Exposed for tests and the CLI's --stats-every report.
  PlanCalibration calibration() const;

 private:
  // The physical dataset backing of a snapshot: either heap `points` or
  // an mmap'd `mapped` file; `view` abstracts the two for the pipeline
  // and borrows storage owned by this object. Shared across snapshots
  // (mutations and replans layer new plans/deltas over the same base), so
  // it lives exactly as long as the last snapshot or in-flight query that
  // references it — and a merge-produced `.zsc` (owned_path) is unlinked
  // by the destructor at that same moment: epoch-based file reclamation.
  struct SnapshotBase {
    PointSet points{1};
    std::shared_ptr<const ColumnarDataset> mapped;
    DatasetView view;
    std::string owned_path;  // Merge-produced file to unlink, or empty.
    ~SnapshotBase();
  };

  // One immutable serving epoch: base + plan + (optional) delta. Queries
  // hold it by shared_ptr so SetDataset / mutations can swap underneath
  // them. `delta` is null until the first mutation after a SetDataset or
  // merge — the pristine read path is byte-for-byte the delta-free one.
  struct Snapshot {
    std::shared_ptr<const SnapshotBase> base;
    std::shared_ptr<const PreparedPlan> plan;
    std::shared_ptr<const DeltaState> delta;
    // Adaptive planning: what the cost model chose and predicted for this
    // snapshot (compared against measured stage times after every query),
    // and the calibration the prediction was made under — feedback sets
    // the service calibration to used * (actual / predicted), which is a
    // fixed point across repeat queries of one snapshot.
    bool adaptive = false;
    PlanChoice choice;
    PlanCalibration calibration;
  };

  // Returns the current snapshot, building the plan if this thread is the
  // one elected to; second = true iff this call built the plan. The
  // elected builder's `desc` informs the adaptive planner's cost model
  // (post-constraint survivor pricing); it never shapes the plan cache
  // key — all variants share one snapshot.
  std::pair<std::shared_ptr<const Snapshot>, bool> AcquireSnapshot(
      const QueryDesc& desc);
  SkylineQueryResult RunQuery(const QueryRequest& request);

  // Write-path internals; all run under mutate_mu_.
  // Bootstraps a delta over a pristine snapshot: computes the exact base
  // skyline (one default pipeline run under the pool ticket) and wraps it
  // as the maintained band.
  std::shared_ptr<DeltaState> BootstrapDelta(const Snapshot& snap);
  // Runs the exclusive-dominance-region repair after band deletes:
  // re-runs the pipeline constrained to the deleted band points'
  // dominance box over the alive base, merges resurfacing points into
  // the band. Fills `repair_partitions`.
  void RepairBandAfterDeletes(const Snapshot& snap, DeltaState& delta,
                              const std::vector<uint32_t>& deleted_band_rows,
                              size_t* repair_partitions);
  // Publishes `next` as the current snapshot iff the snapshot `from` was
  // built against is still current and no SetDataset is pending. Returns
  // false when the mutation must re-read state and retry.
  bool TryPublish(const std::shared_ptr<const Snapshot>& from,
                  std::shared_ptr<const Snapshot> next);
  // Folds the delta when it crossed options_.delta_merge_threshold
  // (caller holds mutate_mu_).
  void MaybeAutoMerge(MutationResult* result);
  // The merge itself (caller holds mutate_mu_).
  bool MergeLocked(MutationResult* result);

  QueryServiceOptions options_;
  mr::WorkerPool pool_;

  mutable std::mutex mu_;  // Guards everything below.
  std::condition_variable admit_cv_;  // in_flight_ < max_in_flight
  std::condition_variable build_cv_;  // plan (re)build completed
  uint32_t in_flight_ = 0;
  bool building_ = false;      // A thread is running PreparePlan.
  bool has_pending_ = false;   // SetDataset happened; plan not yet built.
  // Adaptive planning: prediction error exceeded the threshold; the next
  // AcquireSnapshot() re-runs ChoosePlan (with the updated calibration)
  // over the current dataset.
  bool replan_pending_ = false;
  PlanCalibration calibration_;
  PointSet pending_points_{1};
  // Pending mmap'd dataset (SetDatasetFile); mutually exclusive with
  // pending_points_ holding data.
  std::shared_ptr<const ColumnarDataset> pending_mapped_;
  std::shared_ptr<const Snapshot> snapshot_;  // Null until first build.
  Stats stats_;
  // Monotonic merge-file counter (names never collide even when a merged
  // snapshot is still alive while the next merge runs).
  uint64_t merge_files_ = 0;

  // Pool ticket: serializes whole pipeline executions on pool_ (acquired
  // after admission, held across both MR jobs and the final merge; the
  // write path takes it for band bootstrap and delete repair).
  std::mutex pool_mu_;

  // Serializes mutations (Insert/Delete/Merge) against each other; never
  // blocks queries. Ordering: mutate_mu_ > mu_ and mutate_mu_ > pool_mu_;
  // mu_ and pool_mu_ are never held together.
  std::mutex mutate_mu_;
};

}  // namespace zsky

#endif  // ZSKY_CORE_QUERY_SERVICE_H_
