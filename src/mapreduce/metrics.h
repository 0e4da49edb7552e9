#ifndef ZSKY_MAPREDUCE_METRICS_H_
#define ZSKY_MAPREDUCE_METRICS_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace zsky::mr {

// Wall-clock + record counters for one map or reduce task.
struct TaskMetrics {
  double ms = 0.0;
  size_t records_in = 0;
  size_t records_out = 0;
};

// Aggregate statistics over a task wave; `skew` (max/mean time) is the
// straggler indicator used by the load-balancing experiments.
struct WaveStats {
  double max_ms = 0.0;
  double min_ms = 0.0;
  double mean_ms = 0.0;
  double skew = 0.0;
};

inline WaveStats Summarize(const std::vector<TaskMetrics>& tasks) {
  WaveStats stats;
  if (tasks.empty()) return stats;
  double total = 0.0;
  stats.min_ms = tasks.front().ms;
  for (const TaskMetrics& t : tasks) {
    stats.max_ms = std::max(stats.max_ms, t.ms);
    stats.min_ms = std::min(stats.min_ms, t.ms);
    total += t.ms;
  }
  stats.mean_ms = total / static_cast<double>(tasks.size());
  stats.skew = stats.mean_ms > 0.0 ? stats.max_ms / stats.mean_ms : 0.0;
  return stats;
}

// Simulated-cluster makespan: schedules the measured per-task times onto
// `slots` parallel workers (greedy longest-processing-time) and returns
// the finishing time of the busiest worker. This is what the job's wall
// time would be on a cluster with `slots` task slots; measuring it from
// clean single-thread task timings avoids contention noise on the host.
inline double MakespanMs(const std::vector<TaskMetrics>& tasks,
                         uint32_t slots) {
  if (tasks.empty() || slots == 0) return 0.0;
  std::vector<double> durations;
  durations.reserve(tasks.size());
  for (const TaskMetrics& t : tasks) durations.push_back(t.ms);
  std::sort(durations.begin(), durations.end(), std::greater<>());
  std::vector<double> load(std::min<size_t>(slots, durations.size()), 0.0);
  for (double d : durations) {
    auto it = std::min_element(load.begin(), load.end());
    *it += d;
  }
  return *std::max_element(load.begin(), load.end());
}

// Metrics for one MapReduce job execution.
struct JobMetrics {
  std::vector<TaskMetrics> map_tasks;
  std::vector<TaskMetrics> reduce_tasks;
  // Records/bytes crossing the (simulated) network between map and reduce,
  // measured after the combiner.
  size_t shuffle_records = 0;
  size_t shuffle_bytes = 0;
  // Combiner reduction: records entering / leaving map-side combiners.
  size_t combiner_in = 0;
  size_t combiner_out = 0;
  double map_wall_ms = 0.0;
  // Wall time of the shuffle between the waves (regrouping map output by
  // reducer, including spill-file reads when spilling is enabled).
  double shuffle_wall_ms = 0.0;
  double reduce_wall_ms = 0.0;
  double total_wall_ms = 0.0;

  // Bytes written to (and read back from) map-output spill files when the
  // disk-backed shuffle is enabled.
  size_t spill_bytes = 0;
  // Map tasks whose output was spilled to disk (all of them under
  // spill_to_disk; only the largest under a memory budget).
  size_t spilled_tasks = 0;

  // Record-path cost accounting (zero-copy columnar shuffle):
  // bytes of new backing storage the shuffle allocated during this run
  // (zero in steady state — chunks and scratch are pooled across runs),
  // and bytes physically copied moving records from map output to the
  // reducers' grouped slices (one value copy per record on the columnar
  // path; spill readback adds its record bytes).
  size_t shuffle_alloc_bytes = 0;
  size_t shuffle_copy_bytes = 0;

  // Fault-tolerance accounting: attempts that failed (and were retried),
  // and whether every task eventually committed. A job with
  // `succeeded == false` has tasks that exhausted their attempts; its
  // output is incomplete.
  size_t failed_attempts = 0;
  bool succeeded = true;

  // Morsel-driven scheduling accounting (docs/scheduling.md) over the
  // map, collapse and reduce waves; the shuffle pull is not counted.
  // `tasks_stolen` counts morsels executed by a slot other than the owner
  // of the queue they were enqueued on.
  size_t morsels_total = 0;
  size_t tasks_stolen = 0;

  // Reduce-side collapse wave (oversized grouped runs re-combined in
  // key-range slices before the reduce wave; see docs/scheduling.md).
  // `collapse_tasks` is the number of slice tasks run, `collapsed_runs`
  // the number of grouped runs that were collapsed.
  size_t collapse_tasks = 0;
  size_t collapsed_runs = 0;
  double collapse_wall_ms = 0.0;

  // Out-of-core read path (deltas of the process-wide ScanCounters over
  // this job, filled by the pipeline): bytes moved through the
  // RowBlockCursor's columnar transpose (0 when the plain mask wave read a
  // `.zsc` mapping in place, and always 0 on heap backings — the wave's
  // heap tile transposes are not file transposes), readahead effort and payoff, and rows skipped by the
  // `.zsc` per-block min/max sketch on constrained scans.
  size_t transpose_bytes = 0;
  size_t readahead_bytes = 0;
  size_t readahead_hits = 0;
  size_t readahead_wasted_bytes = 0;
  size_t rows_pruned_by_sketch = 0;
  std::vector<TaskMetrics> collapse_task_metrics;

  WaveStats map_stats() const { return Summarize(map_tasks); }
  WaveStats reduce_stats() const { return Summarize(reduce_tasks); }

  // Shuffle throughput in records per second (0 when nothing moved).
  double ShuffleRecordsPerSec() const {
    return shuffle_wall_ms > 0.0
               ? static_cast<double>(shuffle_records) /
                     (shuffle_wall_ms / 1000.0)
               : 0.0;
  }

  // Reduce-side wave-completion skew on a simulated cluster of `slots`
  // workers: (collapse + reduce makespan) / the ideal evenly-spread time.
  // 1.0 means the wave finishes as if perfectly balanced; values above it
  // mean stragglers idle the other slots. This is the quantity morsel
  // scheduling + run collapse drive down (docs/scheduling.md) — per-task
  // max/mean (WaveStats::skew) cannot see the fix, because splitting a
  // giant task changes the schedule, not the surviving tasks' times.
  double ReduceCompletionSkew(uint32_t slots) const {
    if (slots == 0) return 0.0;
    double work = 0.0;
    for (const TaskMetrics& t : collapse_task_metrics) work += t.ms;
    for (const TaskMetrics& t : reduce_tasks) work += t.ms;
    if (work <= 0.0) return 0.0;
    const double makespan = MakespanMs(collapse_task_metrics, slots) +
                            MakespanMs(reduce_tasks, slots);
    return makespan / (work / static_cast<double>(slots));
  }

  // Simulated cluster time of this job with `slots` parallel task slots
  // and an aggregate shuffle bandwidth of `net_mbps` MiB/s: map-wave
  // makespan + shuffle transfer + reduce-wave makespan.
  double SimulatedMs(uint32_t slots, double net_mbps) const {
    const double shuffle_ms =
        net_mbps > 0.0
            ? static_cast<double>(shuffle_bytes) / (net_mbps * 1048.576)
            : 0.0;
    return MakespanMs(map_tasks, slots) + shuffle_ms +
           MakespanMs(collapse_task_metrics, slots) +
           MakespanMs(reduce_tasks, slots);
  }
};

}  // namespace zsky::mr

#endif  // ZSKY_MAPREDUCE_METRICS_H_
