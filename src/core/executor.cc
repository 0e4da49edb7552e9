#include "core/executor.h"

#include <memory>
#include <utility>

#include "common/stopwatch.h"
#include "core/pipeline.h"
#include "core/query_plan.h"

namespace zsky {

ParallelSkylineExecutor::ParallelSkylineExecutor(const ExecutorOptions& options)
    : options_(options),
      pool_(std::make_unique<mr::WorkerPool>(options.num_threads)) {
  ZSKY_CHECK(options.num_groups >= 1);
  ZSKY_CHECK(options.expansion >= 1);
  ZSKY_CHECK(options.num_map_tasks >= 1);
  ZSKY_CHECK(options.sample_ratio > 0.0 && options.sample_ratio <= 1.0);
  ZSKY_CHECK(options.bits >= 1 && options.bits <= 32);
}

SkylineQueryResult ParallelSkylineExecutor::Execute(
    const DatasetView& points) const {
  return Execute(points, QueryDesc{});
}

SkylineQueryResult ParallelSkylineExecutor::Execute(
    const DatasetView& points, const QueryDesc& desc) const {
  SkylineQueryResult result;
  if (points.empty()) return result;

  Stopwatch total_watch;
  // Phase 1: learn the plan from scratch (the one-shot path; repeated
  // queries should PreparePlan once and amortize this).
  const PreparedPlan plan = PreparePlan(points, options_);
  result = ExecuteWithPlan(plan, points, desc);

  PhaseMetrics& pm = result.metrics;
  pm.plan_reused = false;
  pm.preprocess_ms = plan.build_ms;
  pm.total_ms = total_watch.ElapsedMs();
  pm.sim_total_ms = pm.preprocess_ms + pm.sim_job1_ms + pm.sim_job2_ms;
  return result;
}

SkylineQueryResult ParallelSkylineExecutor::ExecuteWithPlan(
    const PreparedPlan& plan, const DatasetView& points) const {
  return ExecuteWithPlan(plan, points, QueryDesc{});
}

SkylineQueryResult ParallelSkylineExecutor::ExecuteWithPlan(
    const PreparedPlan& plan, const DatasetView& points,
    const QueryDesc& desc) const {
  SkylineQueryResult result;
  PhaseMetrics& pm = result.metrics;
  if (points.empty()) return result;
  ZSKY_CHECK(plan.partitioner != nullptr);
  ZSKY_CHECK(plan.dim == points.dim());
  ZSKY_CHECK(plan.options.bits == options_.bits);
  desc.CheckValid(points.dim());

  Stopwatch total_watch;
  pm.plan_reused = true;
  pm.sample_size = plan.sample.size();
  pm.sample_skyline_size = plan.sample_skyline.size();
  pm.num_partitions = plan.num_partitions;
  pm.pruned_partitions = plan.pruned_partitions;
  pm.num_groups = plan.partitioner->num_groups();

  CandidateList candidates =
      RunCandidateJob(plan, options_, points, pool_.get(), pm, desc);
  result.skyline =
      RunMergeJob(plan, options_, points, std::move(candidates), pool_.get(),
                  pm, desc);

  pm.total_ms = total_watch.ElapsedMs();
  pm.sim_total_ms = pm.preprocess_ms + pm.sim_job1_ms + pm.sim_job2_ms;
  return result;
}

}  // namespace zsky
