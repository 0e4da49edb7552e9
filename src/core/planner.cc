#include "core/planner.h"

#include <algorithm>
#include <cmath>

#include "algo/sort_based.h"
#include "common/rng.h"
#include "core/query_plan.h"
#include "sample/reservoir.h"

namespace zsky {

PlanDecision PlanQuery(const DatasetView& points,
                       const ExecutorOptions& base) {
  PlanDecision decision;
  decision.options = base;
  ExecutorOptions& options = decision.options;
  options.partitioning = PartitioningScheme::kZdg;

  if (points.empty()) {
    decision.rationale = "empty input: defaults";
    return decision;
  }
  const uint32_t dim = points.dim();

  // Cheap statistics from a small sample.
  Rng rng(base.seed ^ 0x9E3779B97F4A7C15ULL);
  const size_t sample_size = std::min<size_t>(points.size(), 2000);
  const PointSet sample = ReservoirSample(points, sample_size, rng);
  const size_t sample_skyline = SortBasedSkyline(sample).size();
  decision.sample_size = sample.size();
  decision.estimated_skyline_fraction =
      static_cast<double>(sample_skyline) /
      static_cast<double>(sample.size());

  const bool skyline_heavy = decision.estimated_skyline_fraction > 0.10;
  const bool high_dim = dim >= 7;
  const bool extreme_dim = dim >= 32;

  if (extreme_dim) {
    // Nearly everything is a skyline point: the SZB filter rejects almost
    // nothing but costs an index query per input point.
    options.local = LocalAlgorithm::kZSearch;
    options.merge = MergeAlgorithm::kZMerge;
    options.enable_szb_filter = false;
    decision.rationale =
        "extreme dimensionality: ZS locals + Z-merge, SZB filter off";
  } else if (high_dim || skyline_heavy) {
    options.local = LocalAlgorithm::kZSearch;
    options.merge = MergeAlgorithm::kZMerge;
    decision.rationale =
        skyline_heavy ? "skyline-heavy sample: ZS locals + Z-merge"
                      : "high dimensionality: ZS locals + Z-merge";
  } else {
    // Small skylines at low dimensionality: pairwise passes win and the
    // merge input is tiny.
    options.local = LocalAlgorithm::kSortBased;
    options.merge = MergeAlgorithm::kSortBased;
    decision.rationale = "small skyline at low dimensionality: SB + SB";
  }

  // Larger samples pay off when the skyline is large (Figure 13).
  options.sample_ratio = skyline_heavy ? 0.02 : 0.01;
  return decision;
}

PlanCostEstimate EstimatePlanCost(const PreparedPlan& plan,
                                  size_t dataset_size) {
  PlanCostEstimate estimate;
  if (dataset_size == 0 || plan.sample.empty()) return estimate;

  const double sample_size = static_cast<double>(plan.sample.size());
  const double skyline_fraction =
      static_cast<double>(plan.sample_skyline.size()) / sample_size;

  // SZB filter: a point dominated by the sample skyline is dropped in the
  // mapper. Among the sample itself, exactly the non-skyline points are
  // dominated, so the sample skyline fraction extrapolates to the filter's
  // pass rate.
  if (plan.HasSzbFilter()) {
    estimate.szb_filter_rate = 1.0 - skyline_fraction;
  }

  // ZDG pruning: routed-to-dropped mass extrapolates from the sample
  // counts of pruned partitions. (Filter and pruning overlap — a pruned
  // partition's points are all dominated — so pruning only removes what
  // the filter let through.)
  if (plan.zgroup != nullptr && plan.pruned_partitions > 0) {
    size_t pruned_sample = 0;
    for (size_t i = 0; i < plan.zgroup->num_partitions(); ++i) {
      if (plan.zgroup->group_of_partition(i) == kDroppedGroup) {
        pruned_sample += plan.zgroup->partition_sample_count(i);
      }
    }
    estimate.pruned_fraction =
        static_cast<double>(pruned_sample) / sample_size;
  }

  const double n = static_cast<double>(dataset_size);
  double survivor_rate = 1.0 - estimate.szb_filter_rate;
  if (!plan.HasSzbFilter()) survivor_rate = 1.0 - estimate.pruned_fraction;
  survivor_rate = std::clamp(survivor_rate, 0.0, 1.0);
  estimate.expected_shuffle_records = static_cast<size_t>(n * survivor_rate);

  // Job 1 emits each group's local skyline: a subset of the global-skyline
  // superset that survived the filter. The sample skyline fraction applied
  // to the survivors is the natural (slightly conservative) estimate.
  estimate.expected_candidates = std::min(
      estimate.expected_shuffle_records,
      static_cast<size_t>(n * skyline_fraction) + 1);

  // Group balance: route the sample through the partitioner and take the
  // largest group's share of the routed records — the quantity that makes
  // one reducer straggle.
  if (plan.partitioner != nullptr && plan.partitioner->num_groups() > 0) {
    std::vector<size_t> per_group(plan.partitioner->num_groups(), 0);
    size_t routed = 0;
    for (size_t i = 0; i < plan.sample.size(); ++i) {
      const int32_t gid = plan.partitioner->GroupOf(plan.sample[i]);
      if (gid < 0 || static_cast<size_t>(gid) >= per_group.size()) continue;
      ++per_group[static_cast<size_t>(gid)];
      ++routed;
    }
    if (routed > 0) {
      estimate.max_group_fraction =
          static_cast<double>(
              *std::max_element(per_group.begin(), per_group.end())) /
          static_cast<double>(routed);
    }
  }
  return estimate;
}

PlanCostEstimate EstimatePlanCost(const PreparedPlan& plan,
                                  size_t dataset_size,
                                  const QueryDesc& desc) {
  PlanCostEstimate estimate = EstimatePlanCost(plan, dataset_size);
  if (desc.IsDefault()) return estimate;

  // Box selectivity, measured on the plan's sample (the post-constraint
  // survivor estimate). An unconstrained desc keeps selectivity 1.
  double selectivity = 1.0;
  if (desc.has_box() && !plan.sample.empty()) {
    size_t inside = 0;
    for (size_t i = 0; i < plan.sample.size(); ++i) {
      if (desc.InBox(plan.sample[i])) ++inside;
    }
    selectivity = static_cast<double>(inside) /
                  static_cast<double>(plan.sample.size());
  }
  const double k = static_cast<double>(desc.k);
  const double cap = static_cast<double>(dataset_size) * selectivity;
  estimate.expected_shuffle_records = static_cast<size_t>(std::min(
      cap,
      static_cast<double>(estimate.expected_shuffle_records) * selectivity *
          k));
  estimate.expected_candidates = std::min(
      estimate.expected_shuffle_records,
      static_cast<size_t>(static_cast<double>(estimate.expected_candidates) *
                          selectivity * k) +
          (estimate.expected_shuffle_records > 0 ? 1 : 0));
  return estimate;
}

namespace {

// Prices one candidate configuration for a dataset of `n` points using a
// mini-plan's extrapolated statistics. Returns (job1_ms, job2_ms).
std::pair<double, double> PriceCandidate(const ExecutorOptions& cand,
                                         const PlanCostEstimate& est,
                                         double skyline_fraction, size_t n,
                                         const PlanCalibration& cal) {
  const double nd = static_cast<double>(n);
  const double shuffled = static_cast<double>(est.expected_shuffle_records);
  const double candidates = static_cast<double>(est.expected_candidates);
  const uint32_t groups = std::max(1u, cand.num_groups);
  const uint32_t slots =
      cand.sim_workers != 0 ? cand.sim_workers : cand.num_groups;

  // Map wave: one filter probe + route per input point. Morselized maps
  // balance perfectly, so the makespan is total work over the slots. A
  // disabled filter skips the probe (the dominant term).
  const double probe = cand.enable_szb_filter ? cal.map_us_per_record
                                              : cal.map_us_per_record * 0.3;
  const double map_us = nd * probe / std::max(1u, slots);

  // Reduce wave: local skylines per group, priced from the sample's group
  // shares. Beyond the measured largest group, assume the remaining mass
  // spreads evenly.
  const double max_f = std::clamp(est.max_group_fraction, 0.0, 1.0);
  const double rest_f =
      groups > 1 ? (1.0 - max_f) / static_cast<double>(groups - 1) : 0.0;
  auto local_cost_us = [&](double rows) {
    if (rows < 1.0) return 0.0;
    if (cand.local == LocalAlgorithm::kSortBased) {
      // Pairwise passes against the growing window, ~rows * window size.
      const double window = std::max(1.0, rows * skyline_fraction);
      return cal.sb_us_per_pair * rows * window;
    }
    return cal.zs_us_per_record_log * rows * std::log2(rows + 2.0);
  };
  double reduce_total_us = local_cost_us(max_f * shuffled);
  if (groups > 1) {
    reduce_total_us +=
        static_cast<double>(groups - 1) * local_cost_us(rest_f * shuffled);
  }
  // Morsel scheduling lets idle slots drain the straggler group, so the
  // wave finishes at the balanced time.
  const double reduce_us = reduce_total_us / std::max(1u, slots);

  // Merge job: one pass over the candidates.
  double merge_us;
  if (cand.merge == MergeAlgorithm::kSortBased) {
    const double window = std::max(1.0, nd * skyline_fraction);
    merge_us = cal.sb_us_per_pair * candidates * window;
  } else {
    merge_us = cal.merge_us_per_candidate * candidates;
  }

  const double job1_ms = cal.job1_scale * (map_us + reduce_us) / 1000.0;
  const double job2_ms = cal.job2_scale * merge_us / 1000.0;
  return {job1_ms, job2_ms};
}

}  // namespace

PlanChoice ChoosePlan(const DatasetView& points, const ExecutorOptions& base,
                      const PlanCalibration& calibration,
                      const QueryDesc* desc) {
  PlanChoice choice;
  choice.options = base;
  if (points.empty()) {
    choice.rationale = "empty input: defaults";
    return choice;
  }
  const uint32_t dim = points.dim();
  const size_t n = points.size();

  // One shared sample; every candidate's mini-plan learns from it.
  Rng rng(base.seed ^ 0x9E3779B97F4A7C15ULL);
  const size_t sample_size = std::min<size_t>(n, 2000);
  const PointSet sample = ReservoirSample(points, sample_size, rng);
  const size_t sample_skyline = SortBasedSkyline(sample).size();
  choice.sample_size = sample.size();
  choice.estimated_skyline_fraction =
      static_cast<double>(sample_skyline) / static_cast<double>(sample.size());
  const bool skyline_heavy = choice.estimated_skyline_fraction > 0.10;

  const PartitioningScheme schemes[] = {PartitioningScheme::kZdg,
                                        PartitioningScheme::kZhg,
                                        PartitioningScheme::kGrid};
  const LocalAlgorithm locals[] = {LocalAlgorithm::kSortBased,
                                   LocalAlgorithm::kZSearch};
  const uint32_t base_groups = std::max(1u, base.num_groups);
  const uint32_t group_counts[] = {base_groups, base_groups * 2};

  bool first = true;
  double best_ms = 0.0;
  for (const PartitioningScheme scheme : schemes) {
    for (const LocalAlgorithm local : locals) {
      for (const uint32_t groups : group_counts) {
        ExecutorOptions cand = base;
        cand.partitioning = scheme;
        cand.local = local;
        cand.num_groups = groups;
        cand.merge = local == LocalAlgorithm::kSortBased
                         ? MergeAlgorithm::kSortBased
                         : MergeAlgorithm::kZMerge;
        // The rule-based regimes that are about correctness/robustness
        // rather than cost still apply: at extreme dimensionality the SZB
        // filter rejects almost nothing but costs a probe per point.
        if (dim >= 32) cand.enable_szb_filter = false;
        cand.sample_ratio = skyline_heavy ? 0.02 : 0.01;

        // Mini-plan over the shared sample: sample_ratio 1 makes its
        // learned statistics cover the whole sample.
        ExecutorOptions mini = cand;
        mini.sample_ratio = 1.0;
        const PreparedPlan plan = PreparePlan(sample, mini);
        const PlanCostEstimate est =
            desc != nullptr ? EstimatePlanCost(plan, n, *desc)
                            : EstimatePlanCost(plan, n);
        const auto [job1_ms, job2_ms] = PriceCandidate(
            cand, est, choice.estimated_skyline_fraction, n, calibration);
        const double total_ms = job1_ms + job2_ms;

        PlanCandidateCost priced;
        priced.label = cand.Label() + "/g" + std::to_string(groups);
        priced.predicted_total_ms = total_ms;
        choice.candidates.push_back(std::move(priced));
        if (first || total_ms < best_ms) {
          first = false;
          best_ms = total_ms;
          choice.options = cand;
          choice.estimate = est;
          choice.predicted_job1_ms = job1_ms;
          choice.predicted_job2_ms = job2_ms;
          choice.predicted_total_ms = total_ms;
        }
      }
    }
  }
  choice.rationale = "cost model: " + choice.options.Label() + "/g" +
                     std::to_string(choice.options.num_groups) +
                     " predicted " + std::to_string(choice.predicted_total_ms)
                     + " ms, cheapest of " +
                     std::to_string(choice.candidates.size()) + " candidates";
  return choice;
}

}  // namespace zsky
