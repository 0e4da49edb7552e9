// Sections 3.3 / 6.2 (data skew and stragglers): how evenly each
// partitioning spreads (a) input points and (b) reduce-side work across
// workers. The straggler indicator is the max/mean reduce-task time: a
// cluster wave finishes when its slowest task does.
//
// Paper behaviour to reproduce: grid partitioning skews badly on clustered
// / high-dimensional data (marginal quantiles do not balance joint
// distributions); Z-order equal-count partitioning keeps input shares
// near-uniform by construction.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "partition/angle_partitioner.h"
#include "partition/grid_partitioner.h"
#include "partition/zorder_grouping.h"
#include "sample/reservoir.h"

namespace zsky::bench {
namespace {

constexpr uint32_t kGroups = 32;
// Simulated cluster slots for the wave-completion skew (cf. sim_workers).
constexpr uint32_t kSimWorkers = 8;

// Max/mean group-size imbalance of a partitioner over a dataset.
double InputImbalance(const Partitioner& partitioner, const PointSet& points,
                      size_t* nonempty) {
  std::vector<size_t> sizes(partitioner.num_groups(), 0);
  size_t routed = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    const int32_t g = partitioner.GroupOf(points[i]);
    if (g < 0) continue;
    sizes[static_cast<size_t>(g)] += 1;
    ++routed;
  }
  size_t filled = 0;
  size_t max_size = 0;
  for (size_t s : sizes) {
    if (s > 0) ++filled;
    max_size = std::max(max_size, s);
  }
  if (nonempty != nullptr) *nonempty = filled;
  const double mean =
      static_cast<double>(routed) / static_cast<double>(sizes.size());
  return mean > 0.0 ? static_cast<double>(max_size) / mean : 0.0;
}

// `map_combine` off shuffles raw group members to the reducers (the
// paper's Section 3.3 baseline, where reduce-side skew is rawest): the
// morsel arm's only early combining is the collapse wave's parallel
// slices, so this is where run collapse shows its full effect.
void RunDataset(const char* name, const PointSet& points, bool map_combine,
                uint32_t groups, std::string& csv) {
  zsky::Rng rng(5);
  const PointSet sample = ReservoirSample(points, 4'000, rng);
  const ZOrderCodec codec(points.dim(), kBits);

  std::vector<std::pair<std::string, std::unique_ptr<Partitioner>>> parts;
  parts.emplace_back("grid",
                     std::make_unique<GridPartitioner>(sample, groups));
  parts.emplace_back("angle",
                     std::make_unique<AnglePartitioner>(sample, groups));
  ZOrderGroupedPartitioner::Options zopt;
  zopt.num_groups = groups;
  zopt.strategy = GroupingStrategy::kDominance;
  parts.emplace_back("zdg", std::make_unique<ZOrderGroupedPartitioner>(
                                &codec, sample, zopt));

  std::printf("\n--- dataset: %s (n=%zu, d=%u) ---\n", name, points.size(),
              points.dim());
  std::printf("%-8s %18s %10s %14s %14s %14s %10s %8s\n", "scheme",
              "input max/mean", "nonempty", "static skew", "morsel skew",
              "stolen/total", "collapse", "match");
  for (const auto& [label, partitioner] : parts) {
    size_t nonempty = 0;
    const double imbalance = InputImbalance(*partitioner, points, &nonempty);

    // End-to-end run with the matching executor strategy for task-time
    // spread (the actual straggler effect). Ablation: the same query with
    // the morsel targets at 0 (static: no map morsels, no run collapse)
    // vs morsel-driven splits and collapse — the skylines must be
    // bit-identical, only the schedule may differ.
    Strategy s{label,
               label == "grid"    ? PartitioningScheme::kGrid
               : label == "angle" ? PartitioningScheme::kAngle
                                  : PartitioningScheme::kZdg,
               LocalAlgorithm::kZSearch,
               label == "zdg" ? MergeAlgorithm::kZMerge
                              : MergeAlgorithm::kZSearch};
    ExecutorOptions morsel_options = MakeOptions(s, groups);
    // Low collapse target so the oversized-run slicing engages at this
    // bench's 100k scale (the 8192-record default is tuned for millions).
    morsel_options.reduce_morsel_records = 2048;
    morsel_options.enable_combiner = map_combine;
    // Skew arms run on a 1-thread pool: per-task times are then clean
    // work measurements, and ReduceCompletionSkew schedules them onto the
    // simulated kSimWorkers-slot cluster. Running them under the host's
    // oversubscribed thread pool instead would measure preemption noise,
    // not load balance.
    // Best-of-3 reps per arm (cf. BestMs): sub-millisecond tasks pick up
    // scheduler jitter even when run serially, and the minimum skew is the
    // run least polluted by it.
    constexpr int kReps = 3;
    auto measure = [&](bool morsels, double& best_skew) {
      ExecutorOptions serial = morsel_options;
      if (!morsels) {
        serial.map_morsel_rows = 0;
        serial.reduce_morsel_records = 0;
      }
      serial.num_threads = 1;
      SkylineQueryResult result;
      best_skew = 0.0;
      for (int rep = 0; rep < kReps; ++rep) {
        result = ParallelSkylineExecutor(serial).Execute(points);
        const double skew =
            result.metrics.job1.ReduceCompletionSkew(kSimWorkers);
        if (rep == 0 || skew < best_skew) best_skew = skew;
      }
      return result;
    };
    // Wave-completion skew on the simulated cluster: the straggler
    // indicator the morsel scheduler drives toward 1.0.
    double static_skew = 0.0;
    double morsel_skew = 0.0;
    const auto static_result = measure(false, static_skew);
    const auto morsel_result = measure(true, morsel_skew);
    // A pooled run of the same query exercises the real stealing path:
    // steal counts come from here, and its skyline must also match.
    const auto pooled_result =
        ParallelSkylineExecutor(morsel_options).Execute(points);
    const bool match = static_result.skyline == morsel_result.skyline &&
                       pooled_result.skyline == morsel_result.skyline;
    const size_t stolen = pooled_result.metrics.job1.tasks_stolen +
                          pooled_result.metrics.job2.tasks_stolen;
    const size_t morsels = pooled_result.metrics.job1.morsels_total +
                           pooled_result.metrics.job2.morsels_total;
    std::printf("%-8s %17.2fx %10zu %13.2fx %13.2fx %8zu/%-5zu %5zu/%-4zu %8s\n",
                label.c_str(), imbalance, nonempty, static_skew,
                morsel_skew, stolen, morsels,
                morsel_result.metrics.job1.collapse_tasks,
                morsel_result.metrics.job1.collapsed_runs,
                match ? "yes" : "NO");
    csv += "# CSV,skew," + std::string(name) + "," + label + "," +
           std::to_string(imbalance) + "," + std::to_string(static_skew) +
           "," + std::to_string(morsel_skew) + "," +
           std::to_string(stolen) + "," + std::to_string(morsels) + "," +
           std::to_string(morsel_result.metrics.job1.collapse_tasks) + "," +
           std::to_string(morsel_result.metrics.job1.collapsed_runs) + "\n";
  }
  std::fflush(stdout);
}

}  // namespace
}  // namespace zsky::bench

int main() {
  using namespace zsky::bench;
  using zsky::Distribution;
  PrintBanner("Skew & stragglers (Sections 3.3/6.2)",
              "per-worker input share and reduce-task time spread",
              "100k points; clustered data is where marginal-quantile "
              "grids break down");
  std::string csv;
  RunDataset("independent-5d",
             MakeData(Distribution::kIndependent, 100'000, 5, 3), true,
             kGroups, csv);
  RunDataset("anticorrelated-5d",
             MakeData(Distribution::kAnticorrelated, 100'000, 5, 4), true,
             kGroups, csv);
  {
    const zsky::Quantizer quantizer(kBits);
    const auto values = zsky::GenerateClustered(100'000, 8, 6, 0.04, 11);
    const zsky::PointSet clustered = quantizer.QuantizeAll(values, 8);
    RunDataset("clustered-8d", clustered, true, kGroups, csv);
  }
  {
    // The headline straggler case: raw shuffles (no map-side combining)
    // on tightly clustered low-dim data leave two reducers each holding a
    // giant run (~40% of all records) whose skyline is small — exactly
    // what run collapse slices away.
    const zsky::Quantizer quantizer(kBits);
    const auto values = zsky::GenerateClustered(100'000, 5, 2, 0.03, 11);
    // One wave: as many groups as simulated slots, so the slowest group
    // gates the whole wave — the textbook straggler shape.
    RunDataset("clustered-5d-raw", quantizer.QuantizeAll(values, 5), false,
               kSimWorkers, csv);
  }
  std::printf("%s", csv.c_str());
  return 0;
}
