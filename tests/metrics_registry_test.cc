// Tests for the counter/histogram registry (core/metrics_registry.h),
// including the central invariant the registry's contract promises: work
// counters emitted by the skyline pipeline are functions of the dataset
// and plan, not of the execution schedule — the same query yields
// identical totals for every thread count and both scheduling modes.

#include "core/metrics_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "common/quantizer.h"
#include "core/executor.h"
#include "core/query_service.h"
#include "gen/synthetic.h"
#include "mapreduce/worker_pool.h"

namespace zsky {
namespace {

TEST(CounterTest, AddAndIncrementAccumulate) {
  MetricsRegistry registry;
  MetricsRegistry::Counter& c = registry.counter("events");
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&registry.counter("events"), &c);
  EXPECT_EQ(registry.counter(std::string("events")).value(), 42u);
}

TEST(CounterTest, ConcurrentAddsFromPoolSumExactly) {
  MetricsRegistry registry;
  MetricsRegistry::Counter& c = registry.counter("hits");
  mr::WorkerPool pool(8);
  constexpr size_t kTasks = 1000;
  pool.Run(kTasks, [&](size_t task) { c.Add(task + 1); });
  EXPECT_EQ(c.value(), kTasks * (kTasks + 1) / 2);
}

TEST(HistogramTest, SnapshotAndPercentilesOnKnownDistribution) {
  MetricsRegistry registry;
  MetricsRegistry::Histogram& h = registry.histogram("latency");
  for (uint64_t v = 1; v <= 1000; ++v) h.Observe(v);

  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 500500u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 500.5);

  const double p50 = snap.Percentile(50.0);
  const double p90 = snap.Percentile(90.0);
  const double p99 = snap.Percentile(99.0);
  // Monotone, inside the observed range, and within one power-of-two
  // bucket of the exact answer.
  EXPECT_LE(snap.min, p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, static_cast<double>(snap.max));
  EXPECT_GE(p50, 256.0);   // Exact p50 = 500, bucket [256, 511].
  EXPECT_LE(p50, 512.0);
  EXPECT_GE(p99, 900.0);   // Exact p99 = 990, clamped near max.
}

TEST(HistogramTest, ZeroAndExtremeValues) {
  MetricsRegistry registry;
  MetricsRegistry::Histogram& h = registry.histogram("h");
  h.Observe(0);
  h.Observe(UINT64_MAX);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, UINT64_MAX);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[64], 1u);
  // Empty histogram percentiles are defined (0).
  EXPECT_EQ(registry.histogram("empty").snapshot().Percentile(50.0), 0.0);
}

TEST(RegistryTest, ResetZeroesButKeepsInstruments) {
  MetricsRegistry registry;
  MetricsRegistry::Counter& c = registry.counter("c");
  MetricsRegistry::Histogram& h = registry.histogram("h");
  c.Add(5);
  h.Observe(7);
  registry.Reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
  // References stay valid and the names stay listed.
  c.Add(1);
  EXPECT_EQ(registry.counters().size(), 1u);
  EXPECT_EQ(registry.counters()[0].name, "c");
  EXPECT_EQ(registry.counters()[0].value, 1u);
  EXPECT_EQ(registry.histograms().size(), 1u);
}

TEST(RegistryTest, SnapshotsAreNameSorted) {
  MetricsRegistry registry;
  registry.counter("zz").Add(1);
  registry.counter("aa").Add(2);
  registry.counter("mm").Add(3);
  const auto counters = registry.counters();
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters[0].name, "aa");
  EXPECT_EQ(counters[1].name, "mm");
  EXPECT_EQ(counters[2].name, "zz");
}

TEST(RegistryTest, ToJsonContainsInstruments) {
  MetricsRegistry registry;
  registry.counter("widgets").Add(12);
  registry.histogram("delay_us").Observe(100);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"widgets\":12"), std::string::npos) << json;
  EXPECT_NE(json.find("\"delay_us\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Thread-count invariance of pipeline work counters.

// Everything about one pipeline run that must not depend on scheduling.
struct WorkSnapshot {
  std::map<std::string, uint64_t> counters;
  MetricsRegistry::Histogram::Snapshot candidates_per_group;
  uint64_t map_task_count = 0;
  SkylineIndices skyline;
};

WorkSnapshot RunPipelineOnce(const PointSet& points, uint32_t num_threads) {
  MetricsRegistry::Global().Reset();

  ExecutorOptions options;
  options.partitioning = PartitioningScheme::kZdg;
  options.local = LocalAlgorithm::kZSearch;
  options.merge = MergeAlgorithm::kZMerge;
  options.num_groups = 8;
  options.num_map_tasks = 16;  // Fixed split layout for every config.
  options.bits = 8;
  options.num_threads = num_threads;

  const SkylineQueryResult result =
      ParallelSkylineExecutor(options).Execute(points);

  WorkSnapshot snap;
  snap.skyline = result.skyline;
  for (const char* name :
       {"records_pruned_by_szb", "records_dropped_by_grouping",
        "candidates_emitted", "shuffle_records", "shuffle_bytes",
        "combiner_records_in", "combiner_records_out", "skyline_points",
        "failed_attempts", "spill_bytes"}) {
    snap.counters[name] = MetricsRegistry::Global().counter(name).value();
  }
  snap.candidates_per_group =
      MetricsRegistry::Global().histogram("candidates_per_group").snapshot();
  snap.map_task_count =
      MetricsRegistry::Global().histogram("job1_map_task_us").snapshot().count;
  return snap;
}

TEST(RegistryInvarianceTest, WorkCountersIndependentOfScheduling) {
  const PointSet points = GenerateQuantized(Distribution::kIndependent,
                                            20'000, 6, 7, Quantizer(8));

  const WorkSnapshot baseline = RunPipelineOnce(points, /*num_threads=*/1);
  ASSERT_FALSE(baseline.skyline.empty());
  EXPECT_GT(baseline.counters.at("candidates_emitted"), 0u);
  EXPECT_GT(baseline.counters.at("shuffle_bytes"), 0u);
  EXPECT_EQ(baseline.counters.at("skyline_points"), baseline.skyline.size());
  EXPECT_EQ(baseline.candidates_per_group.count, 8u);
  EXPECT_EQ(baseline.candidates_per_group.sum,
            baseline.counters.at("candidates_emitted"));
  EXPECT_EQ(baseline.map_task_count, 16u);

  for (const uint32_t num_threads : {1u, 2u, 8u}) {
    const WorkSnapshot snap = RunPipelineOnce(points, num_threads);
    const std::string label = "num_threads=" + std::to_string(num_threads);
    EXPECT_EQ(snap.counters, baseline.counters) << label;
    EXPECT_EQ(snap.skyline, baseline.skyline) << label;
    EXPECT_EQ(snap.candidates_per_group.count,
              baseline.candidates_per_group.count)
        << label;
    EXPECT_EQ(snap.candidates_per_group.sum,
              baseline.candidates_per_group.sum)
        << label;
    EXPECT_EQ(snap.candidates_per_group.min,
              baseline.candidates_per_group.min)
        << label;
    EXPECT_EQ(snap.candidates_per_group.max,
              baseline.candidates_per_group.max)
        << label;
    // Latency histograms are schedule-dependent in their values but not
    // in how many samples they hold (one per task).
    EXPECT_EQ(snap.map_task_count, baseline.map_task_count) << label;
  }
}

// ---------------------------------------------------------------------------
// The instrument catalog in docs/observability.md names every counter and
// histogram the pipeline and the service create.

TEST(RegistryCatalogTest, EveryInstrumentIsDocumented) {
  std::ifstream doc(ZSKY_OBSERVABILITY_DOC);
  ASSERT_TRUE(doc.good()) << ZSKY_OBSERVABILITY_DOC;
  const std::string catalog((std::istreambuf_iterator<char>(doc)),
                            std::istreambuf_iterator<char>());

  const PointSet points = GenerateQuantized(Distribution::kAnticorrelated,
                                            3'000, 4, 11, Quantizer(10));
  ExecutorOptions options;
  options.bits = 10;
  options.num_groups = 4;
  options.num_threads = 2;
  // A pipeline query.
  ParallelSkylineExecutor(options).Execute(points);

  // A service with adaptive planning that replans after every query, then
  // an insert, a delete of skyline and sample rows (band repair and plan
  // patch), an overlay read and a merge.
  QueryServiceOptions service_options;
  service_options.executor = options;
  service_options.adaptive_planning = true;
  service_options.replan_threshold = 0.0;
  QueryService service(service_options, points);
  const SkylineQueryResult first = service.Query();
  ASSERT_FALSE(first.skyline.empty());
  service.Query();
  PointSet batch(4);
  batch.Append(std::vector<Coord>{1023, 1023, 1023, 1023});  // Dominated.
  batch.Append(std::vector<Coord>{0, 0, 0, 0});  // Dominates every row.
  ASSERT_TRUE(service.Insert(batch).ok);
  std::vector<uint32_t> doomed(first.skyline.begin(),
                               first.skyline.begin() + 2);
  for (uint32_t id = 0; id < 300; ++id) doomed.push_back(id);
  ASSERT_TRUE(service.Delete(doomed).ok);
  service.Query();
  ASSERT_TRUE(service.Merge());
  service.Query();

  const MetricsRegistry& registry = MetricsRegistry::Global();
  std::vector<std::string> names;
  for (const auto& c : registry.counters()) names.push_back(c.name);
  for (const auto& h : registry.histograms()) names.push_back(h.name);
  for (const char* exercised :
       {"delta_buffer_rows", "delta_deletes", "delta_inserts",
        "fast_path_inserts", "plan_patches", "plan_patch_us", "plan_replans",
        "repair_partitions", "zmerge_points_tested",
        "zmerge_subtrees_discarded"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), exercised), names.end())
        << exercised << " was not created by this run";
  }
  for (const std::string& name : names) {
    EXPECT_NE(catalog.find("`" + name + "`"), std::string::npos)
        << name << " is missing from docs/observability.md";
  }
}

}  // namespace
}  // namespace zsky
