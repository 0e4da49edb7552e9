// Hot-path ablation bench: measures the block vs scalar dominance kernel
// in isolation and then the end-to-end pipeline with the hot path on vs
// the seed configuration (scalar kernel, one job-2 map task), verifying
// the skylines are bit-identical. Emits BENCH_hotpath.json for machine
// consumption next to the usual "# CSV" rows.

#include <cstdio>

#include "algo/sort_based.h"
#include "bench_util.h"
#include "common/stopwatch.h"

namespace zsky::bench {
namespace {

constexpr int kReps = 3;

// Best-of-k wall time of `fn` in ms.
template <typename Fn>
double BestMs(const Fn& fn, int reps = kReps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    const double ms = watch.ElapsedMs();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

struct Pair {
  double baseline_ms;
  double optimized_ms;
  double Speedup() const {
    return optimized_ms > 0.0 ? baseline_ms / optimized_ms : 0.0;
  }
};

// --- 1. Block vs scalar dominance kernel: sort-based skyline window
// scans, the kernel's densest call site. ---
Pair BenchKernel(const PointSet& points) {
  Pair result;
  SkylineIndices scalar;
  SkylineIndices block;
  result.baseline_ms =
      BestMs([&] { scalar = SortBasedSkyline(points, false); });
  result.optimized_ms =
      BestMs([&] { block = SortBasedSkyline(points, true); });
  if (scalar != block) {
    std::printf("!! kernel outputs DIVERGED\n");
    result.optimized_ms = 0.0;
  }
  return result;
}

// --- 2. End-to-end Execute: everything on vs the seed configuration. ---
ExecutorOptions PipelineOptions(bool hot) {
  ExecutorOptions options;
  options.bits = kBits;
  options.partitioning = PartitioningScheme::kZdg;
  options.local = LocalAlgorithm::kZSearch;
  options.merge = MergeAlgorithm::kZMerge;
  options.num_groups = 8;
  options.num_map_tasks = 16;
  options.num_threads = 4;
  options.use_block_kernel = hot;
  options.job2_map_tasks = hot ? 0 : 1;  // Seed ran job 2's map as 1 task.
  return options;
}

struct EndToEnd {
  Pair time;
  bool identical = false;
  size_t skyline = 0;
};

EndToEnd BenchEndToEnd(const PointSet& points) {
  EndToEnd result;
  SkylineIndices seed_skyline;
  SkylineIndices hot_skyline;
  {
    const ParallelSkylineExecutor executor(PipelineOptions(false));
    result.time.baseline_ms = BestMs([&] {
      seed_skyline = executor.Execute(points).skyline;
    });
  }
  {
    const ParallelSkylineExecutor executor(PipelineOptions(true));
    result.time.optimized_ms = BestMs([&] {
      hot_skyline = executor.Execute(points).skyline;
    });
  }
  result.identical = seed_skyline == hot_skyline;
  result.skyline = hot_skyline.size();
  return result;
}

void WriteJson(const char* path, size_t n, uint32_t dim, const Pair& kernel,
               const EndToEnd& e2e) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("!! cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"workload\": {\"n\": %zu, \"dim\": %u, "
               "\"distribution\": \"independent\"},\n",
               n, dim);
  std::fprintf(f,
               "  \"kernel\": {\"scalar_ms\": %.3f, \"block_ms\": %.3f, "
               "\"speedup\": %.3f},\n",
               kernel.baseline_ms, kernel.optimized_ms, kernel.Speedup());
  std::fprintf(f,
               "  \"end_to_end\": {\"seed_ms\": %.3f, \"hotpath_ms\": %.3f, "
               "\"speedup\": %.3f, \"identical\": %s, "
               "\"skyline_size\": %zu}\n",
               e2e.time.baseline_ms, e2e.time.optimized_ms,
               e2e.time.Speedup(), e2e.identical ? "true" : "false",
               e2e.skyline);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

int Main() {
  constexpr size_t kN = 500000;
  constexpr uint32_t kDim = 8;
  PrintBanner("hotpath", "block kernel / end-to-end hot path",
              "500k x 8d end-to-end plus the kernel ablation");

  const PointSet points = MakeData(Distribution::kIndependent, kN, kDim, 42);

  std::printf("%-28s %10s %10s %8s\n", "mechanism", "baseline", "optimized",
              "speedup");
  const Pair kernel = BenchKernel(points);
  std::printf("%-28s %9.1fms %9.1fms %7.2fx\n", "kernel (sort-based 500kx8d)",
              kernel.baseline_ms, kernel.optimized_ms, kernel.Speedup());

  const EndToEnd e2e = BenchEndToEnd(points);
  std::printf("%-28s %9.1fms %9.1fms %7.2fx  identical=%s\n",
              "end-to-end Execute", e2e.time.baseline_ms,
              e2e.time.optimized_ms, e2e.time.Speedup(),
              e2e.identical ? "yes" : "NO");

  std::printf("# CSV,mechanism,baseline_ms,optimized_ms,speedup\n");
  std::printf("# CSV,kernel,%.3f,%.3f,%.3f\n", kernel.baseline_ms,
              kernel.optimized_ms, kernel.Speedup());
  std::printf("# CSV,end_to_end,%.3f,%.3f,%.3f\n", e2e.time.baseline_ms,
              e2e.time.optimized_ms, e2e.time.Speedup());

  WriteJson("BENCH_hotpath.json", kN, kDim, kernel, e2e);
  return e2e.identical ? 0 : 1;
}

}  // namespace
}  // namespace zsky::bench

int main() { return zsky::bench::Main(); }
