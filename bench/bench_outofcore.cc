// Out-of-core columnar bench:
// runs the skyline pipeline over an mmap'd `.zsc` dataset far larger than
// the working set it is allowed to keep resident, and proves with hard
// assertions (not just numbers): (1) the mmap path is bit-identical to
// the heap path on a 500k x 8d control, (2) peak RSS of the budget-
// bounded warm run is capped by the budget knob + a small fixed allowance
// + the MEASURED candidate-side peak (common/scan_counters.h) — NOT by
// the dataset size, and (3) the plain map wave reads the mapped columns
// in place (SoA mask kernel, zero transpose bytes). A cold lane (--cold runs only it) evicts the
// page cache (posix_fadvise(DONTNEED) via DropPageCache) and contrasts
// async readahead on vs off. Emits BENCH_outofcore.json;
// `scripts/check.sh outofcore` gates outofcore_points_per_sec and
// cold_points_per_sec against the committed copy.
//
// Flags: --n <rows> --dim <d> --budget-mb <mb> --file <path> --full
//        --keep --cold
// Default scale is 8M x 8d (sized for CI); --full runs the paper-regime
// 50M x 8d headline (1.6 GB file); --cold runs only the cold lanes.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/scan_counters.h"
#include "common/stopwatch.h"
#include "core/executor.h"
#include "io/columnar.h"

namespace zsky::bench {
namespace {

// Current resident set from /proc/self/status, in MiB. Unlike
// ru_maxrss this is instantaneous, so a sampler thread can watch the
// peak of one phase instead of the high-water mark of the whole process.
double CurrentRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Polls VmRSS on a background thread; Reset()/PeakMb() bracket a phase.
class RssSampler {
 public:
  RssSampler() : worker_([this] { Loop(); }) {}
  ~RssSampler() {
    stop_.store(true);
    worker_.join();
  }

  void Reset() { peak_centi_mb_.store(static_cast<int64_t>(CurrentRssMb() * 100.0)); }
  double PeakMb() {
    Observe();
    return static_cast<double>(peak_centi_mb_.load()) / 100.0;
  }

 private:
  void Observe() {
    const auto centi = static_cast<int64_t>(CurrentRssMb() * 100.0);
    int64_t prev = peak_centi_mb_.load();
    while (centi > prev && !peak_centi_mb_.compare_exchange_weak(prev, centi)) {
    }
  }
  void Loop() {
    while (!stop_.load()) {
      Observe();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  std::atomic<int64_t> peak_centi_mb_{0};
  std::atomic<bool> stop_{false};
  std::thread worker_;
};

ExecutorOptions PipelineOptions(size_t budget_mb, size_t n) {
  ExecutorOptions options;
  options.partitioning = PartitioningScheme::kZdg;
  options.local = LocalAlgorithm::kZSearch;
  options.merge = MergeAlgorithm::kZMerge;
  options.num_groups = 8;
  options.bits = kBits;
  options.num_map_tasks = 32;
  options.num_threads = 4;
  // Sampling quality is itself a memory knob: a starved sample weakens
  // the SZB prefilter and floods the shuffle, the local-skyline gathers
  // and the merge trees with non-skyline candidates — at 50M, capping
  // the sample at 100k rows doubled the candidate count and cost ~250 MB
  // of candidate-side heap, far more than the 400k skipped sample rows
  // cost. 1% keeps the candidate set near the true skyline at every
  // measured n.
  (void)n;
  options.sample_ratio = 0.01;
  options.shuffle_memory_budget_bytes = budget_mb * 1024 * 1024;
  return options;
}

// Streams `n` generated rows into a `.zsc` file in O(chunk) memory —
// the dataset under test never exists on the heap.
bool GenerateColumnar(const std::string& path, size_t n, uint32_t dim,
                      double* seconds) {
  constexpr size_t kChunkRows = 1 << 20;
  Stopwatch watch;
  ColumnarWriter writer(path, dim, n, kBits);
  if (!writer.ok()) {
    std::printf("!! %s\n", writer.error().c_str());
    return false;
  }
  const Quantizer quantizer(kBits);
  for (size_t begin = 0; begin < n; begin += kChunkRows) {
    const size_t rows = std::min(kChunkRows, n - begin);
    const PointSet chunk = GenerateQuantized(
        Distribution::kIndependent, rows, dim, 42 + begin / kChunkRows,
        quantizer);
    if (!writer.AppendRows(chunk.raw().data(), rows)) {
      std::printf("!! %s\n", writer.error().c_str());
      return false;
    }
  }
  if (!writer.Finish()) {
    std::printf("!! %s\n", writer.error().c_str());
    return false;
  }
  *seconds = watch.ElapsedMs() / 1000.0;
  return true;
}

// 500k x 8d control: heap pipeline vs budget-bounded mmap pipeline must
// agree bit for bit (and check.sh re-runs the full scheme x local parity
// matrix under ASan).
constexpr size_t kParityN = 500000;

bool ParityControl(const std::string& dir, size_t* skyline) {
  const PointSet points = MakeData(Distribution::kIndependent, kParityN, 8, 7);
  const std::string path = dir + "/zsky_outofcore_parity.zsc";
  std::string error;
  if (!WriteColumnarFile(path, points, kBits, &error)) {
    std::printf("!! %s\n", error.c_str());
    return false;
  }
  ColumnarDataset::Options map_options;
  map_options.bounded_residency = true;
  map_options.readahead = true;
  const auto mapped = ColumnarDataset::Open(path, &error, map_options);
  if (mapped == nullptr) {
    std::printf("!! %s\n", error.c_str());
    return false;
  }
  const ExecutorOptions options = PipelineOptions(64, kParityN);
  const SkylineIndices heap =
      ParallelSkylineExecutor(options).Execute(points).skyline;
  const SkylineIndices direct =
      ParallelSkylineExecutor(options).Execute(mapped->view()).skyline;
  std::remove(path.c_str());
  *skyline = heap.size();
  return heap == direct;
}

struct Lane {
  size_t budget_mb = 0;
  bool readahead = true;
  bool cold = false;  // Evict the page cache before the run.
};

struct RunResult {
  double wall_ms = 0.0;
  double peak_rss_mb = 0.0;
  size_t skyline = 0;
  size_t candidates = 0;
  size_t transpose_bytes = 0;
  size_t readahead_bytes = 0;
  size_t readahead_hits = 0;
  size_t candidate_peak_bytes = 0;
};

RunResult RunOnce(const ColumnarDataset& dataset, const Lane& lane,
                  RssSampler& sampler) {
  ExecutorOptions options = PipelineOptions(lane.budget_mb, dataset.size());
  options.readahead = lane.readahead;
  if (lane.cold) dataset.DropPageCache();
  sampler.Reset();
  Stopwatch watch;
  const ParallelSkylineExecutor executor(options);
  const SkylineQueryResult result = executor.Execute(dataset.view());
  RunResult run;
  run.wall_ms = watch.ElapsedMs();
  run.peak_rss_mb = sampler.PeakMb();
  run.skyline = result.skyline.size();
  run.candidates = result.metrics.candidates;
  run.transpose_bytes = result.metrics.job1.transpose_bytes;
  run.readahead_bytes = result.metrics.job1.readahead_bytes;
  run.readahead_hits = result.metrics.job1.readahead_hits;
  run.candidate_peak_bytes = result.metrics.candidate_peak_bytes;
  return run;
}

int Main(int argc, char** argv) {
  size_t n = 8'000'000;
  uint32_t dim = 8;
  size_t budget_mb = 64;
  bool keep = false;
  bool cold_only = false;
  std::string file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--n") {
      n = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--dim") {
      dim = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--budget-mb") {
      budget_mb = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--file") {
      file = next();
    } else if (arg == "--full") {
      n = 50'000'000;  // The paper's mid-regime headline: 50M x 8d.
    } else if (arg == "--keep") {
      keep = true;
    } else if (arg == "--cold") {
      cold_only = true;
    } else {
      std::printf("unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = tmp != nullptr ? tmp : "/tmp";
  if (file.empty()) file = dir + "/zsky_outofcore.zsc";
  const double dataset_mb =
      static_cast<double>(n) * dim * sizeof(Coord) / 1048576.0;

  PrintBanner("outofcore", "mmap-backed .zsc pipeline vs heap, RSS-bounded",
              "default 8M x 8d; --full runs 50M x 8d; --cold: cold lanes only");
  std::printf("dataset: %zu x %u = %.0f MB, budget %zu MB, file %s\n", n, dim,
              dataset_mb, budget_mb, file.c_str());

  size_t parity_skyline = 0;
  const bool parity_ok = ParityControl(dir, &parity_skyline);
  std::printf("parity 500k x 8d (heap = direct): %s (skyline %zu)\n",
              parity_ok ? "identical" : "DIVERGED", parity_skyline);
  if (!parity_ok) return 1;

  double convert_s = 0.0;
  if (!GenerateColumnar(file, n, dim, &convert_s)) return 1;
  std::printf("convert: %.1fs (%.1f Mpoints/s)\n", convert_s,
              static_cast<double>(n) / 1e6 / convert_s);

  RssSampler sampler;
  std::string error;
  const double mpts = static_cast<double>(n) / 1e6;
  auto pps = [n](const RunResult& r) {
    return static_cast<double>(n) / (r.wall_ms / 1000.0);
  };

  std::printf("%-24s %10s %14s %12s %10s\n", "run", "wall", "points/sec",
              "peak RSS", "skyline");
  auto row = [&](const char* name, const RunResult& r) {
    std::printf("%-24s %8.1fs %10.2fM/s %10.1fMB %10zu\n", name,
                r.wall_ms / 1000.0, mpts / (r.wall_ms / 1000.0),
                r.peak_rss_mb, r.skyline);
  };

  // --- Cold lanes: page cache evicted before each run; readahead on vs
  // off shows what the async prefetch worker buys when every touched
  // page must be faulted back in. Best of two trials per lane: cold wall
  // time rides on fault scheduling (and on few-core hosts the prefetch
  // worker contends with the scan thread), so a single trial swings by
  // >10% — more than the regression gate in check.sh.
  RunResult cold_ra, cold_nora;
  {
    ColumnarDataset::Options cold_opts;
    cold_opts.bounded_residency = true;
    cold_opts.readahead = true;
    const auto cold_ds = ColumnarDataset::Open(file, &error, cold_opts);
    if (cold_ds == nullptr) {
      std::printf("!! %s\n", error.c_str());
      return 1;
    }
    Lane lane;
    lane.budget_mb = budget_mb;
    lane.cold = true;
    for (int trial = 0; trial < 2; ++trial) {
      lane.readahead = false;  // Ablation first so the worker can't warm it.
      const RunResult nora = RunOnce(*cold_ds, lane, sampler);
      lane.readahead = true;
      const RunResult ra = RunOnce(*cold_ds, lane, sampler);
      if (trial == 0 || nora.wall_ms < cold_nora.wall_ms) cold_nora = nora;
      if (trial == 0 || ra.wall_ms < cold_ra.wall_ms) cold_ra = ra;
    }
  }
  row("cold, readahead off", cold_nora);
  row("cold, readahead on", cold_ra);
  const double cold_speedup = cold_nora.wall_ms / cold_ra.wall_ms;
  std::printf("cold readahead speedup: %.2fx (%zu prefetch hits, %.0f MB "
              "prefetched)\n",
              cold_speedup, cold_ra.readahead_hits,
              static_cast<double>(cold_ra.readahead_bytes) / 1048576.0);
  if (cold_ra.skyline != cold_nora.skyline) {
    std::printf("!! cold readahead on/off skyline sizes diverged: %zu vs %zu\n",
                cold_ra.skyline, cold_nora.skyline);
    return 1;
  }

  if (cold_only) {
    if (!keep) std::remove(file.c_str());
    std::FILE* f = std::fopen("BENCH_outofcore.json", "w");
    if (f == nullptr) {
      std::printf("!! cannot write BENCH_outofcore.json\n");
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f,
                 "  \"workload\": {\"n\": %zu, \"dim\": %u, \"bits\": %u, "
                 "\"distribution\": \"independent\", \"dataset_mb\": %.0f, "
                 "\"budget_mb\": %zu},\n",
                 n, dim, kBits, dataset_mb, budget_mb);
    std::fprintf(f, "  \"cold_points_per_sec\": %.0f,\n", pps(cold_ra));
    std::fprintf(f, "  \"cold_noreadahead_points_per_sec\": %.0f,\n",
                 pps(cold_nora));
    std::fprintf(f, "  \"readahead_cold_speedup\": %.2f,\n", cold_speedup);
    std::fprintf(f, "  \"readahead_hits\": %zu,\n", cold_ra.readahead_hits);
    std::fprintf(f, "  \"parity_identical\": %s\n",
                 parity_ok ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_outofcore.json (cold lanes)\n");
    return 0;
  }

  // --- Warm bounded lane, while the page cache still holds the file the
  // convert just wrote: the SoA mask wave over the mapped columns (zero
  // transpose). The allocator is trimmed of the cold lanes' scratch so
  // the measured baseline is this process's true floor.
  ::malloc_trim(0);
  const double bounded_base_rss_mb = CurrentRssMb();
  RunResult bounded;
  {
    ColumnarDataset::Options bounded_opts;
    bounded_opts.bounded_residency = true;
    bounded_opts.readahead = true;
    const auto bounded_ds = ColumnarDataset::Open(file, &error, bounded_opts);
    if (bounded_ds == nullptr) {
      std::printf("!! %s\n", error.c_str());
      return 1;
    }
    Lane lane;
    lane.budget_mb = budget_mb;
    bounded = RunOnce(*bounded_ds, lane, sampler);
  }

  // Unbounded mapping: the contrast run. The scan faults the whole file
  // in and nothing releases it — RSS grows with the dataset.
  RunResult unbounded;
  {
    ColumnarDataset::Options plain;
    const auto unbounded_ds = ColumnarDataset::Open(file, &error, plain);
    if (unbounded_ds == nullptr) {
      std::printf("!! %s\n", error.c_str());
      return 1;
    }
    Lane lane;
    lane.budget_mb = budget_mb;
    unbounded = RunOnce(*unbounded_ds, lane, sampler);
  }

  if (!keep) std::remove(file.c_str());

  if (bounded.skyline != unbounded.skyline) {
    std::printf("!! warm lane skyline sizes diverged: bounded %zu, "
                "unbounded %zu\n",
                bounded.skyline, unbounded.skyline);
    return 1;
  }
  if (bounded.transpose_bytes != 0) {
    std::printf("!! bounded run transposed %zu bytes (want 0)\n",
                bounded.transpose_bytes);
    return 1;
  }

  row("mmap unbounded", unbounded);
  row("mmap bounded", bounded);

  // The hard ceiling: the budget knob, a small fixed allowance for the
  // pipeline's own heap (plan sample + partitioner, scan blocks, spill
  // buffers, allocator slack), and the MEASURED candidate-side peak
  // (ScopedCandidateBytes around the local-skyline gathers and merge
  // trees) with 2x headroom for allocator fragmentation and the row-id
  // metadata riding alongside — candidates are query output, so this
  // term scales with the answer, never the dataset. Crucially there is
  // NO O(dataset) term — that is the claim; a plan regression that
  // inflated candidates would widen this ceiling but get caught by
  // check.sh's throughput gate instead. (The fixed 160 MB allowance of
  // the pre-measurement era is retired: candidate memory is now metered,
  // and job 2's shuffle slice shrinks by the same estimate under the
  // budget knob.)
  const double allowance_mb = 48.0;
  const double candidate_mb =
      2.0 * static_cast<double>(bounded.candidate_peak_bytes) / 1048576.0;
  const double ceiling_mb = bounded_base_rss_mb +
                            static_cast<double>(budget_mb) + allowance_mb +
                            candidate_mb;
  const bool rss_ok = bounded.peak_rss_mb <= ceiling_mb;
  std::printf("RSS ceiling: peak %.1f MB vs ceiling %.1f MB (base %.1f + "
              "budget %zu + allowance %.0f + 2 x %.1f MB measured candidate "
              "peak) -> %s\n",
              bounded.peak_rss_mb, ceiling_mb, bounded_base_rss_mb, budget_mb,
              allowance_mb,
              static_cast<double>(bounded.candidate_peak_bytes) / 1048576.0,
              rss_ok ? "ok" : "EXCEEDED");

  std::printf("# CSV,run,wall_ms,points_per_sec,peak_rss_mb\n");
  std::printf("# CSV,unbounded,%.1f,%.0f,%.1f\n", unbounded.wall_ms,
              pps(unbounded), unbounded.peak_rss_mb);
  std::printf("# CSV,bounded_direct,%.1f,%.0f,%.1f\n", bounded.wall_ms,
              pps(bounded), bounded.peak_rss_mb);
  std::printf("# CSV,cold_readahead,%.1f,%.0f,%.1f\n", cold_ra.wall_ms,
              pps(cold_ra), cold_ra.peak_rss_mb);
  std::printf("# CSV,cold_noreadahead,%.1f,%.0f,%.1f\n", cold_nora.wall_ms,
              pps(cold_nora), cold_nora.peak_rss_mb);

  std::FILE* f = std::fopen("BENCH_outofcore.json", "w");
  if (f == nullptr) {
    std::printf("!! cannot write BENCH_outofcore.json\n");
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"workload\": {\"n\": %zu, \"dim\": %u, \"bits\": %u, "
               "\"distribution\": \"independent\", \"dataset_mb\": %.0f, "
               "\"budget_mb\": %zu},\n",
               n, dim, kBits, dataset_mb, budget_mb);
  // One key per line: scripts/check.sh greps these with awk.
  std::fprintf(f, "  \"convert_mpoints_per_sec\": %.2f,\n",
               mpts / convert_s);
  std::fprintf(f, "  \"outofcore_points_per_sec\": %.0f,\n", pps(bounded));
  std::fprintf(f, "  \"transpose_bytes_direct\": %zu,\n",
               bounded.transpose_bytes);
  std::fprintf(f, "  \"cold_points_per_sec\": %.0f,\n", pps(cold_ra));
  std::fprintf(f, "  \"cold_noreadahead_points_per_sec\": %.0f,\n",
               pps(cold_nora));
  std::fprintf(f, "  \"readahead_cold_speedup\": %.2f,\n", cold_speedup);
  std::fprintf(f, "  \"readahead_hits\": %zu,\n", cold_ra.readahead_hits);
  std::fprintf(f, "  \"bounded_wall_ms\": %.1f,\n", bounded.wall_ms);
  std::fprintf(f, "  \"bounded_peak_rss_mb\": %.1f,\n", bounded.peak_rss_mb);
  std::fprintf(f, "  \"unbounded_wall_ms\": %.1f,\n", unbounded.wall_ms);
  std::fprintf(f, "  \"unbounded_peak_rss_mb\": %.1f,\n",
               unbounded.peak_rss_mb);
  std::fprintf(f, "  \"candidate_peak_mb\": %.1f,\n",
               static_cast<double>(bounded.candidate_peak_bytes) / 1048576.0);
  std::fprintf(f, "  \"rss_ceiling_mb\": %.1f,\n", ceiling_mb);
  std::fprintf(f, "  \"rss_bounded\": %s,\n", rss_ok ? "true" : "false");
  std::fprintf(f, "  \"skyline_size\": %zu,\n", bounded.skyline);
  std::fprintf(f, "  \"candidates\": %zu,\n", bounded.candidates);
  std::fprintf(f, "  \"parity_identical\": %s\n",
               parity_ok ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_outofcore.json\n");
  return rss_ok ? 0 : 1;
}

}  // namespace
}  // namespace zsky::bench

int main(int argc, char** argv) { return zsky::bench::Main(argc, argv); }
