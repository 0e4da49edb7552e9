// Shuffle throughput bench: drives the MapReduce engine's zero-copy
// columnar record path (chunked arenas, counting sort, span reduce)
// through a shuffle-heavy job and reports records/sec, bytes copied, bytes
// allocated, and peak RSS; then the disk spill (its checksum must equal
// the in-memory run's), a memory-budget sweep, and an end-to-end 500k x 8d
// skyline-by-MapReduce checked against the BNL oracle. Emits
// BENCH_shuffle.json; `scripts/check.sh shuffle` gates on
// zero_copy_records_per_sec against the committed copy.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "algo/bnl.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "mapreduce/job.h"

namespace zsky::bench {
namespace {

constexpr int kReps = 3;
constexpr size_t kTasks = 16;
constexpr uint64_t kPerTask = 500000;  // 8M records total.
constexpr size_t kRecords = kTasks * kPerTask;
constexpr uint32_t kReducers = 8;

double PeakRssMb() {
  struct rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

struct PathResult {
  double total_ms = 1e300;    // Whole job: map emit + shuffle + reduce.
  double shuffle_ms = 1e300;  // The shuffle stage alone.
  size_t copy_bytes = 0;
  size_t alloc_bytes = 0;  // From the warm (best) run.
  uint64_t checksum = 0;

  double RecordsPerSec() const {
    return total_ms > 0.0 ? static_cast<double>(kRecords) /
                                (total_ms / 1000.0)
                          : 0.0;
  }
};

// One shuffle-heavy job: trivial map emit and reduce sum, so the wall
// time is the record path itself. One job is kept across reps to measure
// the steady (pooled) state of the record path.
PathResult RunPath(bool spill) {
  mr::MapReduceJob<uint64_t>::Options options;
  options.num_reduce_tasks = kReducers;
  options.num_threads = 4;
  options.spill_to_disk = spill;
  mr::MapReduceJob<uint64_t> job(options);
  PathResult result;
  for (int r = 0; r < kReps; ++r) {
    std::atomic<uint64_t> sum{0};
    Stopwatch watch;
    const mr::JobMetrics metrics = job.Run(
        kTasks,
        [](size_t task, auto& emit) {
          for (uint64_t v = 0; v < kPerTask; ++v) {
            emit(static_cast<int32_t>((task + v) % 64), v);
          }
        },
        nullptr,
        [&sum](int32_t, std::span<const uint64_t> values) {
          uint64_t local = 0;
          for (uint64_t v : values) local += v;
          sum.fetch_add(local, std::memory_order_relaxed);
        });
    const double total_ms = watch.ElapsedMs();
    if (total_ms < result.total_ms) {
      result.total_ms = total_ms;
      result.shuffle_ms = metrics.shuffle_wall_ms;
      result.copy_bytes = metrics.shuffle_copy_bytes;
      result.alloc_bytes = metrics.shuffle_alloc_bytes;
    }
    result.checksum = sum.load();
  }
  return result;
}

struct BudgetPoint {
  size_t budget_mb;
  size_t spilled_tasks;
  size_t spill_bytes;
  double total_ms;
};

BudgetPoint RunBudget(size_t budget_mb) {
  mr::MapReduceJob<uint64_t>::Options options;
  options.num_reduce_tasks = kReducers;
  options.num_threads = 4;
  options.shuffle_memory_budget_bytes = budget_mb * 1024 * 1024;
  mr::MapReduceJob<uint64_t> job(options);
  BudgetPoint point{budget_mb, 0, 0, 1e300};
  for (int r = 0; r < kReps; ++r) {
    Stopwatch watch;
    const mr::JobMetrics metrics = job.Run(
        kTasks,
        [](size_t task, auto& emit) {
          for (uint64_t v = 0; v < kPerTask; ++v) {
            emit(static_cast<int32_t>((task + v) % 64), v);
          }
        },
        nullptr,
        [](int32_t, std::span<const uint64_t> values) {
          volatile uint64_t sink = 0;
          for (uint64_t v : values) sink = sink + v;
        });
    point.total_ms = std::min(point.total_ms, watch.ElapsedMs());
    point.spilled_tasks = metrics.spilled_tasks;
    point.spill_bytes = metrics.spill_bytes;
  }
  return point;
}

// --- End-to-end skyline-by-MapReduce, points as record payloads. ---
//
// The executor pipeline ships 4-byte row ids and prunes map-side, so its
// shuffle is ~3% of a query — by design. The paper's Hadoop setting has
// no shared memory: mappers ship the points themselves. This job
// reproduces that shape end to end — map emits (group, point records),
// reducers compute local skylines, a final merge yields the global
// skyline — so the record path carries the real 36-byte payload volume.
// Correlated data keeps the skyline compute small; what remains is the
// record pipeline under test. Output is checked against the BNL oracle.
struct PointRec {
  uint32_t row;
  Coord coords[8];
};
static_assert(std::is_trivially_copyable_v<PointRec>);

bool Dominates8(const Coord* a, const Coord* b) {
  bool strict = false;
  for (int d = 0; d < 8; ++d) {
    if (a[d] > b[d]) return false;
    if (a[d] < b[d]) strict = true;
  }
  return strict;
}

struct EndToEnd {
  double zero_copy_ms = 0.0;
  bool identical = false;
  size_t skyline = 0;
};

std::vector<uint32_t> SkylineByMapReduce(const PointSet& points,
                                         double* best_ms) {
  constexpr size_t kMapTasks = 16;
  constexpr uint32_t kGroups = 8;
  mr::MapReduceJob<PointRec>::Options options;
  options.num_reduce_tasks = kGroups;
  options.num_threads = 4;
  mr::MapReduceJob<PointRec> job(options);
  const size_t n = points.size();
  std::vector<uint32_t> rows;
  for (int r = 0; r < kReps; ++r) {
    std::vector<std::vector<PointRec>> partials(kGroups);
    Stopwatch watch;
    job.Run(
        kMapTasks,
        [&](size_t task, auto& emit) {
          const size_t begin = task * n / kMapTasks;
          const size_t end = (task + 1) * n / kMapTasks;
          for (size_t i = begin; i < end; ++i) {
            PointRec rec;
            rec.row = static_cast<uint32_t>(i);
            const auto p = points[i];
            std::copy(p.begin(), p.end(), rec.coords);
            emit(static_cast<int32_t>(i % kGroups), rec);
          }
        },
        nullptr,
        [&partials](int32_t key, std::span<const PointRec> values) {
          // BNL over the group: one reducer per key, no races.
          auto& window = partials[static_cast<uint32_t>(key)];
          for (const PointRec& rec : values) {
            bool dominated = false;
            size_t w = 0;
            while (w < window.size()) {
              if (Dominates8(window[w].coords, rec.coords)) {
                dominated = true;
                break;
              }
              if (Dominates8(rec.coords, window[w].coords)) {
                window[w] = window.back();
                window.pop_back();
              } else {
                ++w;
              }
            }
            if (!dominated) window.push_back(rec);
          }
        });
    // Merge: the global skyline is the skyline of the local unions.
    std::vector<PointRec> cands;
    for (const auto& p : partials) cands.insert(cands.end(), p.begin(), p.end());
    rows.clear();
    for (const PointRec& c : cands) {
      bool dominated = false;
      for (const PointRec& o : cands) {
        if (o.row != c.row && Dominates8(o.coords, c.coords)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) rows.push_back(c.row);
    }
    std::sort(rows.begin(), rows.end());
    *best_ms = std::min(*best_ms, watch.ElapsedMs());
  }
  return rows;
}

EndToEnd BenchEndToEnd(const PointSet& points) {
  EndToEnd result;
  result.zero_copy_ms = 1e300;
  const std::vector<uint32_t> zero_copy =
      SkylineByMapReduce(points, &result.zero_copy_ms);
  SkylineIndices oracle = BnlSkyline(points);
  std::sort(oracle.begin(), oracle.end());
  result.identical = zero_copy == oracle;
  result.skyline = zero_copy.size();
  return result;
}

void WriteJson(const char* path, const PathResult& zero_copy,
               const PathResult& zero_copy_spill,
               const std::vector<BudgetPoint>& sweep, double peak_rss_mb,
               const EndToEnd& e2e) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("!! cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"workload\": {\"records\": %zu, \"map_tasks\": %zu, "
               "\"reducers\": %u, \"value_bytes\": 8},\n",
               kRecords, kTasks, kReducers);
  // One key per line: scripts/check.sh greps it with awk.
  std::fprintf(f, "  \"zero_copy_records_per_sec\": %.0f,\n",
               zero_copy.RecordsPerSec());
  auto section = [&](const char* name, const PathResult& p) {
    std::fprintf(f,
                 "  \"%s\": {\"total_ms\": %.3f, \"shuffle_ms\": %.3f, "
                 "\"copy_bytes\": %zu, \"alloc_bytes\": %zu},\n",
                 name, p.total_ms, p.shuffle_ms, p.copy_bytes, p.alloc_bytes);
  };
  section("zero_copy", zero_copy);
  section("zero_copy_spill", zero_copy_spill);
  std::fprintf(f, "  \"budget_sweep_mb\": [");
  for (size_t i = 0; i < sweep.size(); ++i) {
    std::fprintf(f, "%s{\"budget_mb\": %zu, \"spilled_tasks\": %zu, "
                 "\"spill_bytes\": %zu, \"total_ms\": %.3f}",
                 i == 0 ? "" : ", ", sweep[i].budget_mb,
                 sweep[i].spilled_tasks, sweep[i].spill_bytes,
                 sweep[i].total_ms);
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "  \"peak_rss_mb\": %.1f,\n", peak_rss_mb);
  // Skyline-by-MapReduce with point payloads — the paper's cluster shape
  // (no shared memory, mappers ship points), where the record path is
  // the dominant cost; the executor pipeline itself ships row ids and
  // keeps its shuffle at ~3% of a query (see docs/mapreduce.md).
  std::fprintf(f,
               "  \"end_to_end\": {\"job\": \"skyline_by_mapreduce\", "
               "\"n\": 500000, \"dim\": 8, "
               "\"distribution\": \"correlated\", "
               "\"zero_copy_ms\": %.3f, \"identical\": %s, "
               "\"skyline_size\": %zu}\n",
               e2e.zero_copy_ms, e2e.identical ? "true" : "false",
               e2e.skyline);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

int Main() {
  PrintBanner("shuffle", "zero-copy columnar record path",
              "8M records through map/shuffle/reduce; 500k x 8d end-to-end");

  const PathResult zero_copy = RunPath(false);
  const PathResult zero_copy_spill = RunPath(true);
  std::printf("%-24s %10s %10s %14s %12s\n", "path", "total", "shuffle",
              "records/sec", "copied");
  auto row = [](const char* name, const PathResult& p) {
    std::printf("%-24s %8.1fms %8.1fms %12.2fM/s %9.1fMB\n", name, p.total_ms,
                p.shuffle_ms, p.RecordsPerSec() / 1e6,
                static_cast<double>(p.copy_bytes) / 1048576.0);
  };
  row("zero-copy", zero_copy);
  row("zero-copy+spill", zero_copy_spill);
  if (zero_copy.checksum != zero_copy_spill.checksum) {
    std::printf("!! in-memory and spill checksums DIVERGED\n");
    return 1;
  }

  // Budget sweep: 96 MB of buffered records; smaller budgets spill more.
  std::vector<BudgetPoint> sweep;
  std::printf("%-24s %14s %14s %10s\n", "budget", "spilled_tasks",
              "spill_bytes", "total");
  for (const size_t budget_mb : {128u, 64u, 32u, 16u, 8u}) {
    sweep.push_back(RunBudget(budget_mb));
    const BudgetPoint& p = sweep.back();
    std::printf("%21zuMB %14zu %13.1fMB %8.1fms\n", p.budget_mb,
                p.spilled_tasks,
                static_cast<double>(p.spill_bytes) / 1048576.0, p.total_ms);
  }

  const PointSet points = MakeData(Distribution::kCorrelated, 500000, 8, 42);
  const EndToEnd e2e = BenchEndToEnd(points);
  std::printf("%-24s %8.1fms  identical=%s\n", "e2e skyline-by-MR 500kx8d",
              e2e.zero_copy_ms, e2e.identical ? "yes" : "NO");

  const double peak_rss_mb = PeakRssMb();
  std::printf("peak RSS: %.1f MB\n", peak_rss_mb);

  std::printf("# CSV,path,total_ms,shuffle_ms,records_per_sec\n");
  std::printf("# CSV,zero_copy,%.3f,%.3f,%.0f\n", zero_copy.total_ms,
              zero_copy.shuffle_ms, zero_copy.RecordsPerSec());
  std::printf("# CSV,zero_copy_spill,%.3f,%.3f,%.0f\n",
              zero_copy_spill.total_ms, zero_copy_spill.shuffle_ms,
              zero_copy_spill.RecordsPerSec());

  WriteJson("BENCH_shuffle.json", zero_copy, zero_copy_spill, sweep,
            peak_rss_mb, e2e);
  return e2e.identical ? 0 : 1;
}

}  // namespace
}  // namespace zsky::bench

int main() { return zsky::bench::Main(); }
