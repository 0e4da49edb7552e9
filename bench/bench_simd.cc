// SIMD dispatch bench: per-ISA dominance-kernel throughput, Z-order codec
// throughput (seed bit-loop vs magic-shuffle scalar vs BMI2 pdep/pext),
// the end-to-end pipeline pinned to the scalar tier with the original
// per-point SZB walk vs the best tier with the batched block filter —
// verifying the skylines are bit-identical — and a sweep of the SZB mask
// kernel's two orientations over filter sizes, which is where
// simd::kMaskColumnwiseMaxFilter comes from. Emits BENCH_simd.json.
//
// Tiers the host cannot run report as 0 ms / 0x and are omitted from the
// JSON, so the bench is meaningful on non-AVX2 hardware too.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "algo/sort_based.h"
#include "bench_util.h"
#include "common/cpu.h"
#include "common/dominance_block.h"
#include "common/dominance_kernels.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "zorder/zorder_codec.h"

namespace zsky::bench {
namespace {

constexpr int kReps = 3;

// Best of kReps runs; raises `spread_pct` to this timing's
// (worst - best) / best if that is larger.
template <typename Fn>
double BestMs(const Fn& fn, double& spread_pct) {
  double best = 0.0;
  double worst = 0.0;
  for (int r = 0; r < kReps; ++r) {
    Stopwatch watch;
    fn();
    const double ms = watch.ElapsedMs();
    if (r == 0 || ms < best) best = ms;
    worst = std::max(worst, ms);
  }
  if (best > 0.0) {
    spread_pct = std::max(spread_pct, 100.0 * (worst - best) / best);
  }
  return best;
}

// --- 1. Kernel throughput: full-block scans per tier. All-zero probes
// make AnyDominates scan every tile (nothing dominates the origin), so
// early exits never mask the kernel's raw rate. ---
struct KernelTimes {
  double ms[3] = {0.0, 0.0, 0.0};  // Indexed by Isa.
  double spread_pct = 0.0;
  double Speedup(Isa isa) const {
    const double t = ms[static_cast<int>(isa)];
    return t > 0.0 ? ms[0] / t : 0.0;
  }
};

KernelTimes BenchKernels(const PointSet& points) {
  const size_t n = points.size();
  const uint32_t dim = points.dim();
  std::vector<Coord> soa(n * dim);
  for (uint32_t k = 0; k < dim; ++k) {
    const Coord* src = points.raw().data() + k;
    Coord* lane = soa.data() + k * n;
    for (size_t i = 0; i < n; ++i) lane[i] = src[i * dim];
  }
  constexpr size_t kProbes = 24;
  const std::vector<Coord> zero(dim, 0);
  std::vector<uint8_t> flags(n);
  KernelTimes result;
  for (Isa isa : {Isa::kScalar, Isa::kSse42, Isa::kAvx2}) {
    if (!IsaSupported(isa)) continue;
    const simd::KernelTable& table = simd::KernelTableFor(isa);
    volatile size_t sink = 0;
    result.ms[static_cast<int>(isa)] = BestMs([&] {
      size_t acc = 0;
      for (size_t q = 0; q < kProbes; ++q) {
        acc += table.any_dominates(soa.data(), n, dim, 0, n, zero.data());
        acc += table.count_dominators(soa.data(), n, dim, 0, n, zero.data());
        acc += table.mark_dominated_by(soa.data(), n, dim, 0, n, zero.data(),
                                       flags.data());
      }
      sink = acc;
    }, result.spread_pct);
    (void)sink;
  }
  return result;
}

// --- 2. Codec throughput. Baseline is the seed's bit-by-bit interleave
// (one branch per address bit), reproduced here verbatim. ---
void EncodeBitLoop(const ZOrderCodec& codec, std::span<const Coord> point,
                   std::span<uint64_t> words) {
  for (auto& w : words) w = 0;
  size_t t = 0;
  for (uint32_t level = 0; level < codec.bits(); ++level) {
    const uint32_t coord_bit = codec.bits() - 1 - level;
    for (uint32_t k = 0; k < codec.dim(); ++k, ++t) {
      if ((point[k] >> coord_bit) & 1u) {
        words[t / 64] |= uint64_t{1} << (63 - (t % 64));
      }
    }
  }
}

struct CodecTimes {
  double encode_bitloop_ms = 0.0;
  double encode_scalar_ms = 0.0;  // Magic-shuffle scalar path.
  double encode_bmi2_ms = 0.0;    // 0 when the host lacks BMI2.
  double decode_bitloop_ms = 0.0;
  double decode_scalar_ms = 0.0;
  double decode_bmi2_ms = 0.0;
  bool bmi2 = false;
  double spread_pct = 0.0;
};

// Seed-style bit-by-bit decode, the PR-1 baseline.
void DecodeBitLoop(const ZOrderCodec& codec, const ZAddress& address,
                   std::span<Coord> out) {
  for (uint32_t k = 0; k < codec.dim(); ++k) out[k] = 0;
  size_t t = 0;
  for (uint32_t level = 0; level < codec.bits(); ++level) {
    const uint32_t coord_bit = codec.bits() - 1 - level;
    for (uint32_t k = 0; k < codec.dim(); ++k, ++t) {
      if (address.GetBit(t)) out[k] |= Coord{1} << coord_bit;
    }
  }
}

CodecTimes BenchCodec(const PointSet& points) {
  const ZOrderCodec codec(points.dim(), kBits);
  CodecTimes result;
  result.bmi2 = codec.uses_bmi2();
  const size_t n = points.size();
  std::vector<uint64_t> words(codec.num_words());
  volatile uint64_t sink = 0;

  result.encode_bitloop_ms = BestMs([&] {
    uint64_t acc = 0;
    for (size_t i = 0; i < n; ++i) {
      EncodeBitLoop(codec, points[i], words);
      acc ^= words[0];
    }
    sink = acc;
  }, result.spread_pct);
  result.encode_scalar_ms = BestMs([&] {
    uint64_t acc = 0;
    for (size_t i = 0; i < n; ++i) {
      codec.EncodeToScalar(points[i], words);
      acc ^= words[0];
    }
    sink = acc;
  }, result.spread_pct);
  if (result.bmi2) {
    result.encode_bmi2_ms = BestMs([&] {
      uint64_t acc = 0;
      for (size_t i = 0; i < n; ++i) {
        codec.EncodeTo(points[i], words);
        acc ^= words[0];
      }
      sink = acc;
    }, result.spread_pct);
  }

  const std::vector<ZAddress> addresses = codec.EncodeAll(points);
  std::vector<Coord> out(codec.dim());
  result.decode_bitloop_ms = BestMs([&] {
    uint64_t acc = 0;
    for (const ZAddress& a : addresses) {
      DecodeBitLoop(codec, a, out);
      acc ^= out[0];
    }
    sink = acc;
  }, result.spread_pct);
  result.decode_scalar_ms = BestMs([&] {
    uint64_t acc = 0;
    for (const ZAddress& a : addresses) {
      codec.DecodeScalar(a, out);
      acc ^= out[0];
    }
    sink = acc;
  }, result.spread_pct);
  if (result.bmi2) {
    result.decode_bmi2_ms = BestMs([&] {
      uint64_t acc = 0;
      for (const ZAddress& a : addresses) {
        codec.Decode(a, out);
        acc ^= out[0];
      }
      sink = acc;
    }, result.spread_pct);
  }
  (void)sink;
  return result;
}

// --- 3. End-to-end: scalar tier + per-point SZB tree walk (the PR-1
// configuration) vs the best tier + batched block filter. ---
struct EndToEnd {
  double scalar_ms = 0.0;
  double simd_ms = 0.0;
  bool identical = false;
  size_t skyline = 0;
  double spread_pct = 0.0;
  double Speedup() const { return simd_ms > 0.0 ? scalar_ms / simd_ms : 0.0; }
};

ExecutorOptions PipelineOptions(bool simd) {
  ExecutorOptions options;
  options.bits = kBits;
  options.partitioning = PartitioningScheme::kZdg;
  options.local = LocalAlgorithm::kZSearch;
  options.merge = MergeAlgorithm::kZMerge;
  options.num_groups = 8;
  options.num_map_tasks = 16;
  options.num_threads = 4;
  options.batch_szb_filter = simd;
  return options;
}

EndToEnd BenchEndToEnd(const PointSet& points, Isa best) {
  EndToEnd result;
  SkylineIndices scalar_skyline;
  SkylineIndices simd_skyline;
  {
    SetActiveIsa(Isa::kScalar);
    const ParallelSkylineExecutor executor(PipelineOptions(false));
    result.scalar_ms = BestMs(
        [&] { scalar_skyline = executor.Execute(points).skyline; },
        result.spread_pct);
  }
  {
    SetActiveIsa(best);
    const ParallelSkylineExecutor executor(PipelineOptions(true));
    result.simd_ms = BestMs(
        [&] { simd_skyline = executor.Execute(points).skyline; },
        result.spread_pct);
  }
  result.identical = scalar_skyline == simd_skyline;
  result.skyline = simd_skyline.size();
  return result;
}

// --- 4. SZB mask kernel orientations. The map wave's filter is the
// plan's sample skyline; its size runs from a handful of points
// (correlated data) to thousands (anticorrelated). Each filter here is the
// first `size` points of FilterPool over a 1-in-20 sample of the rows,
// probed through MaskFilterIndex like the plan's, against every row in
// RowBlockCursor-sized calls on the best tier, single-threaded. ---
constexpr size_t kSweepRows = size_t{512} * 1024;
constexpr uint32_t kSweepDim = simd::kMaskColumnwiseMaxDim;
constexpr int kSweepTrials = 5;
constexpr size_t kSweepCallRows = 16384;
constexpr size_t kSweepSizes[] = {1,   2,   4,   8,    16,   32,   64,  128,
                                  256, 512, 768, 1024, 1536, 2048, 3072, 4096};

// Median and extremes of one timing over kSweepTrials runs, in ns/row.
struct NsPerRow {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  double SpreadPct() const {
    return median > 0.0 ? 100.0 * (max - min) / median : 0.0;
  }
};

struct SweepPoint {
  Distribution dist;
  size_t filter = 0;
  NsPerRow rowwise;
  NsPerRow columnwise;
  double dominated_frac = 0.0;
  bool identical = false;
};

template <typename Fn>
NsPerRow TimeNsPerRow(const Fn& fn, size_t rows) {
  std::vector<double> ns(kSweepTrials);
  for (double& t : ns) {
    Stopwatch watch;
    fn();
    t = watch.ElapsedMs() * 1e6 / static_cast<double>(rows);
  }
  std::sort(ns.begin(), ns.end());
  return {ns[ns.size() / 2], ns.front(), ns.back()};
}

// Sample rows in filter order: the sample skyline, shuffled, then — for
// sizes past it, which only correlated data needs — the skyline of what
// is left, shuffled, and so on, until kSweepSizes' largest size is
// covered or the sample runs out.
std::vector<uint32_t> FilterPool(const PointSet& sample, uint64_t seed) {
  constexpr size_t kPoolSize = 4096;
  Rng rng(seed);
  std::vector<uint32_t> pool;
  std::vector<uint32_t> rest(sample.size());
  for (uint32_t i = 0; i < rest.size(); ++i) rest[i] = i;
  while (pool.size() < kPoolSize && !rest.empty()) {
    const PointSet layer_points = PointSet::Gather(sample, rest);
    SkylineIndices layer = SortBasedSkyline(layer_points);
    for (size_t i = layer.size(); i > 1; --i) {
      std::swap(layer[i - 1], layer[rng.NextBounded(i)]);
    }
    std::vector<uint8_t> taken(rest.size(), 0);
    for (const uint32_t at : layer) {
      pool.push_back(rest[at]);
      taken[at] = 1;
    }
    std::vector<uint32_t> next;
    for (size_t i = 0; i < rest.size(); ++i) {
      if (taken[i] == 0) next.push_back(rest[i]);
    }
    rest = std::move(next);
  }
  return pool;
}

std::vector<SweepPoint> BenchMaskSweep(Isa tier) {
  const simd::KernelTable& table = simd::KernelTableFor(tier);
  std::vector<SweepPoint> points;
  for (const Distribution dist :
       {Distribution::kCorrelated, Distribution::kIndependent,
        Distribution::kAnticorrelated}) {
    const PointSet data = MakeData(dist, kSweepRows, kSweepDim, 43);
    const uint64_t rng_seed = 0x5EED + static_cast<uint64_t>(dist);
    const size_t n = data.size();
    std::vector<Coord> soa(n * kSweepDim);
    for (size_t i = 0; i < n; ++i) {
      for (uint32_t k = 0; k < kSweepDim; ++k) soa[k * n + i] = data[i][k];
    }
    std::vector<uint32_t> sample_rows;
    for (uint32_t i = 0; i < n; i += 20) sample_rows.push_back(i);
    const PointSet sample = PointSet::Gather(data, sample_rows);
    const std::vector<uint32_t> pool = FilterPool(sample, rng_seed);
    std::vector<uint8_t> rows_mask(n);
    std::vector<uint8_t> columns_mask(n);
    for (const size_t size : kSweepSizes) {
      if (size > pool.size()) break;
      DominanceBlock block(kSweepDim);
      for (size_t f = 0; f < size; ++f) block.Append(sample[pool[f]]);
      const MaskFilterIndex index(block);
      const simd::MaskFilterPruning pruning = index.pruning();
      auto run = [&](simd::MaskAnyDominatedFn kernel,
                     std::vector<uint8_t>& mask) {
        size_t dominated = 0;
        for (size_t b0 = 0; b0 < n; b0 += kSweepCallRows) {
          const size_t b1 = std::min(n, b0 + kSweepCallRows);
          dominated += kernel(soa.data(), n, kSweepDim, b0, b1,
                              index.block.lanes(), index.block.lane_stride(),
                              index.size(), &pruning, mask.data() + b0);
        }
        return dominated;
      };
      SweepPoint point;
      point.dist = dist;
      point.filter = size;
      size_t dominated = 0;
      point.rowwise = TimeNsPerRow(
          [&] { dominated = run(table.mask_any_dominated, rows_mask); }, n);
      point.columnwise = TimeNsPerRow(
          [&] {
            run(table.mask_any_dominated_columnwise, columns_mask);
          },
          n);
      point.identical = rows_mask == columns_mask;
      point.dominated_frac =
          static_cast<double>(dominated) / static_cast<double>(n);
      std::printf("%-16s %6zu %10.1f %6.1f%% %10.1f %6.1f%% %8.4f %s\n",
                  DistributionName(dist).data(), size, point.rowwise.median,
                  point.rowwise.SpreadPct(), point.columnwise.median,
                  point.columnwise.SpreadPct(), point.dominated_frac,
                  point.identical ? "yes" : "NO");
      points.push_back(point);
    }
  }
  return points;
}

// A size counts as a column-wise win when its median is at least this
// much below the row-wise one. Around the crossover the two orientations
// cost the same and single medians move by 10-20% between runs, so
// without a margin the crossover would flap between neighbouring sizes.
constexpr double kSweepWinMargin = 0.2;

// The largest swept size up to which the column-wise orientation won, at
// every swept size and on every distribution that reached it — what
// kMaskColumnwiseMaxFilter should be.
size_t SweepCrossover(const std::vector<SweepPoint>& points) {
  size_t crossover = 0;
  for (const size_t size : kSweepSizes) {
    bool measured = false;
    for (const SweepPoint& p : points) {
      if (p.filter != size) continue;
      measured = true;
      if (p.columnwise.median > (1.0 - kSweepWinMargin) * p.rowwise.median) {
        return crossover;
      }
    }
    if (!measured) break;
    crossover = size;
  }
  return crossover;
}

std::string HostCpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        std::string model = line.substr(colon + 2);
        std::replace(model.begin(), model.end(), '"', '\'');
        return model;
      }
    }
  }
  return "unknown";
}

void WriteJson(const char* path, size_t n, uint32_t dim,
               const KernelTimes& kernel, const CodecTimes& codec,
               const EndToEnd& e2e, Isa sweep_tier,
               const std::vector<SweepPoint>& sweep) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("!! cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"workload\": {\"n\": %zu, \"dim\": %u, \"bits\": %u, "
               "\"distribution\": \"independent\"},\n",
               n, dim, kBits);
  std::fprintf(f,
               "  \"host\": {\"cpu\": \"%s\", \"cores\": %u, \"sse42\": %s, "
               "\"avx2\": %s, \"bmi2\": %s},\n",
               HostCpuModel().c_str(), std::thread::hardware_concurrency(),
               HostCpuFeatures().sse42 ? "true" : "false",
               HostCpuFeatures().avx2 ? "true" : "false",
               HostCpuFeatures().bmi2 ? "true" : "false");
  std::fprintf(f,
               "  \"trials\": {\"kernel\": %d, \"codec\": %d, "
               "\"end_to_end\": %d, \"mask_sweep\": %d, \"statistic\": "
               "\"kernel, codec, end_to_end: best of N, spread_pct = "
               "(max - min) / min; mask_sweep: median of N, spread_pct = "
               "(max - min) / median\"},\n",
               kReps, kReps, kReps, kSweepTrials);
  std::fprintf(f, "  \"kernel\": {\"spread_pct\": %.1f, \"scalar_ms\": %.3f",
               kernel.spread_pct, kernel.ms[0]);
  for (Isa isa : {Isa::kSse42, Isa::kAvx2}) {
    if (!IsaSupported(isa)) continue;
    std::fprintf(f, ", \"%s_ms\": %.3f, \"%s_speedup\": %.3f",
                 IsaName(isa).data(), kernel.ms[static_cast<int>(isa)],
                 IsaName(isa).data(), kernel.Speedup(isa));
  }
  std::fprintf(f, "},\n");
  std::fprintf(f,
               "  \"codec_encode\": {\"spread_pct\": %.1f, "
               "\"bitloop_ms\": %.3f, \"shuffle_ms\": %.3f, "
               "\"shuffle_speedup\": %.3f",
               codec.spread_pct, codec.encode_bitloop_ms,
               codec.encode_scalar_ms,
               codec.encode_scalar_ms > 0.0
                   ? codec.encode_bitloop_ms / codec.encode_scalar_ms
                   : 0.0);
  if (codec.bmi2) {
    std::fprintf(f, ", \"bmi2_ms\": %.3f, \"bmi2_speedup\": %.3f",
                 codec.encode_bmi2_ms,
                 codec.encode_bmi2_ms > 0.0
                     ? codec.encode_bitloop_ms / codec.encode_bmi2_ms
                     : 0.0);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f,
               "  \"codec_decode\": {\"spread_pct\": %.1f, "
               "\"bitloop_ms\": %.3f, \"shuffle_ms\": %.3f, "
               "\"shuffle_speedup\": %.3f",
               codec.spread_pct, codec.decode_bitloop_ms,
               codec.decode_scalar_ms,
               codec.decode_scalar_ms > 0.0
                   ? codec.decode_bitloop_ms / codec.decode_scalar_ms
                   : 0.0);
  if (codec.bmi2) {
    std::fprintf(f, ", \"bmi2_ms\": %.3f, \"bmi2_speedup\": %.3f",
                 codec.decode_bmi2_ms,
                 codec.decode_bmi2_ms > 0.0
                     ? codec.decode_bitloop_ms / codec.decode_bmi2_ms
                     : 0.0);
  }
  std::fprintf(f, "},\n");
  std::fprintf(f,
               "  \"end_to_end\": {\"spread_pct\": %.1f, \"scalar_ms\": %.3f, "
               "\"simd_ms\": %.3f, \"speedup\": %.3f, \"identical\": %s, "
               "\"skyline_size\": %zu},\n",
               e2e.spread_pct, e2e.scalar_ms, e2e.simd_ms, e2e.Speedup(),
               e2e.identical ? "true" : "false", e2e.skyline);
  std::fprintf(f,
               "  \"mask_sweep\": {\"rows\": %zu, \"dim\": %u, "
               "\"tier\": \"%s\", \"filter\": \"first N points of the "
               "shuffled skyline layers of a 1-in-20 sample, probed in "
               "MaskFilterIndex order\", "
               "\"columnwise_max_filter\": %zu, \"sweep_crossover\": %zu, "
               "\"crossover_rule\": \"largest swept size up to which the "
               "column-wise median was at least %.0f%% below the row-wise "
               "one on every distribution\",\n"
               "    \"points\": [",
               kSweepRows, kSweepDim, IsaName(sweep_tier).data(),
               simd::kMaskColumnwiseMaxFilter, SweepCrossover(sweep),
               100.0 * kSweepWinMargin);
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(
        f,
        "%s\n      {\"dist\": \"%s\", \"filter\": %zu, "
        "\"rowwise_ns_per_row\": %.1f, \"rowwise_spread_pct\": %.1f, "
        "\"columnwise_ns_per_row\": %.1f, \"columnwise_spread_pct\": %.1f, "
        "\"dominated_frac\": %.5f, \"identical\": %s}",
        i == 0 ? "" : ",", DistributionName(p.dist).data(), p.filter,
        p.rowwise.median, p.rowwise.SpreadPct(), p.columnwise.median,
        p.columnwise.SpreadPct(), p.dominated_frac,
        p.identical ? "true" : "false");
  }
  std::fprintf(f, "\n    ]}\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

int Main() {
  constexpr size_t kN = 500000;
  constexpr uint32_t kDim = 8;
  PrintBanner("simd", "per-ISA dominance kernels + BMI2 Z-order codec",
              "500k x 8d kernel/codec microbenches plus end-to-end");

  const Isa initial = ActiveIsa();
  const Isa best = IsaSupported(Isa::kAvx2)   ? Isa::kAvx2
                   : IsaSupported(Isa::kSse42) ? Isa::kSse42
                                               : Isa::kScalar;
  std::printf("host: sse42=%d avx2=%d bmi2=%d, best tier: %s\n",
              HostCpuFeatures().sse42, HostCpuFeatures().avx2,
              HostCpuFeatures().bmi2, IsaName(best).data());

  const PointSet points = MakeData(Distribution::kIndependent, kN, kDim, 42);

  const KernelTimes kernel = BenchKernels(points);
  std::printf("%-28s %10s %8s\n", "kernel tier (full scans)", "best-of-3",
              "speedup");
  for (Isa isa : {Isa::kScalar, Isa::kSse42, Isa::kAvx2}) {
    if (!IsaSupported(isa)) continue;
    std::printf("%-28s %9.1fms %7.2fx\n", IsaName(isa).data(),
                kernel.ms[static_cast<int>(isa)], kernel.Speedup(isa));
  }

  SetActiveIsa(best);
  const CodecTimes codec = BenchCodec(points);
  std::printf("%-28s %10s %8s\n", "codec path (500k points)", "best-of-3",
              "speedup");
  std::printf("%-28s %9.1fms %7.2fx\n", "encode bit-loop (seed)",
              codec.encode_bitloop_ms, 1.0);
  std::printf("%-28s %9.1fms %7.2fx\n", "encode magic shuffle",
              codec.encode_scalar_ms,
              codec.encode_bitloop_ms / codec.encode_scalar_ms);
  if (codec.bmi2) {
    std::printf("%-28s %9.1fms %7.2fx\n", "encode pdep",
                codec.encode_bmi2_ms,
                codec.encode_bitloop_ms / codec.encode_bmi2_ms);
  }
  std::printf("%-28s %9.1fms %7.2fx\n", "decode bit-loop (seed)",
              codec.decode_bitloop_ms, 1.0);
  std::printf("%-28s %9.1fms %7.2fx\n", "decode magic shuffle",
              codec.decode_scalar_ms,
              codec.decode_bitloop_ms / codec.decode_scalar_ms);
  if (codec.bmi2) {
    std::printf("%-28s %9.1fms %7.2fx\n", "decode pext",
                codec.decode_bmi2_ms,
                codec.decode_bitloop_ms / codec.decode_bmi2_ms);
  }

  const EndToEnd e2e = BenchEndToEnd(points, best);
  SetActiveIsa(initial);

  std::printf("SZB mask sweep, %zu rows x %ud, tier %s, median of %d "
              "(ns/row, spread)\n",
              kSweepRows, kSweepDim, IsaName(best).data(), kSweepTrials);
  std::printf("%-16s %6s %10s %7s %10s %7s %8s %s\n", "distribution",
              "filter", "row-wise", "", "col-wise", "", "dom", "identical");
  const std::vector<SweepPoint> sweep = BenchMaskSweep(best);
  const size_t crossover = SweepCrossover(sweep);
  const bool sweep_identical =
      std::all_of(sweep.begin(), sweep.end(),
                  [](const SweepPoint& p) { return p.identical; });
  std::printf("column-wise >= %.0f%% faster up to filter %zu; "
              "kMaskColumnwiseMaxFilter = %zu\n",
              100.0 * kSweepWinMargin, crossover,
              simd::kMaskColumnwiseMaxFilter);
  std::printf("%-28s %9.1fms -> %9.1fms %7.2fx  identical=%s\n",
              "end-to-end Execute", e2e.scalar_ms, e2e.simd_ms, e2e.Speedup(),
              e2e.identical ? "yes" : "NO");

  std::printf("# CSV,metric,baseline_ms,optimized_ms,speedup\n");
  for (Isa isa : {Isa::kSse42, Isa::kAvx2}) {
    if (!IsaSupported(isa)) continue;
    std::printf("# CSV,kernel_%s,%.3f,%.3f,%.3f\n", IsaName(isa).data(),
                kernel.ms[0], kernel.ms[static_cast<int>(isa)],
                kernel.Speedup(isa));
  }
  std::printf("# CSV,encode_shuffle,%.3f,%.3f,%.3f\n",
              codec.encode_bitloop_ms, codec.encode_scalar_ms,
              codec.encode_bitloop_ms / codec.encode_scalar_ms);
  if (codec.bmi2) {
    std::printf("# CSV,encode_bmi2,%.3f,%.3f,%.3f\n", codec.encode_bitloop_ms,
                codec.encode_bmi2_ms,
                codec.encode_bitloop_ms / codec.encode_bmi2_ms);
  }
  std::printf("# CSV,end_to_end,%.3f,%.3f,%.3f\n", e2e.scalar_ms, e2e.simd_ms,
              e2e.Speedup());

  for (const SweepPoint& p : sweep) {
    std::printf("# CSV,mask_%s_%zu,%.1f,%.1f,%.3f\n",
                DistributionName(p.dist).data(), p.filter, p.rowwise.median,
                p.columnwise.median,
                p.columnwise.median > 0.0
                    ? p.rowwise.median / p.columnwise.median
                    : 0.0);
  }

  WriteJson("BENCH_simd.json", kN, kDim, kernel, codec, e2e, best, sweep);
  return e2e.identical && sweep_identical ? 0 : 1;
}

}  // namespace
}  // namespace zsky::bench

int main() { return zsky::bench::Main(); }
