// The batch workloads: a closed loop of one client, each iteration one
// one-shot ParallelSkylineExecutor::Execute over the whole dataset.
//
//   batch-anti-500k-8d  heap, anticorrelated: the merge-heavy hard case.
//   ooc-corr-8m-8d      mmap'd .zsc, correlated, 64 MiB shuffle budget,
//                       bounded residency + readahead: scan/plan/IO-heavy,
//                       almost no merge work.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "core/executor.h"
#include "core/pipeline.h"
#include "core/query_plan.h"
#include "gen/synthetic.h"
#include "harness.h"
#include "io/columnar.h"
#include "mapreduce/worker_pool.h"
#include "optrace.h"
#include "reference.h"

namespace zskybench {
namespace {

constexpr size_t kAntiRows = 500000;
constexpr size_t kOocRows = 8000000;
constexpr size_t kOocGenChunkRows = 256 * 1024;
constexpr size_t kOocShuffleBudget = size_t{64} << 20;

// Sampling seeds the queries of a batch run rotate through: query i
// samples with the run's seed i % kSampleSeeds. The plan's sample skyline,
// and with it the SZB filter's cost, depends on the draw (over one 8M-row
// correlated dataset a query took 287-370 ms by sampling seed alone), so
// one draw per run would make that luck the run's rate.
constexpr uint64_t kSampleSeeds = 8;

zsky::ExecutorOptions WithSampleSeed(zsky::ExecutorOptions options,
                                     uint64_t seed, uint64_t k) {
  options.seed = Draw(seed, kStreamSample, k % kSampleSeeds);
  return options;
}

using Executors = std::vector<std::unique_ptr<zsky::ParallelSkylineExecutor>>;

bool QueryOk(const zsky::SkylineQueryResult& r,
             const std::vector<uint32_t>& reference) {
  return r.metrics.job1.succeeded && r.metrics.job2.succeeded &&
         r.skyline == reference;
}

// The untraced closed loop: Execute until `seconds` have passed, query i
// on executor i % kSampleSeeds. Returns each query's latency and fills
// `qps` with the window rate and `cpu_ms` with the process CPU time per
// query.
std::vector<double> UntracedLoop(const Executors& executors,
                                 const zsky::DatasetView& view,
                                 const std::vector<uint32_t>& reference,
                                 double seconds, RunResult& result,
                                 double* qps, double* cpu_ms) {
  std::vector<double> ms;
  std::vector<std::pair<double, double>> window;
  const auto start = Clock::now();
  const double cpu_start = CpuMs();
  while (ms.empty() || MsBetween(start, Clock::now()) < seconds * 1000) {
    const auto t0 = Clock::now();
    const zsky::SkylineQueryResult r =
        executors[ms.size() % executors.size()]->Execute(view);
    const auto t1 = Clock::now();
    ms.push_back(MsBetween(t0, t1));
    window.emplace_back(MsBetween(start, t0), MsBetween(start, t1));
    result.tally.Record(QueryOk(r, reference));
  }
  *qps = WindowRate(window, seconds * 1000);
  *cpu_ms = (CpuMs() - cpu_start) / static_cast<double>(ms.size());
  return ms;
}

// The traced closed loop: Execute's three layer calls made one by one on a
// benchmark-owned pool, each wrapped in a span.
std::vector<double> TracedLoop(const zsky::ExecutorOptions& base,
                               uint64_t seed, const zsky::DatasetView& view,
                               const std::vector<uint32_t>& reference,
                               double seconds, unsigned nproc,
                               RunResult& result, Ledger& ledger,
                               LayerSamples& samples) {
  zsky::mr::WorkerPool pool(base.num_threads);
  std::vector<double> ms;
  zsky::Stopwatch wall;
  while (ms.empty() || wall.ElapsedSeconds() < seconds) {
    const zsky::ExecutorOptions options =
        WithSampleSeed(base, seed, ms.size());
    const uint64_t request = ledger.NewRequest();
    const long faults0 = MajorFaults();
    const auto t0 = Clock::now();
    const zsky::PreparedPlan plan = zsky::PreparePlan(view, options);
    const auto t1 = Clock::now();
    zsky::PhaseMetrics pm;
    pm.preprocess_ms = plan.build_ms;
    pm.sample_skyline_size = plan.sample_skyline.size();
    zsky::CandidateList candidates =
        zsky::RunCandidateJob(plan, options, view, &pool, pm);
    const auto t2 = Clock::now();
    const zsky::SkylineIndices skyline = zsky::RunMergeJob(
        plan, options, view, std::move(candidates), &pool, pm);
    const auto t3 = Clock::now();
    const long faults1 = MajorFaults();

    const int root = ledger.Add(request, -1, "query", "execute", t0, t3);
    ledger.Add(request, root, "plan", "execute", t0, t1);
    const int job1 = ledger.Add(request, root, "job1", "execute", t1, t2);
    const int job2 = ledger.Add(request, root, "job2", "execute", t2, t3);
    AddReportedPhases(ledger, job1, job2, pm);
    AddPipelineSamples(samples, pm, view.size(), skyline.size(), nproc);
    samples.Add("io.major_faults", static_cast<double>(faults1 - faults0));
    ms.push_back(MsBetween(t0, t3));
    result.tally.Record(pm.job1.succeeded && pm.job2.succeeded &&
                        skyline == reference);
  }
  return ms;
}

// Everything after set-up: the untraced loop (--trace 0), or an untraced
// then a traced half (--trace 1), and the metrics of either.
void MeasureBatch(const RunConfig& config, const zsky::ExecutorOptions& options,
                  const zsky::DatasetView& view,
                  const std::vector<uint32_t>& reference,
                  const std::vector<double>& setup_s, LayerSamples& samples,
                  RunResult& result) {
  Executors executors;
  for (uint64_t k = 0; k < kSampleSeeds; ++k) {
    executors.push_back(std::make_unique<zsky::ParallelSkylineExecutor>(
        WithSampleSeed(options, config.seed, k)));
  }
  if (!config.trace) {
    double qps = 0.0;
    double cpu_ms = 0.0;
    RssSampler sampler;
    const std::vector<double> ms = UntracedLoop(
        executors, view, reference, config.seconds, result, &qps, &cpu_ms);
    const std::vector<double> rss = sampler.Stop();
    result.metrics["setup_s"] = Median(setup_s);
    result.metrics["cpu_ms_per_query"] = cpu_ms;
    result.Line("end-to-end (untraced, closed loop, 1 client):");
    result.Figure("setup_s", Median(setup_s), "s", setup_s.size());
    result.Figure("cpu_ms_per_query", cpu_ms, "ms", ms.size());
    result.RssFigures(rss);
    result.Figure("points_per_s", qps * static_cast<double>(view.size()),
                  "1/s", ms.size());
    result.Figure("queries_per_s", qps, "1/s", ms.size());
    result.Timing("query_ms", ms);
    result.Prov("trials", std::to_string(ms.size()));
    result.Prov("setup_trials", std::to_string(setup_s.size()));
    result.Prov("spread", "{\"query_ms\": " +
                              std::to_string(QuartileSpread(ms)) +
                              ", \"setup_s\": " +
                              std::to_string(QuartileSpread(setup_s)) + "}");
    return;
  }
  double qps = 0.0;
  double cpu_ms = 0.0;
  RssSampler sampler;
  const std::vector<double> untraced =
      UntracedLoop(executors, view, reference, config.seconds / 2, result,
                   &qps, &cpu_ms);
  const std::vector<double> rss = sampler.Stop();
  result.ledger = std::make_unique<Ledger>();
  const std::vector<double> traced =
      TracedLoop(options, config.seed, view, reference, config.seconds / 2,
                 config.nproc, result, *result.ledger, samples);
  double traced_total = 0.0;
  for (double v : traced) traced_total += v;
  FinishPerLayer(result, samples, traced_total);
  const double unattributed = result.metrics["trace.unattributed_frac"];
  if (unattributed > kUnattributedTarget) {
    // The ledger no longer explains the batch query's time: fail the run.
    result.correct = false;
    result.Line("trace.unattributed_frac %.4f is above the %.2f target",
                unattributed, kUnattributedTarget);
  }
  const double base = Median(untraced);
  result.metrics["query.ms_p50"] = base;
  result.metrics["mem.peak_rss_mb"] = Median(rss);
  result.metrics["trace.overhead_frac"] =
      base > 0.0 ? (Median(traced) - base) / base : 0.0;
  result.Line("  untraced query_ms_p50 %.3f (n=%zu), traced %.3f (n=%zu)",
              base, untraced.size(), Median(traced), traced.size());
  result.Prov("trials", std::to_string(traced.size()));
}

// Streams the raw row-major file into a .zsc through ColumnarWriter.
bool ConvertToColumnar(const std::string& raw_path, const std::string& path,
                       size_t rows, std::string* error) {
  std::FILE* in = std::fopen(raw_path.c_str(), "rb");
  if (in == nullptr) {
    *error = "cannot open " + raw_path;
    return false;
  }
  zsky::ColumnarWriter writer(path, kDim, rows, kBits);
  std::vector<zsky::Coord> chunk(zsky::ColumnarWriter::kChunkRows * kDim);
  bool ok = writer.ok();
  size_t got = 0;
  while (ok && (got = std::fread(chunk.data(), sizeof(zsky::Coord) * kDim,
                                 zsky::ColumnarWriter::kChunkRows, in)) > 0) {
    ok = writer.AppendRows(chunk.data(), got);
  }
  std::fclose(in);
  ok = ok && writer.Finish();
  if (!ok) *error = writer.error();
  return ok;
}

// Brings `path` back into the page cache through one sequential read, so
// the measured loop starts from the layout a streamed read leaves. Left as
// the cold query's concurrent faults brought it back, the file cost a
// query about 11k minor faults and 80 ms of system time (2.2k and 20 ms
// after this read), and the query rate spread more from run to run.
bool ReadBackSequentially(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  std::vector<char> buf(size_t{8} << 20);
  ssize_t got = 0;
  while ((got = ::read(fd, buf.data(), buf.size())) > 0) {
  }
  ::close(fd);
  return got == 0;
}

}  // namespace

RunResult RunBatchAnti(const RunConfig& config) {
  RunResult result;
  const zsky::PointSet data = zsky::GenerateQuantized(
      zsky::Distribution::kAnticorrelated, kAntiRows, kDim,
      Draw(config.seed, kStreamData, 0), zsky::Quantizer(kBits));
  const std::vector<uint32_t> reference =
      ReferenceBand(data, 1, config.nproc);
  result.ProvStr("input_hash",
                 Hex(HashCoords(data.raw().data(), data.raw().size(),
                                0xcbf29ce484222325ULL)));
  result.Prov("rows", std::to_string(data.size()));
  result.Prov("skyline", std::to_string(reference.size()));

  const zsky::ExecutorOptions options = BaseOptions(config);
  const zsky::DatasetView view(data);
  std::vector<double> setup_s;
  for (int rep = 0; rep < (config.trace ? 1 : kSetupReps); ++rep) {
    const auto t0 = Clock::now();
    const zsky::ParallelSkylineExecutor ex(
        WithSampleSeed(options, config.seed, 0));
    const zsky::SkylineQueryResult first = ex.Execute(view);
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    result.tally.Record(QueryOk(first, reference));
  }
  LayerSamples samples;
  MeasureBatch(config, options, view, reference, setup_s, samples, result);
  result.Prov("ops", "{\"execute\": " +
                         std::to_string(result.tally.attempted) + "}");
  return result;
}

RunResult RunOocCorr(const RunConfig& config) {
  RunResult result;
  const std::string raw_path = config.work_dir + "/rows.bin";
  const std::string zsc_path = config.work_dir + "/data.zsc";

  // Input, generated in chunks (each from its own seed) so no copy of the
  // 8M rows is ever resident. The reference skyline is
  // the skyline of the chunks' local skylines.
  zsky::PointSet locals(kDim);
  std::vector<uint32_t> local_rows;
  uint64_t input_hash = 0xcbf29ce484222325ULL;
  {
    const int fd = ::open(raw_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::FILE* raw = fd < 0 ? nullptr : ::fdopen(fd, "wb");
    if (raw == nullptr) {
      result.correct = false;
      result.tally.Record(false);
      result.Line("cannot create %s", raw_path.c_str());
      return result;
    }
    for (size_t c = 0; c * kOocGenChunkRows < kOocRows; ++c) {
      const size_t first = c * kOocGenChunkRows;
      const size_t rows = std::min(kOocGenChunkRows, kOocRows - first);
      const zsky::PointSet chunk = zsky::GenerateQuantized(
          zsky::Distribution::kCorrelated, rows, kDim,
          Draw(config.seed, kStreamData, c), zsky::Quantizer(kBits));
      std::fwrite(chunk.raw().data(), sizeof(zsky::Coord), chunk.raw().size(),
                  raw);
      input_hash =
          HashCoords(chunk.raw().data(), chunk.raw().size(), input_hash);
      for (uint32_t r : ReferenceBand(chunk, 1, config.nproc)) {
        locals.AppendFrom(chunk, r);
        local_rows.push_back(static_cast<uint32_t>(first + r));
      }
    }
    // Flushed now, so its write-back cannot land inside a timed region.
    const bool written = std::fflush(raw) == 0 && ::fsync(fd) == 0;
    if (std::fclose(raw) != 0 || !written) {
      result.correct = false;
      result.tally.Record(false);
      result.Line("cannot write %s", raw_path.c_str());
      return result;
    }
  }
  std::vector<uint32_t> reference;
  for (uint32_t i : ReferenceBand(locals, 1, config.nproc)) {
    reference.push_back(local_rows[i]);
  }
  result.ProvStr("input_hash", Hex(input_hash));
  result.Prov("rows", std::to_string(kOocRows));
  result.Prov("skyline", std::to_string(reference.size()));

  zsky::ExecutorOptions options = BaseOptions(config);
  options.shuffle_memory_budget_bytes = kOocShuffleBudget;
  zsky::ColumnarDataset::Options open_options;
  open_options.bounded_residency = true;
  open_options.readahead = true;

  LayerSamples samples;
  std::vector<double> setup_s;
  std::unique_ptr<zsky::ColumnarDataset> dataset;
  for (int rep = 0; rep < (config.trace ? 1 : kSetupReps); ++rep) {
    dataset.reset();
    std::remove(zsc_path.c_str());
    std::string error;
    const auto t0 = Clock::now();
    const bool converted =
        ConvertToColumnar(raw_path, zsc_path, kOocRows, &error);
    const auto t1 = Clock::now();
    if (converted) dataset = zsky::ColumnarDataset::Open(zsc_path, &error,
                                                         open_options);
    const auto t2 = Clock::now();
    if (dataset == nullptr) {
      result.correct = false;
      result.tally.Record(false);
      result.Line("set-up failed: %s", error.c_str());
      return result;
    }
    // A cold first query: the file leaves the page cache first, so the
    // query reads it back from disk.
    dataset->DropPageCache();
    const zsky::ParallelSkylineExecutor ex(
        WithSampleSeed(options, config.seed, 0));
    const zsky::SkylineQueryResult first = ex.Execute(dataset->view());
    setup_s.push_back(MsBetween(t0, Clock::now()) / 1000.0);
    samples.Add("io.convert_s", MsBetween(t0, t1) / 1000.0);
    samples.Add("io.open_ms", MsBetween(t1, t2));
    result.tally.Record(QueryOk(first, reference));
  }
  // The raw rows are only the conversion's input.
  std::remove(raw_path.c_str());
  // The measured loop starts from the page cache one sequential read
  // leaves, not from what the cold query's concurrent faults left.
  dataset->DropPageCache();
  if (!ReadBackSequentially(zsc_path)) {
    result.correct = false;
    result.tally.Record(false);
    result.Line("cannot read back %s", zsc_path.c_str());
    return result;
  }
  const zsky::DatasetView view = dataset->view();
  MeasureBatch(config, options, view, reference, setup_s, samples, result);
  result.Prov("ops", "{\"execute\": " +
                         std::to_string(result.tally.attempted) + "}");
  dataset.reset();
  std::remove(zsc_path.c_str());
  return result;
}

}  // namespace zskybench
