#ifndef ZSKYBENCH_HARNESS_H_
#define ZSKYBENCH_HARNESS_H_

// What every workload shares: its configuration, its result (the metrics
// the final JSON line carries, the human report, the provenance), the
// span ledger of the traced pass, and the per-layer samples taken from the
// metrics the program's entry points already return.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "core/options.h"
#include "stats.h"

namespace zskybench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  // Required: BENCHMARK.json's run_seconds.
  bool trace = false;
  std::string work_dir;  // Scratch files (data, spills); removed after.
  std::string out_dir;   // Provenance and span files written at the end.
  unsigned nproc = 1;
};

// Bits per coordinate of every generated dataset.
inline constexpr uint32_t kBits = 16;
inline constexpr uint32_t kDim = 8;
// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 3;
// Reader threads of serve-write's load generator (never above 3 clients
// with the writer).
inline constexpr int kReaders = 2;
// Highest trace.unattributed_frac a batch workload's traced pass accepts.
inline constexpr double kUnattributedTarget = 0.05;

struct Metric {
  std::string name;
  std::string unit;
};

// The metrics each run reports, in BENCHMARK.json order: end-to-end ones
// with --trace 0, per-layer ones with --trace 1. Every workload reports
// every name; a per-layer metric of a layer the workload never calls
// reads 0.
const std::vector<Metric>& EndToEndMetrics();
const std::vector<Metric>& PerLayerMetrics();

using Clock = std::chrono::steady_clock;
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// In-memory span ledger of the traced pass. Spans are recorded from the
// benchmark's side of each call into a layer (plus the phase times the
// call itself returns, laid end to end inside their parent), tagged with
// the request they belong to, and written out once when the run ends.
class Ledger {
 public:
  struct Span {
    uint64_t request = 0;
    int parent = -1;  // Index into spans(), -1 for a request's root.
    std::string name;
    std::string op;
    double start_ms = 0.0;  // Since the ledger's epoch.
    double dur_ms = 0.0;
  };

  Ledger() : epoch_(Clock::now()) {}

  uint64_t NewRequest();
  // Records a span that ran from `start` to `end`; returns its index.
  int Add(uint64_t request, int parent, const std::string& name,
          const std::string& op, Clock::time_point start,
          Clock::time_point end);
  // Records a phase the parent span's call reported (duration only),
  // placed after the previous reported phase of the same parent.
  int AddReported(int parent, const std::string& name, double dur_ms);

  // Per span name: calls, total and self time (duration minus the part
  // its children cover).
  struct Layer {
    size_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Layer> Layers() const;
  // Share of root time that no leaf span covers: end-to-end time spent
  // outside every innermost layer call or reported phase (a job's time
  // beyond its map/shuffle/collapse/reduce phases counts here).
  double UnattributedFrac() const;
  bool WriteJson(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<double> reported_cursor_;  // Per span: next reported start.
  uint64_t next_request_ = 1;
};

struct RunResult {
  Tally tally;
  bool correct = true;
  std::map<std::string, double> metrics;   // Name -> value.
  std::vector<std::string> report;         // Human-readable lines.
  std::map<std::string, std::string> provenance;  // Key -> JSON value.
  std::unique_ptr<Ledger> ledger;  // The traced pass's spans (--trace 1).

  void Line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
  // Reports an end-to-end figure with its unit and sample count.
  void Figure(const std::string& name, double value, const std::string& unit,
              size_t samples);
  // Reports a timing as its median plus the highest tail percentile the
  // samples support, with the count (choosing-metrics rule).
  void Timing(const std::string& name, const std::vector<double>& ms);
  // Reports peak_rss_mb (median window peak) and the highest window.
  void RssFigures(const std::vector<double>& window_peaks_mb);
  void Prov(const std::string& key, const std::string& json_value);
  void ProvStr(const std::string& key, const std::string& value);
};

// Samples the process's peak resident set over consecutive windows while
// it lives: every kWindowMs it reads VmHWM and restarts it (Linux
// clear_refs "5"). A run reports the median window peak, which one
// allocator or residency spike in one window cannot move; the highest
// window is printed beside it.
class RssSampler {
 public:
  static constexpr double kWindowMs = 2000.0;

  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  // Stops sampling, closing the last (partial) window; returns the window
  // peaks in MiB.
  std::vector<double> Stop();

 private:
  void Main();

  std::mutex mu_;  // Guards stop_ and peaks_.
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> peaks_;
  std::thread thread_;  // Last: it uses the members above.
};
// Major page faults of this process so far (getrusage).
long MajorFaults();
// CPU time of every thread of this process so far, user plus system, in
// ms. Time the host takes from a virtual machine's cores is not in it.
double CpuMs();

// Executor settings every workload starts from: the repo's defaults
// (zdg+zs+zm, 8 groups) at 16 bits, one pool thread per core, and spills
// kept inside the work directory.
zsky::ExecutorOptions BaseOptions(const RunConfig& config);

// FNV-1a over a dataset's coordinates: the input's identity in the
// provenance.
uint64_t HashCoords(const uint32_t* coords, size_t count, uint64_t h);
std::string Hex(uint64_t v);

// Per-layer samples, keyed by per-layer metric name.
class LayerSamples {
 public:
  void Add(const std::string& name, double value);
  double Median(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

// Samples the pipeline-layer metrics (plan, job 1, job 2, merge, io) of
// one query's PhaseMetrics. `rows` is the dataset size the query scanned,
// `skyline` its result size, `slots` the simulated reducer slots.
void AddPipelineSamples(LayerSamples& samples, const zsky::PhaseMetrics& pm,
                        size_t rows, size_t skyline, uint32_t slots);

// Records the reported phases of one pipeline run as children of `job1`
// and `job2` spans.
void AddReportedPhases(Ledger& ledger, int job1_span, int job2_span,
                       const zsky::PhaseMetrics& pm);

// Fills result.metrics with the per-layer metrics (absent ones read 0)
// from `samples`, plus result.ledger's self-time table in the report.
void FinishPerLayer(RunResult& result, const LayerSamples& samples,
                    double e2e_ms_total);

// Writes the provenance + metrics file and the span file into out_dir.
void WriteOutputs(const RunConfig& config, const RunResult& result);

RunResult RunBatchAnti(const RunConfig& config);
RunResult RunOocCorr(const RunConfig& config);
RunResult RunServeWrite(const RunConfig& config);

}  // namespace zskybench

#endif  // ZSKYBENCH_HARNESS_H_
