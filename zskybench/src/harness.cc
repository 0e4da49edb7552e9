#include "harness.h"

#include <sys/resource.h>

#include <cstdarg>
#include <ctime>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/cpu.h"

namespace zskybench {

const std::vector<Metric>& EndToEndMetrics() {
  static const std::vector<Metric> kMetrics = {
      {"setup_s", "s"},
      {"cpu_ms_per_query", "ms"},
  };
  return kMetrics;
}

const std::vector<Metric>& PerLayerMetrics() {
  static const std::vector<Metric> kMetrics = {
      {"query.ms_p50", "ms"},
      {"mem.peak_rss_mb", "MB"},
      {"plan.build_ms", "ms"},
      {"plan.sample_skyline", "count"},
      {"plan.frac", "ratio"},
      {"job1.ms", "ms"},
      {"job1.frac", "ratio"},
      {"job1.map_ms", "ms"},
      {"job1.shuffle_ms", "ms"},
      {"job1.reduce_ms", "ms"},
      {"job1.collapse_ms", "ms"},
      {"job1.map_skew", "ratio"},
      {"job1.reduce_skew", "ratio"},
      {"job1.shuffle_bytes", "B"},
      {"job1.candidates", "count"},
      {"job1.failed_attempts", "count"},
      {"mapreduce.steal_ratio", "ratio"},
      {"map.szb_prune_ratio", "ratio"},
      {"reduce.candidate_yield", "ratio"},
      {"job2.ms", "ms"},
      {"job2.frac", "ratio"},
      {"merge.points_tested", "count"},
      {"merge.subtrees_discarded", "count"},
      {"merge.discard_ratio", "ratio"},
      {"io.convert_s", "s"},
      {"io.open_ms", "ms"},
      {"io.transpose_bytes", "B"},
      {"io.readahead_bytes", "B"},
      {"io.readahead_waste_ratio", "ratio"},
      {"io.major_faults", "count"},
      {"io.candidate_peak_mb", "MB"},
      {"service.wait_ms_p50", "ms"},
      {"read.default_ms_p50", "ms"},
      {"read.box_ms_p50", "ms"},
      {"service.repeat_desc_frac", "ratio"},
      {"service.box_dropped_ratio", "ratio"},
      {"delta.insert_ms_p50", "ms"},
      {"delta.fast_path_ratio", "ratio"},
      {"delta.delete_ms_p50", "ms"},
      {"delta.repairs", "count"},
      {"delta.repair_ms_p50", "ms"},
      {"delta.repair_partition_frac", "ratio"},
      {"delta.merges", "count"},
      {"delta.merge_ms_p50", "ms"},
      {"delta.band_read_ms_p50", "ms"},
      {"delta.overlay_read_ms_p50", "ms"},
      {"delta.bootstrap_ms", "ms"},
      {"write.ms_p50", "ms"},
      {"write.ms_p90", "ms"},
      {"write.rows_per_s", "1/s"},
      {"trace.unattributed_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return kMetrics;
}

void RunResult::Line(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  report.emplace_back(buf);
}

void RunResult::Figure(const std::string& name, double value,
                       const std::string& unit, size_t samples) {
  Line("  %-22s %14.4f %-6s (n=%zu)", name.c_str(), value, unit.c_str(),
       samples);
}

void RunResult::Timing(const std::string& name, const std::vector<double>& ms) {
  Line("  %-22s %14.4f ms     (median, n=%zu, run spread %.3f)",
       (name + "_p50").c_str(), zskybench::Median(ms), ms.size(),
       QuartileSpread(ms));
  if (auto tail = HighestSupportedTail(ms)) {
    Line("  %-22s %14.4f ms     (highest percentile with >= %zu samples "
         "beyond it)",
         (name + "_p" + std::to_string(static_cast<int>(tail->p * 100)))
             .c_str(),
         tail->value, kMinSamplesBeyond);
  } else {
    Line("  %-22s %14s        (n=%zu: no percentile above the median has "
         ">= %zu samples beyond it)",
         (name + "_tail").c_str(), "n/a", ms.size(), kMinSamplesBeyond);
  }
}

void RunResult::RssFigures(const std::vector<double>& window_peaks_mb) {
  double highest = 0.0;
  for (double v : window_peaks_mb) highest = std::max(highest, v);
  Line("  %-22s %14.4f MB     (median of %zu %.0f ms window peaks)",
       "peak_rss_mb", zskybench::Median(window_peaks_mb),
       window_peaks_mb.size(), RssSampler::kWindowMs);
  Line("  %-22s %14.4f MB     (highest window)", "peak_rss_max_mb", highest);
}

void RunResult::Prov(const std::string& key, const std::string& json_value) {
  provenance[key] = json_value;
}

void RunResult::ProvStr(const std::string& key, const std::string& value) {
  provenance[key] = "\"" + value + "\"";
}

namespace {

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

}  // namespace

RssSampler::RssSampler() : thread_([this] { Main(); }) {}

RssSampler::~RssSampler() { Stop(); }

void RssSampler::Main() {
  ResetPeakRss();
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::duration<double, std::milli>(kWindowMs),
                 [this] { return stop_; });
    peaks_.push_back(PeakRssMb());
    ResetPeakRss();
  }
}

std::vector<double> RssSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  return peaks_;
}

long MajorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_majflt;
}

double CpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

zsky::ExecutorOptions BaseOptions(const RunConfig& config) {
  zsky::ExecutorOptions options;
  options.bits = kBits;
  options.num_threads = config.nproc;
  options.spill_dir = config.work_dir;
  return options;
}

uint64_t HashCoords(const uint32_t* coords, size_t count, uint64_t h) {
  for (size_t i = 0; i < count; ++i) {
    h ^= coords[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// --- Ledger ---------------------------------------------------------------

uint64_t Ledger::NewRequest() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_request_++;
}

int Ledger::Add(uint64_t request, int parent, const std::string& name,
                const std::string& op, Clock::time_point start,
                Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.request = request;
  span.parent = parent;
  span.name = name;
  span.op = op;
  span.start_ms = MsBetween(epoch_, start);
  span.dur_ms = MsBetween(start, end);
  spans_.push_back(std::move(span));
  reported_cursor_.push_back(spans_.back().start_ms);
  return static_cast<int>(spans_.size() - 1);
}

int Ledger::AddReported(int parent, const std::string& name, double dur_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.request = spans_[parent].request;
  span.parent = parent;
  span.name = name;
  span.op = spans_[parent].op;
  span.start_ms = reported_cursor_[parent];
  span.dur_ms = dur_ms;
  reported_cursor_[parent] += dur_ms;
  spans_.push_back(std::move(span));
  reported_cursor_.push_back(spans_.back().start_ms);
  return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, Ledger::Layer> Ledger::Layers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[s.parent] += s.dur_ms;
  }
  std::map<std::string, Layer> layers;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Layer& layer = layers[spans_[i].name];
    ++layer.calls;
    layer.total_ms += spans_[i].dur_ms;
    layer.self_ms += std::max(0.0, spans_[i].dur_ms - child_ms[i]);
  }
  return layers;
}

double Ledger::UnattributedFrac() const {
  std::lock_guard<std::mutex> lock(mu_);
  // A span's parent is always recorded before it, so one forward pass
  // finds each span's root.
  std::vector<size_t> root(spans_.size());
  std::vector<bool> has_child(spans_.size(), false);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const int parent = spans_[i].parent;
    root[i] = parent < 0 ? i : root[parent];
    if (parent >= 0) has_child[parent] = true;
  }
  std::vector<double> leaf_ms(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0 && !has_child[i]) {
      leaf_ms[root[i]] += spans_[i].dur_ms;
    }
  }
  double total = 0.0;
  double uncovered = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) continue;
    total += spans_[i].dur_ms;
    uncovered += std::max(0.0, spans_[i].dur_ms - leaf_ms[i]);
  }
  return total > 0.0 ? uncovered / total : 0.0;
}

bool Ledger::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"request\": %llu, \"parent\": %d, "
                 "\"name\": \"%s\", \"op\": \"%s\", \"start_ms\": %.4f, "
                 "\"dur_ms\": %.4f}%s\n",
                 i, static_cast<unsigned long long>(s.request), s.parent,
                 s.name.c_str(), s.op.c_str(), s.start_ms, s.dur_ms,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- Layer samples ----------------------------------------------------------

void LayerSamples::Add(const std::string& name, double value) {
  values_[name].push_back(value);
}

double LayerSamples::Median(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : zskybench::Median(it->second);
}

namespace {
double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
}  // namespace

void AddPipelineSamples(LayerSamples& samples, const zsky::PhaseMetrics& pm,
                        size_t rows, size_t skyline, uint32_t slots) {
  const zsky::mr::JobMetrics& j1 = pm.job1;
  const zsky::mr::JobMetrics& j2 = pm.job2;
  if (pm.preprocess_ms > 0.0) samples.Add("plan.build_ms", pm.preprocess_ms);
  samples.Add("plan.sample_skyline",
              static_cast<double>(pm.sample_skyline_size));
  samples.Add("job1.ms", pm.job1_ms);
  samples.Add("job1.map_ms", j1.map_wall_ms);
  samples.Add("job1.shuffle_ms", j1.shuffle_wall_ms);
  samples.Add("job1.reduce_ms", j1.reduce_wall_ms);
  samples.Add("job1.collapse_ms", j1.collapse_wall_ms);
  samples.Add("job1.map_skew", j1.map_stats().skew);
  samples.Add("job1.reduce_skew", j1.ReduceCompletionSkew(slots));
  samples.Add("job1.shuffle_bytes", static_cast<double>(j1.shuffle_bytes));
  samples.Add("job1.candidates", static_cast<double>(pm.candidates));
  samples.Add("job1.failed_attempts", static_cast<double>(j1.failed_attempts));
  samples.Add("mapreduce.steal_ratio",
              Ratio(static_cast<double>(j1.tasks_stolen + j2.tasks_stolen),
                    static_cast<double>(j1.morsels_total + j2.morsels_total)));
  samples.Add("map.szb_prune_ratio",
              Ratio(static_cast<double>(pm.filtered_by_szb),
                    static_cast<double>(rows)));
  samples.Add("reduce.candidate_yield",
              Ratio(static_cast<double>(skyline),
                    static_cast<double>(pm.candidates)));
  samples.Add("job2.ms", pm.job2_ms);
  const zsky::ZMergeStats& ms = pm.merge_stats;
  samples.Add("merge.points_tested", static_cast<double>(ms.points_tested));
  samples.Add("merge.subtrees_discarded",
              static_cast<double>(ms.subtrees_discarded));
  samples.Add("merge.discard_ratio",
              Ratio(static_cast<double>(ms.subtrees_discarded),
                    static_cast<double>(ms.subtrees_discarded +
                                        ms.subtrees_appended +
                                        ms.points_tested)));
  const double readahead =
      static_cast<double>(j1.readahead_bytes + j2.readahead_bytes);
  samples.Add("io.transpose_bytes",
              static_cast<double>(j1.transpose_bytes + j2.transpose_bytes));
  samples.Add("io.readahead_bytes", readahead);
  samples.Add("io.readahead_waste_ratio",
              Ratio(static_cast<double>(j1.readahead_wasted_bytes +
                                        j2.readahead_wasted_bytes),
                    readahead));
  samples.Add("io.candidate_peak_mb",
              static_cast<double>(pm.candidate_peak_bytes) / (1 << 20));
}

void AddReportedPhases(Ledger& ledger, int job1_span, int job2_span,
                       const zsky::PhaseMetrics& pm) {
  const struct {
    int parent;
    const char* prefix;
    const zsky::mr::JobMetrics* job;
  } jobs[] = {{job1_span, "job1", &pm.job1}, {job2_span, "job2", &pm.job2}};
  for (const auto& j : jobs) {
    if (j.parent < 0) continue;
    const std::string p = j.prefix;
    ledger.AddReported(j.parent, p + ".map", j.job->map_wall_ms);
    ledger.AddReported(j.parent, p + ".shuffle", j.job->shuffle_wall_ms);
    ledger.AddReported(j.parent, p + ".collapse", j.job->collapse_wall_ms);
    ledger.AddReported(j.parent, p + ".reduce", j.job->reduce_wall_ms);
  }
}

void FinishPerLayer(RunResult& result, const LayerSamples& samples,
                    double e2e_ms_total) {
  const Ledger& ledger = *result.ledger;
  for (const Metric& m : PerLayerMetrics()) {
    result.metrics[m.name] = samples.Median(m.name);
  }
  const auto layers = ledger.Layers();
  auto share = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() || e2e_ms_total <= 0.0
               ? 0.0
               : it->second.total_ms / e2e_ms_total;
  };
  result.metrics["plan.frac"] = share("plan");
  result.metrics["job1.frac"] = share("job1");
  result.metrics["job2.frac"] = share("job2");
  const double unattributed = ledger.UnattributedFrac();
  result.metrics["trace.unattributed_frac"] = unattributed;

  result.Line("layer ledger (traced pass; self = span minus its children):");
  result.Line("  %-20s %8s %12s %12s %8s", "layer", "calls", "total_ms",
              "self_ms", "self%");
  for (const auto& [name, layer] : layers) {
    result.Line("  %-20s %8zu %12.2f %12.2f %7.1f%%", name.c_str(),
                layer.calls, layer.total_ms, layer.self_ms,
                e2e_ms_total > 0.0 ? 100.0 * layer.self_ms / e2e_ms_total
                                   : 0.0);
  }
  result.Line("  unattributed %.2f%% of end-to-end time (no leaf span "
              "covers it; batch target <= %.0f%%)",
              100.0 * unattributed, 100.0 * kUnattributedTarget);
}

void WriteOutputs(const RunConfig& config, const RunResult& result) {
  const std::string stem = config.out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0");
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(f, "{\n  \"provenance\": {\n");
    size_t i = 0;
    for (const auto& [key, value] : result.provenance) {
      std::fprintf(f, "    \"%s\": %s%s\n", key.c_str(), value.c_str(),
                   ++i < result.provenance.size() ? "," : "");
    }
    std::fprintf(f, "  },\n  \"metrics\": {\n");
    i = 0;
    for (const auto& [key, value] : result.metrics) {
      std::fprintf(f, "    \"%s\": %.6g%s\n", key.c_str(), value,
                   ++i < result.metrics.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
  }
  if (result.ledger != nullptr) result.ledger->WriteJson(stem + ".spans.json");
}

}  // namespace zskybench
