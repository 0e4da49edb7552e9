// zskybench: runs one seeded workload and prints its report, ending with
// one JSON line {"correct", "attempted", "failed", "metrics"}. End-to-end
// metrics with --trace 0, per-layer metrics (the traced pass) with
// --trace 1. Exits 1 when any output mismatched its reference, 2 on bad
// arguments. See README.md.
//
//   zskybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> --out-dir <dir>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include "common/cpu.h"
#include "harness.h"

namespace {

using zskybench::RunConfig;
using zskybench::RunResult;

const std::map<std::string, std::function<RunResult(const RunConfig&)>>&
Workloads() {
  static const std::map<std::string,
                        std::function<RunResult(const RunConfig&)>>
      kWorkloads = {
          {"batch-anti-500k-8d", zskybench::RunBatchAnti},
          {"ooc-corr-8m-8d", zskybench::RunOocCorr},
          {"serve-write-500k-8d", zskybench::RunServeWrite},
      };
  return kWorkloads;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "zskybench: %s\nusage: zskybench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> --out-dir "
               "<dir>\nworkloads:",
               why);
  for (const auto& [name, fn] : Workloads()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.nproc = std::max(1u, std::thread::hardware_concurrency());
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("bad --seed");
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(config.seconds > 0)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("bad --trace");
      }
      config.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  auto it = Workloads().find(config.workload);
  if (!have_workload || it == Workloads().end()) {
    return Usage("unknown or missing --workload");
  }
  if (!(config.seconds > 0)) return Usage("--seconds is required");
  if (config.work_dir.empty() || config.out_dir.empty()) {
    return Usage("--work-dir and --out-dir are required");
  }

  RunResult result = it->second(config);
  const bool correct = result.correct && result.tally.failed == 0;
  result.ProvStr("workload", config.workload);
  result.Prov("seed", std::to_string(config.seed));
  result.Prov("seconds", std::to_string(config.seconds));
  result.Prov("trace", config.trace ? "1" : "0");
  result.Prov("nproc", std::to_string(config.nproc));
  result.ProvStr("isa", std::string(zsky::IsaName(zsky::ActiveIsa())));
  result.ProvStr("build_type", ZSKYBENCH_BUILD_TYPE);
  result.Prov("attempted", std::to_string(result.tally.attempted));
  result.Prov("failed", std::to_string(result.tally.failed));
  result.Prov("failed_frac", std::to_string(result.tally.failed_frac()));
  zskybench::WriteOutputs(config, result);

  std::printf("workload %s  seed %llu  nproc %u  isa %s  build %s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.nproc,
              std::string(zsky::IsaName(zsky::ActiveIsa())).c_str(),
              ZSKYBENCH_BUILD_TYPE);
  for (const auto& [key, value] : result.provenance) {
    std::printf("  prov %-14s %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& line : result.report) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("  %-22s %14.6f ratio  (%zu of %zu ops)\n", "failed_frac",
              result.tally.failed_frac(), result.tally.failed,
              result.tally.attempted);

  const auto& metrics = config.trace ? zskybench::PerLayerMetrics()
                                     : zskybench::EndToEndMetrics();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.tally.attempted);
  json += ", \"failed\": " + std::to_string(result.tally.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    auto found = result.metrics.find(metrics[i].name);
    const double v = found == result.metrics.end() ? 0.0 : found->second;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
