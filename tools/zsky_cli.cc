// zsky command-line tool: generate datasets and run skyline queries on
// CSV files with any strategy combination.
//
//   zsky_cli gen   --dist <indep|corr|anti> --n <rows> --dim <d>
//                  [--seed S] [--out file.csv|file.zsc]
//   zsky_cli convert --in file.csv --out file.zsc [--max col1,col3]
//   zsky_cli query --in file.csv|file.zsc [--scheme random|grid|angle|
//                  quadtree|naive-z|zhg|zdg] [--local sb|zs|bbs]
//                  [--merge sb|zs|zm|pzm]
//                  [--groups M] [--max col1,col3] [--topk K]
//                  [--rank count|sum] [--lo a,b,...] [--hi a,b,...]
//                  [--dims c0,c2] [--flip c1] [--k K] [--budget BYTES]
//                  [--metrics]
//
// `--max` lists columns to maximize (everything else is minimized).
//
// Query variants (`query` and `serve`, see docs/queries.md): `--lo`/`--hi`
// give an inclusive constraint box in the quantized coordinate domain
// [0, 2^bits-1], one value per column; `--dims` restricts dominance to a
// column subset (subspace skyline); `--flip` flips the dominance
// direction of listed columns at query time (unlike `--max`, which bakes
// the flip into the stored coordinates); `--k` asks for the k-skyband
// (points with fewer than k dominators).
//
// `.zsc` inputs are mmap'd columnar datasets (docs/storage.md): the query
// runs out of core, and `--budget` bounds both the shuffle arena and the
// mapping's resident set. `gen --out file.zsc` streams the dataset to disk
// in chunks, so generating 50M+ rows never materializes them in memory.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "zsky.h"

namespace {

using namespace zsky;

[[noreturn]] void Usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage:\n"
               "  zsky_cli gen   --dist indep|corr|anti --n N --dim D"
               " [--seed S] [--out FILE[.zsc]]\n"
               "  zsky_cli convert --in FILE.csv|.zpt --out FILE.zsc"
               " [--max c0,c2,...]\n"
               "  zsky_cli query --in FILE[.zsc] [--scheme zdg] [--local zs]"
               " [--merge zm]\n"
               "                 [--groups M] [--max c0,c2,...]"
               " [--topk K] [--rank count|sum]\n"
               "                 [--lo a,b,...] [--hi a,b,...]"
               " [--dims c0,c2,...] [--flip c1,...] [--k K]\n"
               "                 [--budget BYTES] [--readahead 0|1] [--plan]"
               " [--metrics]"
               " [--json] [--trace-out FILE]\n"
               "  zsky_cli skyband --in FILE --k K [--groups M]"
               " [--metrics]\n"
               "  zsky_cli insert --in FILE[.zsc]"
               " --points \"a,b,...;c,d,...\"|--add FILE\n"
               "                 [--scheme zdg] [--local zs] [--merge zm]"
               " [--groups M] [--merge-after]\n"
               "  zsky_cli delete --in FILE[.zsc] --ids 1,2,3,...\n"
               "                 [--scheme zdg] [--local zs] [--merge zm]"
               " [--groups M] [--merge-after]\n"
               "  zsky_cli serve --in FILE[.zsc] [--repeat N]"
               " [--concurrency C] [--mutate-mix PCT]\n"
               "                 [--scheme zdg] [--local zs] [--merge zm]"
               " [--groups M] [--json]\n"
               "                 [--lo a,b,...] [--hi a,b,...]"
               " [--dims c0,c2,...] [--flip c1,...] [--k K]\n"
               "                 [--budget BYTES] [--readahead 0|1]"
               " [--adaptive]"
               " [--replan-threshold T]\n"
               "                 [--calibration-file FILE]"
               " [--stats-every N] [--trace-out FILE]\n"
               "  zsky_cli cpu\n");
  std::exit(2);
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage(("unexpected argument " + arg).c_str());
    arg = arg.substr(2);
    if (arg == "metrics" || arg == "json" || arg == "plan" ||
        arg == "adaptive" || arg == "merge-after") {
      flags[arg] = "1";
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for --" + arg).c_str());
    flags[arg] = argv[++i];
  }
  return flags;
}

std::string Flag(const std::map<std::string, std::string>& flags,
                 const std::string& name, const std::string& fallback) {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

bool HasSuffix(const std::string& s, const char* suffix) {
  const size_t len = std::strlen(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

// --trace-out support, shared by `query` and `serve`. Arms the global
// tracer before the run; writes the Chrome trace_event JSON after it.
std::string TraceBegin(const std::map<std::string, std::string>& flags) {
  const std::string path = Flag(flags, "trace-out", "");
  if (!path.empty()) trace::Tracer::Global().SetEnabled(true);
  return path;
}

void TraceEnd(const std::string& path) {
  if (path.empty()) return;
  const trace::Tracer& tracer = trace::Tracer::Global();
  if (!tracer.WriteChromeTrace(path)) {
    std::fprintf(stderr, "cannot write trace to %s\n", path.c_str());
    return;
  }
  std::fprintf(stderr,
               "trace: %zu spans -> %s (open in chrome://tracing or "
               "https://ui.perfetto.dev)\n",
               tracer.Snapshot().size(), path.c_str());
}

int RunGen(const std::map<std::string, std::string>& flags) {
  const std::string dist_name = Flag(flags, "dist", "indep");
  Distribution dist;
  if (dist_name == "indep") {
    dist = Distribution::kIndependent;
  } else if (dist_name == "corr") {
    dist = Distribution::kCorrelated;
  } else if (dist_name == "anti") {
    dist = Distribution::kAnticorrelated;
  } else {
    Usage("unknown --dist");
  }
  const size_t n = std::strtoull(Flag(flags, "n", "10000").c_str(), nullptr,
                                 10);
  const auto dim = static_cast<uint32_t>(
      std::strtoul(Flag(flags, "dim", "5").c_str(), nullptr, 10));
  const uint64_t seed =
      std::strtoull(Flag(flags, "seed", "42").c_str(), nullptr, 10);
  if (n == 0 || dim == 0) Usage("--n and --dim must be positive");

  const std::string out = Flag(flags, "out", "");
  if (HasSuffix(out, ".zsc")) {
    // Streaming columnar output: quantized chunks go straight to the
    // ColumnarWriter, so --n 50000000 never materializes 50M rows —
    // peak memory is one chunk regardless of N. Each chunk is generated
    // under seed + chunk index (deterministic in the flags).
    const Quantizer quantizer(16);
    constexpr size_t kGenChunkRows = 1 << 20;
    ColumnarWriter writer(out, dim, n, quantizer.bits());
    for (size_t begin = 0; begin < n && writer.ok();
         begin += kGenChunkRows) {
      const size_t rows = std::min(kGenChunkRows, n - begin);
      const PointSet chunk = GenerateQuantized(
          dist, rows, dim, seed + begin / kGenChunkRows, quantizer);
      writer.AppendRows(chunk.raw().data(), chunk.size());
    }
    if (!writer.ok() || !writer.Finish()) {
      std::fprintf(stderr, "cannot write %s: %s\n", out.c_str(),
                   writer.error().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu rows x %u cols to %s (columnar)\n", n,
                 dim, out.c_str());
    return 0;
  }

  CsvTable table;
  table.dim = dim;
  table.rows = n;
  for (uint32_t c = 0; c < dim; ++c) {
    table.columns.push_back("col" + std::to_string(c));
  }
  table.values = GenerateSynthetic(dist, n, dim, seed);
  const std::string csv = WriteCsv(table, CsvOptions{});

  if (out.empty()) {
    std::fwrite(csv.data(), 1, csv.size(), stdout);
  } else {
    std::FILE* file = std::fopen(out.c_str(), "wb");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::fwrite(csv.data(), 1, csv.size(), file);
    std::fclose(file);
    std::fprintf(stderr, "wrote %zu rows x %u cols to %s\n", n, dim,
                 out.c_str());
  }
  return 0;
}

// Shared by `query` and `serve`: strategy combination + group count from
// flags.
ExecutorOptions StrategyFromFlags(
    const std::map<std::string, std::string>& flags, uint32_t bits) {
  ExecutorOptions options;
  const auto scheme = PartitioningSchemeFromName(Flag(flags, "scheme", "zdg"));
  if (!scheme.has_value()) Usage("unknown --scheme");
  options.partitioning = *scheme;
  const auto local = LocalAlgorithmFromName(Flag(flags, "local", "zs"));
  if (!local.has_value()) Usage("unknown --local");
  options.local = *local;
  const auto merge = MergeAlgorithmFromName(Flag(flags, "merge", "zm"));
  if (!merge.has_value()) Usage("unknown --merge");
  options.merge = *merge;
  options.num_groups = static_cast<uint32_t>(
      std::strtoul(Flag(flags, "groups", "8").c_str(), nullptr, 10));
  options.bits = bits;
  // --readahead 0|1: async prefetch on `.zsc` scans (docs/storage.md).
  // On by default; 0 is the cold-run ablation baseline. Harmless for CSV
  // inputs (heap views have no prefetch hook to disarm).
  options.readahead = Flag(flags, "readahead", "1") != "0";
  return options;
}

// Comma-separated list of non-negative integers ("3,1,4").
std::vector<uint32_t> ParseUintList(const std::string& value,
                                    const char* flag_name) {
  std::vector<uint32_t> out;
  size_t pos = 0;
  while (pos < value.size()) {
    const size_t comma = value.find(',', pos);
    const std::string token = value.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? value.size() : comma + 1;
    if (token.empty()) continue;
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(token.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') {
      Usage(("bad value in --" + std::string(flag_name) + ": " + token)
                .c_str());
    }
    out.push_back(static_cast<uint32_t>(parsed));
  }
  return out;
}

// Query-variant flags (`--lo`/`--hi`/`--dims`/`--flip`/`--k`), shared by
// `query` and `serve`. Box bounds are in the quantized coordinate domain;
// `--dims`/`--flip` take column indices.
QueryDesc DescFromFlags(const std::map<std::string, std::string>& flags,
                        uint32_t dim) {
  QueryDesc desc;
  const std::string lo = Flag(flags, "lo", "");
  const std::string hi = Flag(flags, "hi", "");
  if (lo.empty() != hi.empty()) Usage("--lo and --hi must be given together");
  if (!lo.empty()) {
    desc.box_lo = ParseUintList(lo, "lo");
    desc.box_hi = ParseUintList(hi, "hi");
    if (desc.box_lo.size() != dim || desc.box_hi.size() != dim) {
      Usage("--lo/--hi need one value per column");
    }
  }
  desc.dims = ParseUintList(Flag(flags, "dims", ""), "dims");
  std::sort(desc.dims.begin(), desc.dims.end());
  desc.dims.erase(std::unique(desc.dims.begin(), desc.dims.end()),
                  desc.dims.end());
  const std::vector<uint32_t> flip =
      ParseUintList(Flag(flags, "flip", ""), "flip");
  if (!flip.empty()) {
    desc.maximize.assign(dim, 0);
    for (uint32_t d : flip) {
      if (d >= dim) Usage("--flip column out of range");
      desc.maximize[d] = 1;
    }
  }
  desc.k = static_cast<uint32_t>(
      std::strtoul(Flag(flags, "k", "1").c_str(), nullptr, 10));
  for (uint32_t d : desc.dims) {
    if (d >= dim) Usage("--dims column out of range");
  }
  if (desc.k == 0) Usage("--k must be >= 1");
  desc.Canonicalize();
  return desc;
}

// `--max` parsing (column names or indices), shared by query and convert.
std::vector<uint32_t> ParseMaximize(
    const std::map<std::string, std::string>& flags, const CsvTable& table) {
  std::vector<uint32_t> maximize;
  const std::string max_flag = Flag(flags, "max", "");
  size_t pos = 0;
  while (pos < max_flag.size()) {
    const size_t comma = max_flag.find(',', pos);
    const std::string token = max_flag.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? max_flag.size() : comma + 1;
    if (token.empty()) continue;
    // Accept column names or indices.
    bool matched = false;
    for (uint32_t c = 0; c < table.dim; ++c) {
      if (table.columns[c] == token) {
        maximize.push_back(c);
        matched = true;
        break;
      }
    }
    if (!matched) {
      char* end = nullptr;
      const unsigned long index = std::strtoul(token.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || index >= table.dim) {
        Usage(("unknown column in --max: " + token).c_str());
      }
      maximize.push_back(static_cast<uint32_t>(index));
    }
  }
  return maximize;
}

// Smallest bit width that holds every coordinate of `points` (>= 1).
uint32_t BitsForCoords(const PointSet& points) {
  Coord max_coord = 0;
  for (const Coord c : points.raw()) max_coord = std::max(max_coord, c);
  uint32_t bits = 1;
  while (bits < 32 && (max_coord >> bits) != 0) ++bits;
  return bits;
}

// csv/.zpt -> .zsc conversion. CSV goes through the same quantization as
// `query` (Quantizer(16) + --max), so converting and then querying the
// .zsc gives bit-identical skylines to querying the CSV directly.
int RunConvert(const std::map<std::string, std::string>& flags) {
  const std::string in = Flag(flags, "in", "");
  const std::string out = Flag(flags, "out", "");
  if (in.empty() || out.empty()) Usage("convert requires --in and --out");
  if (!HasSuffix(out, ".zsc")) Usage("convert --out must end in .zsc");

  std::string error;
  PointSet points(1);
  uint32_t bits = 16;
  if (HasSuffix(in, ".zpt")) {
    auto loaded = ReadPointSetFile(in, &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "read error: %s\n", error.c_str());
      return 1;
    }
    points = std::move(*loaded);
    // .zpt carries no resolution metadata; record the tightest width that
    // covers the data.
    bits = BitsForCoords(points);
  } else {
    auto table = ReadCsvFile(in, CsvOptions{}, &error);
    if (!table.has_value()) {
      std::fprintf(stderr, "csv error: %s\n", error.c_str());
      return 1;
    }
    const Quantizer quantizer(16);
    points = TableToPoints(*table, ParseMaximize(flags, *table), quantizer);
    bits = quantizer.bits();
  }

  if (!WriteColumnarFile(out, points, bits, &error)) {
    std::fprintf(stderr, "convert error: %s\n", error.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu rows x %u cols (%u bits) to %s\n",
               points.size(), points.dim(), bits, out.c_str());
  return 0;
}

// Out-of-core query path: mmap the .zsc and run the pipeline over its
// columnar view. No CSV table exists, so --max/--topk (which need raw
// column values) are rejected; quantization happened at convert time.
int RunQueryColumnar(const std::map<std::string, std::string>& flags,
                     const std::string& in) {
  if (flags.count("max") != 0 || flags.count("topk") != 0) {
    Usage("--max/--topk are csv-input features; bake --max in at convert "
          "time");
  }
  const size_t budget =
      std::strtoull(Flag(flags, "budget", "0").c_str(), nullptr, 10);
  ColumnarDataset::Options map_options;
  map_options.bounded_residency = budget > 0;
  map_options.readahead = Flag(flags, "readahead", "1") != "0";
  std::string error;
  const auto dataset = ColumnarDataset::Open(in, &error, map_options);
  if (dataset == nullptr) {
    std::fprintf(stderr, "zsc error: %s\n", error.c_str());
    return 1;
  }

  ExecutorOptions options = StrategyFromFlags(flags, dataset->bits());
  options.shuffle_memory_budget_bytes = budget;
  const QueryDesc desc = DescFromFlags(flags, dataset->view().dim());
  if (flags.count("plan") != 0) {
    const PlanChoice choice = ChoosePlan(dataset->view(), options, {}, &desc);
    options = choice.options;
    std::fprintf(stderr, "plan: %s\n", choice.rationale.c_str());
  }

  const std::string trace_path = TraceBegin(flags);
  const SkylineQueryResult result =
      ParallelSkylineExecutor(options).Execute(dataset->view(), desc);
  TraceEnd(trace_path);

  std::printf("skyline rows (%zu of %zu):\n", result.skyline.size(),
              dataset->size());
  for (uint32_t row : result.skyline) std::printf("%u\n", row);
  if (flags.count("metrics") != 0) {
    std::fprintf(stderr, "%s\n%s",
                 FormatRunSummary(options, dataset->size(), result).c_str(),
                 FormatPhaseMetrics(result.metrics).c_str());
  }
  if (flags.count("json") != 0) {
    std::fprintf(stderr, "%s\n",
                 MetricsToJson(result.metrics, &MetricsRegistry::Global())
                     .c_str());
  }
  return 0;
}

int RunQuery(const std::map<std::string, std::string>& flags) {
  const std::string in = Flag(flags, "in", "");
  if (in.empty()) Usage("query requires --in");
  if (HasSuffix(in, ".zsc")) return RunQueryColumnar(flags, in);
  std::string error;
  auto table = ReadCsvFile(in, CsvOptions{}, &error);
  if (!table.has_value()) {
    std::fprintf(stderr, "csv error: %s\n", error.c_str());
    return 1;
  }

  const Quantizer quantizer(16);
  const PointSet points =
      TableToPoints(*table, ParseMaximize(flags, *table), quantizer);

  ExecutorOptions options = StrategyFromFlags(flags, quantizer.bits());
  const QueryDesc desc = DescFromFlags(flags, points.dim());

  if (flags.count("plan") != 0) {
    // Cost-based plan selection: price every scheme/local/reducer-count
    // candidate over a sample and run the cheapest (under the query's
    // variant — a tight box shrinks the predicted volumes).
    const PlanChoice choice = ChoosePlan(points, options, {}, &desc);
    options = choice.options;
    std::fprintf(stderr, "plan: %s\n", choice.rationale.c_str());
    for (const PlanCandidateCost& cand : choice.candidates) {
      std::fprintf(stderr, "  candidate %-16s predicted %.3f ms\n",
                   cand.label.c_str(), cand.predicted_total_ms);
    }
  }

  const std::string trace_path = TraceBegin(flags);
  const SkylineQueryResult result =
      ParallelSkylineExecutor(options).Execute(points, desc);
  TraceEnd(trace_path);

  const size_t topk =
      std::strtoull(Flag(flags, "topk", "0").c_str(), nullptr, 10);
  if (topk > 0) {
    const std::string rank_name = Flag(flags, "rank", "count");
    const SkylineRank rank = rank_name == "sum" ? SkylineRank::kScoreSum
                                                : SkylineRank::kDominanceCount;
    const auto ranked = TopKSkyline(points, result.skyline, topk, rank);
    std::printf("top-%zu skyline rows by %s:\n", topk,
                std::string(SkylineRankName(rank)).c_str());
    for (const RankedPoint& rp : ranked) {
      std::printf("  row %u", rp.row);
      for (uint32_t c = 0; c < table->dim; ++c) {
        std::printf(" %s=%.6g", table->columns[c].c_str(),
                    table->values[rp.row * table->dim + c]);
      }
      std::printf("\n");
    }
  } else {
    std::printf("skyline rows (%zu of %zu):\n", result.skyline.size(),
                table->rows);
    for (uint32_t row : result.skyline) std::printf("%u\n", row);
  }

  if (flags.count("metrics") != 0) {
    std::fprintf(stderr, "%s\n%s",
                 FormatRunSummary(options, table->rows, result).c_str(),
                 FormatPhaseMetrics(result.metrics).c_str());
  }
  if (flags.count("json") != 0) {
    std::fprintf(stderr, "%s\n",
                 MetricsToJson(result.metrics, &MetricsRegistry::Global())
                     .c_str());
  }
  return 0;
}

int RunSkyband(const std::map<std::string, std::string>& flags) {
  const std::string in = Flag(flags, "in", "");
  if (in.empty()) Usage("skyband requires --in");
  std::string error;
  auto table = ReadCsvFile(in, CsvOptions{}, &error);
  if (!table.has_value()) {
    std::fprintf(stderr, "csv error: %s\n", error.c_str());
    return 1;
  }
  const Quantizer quantizer(16);
  const PointSet points = TableToPoints(*table, {}, quantizer);
  SkybandOptions options;
  options.k = static_cast<uint32_t>(
      std::strtoul(Flag(flags, "k", "2").c_str(), nullptr, 10));
  options.num_groups = static_cast<uint32_t>(
      std::strtoul(Flag(flags, "groups", "8").c_str(), nullptr, 10));
  options.bits = quantizer.bits();
  const SkylineQueryResult result = DistributedSkyband(points, options);
  std::printf("%u-skyband rows (%zu of %zu):\n", options.k,
              result.skyline.size(), table->rows);
  for (uint32_t row : result.skyline) std::printf("%u\n", row);
  if (flags.count("metrics") != 0) {
    std::fprintf(stderr, "%s", FormatPhaseMetrics(result.metrics).c_str());
  }
  return 0;
}

// Shared by `insert` and `delete` (docs/updates.md): a QueryService over
// --in — heap-resident for CSV, mmap'd for `.zsc` (mutations layer a heap
// delta over the read-only mapping; a merge streams a new `.zsc` beside
// it).
struct MutableService {
  std::unique_ptr<QueryService> service;
  size_t base_rows = 0;
  uint32_t dim = 1;
};

bool OpenMutableService(const std::map<std::string, std::string>& flags,
                        const std::string& in, MutableService* out) {
  std::string error;
  uint32_t bits = 16;
  PointSet points(1);
  const bool columnar = HasSuffix(in, ".zsc");
  if (columnar) {
    const auto peek = ColumnarDataset::Open(in, &error);
    if (peek == nullptr) {
      std::fprintf(stderr, "zsc error: %s\n", error.c_str());
      return false;
    }
    bits = peek->bits();
    out->base_rows = peek->size();
    out->dim = peek->view().dim();
  } else {
    auto table = ReadCsvFile(in, CsvOptions{}, &error);
    if (!table.has_value()) {
      std::fprintf(stderr, "csv error: %s\n", error.c_str());
      return false;
    }
    const Quantizer quantizer(16);
    points = TableToPoints(*table, ParseMaximize(flags, *table), quantizer);
    bits = quantizer.bits();
    out->base_rows = points.size();
    out->dim = points.dim();
  }
  QueryServiceOptions service_options;
  service_options.executor = StrategyFromFlags(flags, bits);
  out->service = std::make_unique<QueryService>(service_options);
  if (columnar) {
    if (!out->service->SetDatasetFile(in, &error)) {
      std::fprintf(stderr, "zsc error: %s\n", error.c_str());
      return false;
    }
  } else {
    out->service->SetDataset(std::move(points));
  }
  return true;
}

// Inline batch syntax: "a,b,...;c,d,..." — one point per ';' group.
PointSet ParsePointsArg(const std::string& value, uint32_t dim) {
  PointSet batch(dim);
  size_t pos = 0;
  while (pos < value.size()) {
    const size_t semi = value.find(';', pos);
    const std::string token = value.substr(
        pos, semi == std::string::npos ? std::string::npos : semi - pos);
    pos = semi == std::string::npos ? value.size() : semi + 1;
    if (token.empty()) continue;
    const std::vector<uint32_t> vals = ParseUintList(token, "points");
    if (vals.size() != dim) Usage("--points needs one value per column");
    std::vector<Coord> coords(vals.begin(), vals.end());
    batch.Append(coords);
  }
  return batch;
}

void PrintMutationSummary(const char* verb, const MutationResult& mr,
                          const QueryService& service) {
  const DeltaStats ds = service.delta_stats();
  std::fprintf(stderr,
               "%s: applied=%zu fast_path=%zu rejected=%zu first_id=%u"
               " merged=%d repair_partitions=%zu ms=%.3f\n"
               "delta: active=%d logical_rows=%zu alive_rows=%zu"
               " delta_rows=%zu base_dead=%zu band=%zu\n",
               verb, mr.applied, mr.fast_path, mr.rejected, mr.first_id,
               mr.merged ? 1 : 0, mr.repair_partitions, mr.ms,
               ds.active ? 1 : 0, ds.logical_rows, ds.alive_rows,
               ds.delta_rows, ds.base_dead, ds.band_size);
}

// `insert`: load --in, insert a batch (--points inline or --add file),
// print the updated skyline as logical row ids. --merge-after folds the
// delta into a compacted base before the query.
int RunInsert(const std::map<std::string, std::string>& flags) {
  const std::string in = Flag(flags, "in", "");
  if (in.empty()) Usage("insert requires --in");
  MutableService ms;
  if (!OpenMutableService(flags, in, &ms)) return 1;

  PointSet batch(ms.dim);
  const std::string points_arg = Flag(flags, "points", "");
  const std::string add = Flag(flags, "add", "");
  if (points_arg.empty() == add.empty()) {
    Usage("insert requires exactly one of --points / --add");
  }
  if (!points_arg.empty()) {
    batch = ParsePointsArg(points_arg, ms.dim);
  } else if (HasSuffix(add, ".zsc")) {
    std::string error;
    const auto dataset = ColumnarDataset::Open(add, &error);
    if (dataset == nullptr) {
      std::fprintf(stderr, "zsc error: %s\n", error.c_str());
      return 1;
    }
    batch = dataset->view().Materialize();
  } else {
    std::string error;
    auto table = ReadCsvFile(add, CsvOptions{}, &error);
    if (!table.has_value()) {
      std::fprintf(stderr, "csv error: %s\n", error.c_str());
      return 1;
    }
    batch = TableToPoints(*table, ParseMaximize(flags, *table),
                          Quantizer(16));
  }

  const MutationResult mr = ms.service->Insert(batch);
  if (!mr.ok) {
    std::fprintf(stderr, "insert error: %s\n", mr.error.c_str());
    return 1;
  }
  if (flags.count("merge-after") != 0) ms.service->Merge();
  const SkylineQueryResult result = ms.service->Query();
  const DeltaStats ds = ms.service->delta_stats();
  std::printf("skyline rows (%zu of %zu):\n", result.skyline.size(),
              ds.alive_rows);
  for (uint32_t row : result.skyline) std::printf("%u\n", row);
  PrintMutationSummary("insert", mr, *ms.service);
  return 0;
}

// `delete`: load --in, tombstone --ids (logical row ids), print the
// repaired skyline.
int RunDelete(const std::map<std::string, std::string>& flags) {
  const std::string in = Flag(flags, "in", "");
  if (in.empty()) Usage("delete requires --in");
  const std::vector<uint32_t> ids =
      ParseUintList(Flag(flags, "ids", ""), "ids");
  if (ids.empty()) Usage("delete requires --ids");
  MutableService ms;
  if (!OpenMutableService(flags, in, &ms)) return 1;

  const MutationResult mr = ms.service->Delete(ids);
  if (!mr.ok) {
    std::fprintf(stderr, "delete error: %s\n", mr.error.c_str());
    return 1;
  }
  if (flags.count("merge-after") != 0) ms.service->Merge();
  const SkylineQueryResult result = ms.service->Query();
  const DeltaStats ds = ms.service->delta_stats();
  std::printf("skyline rows (%zu of %zu):\n", result.skyline.size(),
              ds.alive_rows);
  for (uint32_t row : result.skyline) std::printf("%u\n", row);
  PrintMutationSummary("delete", mr, *ms.service);
  return 0;
}

// Serving mode: load a dataset once, answer --repeat queries through the
// QueryService (plan built by the first query, reused by the rest), and
// report cold/warm latency + sustained QPS. --concurrency > 1 issues the
// warm queries from that many client threads. --mutate-mix P turns ~P% of
// the warm operations into Insert/Delete batches against the live
// service (docs/updates.md), exercising the delta overlay under load.
int RunServe(const std::map<std::string, std::string>& flags) {
  const std::string in = Flag(flags, "in", "");
  if (in.empty()) Usage("serve requires --in");
  const bool columnar = HasSuffix(in, ".zsc");
  const size_t budget =
      std::strtoull(Flag(flags, "budget", "0").c_str(), nullptr, 10);
  std::string error;
  PointSet points(1);
  size_t total_rows = 0;
  uint32_t bits = 16;
  uint32_t dim = 1;
  if (columnar) {
    // Peek the header for the coordinate resolution; the service mmaps
    // the file itself via SetDatasetFile below.
    const auto peek = ColumnarDataset::Open(in, &error);
    if (peek == nullptr) {
      std::fprintf(stderr, "zsc error: %s\n", error.c_str());
      return 1;
    }
    bits = peek->bits();
    total_rows = peek->size();
    dim = peek->view().dim();
  } else {
    auto table = ReadCsvFile(in, CsvOptions{}, &error);
    if (!table.has_value()) {
      std::fprintf(stderr, "csv error: %s\n", error.c_str());
      return 1;
    }
    const Quantizer quantizer(16);
    points = TableToPoints(*table, {}, quantizer);
    bits = quantizer.bits();
    total_rows = points.size();
    dim = points.dim();
  }
  QueryRequest request;
  request.desc = DescFromFlags(flags, dim);

  const size_t repeat = std::max<size_t>(
      1, std::strtoull(Flag(flags, "repeat", "8").c_str(), nullptr, 10));
  const size_t concurrency = std::max<size_t>(
      1, std::strtoull(Flag(flags, "concurrency", "1").c_str(), nullptr, 10));
  // --stats-every N: print cumulative service stats after every N
  // completed warm queries (0 = off).
  const size_t stats_every =
      std::strtoull(Flag(flags, "stats-every", "0").c_str(), nullptr, 10);
  // --mutate-mix P: percentage of warm operations issued as mutations
  // (2/3 inserts, 1/3 deletes of previously inserted rows).
  const double mutate_mix =
      std::strtod(Flag(flags, "mutate-mix", "0").c_str(), nullptr);

  QueryServiceOptions service_options;
  service_options.executor = StrategyFromFlags(flags, bits);
  service_options.executor.shuffle_memory_budget_bytes = budget;
  service_options.max_in_flight =
      static_cast<uint32_t>(std::max<size_t>(concurrency, 1));
  // --adaptive: plan builds run the cost-based planner (ChoosePlan) and
  // replan when predicted-vs-actual stage error exceeds the threshold.
  service_options.adaptive_planning = flags.count("adaptive") != 0;
  service_options.replan_threshold = std::strtod(
      Flag(flags, "replan-threshold", "0.5").c_str(), nullptr);
  // --calibration-file: persist the learned cost-model constants across
  // restarts (loaded now, written on shutdown).
  service_options.calibration_file = Flag(flags, "calibration-file", "");
  QueryService service(service_options);
  if (columnar) {
    if (!service.SetDatasetFile(in, &error)) {
      std::fprintf(stderr, "zsc error: %s\n", error.c_str());
      return 1;
    }
  } else {
    service.SetDataset(std::move(points));
  }
  const std::string trace_path = TraceBegin(flags);

  // Cold query: pays the plan build.
  const SkylineQueryResult cold = service.Query(request);
  std::printf("skyline rows (%zu of %zu):\n", cold.skyline.size(),
              total_rows);
  for (uint32_t row : cold.skyline) std::printf("%u\n", row);

  // Warm operations: plan reused; issued from `concurrency` client
  // threads. With --mutate-mix some become Insert/Delete batches — the
  // skyline then legitimately drifts, so the result-stability check only
  // runs for the pure-read mix.
  const size_t warm_count = repeat - 1;
  std::vector<double> warm_ms(warm_count, 0.0);
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> next{0};
  std::atomic<size_t> completed{0};
  std::mutex inserted_mu;
  std::vector<uint32_t> inserted_ids;
  const Coord serve_max_coord =
      bits >= 32 ? ~Coord{0} : ((Coord{1} << bits) - 1);
  auto mutate = [&](size_t i) {
    // Deterministic per-op splitmix: the mix is reproducible in the flags.
    uint64_t s = 0x9e3779b97f4a7c15ull * (i + 1);
    auto rng = [&s] {
      s += 0x9e3779b97f4a7c15ull;
      uint64_t z = s;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      return z ^ (z >> 31);
    };
    if (i % 3 != 2) {
      // Insert a small batch biased toward the dominated region (upper
      // half of the domain) so the sample-skyline fast path gets traffic.
      PointSet batch(dim);
      std::vector<Coord> p(dim);
      for (size_t r = 0; r < 8; ++r) {
        for (uint32_t d = 0; d < dim; ++d) {
          const Coord half = serve_max_coord / 2;
          p[d] = half + static_cast<Coord>(rng() % (half + 1));
        }
        batch.Append(p);
      }
      const MutationResult mr = service.Insert(batch);
      if (mr.ok && mr.applied > 0) {
        std::lock_guard<std::mutex> lock(inserted_mu);
        for (size_t r = 0; r < mr.applied; ++r) {
          inserted_ids.push_back(mr.first_id + static_cast<uint32_t>(r));
        }
        // A merge compacts ids; stop deleting by stale id after one.
        if (mr.merged) inserted_ids.clear();
      }
    } else {
      std::vector<uint32_t> ids;
      {
        std::lock_guard<std::mutex> lock(inserted_mu);
        for (size_t r = 0; r < 4 && !inserted_ids.empty(); ++r) {
          ids.push_back(inserted_ids.back());
          inserted_ids.pop_back();
        }
      }
      if (!ids.empty()) service.Delete(ids);
    }
  };
  Stopwatch warm_watch;
  auto client = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= warm_count) return;
      if (mutate_mix > 0.0 &&
          static_cast<double>((i * 2654435761u) % 100) < mutate_mix) {
        Stopwatch op_watch;
        mutate(i);
        warm_ms[i] = op_watch.ElapsedMs();
        completed.fetch_add(1);
        continue;
      }
      const SkylineQueryResult warm = service.Query(request);
      warm_ms[i] = warm.metrics.total_ms;
      if (mutate_mix == 0.0 && warm.skyline != cold.skyline) {
        mismatches.fetch_add(1);
      }
      const size_t done = completed.fetch_add(1) + 1;
      if (stats_every > 0 && done % stats_every == 0) {
        const QueryService::Stats snap = service.stats();
        MetricsRegistry& registry = MetricsRegistry::Global();
        std::fprintf(stderr,
                     "stats[%zu]: queries=%zu plan_builds=%zu replans=%zu"
                     " peak_in_flight=%zu query_ms_total=%.3f"
                     " avg_ms=%.3f morsels=%llu stolen=%llu\n",
                     done, snap.queries, snap.plan_builds, snap.replans,
                     snap.peak_in_flight, snap.query_ms_total,
                     snap.queries > 0
                         ? snap.query_ms_total /
                               static_cast<double>(snap.queries)
                         : 0.0,
                     static_cast<unsigned long long>(
                         registry.counter("morsels_total").value()),
                     static_cast<unsigned long long>(
                         registry.counter("tasks_stolen").value()));
      }
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < std::min(concurrency, std::max<size_t>(warm_count, 1));
       ++c) {
    clients.emplace_back(client);
  }
  for (std::thread& t : clients) t.join();
  const double warm_wall_ms = warm_watch.ElapsedMs();

  double warm_avg = 0.0;
  for (double ms : warm_ms) warm_avg += ms;
  if (warm_count > 0) warm_avg /= static_cast<double>(warm_count);
  const double qps =
      warm_count > 0 && warm_wall_ms > 0.0
          ? static_cast<double>(warm_count) / (warm_wall_ms / 1000.0)
          : 0.0;
  const QueryService::Stats stats = service.stats();

  std::fprintf(stderr,
               "serve: %zu queries (%zu warm, concurrency %zu)\n"
               "  cold_ms=%.3f (plan build %.3f)  warm_avg_ms=%.3f"
               "  qps=%.1f\n"
               "  plan_builds=%zu replans=%zu peak_in_flight=%zu"
               " mismatches=%zu\n",
               repeat, warm_count, concurrency, cold.metrics.total_ms,
               cold.metrics.preprocess_ms, warm_avg, qps, stats.plan_builds,
               stats.replans, stats.peak_in_flight, mismatches.load());
  if (mutate_mix > 0.0) {
    const DeltaStats ds = service.delta_stats();
    std::fprintf(stderr,
                 "  mutate: inserts=%zu deletes=%zu fast_path=%zu"
                 " merges=%zu repairs=%zu plan_patches=%zu\n"
                 "  delta: active=%d logical_rows=%zu alive_rows=%zu"
                 " delta_rows=%zu band=%zu\n",
                 stats.inserts, stats.deletes, stats.fast_path_inserts,
                 stats.merges, stats.repairs, stats.plan_patches,
                 ds.active ? 1 : 0, ds.logical_rows, ds.alive_rows,
                 ds.delta_rows, ds.band_size);
  }
  TraceEnd(trace_path);
  if (flags.count("json") != 0) {
    std::fprintf(stderr, "%s\n",
                 MetricsToJson(cold.metrics, &MetricsRegistry::Global())
                     .c_str());
  }
  return mismatches.load() == 0 ? 0 : 1;
}

// Prints the host's SIMD features and the dispatch tier queries will run
// with (honors ZSKY_FORCE_ISA). `scripts/check.sh simd` parses this to
// skip tiers the host cannot run.
int RunCpu() {
  const CpuFeatures& features = HostCpuFeatures();
  std::printf("sse42=%d avx2=%d bmi2=%d active=%s bmi2_codec=%d\n",
              features.sse42 ? 1 : 0, features.avx2 ? 1 : 0,
              features.bmi2 ? 1 : 0, std::string(IsaName(ActiveIsa())).c_str(),
              UseBmi2Codec() ? 1 : 0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Usage();
  const std::string command = argv[1];
  const auto flags = ParseFlags(argc, argv, 2);
  if (command == "gen") return RunGen(flags);
  if (command == "convert") return RunConvert(flags);
  if (command == "query") return RunQuery(flags);
  if (command == "skyband") return RunSkyband(flags);
  if (command == "insert") return RunInsert(flags);
  if (command == "delete") return RunDelete(flags);
  if (command == "serve") return RunServe(flags);
  if (command == "cpu") return RunCpu();
  Usage(("unknown command " + command).c_str());
}
