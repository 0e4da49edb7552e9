// The serve workload: a closed loop against one QueryService over 500k x
// 8d independent rows, driven by seeded op traces (optrace.h).
//
//   serve-write-500k-8d  1 writer (4 insert batches of 64 rows per
//                        single-id delete) beside 2 readers (95% default,
//                        5% box).

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/executor.h"
#include "core/query_service.h"
#include "gen/synthetic.h"
#include "harness.h"
#include "optrace.h"

namespace zskybench {
namespace {

constexpr size_t kServeRows = 500000;
// Writer ops the traced serve-write pass replays (after the bootstrap op):
// a fixed count, so its insert/delete/repair/merge counts repeat exactly.
constexpr uint64_t kTracedWriterOps = 2000;
// Box answers the end-of-run serve-write check compares.
constexpr size_t kCheckedBoxes = 4;

zsky::QueryServiceOptions ServiceOptions(const RunConfig& config) {
  zsky::QueryServiceOptions options;
  options.executor = BaseOptions(config);
  return options;
}

zsky::PointSet ServeData(const RunConfig& config) {
  return zsky::GenerateQuantized(zsky::Distribution::kIndependent, kServeRows,
                                 kDim, Draw(config.seed, kStreamData, 0),
                                 zsky::Quantizer(kBits));
}

bool JobsOk(const zsky::PhaseMetrics& pm) {
  return pm.job1.succeeded && pm.job2.succeeded;
}

// --- Readers ----------------------------------------------------------------

// State the reader threads of one measured pass share.
struct ReadPass {
  zsky::QueryService* service = nullptr;
  const ServeShapes* shapes = nullptr;
  uint64_t seed = 0;
  size_t rows = 0;
  unsigned nproc = 1;
  Ledger* ledger = nullptr;  // Traced pass only.

  std::atomic<uint64_t>* next_op = nullptr;
  Clock::time_point start;
  double wall_s = 0.0;  // From start until the last reader finished.
  const std::atomic<bool>* writer_done = nullptr;  // The pass ends once set.

  std::mutex mu;  // Guards everything below.
  std::vector<double> ms;
  std::map<ReadKind, std::vector<double>> ms_by_kind;
  std::set<uint32_t> descs_seen;  // Desc ids (DescId) issued so far.
  size_t repeat_reads = 0;
  size_t box_reads = 0;
  double box_dropped = 0.0;
  Tally tally;
  LayerSamples samples;
};

// Claims the next trace op for a reader. Once the pass is over no op that
// starts a new mix block is claimed, so a pass issues whole blocks and its
// kind mix is exact.
bool ClaimOp(ReadPass& pass, uint64_t* index) {
  uint64_t next = pass.next_op->load();
  do {
    if (next % kReadBlock == 0 && pass.writer_done->load()) return false;
  } while (!pass.next_op->compare_exchange_weak(next, next + 1));
  *index = next;
  return true;
}

void ReaderLoop(ReadPass& pass) {
  uint64_t index = 0;
  while (ClaimOp(pass, &index)) {
    const auto t0 = Clock::now();
    const ReadOp op = ReadTraceOp(pass.seed, index);
    zsky::QueryRequest request;
    request.desc = DescFor(*pass.shapes, op);
    const auto t1 = Clock::now();
    const zsky::SkylineQueryResult r = pass.service->Query(request);
    const auto t2 = Clock::now();
    const double ms = MsBetween(t1, t2);
    const uint32_t id = DescId(op);

    std::lock_guard<std::mutex> lock(pass.mu);
    if (!pass.descs_seen.insert(id).second) ++pass.repeat_reads;
    pass.tally.Record(JobsOk(r.metrics));
    pass.ms.push_back(ms);
    pass.ms_by_kind[op.kind].push_back(ms);
    if (op.kind == ReadKind::kBox) {
      ++pass.box_reads;
      pass.box_dropped += static_cast<double>(r.metrics.dropped_by_box);
    }
    if (pass.ledger == nullptr) continue;

    LayerSamples& s = pass.samples;
    const std::string kind(ReadKindName(op.kind));
    s.Add("read." + kind + "_ms_p50", ms);
    s.Add("service.wait_ms_p50", ms - r.metrics.total_ms);
    s.Add(op.kind == ReadKind::kDefault ? "delta.band_read_ms_p50"
                                        : "delta.overlay_read_ms_p50",
          ms);
    if (r.metrics.job1_ms > 0.0) {
      AddPipelineSamples(s, r.metrics, pass.rows, r.skyline.size(),
                         pass.nproc);
    }
    Ledger& ledger = *pass.ledger;
    const uint64_t req = ledger.NewRequest();
    const int root = ledger.Add(req, -1, "read", kind, t0, Clock::now());
    const int call = ledger.Add(req, root, "service.query", kind, t1, t2);
    if (r.metrics.preprocess_ms > 0.0) {
      ledger.AddReported(call, "plan", r.metrics.preprocess_ms);
    }
    if (r.metrics.job1_ms > 0.0) {
      const int j1 = ledger.AddReported(call, "job1", r.metrics.job1_ms);
      const int j2 = ledger.AddReported(call, "job2", r.metrics.job2_ms);
      AddReportedPhases(ledger, j1, j2, r.metrics);
    }
  }
}

void RunReaders(ReadPass& pass) {
  pass.start = Clock::now();
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&pass] { ReaderLoop(pass); });
  }
  for (std::thread& t : readers) t.join();
  pass.wall_s = MsBetween(pass.start, Clock::now()) / 1000.0;
}

// Read-side per-layer ratios (they are ratios of sums, not medians).
void ReadRatios(const ReadPass& pass, RunResult& result) {
  const double reads = static_cast<double>(pass.ms.size());
  result.metrics["service.repeat_desc_frac"] =
      reads > 0 ? static_cast<double>(pass.repeat_reads) / reads : 0.0;
  result.metrics["service.box_dropped_ratio"] =
      pass.box_reads > 0
          ? pass.box_dropped / (static_cast<double>(pass.box_reads) *
                                static_cast<double>(pass.rows))
          : 0.0;
}

std::string ReadCounts(const ReadPass& pass) {
  std::string out;
  for (const auto& [kind, ms] : pass.ms_by_kind) {
    out += ", \"" + std::string(ReadKindName(kind)) +
           "\": " + std::to_string(ms.size());
  }
  return out;
}

// --- Writer -----------------------------------------------------------------

// The benchmark's copy of the service's logical dataset: rows by logical
// id, alive flags, and the alive ids in a deterministic order (deletes
// pick from it). Merges compact ids exactly as the service does: alive
// rows in id order.
class Mirror {
 public:
  explicit Mirror(const zsky::PointSet& base)
      : rows_(base), alive_(base.size(), 1), alive_list_(base.size()),
        pos_(base.size()) {
    std::iota(alive_list_.begin(), alive_list_.end(), 0u);
    std::iota(pos_.begin(), pos_.end(), 0u);
  }

  uint32_t next_id() const { return static_cast<uint32_t>(rows_.size()); }
  size_t alive_count() const { return alive_list_.size(); }

  void Insert(const zsky::PointSet& batch) {
    for (size_t r = 0; r < batch.size(); ++r) {
      const uint32_t id = next_id();
      rows_.AppendFrom(batch, r);
      alive_.push_back(1);
      pos_.push_back(static_cast<uint32_t>(alive_list_.size()));
      alive_list_.push_back(id);
    }
  }
  uint32_t Pick(uint64_t draw) const {
    return alive_list_[draw % alive_list_.size()];
  }
  void Kill(uint32_t id) {
    alive_[id] = 0;
    const uint32_t last = alive_list_.back();
    alive_list_[pos_[id]] = last;
    pos_[last] = pos_[id];
    alive_list_.pop_back();
  }
  void Compact() {
    zsky::PointSet next(rows_.dim());
    next.Reserve(alive_list_.size());
    for (size_t id = 0; id < alive_.size(); ++id) {
      if (alive_[id] != 0) next.AppendFrom(rows_, id);
    }
    *this = Mirror(next);
  }
  // The alive rows in id order, and their logical ids.
  zsky::PointSet AliveRows(std::vector<uint32_t>* ids) const {
    zsky::PointSet out(rows_.dim());
    out.Reserve(alive_list_.size());
    ids->clear();
    for (size_t id = 0; id < alive_.size(); ++id) {
      if (alive_[id] == 0) continue;
      out.AppendFrom(rows_, id);
      ids->push_back(static_cast<uint32_t>(id));
    }
    return out;
  }

 private:
  zsky::PointSet rows_;
  std::vector<uint8_t> alive_;
  std::vector<uint32_t> alive_list_;
  std::vector<uint32_t> pos_;
};

struct WriteOutcome {
  WriteKind kind = WriteKind::kInsert;
  bool ok = false;
  double ms = 0.0;
  zsky::MutationResult mutation;
};

// Applies write op `index` of the seed's trace to the service and mirrors
// it, checking what the service reports against the mirror.
WriteOutcome ApplyWrite(zsky::QueryService& service, Mirror& mirror,
                        uint64_t seed, uint64_t index) {
  const WriteOp op = WriteTraceOp(seed, index);
  WriteOutcome out;
  out.kind = op.kind;
  if (op.kind == WriteKind::kInsert) {
    const zsky::PointSet batch = zsky::GenerateQuantized(
        zsky::Distribution::kIndependent, kInsertBatchRows, kDim, op.arg,
        zsky::Quantizer(kBits));
    const uint32_t expected_first = mirror.next_id();
    const auto t0 = Clock::now();
    out.mutation = service.Insert(batch);
    out.ms = MsBetween(t0, Clock::now());
    out.ok = out.mutation.ok && out.mutation.applied == batch.size() &&
             out.mutation.first_id == expected_first;
    mirror.Insert(batch);
  } else {
    const uint32_t id = mirror.Pick(op.arg);
    const auto t0 = Clock::now();
    out.mutation = service.Delete(std::span<const uint32_t>(&id, 1));
    out.ms = MsBetween(t0, Clock::now());
    out.ok = out.mutation.ok && out.mutation.applied == 1 &&
             out.mutation.rejected == 0;
    mirror.Kill(id);
  }
  if (out.mutation.merged) mirror.Compact();
  return out;
}

struct WritePass {
  std::vector<double> ms;
  std::vector<double> insert_ms;
  std::vector<double> delete_ms;
  std::vector<double> repair_ms;
  std::vector<double> merge_ms;
  size_t inserts = 0;
  size_t deletes = 0;
  size_t repairs = 0;
  size_t merges = 0;
  size_t rows_written = 0;
  size_t fast_path = 0;
  size_t repair_partitions = 0;
  uint64_t next_op = 1;  // Op 0 bootstraps the band during set-up.
  Tally tally;
};

void RecordWrite(const WriteOutcome& w, WritePass& pass) {
  pass.tally.Record(w.ok);
  pass.ms.push_back(w.ms);
  if (w.kind == WriteKind::kInsert) {
    ++pass.inserts;
    pass.insert_ms.push_back(w.ms);
    pass.rows_written += w.mutation.applied;
    pass.fast_path += w.mutation.fast_path;
  } else {
    ++pass.deletes;
    pass.delete_ms.push_back(w.ms);
    if (w.mutation.repair_partitions > 0) {
      ++pass.repairs;
      pass.repair_ms.push_back(w.ms);
      pass.repair_partitions += w.mutation.repair_partitions;
    }
  }
  if (w.mutation.merged) {
    ++pass.merges;
    pass.merge_ms.push_back(w.ms);
  }
}

// One serve-write set-up: service, first (cold) query, first mutation.
struct WriteSetup {
  std::unique_ptr<zsky::QueryService> service;
  std::unique_ptr<Mirror> mirror;
  double setup_s = 0.0;
  double bootstrap_ms = 0.0;
  size_t partitions = 0;
  bool ok = false;
};

WriteSetup SetUpWriteService(const RunConfig& config,
                             const zsky::PointSet& data) {
  WriteSetup s;
  s.mirror = std::make_unique<Mirror>(data);
  zsky::PointSet copy = data;
  const auto t0 = Clock::now();
  s.service = std::make_unique<zsky::QueryService>(ServiceOptions(config),
                                                   std::move(copy));
  const zsky::SkylineQueryResult first = s.service->Query();
  const WriteOutcome boot = ApplyWrite(*s.service, *s.mirror, config.seed, 0);
  s.setup_s = MsBetween(t0, Clock::now()) / 1000.0;
  s.bootstrap_ms = boot.ms;
  s.partitions = first.metrics.num_partitions;
  s.ok = JobsOk(first.metrics) && !first.skyline.empty() && boot.ok;
  return s;
}

// The end-of-run gate: the service's default and box answers against a
// one-shot Execute over the mirrored alive rows.
void CheckWriteService(const RunConfig& config, zsky::QueryService& service,
                       const Mirror& mirror, const ServeShapes& shapes,
                       RunResult& result) {
  std::vector<uint32_t> ids;
  const zsky::PointSet alive = mirror.AliveRows(&ids);
  const zsky::ParallelSkylineExecutor ex(BaseOptions(config));
  std::vector<zsky::QueryDesc> descs = {zsky::QueryDesc{}};
  for (size_t b = 0; b < kCheckedBoxes; ++b) descs.push_back(shapes.boxes[b]);
  for (const zsky::QueryDesc& desc : descs) {
    zsky::QueryRequest request;
    request.desc = desc;
    const zsky::SkylineQueryResult got = service.Query(request);
    zsky::SkylineQueryResult want = ex.Execute(alive, desc);
    for (uint32_t& row : want.skyline) row = ids[row];
    const bool ok = JobsOk(got.metrics) && JobsOk(want.metrics) &&
                    got.skyline == want.skyline;
    result.tally.Record(ok);
    if (!ok) {
      result.correct = false;
      result.Line("MISMATCH: serve-write %s answer differs from Execute over "
                  "the mirrored alive rows (%zu vs %zu rows)",
                  desc.IsDefault() ? "default" : "box", got.skyline.size(),
                  want.skyline.size());
    }
  }
}

void WriteFigures(const WritePass& w, double wall_s, RunResult& result) {
  result.Timing("write_ms", w.ms);
  result.Figure("rows_written_per_s",
                static_cast<double>(w.rows_written) / wall_s, "1/s",
                w.inserts);
}

void WriteLayerMetrics(const WritePass& w, double wall_s,
                       size_t partitions, RunResult& result) {
  auto& m = result.metrics;
  m["delta.insert_ms_p50"] = Median(w.insert_ms);
  m["delta.fast_path_ratio"] =
      w.rows_written > 0 ? static_cast<double>(w.fast_path) /
                               static_cast<double>(w.rows_written)
                         : 0.0;
  m["delta.delete_ms_p50"] = Median(w.delete_ms);
  m["delta.repairs"] = static_cast<double>(w.repairs);
  m["delta.repair_ms_p50"] = Median(w.repair_ms);
  m["delta.repair_partition_frac"] =
      w.repairs > 0 && partitions > 0
          ? static_cast<double>(w.repair_partitions) /
                static_cast<double>(w.repairs * partitions)
          : 0.0;
  m["delta.merges"] = static_cast<double>(w.merges);
  m["delta.merge_ms_p50"] = Median(w.merge_ms);
  m["write.ms_p50"] = Median(w.ms);
  m["write.ms_p90"] = SupportedPercentile(w.ms, 0.9).value_or(0.0);
  m["write.rows_per_s"] = static_cast<double>(w.rows_written) / wall_s;
}

std::string WriteCounts(const WritePass& w) {
  return ", \"insert\": " + std::to_string(w.inserts) +
         ", \"delete\": " + std::to_string(w.deletes) +
         ", \"repair\": " + std::to_string(w.repairs) +
         ", \"merge\": " + std::to_string(w.merges);
}

// The full-space query median (default reads) of a pass.
const std::vector<double>& DefaultReads(const ReadPass& reads) {
  auto it = reads.ms_by_kind.find(ReadKind::kDefault);
  return it == reads.ms_by_kind.end() ? reads.ms : it->second;
}

// Per-layer figures taken from the untraced half of a --trace 1 run.
void UntracedLayerMetrics(const ReadPass& untraced,
                          const std::vector<double>& rss, RunResult& result) {
  result.metrics["query.ms_p50"] = Median(DefaultReads(untraced));
  result.metrics["mem.peak_rss_mb"] = Median(rss);
}

// `cpu_ms` is the process CPU time of the whole pass, writer included.
void ServeFigures(const std::vector<double>& setup_s, const ReadPass& reads,
                  double cpu_ms, const std::vector<double>& rss,
                  RunResult& result) {
  // Whole mix blocks over the pass's wall time: a window rate would cut
  // the last blocks and weigh the kinds by where the window happens to end.
  const double count = static_cast<double>(reads.ms.size());
  const double reads_per_s = count / reads.wall_s;
  result.metrics["setup_s"] = Median(setup_s);
  result.metrics["cpu_ms_per_query"] = cpu_ms / count;
  result.Line("end-to-end (untraced, closed loop, %d readers + 1 writer):",
              kReaders);
  result.Figure("setup_s", Median(setup_s), "s", setup_s.size());
  result.Figure("cpu_ms_per_query", cpu_ms / count, "ms", reads.ms.size());
  result.RssFigures(rss);
  result.Timing("query_ms", DefaultReads(reads));
  result.Timing("read_ms", reads.ms);
  result.Figure("reads_per_s", reads_per_s, "1/s", reads.ms.size());
  for (const auto& [kind, ms] : reads.ms_by_kind) {
    result.Line("  read_ms_p50[%s] %.4f ms (n=%zu)",
                std::string(ReadKindName(kind)).c_str(), Median(ms),
                ms.size());
  }
  result.Prov("trials", std::to_string(reads.ms.size()));
  result.Prov("setup_trials", std::to_string(setup_s.size()));
}

}  // namespace

RunResult RunServeWrite(const RunConfig& config) {
  RunResult result;
  const zsky::PointSet data = ServeData(config);
  const ServeShapes shapes = MakeServeShapes(config.seed);
  result.ProvStr("input_hash",
                 Hex(HashCoords(data.raw().data(), data.raw().size(),
                                0xcbf29ce484222325ULL)));

  std::vector<double> setup_s;
  WriteSetup setup;
  for (int rep = 0; rep < (config.trace ? 1 : kSetupReps); ++rep) {
    setup = WriteSetup{};
    setup = SetUpWriteService(config, data);
    setup_s.push_back(setup.setup_s);
    result.tally.Record(setup.ok);
  }

  std::atomic<uint64_t> next_read{0};
  // One measured pass: the writer replays ops until the deadline (or, for
  // the traced pass, a fixed op count), the readers until the writer stops.
  auto run_pass = [&](WriteSetup& s, ReadPass& reads, WritePass& writes,
                      double seconds, uint64_t fixed_ops, Ledger* ledger) {
    std::atomic<bool> writer_done{false};
    reads.service = s.service.get();
    reads.shapes = &shapes;
    reads.seed = config.seed;
    reads.rows = data.size();
    reads.nproc = config.nproc;
    reads.ledger = ledger;
    reads.next_op = &next_read;
    reads.writer_done = &writer_done;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    const auto t0 = Clock::now();
    std::thread writer([&] {
      const uint64_t end = writes.next_op + fixed_ops;
      while (fixed_ops > 0 ? writes.next_op < end : Clock::now() < deadline) {
        const auto w0 = Clock::now();
        const WriteOutcome w =
            ApplyWrite(*s.service, *s.mirror, config.seed, writes.next_op++);
        RecordWrite(w, writes);
        if (ledger == nullptr) continue;
        const std::string kind(WriteKindName(w.kind));
        const uint64_t req = ledger->NewRequest();
        const auto w1 = Clock::now();
        const int root = ledger->Add(req, -1, "write", kind, w0, w1);
        ledger->AddReported(root, "service." + kind, w.ms);
      }
      writer_done.store(true);
    });
    RunReaders(reads);
    writer.join();
    return MsBetween(t0, Clock::now()) / 1000.0;
  };

  WritePass writes;
  if (!config.trace) {
    ReadPass reads;
    RssSampler sampler;
    const double cpu_start = CpuMs();
    const double wall_s =
        run_pass(setup, reads, writes, config.seconds, 0, nullptr);
    const double cpu_ms = CpuMs() - cpu_start;
    ServeFigures(setup_s, reads, cpu_ms, sampler.Stop(), result);
    WriteFigures(writes, wall_s, result);
    result.tally.Add(reads.tally);
    result.tally.Add(writes.tally);
    result.Prov("spread", "{\"query_ms\": " +
                              std::to_string(QuartileSpread(reads.ms)) +
                              ", \"write_ms\": " +
                              std::to_string(QuartileSpread(writes.ms)) + "}");
    result.Prov("ops", "{\"setup_query\": " + std::to_string(setup_s.size()) +
                           ReadCounts(reads) + WriteCounts(writes) + "}");
    CheckWriteService(config, *setup.service, *setup.mirror, shapes, result);
  } else {
    ReadPass untraced;
    RssSampler sampler;
    run_pass(setup, untraced, writes, config.seconds / 2, 0, nullptr);
    const std::vector<double> rss = sampler.Stop();
    result.tally.Add(untraced.tally);
    result.tally.Add(writes.tally);
    CheckWriteService(config, *setup.service, *setup.mirror, shapes, result);
    setup = WriteSetup{};
    // The traced pass starts from a fresh service so its fixed op count
    // replays the same trace prefix on every run of a seed.
    WriteSetup fresh = SetUpWriteService(config, data);
    result.tally.Record(fresh.ok);
    result.ledger = std::make_unique<Ledger>();
    ReadPass traced;
    WritePass traced_writes;
    const double wall_s = run_pass(fresh, traced, traced_writes, 0.0,
                                   kTracedWriterOps, result.ledger.get());
    double total = 0.0;
    for (double v : traced.ms) total += v;
    for (double v : traced_writes.ms) total += v;
    FinishPerLayer(result, traced.samples, total);
    ReadRatios(traced, result);
    WriteLayerMetrics(traced_writes, wall_s, fresh.partitions, result);
    UntracedLayerMetrics(untraced, rss, result);
    result.metrics["delta.bootstrap_ms"] = fresh.bootstrap_ms;
    const double base = Median(untraced.ms);
    result.metrics["trace.overhead_frac"] =
        base > 0.0 ? (Median(traced.ms) - base) / base : 0.0;
    result.tally.Add(traced.tally);
    result.tally.Add(traced_writes.tally);
    CheckWriteService(config, *fresh.service, *fresh.mirror, shapes, result);
    result.Prov("ops", "{\"setup_query\": 2" + ReadCounts(traced) +
                           WriteCounts(traced_writes) + "}");
    writes = std::move(traced_writes);
  }
  result.ProvStr("trace_hash", Hex(WriteTraceHash(config.seed, writes.next_op)));
  result.Prov("trace_ops", std::to_string(writes.next_op));
  result.ProvStr("read_trace_hash",
                 Hex(ReadTraceHash(config.seed, next_read)));
  return result;
}

}  // namespace zskybench
