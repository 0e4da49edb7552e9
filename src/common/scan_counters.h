#ifndef ZSKY_COMMON_SCAN_COUNTERS_H_
#define ZSKY_COMMON_SCAN_COUNTERS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace zsky {

// Process-wide counters for the out-of-core read path. They live in
// common/ (not io/) because both sides of the dependency edge need them:
// RowBlockCursor (common/) meters transpose traffic, ColumnarDataset (io/)
// meters readahead, and the pipeline (core/) snapshots deltas into
// JobMetrics without having to see the dataset that backs a DatasetView.
//
// All counters are monotonic except candidate_bytes_current, which is a
// level gauge. Everything uses relaxed ordering: these are statistics, not
// synchronization.
struct ScanCounters {
  // Bytes copied by RowBlockCursor's columnar->row-major transpose. The
  // plain map wave reads `.zsc` columns in place to keep this at zero
  // (its heap tile transposes are not file transposes and never count).
  std::atomic<uint64_t> transpose_bytes{0};

  // Bytes touched by the async readahead worker (pages pulled ahead of
  // the scan), and how that effort paid off: a "hit" is a consumed row
  // range that a completed prefetch had already covered; "wasted" bytes
  // were prefetched but never consumed before their record was evicted
  // or the dataset closed.
  std::atomic<uint64_t> readahead_bytes{0};
  std::atomic<uint64_t> readahead_hits{0};
  std::atomic<uint64_t> readahead_wasted_bytes{0};

  // Rows skipped wholesale by per-block min/max sketch pruning in
  // constrained (box) scans.
  std::atomic<uint64_t> rows_pruned_by_sketch{0};

  // Candidate-side memory (local-skyline gathers, merge-tree builds)
  // accounted under the residency budget. current is the live level;
  // peak is the process-lifetime high-water mark.
  std::atomic<uint64_t> candidate_bytes_current{0};
  std::atomic<uint64_t> candidate_bytes_peak{0};
};

inline ScanCounters& GlobalScanCounters() {
  static ScanCounters counters;
  return counters;
}

// Point-in-time copy of the monotonic counters, for delta accounting
// around a pipeline job.
struct ScanCounterSnapshot {
  uint64_t transpose_bytes = 0;
  uint64_t readahead_bytes = 0;
  uint64_t readahead_hits = 0;
  uint64_t readahead_wasted_bytes = 0;
  uint64_t rows_pruned_by_sketch = 0;
};

inline ScanCounterSnapshot SnapshotScanCounters() {
  const ScanCounters& c = GlobalScanCounters();
  ScanCounterSnapshot s;
  s.transpose_bytes = c.transpose_bytes.load(std::memory_order_relaxed);
  s.readahead_bytes = c.readahead_bytes.load(std::memory_order_relaxed);
  s.readahead_hits = c.readahead_hits.load(std::memory_order_relaxed);
  s.readahead_wasted_bytes =
      c.readahead_wasted_bytes.load(std::memory_order_relaxed);
  s.rows_pruned_by_sketch =
      c.rows_pruned_by_sketch.load(std::memory_order_relaxed);
  return s;
}

// RAII accounting for a candidate-side allocation: bumps the level gauge
// (and the peak) for its lifetime. The byte count is the caller's estimate
// of the allocation it brackets; it must be stable across construction
// and destruction, so callers size it once up front.
class ScopedCandidateBytes {
 public:
  explicit ScopedCandidateBytes(uint64_t bytes) : bytes_(bytes) {
    ScanCounters& c = GlobalScanCounters();
    uint64_t now =
        c.candidate_bytes_current.fetch_add(bytes_, std::memory_order_relaxed) +
        bytes_;
    uint64_t peak = c.candidate_bytes_peak.load(std::memory_order_relaxed);
    while (now > peak && !c.candidate_bytes_peak.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }
  ~ScopedCandidateBytes() {
    GlobalScanCounters().candidate_bytes_current.fetch_sub(
        bytes_, std::memory_order_relaxed);
  }
  ScopedCandidateBytes(const ScopedCandidateBytes&) = delete;
  ScopedCandidateBytes& operator=(const ScopedCandidateBytes&) = delete;

 private:
  uint64_t bytes_;
};

}  // namespace zsky

#endif  // ZSKY_COMMON_SCAN_COUNTERS_H_
