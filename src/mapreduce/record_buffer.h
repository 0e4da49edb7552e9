#ifndef ZSKY_MAPREDUCE_RECORD_BUFFER_H_
#define ZSKY_MAPREDUCE_RECORD_BUFFER_H_

// Flat building blocks of the zero-copy columnar shuffle (docs/mapreduce.md):
//
//  - ChunkPool<V>: mutex-guarded free list of fixed-capacity columnar
//    chunks (parallel int32 key / V value arrays). Map tasks acquire
//    chunks, the shuffle releases them after consumption, and the next
//    wave reuses them — steady-state waves allocate nothing on the
//    record path.
//  - RecordBuffer<V>: one map task's records for one reducer, an
//    append-only chain of chunks. Appending never moves earlier records,
//    so consumers read chunk slices in place.
//  - FlatArray<T>: growable scratch storage that keeps its capacity
//    across waves (geometric growth, never shrinks). Holds the grouped
//    record storage the reducers consume as std::span slices.
//  - GroupScratch<V>: groups a list of columnar segments by int32 key
//    with a counting sort (dense key ranges; stable sort fallback for
//    pathologically sparse keys), producing one contiguous value slice
//    per key in ascending key order. The per-key value order is
//    segment-major and stable, i.e. the shuffle's task-major pull order.
//
// Everything here requires a trivially copyable V, which MapReduceJob
// static-asserts.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace zsky::mr {

// Default spill directory: $TMPDIR when set and non-empty, else /tmp.
inline std::string DefaultSpillDir() {
  const char* tmpdir = std::getenv("TMPDIR");
  if (tmpdir != nullptr && tmpdir[0] != '\0') return tmpdir;
  return "/tmp";
}

// Records per chunk: large enough that the pool mutex is touched once per
// thousands of appends, small enough that a mostly-empty bucket does not
// pin much memory (64 KiB of values for an 8-byte V).
inline constexpr size_t kChunkRecords = 8192;

// One columnar chunk: parallel key/value arrays, filled front to back.
template <typename V>
struct RecordChunk {
  std::unique_ptr<int32_t[]> keys;
  std::unique_ptr<V[]> values;
  size_t size = 0;

  static constexpr size_t kBytes =
      kChunkRecords * (sizeof(int32_t) + sizeof(V));
};

// Free list of chunks shared by all buffers of one job. Thread-safe; the
// lock is taken once per kChunkRecords appends, not per record.
template <typename V>
class ChunkPool {
 public:
  RecordChunk<V> Acquire() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        RecordChunk<V> chunk = std::move(free_.back());
        free_.pop_back();
        chunk.size = 0;
        return chunk;
      }
    }
    static_assert(std::is_trivially_copyable_v<V>,
                  "columnar chunks require a trivially copyable value");
    RecordChunk<V> chunk;
    chunk.keys = std::make_unique_for_overwrite<int32_t[]>(kChunkRecords);
    chunk.values = std::make_unique_for_overwrite<V[]>(kChunkRecords);
    allocated_bytes_.fetch_add(RecordChunk<V>::kBytes,
                               std::memory_order_relaxed);
    return chunk;
  }

  void Release(RecordChunk<V>&& chunk) {
    if (chunk.keys == nullptr) return;
    const std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(chunk));
  }

  // Bytes of chunk storage ever allocated (not returned on Release —
  // reused chunks cost nothing). Zero growth across runs is the
  // steady-state allocation-free property the tests assert.
  size_t allocated_bytes() const {
    return allocated_bytes_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::vector<RecordChunk<V>> free_;
  std::atomic<size_t> allocated_bytes_{0};
};

// Append-only chunked columnar buffer (one map task x one reducer).
template <typename V>
class RecordBuffer {
 public:
  void Append(int32_t key, const V& value, ChunkPool<V>& pool) {
    if (chunks_.empty() || chunks_.back().size == kChunkRecords) {
      chunks_.push_back(pool.Acquire());
    }
    RecordChunk<V>& chunk = chunks_.back();
    chunk.keys[chunk.size] = key;
    std::memcpy(&chunk.values[chunk.size], &value, sizeof(V));
    ++chunk.size;
    ++size_;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t bytes() const { return size_ * (sizeof(int32_t) + sizeof(V)); }
  const std::vector<RecordChunk<V>>& chunks() const { return chunks_; }

  // Returns every chunk to the pool for the next wave to reuse.
  void ReleaseTo(ChunkPool<V>& pool) {
    for (RecordChunk<V>& chunk : chunks_) pool.Release(std::move(chunk));
    chunks_.clear();
    size_ = 0;
  }

  // Frees chunk memory outright (budget-driven spill: the point is to
  // shrink the job's footprint, so spilled chunks must not linger in the
  // pool).
  void Free() {
    chunks_.clear();
    chunks_.shrink_to_fit();
    size_ = 0;
  }

 private:
  std::vector<RecordChunk<V>> chunks_;
  size_t size_ = 0;
};

// Growable scratch array. Ensure() invalidates previous contents; the
// capacity persists across waves so steady-state calls allocate nothing.
template <typename T>
class FlatArray {
 public:
  T* Ensure(size_t n, std::atomic<size_t>& alloc_bytes) {
    if (n > capacity_) {
      size_t grown = std::max(n, capacity_ * 2);
      data_ = std::make_unique_for_overwrite<T[]>(grown);
      alloc_bytes.fetch_add(grown * sizeof(T), std::memory_order_relaxed);
      capacity_ = grown;
    }
    return data_.get();
  }
  T* data() { return data_.get(); }
  const T* data() const { return data_.get(); }
  size_t capacity() const { return capacity_; }

 private:
  std::unique_ptr<T[]> data_;
  size_t capacity_ = 0;
};

// Counting-sort grouping of columnar segments; see file comment.
template <typename V>
class GroupScratch {
 public:
  struct Segment {
    const int32_t* keys;
    const V* values;
    size_t n;
  };

  void Clear() {
    segments_.clear();
    total_ = 0;
    num_runs_ = 0;
  }

  void AddSegment(const int32_t* keys, const V* values, size_t n) {
    if (n == 0) return;
    segments_.push_back(Segment{keys, values, n});
    total_ += n;
  }

  // Adds every chunk of `buffer` as a segment (in append order).
  void AddBuffer(const RecordBuffer<V>& buffer) {
    for (const RecordChunk<V>& chunk : buffer.chunks()) {
      AddSegment(chunk.keys.get(), chunk.values.get(), chunk.size);
    }
  }

  size_t total() const { return total_; }

  // Groups every added segment by key. Returns the bytes copied (the one
  // scatter pass; the sparse fallback pays one extra staging copy).
  // After the call: num_runs() ascending distinct keys, run_key(i),
  // run_values(i) spans into stable storage owned by this scratch.
  size_t Group(std::atomic<size_t>& alloc_bytes) {
    num_runs_ = 0;
    if (total_ == 0) return 0;
    int32_t min_key = segments_[0].keys[0];
    int32_t max_key = min_key;
    for (const Segment& seg : segments_) {
      for (size_t i = 0; i < seg.n; ++i) {
        const int32_t k = seg.keys[i];
        min_key = std::min(min_key, k);
        max_key = std::max(max_key, k);
      }
    }
    const int64_t range =
        static_cast<int64_t>(max_key) - static_cast<int64_t>(min_key) + 1;
    V* grouped = grouped_.Ensure(total_, alloc_bytes);
    run_keys_.Ensure(total_, alloc_bytes);
    run_starts_.Ensure(total_ + 1, alloc_bytes);
    if (range <= static_cast<int64_t>(4 * total_ + 1024)) {
      return GroupDense(min_key, static_cast<size_t>(range), grouped,
                        alloc_bytes);
    }
    return GroupSparse(grouped, alloc_bytes);
  }

  size_t num_runs() const { return num_runs_; }
  int32_t run_key(size_t i) const { return run_keys_.data()[i]; }
  std::span<const V> run_values(size_t i) const {
    const size_t* starts = run_starts_.data();
    return std::span<const V>(grouped_.data() + starts[i],
                              starts[i + 1] - starts[i]);
  }
  // All grouped values, run-major (ascending key).
  std::span<const V> grouped() const {
    return std::span<const V>(grouped_.data(), total_);
  }

 private:
  size_t GroupDense(int32_t min_key, size_t range, V* grouped,
                    std::atomic<size_t>& alloc_bytes) {
    size_t* cursor = cursor_.Ensure(range, alloc_bytes);
    std::memset(cursor, 0, range * sizeof(size_t));
    for (const Segment& seg : segments_) {
      for (size_t i = 0; i < seg.n; ++i) {
        ++cursor[static_cast<size_t>(seg.keys[i] - min_key)];
      }
    }
    // One pass turns the histogram into scatter cursors and the run list.
    int32_t* run_keys = run_keys_.data();
    size_t* run_starts = run_starts_.data();
    size_t acc = 0;
    for (size_t k = 0; k < range; ++k) {
      const size_t count = cursor[k];
      if (count != 0) {
        run_keys[num_runs_] = min_key + static_cast<int32_t>(k);
        run_starts[num_runs_] = acc;
        ++num_runs_;
      }
      cursor[k] = acc;
      acc += count;
    }
    run_starts[num_runs_] = acc;
    for (const Segment& seg : segments_) {
      for (size_t i = 0; i < seg.n; ++i) {
        const size_t pos = cursor[static_cast<size_t>(seg.keys[i] - min_key)]++;
        std::memcpy(&grouped[pos], &seg.values[i], sizeof(V));
      }
    }
    return total_ * sizeof(V);
  }

  // Sparse keys (range >> record count): stage everything flat and
  // stable-sort a permutation. Never hit by the skyline pipeline (keys
  // are group ids); correctness net for arbitrary engine users.
  size_t GroupSparse(V* grouped, std::atomic<size_t>& alloc_bytes) {
    int32_t* keys_flat = keys_flat_.Ensure(total_, alloc_bytes);
    V* values_flat = values_flat_.Ensure(total_, alloc_bytes);
    size_t pos = 0;
    for (const Segment& seg : segments_) {
      std::memcpy(keys_flat + pos, seg.keys, seg.n * sizeof(int32_t));
      std::memcpy(values_flat + pos, seg.values, seg.n * sizeof(V));
      pos += seg.n;
    }
    uint32_t* order = order_.Ensure(total_, alloc_bytes);
    std::iota(order, order + total_, 0u);
    std::stable_sort(order, order + total_, [&](uint32_t a, uint32_t b) {
      return keys_flat[a] < keys_flat[b];
    });
    int32_t* run_keys = run_keys_.data();
    size_t* run_starts = run_starts_.data();
    for (size_t i = 0; i < total_; ++i) {
      const int32_t k = keys_flat[order[i]];
      if (num_runs_ == 0 || run_keys[num_runs_ - 1] != k) {
        run_keys[num_runs_] = k;
        run_starts[num_runs_] = i;
        ++num_runs_;
      }
      std::memcpy(&grouped[i], &values_flat[order[i]], sizeof(V));
    }
    run_starts[num_runs_] = total_;
    return total_ * (2 * sizeof(V) + sizeof(int32_t));
  }

  std::vector<Segment> segments_;
  size_t total_ = 0;
  size_t num_runs_ = 0;
  FlatArray<V> grouped_;
  FlatArray<int32_t> run_keys_;
  FlatArray<size_t> run_starts_;
  FlatArray<size_t> cursor_;
  // Sparse-fallback staging.
  FlatArray<int32_t> keys_flat_;
  FlatArray<V> values_flat_;
  FlatArray<uint32_t> order_;
};

}  // namespace zsky::mr

#endif  // ZSKY_MAPREDUCE_RECORD_BUFFER_H_
