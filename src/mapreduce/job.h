#ifndef ZSKY_MAPREDUCE_JOB_H_
#define ZSKY_MAPREDUCE_JOB_H_

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "mapreduce/metrics.h"
#include "mapreduce/record_buffer.h"
#include "mapreduce/worker_pool.h"

namespace zsky::mr {

// Process-unique id for spill-file naming. A raw `this` address is not
// enough: allocators reuse addresses, so two consecutive jobs could write
// to the same spill path and corrupt each other's shuffle.
inline uint64_t NextSpillFileId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// A single MapReduce job over in-memory data, faithful to the Hadoop
// execution model the paper targets:
//
//   splits --(map tasks, worker pool)--> keyed records
//          --(per-map-task combiner)--> combined records
//          --(shuffle: reducers pull their bucket slices, bytes counted)-->
//          --(reduce tasks, worker pool)--> user-collected output
//
// V is the record value type. Keys are int32 (>= 0); negative keys are
// dropped by the engine (the paper's "if gid is NULL" path for pruned
// partitions).
//
// The record path is columnar and zero-copy (docs/mapreduce.md): map
// tasks append records to per-reducer chunked arenas through a concrete
// (non-type-erased) emitter, the shuffle groups each reducer's records by
// counting sort over the int32 keys, and reducers consume the grouped
// values as std::span slices — one value copy per record end to end, no
// per-record heap allocation in steady state (chunks and scratch are
// pooled across Run() calls on one job). The functors are template
// parameters of Run(), so the whole per-record path inlines:
//
//   job.Run(splits,
//       [&](size_t split, auto& emit) { emit(key, value); },        // map
//       [&](int32_t k, std::span<const V> vs, auto&& emit) {        // combine
//         for (const V& v : Collapse(vs)) emit(v);                  // (or
//       },                                                          // nullptr)
//       [&](int32_t k, std::span<const V> vs) { ... });             // reduce
//
// Reducers see each key's values in task-major order (split 0's records
// first, in emit order), and keys in ascending order. V must be trivially
// copyable: records move through arenas and spill files as raw bytes.
//
// Every wave — map, shuffle pull, collapse, reduce — runs on one
// WorkerPool with morsel-driven work stealing (docs/scheduling.md).
//
// Thread-safety contract: MapFn runs concurrently across splits (emit is
// task-local). CombineFn runs concurrently across map tasks. ReduceFn runs
// concurrently across keys; it must synchronize its own output sink.
// SizeFn runs concurrently across reducers during the shuffle pull.
template <typename V>
class MapReduceJob {
 public:
  // Wave identifiers for the failure injector.
  enum class Wave { kMap = 0, kReduce = 1 };

  struct Options {
    uint32_t num_reduce_tasks = 4;
    // Worker threads for both waves (0 = hardware concurrency). Ignored
    // when `pool` is set (the pool's size wins).
    uint32_t num_threads = 0;
    bool enable_combiner = true;
    // Simulated per-record shuffle overhead in bytes (key + framing).
    size_t record_overhead_bytes = 8;

    // --- Worker pool. ---
    // Persistent pool to run the waves and the shuffle on, shared across
    // jobs (one per executor). When null, the job creates its own pool,
    // reused across its map wave, shuffle and reduce wave. Not owned.
    // Steal accounting of the map, collapse and reduce waves lands in
    // JobMetrics::{morsels_total, tasks_stolen}.
    WorkerPool* pool = nullptr;
    // When > 0 (and the job has a combiner), grouped runs whose length
    // exceeds max(2 * reduce_morsel_records, 2 * mean run length) are
    // pre-collapsed before the reduce wave: the run is cut into
    // ~reduce_morsel_records-sized key-range slices, each slice is pushed
    // through the combiner as its own stealable task, and the reducer
    // then sees the concatenated combiner output instead of the raw run.
    // Legal for Hadoop-style combiners, which may run any number of times
    // (map side and reduce side); leave 0 for combiners that must run at
    // most once per key (e.g. non-idempotent aggregates).
    size_t reduce_morsel_records = 0;
    // Optional record count of split `i`, used to fill the map tasks'
    // TaskMetrics::records_in (left zero when absent — the engine cannot
    // see into opaque splits).
    std::function<size_t(size_t split)> split_size;

    // --- Disk-backed shuffle (Hadoop-style spill). ---
    // When true, every map task's output is written to a spill file and
    // freed from memory; the shuffle reads the files back. Adds real disk
    // I/O to the measured times (the paper's intermediate-data disk
    // overhead).
    bool spill_to_disk = false;
    // When > 0 and spill_to_disk is off: memory budget for buffered map
    // output, accounted at chunk CAPACITY (what the arenas actually pin,
    // not just the records in them — a many-task job with near-empty
    // buckets pins far more than its record bytes). Enforced during the
    // map wave: a task finishing while the wave is over budget spills
    // (and frees) its own buffers immediately, so peak resident stays
    // ~budget + the in-flight tasks, never O(tasks). After the wave the
    // largest remaining buffers are spilled until the rest fits — a
    // partial, need-driven spill instead of all-or-nothing.
    size_t shuffle_memory_budget_bytes = 0;
    std::string spill_dir = DefaultSpillDir();

    // --- Fault tolerance (Hadoop-style task retry). ---
    // A task attempt either commits its output atomically or leaves none;
    // failed attempts are retried up to this many times.
    uint32_t max_task_attempts = 1;
    // Failure injection for tests/experiments: invoked before each task
    // attempt; returning true simulates a crash of that attempt.
    std::function<bool(Wave wave, size_t task, uint32_t attempt)>
        failure_injector;
  };

  explicit MapReduceJob(const Options& options) : options_(options) {
    ZSKY_CHECK(options.num_reduce_tasks >= 1);
    if (options_.pool != nullptr) {
      pool_ = options_.pool;
    } else {
      owned_pool_ = std::make_unique<WorkerPool>(options_.num_threads);
      pool_ = owned_pool_.get();
    }
  }

  // Runs the job; `combine` may be the nullptr literal (no combiner).
  // map(split, auto& emit); combine(key, std::span<const V>, auto&& emit);
  // reduce(key, std::span<const V>); size_of(const V&) -> size_t sizes a
  // record for shuffle-byte accounting (nullptr = sizeof(V)).
  // Returns metrics.
  template <typename MapFn, typename CombineFn, typename ReduceFn,
            typename SizeFn = std::nullptr_t>
  JobMetrics Run(size_t num_splits, MapFn&& map, CombineFn&& combine,
                 ReduceFn&& reduce, SizeFn&& size_of = nullptr) {
    static_assert(std::is_trivially_copyable_v<V>,
                  "MapReduceJob values move as raw bytes");
    return RunColumnar(num_splits, map, combine, reduce, size_of);
  }

 private:
  template <typename Fn>
  static constexpr bool kIsNull =
      std::is_same_v<std::remove_cvref_t<Fn>, std::nullptr_t>;

  // Shared attempt loop of both waves: charges failed attempts and
  // reports whether the task may run (attempts left). Task bodies only
  // execute on the committed attempt (atomic output commit).
  struct AttemptGate {
    const Options& options;
    std::vector<size_t> failures;
    std::vector<uint8_t> gave_up;

    AttemptGate(const Options& options_in, size_t capacity)
        : options(options_in), failures(capacity, 0), gave_up(capacity, 0) {}

    bool Admit(Wave wave, size_t task) {
      for (uint32_t attempt = 1; attempt <= options.max_task_attempts;
           ++attempt) {
        if (options.failure_injector != nullptr &&
            options.failure_injector(wave, task, attempt)) {
          ++failures[task];
          ZSKY_TRACE_INSTANT(
              "mr.task_retry",
              "{\"wave\":" + std::to_string(static_cast<int>(wave)) +
                  ",\"task\":" + std::to_string(task) +
                  ",\"failed_attempt\":" + std::to_string(attempt) + "}");
          continue;
        }
        return true;
      }
      gave_up[task] = 1;
      return false;
    }

    void Harvest(size_t count, JobMetrics& metrics) {
      for (size_t task = 0; task < count; ++task) {
        metrics.failed_attempts += failures[task];
        if (gave_up[task]) metrics.succeeded = false;
        failures[task] = 0;
        gave_up[task] = 0;
      }
    }
  };

  // Removes any spill files still on disk when the job scope is left —
  // the success path and every failure path share this cleanup.
  struct SpillFileGuard {
    const std::vector<std::string>* paths;
    ~SpillFileGuard() {
      for (const std::string& path : *paths) {
        if (!path.empty()) std::remove(path.c_str());
      }
    }
  };

  std::string SpillFilePath(size_t task) const {
    return options_.spill_dir + "/zsky_spill_" +
           std::to_string(static_cast<uint64_t>(::getpid())) + "_" +
           std::to_string(NextSpillFileId()) + "_" + std::to_string(task) +
           ".bin";
  }

  // Which map tasks to spill: all of them under spill_to_disk, else the
  // largest buffers until the remainder fits the memory budget.
  std::vector<uint8_t> ChooseSpills(
      const std::vector<size_t>& task_bytes) const {
    std::vector<uint8_t> spill(task_bytes.size(), 0);
    if (options_.spill_to_disk) {
      std::fill(spill.begin(), spill.end(), 1);
      return spill;
    }
    if (options_.shuffle_memory_budget_bytes == 0) return spill;
    size_t total = 0;
    for (size_t bytes : task_bytes) total += bytes;
    std::vector<size_t> order(task_bytes.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return task_bytes[a] > task_bytes[b];
    });
    for (size_t task : order) {
      if (total <= options_.shuffle_memory_budget_bytes) break;
      if (task_bytes[task] == 0) break;
      spill[task] = 1;
      total -= task_bytes[task];
    }
    return spill;
  }

  // Concrete emitter: appends straight into the task's per-reducer
  // arenas. No virtual dispatch, no std::function — with a templated map
  // functor the whole emit inlines to a bounds check plus two stores.
  class Emitter {
   public:
    Emitter(RecordBuffer<V>* buckets, uint32_t num_reducers,
            ChunkPool<V>* pool)
        : buckets_(buckets), num_reducers_(num_reducers), pool_(pool) {}

    void operator()(int32_t key, V value) {
      if (key < 0) return;  // Dropped record (pruned partition).
      ++emitted_;
      buckets_[static_cast<uint32_t>(key) % num_reducers_].Append(key, value,
                                                                  *pool_);
    }

    size_t emitted() const { return emitted_; }

   private:
    RecordBuffer<V>* buckets_;
    uint32_t num_reducers_;
    ChunkPool<V>* pool_;
    size_t emitted_ = 0;
  };

  // Per-map-task state, pooled across Run() calls (buckets keep their
  // chunk vectors, scratch keeps its capacity).
  struct MapTaskState {
    std::vector<RecordBuffer<V>> buckets;  // One per reducer.
    GroupScratch<V> combine_scratch;
    RecordBuffer<V> combine_out;
    std::vector<uint64_t> spill_counts;
    size_t records_in = 0;
    size_t records_out = 0;
    size_t combine_in = 0;
    size_t combine_out_records = 0;
  };

  // Per-reducer state, pooled across Run() calls.
  struct ReducerState {
    GroupScratch<V> scratch;
    FlatArray<int32_t> spill_keys;
    FlatArray<V> spill_values;
    // Collapse-wave view (Options::reduce_morsel_records > 0): when the
    // view was built this run, the reduce task iterates `runs` instead of
    // the scratch — uncollapsed runs alias the scratch's grouped storage,
    // collapsed runs alias `collapse_store`.
    std::vector<std::pair<int32_t, std::span<const V>>> runs;
    FlatArray<V> collapse_store;
    size_t records = 0;
    size_t bytes = 0;
    size_t copy_bytes = 0;
    size_t reduce_in = 0;
  };

  template <typename MapFn, typename CombineFn, typename ReduceFn,
            typename SizeFn>
  JobMetrics RunColumnar(size_t num_splits, MapFn& map, CombineFn& combine,
                         ReduceFn& reduce, SizeFn& size_of) {
    JobMetrics metrics;
    Stopwatch total_watch;
    const uint32_t r = options_.num_reduce_tasks;
    const size_t pool_alloc_before = chunk_pool_.allocated_bytes();
    const size_t flat_alloc_before =
        flat_alloc_bytes_.load(std::memory_order_relaxed);

    AttemptGate gate(options_, std::max<size_t>(num_splits, r));
    if (map_state_.size() < num_splits) map_state_.resize(num_splits);
    if (reduce_state_.size() < r) reduce_state_.resize(r);

    // Spill bookkeeping lives above the map wave because the budget is
    // enforced *inside* it: worker threads write only their own task's
    // slots, so no locking is needed.
    std::vector<std::string> spill_paths(num_splits);
    std::vector<uint8_t> spilled(num_splits, 0);
    std::vector<size_t> spill_bytes_by_task(num_splits, 0);
    std::atomic<size_t> wave_buffered_bytes{0};
    const SpillFileGuard spill_guard{&spill_paths};

    // --- Map wave: each task appends into its own per-reducer arenas,
    // then (optionally) collapses them key-by-key through the combiner. ---
    Stopwatch map_watch;
    metrics.map_tasks = RunWave("mr.map_wave", num_splits, [&](size_t task) {
      ZSKY_TRACE_SPAN_ARGS("mr.map_task",
                           "{\"task\":" + std::to_string(task) + "}");
      MapTaskState& state = map_state_[task];
      state.buckets.resize(r);
      state.records_in = 0;
      state.records_out = 0;
      state.combine_in = 0;
      state.combine_out_records = 0;
      if (!gate.Admit(Wave::kMap, task)) return;
      if (options_.split_size != nullptr) {
        state.records_in = options_.split_size(task);
      }
      Emitter emit(state.buckets.data(), r, &chunk_pool_);
      map(task, emit);
      state.records_out = emit.emitted();

      if constexpr (!kIsNull<CombineFn>) {
        if (options_.enable_combiner) {
          for (RecordBuffer<V>& bucket : state.buckets) {
            if (bucket.empty()) continue;
            state.combine_scratch.Clear();
            state.combine_scratch.AddBuffer(bucket);
            state.combine_scratch.Group(flat_alloc_bytes_);
            RecordBuffer<V>& out = state.combine_out;
            for (size_t i = 0; i < state.combine_scratch.num_runs(); ++i) {
              const int32_t key = state.combine_scratch.run_key(i);
              const std::span<const V> values =
                  state.combine_scratch.run_values(i);
              state.combine_in += values.size();
              const size_t before = out.size();
              combine(key, values,
                      [&](V value) { out.Append(key, value, chunk_pool_); });
              state.combine_out_records += out.size() - before;
            }
            bucket.ReleaseTo(chunk_pool_);
            std::swap(bucket, out);
          }
        }
      }

      // Mid-wave budget enforcement: once the wave's buffered capacity
      // crosses the budget, every task that finishes spills itself right
      // here on the worker thread — its output is complete, nobody else
      // touches its state, and waiting for the wave barrier would let the
      // buffered set grow O(tasks).
      if (options_.shuffle_memory_budget_bytes > 0) {
        size_t capacity = 0;
        for (const RecordBuffer<V>& bucket : state.buckets) {
          capacity += bucket.chunks().size() * RecordChunk<V>::kBytes;
        }
        const size_t now = wave_buffered_bytes.fetch_add(
                               capacity, std::memory_order_relaxed) +
                           capacity;
        if (now > options_.shuffle_memory_budget_bytes && capacity > 0) {
          spill_paths[task] =
              SpillColumnar(task, state, &spill_bytes_by_task[task]);
          for (RecordBuffer<V>& bucket : state.buckets) bucket.Free();
          spilled[task] = 1;
          wave_buffered_bytes.fetch_sub(capacity, std::memory_order_relaxed);
        }
      }
    }, metrics);
    metrics.map_wall_ms = map_watch.ElapsedMs();
    gate.Harvest(num_splits, metrics);
    for (size_t task = 0; task < num_splits; ++task) {
      metrics.map_tasks[task].records_in = map_state_[task].records_in;
      metrics.map_tasks[task].records_out = map_state_[task].records_out;
      metrics.combiner_in += map_state_[task].combine_in;
      metrics.combiner_out += map_state_[task].combine_out_records;
    }

    // --- Spill: write chosen tasks' arenas out as sectioned columnar
    // files and free their memory. All tasks under spill_to_disk; under a
    // memory budget, only the largest remaining buffers (capacity
    // accounting, matching the mid-wave check) until the rest fits. ---
    if (options_.spill_to_disk || options_.shuffle_memory_budget_bytes > 0) {
      std::vector<size_t> task_bytes(num_splits, 0);
      for (size_t task = 0; task < num_splits; ++task) {
        if (spilled[task]) continue;  // Already on disk from mid-wave.
        for (const RecordBuffer<V>& bucket : map_state_[task].buckets) {
          task_bytes[task] += bucket.chunks().size() * RecordChunk<V>::kBytes;
        }
      }
      const std::vector<uint8_t> choose = ChooseSpills(task_bytes);
      for (size_t task = 0; task < num_splits; ++task) {
        if (spilled[task] || !choose[task]) continue;
        spill_paths[task] =
            SpillColumnar(task, map_state_[task], &spill_bytes_by_task[task]);
        for (RecordBuffer<V>& bucket : map_state_[task].buckets) {
          bucket.Free();
        }
        spilled[task] = 1;
      }
    }
    for (size_t task = 0; task < num_splits; ++task) {
      if (spilled[task]) {
        ++metrics.spilled_tasks;
        metrics.spill_bytes += spill_bytes_by_task[task];
      }
    }

    // --- Shuffle: every reducer pulls its arena slices (and spill-file
    // sections), groups them by counting sort, and keeps the grouped
    // storage for its reduce task to read as spans. Slices are disjoint,
    // so the concurrent pull needs no locking. The pull wave stays out of
    // the steal accounting, which covers the map, collapse and reduce
    // waves only. ---
    Stopwatch shuffle_watch;
    auto pull_reducer = [&](size_t reducer) {
      ZSKY_TRACE_SPAN_ARGS("mr.shuffle_pull",
                           "{\"reducer\":" + std::to_string(reducer) + "}");
      ReducerState& state = reduce_state_[reducer];
      state.scratch.Clear();
      state.records = 0;
      state.bytes = 0;
      state.copy_bytes = 0;
      size_t spilled_total = 0;
      for (size_t task = 0; task < num_splits; ++task) {
        if (spilled[task] && !map_state_[task].spill_counts.empty()) {
          spilled_total += map_state_[task].spill_counts[reducer];
        }
      }
      int32_t* spill_keys =
          state.spill_keys.Ensure(spilled_total, flat_alloc_bytes_);
      V* spill_values =
          state.spill_values.Ensure(spilled_total, flat_alloc_bytes_);
      size_t spill_pos = 0;
      for (size_t task = 0; task < num_splits; ++task) {
        if (spilled[task]) {
          if (map_state_[task].spill_counts.empty()) continue;
          const uint64_t want = map_state_[task].spill_counts[reducer];
          if (want == 0) continue;
          ReadSpillSlices(spill_paths[task], map_state_[task].spill_counts,
                          static_cast<uint32_t>(reducer),
                          spill_keys + spill_pos, spill_values + spill_pos);
          state.scratch.AddSegment(spill_keys + spill_pos,
                                   spill_values + spill_pos, want);
          state.copy_bytes += want * kSpillRecordBytes;
          spill_pos += want;
        } else {
          state.scratch.AddBuffer(map_state_[task].buckets[reducer]);
        }
      }
      state.records = state.scratch.total();
      state.copy_bytes += state.scratch.Group(flat_alloc_bytes_);
      if constexpr (!kIsNull<SizeFn>) {
        size_t bytes = state.records * options_.record_overhead_bytes;
        for (const V& value : state.scratch.grouped()) bytes += size_of(value);
        state.bytes = bytes;
      } else {
        state.bytes =
            state.records * (options_.record_overhead_bytes + sizeof(V));
      }
    };
    {
      ZSKY_TRACE_SPAN_ARGS("mr.shuffle",
                           "{\"reducers\":" + std::to_string(r) + "}");
      pool_->Run(r, pull_reducer);
    }
    for (uint32_t reducer = 0; reducer < r; ++reducer) {
      metrics.shuffle_records += reduce_state_[reducer].records;
      metrics.shuffle_bytes += reduce_state_[reducer].bytes;
      metrics.shuffle_copy_bytes += reduce_state_[reducer].copy_bytes;
    }
    // The shuffle copied everything it needs; the arenas go back to the
    // pool for the next wave before the reduce runs.
    for (size_t task = 0; task < num_splits; ++task) {
      for (RecordBuffer<V>& bucket : map_state_[task].buckets) {
        bucket.ReleaseTo(chunk_pool_);
      }
    }
    metrics.shuffle_wall_ms = shuffle_watch.ElapsedMs();

    // --- Collapse wave (optional): cut oversized grouped runs into
    // key-range slices and push each slice through the combiner as its
    // own stealable task, so one giant key is drained by every idle slot
    // instead of serializing its reducer. ---
    // Governed by reduce_morsel_records alone: enable_combiner only turns
    // off *map-side* combining, and a pipeline may legitimately want raw
    // shuffles but still pre-combine oversized runs in parallel slices
    // (combiners are allowed to run 0..N times at either side).
    bool use_runs_view = false;
    if constexpr (!kIsNull<CombineFn>) {
      if (options_.reduce_morsel_records > 0) {
        use_runs_view = CollapseOversizedRuns(r, combine, metrics);
      }
    }

    // --- Reduce wave: one task per reducer; each reducer walks its
    // grouped runs in ascending key order (Hadoop semantics), handing the
    // user one in-place span per key. ---
    Stopwatch reduce_watch;
    metrics.reduce_tasks = RunWave("mr.reduce_wave", r, [&](size_t reducer) {
      ZSKY_TRACE_SPAN_ARGS("mr.reduce_task",
                           "{\"reducer\":" + std::to_string(reducer) + "}");
      ReducerState& state = reduce_state_[reducer];
      state.reduce_in = 0;
      if (!gate.Admit(Wave::kReduce, reducer)) return;
      if (use_runs_view) {
        for (const auto& [key, values] : state.runs) {
          state.reduce_in += values.size();
          reduce(key, values);
        }
      } else {
        for (size_t i = 0; i < state.scratch.num_runs(); ++i) {
          const std::span<const V> values = state.scratch.run_values(i);
          state.reduce_in += values.size();
          reduce(state.scratch.run_key(i), values);
        }
      }
    }, metrics);
    metrics.reduce_wall_ms = reduce_watch.ElapsedMs();
    gate.Harvest(r, metrics);
    for (uint32_t reducer = 0; reducer < r; ++reducer) {
      metrics.reduce_tasks[reducer].records_in =
          reduce_state_[reducer].reduce_in;
    }

    metrics.shuffle_alloc_bytes =
        (chunk_pool_.allocated_bytes() - pool_alloc_before) +
        (flat_alloc_bytes_.load(std::memory_order_relaxed) -
         flat_alloc_before);
    metrics.total_wall_ms = total_watch.ElapsedMs();
    return metrics;
  }

  // Cuts grouped runs longer than max(2 * reduce_morsel_records,
  // 2 * mean run length) into ~reduce_morsel_records-sized key-range
  // slices, combines every slice as its own (stealable) wave task, and
  // rebuilds each reducer's iteration order as a run view: uncollapsed
  // runs keep their spans into the grouped scratch, collapsed runs point
  // at the slices' concatenated combiner output. Returns whether any run
  // was collapsed (i.e. whether the reduce wave must use the view). The
  // threshold is a function of the data only — never of the thread count —
  // so work counters stay schedule-invariant.
  template <typename CombineFn>
  bool CollapseOversizedRuns(uint32_t r, CombineFn& combine,
                             JobMetrics& metrics) {
    Stopwatch collapse_watch;
    const size_t target = options_.reduce_morsel_records;
    struct Slice {
      uint32_t reducer;
      size_t run;
      size_t begin;
      size_t end;
    };
    std::vector<Slice> slices;
    // A run is a straggler relative to the whole wave, so the mean run
    // length is global: a reducer holding one giant run (the common skew
    // shape — one hot key) must not measure that run against itself.
    size_t total_records = 0;
    size_t total_runs = 0;
    for (uint32_t reducer = 0; reducer < r; ++reducer) {
      total_records += reduce_state_[reducer].scratch.total();
      total_runs += reduce_state_[reducer].scratch.num_runs();
    }
    if (total_runs == 0) return false;
    const size_t mean = total_records / total_runs;
    const size_t threshold = std::max(2 * target, 2 * mean);
    for (uint32_t reducer = 0; reducer < r; ++reducer) {
      GroupScratch<V>& scratch = reduce_state_[reducer].scratch;
      const size_t num_runs = scratch.num_runs();
      for (size_t run = 0; run < num_runs; ++run) {
        const size_t len = scratch.run_values(run).size();
        if (len <= threshold) continue;
        ++metrics.collapsed_runs;
        const size_t pieces = (len + target - 1) / target;
        for (size_t k = 0; k < pieces; ++k) {
          slices.push_back(
              {reducer, run, k * len / pieces, (k + 1) * len / pieces});
        }
      }
    }
    if (slices.empty()) return false;

    // Each slice combines into its own arena: outputs are disjoint, so
    // the wave needs no locking.
    std::vector<RecordBuffer<V>> slice_out(slices.size());
    std::vector<size_t> slice_in(slices.size(), 0);
    metrics.collapse_task_metrics =
        RunWave("mr.collapse_wave", slices.size(), [&](size_t i) {
          const Slice& s = slices[i];
          const GroupScratch<V>& scratch = reduce_state_[s.reducer].scratch;
          const int32_t key = scratch.run_key(s.run);
          const std::span<const V> values =
              scratch.run_values(s.run).subspan(s.begin, s.end - s.begin);
          slice_in[i] = values.size();
          RecordBuffer<V>& out = slice_out[i];
          combine(key, values,
                  [&](V value) { out.Append(key, value, chunk_pool_); });
        }, metrics);

    std::vector<size_t> store_need(r, 0);
    for (size_t i = 0; i < slices.size(); ++i) {
      store_need[slices[i].reducer] += slice_out[i].size();
      metrics.combiner_in += slice_in[i];
      metrics.combiner_out += slice_out[i].size();
    }
    // Rebuild each reducer's view. Slices were generated in (reducer,
    // run, begin) order, so one forward cursor pairs them with runs.
    size_t slice_pos = 0;
    for (uint32_t reducer = 0; reducer < r; ++reducer) {
      ReducerState& state = reduce_state_[reducer];
      state.runs.clear();
      V* store = store_need[reducer] > 0
                     ? state.collapse_store.Ensure(store_need[reducer],
                                                   flat_alloc_bytes_)
                     : nullptr;
      size_t store_pos = 0;
      for (size_t run = 0; run < state.scratch.num_runs(); ++run) {
        if (slice_pos >= slices.size() ||
            slices[slice_pos].reducer != reducer ||
            slices[slice_pos].run != run) {
          state.runs.emplace_back(state.scratch.run_key(run),
                                  state.scratch.run_values(run));
          continue;
        }
        const size_t begin = store_pos;
        while (slice_pos < slices.size() &&
               slices[slice_pos].reducer == reducer &&
               slices[slice_pos].run == run) {
          for (const RecordChunk<V>& chunk : slice_out[slice_pos].chunks()) {
            if (chunk.size == 0) continue;
            std::memcpy(store + store_pos, chunk.values.get(),
                        chunk.size * sizeof(V));
            store_pos += chunk.size;
          }
          slice_out[slice_pos].ReleaseTo(chunk_pool_);
          ++slice_pos;
        }
        state.runs.emplace_back(
            state.scratch.run_key(run),
            std::span<const V>(store + begin, store_pos - begin));
      }
    }
    metrics.collapse_tasks = slices.size();
    metrics.collapse_wall_ms = collapse_watch.ElapsedMs();
    return true;
  }

  // Spill-file layout (columnar): a header of num_reduce_tasks uint64
  // record counts, then one section per reducer in reducer order — the
  // section's int32 keys as one block, then its V values as one block.
  // Whole-slice sections let every reducer read its keys and values with
  // two freads straight into flat scratch.
  static constexpr size_t kSpillRecordBytes = sizeof(int32_t) + sizeof(V);

  // `spill_bytes` is a per-task slot, not the shared JobMetrics: mid-wave
  // spills run concurrently on worker threads, and per-task accumulation
  // keeps them race-free (summed into metrics after the wave).
  std::string SpillColumnar(size_t task, MapTaskState& state,
                            size_t* spill_bytes) const {
    ZSKY_TRACE_SPAN_ARGS("mr.spill_write",
                         "{\"task\":" + std::to_string(task) + "}");
    const std::string path = SpillFilePath(task);
    const uint32_t r = options_.num_reduce_tasks;
    state.spill_counts.assign(r, 0);
    for (uint32_t reducer = 0; reducer < r; ++reducer) {
      state.spill_counts[reducer] = state.buckets[reducer].size();
    }
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ZSKY_CHECK_MSG(file != nullptr, "cannot create spill file");
    std::fwrite(state.spill_counts.data(), sizeof(uint64_t), r, file);
    *spill_bytes += r * sizeof(uint64_t);
    for (uint32_t reducer = 0; reducer < r; ++reducer) {
      const RecordBuffer<V>& bucket = state.buckets[reducer];
      for (const RecordChunk<V>& chunk : bucket.chunks()) {
        if (chunk.size == 0) continue;
        std::fwrite(chunk.keys.get(), sizeof(int32_t), chunk.size, file);
      }
      for (const RecordChunk<V>& chunk : bucket.chunks()) {
        if (chunk.size == 0) continue;
        std::fwrite(chunk.values.get(), sizeof(V), chunk.size, file);
      }
      *spill_bytes += bucket.size() * kSpillRecordBytes;
    }
    std::fclose(file);
    return path;
  }

  // Reads reducer `reducer`'s keys and values blocks into caller storage.
  void ReadSpillSlices(const std::string& path,
                       const std::vector<uint64_t>& counts, uint32_t reducer,
                       int32_t* keys_out, V* values_out) const {
    uint64_t skip = 0;
    for (uint32_t q = 0; q < reducer; ++q) skip += counts[q];
    const uint64_t want = counts[reducer];
    if (want == 0) return;
    std::FILE* file = std::fopen(path.c_str(), "rb");
    ZSKY_CHECK_MSG(file != nullptr, "cannot reopen spill file");
    // fseeko + off_t: a long offset truncates past 2 GiB on LP32/Windows
    // ABIs, silently corrupting large spills.
    const uint64_t offset =
        counts.size() * sizeof(uint64_t) + skip * kSpillRecordBytes;
    ZSKY_CHECK(::fseeko(file, static_cast<off_t>(offset), SEEK_SET) == 0);
    ZSKY_CHECK(std::fread(keys_out, sizeof(int32_t), want, file) == want);
    ZSKY_CHECK(std::fread(values_out, sizeof(V), want, file) == want);
    std::fclose(file);
  }

  // Runs one map, collapse or reduce wave of `count` tasks on the pool.
  // `span_name` labels the wave's trace span; the wave's steal accounting
  // is accumulated into `metrics`.
  std::vector<TaskMetrics> RunWave(const char* span_name, size_t count,
                                   const std::function<void(size_t)>& fn,
                                   JobMetrics& metrics) {
    ZSKY_TRACE_SPAN_ARGS(span_name,
                         "{\"tasks\":" + std::to_string(count) + "}");
    StealStats stats;
    std::vector<TaskMetrics> tasks = pool_->Run(count, fn, &stats);
    metrics.morsels_total += stats.morsels;
    metrics.tasks_stolen += stats.stolen;
    return tasks;
  }

  Options options_;
  WorkerPool* pool_ = nullptr;
  std::unique_ptr<WorkerPool> owned_pool_;

  // Record-path state, pooled across Run() calls on this job: the
  // steady-state allocation-free property comes from here.
  ChunkPool<V> chunk_pool_;
  std::atomic<size_t> flat_alloc_bytes_{0};
  std::vector<MapTaskState> map_state_;
  std::vector<ReducerState> reduce_state_;
};

}  // namespace zsky::mr

#endif  // ZSKY_MAPREDUCE_JOB_H_
