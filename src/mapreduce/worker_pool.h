#ifndef ZSKY_MAPREDUCE_WORKER_POOL_H_
#define ZSKY_MAPREDUCE_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "mapreduce/metrics.h"

namespace zsky::mr {

// Resolves a requested thread count: 0 selects the hardware concurrency,
// clamped to at least 1 because std::thread::hardware_concurrency() is
// allowed to return 0 when the platform cannot report it. Every place that
// sizes a pool from a user-supplied count goes through this.
uint32_t ResolveThreads(uint32_t requested);

// Per-wave accounting for Run (see docs/scheduling.md).
struct StealStats {
  // Total tasks (morsels) executed by the wave.
  size_t morsels = 0;
  // Tasks executed by a slot other than the one whose queue held them.
  size_t stolen = 0;
  // Tasks executed per slot; size is num_threads() + 1 (the last entry is
  // the calling thread, which always participates).
  std::vector<size_t> per_slot;
};

// A persistent pool of worker threads executing waves of independent
// tasks. The threads are created once and woken per wave with a condition
// variable, so running many small waves back-to-back — three waves per
// MapReduce job, two jobs plus a merge per skyline query — costs wakeups
// instead of thread creation.
//
// Scheduling is morsel-driven work stealing: the task index range is
// block-partitioned into one queue per slot (worker threads plus the
// caller). Each queue is an atomic cursor over its contiguous block, so
// the owner pops morsels with a single relaxed fetch_add and never touches
// a lock. When a slot's own queue drains it becomes a thief: it picks a
// random victim (xorshift seeded by slot id) and claims morsels from the
// victim's cursor — the same wait-free fetch_add the owner uses, so steals
// are lock-free and a skewed queue is drained by every idle core instead
// of one thread. A wave terminates when a full sweep over all queues finds
// no cursor below its block end; cursors only grow and blocks never
// refill, so the sweep cannot miss late work.
//
// Run() may be called from any thread; concurrent calls are serialized.
// It may not be called from inside a task running on the same pool (the
// wave would deadlock waiting for its own worker).
class WorkerPool {
 public:
  // `num_threads` == 0 selects the hardware concurrency (at least 1).
  explicit WorkerPool(uint32_t num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  uint32_t num_threads() const { return num_threads_; }
  // Execution slots per wave: pool threads plus the calling thread.
  uint32_t slots() const { return slots_; }

  // Executes fn(0) .. fn(count-1) on the pool (the calling thread helps)
  // and returns per-task metrics with wall times filled in. Blocks until
  // every task of the wave has finished. If `stats` is non-null it is
  // overwritten with this wave's steal accounting.
  std::vector<TaskMetrics> Run(size_t count,
                               const std::function<void(size_t)>& fn,
                               StealStats* stats = nullptr);

 private:
  void WorkerLoop(uint32_t slot);
  // Drains the slot's own queue, then steals until no queue anywhere has
  // unclaimed morsels.
  void DrainStealing(uint32_t slot);
  // Claims morsels from `queue`'s cursor until it passes the block end,
  // executing each on behalf of `slot`.
  void RunQueue(uint32_t queue, uint32_t slot);

  uint32_t num_threads_;
  uint32_t slots_;

  // Serializes concurrent Run() callers.
  std::mutex run_mu_;

  // Wave state below is written by Run() under `mu_` before workers are
  // woken and is not touched again until every worker has checked in, so
  // workers read it without holding the lock while draining.
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t generation_ = 0;
  bool stop_ = false;
  const std::function<void(size_t)>* wave_fn_ = nullptr;
  TaskMetrics* wave_metrics_ = nullptr;
  uint32_t workers_active_ = 0;

  // Per-slot queues: slot s owns task indices
  // [count*s/slots_, count*(s+1)/slots_). slot_next_ is the claim cursor,
  // slot_end_ the fixed block end for the current wave. slot_executed_
  // counts tasks run by each slot; stolen_ counts cross-queue claims.
  std::unique_ptr<std::atomic<size_t>[]> slot_next_;
  std::unique_ptr<std::atomic<size_t>[]> slot_executed_;
  std::vector<size_t> slot_end_;
  std::atomic<size_t> stolen_{0};

  std::vector<std::thread> threads_;
};

}  // namespace zsky::mr

#endif  // ZSKY_MAPREDUCE_WORKER_POOL_H_
