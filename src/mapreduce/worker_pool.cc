#include "mapreduce/worker_pool.h"

#include <algorithm>

#include "common/stopwatch.h"

namespace zsky::mr {

uint32_t ResolveThreads(uint32_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

WorkerPool::WorkerPool(uint32_t num_threads)
    : num_threads_(ResolveThreads(num_threads)), slots_(num_threads_ + 1) {
  slot_next_ = std::make_unique<std::atomic<size_t>[]>(slots_);
  slot_executed_ = std::make_unique<std::atomic<size_t>[]>(slots_);
  slot_end_.assign(slots_, 0);
  threads_.reserve(num_threads_);
  for (uint32_t t = 0; t < num_threads_; ++t) {
    threads_.emplace_back([this, t] { WorkerLoop(t); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::vector<TaskMetrics> WorkerPool::Run(
    size_t count, const std::function<void(size_t)>& fn, StealStats* stats) {
  std::vector<TaskMetrics> metrics(count);
  if (stats != nullptr) {
    stats->morsels = count;
    stats->stolen = 0;
    stats->per_slot.assign(slots_, 0);
  }
  if (count == 0) return metrics;
  const std::lock_guard<std::mutex> run_lock(run_mu_);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    wave_fn_ = &fn;
    wave_metrics_ = metrics.data();
    // Block-partition the index range: slot s owns
    // [count*s/slots_, count*(s+1)/slots_). Contiguous blocks keep each
    // owner's morsels cache-adjacent; the caller gets the last block.
    for (uint32_t s = 0; s < slots_; ++s) {
      slot_next_[s].store(count * s / slots_, std::memory_order_relaxed);
      slot_end_[s] = count * (s + 1) / slots_;
      slot_executed_[s].store(0, std::memory_order_relaxed);
    }
    stolen_.store(0, std::memory_order_relaxed);
    workers_active_ = num_threads_;
    ++generation_;
  }
  work_cv_.notify_all();
  DrainStealing(slots_ - 1);  // The calling thread owns the last queue.
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return workers_active_ == 0; });
    wave_fn_ = nullptr;
    wave_metrics_ = nullptr;
  }
  if (stats != nullptr) {
    stats->stolen = stolen_.load(std::memory_order_relaxed);
    for (uint32_t s = 0; s < slots_; ++s) {
      stats->per_slot[s] = slot_executed_[s].load(std::memory_order_relaxed);
    }
  }
  return metrics;
}

void WorkerPool::WorkerLoop(uint32_t slot) {
  uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    DrainStealing(slot);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (--workers_active_ == 0) done_cv_.notify_all();
    }
  }
}

void WorkerPool::DrainStealing(uint32_t slot) {
  RunQueue(slot, slot);  // Own queue first: no contention, cache-local.
  // Steal: pick a random victim with unclaimed morsels and drain it.
  // Termination is a full sweep finding every cursor at or past its block
  // end — cursors only grow and blocks never refill, so no morsel can
  // appear behind the sweep.
  uint64_t rng = 0x9E3779B97F4A7C15ULL ^ (uint64_t{slot} + 1);
  for (;;) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    const uint32_t start = static_cast<uint32_t>(rng % slots_);
    uint32_t victim = slots_;
    for (uint32_t i = 0; i < slots_; ++i) {
      const uint32_t v = (start + i) % slots_;
      if (v == slot) continue;
      if (slot_next_[v].load(std::memory_order_relaxed) < slot_end_[v]) {
        victim = v;
        break;
      }
    }
    if (victim == slots_) return;
    RunQueue(victim, slot);
  }
}

void WorkerPool::RunQueue(uint32_t queue, uint32_t slot) {
  const size_t end = slot_end_[queue];
  for (;;) {
    const size_t task = slot_next_[queue].fetch_add(1,
                                                    std::memory_order_relaxed);
    if (task >= end) return;
    Stopwatch watch;
    (*wave_fn_)(task);
    wave_metrics_[task].ms = watch.ElapsedMs();
    slot_executed_[slot].fetch_add(1, std::memory_order_relaxed);
    if (queue != slot) stolen_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace zsky::mr
