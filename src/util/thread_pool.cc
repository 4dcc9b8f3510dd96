#include "util/thread_pool.h"

#include <atomic>
#include <chrono>

#include "util/logging.h"

namespace cdcl {
namespace {

/// Busy-wait hint: de-pipelines the spin loop without yielding the core.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Yield rounds after the spin budget expires and before parking. Covers the
/// common back-to-back-regions gap (the launcher is runnable and about to
/// publish the next epoch) without committing a full condvar sleep/wake.
constexpr int kYieldRounds = 32;

/// Epoch checks between clock reads while spinning, so the spin loop is not
/// dominated by clock_gettime.
constexpr int kChecksPerClockRead = 64;

/// The newest epoch the calling thread launched, and on which pool. Rest()
/// compares it with the pool's epoch; keeping it thread-local leaves Launch
/// no extra shared write.
thread_local const RegionPool* tl_launch_pool = nullptr;
thread_local uint64_t tl_launch_epoch = 0;

}  // namespace

RegionPool::RegionPool(size_t num_workers, int64_t spin_us)
    : spin_us_(spin_us < 0 ? 0 : spin_us),
      progress_(new WorkerProgress[num_workers]) {
  CDCL_CHECK_GT(num_workers, 0u);
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

RegionPool::~RegionPool() {
  {
    // Flagging shutdown under the park mutex makes the wakeup race-free: a
    // worker that decided to park has either registered as a sleeper (and
    // receives this notify) or has not yet taken the mutex (and re-checks
    // shutdown under it before waiting).
    std::lock_guard<std::mutex> lock(park_mutex_);
    shutdown_.store(true, std::memory_order_seq_cst);
    park_cv_.notify_all();
  }
  for (auto& worker : workers_) worker.join();
}

bool RegionPool::TryBeginRegion() { return region_mutex_.try_lock(); }

void RegionPool::EndRegion() { region_mutex_.unlock(); }

void RegionPool::Launch(ChunkFn fn, void* ctx, int64_t chunks) {
  // Only the launcher bumps the epoch, and launchers are serialized by the
  // region mutex, so this relaxed read is this thread's own last bump.
  const uint64_t next_epoch = epoch_.load(std::memory_order_relaxed) + 1;
  if (next_epoch > kRing) {
    // Ring-reuse gate: the slot below was last used by epoch
    // next_epoch - kRing. A worker whose published progress is still at (or
    // before) that epoch may yet read the old descriptor, so wait until
    // every worker has moved past it. Workers parked on the epoch are
    // always fully caught up (they re-check before waiting), so this only
    // ever waits for runnable stragglers — and only once they are kRing
    // regions behind.
    const uint64_t floor = next_epoch - kRing;
    for (size_t w = 0; w < workers_.size(); ++w) {
      while (progress_[w].seen.load(std::memory_order_seq_cst) <= floor) {
        std::this_thread::yield();
      }
    }
  }
  tl_launch_pool = this;
  tl_launch_epoch = next_epoch;
  Slot& slot = slots_[next_epoch % kRing];
  slot.fn = fn;
  slot.ctx = ctx;
  slot.chunks = chunks;
  slot.next.store(0, std::memory_order_relaxed);
  slot.completed.store(0, std::memory_order_relaxed);
  active_slot_ = &slot;
  // The publish: workers that acquire-load the bumped epoch see the filled
  // descriptor. seq_cst pairs with the sleeper registration in AwaitEpoch —
  // if a worker misses this bump before registering, its sleepers_ increment
  // is visible to the load below and it gets notified.
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(park_mutex_);
    park_cv_.notify_all();
  }
}

void RegionPool::Rest() {
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (tl_launch_pool != this || tl_launch_epoch != epoch) return;
  rest_epoch_.store(epoch, std::memory_order_relaxed);
}

void RegionPool::JoinRegion() {
  Slot* slot = active_slot_;
  // The caller participates: usually it drains most (or, for tiny regions,
  // all) of the chunk counter itself, and the join below is already
  // satisfied — no worker round-trip on the region's critical path.
  DrainSlot(slot);
  const int64_t chunks = slot->chunks;
  if (slot->completed.load(std::memory_order_acquire) == chunks) return;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(spin_us_ > 0 ? spin_us_ : 1);
  for (;;) {
    for (int i = 0; i < kChecksPerClockRead; ++i) {
      if (slot->completed.load(std::memory_order_acquire) == chunks) return;
      CpuRelax();
    }
    if (std::chrono::steady_clock::now() >= deadline) break;
  }
  for (int i = 0; i < kYieldRounds; ++i) {
    if (slot->completed.load(std::memory_order_acquire) == chunks) return;
    std::this_thread::yield();
  }
  // Slow path: park until the last claimed chunk completes. seq_cst on the
  // flag and the completion counter gives the no-lost-wakeup ordering: if
  // the predicate below reads completed < chunks, the final increment has
  // not happened yet, so that participant's later read of joiner_waiting_
  // must see true.
  joiner_waiting_.store(true, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(join_mutex_);
    join_cv_.wait(lock, [slot, chunks] {
      return slot->completed.load(std::memory_order_seq_cst) == chunks;
    });
  }
  joiner_waiting_.store(false, std::memory_order_relaxed);
}

void RegionPool::DrainSlot(Slot* slot) {
  const int64_t chunks = slot->chunks;
  bool run = true;
  for (;;) {
    const int64_t c = slot->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks) break;
    // A claimed chunk pins the region: the launcher cannot leave JoinRegion
    // (and reclaim the chunk context) until this completion lands. After a
    // trapped error the participant keeps claiming but retires the chunks
    // unrun, so the completion count still converges.
    if (run) run = slot->fn(slot->ctx, c);
    if (slot->completed.fetch_add(1, std::memory_order_seq_cst) + 1 ==
            chunks &&
        joiner_waiting_.load(std::memory_order_seq_cst)) {
      // Empty critical section: serializes with the joiner between its
      // predicate check and its wait, so the notify cannot slip in between.
      { std::lock_guard<std::mutex> lock(join_mutex_); }
      join_cv_.notify_all();
    }
  }
}

void RegionPool::WorkerLoop(size_t index) {
  uint64_t seen = 0;
  for (;;) {
    uint64_t observed = seen;
    if (!AwaitEpoch(seen, &observed)) return;
    seen = observed;
    // Publish progress BEFORE touching the slot: the launcher's ring-reuse
    // gate reads this, so a slot is only rewritten once this store proves
    // the worker can no longer be between an older observation and its
    // drain. Skipped epochs (observed jumps) were completed by their own
    // callers — completion-joins never need this worker.
    progress_[index].seen.store(seen, std::memory_order_seq_cst);
    DrainSlot(&slots_[seen % kRing]);
  }
}

bool RegionPool::AwaitEpoch(uint64_t seen, uint64_t* observed) {
  // Phase 1: spin for spin_us_, unless a Rest() hint names this epoch.
  if (spin_us_ > 0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(spin_us_);
    for (;;) {
      for (int i = 0; i < kChecksPerClockRead; ++i) {
        const uint64_t e = epoch_.load(std::memory_order_acquire);
        if (e != seen) {
          *observed = e;
          return true;
        }
        if (shutdown_.load(std::memory_order_acquire)) return false;
        CpuRelax();
      }
      if (rest_epoch_.load(std::memory_order_relaxed) == seen ||
          std::chrono::steady_clock::now() >= deadline) {
        break;
      }
    }
  }
  // Phase 2: yield the core a bounded number of times.
  for (int i = 0; i < kYieldRounds; ++i) {
    const uint64_t e = epoch_.load(std::memory_order_acquire);
    if (e != seen) {
      *observed = e;
      return true;
    }
    if (shutdown_.load(std::memory_order_acquire)) return false;
    std::this_thread::yield();
  }
  // Phase 3: park. Register as a sleeper first (seq_cst), then re-check the
  // epoch: Launch bumps the epoch before reading sleepers_, so either we see
  // the new epoch here or Launch sees our registration and notifies.
  std::unique_lock<std::mutex> lock(park_mutex_);
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  for (;;) {
    const uint64_t e = epoch_.load(std::memory_order_seq_cst);
    if (e != seen) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      *observed = e;
      return true;
    }
    if (shutdown_.load(std::memory_order_seq_cst)) {
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      return false;
    }
    park_cv_.wait(lock);
  }
}

}  // namespace cdcl
