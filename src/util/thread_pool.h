#ifndef CDCL_UTIL_THREAD_POOL_H_
#define CDCL_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace cdcl {

/// Persistent parallel-region worker team for the kernel scheduler.
///
/// Workers are created once and then wait on an epoch counter: entering a
/// region is a single release-publish of a region descriptor plus an epoch
/// bump — no per-region mutex/condvar round-trips on the fast path. Waiting
/// workers spin (checking the epoch), then yield, then park on a condvar;
/// the launcher only takes the park mutex when a sleeper is registered, so
/// back-to-back regions stay entirely lock-free.
///
/// Joins are completion-based, not arrival-based: JoinRegion has the caller
/// drain the shared chunk counter itself and returns as soon as every chunk
/// has *completed*, whoever ran it — a descheduled worker never stalls the
/// launcher. Region descriptors therefore live in a pool-owned ring, not on
/// the launcher's stack: a straggling worker that wakes up epochs late jumps
/// straight to the newest descriptor, claims nothing if the region is
/// already drained, and never touches caller memory (the chunk context is
/// dereferenced only after a successful chunk claim, which JoinRegion's
/// completion wait pins alive). Ring-slot reuse is gated on every worker's
/// published epoch progress, so a descriptor is never overwritten while a
/// worker could still read it.
///
/// Region lifecycle (one launcher at a time, serialized by TryBeginRegion):
///
///   if (pool->TryBeginRegion()) {
///     pool->Launch(fn, ctx, chunks);  // publish: team claims chunk indices
///     pool->JoinRegion();             // caller participates, waits for
///     pool->EndRegion();              //   chunk completion, not arrival
///   } else {
///     // another thread's region is in flight: run the work inline
///   }
class RegionPool {
 public:
  /// Runs chunk `chunk_index` of the region against `ctx`. Returns false
  /// when this participant should stop executing chunks (the callback
  /// trapped an error into ctx); the pool then retires the chunks this
  /// participant claims afterwards without running them, so the region's
  /// completion count still converges.
  using ChunkFn = bool (*)(void* ctx, int64_t chunk_index);

  /// `spin_us` is the per-wait spin budget in microseconds before a waiting
  /// worker starts yielding and finally parks.
  RegionPool(size_t num_workers, int64_t spin_us);

  /// Wakes any parked workers, then joins them. Safe while workers are
  /// parked: shutdown is flagged under the park mutex, so no wakeup is lost.
  ~RegionPool();

  RegionPool(const RegionPool&) = delete;
  RegionPool& operator=(const RegionPool&) = delete;

  size_t num_workers() const { return workers_.size(); }
  int64_t spin_us() const { return spin_us_; }

  /// Claims the (single) region slot. Returns false when another thread's
  /// region is already in flight; the caller should then run its work inline.
  bool TryBeginRegion();

  /// Publishes a region of `chunks` chunk indices to the team and returns
  /// immediately. Must be called between TryBeginRegion() and JoinRegion().
  void Launch(ChunkFn fn, void* ctx, int64_t chunks);

  /// Drains the region's chunk counter on the calling thread, then blocks
  /// until every chunk of the region has completed (on any participant).
  void JoinRegion();

  /// Releases the region slot claimed by TryBeginRegion.
  void EndRegion();

  /// Hint from the thread that launched the newest region that it has no
  /// region coming soon: workers waiting past the current epoch cut their
  /// spin short and park, so an idle caller does not keep the team's cores
  /// busy. Ignored when another thread launched the newest region, so one
  /// caller going idle never parks the team under another's back-to-back
  /// regions. A region launched after the hint makes it stale.
  void Rest();

  /// Workers currently parked on the condvar (test observability).
  size_t parked_workers() const {
    return sleepers_.load(std::memory_order_seq_cst);
  }

 private:
  /// One region descriptor. fn/ctx/chunks are plain fields: written before
  /// the epoch bump that publishes the descriptor, read only after an
  /// acquire-load observes that epoch, and never rewritten until the reuse
  /// gate has seen every worker move past this epoch.
  struct alignas(64) Slot {
    std::atomic<int64_t> next{0};       // chunk claim counter
    std::atomic<int64_t> completed{0};  // chunks finished (run or retired)
    int64_t chunks = 0;
    ChunkFn fn = nullptr;
    void* ctx = nullptr;
  };
  /// Epochs of join-free slack before the launcher must wait for worker
  /// progress; amortizes straggler catch-up across kRing tiny regions.
  static constexpr size_t kRing = 8;
  struct alignas(64) WorkerProgress {
    std::atomic<uint64_t> seen{0};  // newest epoch this worker has observed
  };

  void WorkerLoop(size_t index);
  /// Waits (spin -> yield -> park) until the epoch moves past `seen` or
  /// shutdown is flagged. Returns false on shutdown.
  bool AwaitEpoch(uint64_t seen, uint64_t* observed);
  /// Claims and runs chunks of `slot` until the claim counter is exhausted.
  void DrainSlot(Slot* slot);

  const int64_t spin_us_;
  std::unique_ptr<WorkerProgress[]> progress_;  // one per worker
  std::vector<std::thread> workers_;
  std::mutex region_mutex_;  // serializes TryBeginRegion..EndRegion

  Slot slots_[kRing];
  Slot* active_slot_ = nullptr;  // owned by the launcher between Launch/Join
  std::atomic<uint64_t> epoch_{0};
  std::atomic<uint64_t> rest_epoch_{UINT64_MAX};  // epoch Rest() was called at

  // Park/wake machinery — slow path only.
  std::atomic<bool> shutdown_{false};
  std::atomic<size_t> sleepers_{0};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<bool> joiner_waiting_{false};
  std::mutex join_mutex_;
  std::condition_variable join_cv_;
};

}  // namespace cdcl

#endif  // CDCL_UTIL_THREAD_POOL_H_
