#include "tensor/kernels/kernel_context.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/env.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace cdcl {
namespace kernels {
namespace {

thread_local bool tl_in_parallel_region = false;

/// Number of hardware threads, with a floor of 1.
int64_t HardwareThreads() {
  return std::max<int64_t>(1, std::thread::hardware_concurrency());
}

/// Sets the nested-region flag for one chunk; restores it even if the chunk
/// body throws.
class RegionGuard {
 public:
  RegionGuard() : previous_(tl_in_parallel_region) {
    tl_in_parallel_region = true;
  }
  ~RegionGuard() { tl_in_parallel_region = previous_; }

 private:
  bool previous_;
};

/// Spin budget in microseconds before a waiting worker yields and then
/// parks. On a single-hardware-thread host spinning only steals cycles from
/// the one runnable thread, so it is 0 there.
int64_t SpinMicros() { return HardwareThreads() > 1 ? 120 : 0; }

/// Everything a region chunk needs, on the launcher's stack. The chunk
/// decomposition (n, grain) is byte-for-byte the pre-RegionPool scheme,
/// preserving the bitwise thread-count-invariance contract; the claim
/// counter itself lives in the pool's region descriptor.
struct RegionState {
  const std::function<void(int64_t, int64_t)>* chunk = nullptr;
  int64_t n = 0;
  int64_t grain = 1;
  std::mutex error_mutex;
  std::exception_ptr error;  // first failure wins
};

/// RegionPool chunk trampoline. A throwing chunk body must not unwind past
/// the region join while other participants still reference the launcher's
/// frame, so the exception is trapped here and the first one is rethrown
/// after the join; returning false tells the pool this participant should
/// stop running chunk bodies (it retires any further claims unrun).
bool RunRegionChunk(void* ctx, int64_t c) {
  RegionState* state = static_cast<RegionState*>(ctx);
  RegionGuard guard;
  try {
    const int64_t begin = c * state->grain;
    (*state->chunk)(begin, std::min(state->n, begin + state->grain));
    return true;
  } catch (...) {
    std::lock_guard<std::mutex> lock(state->error_mutex);
    if (!state->error) state->error = std::current_exception();
    return false;
  }
}

}  // namespace

KernelContext& KernelContext::Get() {
  static KernelContext* ctx = new KernelContext();
  return *ctx;
}

bool KernelContext::InParallelRegion() { return tl_in_parallel_region; }

int64_t KernelContext::num_threads() {
  const int64_t cached = cached_threads_.load(std::memory_order_acquire);
  if (cached > 0) return cached;
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t resolved = override_threads_;
  if (resolved <= 0) {
    const int64_t env = EnvInt("CDCL_NUM_THREADS", 0);
    resolved = env > 0 ? env : HardwareThreads();
  }
  cached_threads_.store(resolved, std::memory_order_release);
  return resolved;
}

RegionPool* KernelContext::region_pool() {
  RegionPool* cached = cached_pool_.load(std::memory_order_acquire);
  if (cached != nullptr) return cached;
  const int64_t threads = num_threads();
  if (threads <= 1) return nullptr;
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t workers = static_cast<size_t>(threads - 1);
  if (pool_ == nullptr || pool_->num_workers() != workers) {
    pool_.reset();  // join the old team before replacing it
    pool_ = std::make_unique<RegionPool>(workers, SpinMicros());
  }
  cached_pool_.store(pool_.get(), std::memory_order_release);
  return pool_.get();
}

void KernelContext::SetNumThreads(int64_t n) {
  std::unique_ptr<RegionPool> retired;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    override_threads_ = std::max<int64_t>(n, 0);
    cached_threads_.store(0, std::memory_order_release);
    cached_pool_.store(nullptr, std::memory_order_release);
    retired = std::move(pool_);  // joined outside the lock on destruction
  }
  // `retired` destructs here: parked workers are woken under the park mutex
  // (no lost wakeup) and joined without mutex_ held, so a worker that needs
  // the context on its way out cannot deadlock against this call.
}

void SetNumThreads(int64_t n) { KernelContext::Get().SetNumThreads(n); }

int64_t GetNumThreads() { return KernelContext::Get().num_threads(); }

void RestWorkers() {
  if (RegionPool* pool = KernelContext::Get().region_pool()) pool->Rest();
}

int64_t RowGrain(int64_t width) {
  const int64_t w = std::max<int64_t>(width, 1);
  return std::max<int64_t>(kEltwiseGrain / w, 1);
}

void ParallelChunks(int64_t n, int64_t grain,
                    const std::function<void(int64_t, int64_t)>& chunk) {
  if (n <= 0) return;
  grain = std::max<int64_t>(grain, 1);
  const int64_t chunks = (n + grain - 1) / grain;

  KernelContext& ctx = KernelContext::Get();
  const int64_t threads = ctx.num_threads();
  if (threads <= 1 || chunks <= 1 || tl_in_parallel_region) {
    // Serial fallback: same chunk decomposition, ascending order. The nested
    // flag is left untouched so an enclosing op that collapsed to a single
    // chunk (e.g. batch-of-1 BatchMatMul) can still parallelize inner kernels.
    for (int64_t c = 0; c < chunks; ++c) {
      chunk(c * grain, std::min(n, (c + 1) * grain));
    }
    return;
  }

  RegionPool* pool = ctx.region_pool();
  if (pool == nullptr || !pool->TryBeginRegion()) {
    // Another thread's region is in flight (concurrent kernel callers, e.g.
    // serve workers alongside the trainer). Results are bitwise independent
    // of the participant count, so running this caller's chunks serially
    // inline is indistinguishable from winning the region slot.
    for (int64_t c = 0; c < chunks; ++c) {
      chunk(c * grain, std::min(n, (c + 1) * grain));
    }
    return;
  }

  RegionState state;
  state.chunk = &chunk;
  state.n = n;
  state.grain = grain;

  // Entering the region is a single epoch publish; every participant
  // (workers + this caller, inside JoinRegion) pulls chunk indices off the
  // descriptor's shared counter, so ragged chunk costs self-balance exactly
  // as before. The completion-based join keeps `state` alive until the last
  // claimed chunk has retired.
  pool->Launch(&RunRegionChunk, &state, chunks);
  pool->JoinRegion();
  pool->EndRegion();
  if (state.error) std::rethrow_exception(state.error);
}

double ParallelReduce(int64_t n, int64_t grain,
                      const std::function<double(int64_t, int64_t)>& partial) {
  if (n <= 0) return 0.0;
  grain = std::max<int64_t>(grain, 1);
  const int64_t chunks = (n + grain - 1) / grain;
  if (chunks == 1) {
    // Same arithmetic as the combining loop below (0.0 + partial), without
    // the per-call partials allocation on the small-reduction hot path.
    double acc = 0.0;
    acc += partial(0, n);
    return acc;
  }
  // Reuse a thread-local partials buffer across calls: the reduce hot path
  // must not pay a heap round-trip per reduction. A chunk body that itself
  // reduces (nested, runs inline) would clobber the scratch, so reentrant
  // calls fall back to a local buffer.
  thread_local std::vector<double> tl_partials;
  thread_local bool tl_partials_busy = false;
  std::vector<double> local;
  std::vector<double>* partials = &local;
  struct BusyReset {
    bool* flag;
    ~BusyReset() {
      if (flag != nullptr) *flag = false;
    }
  } busy_reset{nullptr};
  if (!tl_partials_busy) {
    tl_partials_busy = true;
    busy_reset.flag = &tl_partials_busy;
    partials = &tl_partials;
  }
  if (static_cast<int64_t>(partials->size()) < chunks) {
    partials->resize(static_cast<size_t>(chunks));
  }
  double* slots = partials->data();
  ParallelChunks(n, grain, [&partial, slots, grain](int64_t begin, int64_t end) {
    slots[begin / grain] = partial(begin, end);
  });
  double acc = 0.0;
  // Fixed chunk order: deterministic. Only the first `chunks` slots were
  // written this call; the scratch may be larger from a previous reduction.
  for (int64_t c = 0; c < chunks; ++c) acc += slots[c];
  return acc;
}

}  // namespace kernels
}  // namespace cdcl
