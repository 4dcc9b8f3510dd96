#ifndef CDCL_TENSOR_KERNELS_KERNEL_CONTEXT_H_
#define CDCL_TENSOR_KERNELS_KERNEL_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

namespace cdcl {

class RegionPool;

namespace kernels {

/// Process-wide dispatch context for the tensor kernels: owns the worker pool
/// every kernel fans work out over, plus the grain-size policy that decides
/// when a loop is worth splitting at all.
///
/// Determinism contract: chunk decomposition of an index range depends only on
/// (n, grain), never on the thread count, and reductions keep fixed per-chunk
/// partials combined in chunk order. Kernel results are therefore bitwise
/// identical for every thread count (including the serial fallback), so
/// gradcheck and the paper benchmarks can run at any CDCL_NUM_THREADS setting
/// without numeric drift.
class KernelContext {
 public:
  /// The process-wide singleton.
  static KernelContext& Get();

  /// Resolved worker count (>= 1). Resolution order: SetNumThreads() value if
  /// set, else the CDCL_NUM_THREADS env var, else the hardware concurrency.
  int64_t num_threads();

  /// Persistent worker team backing parallel regions; nullptr when
  /// num_threads() == 1. The team holds num_threads()-1 workers parked on an
  /// epoch counter (spin-then-yield-then-park; 120 us of spin on a
  /// multi-core host, none on one core): the calling thread always
  /// participates in kernel loops, and entering a region is a single atomic
  /// publish instead of per-helper task submission.
  RegionPool* region_pool();

  /// Overrides the worker count. n <= 0 restores the default (env/hardware)
  /// resolution. Must not be called while kernels are in flight.
  void SetNumThreads(int64_t n);

  /// True while the current thread is already inside a kernel parallel
  /// region; nested kernel calls then run serially inline.
  static bool InParallelRegion();

  KernelContext(const KernelContext&) = delete;
  KernelContext& operator=(const KernelContext&) = delete;

 private:
  KernelContext() = default;

  std::mutex mutex_;
  int64_t override_threads_ = 0;  // 0 = unset; guarded by mutex_
  std::unique_ptr<RegionPool> pool_;  // guarded by mutex_
  // Steady-state dispatch reads these without the mutex; SetNumThreads
  // invalidates both (0/nullptr) under it.
  std::atomic<int64_t> cached_threads_{0};
  std::atomic<RegionPool*> cached_pool_{nullptr};
};

/// Convenience wrappers over KernelContext::Get().
void SetNumThreads(int64_t n);
int64_t GetNumThreads();

/// Tells the worker team this caller has no kernel work coming soon, so
/// spinning workers park now (RegionPool::Rest). No-op when single-threaded.
void RestWorkers();

// ---------------------------------------------------------------------------
// Grain-size policy. Grains are in loop-index units; chunks of `grain`
// consecutive indices are the unit of scheduling (and of reduction partials).
// ---------------------------------------------------------------------------

/// Elementwise maps: big enough that scheduling overhead vanishes.
inline constexpr int64_t kEltwiseGrain = 8192;
/// Fixed reduction grain; must never depend on the thread count.
inline constexpr int64_t kReduceGrain = 8192;
/// Rows of a GEMM output partitioned across workers. A common multiple of
/// every register-block height in play (8x32 scalar tile, 4-row TN, 6-row
/// AVX2 and 8-row AVX-512 packed tiles) so only the final chunk sees row
/// tails. Tails cost speed only: every element is the same fma chain.
inline constexpr int64_t kGemmRowGrain = 48;

/// Grain for row-wise ops (softmax/layernorm/losses) with rows of `width`
/// elements: targets roughly kEltwiseGrain touched elements per chunk.
int64_t RowGrain(int64_t width);

/// Runs chunk(begin, end) over the fixed decomposition of [0, n) into chunks
/// of `grain` indices (last chunk ragged). Chunks run concurrently across the
/// context pool; the calling thread participates. Falls back to a serial
/// in-order sweep when the context is single-threaded, the loop is a single
/// chunk, or the caller is already inside a parallel region.
void ParallelChunks(int64_t n, int64_t grain,
                    const std::function<void(int64_t, int64_t)>& chunk);

/// Deterministic parallel sum reduction: partial(begin, end) computes one
/// chunk's partial; partials are combined in chunk-index order regardless of
/// which thread produced them.
double ParallelReduce(int64_t n, int64_t grain,
                      const std::function<double(int64_t, int64_t)>& partial);

}  // namespace kernels
}  // namespace cdcl

#endif  // CDCL_TENSOR_KERNELS_KERNEL_CONTEXT_H_
