#ifndef CDCL_TENSOR_ARENA_H_
#define CDCL_TENSOR_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace cdcl {

// ---------------------------------------------------------------------------
// Step-scoped workspace arena for tensor storage.
//
// A training (or eval) step allocates hundreds of short-lived buffers —
// activations, tape scratch, intermediate gradients — all of which die
// together when the step ends. Arena turns each of those heap round-trips
// into a bump-pointer increment: ArenaScope makes an arena the active
// allocation target for the current thread, every tensor created inside the
// scope draws its storage from it, and the scope's destructor resets the
// arena in O(#blocks). Leaves created outside a scope (parameters, datasets,
// optimizer state) stay heap-owned and are unaffected.
//
// The arena changes *where* bytes live, never *what* is computed: kernels see
// the same sizes and contents either way, so results are bitwise identical
// with the arena on or off (tests/arena_test.cc pins this across thread
// counts and ISA caps). SetArenaEnabled(false) is the test seam that turns
// every scope into a no-op.
//
// Lifetime contract: memory handed out by Allocate() is valid until the
// owning scope ends (which Reset()s the arena). A tensor that must outlive
// the step has to be created outside the scope or copied out (ToVector,
// CopyDataFrom into a heap tensor). Under ASan builds the arena degrades to
// one heap allocation per request, freed on Reset, so a stale arena pointer
// becomes a real heap-use-after-free the sanitizer pass catches.
// ---------------------------------------------------------------------------

class Arena {
 public:
  Arena();
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `n` floats (64-byte aligned, uninitialized). Valid until
  /// the next Reset().
  float* Allocate(int64_t n);

  /// Invalidates every outstanding allocation and recycles the capacity.
  /// If the last generation spilled over multiple blocks, they are coalesced
  /// into one so steady state is a single bump pointer.
  void Reset();

  /// Incremented by every Reset(); buffers remember the generation they were
  /// allocated under and DCHECK it on access in debug builds (the ASan
  /// per-allocation mode covers release verification).
  uint64_t generation() const { return generation_; }

  /// Peak floats handed out within a single generation (diagnostics).
  int64_t high_water_floats() const { return high_water_; }

 private:
  struct Block {
    float* data = nullptr;
    int64_t capacity = 0;  // floats
  };

  Block NewBlock(int64_t min_floats);
  void FreeBlock(Block* block);

  std::vector<Block> blocks_;
  size_t block_index_ = 0;  // block currently bumping
  int64_t used_ = 0;        // floats used in blocks_[block_index_]
  int64_t generation_total_ = 0;
  int64_t high_water_ = 0;
  uint64_t generation_ = 1;
  // ASan mode: every allocation is an individual heap block freed on Reset.
  std::vector<float*> asan_allocations_;
};

/// Test seam: whether ArenaScope activates arenas at all. Enabled unless
/// SetArenaEnabled(false) was called.
bool ArenaEnabled();
void SetArenaEnabled(bool enabled);

namespace internal {
/// Arena new tensor storage on this thread draws from; null = heap.
Arena* ActiveArena();
}  // namespace internal

/// RAII step context: activates `arena` for the current thread on entry and,
/// if this scope did the activating, deactivates and Reset()s it on exit.
/// Null arena, ArenaEnabled()==false, or re-entering the already-active arena
/// all make the scope a no-op, so helpers can declare their own scope without
/// worrying about the caller's.
class ArenaScope {
 public:
  explicit ArenaScope(Arena* arena);
  ~ArenaScope();

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* activated_ = nullptr;  // non-null only when this scope activated it
  Arena* previous_ = nullptr;
};

namespace internal {

/// Storage for one TensorImpl data or grad payload: a flat float buffer that
/// lives either on the heap (std::vector) or inside the thread's active
/// Arena. The accessor surface mirrors what the op closures already use on
/// std::vector (data()/size()), so the tape code is storage-agnostic.
class Buffer {
 public:
  Buffer() = default;
  ~Buffer() = default;

  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  // Debug builds check the owning arena's generation on every access, so a
  // buffer read after its step scope reset trips a DCHECK (release builds
  // rely on the ASan per-allocation mode instead).
  float* data() {
    CheckAlive();
    return ptr_;
  }
  const float* data() const {
    CheckAlive();
    return ptr_;
  }
  size_t size() const { return static_cast<size_t>(size_); }
  bool from_arena() const { return arena_ != nullptr; }

  /// Allocates `n` floats filled with `value`, routed to the active arena
  /// when one is set, else the heap. Replaces any previous payload.
  void assign(int64_t n, float value);

  /// Allocates `n` floats, leaving them uninitialized (callers overwrite).
  void acquire(int64_t n);

  /// Like assign, but the storage class follows `peer` instead of the active
  /// arena: an arena-backed peer gets an arena sibling (only while that same
  /// arena is still active), a heap peer gets heap. Gradients use this so a
  /// heap parameter never receives a step-scoped (dangling-next-step) grad.
  void assign_like(const Buffer& peer, int64_t n, float value);

  /// Takes ownership of a heap vector (no copy) when no arena is active;
  /// copies into the arena otherwise.
  void adopt(std::vector<float>&& values);

  void fill(float value);

 private:
  void AllocateFrom(Arena* arena, int64_t n);
  void AssignHeap(int64_t n, float value);
  /// Debug-only use-after-reset guard; compiles to nothing under NDEBUG.
  void CheckAlive() const {
    CDCL_DCHECK(arena_ == nullptr || arena_generation_ == arena_->generation());
  }

  std::vector<float> heap_;     // owner in heap mode (ptr_ aliases it)
  float* ptr_ = nullptr;
  int64_t size_ = 0;
  Arena* arena_ = nullptr;      // non-null when arena-backed
  uint64_t arena_generation_ = 0;
};

}  // namespace internal
}  // namespace cdcl

#endif  // CDCL_TENSOR_ARENA_H_
