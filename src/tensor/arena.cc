#include "tensor/arena.h"

#include <atomic>
#include <cstring>
#include <new>

#include "util/logging.h"

// Under AddressSanitizer the bump allocator would hide lifetime bugs (reset
// memory is recycled, not returned), so each request becomes its own heap
// block freed on Reset: a use-after-reset then trips ASan as a genuine
// heap-use-after-free. scripts/verify.sh runs arena_test in this mode.
#if defined(__SANITIZE_ADDRESS__)
#define CDCL_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CDCL_ARENA_ASAN 1
#endif
#endif
#ifndef CDCL_ARENA_ASAN
#define CDCL_ARENA_ASAN 0
#endif

namespace cdcl {
namespace {

constexpr int64_t kInitialBlockFloats = 1 << 18;  // 1 MiB
constexpr size_t kBlockAlignment = 64;            // cache line / ZMM width

std::atomic<bool> g_arena_enabled{true};

thread_local Arena* g_active_arena = nullptr;

}  // namespace

bool ArenaEnabled() { return g_arena_enabled.load(std::memory_order_relaxed); }

void SetArenaEnabled(bool enabled) {
  g_arena_enabled.store(enabled, std::memory_order_relaxed);
}

namespace internal {
Arena* ActiveArena() { return g_active_arena; }
}  // namespace internal

Arena::Arena() = default;

Arena::~Arena() {
  for (Block& b : blocks_) FreeBlock(&b);
  for (float* p : asan_allocations_) {
    ::operator delete[](p, std::align_val_t{kBlockAlignment});
  }
}

Arena::Block Arena::NewBlock(int64_t min_floats) {
  Block b;
  b.capacity = kInitialBlockFloats;
  if (!blocks_.empty()) {
    b.capacity = blocks_.back().capacity * 2;
  }
  if (b.capacity < min_floats) b.capacity = min_floats;
  b.data = static_cast<float*>(::operator new[](
      static_cast<size_t>(b.capacity) * sizeof(float),
      std::align_val_t{kBlockAlignment}));
  return b;
}

void Arena::FreeBlock(Block* block) {
  if (block->data != nullptr) {
    ::operator delete[](block->data, std::align_val_t{kBlockAlignment});
    block->data = nullptr;
  }
}

float* Arena::Allocate(int64_t n) {
  CDCL_DCHECK(n >= 0);
  // Round each bump to a whole cache line so the documented 64-byte
  // alignment holds for every allocation, not just a block's first.
  n = (n + 15) & ~int64_t{15};
  generation_total_ += n;
  if (generation_total_ > high_water_) high_water_ = generation_total_;
  if (CDCL_ARENA_ASAN) {
    float* p = static_cast<float*>(::operator new[](
        static_cast<size_t>(n) * sizeof(float), std::align_val_t{kBlockAlignment}));
    asan_allocations_.push_back(p);
    return p;
  }
  while (true) {
    if (block_index_ < blocks_.size() &&
        used_ + n <= blocks_[block_index_].capacity) {
      float* p = blocks_[block_index_].data + used_;
      used_ += n;
      return p;
    }
    if (block_index_ + 1 < blocks_.size()) {
      ++block_index_;
      used_ = 0;
      continue;
    }
    blocks_.push_back(NewBlock(n));
    block_index_ = blocks_.size() - 1;
    used_ = 0;
  }
}

void Arena::Reset() {
  ++generation_;
  generation_total_ = 0;
  for (float* p : asan_allocations_) {
    ::operator delete[](p, std::align_val_t{kBlockAlignment});
  }
  asan_allocations_.clear();
  if (blocks_.size() > 1) {
    // The generation spilled; replace the chain with one block big enough to
    // hold it so the next step is a single bump pointer.
    int64_t total = 0;
    for (Block& b : blocks_) {
      total += b.capacity;
      FreeBlock(&b);
    }
    blocks_.clear();
    Block merged;
    merged.capacity = total;
    merged.data = static_cast<float*>(::operator new[](
        static_cast<size_t>(total) * sizeof(float),
        std::align_val_t{kBlockAlignment}));
    blocks_.push_back(merged);
  }
  block_index_ = 0;
  used_ = 0;
}

ArenaScope::ArenaScope(Arena* arena) {
  if (arena == nullptr || !ArenaEnabled() || g_active_arena == arena) return;
  previous_ = g_active_arena;
  g_active_arena = arena;
  activated_ = arena;
}

ArenaScope::~ArenaScope() {
  if (activated_ == nullptr) return;
  CDCL_DCHECK(g_active_arena == activated_);
  g_active_arena = previous_;
  activated_->Reset();
}

namespace internal {

void Buffer::AllocateFrom(Arena* arena, int64_t n) {
  if (arena != nullptr) {
    ptr_ = arena->Allocate(n);
    arena_ = arena;
    arena_generation_ = arena->generation();
    heap_.clear();
    heap_.shrink_to_fit();
  } else {
    // Heap mode keeps vector ownership; resize value-initializes, so only
    // arena-backed acquire() actually skips the zero pass (documented on
    // Tensor::Uninitialized).
    heap_.resize(static_cast<size_t>(n));
    ptr_ = heap_.data();
    arena_ = nullptr;
    arena_generation_ = 0;
  }
  size_ = n;
}

void Buffer::AssignHeap(int64_t n, float value) {
  // vector::assign writes each element exactly once (no value-init pass
  // followed by a fill), matching the seed's allocation cost.
  heap_.assign(static_cast<size_t>(n), value);
  ptr_ = heap_.data();
  size_ = n;
  arena_ = nullptr;
  arena_generation_ = 0;
}

void Buffer::assign(int64_t n, float value) {
  if (g_active_arena != nullptr) {
    AllocateFrom(g_active_arena, n);
    fill(value);
    return;
  }
  AssignHeap(n, value);
}

void Buffer::acquire(int64_t n) { AllocateFrom(g_active_arena, n); }

void Buffer::assign_like(const Buffer& peer, int64_t n, float value) {
  if (peer.from_arena() && peer.arena_ == g_active_arena) {
    AllocateFrom(peer.arena_, n);
    fill(value);
    return;
  }
  AssignHeap(n, value);
}

void Buffer::adopt(std::vector<float>&& values) {
  if (g_active_arena != nullptr) {
    AllocateFrom(g_active_arena, static_cast<int64_t>(values.size()));
    std::memcpy(ptr_, values.data(), values.size() * sizeof(float));
    return;
  }
  heap_ = std::move(values);
  ptr_ = heap_.data();
  size_ = static_cast<int64_t>(heap_.size());
  arena_ = nullptr;
  arena_generation_ = 0;
}

void Buffer::fill(float value) {
  CheckAlive();
  for (int64_t i = 0; i < size_; ++i) ptr_[i] = value;
}

}  // namespace internal
}  // namespace cdcl
