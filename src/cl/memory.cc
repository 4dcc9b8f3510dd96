#include "cl/memory.h"

#include <algorithm>
#include <cfloat>
#include <cmath>

#include "util/logging.h"

namespace cdcl {
namespace cl {

CompactFloats CompactFloats::Encode(const std::vector<float>& x) {
  CompactFloats out;
  out.mode_ = kernels::GetGemmPrecision();
  out.n_ = x.size();
  switch (out.mode_) {
    case kernels::GemmPrecision::kBf16: {
      out.bf16_.resize(x.size());
      for (size_t i = 0; i < x.size(); ++i) {
        out.bf16_[i] = kernels::Bf16FromF32(x[i]);
      }
      break;
    }
    case kernels::GemmPrecision::kInt8: {
      // Symmetric per-vector absmax quantization. A subnormal (or zero)
      // scale cannot carry 8 bits of signal, so all-zero and denormal
      // vectors flush to exact zeros with scale 0.
      float amax = 0.0f;
      for (float v : x) amax = std::max(amax, std::fabs(v));
      const float scale = amax / 127.0f;
      out.i8_.resize(x.size());
      if (!(scale >= FLT_MIN) || !std::isfinite(scale)) {
        out.scale_ = 0.0f;
        std::fill(out.i8_.begin(), out.i8_.end(), static_cast<int8_t>(0));
      } else {
        out.scale_ = scale;
        const double inv = 127.0 / static_cast<double>(amax);
        for (size_t i = 0; i < x.size(); ++i) {
          const long long q =
              std::llrint(static_cast<double>(x[i]) * inv);
          out.i8_[i] = static_cast<int8_t>(
              std::max(-127LL, std::min(127LL, q)));
        }
      }
      break;
    }
    default:
      out.f32_ = x;
      break;
  }
  return out;
}

std::vector<float> CompactFloats::Decode() const {
  std::vector<float> out(n_);
  for (size_t i = 0; i < n_; ++i) out[i] = (*this)[i];
  return out;
}

CompactFloats CompactFloats::FromRaw(kernels::GemmPrecision mode, size_t n,
                                     std::vector<float> f32,
                                     std::vector<uint16_t> bf16,
                                     std::vector<int8_t> i8, float scale) {
  CompactFloats out;
  out.mode_ = mode;
  out.n_ = n;
  switch (mode) {
    case kernels::GemmPrecision::kBf16:
      CDCL_CHECK_EQ(bf16.size(), n);
      out.bf16_ = std::move(bf16);
      break;
    case kernels::GemmPrecision::kInt8:
      CDCL_CHECK_EQ(i8.size(), n);
      out.i8_ = std::move(i8);
      out.scale_ = scale;
      break;
    default:
      CDCL_CHECK_EQ(f32.size(), n);
      out.f32_ = std::move(f32);
      break;
  }
  return out;
}

size_t CompactFloats::ByteSize() const {
  switch (mode_) {
    case kernels::GemmPrecision::kBf16:
      return n_ * sizeof(uint16_t);
    case kernels::GemmPrecision::kInt8:
      return n_ * sizeof(int8_t) + sizeof(float);
    default:
      return n_ * sizeof(float);
  }
}

RehearsalMemory::RehearsalMemory(int64_t capacity, MemoryPolicy policy)
    : capacity_(capacity), policy_(policy) {
  CDCL_CHECK_GT(capacity, 0);
}

int64_t RehearsalMemory::QuotaPerTask() const {
  if (num_tasks_ == 0) return capacity_;
  return capacity_ / num_tasks_;
}

void RehearsalMemory::AddTask(int64_t task_id,
                              std::vector<MemoryRecord> candidates, Rng* rng) {
  CDCL_CHECK(rng != nullptr);
  for (MemoryRecord& r : candidates) {
    r.task_id = task_id;
    records_.push_back(std::move(r));
  }
  ++num_tasks_;
  Rebalance(rng);
}

void RehearsalMemory::RestoreState(std::vector<MemoryRecord> records,
                                   int64_t num_tasks) {
  CDCL_CHECK_LE(static_cast<int64_t>(records.size()), capacity_);
  records_ = std::move(records);
  num_tasks_ = num_tasks;
}

void RehearsalMemory::Rebalance(Rng* rng) {
  const int64_t quota = QuotaPerTask();
  // Partition by task, trim each partition to quota.
  std::vector<MemoryRecord> kept;
  kept.reserve(static_cast<size_t>(capacity_));
  // Stable per-task processing in task order.
  std::vector<int64_t> task_ids;
  for (const MemoryRecord& r : records_) {
    if (std::find(task_ids.begin(), task_ids.end(), r.task_id) ==
        task_ids.end()) {
      task_ids.push_back(r.task_id);
    }
  }
  std::sort(task_ids.begin(), task_ids.end());
  for (int64_t tid : task_ids) {
    std::vector<MemoryRecord> group;
    for (MemoryRecord& r : records_) {
      if (r.task_id == tid) group.push_back(std::move(r));
    }
    if (static_cast<int64_t>(group.size()) > quota) {
      if (policy_ == MemoryPolicy::kConfidenceTopK) {
        std::sort(group.begin(), group.end(),
                  [](const MemoryRecord& a, const MemoryRecord& b) {
                    return a.confidence > b.confidence;
                  });
      } else {
        rng->Shuffle(&group);
      }
      group.resize(static_cast<size_t>(quota));
    }
    for (MemoryRecord& r : group) kept.push_back(std::move(r));
  }
  records_ = std::move(kept);
  CDCL_CHECK_LE(size(), capacity_);
}

std::vector<const MemoryRecord*> RehearsalMemory::SampleFromTask(
    int64_t task_id, int64_t n, Rng* rng) const {
  CDCL_CHECK(rng != nullptr);
  std::vector<const MemoryRecord*> pool;
  for (const MemoryRecord& r : records_) {
    if (r.task_id == task_id) pool.push_back(&r);
  }
  std::vector<const MemoryRecord*> out;
  if (pool.empty() || n <= 0) return out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    out.push_back(pool[static_cast<size_t>(
        rng->NextBelow(static_cast<uint64_t>(pool.size())))]);
  }
  return out;
}

std::vector<int64_t> RehearsalMemory::StoredTaskIds() const {
  std::vector<int64_t> ids;
  for (const MemoryRecord& r : records_) {
    if (std::find(ids.begin(), ids.end(), r.task_id) == ids.end()) {
      ids.push_back(r.task_id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<const MemoryRecord*> RehearsalMemory::Sample(int64_t n,
                                                         Rng* rng) const {
  CDCL_CHECK(rng != nullptr);
  std::vector<const MemoryRecord*> out;
  if (records_.empty() || n <= 0) return out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    out.push_back(&records_[static_cast<size_t>(
        rng->NextBelow(static_cast<uint64_t>(records_.size())))]);
  }
  return out;
}

}  // namespace cl
}  // namespace cdcl
