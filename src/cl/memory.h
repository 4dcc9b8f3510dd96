#ifndef CDCL_CL_MEMORY_H_
#define CDCL_CL_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/kernels/matmul_quant.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace cdcl {
namespace cl {

/// Compact storage for a per-record float vector (stored logits / features).
/// The encoding is chosen ONCE at Encode() time from the active
/// CDCL_GEMM_PRECISION mode and travels with the vector:
///   - fp32 (default): raw floats — byte-identical to the plain
///     std::vector<float> storage this type replaced.
///   - bf16: round-to-nearest-even bf16 codes (2 bytes/element).
///   - int8: symmetric per-vector absmax codes + one fp32 scale
///     (1 byte/element). An all-zero or denormal-absmax vector stores
///     scale 0 and decodes to exact zeros.
/// Reads decode on the fly; replay consumers index records element-wise, so
/// operator[] keeps their loops unchanged.
class CompactFloats {
 public:
  CompactFloats() = default;

  /// Encodes `x` under the current GemmPrecision mode.
  static CompactFloats Encode(const std::vector<float>& x);

  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Decoded element i — the exact value Decode()[i] would hold.
  float operator[](size_t i) const {
    switch (mode_) {
      case kernels::GemmPrecision::kBf16:
        return kernels::F32FromBf16(bf16_[i]);
      case kernels::GemmPrecision::kInt8:
        return static_cast<float>(i8_[i]) * scale_;
      default:
        return f32_[i];
    }
  }

  /// Full decoded vector (for tensor construction).
  std::vector<float> Decode() const;

  /// Heap bytes held by the encoded payload (capacity-independent; counts
  /// size() elements at the encoding's width plus the int8 scale).
  size_t ByteSize() const;

  /// Raw encoded payload, for checkpointing. Serializing the *codes* (not a
  /// decode) matters: int8 decode→re-encode is lossy, so only a code-level
  /// round-trip keeps restored replay losses bitwise identical.
  kernels::GemmPrecision mode() const { return mode_; }
  float scale() const { return scale_; }
  const std::vector<float>& raw_f32() const { return f32_; }
  const std::vector<uint16_t>& raw_bf16() const { return bf16_; }
  const std::vector<int8_t>& raw_i8() const { return i8_; }

  /// Rebuilds from a checkpointed payload. Exactly one of the three vectors
  /// is non-empty (matching `mode`) unless n == 0.
  static CompactFloats FromRaw(kernels::GemmPrecision mode, size_t n,
                               std::vector<float> f32,
                               std::vector<uint16_t> bf16,
                               std::vector<int8_t> i8, float scale);

 private:
  kernels::GemmPrecision mode_ = kernels::GemmPrecision::kFp32;
  size_t n_ = 0;
  std::vector<float> f32_;
  std::vector<uint16_t> bf16_;
  std::vector<int8_t> i8_;
  float scale_ = 0.0f;  // int8 only
};

/// One rehearsal record (paper §IV-C footnote 2): the tuple
/// (x_S, x_T, y_S, y^CIL_S, y^CIL_T) plus bookkeeping. Logits are stored as
/// raw vectors because the CIL head keeps growing; `logit_tasks` records how
/// many task blocks the stored logits cover. The float payloads sit behind
/// CompactFloats, so reduced-precision modes shrink the snapshot footprint
/// 2x (bf16) / ~4x (int8) without touching the fp32 default.
struct MemoryRecord {
  Tensor source_image;   // (c,h,w)
  Tensor target_image;   // (c,h,w)
  int64_t label = -1;       // global source label y_S
  int64_t task_label = -1;  // within-task label
  int64_t task_id = -1;
  CompactFloats source_logits;  // CIL logits at store time
  CompactFloats target_logits;
  int64_t logit_tasks = 0;
  CompactFloats feature;  // pooled source feature at store time (HAL/MSL)
  float confidence = 0.0f;  // max(y_TIL_S) v max(y_TIL_T) at store time
};

/// Memory selection strategy (ablated in bench_table4_ablation): the paper
/// keeps the records with highest intra-task confidence; reservoir sampling
/// is the DER-style alternative.
enum class MemoryPolicy { kConfidenceTopK, kReservoir };

/// Fixed-budget rehearsal memory with per-task quotas. After task t the
/// memory stores floor(capacity / t) records per seen task; adding a task
/// rebalances earlier quotas by dropping each task's lowest-confidence
/// records (confidence policy) or random records (reservoir policy).
class RehearsalMemory {
 public:
  RehearsalMemory(int64_t capacity,
                  MemoryPolicy policy = MemoryPolicy::kConfidenceTopK);

  /// Installs candidate records for a just-finished task and rebalances.
  /// Candidates in excess of the task quota are dropped by policy.
  void AddTask(int64_t task_id, std::vector<MemoryRecord> candidates, Rng* rng);

  int64_t size() const { return static_cast<int64_t>(records_.size()); }
  int64_t capacity() const { return capacity_; }
  int64_t num_tasks() const { return num_tasks_; }
  bool empty() const { return records_.empty(); }
  /// Per-task record quota given the current task count.
  int64_t QuotaPerTask() const;

  const std::vector<MemoryRecord>& records() const { return records_; }

  /// Uniformly samples `n` records (with replacement when n > size).
  std::vector<const MemoryRecord*> Sample(int64_t n, Rng* rng) const;

  /// Samples `n` records from one stored task (empty when the task has no
  /// records). Useful when replayed tensors must share head/logit widths.
  std::vector<const MemoryRecord*> SampleFromTask(int64_t task_id, int64_t n,
                                                  Rng* rng) const;

  /// Distinct task ids currently stored, ascending.
  std::vector<int64_t> StoredTaskIds() const;

  /// Checkpoint restore: installs a previously-serialized record set and
  /// task count verbatim (no rebalancing — the records were already the
  /// post-rebalance state when saved). Capacity/policy come from the
  /// trainer's options and must match the saving run.
  void RestoreState(std::vector<MemoryRecord> records, int64_t num_tasks);

 private:
  void Rebalance(Rng* rng);

  int64_t capacity_;
  MemoryPolicy policy_;
  int64_t num_tasks_ = 0;
  std::vector<MemoryRecord> records_;
};

}  // namespace cl
}  // namespace cdcl

#endif  // CDCL_CL_MEMORY_H_
