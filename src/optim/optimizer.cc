#include "optim/optimizer.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels/parallel.h"
#include "util/logging.h"

namespace cdcl {
namespace optim {
namespace {

/// One active (trainable, gradient-bearing) parameter laid out in the fused
/// update's flat index space at [offset, offset + n). The per-block fields
/// carry whatever per-parameter state/constants the update rule needs.
struct ParamBlock {
  float* w = nullptr;
  const float* g = nullptr;
  float* m = nullptr;  // SGD velocity / Adam first moment
  float* v = nullptr;  // Adam second moment
  float bc1 = 1.0f;    // Adam bias corrections (per-parameter step count)
  float bc2 = 1.0f;
  int64_t n = 0;
  int64_t offset = 0;
};

/// Runs update(block, local_begin, local_end) over the concatenation of all
/// blocks as ONE deterministic parallel pass — a single kernel dispatch per
/// optimizer step instead of one per tensor, so the many small parameter
/// tensors (biases, layernorm affines, per-task b_i) stop paying per-tensor
/// scheduling overhead. Updates are elementwise, so results are bitwise
/// identical to the per-tensor loops at any thread count.
template <typename Update>
void FusedBlockUpdate(const std::vector<ParamBlock>& blocks, int64_t total,
                      Update&& update) {
  if (blocks.empty()) return;
  kernels::ParallelChunks(
      total, kernels::kEltwiseGrain, [&](int64_t begin, int64_t end) {
        auto it = std::upper_bound(
            blocks.begin(), blocks.end(), begin,
            [](int64_t pos, const ParamBlock& b) { return pos < b.offset; });
        size_t bi = static_cast<size_t>(it - blocks.begin()) - 1;
        while (begin < end) {
          const ParamBlock& b = blocks[bi];
          const int64_t lo = begin - b.offset;
          const int64_t hi = std::min(end - b.offset, b.n);
          update(b, lo, hi);
          begin = b.offset + hi;
          ++bi;
        }
      });
}

}  // namespace

Optimizer::Optimizer(std::vector<Tensor> params, float lr)
    : params_(std::move(params)), lr_(lr) {}

void Optimizer::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

void Optimizer::SetParameters(std::vector<Tensor> params) {
  params_ = std::move(params);
}

Sgd::Sgd(std::vector<Tensor> params, float lr, float momentum)
    : Optimizer(std::move(params), lr), momentum_(momentum) {}

void Sgd::Step() {
  std::vector<ParamBlock> blocks;
  blocks.reserve(params_.size());
  int64_t total = 0;
  for (Tensor& p : params_) {
    if (!p.requires_grad() || !p.has_grad()) continue;
    ParamBlock b;
    b.w = p.data();
    b.g = p.grad_data();
    b.n = p.NumElements();
    b.offset = total;
    if (momentum_ > 0.0f) {
      auto& vel = velocity_[p.impl().get()];
      if (vel.size() != static_cast<size_t>(b.n)) vel.assign(b.n, 0.0f);
      b.m = vel.data();
    }
    total += b.n;
    blocks.push_back(b);
  }
  const float lr = lr_;
  const float momentum = momentum_;
  if (momentum > 0.0f) {
    FusedBlockUpdate(blocks, total,
                     [lr, momentum](const ParamBlock& b, int64_t lo, int64_t hi) {
                       for (int64_t i = lo; i < hi; ++i) {
                         b.m[i] = momentum * b.m[i] + b.g[i];
                         b.w[i] -= lr * b.m[i];
                       }
                     });
  } else {
    FusedBlockUpdate(blocks, total,
                     [lr](const ParamBlock& b, int64_t lo, int64_t hi) {
                       for (int64_t i = lo; i < hi; ++i) b.w[i] -= lr * b.g[i];
                     });
  }
}

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {}

void Adam::Step() {
  std::vector<ParamBlock> blocks;
  blocks.reserve(params_.size());
  int64_t total = 0;
  for (Tensor& p : params_) {
    if (!p.requires_grad() || !p.has_grad()) continue;
    ParamBlock b;
    b.w = p.data();
    b.g = p.grad_data();
    b.n = p.NumElements();
    b.offset = total;
    State& st = state_[p.impl().get()];
    if (st.m.size() != static_cast<size_t>(b.n)) {
      st.m.assign(b.n, 0.0f);
      st.v.assign(b.n, 0.0f);
      st.step = 0;
    }
    ++st.step;
    b.bc1 = 1.0f - std::pow(beta1_, static_cast<float>(st.step));
    b.bc2 = 1.0f - std::pow(beta2_, static_cast<float>(st.step));
    b.m = st.m.data();
    b.v = st.v.data();
    total += b.n;
    blocks.push_back(b);
  }
  const float beta1 = beta1_, beta2 = beta2_, eps = eps_, lr = lr_;
  const float wd = weight_decay_;
  const bool coupled_wd = wd > 0.0f && !decoupled_decay();
  const bool decoupled_wd = wd > 0.0f && decoupled_decay();
  FusedBlockUpdate(blocks, total, [=](const ParamBlock& b, int64_t lo,
                                      int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float grad = b.g[i];
      if (coupled_wd) grad += wd * b.w[i];
      const float m = beta1 * b.m[i] + (1.0f - beta1) * grad;
      const float v = beta2 * b.v[i] + (1.0f - beta2) * grad * grad;
      b.m[i] = m;
      b.v[i] = v;
      const float mhat = m / b.bc1;
      const float vhat = v / b.bc2;
      b.w[i] -= lr * mhat / (std::sqrt(vhat) + eps);
      if (decoupled_wd) b.w[i] -= lr * wd * b.w[i];
    }
  });
}

std::vector<Adam::ExportedState> Adam::ExportState() const {
  std::vector<ExportedState> out;
  out.reserve(params_.size());
  for (const Tensor& p : params_) {
    ExportedState e;
    auto it = state_.find(p.impl().get());
    if (it != state_.end() &&
        it->second.m.size() == static_cast<size_t>(p.NumElements())) {
      e.present = true;
      e.step = it->second.step;
      e.m = it->second.m;
      e.v = it->second.v;
    }
    out.push_back(std::move(e));
  }
  return out;
}

void Adam::ImportState(const std::vector<ExportedState>& states) {
  CDCL_CHECK_EQ(states.size(), params_.size());
  state_.clear();
  for (size_t i = 0; i < params_.size(); ++i) {
    const ExportedState& e = states[i];
    if (!e.present) continue;
    CDCL_CHECK_EQ(e.m.size(), static_cast<size_t>(params_[i].NumElements()));
    CDCL_CHECK_EQ(e.v.size(), e.m.size());
    State st;
    st.m = e.m;
    st.v = e.v;
    st.step = e.step;
    state_[params_[i].impl().get()] = std::move(st);
  }
}

AdamW::AdamW(std::vector<Tensor> params, float lr, float beta1, float beta2,
             float eps, float weight_decay)
    : Adam(std::move(params), lr, beta1, beta2, eps, weight_decay) {}

}  // namespace optim
}  // namespace cdcl
