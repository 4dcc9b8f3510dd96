#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "tensor/autograd.h"
#include "tensor/kernels/fused_train.h"
#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/layernorm.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/kernels/parallel.h"
#include "tensor/kernels/scalar_math.h"
#include "tensor/kernels/vec_math.h"
#include "util/logging.h"
#include "util/prefetch.h"

namespace cdcl {
namespace ops {
namespace {

using cdcl::internal::TensorImpl;
using internal::AttachNode;
using internal::NeedsGrad;

enum class BinaryKind { kAdd, kSub, kMul, kDiv };

/// Shared implementation for broadcasting binary ops. `b` must be the same
/// shape as `a`, a scalar, or a suffix of `a`'s shape.
Tensor BinaryOp(const Tensor& a, const Tensor& b, BinaryKind kind,
                const char* name) {
  CDCL_CHECK(a.defined());
  CDCL_CHECK(b.defined());
  const int64_t na = a.NumElements();
  const int64_t nb = b.NumElements();
  const bool same = a.shape() == b.shape();
  const bool suffix = same || b.shape().IsSuffixOf(a.shape()) || nb == 1;
  CDCL_CHECK(suffix) << name << ": incompatible shapes " << a.shape().ToString()
                     << " vs " << b.shape().ToString();
  CDCL_CHECK(na % std::max<int64_t>(nb, 1) == 0);

  // The broadcast map overwrites every element, so skip the zero-fill.
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  // The kernel framework's broadcast index mapper carries j = i % nb
  // incrementally per chunk instead of recomputing the modulo per element.
  switch (kind) {
    case BinaryKind::kAdd:
      kernels::BroadcastMap(
          na, nb, [pa, pb, po](int64_t i, int64_t j) { po[i] = pa[i] + pb[j]; });
      break;
    case BinaryKind::kSub:
      kernels::BroadcastMap(
          na, nb, [pa, pb, po](int64_t i, int64_t j) { po[i] = pa[i] - pb[j]; });
      break;
    case BinaryKind::kMul:
      kernels::BroadcastMap(
          na, nb, [pa, pb, po](int64_t i, int64_t j) { po[i] = pa[i] * pb[j]; });
      break;
    case BinaryKind::kDiv:
      kernels::BroadcastMap(
          na, nb, [pa, pb, po](int64_t i, int64_t j) { po[i] = pa[i] / pb[j]; });
      break;
  }

  auto a_impl = a.impl();
  auto b_impl = b.impl();
  AttachNode(&out, {a, b}, name, [a_impl, b_impl, kind, na, nb](TensorImpl& o) {
    const float* g = o.grad.data();
    const float* pa = a_impl->data.data();
    const float* pb = b_impl->data.data();
    if (NeedsGrad(a_impl)) {
      a_impl->EnsureGrad();
      float* ga = a_impl->grad.data();
      switch (kind) {
        case BinaryKind::kAdd:
        case BinaryKind::kSub:
          kernels::EltwiseMap(na, [ga, g](int64_t i) { ga[i] += g[i]; });
          break;
        case BinaryKind::kMul:
          kernels::BroadcastMap(na, nb, [ga, g, pb](int64_t i, int64_t j) {
            ga[i] += g[i] * pb[j];
          });
          break;
        case BinaryKind::kDiv:
          kernels::BroadcastMap(na, nb, [ga, g, pb](int64_t i, int64_t j) {
            ga[i] += g[i] / pb[j];
          });
          break;
      }
    }
    if (NeedsGrad(b_impl)) {
      b_impl->EnsureGrad();
      float* gb = b_impl->grad.data();
      // The broadcast operand's gradient reduces over the leading dims;
      // BroadcastReduce keeps per-slot accumulation in the pre-kernel loop
      // order while reading g sequentially.
      switch (kind) {
        case BinaryKind::kAdd:
          kernels::BroadcastReduce(
              na, nb, [gb, g](int64_t i, int64_t j) { gb[j] += g[i]; });
          break;
        case BinaryKind::kSub:
          kernels::BroadcastReduce(
              na, nb, [gb, g](int64_t i, int64_t j) { gb[j] -= g[i]; });
          break;
        case BinaryKind::kMul:
          kernels::BroadcastReduce(na, nb, [gb, g, pa](int64_t i, int64_t j) {
            gb[j] += g[i] * pa[i];
          });
          break;
        case BinaryKind::kDiv:
          kernels::BroadcastReduce(na, nb, [gb, g, pa, pb](int64_t i, int64_t j) {
            const float vb = pb[j];
            gb[j] -= g[i] * pa[i] / (vb * vb);
          });
          break;
      }
    }
  });
  return out;
}

/// Shared implementation for elementwise unary ops given value and local
/// derivative (as a function of input value x and output value y).
template <typename Fwd, typename Bwd>
Tensor UnaryOp(const Tensor& a, const char* name, Fwd fwd, Bwd dydx) {
  CDCL_CHECK(a.defined());
  Tensor out = Tensor::Uninitialized(a.shape());
  const int64_t n = a.NumElements();
  const float* pa = a.data();
  float* po = out.data();
  kernels::EltwiseMap(n, [pa, po, fwd](int64_t i) { po[i] = fwd(pa[i]); });

  auto a_impl = a.impl();
  AttachNode(&out, {a}, name, [a_impl, dydx, n](TensorImpl& o) {
    if (!NeedsGrad(a_impl)) return;
    a_impl->EnsureGrad();
    const float* g = o.grad.data();
    const float* px = a_impl->data.data();
    const float* py = o.data.data();
    float* ga = a_impl->grad.data();
    kernels::EltwiseMap(
        n, [g, px, py, ga, dydx](int64_t i) { ga[i] += g[i] * dydx(px[i], py[i]); });
  });
  return out;
}

using kernels::ForEachBatch;

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, BinaryKind::kAdd, "add");
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, BinaryKind::kSub, "sub");
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, BinaryKind::kMul, "mul");
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryOp(a, b, BinaryKind::kDiv, "div");
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, "add_scalar", [s](float x) { return x + s; },
      [](float, float) { return 1.0f; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, "mul_scalar", [s](float x) { return x * s; },
      [s](float, float) { return s; });
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, "relu", [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Gelu(const Tensor& a) {
  // tanh approximation of GELU; forward and derivative shared with the fused
  // eval/train epilogues (kernels/vec_math.h) so the paths cannot drift. The
  // forward runs the buffer sweep (SIMD over the body); the backward's
  // per-element GeluGradPsScalar evaluates the identical chain.
  CDCL_CHECK(a.defined());
  Tensor out = Tensor::Uninitialized(a.shape());
  const int64_t n = a.NumElements();
  kernels::GeluMapVec(n, a.data(), out.data());
  auto a_impl = a.impl();
  AttachNode(&out, {a}, "gelu", [a_impl, n](TensorImpl& o) {
    if (!NeedsGrad(a_impl)) return;
    a_impl->EnsureGrad();
    const float* g = o.grad.data();
    const float* px = a_impl->data.data();
    float* ga = a_impl->grad.data();
    kernels::EltwiseMap(n, [g, px, ga](int64_t i) {
      ga[i] += g[i] * kernels::GeluGradPsScalar(px[i]);
    });
  });
  return out;
}

Tensor Tanh(const Tensor& a) {
  // Vectorized polynomial sweep (kernels/vec_math.h). The backward needs only
  // the saved output, so the generic closure stays.
  CDCL_CHECK(a.defined());
  Tensor out = Tensor::Uninitialized(a.shape());
  const int64_t n = a.NumElements();
  kernels::TanhMapVec(n, a.data(), out.data());
  auto a_impl = a.impl();
  AttachNode(&out, {a}, "tanh", [a_impl, n](TensorImpl& o) {
    if (!NeedsGrad(a_impl)) return;
    a_impl->EnsureGrad();
    const float* g = o.grad.data();
    const float* py = o.data.data();
    float* ga = a_impl->grad.data();
    kernels::EltwiseMap(n, [g, py, ga](int64_t i) {
      ga[i] += g[i] * (1.0f - py[i] * py[i]);
    });
  });
  return out;
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, "sigmoid",
      [](float x) { return 1.0f / (1.0f + kernels::ExpPsScalar(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Exp(const Tensor& a) {
  CDCL_CHECK(a.defined());
  Tensor out = Tensor::Uninitialized(a.shape());
  const int64_t n = a.NumElements();
  kernels::ExpMapVec(n, a.data(), out.data());
  auto a_impl = a.impl();
  AttachNode(&out, {a}, "exp", [a_impl, n](TensorImpl& o) {
    if (!NeedsGrad(a_impl)) return;
    a_impl->EnsureGrad();
    const float* g = o.grad.data();
    const float* py = o.data.data();
    float* ga = a_impl->grad.data();
    kernels::EltwiseMap(
        n, [g, py, ga](int64_t i) { ga[i] += g[i] * py[i]; });
  });
  return out;
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      a, "log", [](float x) { return std::log(std::max(x, 1e-12f)); },
      [](float x, float) { return 1.0f / std::max(x, 1e-12f); });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      a, "sqrt", [](float x) { return std::sqrt(std::max(x, 0.0f)); },
      [](float, float y) { return 0.5f / std::max(y, 1e-12f); });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, "square", [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CDCL_CHECK_EQ(a.ndim(), 2);
  CDCL_CHECK_EQ(b.ndim(), 2);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  CDCL_CHECK_EQ(b.dim(0), k);
  Tensor out = Tensor::Uninitialized(Shape{m, n});
  kernels::GemmNN(m, n, k, a.data(), b.data(), out.data(), /*accumulate=*/false);

  auto a_impl = a.impl();
  auto b_impl = b.impl();
  AttachNode(&out, {a, b}, "matmul", [a_impl, b_impl, m, k, n](TensorImpl& o) {
    const float* g = o.grad.data();
    if (NeedsGrad(a_impl)) {
      a_impl->EnsureGrad();
      // dA += G * B^T
      kernels::GemmNT(m, k, n, g, b_impl->data.data(), a_impl->grad.data(),
                      /*accumulate=*/true);
    }
    if (NeedsGrad(b_impl)) {
      b_impl->EnsureGrad();
      // dB += A^T * G
      kernels::GemmTN(k, n, m, a_impl->data.data(), g, b_impl->grad.data(),
                      /*accumulate=*/true);
    }
  });
  return out;
}

Tensor BatchMatMul(const Tensor& a, const Tensor& b) {
  CDCL_CHECK_EQ(a.ndim(), 3);
  CDCL_CHECK_EQ(b.ndim(), 3);
  const int64_t bs = a.dim(0), m = a.dim(1), k = a.dim(2), n = b.dim(2);
  CDCL_CHECK_EQ(b.dim(0), bs);
  CDCL_CHECK_EQ(b.dim(1), k);
  Tensor out = Tensor::Uninitialized(Shape{bs, m, n});
  {
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    ForEachBatch(bs, [=](int64_t bi) {
      kernels::GemmNN(m, n, k, pa + bi * m * k, pb + bi * k * n,
                      po + bi * m * n, /*accumulate=*/false);
    });
  }

  auto a_impl = a.impl();
  auto b_impl = b.impl();
  AttachNode(&out, {a, b}, "bmm", [a_impl, b_impl, bs, m, k, n](TensorImpl& o) {
    const float* g_all = o.grad.data();
    const bool need_a = NeedsGrad(a_impl);
    const bool need_b = NeedsGrad(b_impl);
    if (need_a) a_impl->EnsureGrad();
    if (need_b) b_impl->EnsureGrad();
    ForEachBatch(bs, [&, m, k, n](int64_t bi) {
      const float* g = g_all + bi * m * n;
      if (need_a) {
        kernels::GemmNT(m, k, n, g, b_impl->data.data() + bi * k * n,
                        a_impl->grad.data() + bi * m * k, /*accumulate=*/true);
      }
      if (need_b) {
        kernels::GemmTN(k, n, m, a_impl->data.data() + bi * m * k, g,
                        b_impl->grad.data() + bi * k * n, /*accumulate=*/true);
      }
    });
  });
  return out;
}

Tensor BatchMatMulTransB(const Tensor& a, const Tensor& b) {
  CDCL_CHECK_EQ(a.ndim(), 3);
  CDCL_CHECK_EQ(b.ndim(), 3);
  const int64_t bs = a.dim(0), m = a.dim(1), k = a.dim(2), n = b.dim(1);
  CDCL_CHECK_EQ(b.dim(0), bs);
  CDCL_CHECK_EQ(b.dim(2), k);
  Tensor out = Tensor::Uninitialized(Shape{bs, m, n});
  {
    const float* pa = a.data();
    const float* pb = b.data();
    float* po = out.data();
    ForEachBatch(bs, [=](int64_t bi) {
      kernels::GemmNT(m, n, k, pa + bi * m * k, pb + bi * n * k,
                      po + bi * m * n, /*accumulate=*/false);
    });
  }

  auto a_impl = a.impl();
  auto b_impl = b.impl();
  AttachNode(&out, {a, b}, "bmm_nt",
             [a_impl, b_impl, bs, m, k, n](TensorImpl& o) {
               const float* g_all = o.grad.data();
               const bool need_a = NeedsGrad(a_impl);
               const bool need_b = NeedsGrad(b_impl);
               if (need_a) a_impl->EnsureGrad();
               if (need_b) b_impl->EnsureGrad();
               ForEachBatch(bs, [&, m, k, n](int64_t bi) {
                 const float* g = g_all + bi * m * n;
                 if (need_a) {
                   // dA += G * B  ((m,n) x (n,k))
                   kernels::GemmNN(m, k, n, g, b_impl->data.data() + bi * n * k,
                                   a_impl->grad.data() + bi * m * k,
                                   /*accumulate=*/true);
                 }
                 if (need_b) {
                   // dB += G^T * A  ((n,m) x (m,k))
                   kernels::GemmTN(n, k, m, g, a_impl->data.data() + bi * m * k,
                                   b_impl->grad.data() + bi * n * k,
                                   /*accumulate=*/true);
                 }
               });
             });
  return out;
}

Tensor Transpose(const Tensor& a) {
  CDCL_CHECK_EQ(a.ndim(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor out = Tensor::Uninitialized(Shape{n, m});
  const float* pa = a.data();
  float* po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) po[j * m + i] = pa[i * n + j];
  }
  auto a_impl = a.impl();
  AttachNode(&out, {a}, "transpose", [a_impl, m, n](TensorImpl& o) {
    if (!NeedsGrad(a_impl)) return;
    a_impl->EnsureGrad();
    const float* g = o.grad.data();
    float* ga = a_impl->grad.data();
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) ga[i * n + j] += g[j * m + i];
    }
  });
  return out;
}

Tensor TransposeLast2(const Tensor& a) {
  CDCL_CHECK_EQ(a.ndim(), 3);
  const int64_t b = a.dim(0), m = a.dim(1), n = a.dim(2);
  Tensor out = Tensor::Uninitialized(Shape{b, n, m});
  for (int64_t bi = 0; bi < b; ++bi) {
    const float* pa = a.data() + bi * m * n;
    float* po = out.data() + bi * m * n;
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) po[j * m + i] = pa[i * n + j];
    }
  }
  auto a_impl = a.impl();
  AttachNode(&out, {a}, "transpose_last2", [a_impl, b, m, n](TensorImpl& o) {
    if (!NeedsGrad(a_impl)) return;
    a_impl->EnsureGrad();
    for (int64_t bi = 0; bi < b; ++bi) {
      const float* g = o.grad.data() + bi * m * n;
      float* ga = a_impl->grad.data() + bi * m * n;
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) ga[i * n + j] += g[j * m + i];
      }
    }
  });
  return out;
}

Tensor Reshape(const Tensor& a, const Shape& shape) {
  CDCL_CHECK_EQ(a.NumElements(), shape.NumElements());
  Tensor out = Tensor::Uninitialized(shape);
  std::memcpy(out.data(), a.data(),
              static_cast<size_t>(a.NumElements()) * sizeof(float));
  auto a_impl = a.impl();
  const int64_t n = a.NumElements();
  AttachNode(&out, {a}, "reshape", [a_impl, n](TensorImpl& o) {
    if (!NeedsGrad(a_impl)) return;
    a_impl->AccumulateGrad(o.grad.data(), n);
  });
  return out;
}

Tensor Concat0(const std::vector<Tensor>& parts) {
  CDCL_CHECK(!parts.empty());
  std::vector<int64_t> dims = parts[0].shape().dims();
  CDCL_CHECK(!dims.empty());
  int64_t total_rows = 0;
  int64_t row_size = parts[0].NumElements() / std::max<int64_t>(dims[0], 1);
  for (const Tensor& p : parts) {
    CDCL_CHECK_EQ(p.ndim(), static_cast<int64_t>(dims.size()));
    for (size_t d = 1; d < dims.size(); ++d) {
      CDCL_CHECK_EQ(p.dim(static_cast<int64_t>(d)), dims[d]);
    }
    total_rows += p.dim(0);
  }
  dims[0] = total_rows;
  Tensor out = Tensor::Uninitialized(Shape(dims));
  int64_t offset = 0;
  for (const Tensor& p : parts) {
    const int64_t bytes_n = p.NumElements();
    std::memcpy(out.data() + offset, p.data(),
                static_cast<size_t>(bytes_n) * sizeof(float));
    offset += bytes_n;
  }

  std::vector<std::shared_ptr<TensorImpl>> impls;
  impls.reserve(parts.size());
  for (const Tensor& p : parts) impls.push_back(p.impl());
  AttachNode(&out, parts, "concat0", [impls, row_size](TensorImpl& o) {
    (void)row_size;
    int64_t offset = 0;
    for (const auto& impl : impls) {
      const int64_t n = static_cast<int64_t>(impl->data.size());
      if (NeedsGrad(impl)) {
        impl->AccumulateGrad(o.grad.data() + offset, n);
      }
      offset += n;
    }
  });
  return out;
}

Tensor ConcatLast(const std::vector<Tensor>& parts) {
  CDCL_CHECK(!parts.empty());
  const int64_t b = parts[0].dim(0);
  int64_t total = 0;
  for (const Tensor& p : parts) {
    CDCL_CHECK_EQ(p.ndim(), 2);
    CDCL_CHECK_EQ(p.dim(0), b);
    total += p.dim(1);
  }
  Tensor out = Tensor::Uninitialized(Shape{b, total});
  float* po = out.data();
  int64_t col = 0;
  for (const Tensor& p : parts) {
    const int64_t c = p.dim(1);
    const float* pp = p.data();
    for (int64_t i = 0; i < b; ++i) {
      std::memcpy(po + i * total + col, pp + i * c,
                  static_cast<size_t>(c) * sizeof(float));
    }
    col += c;
  }

  std::vector<std::shared_ptr<TensorImpl>> impls;
  std::vector<int64_t> widths;
  for (const Tensor& p : parts) {
    impls.push_back(p.impl());
    widths.push_back(p.dim(1));
  }
  AttachNode(&out, parts, "concat_last", [impls, widths, b, total](TensorImpl& o) {
    const float* g = o.grad.data();
    int64_t col = 0;
    for (size_t pi = 0; pi < impls.size(); ++pi) {
      const int64_t c = widths[pi];
      if (NeedsGrad(impls[pi])) {
        impls[pi]->EnsureGrad();
        float* gp = impls[pi]->grad.data();
        for (int64_t i = 0; i < b; ++i) {
          const float* grow = g + i * total + col;
          float* prow = gp + i * c;
          for (int64_t j = 0; j < c; ++j) prow[j] += grow[j];
        }
      }
      col += c;
    }
  });
  return out;
}

Tensor Slice0(const Tensor& a, int64_t start, int64_t length) {
  CDCL_CHECK_GE(a.ndim(), 1);
  CDCL_CHECK_GE(start, 0);
  CDCL_CHECK_GE(length, 0);
  CDCL_CHECK_LE(start + length, a.dim(0));
  std::vector<int64_t> dims = a.shape().dims();
  const int64_t row = a.NumElements() / std::max<int64_t>(dims[0], 1);
  dims[0] = length;
  Tensor out = Tensor::Uninitialized(Shape(dims));
  std::memcpy(out.data(), a.data() + start * row,
              static_cast<size_t>(length * row) * sizeof(float));
  auto a_impl = a.impl();
  AttachNode(&out, {a}, "slice0", [a_impl, start, length, row](TensorImpl& o) {
    if (!NeedsGrad(a_impl)) return;
    a_impl->EnsureGrad();
    const float* g = o.grad.data();
    float* ga = a_impl->grad.data() + start * row;
    for (int64_t i = 0; i < length * row; ++i) ga[i] += g[i];
  });
  return out;
}

Tensor IndexRows(const Tensor& a, const std::vector<int64_t>& indices) {
  CDCL_CHECK_GE(a.ndim(), 1);
  std::vector<int64_t> dims = a.shape().dims();
  const int64_t row = a.NumElements() / std::max<int64_t>(dims[0], 1);
  const int64_t rows_in = dims[0];
  dims[0] = static_cast<int64_t>(indices.size());
  Tensor out = Tensor::Uninitialized(Shape(dims));
  for (size_t i = 0; i < indices.size(); ++i) {
    CDCL_CHECK_GE(indices[i], 0);
    CDCL_CHECK_LT(indices[i], rows_in);
    if (i + 1 < indices.size() && indices[i + 1] >= 0 &&
        indices[i + 1] < rows_in) {
      // Gather rows land wherever the index list points; hint the next row
      // while this one is copied.
      PrefetchRead(a.data() + indices[i + 1] * row);
    }
    std::memcpy(out.data() + static_cast<int64_t>(i) * row,
                a.data() + indices[i] * row,
                static_cast<size_t>(row) * sizeof(float));
  }
  auto a_impl = a.impl();
  auto idx = indices;
  AttachNode(&out, {a}, "index_rows", [a_impl, idx, row](TensorImpl& o) {
    if (!NeedsGrad(a_impl)) return;
    a_impl->EnsureGrad();
    const float* g = o.grad.data();
    float* ga = a_impl->grad.data();
    for (size_t i = 0; i < idx.size(); ++i) {
      const float* grow = g + static_cast<int64_t>(i) * row;
      float* garow = ga + idx[i] * row;
      for (int64_t j = 0; j < row; ++j) garow[j] += grow[j];
    }
  });
  return out;
}

Tensor Sum(const Tensor& a) {
  const int64_t n = a.NumElements();
  const float* pa = a.data();
  // Fixed per-chunk partials combined in chunk order: bitwise-stable for any
  // thread count (the serial path walks the same chunk decomposition).
  const double acc = kernels::ReduceSum(
      n, [pa](int64_t i) { return static_cast<double>(pa[i]); });
  Tensor out = Tensor::Scalar(static_cast<float>(acc));
  auto a_impl = a.impl();
  AttachNode(&out, {a}, "sum", [a_impl, n](TensorImpl& o) {
    if (!NeedsGrad(a_impl)) return;
    a_impl->EnsureGrad();
    const float g = o.grad.data()[0];
    float* ga = a_impl->grad.data();
    kernels::EltwiseMap(n, [ga, g](int64_t i) { ga[i] += g; });
  });
  return out;
}

Tensor Mean(const Tensor& a) {
  const int64_t n = std::max<int64_t>(a.NumElements(), 1);
  return MulScalar(Sum(a), 1.0f / static_cast<float>(n));
}

Tensor SumLastDim(const Tensor& a) {
  CDCL_CHECK_GE(a.ndim(), 1);
  const int64_t d = a.dim(-1);
  const int64_t rows = a.NumElements() / d;
  std::vector<int64_t> dims = a.shape().dims();
  dims.pop_back();
  Tensor out = Tensor::Uninitialized(Shape(dims));
  const float* pa = a.data();
  float* po = out.data();
  kernels::RowMap(rows, d, [pa, po, d](int64_t r) {
    float acc = 0.0f;
    for (int64_t j = 0; j < d; ++j) acc += pa[r * d + j];
    po[r] = acc;
  });
  auto a_impl = a.impl();
  AttachNode(&out, {a}, "sum_last", [a_impl, rows, d](TensorImpl& o) {
    if (!NeedsGrad(a_impl)) return;
    a_impl->EnsureGrad();
    const float* g = o.grad.data();
    float* ga = a_impl->grad.data();
    kernels::RowMap(rows, d, [g, ga, d](int64_t r) {
      for (int64_t j = 0; j < d; ++j) ga[r * d + j] += g[r];
    });
  });
  return out;
}

Tensor MeanLastDim(const Tensor& a) {
  const int64_t d = std::max<int64_t>(a.dim(-1), 1);
  return MulScalar(SumLastDim(a), 1.0f / static_cast<float>(d));
}

Tensor Softmax(const Tensor& a) {
  CDCL_CHECK_GE(a.ndim(), 1);
  const int64_t d = a.dim(-1);
  const int64_t rows = a.NumElements() / d;
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  // Row arithmetic shared with the fused eval epilogue (scalar_math.h).
  kernels::RowMap(rows, d, [pa, po, d](int64_t r) {
    kernels::SoftmaxRow(pa + r * d, po + r * d, d);
  });
  auto a_impl = a.impl();
  AttachNode(&out, {a}, "softmax", [a_impl, rows, d](TensorImpl& o) {
    if (!NeedsGrad(a_impl)) return;
    a_impl->EnsureGrad();
    const float* g = o.grad.data();
    const float* y = o.data.data();
    float* ga = a_impl->grad.data();
    kernels::RowMap(rows, d, [g, y, ga, d](int64_t r) {
      const float* gr = g + r * d;
      const float* yr = y + r * d;
      float dot = 0.0f;
      for (int64_t j = 0; j < d; ++j) dot += gr[j] * yr[j];
      float* gar = ga + r * d;
      for (int64_t j = 0; j < d; ++j) gar[j] += yr[j] * (gr[j] - dot);
    });
  });
  return out;
}

Tensor LogSoftmax(const Tensor& a) {
  CDCL_CHECK_GE(a.ndim(), 1);
  const int64_t d = a.dim(-1);
  const int64_t rows = a.NumElements() / d;
  Tensor out = Tensor::Uninitialized(a.shape());
  const float* pa = a.data();
  float* po = out.data();
  kernels::RowMap(rows, d, [pa, po, d](int64_t r) {
    const float* xr = pa + r * d;
    float* yr = po + r * d;
    float mx = xr[0];
    for (int64_t j = 1; j < d; ++j) mx = std::max(mx, xr[j]);
    float z = 0.0f;
    for (int64_t j = 0; j < d; ++j) {
      z += kernels::ExpPsScalar(xr[j] - mx);
    }
    const float lse = mx + std::log(z);
    for (int64_t j = 0; j < d; ++j) yr[j] = xr[j] - lse;
  });
  auto a_impl = a.impl();
  AttachNode(&out, {a}, "log_softmax", [a_impl, rows, d](TensorImpl& o) {
    if (!NeedsGrad(a_impl)) return;
    a_impl->EnsureGrad();
    const float* g = o.grad.data();
    const float* y = o.data.data();
    float* ga = a_impl->grad.data();
    kernels::RowMap(rows, d, [g, y, ga, d](int64_t r) {
      const float* gr = g + r * d;
      const float* yr = y + r * d;
      float gsum = 0.0f;
      for (int64_t j = 0; j < d; ++j) gsum += gr[j];
      float* gar = ga + r * d;
      for (int64_t j = 0; j < d; ++j) {
        gar[j] += gr[j] - kernels::ExpPsScalar(yr[j]) * gsum;
      }
    });
  });
  return out;
}

Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  CDCL_CHECK_GE(x.ndim(), 1);
  const int64_t d = x.dim(-1);
  CDCL_CHECK_EQ(gamma.NumElements(), d);
  CDCL_CHECK_EQ(beta.NumElements(), d);
  const int64_t rows = x.NumElements() / d;
  Tensor out = Tensor::Uninitialized(x.shape());
  // Saved activations for the backward pass; tensors (fully overwritten
  // below) so they ride the step arena instead of per-call heap churn. The
  // row arithmetic lives in kernels/layernorm.h, shared with the fused
  // training sublayer nodes so the two paths cannot drift.
  Tensor inv_std = Tensor::Uninitialized(Shape{rows});
  Tensor xhat = Tensor::Uninitialized(Shape{rows * d});
  kernels::LayerNormForwardRows(rows, d, x.data(), gamma.data(), beta.data(),
                                eps, out.data(), inv_std.data(), xhat.data());

  auto x_impl = x.impl();
  auto g_impl = gamma.impl();
  auto b_impl = beta.impl();
  AttachNode(&out, {x, gamma, beta}, "layer_norm",
             [x_impl, g_impl, b_impl, rows, d, inv_std, xhat](TensorImpl& o) {
               const bool need_g = NeedsGrad(g_impl);
               const bool need_b = NeedsGrad(b_impl);
               const bool need_x = NeedsGrad(x_impl);
               if (need_g) g_impl->EnsureGrad();
               if (need_b) b_impl->EnsureGrad();
               if (need_x) x_impl->EnsureGrad();
               kernels::LayerNormBackwardRows(
                   rows, d, o.grad.data(), g_impl->data.data(), xhat.data(),
                   inv_std.data(), need_x ? x_impl->grad.data() : nullptr,
                   need_g ? g_impl->grad.data() : nullptr,
                   need_b ? b_impl->grad.data() : nullptr);
             });
  return out;
}

Tensor Dropout(const Tensor& x, float p, Rng* rng) {
  if (p <= 0.0f) return x;
  CDCL_CHECK_LT(p, 1.0f);
  CDCL_CHECK(rng != nullptr);
  const int64_t n = x.NumElements();
  std::vector<float> mask(static_cast<size_t>(n));
  const float scale = 1.0f / (1.0f - p);
  for (int64_t i = 0; i < n; ++i) {
    mask[static_cast<size_t>(i)] = rng->NextBool(p) ? 0.0f : scale;
  }
  Tensor m = Tensor::FromVector(x.shape(), std::move(mask));
  return Mul(x, m);
}

Tensor CrossEntropy(const Tensor& logits, const std::vector<int64_t>& labels) {
  CDCL_CHECK_EQ(logits.ndim(), 2);
  const int64_t b = logits.dim(0), c = logits.dim(1);
  CDCL_CHECK_EQ(static_cast<int64_t>(labels.size()), b);
  CDCL_CHECK_GT(b, 0);
  // Save the softmax probabilities for the backward pass (a step-arena
  // tensor; fully overwritten below). Rows are independent; per-row loss
  // terms are summed in row order afterwards so the result matches the
  // serial sweep bitwise.
  Tensor probs = Tensor::Uninitialized(Shape{b * c});
  std::vector<float> row_loss(static_cast<size_t>(b));
  const float* pl = logits.data();
  for (int64_t i = 0; i < b; ++i) {
    CDCL_CHECK_GE(labels[static_cast<size_t>(i)], 0);
    CDCL_CHECK_LT(labels[static_cast<size_t>(i)], c);
  }
  {
    float* pp = probs.data();
    float* prl = row_loss.data();
    const int64_t* plb = labels.data();
    kernels::RowMap(b, c, [pl, pp, prl, plb, c](int64_t i) {
      const float* xr = pl + i * c;
      float mx = xr[0];
      for (int64_t j = 1; j < c; ++j) mx = std::max(mx, xr[j]);
      float z = 0.0f;
      for (int64_t j = 0; j < c; ++j) {
        z += kernels::ExpPsScalar(xr[j] - mx);
      }
      const float lse = mx + std::log(z);
      prl[i] = lse - xr[plb[i]];
      for (int64_t j = 0; j < c; ++j) {
        pp[i * c + j] = kernels::ExpPsScalar(xr[j] - lse);
      }
    });
  }
  double loss = 0.0;
  for (int64_t i = 0; i < b; ++i) loss += row_loss[static_cast<size_t>(i)];
  Tensor out = Tensor::Scalar(static_cast<float>(loss / static_cast<double>(b)));
  auto l_impl = logits.impl();
  auto lbl = labels;
  AttachNode(&out, {logits}, "cross_entropy",
             [l_impl, lbl, b, c, probs = std::move(probs)](TensorImpl& o) {
               if (!NeedsGrad(l_impl)) return;
               l_impl->EnsureGrad();
               const float g = o.grad.data()[0] / static_cast<float>(b);
               float* gl = l_impl->grad.data();
               const float* pp = probs.data();
               const int64_t* plb = lbl.data();
               kernels::RowMap(b, c, [gl, pp, plb, g, c](int64_t i) {
                 for (int64_t j = 0; j < c; ++j) {
                   float p = pp[i * c + j];
                   if (j == plb[i]) p -= 1.0f;
                   gl[i * c + j] += g * p;
                 }
               });
             });
  return out;
}

Tensor SoftCrossEntropy(const Tensor& logits, const Tensor& target_probs) {
  CDCL_CHECK_EQ(logits.ndim(), 2);
  CDCL_CHECK(logits.shape() == target_probs.shape());
  const int64_t b = logits.dim(0);
  CDCL_CHECK_GT(b, 0);
  Tensor log_probs = LogSoftmax(logits);
  Tensor per_elem = Mul(target_probs, log_probs);
  return MulScalar(Sum(per_elem), -1.0f / static_cast<float>(b));
}

Tensor KlDivergenceToTarget(const Tensor& logits, const Tensor& target_logits) {
  CDCL_CHECK(logits.shape() == target_logits.shape());
  const int64_t b = logits.dim(0);
  CDCL_CHECK_GT(b, 0);
  Tensor target = Softmax(target_logits).Detach();
  Tensor log_q = LogSoftmax(logits);
  // KL(p||q) = sum p log p - sum p log q; the first term is constant.
  Tensor log_p = LogSoftmax(target_logits).Detach();
  Tensor kl = Sub(Mul(target, log_p), Mul(target, log_q));
  return MulScalar(Sum(kl), 1.0f / static_cast<float>(b));
}

Tensor MseLoss(const Tensor& a, const Tensor& b) {
  CDCL_CHECK(a.shape() == b.shape());
  Tensor diff = Sub(a, b);
  return Mean(Square(diff));
}

std::vector<int64_t> Argmax(const Tensor& logits) {
  CDCL_CHECK_EQ(logits.ndim(), 2);
  const int64_t b = logits.dim(0), c = logits.dim(1);
  std::vector<int64_t> out(static_cast<size_t>(b));
  const float* p = logits.data();
  for (int64_t i = 0; i < b; ++i) {
    const float* row = p + i * c;
    int64_t best = 0;
    for (int64_t j = 1; j < c; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[static_cast<size_t>(i)] = best;
  }
  return out;
}

std::vector<float> RowMax(const Tensor& values) {
  CDCL_CHECK_EQ(values.ndim(), 2);
  const int64_t b = values.dim(0), c = values.dim(1);
  std::vector<float> out(static_cast<size_t>(b));
  const float* p = values.data();
  for (int64_t i = 0; i < b; ++i) {
    const float* row = p + i * c;
    float best = row[0];
    for (int64_t j = 1; j < c; ++j) best = std::max(best, row[j]);
    out[static_cast<size_t>(i)] = best;
  }
  return out;
}

Tensor OneHot(const std::vector<int64_t>& labels, int64_t num_classes) {
  const int64_t b = static_cast<int64_t>(labels.size());
  Tensor out(Shape{b, num_classes});
  for (int64_t i = 0; i < b; ++i) {
    CDCL_CHECK_GE(labels[static_cast<size_t>(i)], 0);
    CDCL_CHECK_LT(labels[static_cast<size_t>(i)], num_classes);
    out.at(i, labels[static_cast<size_t>(i)]) = 1.0f;
  }
  return out;
}

}  // namespace ops
}  // namespace cdcl
