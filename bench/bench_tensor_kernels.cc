// Kernel-dispatch throughput benchmark: blocked/packed/parallel kernels vs
// the pre-kernel serial seed loops, at 1, 2 and N worker threads. The matmul
// rows cap the ISA (scalar: the blocked scalar tile; no cap: the packed-B
// SIMD path — same bits, different speed) so the packed-vs-blocked
// trajectory is recorded per run; the conv row times a full
// forward+backward step through the parallel per-chunk grad-scratch path;
// the attention rows time the fused batched inference path against the
// per-sample eval loop it replaces (both at 8 threads too, the acceptance
// shape for the batched-eval PR). Prints the usual aligned table and emits
// a BENCH_kernels.json report for tracking.
//
// Env knobs:
//   CDCL_BENCH_REPS   timing repetitions, best-of (default 3)
//   CDCL_BENCH_OUT    JSON report path (default BENCH_kernels.json)
//   CDCL_BENCH_MM     matmul dimension (default 512, i.e. 512^3)
//   CDCL_BENCH_ATTN   batched-attention batch size (default 128)

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "models/compact_transformer.h"
#include "nn/attention.h"
#include "nn/module.h"
#include "optim/optimizer.h"
#include "tensor/arena.h"
#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/kernels/parallel.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

using namespace cdcl;  // NOLINT: bench brevity

std::vector<float> RandVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Gaussian(0.0, 1.0));
  return v;
}

/// Best-of-`reps` wall time in milliseconds.
template <typename Fn>
double TimeMs(int64_t reps, Fn&& fn) {
  double best = 0.0;
  for (int64_t r = 0; r < reps; ++r) {
    Stopwatch timer;
    fn();
    const double ms = timer.ElapsedMillis();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

/// The seed repo's serial matmul loop, kept verbatim as the baseline.
void SeedMatMul(int64_t m, int64_t n, int64_t k, const float* pa,
                const float* pb, float* po) {
  for (int64_t i = 0; i < m * n; ++i) po[i] = 0.0f;
  for (int64_t i = 0; i < m; ++i) {
    float* orow = po + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      for (int64_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

struct BenchRow {
  std::string op;
  std::string size;
  double serial_ms = 0.0;
  std::vector<std::pair<int64_t, double>> per_thread_ms;

  double ThreadMs(int64_t threads) const {
    for (const auto& [t, ms] : per_thread_ms) {
      if (t == threads) return ms;
    }
    return 0.0;
  }
};

/// Headline speedups surfaced at the top of the JSON report (see the section
/// that computes each one).
struct Headlines {
  double packed_vs_blocked_1t = 0.0;
  double batched_attention_8t = 0.0;
};

void WriteJson(const std::string& path, const std::vector<BenchRow>& rows,
               const Headlines& h) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "WARNING: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"tensor_kernels\",\n"
               "  \"packed_vs_blocked_1t\": %.3f,\n"
               "  \"batched_attention_8t\": %.3f,\n"
               "  \"results\": [\n",
               h.packed_vs_blocked_1t, h.batched_attention_8t);
  for (size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    std::fprintf(f, "    {\"op\": \"%s\", \"size\": \"%s\", \"serial_ms\": %.3f, ",
                 r.op.c_str(), r.size.c_str(), r.serial_ms);
    std::fprintf(f, "\"threads_ms\": {");
    for (size_t t = 0; t < r.per_thread_ms.size(); ++t) {
      std::fprintf(f, "%s\"%lld\": %.3f", t == 0 ? "" : ", ",
                   static_cast<long long>(r.per_thread_ms[t].first),
                   r.per_thread_ms[t].second);
    }
    const double t4 = r.ThreadMs(4);
    std::fprintf(f, "}, \"speedup_4t_vs_serial\": %.3f}%s\n",
                 t4 > 0.0 ? r.serial_ms / t4 : 0.0,
                 i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main() {
  const int64_t reps = EnvInt("CDCL_BENCH_REPS", 3);
  const int64_t mm = EnvInt("CDCL_BENCH_MM", 512);
  const std::string out_path =
      EnvString("CDCL_BENCH_OUT", "BENCH_kernels.json");
  std::vector<int64_t> thread_counts = {1, 2, 4};
  kernels::SetNumThreads(0);
  const int64_t hw = kernels::GetNumThreads();
  if (hw > 4) thread_counts.push_back(hw);

  std::printf(
      "== tensor kernel throughput (reps=%lld, hw threads=%lld, "
      "avx2=%d) ==\n",
      static_cast<long long>(reps), static_cast<long long>(hw),
      kernels::CpuHasAvx2Fma() ? 1 : 0);
  std::vector<BenchRow> rows;

  // --- MatMul: mm x mm x mm, blocked scalar tile vs packed SIMD path --------
  // The packed rule takes this shape whenever the ISA cap allows SIMD.
  {
    const int64_t m = mm, n = mm, k = mm;
    const std::vector<float> a = RandVec(m * k, 1), b = RandVec(k * n, 2);
    std::vector<float> c(static_cast<size_t>(m * n));
    const std::string size =
        StrFormat("%lldx%lldx%lld", static_cast<long long>(m),
                  static_cast<long long>(k), static_cast<long long>(n));
    const double seed_serial_ms =
        TimeMs(reps, [&] { SeedMatMul(m, n, k, a.data(), b.data(), c.data()); });
    const struct {
      const char* op;
      kernels::IsaCap cap;
    } kMatmulRows[] = {
        {"matmul_blocked", kernels::IsaCap::kScalar},
        {"matmul_packed", kernels::IsaCap::kAvx512},
    };
    for (const auto& spec : kMatmulRows) {
      BenchRow row;
      row.op = spec.op;
      row.size = size;
      row.serial_ms = seed_serial_ms;
      kernels::SetIsaCap(spec.cap);
      for (int64_t t : thread_counts) {
        kernels::SetNumThreads(t);
        row.per_thread_ms.emplace_back(t, TimeMs(reps, [&] {
          kernels::GemmNN(m, n, k, a.data(), b.data(), c.data(), false);
        }));
      }
      kernels::SetIsaCap(kernels::IsaCap::kAvx512);
      rows.push_back(row);
    }
  }

  // --- Conv2d forward+backward through the parallel grad-scratch path -------
  {
    const int64_t cb = 8, cc = 8, chw = 32, co = 16, ck = 3;
    Rng rng(6);
    Tensor x = Tensor::Randn(Shape{cb, cc, chw, chw}, &rng, 1.0f, true);
    Tensor w = Tensor::Randn(Shape{co, cc, ck, ck}, &rng, 1.0f, true);
    Tensor bias = Tensor::Randn(Shape{co}, &rng, 1.0f, true);
    auto step = [&] {
      x.ZeroGrad();
      w.ZeroGrad();
      bias.ZeroGrad();
      Tensor loss = ops::Sum(ops::Conv2d(x, w, bias, 1, 1));
      loss.Backward();
    };
    BenchRow row;
    row.op = "conv2d_fwd_bwd";
    row.size = StrFormat("b%lld %lldx%lldx%lld k%lld o%lld",
                         static_cast<long long>(cb), static_cast<long long>(cc),
                         static_cast<long long>(chw),
                         static_cast<long long>(chw), static_cast<long long>(ck),
                         static_cast<long long>(co));
    kernels::SetNumThreads(1);
    row.serial_ms = TimeMs(reps, step);
    for (int64_t t : thread_counts) {
      kernels::SetNumThreads(t);
      row.per_thread_ms.emplace_back(t, TimeMs(reps, step));
    }
    rows.push_back(row);
  }

  // --- Batched fused attention vs the per-sample eval loop ------------------
  // Paper-model eval shape: seq 16 tokens (image_hw=16 through the 2-layer
  // tokenizer) at embed_dim 24 (ModelConfig::Small). Per-sample, every
  // projection is a separate 16-row GEMM with its own pack and dispatch; the
  // flattened (b*n, d) batched projections pay those once per batch, which
  // is the fused path's headline win on the table benches.
  {
    const int64_t ab = EnvInt("CDCL_BENCH_ATTN", 128), an = 16, ad = 24;
    Rng rng(7);
    nn::TaskConditionedAttention attn(ad, an, &rng);
    attn.AddTask();
    attn.SetTraining(false);
    Tensor x = Tensor::Randn(Shape{ab, an, ad}, &rng);
    NoGradGuard no_grad;
    // The pre-batching eval shape: one sample at a time through the op-by-op
    // attention (per-sample projections, scores, softmax, scores*V).
    auto per_sample = [&] {
      for (int64_t i = 0; i < ab; ++i) {
        Tensor y = attn.SelfAttention(ops::Slice0(x, i, 1), 0);
        (void)y;
      }
    };
    auto batched = [&] {
      Tensor y = attn.SelfAttentionFused(x, 0);
      (void)y;
    };
    // The acceptance shape for the batched-eval path is 8 threads; make sure
    // it is timed even when the default ladder stops earlier.
    std::vector<int64_t> attn_threads = thread_counts;
    if (std::find(attn_threads.begin(), attn_threads.end(), int64_t{8}) ==
        attn_threads.end()) {
      attn_threads.push_back(8);
    }
    const std::string size =
        StrFormat("b%lld n%lld d%lld", static_cast<long long>(ab),
                  static_cast<long long>(an), static_cast<long long>(ad));
    kernels::SetNumThreads(1);
    const double per_sample_1t = TimeMs(reps, per_sample);
    BenchRow loop_row, fused_row;
    loop_row.op = "attn_eval_persample";
    fused_row.op = "attn_eval_batched";
    loop_row.size = fused_row.size = size;
    loop_row.serial_ms = fused_row.serial_ms = per_sample_1t;
    for (int64_t t : attn_threads) {
      kernels::SetNumThreads(t);
      loop_row.per_thread_ms.emplace_back(t, TimeMs(reps, per_sample));
      fused_row.per_thread_ms.emplace_back(t, TimeMs(reps, batched));
    }
    rows.push_back(loop_row);
    rows.push_back(fused_row);
  }

  // --- Training step: EncodeCross fwd + bwd + AdamW at the paper shape ------
  // The CDCL training hot path (ModelConfig::Small: 16x16x3 images through
  // the 2-layer tokenizer -> 16 tokens at d=24, 2 encoder layers, two-stream
  // cross-encoding): one full step of cross-encoding, three CE losses,
  // backward and a fused AdamW update, on the default training runtime
  // (fused sublayer nodes, step arena). The serial column is the 1-thread
  // time, so the row's speedup is the step's thread scaling.
  {
    const int64_t tb = EnvInt("CDCL_BENCH_STEP_BATCH", 16);
    const int64_t classes = 4;
    Rng rng(9);
    models::ModelConfig config = models::ModelConfig::Small(16, 3);
    models::CompactTransformer model(config, &rng);
    model.AddTask(classes);
    optim::AdamW opt(model.TrainableParameters(), 1e-4f, 0.9f, 0.999f, 1e-8f,
                     0.01f);
    Tensor xs = Tensor::Randn(Shape{tb, 3, 16, 16}, &rng);
    Tensor xt = Tensor::Randn(Shape{tb, 3, 16, 16}, &rng);
    std::vector<int64_t> labels(static_cast<size_t>(tb));
    for (int64_t i = 0; i < tb; ++i) {
      labels[static_cast<size_t>(i)] = i % classes;
    }
    Arena arena;
    auto step = [&] {
      ArenaScope scope(&arena);
      auto enc = model.EncodeCross(xs, xt, 0);
      Tensor loss = ops::CrossEntropy(model.CilLogits(enc.z_source), labels);
      loss = ops::Add(loss, ops::CrossEntropy(model.CilLogits(enc.z_target),
                                              labels));
      loss = ops::Add(loss, ops::CrossEntropy(model.TilLogits(enc.z_mixed, 0),
                                              labels));
      loss.Backward();
      opt.Step();
      opt.ZeroGrad();
    };
    std::vector<int64_t> step_threads = thread_counts;
    if (std::find(step_threads.begin(), step_threads.end(), int64_t{8}) ==
        step_threads.end()) {
      step_threads.push_back(8);
    }
    BenchRow row;
    row.op = "train_step_fused_arena";
    row.size = StrFormat("b%lld n16 d24 l2 x2streams",
                         static_cast<long long>(tb));
    constexpr int64_t kStepsPerRep = 4;
    for (int64_t t : step_threads) {
      kernels::SetNumThreads(t);
      step();  // warm-up
      const double ms = TimeMs(reps, [&] {
        for (int64_t i = 0; i < kStepsPerRep; ++i) step();
      }) / kStepsPerRep;
      row.per_thread_ms.emplace_back(t, ms);
      if (t == 1) row.serial_ms = ms;
    }
    rows.push_back(row);
  }

  // --- Elementwise: suffix-broadcast add ------------------------------------
  {
    const int64_t n = int64_t{1} << 22, period = 1024;
    const std::vector<float> a = RandVec(n, 3), bias = RandVec(period, 4);
    std::vector<float> o(static_cast<size_t>(n));
    BenchRow row;
    row.op = "eltwise_broadcast_add";
    row.size = StrFormat("%lld (bias %lld)", static_cast<long long>(n),
                         static_cast<long long>(period));
    const float* pa = a.data();
    const float* pb = bias.data();
    float* po = o.data();
    // Seed loop recomputed i % nb per element.
    row.serial_ms = TimeMs(reps, [&] {
      for (int64_t i = 0; i < n; ++i) po[i] = pa[i] + pb[i % period];
    });
    for (int64_t t : thread_counts) {
      kernels::SetNumThreads(t);
      row.per_thread_ms.emplace_back(t, TimeMs(reps, [&] {
        kernels::BroadcastMap(
            n, period, [pa, pb, po](int64_t i, int64_t j) { po[i] = pa[i] + pb[j]; });
      }));
    }
    rows.push_back(row);
  }

  // --- Reduction: full sum ---------------------------------------------------
  {
    const int64_t n = int64_t{1} << 22;
    const std::vector<float> a = RandVec(n, 5);
    const float* pa = a.data();
    BenchRow row;
    row.op = "reduce_sum";
    row.size = StrFormat("%lld", static_cast<long long>(n));
    volatile double sink = 0.0;
    row.serial_ms = TimeMs(reps, [&] {
      double acc = 0.0;
      for (int64_t i = 0; i < n; ++i) acc += pa[i];
      sink = acc;
    });
    for (int64_t t : thread_counts) {
      kernels::SetNumThreads(t);
      row.per_thread_ms.emplace_back(t, TimeMs(reps, [&] {
        sink = kernels::ReduceSum(
            n, [pa](int64_t i) { return static_cast<double>(pa[i]); });
      }));
    }
    (void)sink;
    rows.push_back(row);
  }

  // --- Scheduler dispatch overhead: empty region ---------------------------
  // Per-region fork/join latency with a no-op body at a 4-participant team —
  // pure scheduling cost, the term that dominates the d=24 shapes:
  // kernels::ParallelChunks over the persistent RegionPool team (one epoch
  // publish, shared chunk counter, completion join). The value is
  // nanoseconds per region, in the 4-thread column; the row has no serial
  // counterpart.
  {
    const int64_t team = 4;
    constexpr int64_t kRegions = 2000;
    kernels::SetNumThreads(team);
    auto region = [team] {
      kernels::ParallelChunks(team, 1, [](int64_t, int64_t) {});
    };
    region();  // warm-up the team
    const double ns =
        TimeMs(reps, [&] { for (int64_t r = 0; r < kRegions; ++r) region(); }) *
        1.0e6 / kRegions;
    BenchRow row;
    row.op = "dispatch_overhead_ns";
    row.size = StrFormat("team %lld, empty region",
                         static_cast<long long>(team));
    row.per_thread_ms.emplace_back(team, ns);  // ns per region
    rows.push_back(row);
  }
  kernels::SetNumThreads(0);

  std::vector<std::string> header = {"op", "size", "serial ms"};
  for (int64_t t : thread_counts) {
    header.push_back(StrFormat("%lldT ms", static_cast<long long>(t)));
  }
  header.push_back("speedup 4T");
  TablePrinter table(header);
  for (const BenchRow& r : rows) {
    std::vector<std::string> cells = {r.op, r.size,
                                      StrFormat("%.2f", r.serial_ms)};
    for (int64_t t : thread_counts) {
      cells.push_back(StrFormat("%.2f", r.ThreadMs(t)));
    }
    const double t4 = r.ThreadMs(4);
    cells.push_back(StrFormat("%.2fx", t4 > 0.0 ? r.serial_ms / t4 : 0.0));
    table.AddRow(cells);
  }
  table.Print();

  // Headline number for the packed-B SIMD path: single-thread speedup over
  // the PR-1 blocked scalar tile on the same shape.
  double packed_vs_blocked = 0.0;
  {
    double blocked = 0.0, packed = 0.0;
    for (const BenchRow& r : rows) {
      if (r.op == "matmul_blocked") blocked = r.ThreadMs(1);
      if (r.op == "matmul_packed") packed = r.ThreadMs(1);
    }
    if (blocked > 0.0 && packed > 0.0) packed_vs_blocked = blocked / packed;
    std::printf("packed vs blocked GEMM (1 thread): %.2fx\n",
                packed_vs_blocked);
  }

  // Headline number for the fused batched eval path: batched-attention
  // throughput vs the per-sample loop, both at 8 threads.
  double batched_attention_8t = 0.0;
  {
    double loop8 = 0.0, fused8 = 0.0;
    for (const BenchRow& r : rows) {
      if (r.op == "attn_eval_persample") loop8 = r.ThreadMs(8);
      if (r.op == "attn_eval_batched") fused8 = r.ThreadMs(8);
    }
    if (loop8 > 0.0 && fused8 > 0.0) batched_attention_8t = loop8 / fused8;
    std::printf("batched vs per-sample attention eval (8 threads): %.2fx\n",
                batched_attention_8t);
  }

  Headlines headlines;
  headlines.packed_vs_blocked_1t = packed_vs_blocked;
  headlines.batched_attention_8t = batched_attention_8t;
  WriteJson(out_path, rows, headlines);
  std::printf("report written to %s\n", out_path.c_str());
  return 0;
}
