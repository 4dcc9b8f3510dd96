// Kernel-dispatch throughput benchmark: blocked/packed/parallel kernels vs
// the pre-kernel serial seed loops, at 1, 2 and N worker threads. The matmul
// rows pin the dispatcher to one kernel each (blocked scalar tile vs the
// packed-B SIMD path) so the packed-vs-blocked trajectory is recorded per
// run; the conv row times a full forward+backward step through the parallel
// per-chunk grad-scratch path; the attention rows time the fused batched
// inference path against the per-sample eval loop it replaces (both at 8
// threads too, the acceptance shape for the batched-eval PR). Prints the
// usual aligned table and emits a BENCH_kernels.json report for tracking.
//
// Env knobs:
//   CDCL_BENCH_REPS   timing repetitions, best-of (default 3)
//   CDCL_BENCH_OUT    JSON report path (default BENCH_kernels.json)
//   CDCL_BENCH_MM     matmul dimension (default 512, i.e. 512^3)
//   CDCL_BENCH_ATTN   batched-attention batch size (default 128)

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "models/compact_transformer.h"
#include "nn/attention.h"
#include "nn/module.h"
#include "optim/optimizer.h"
#include "tensor/arena.h"
#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/layernorm.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/kernels/parallel.h"
#include "tensor/kernels/vec_math.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/env.h"
#include "util/pipeline.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
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
  double train_step_fused_arena_1t = 0.0;
  double train_step_fused_arena_8t = 0.0;
  double vec_exp_1t = 0.0;
  double vec_tanh_1t = 0.0;
  double layernorm_fused_1t = 0.0;
  double dispatch_overhead_old_vs_new = 0.0;
  double train_step_pipelined_8t = 0.0;
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
               "  \"train_step_fused_arena_1t\": %.3f,\n"
               "  \"train_step_fused_arena_8t\": %.3f,\n"
               "  \"vec_exp_1t\": %.3f,\n"
               "  \"vec_tanh_1t\": %.3f,\n"
               "  \"layernorm_fused_1t\": %.3f,\n"
               "  \"dispatch_overhead_old_vs_new\": %.3f,\n"
               "  \"train_step_pipelined_8t\": %.3f,\n"
               "  \"results\": [\n",
               h.packed_vs_blocked_1t, h.batched_attention_8t,
               h.train_step_fused_arena_1t, h.train_step_fused_arena_8t,
               h.vec_exp_1t, h.vec_tanh_1t, h.layernorm_fused_1t,
               h.dispatch_overhead_old_vs_new, h.train_step_pipelined_8t);
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
  // Sections that pin a numerics mode (layernorm serial leg, the train-step
  // seed/fused protocol) restore this ambient CDCL_VEC_MATH mode so the
  // other rows honor the requested environment.
  const bool ambient_vec_math = kernels::VecMathEnabled();
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
      kernels::GemmKernel kernel;
    } kMatmulRows[] = {
        {"matmul_blocked", kernels::GemmKernel::kScalar},
        {"matmul_packed", kernels::GemmKernel::kPacked},
        {"matmul_auto", kernels::GemmKernel::kAuto},
    };
    for (const auto& spec : kMatmulRows) {
      BenchRow row;
      row.op = spec.op;
      row.size = size;
      row.serial_ms = seed_serial_ms;
      kernels::SetGemmKernel(spec.kernel);
      for (int64_t t : thread_counts) {
        kernels::SetNumThreads(t);
        row.per_thread_ms.emplace_back(t, TimeMs(reps, [&] {
          kernels::GemmNN(m, n, k, a.data(), b.data(), c.data(), false);
        }));
      }
      kernels::SetGemmKernel(kernels::GemmKernel::kAuto);
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

  // --- Vectorized transcendentals vs the libm scalar loops ------------------
  // The serial column is the pre-tier numerics (CDCL_VEC_MATH=0): a plain
  // libm sweep at one thread. The per-thread columns run the polynomial
  // SIMD tier through the parallel maps — the same kernels the GELU/softmax
  // epilogues and the op-path activations dispatch to.
  double vec_exp_1t = 0.0, vec_tanh_1t = 0.0, layernorm_fused_1t = 0.0;
  {
    const int64_t n = int64_t{1} << 20;
    std::vector<float> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      x[static_cast<size_t>(i)] =
          -6.0f + 12.0f * static_cast<float>(i % 4096) / 4096.0f;
    }
    const float* px = x.data();
    float* py = y.data();
    struct VecSpec {
      const char* op;
      void (*libm)(int64_t, const float*, float*);
      void (*vec)(int64_t, const float*, float*);
      double* headline;
    };
    const VecSpec kVecRows[] = {
        {"vec_exp",
         [](int64_t count, const float* in, float* out) {
           for (int64_t i = 0; i < count; ++i) out[i] = std::exp(in[i]);
         },
         &kernels::ExpMapVec, &vec_exp_1t},
        {"vec_tanh",
         [](int64_t count, const float* in, float* out) {
           for (int64_t i = 0; i < count; ++i) out[i] = std::tanh(in[i]);
         },
         &kernels::TanhMapVec, &vec_tanh_1t},
    };
    for (const VecSpec& spec : kVecRows) {
      BenchRow row;
      row.op = spec.op;
      row.size = StrFormat("%lld", static_cast<long long>(n));
      kernels::SetNumThreads(1);
      row.serial_ms = TimeMs(reps, [&] { spec.libm(n, px, py); });
      for (int64_t t : thread_counts) {
        kernels::SetNumThreads(t);
        row.per_thread_ms.emplace_back(t, TimeMs(reps, [&] {
          spec.vec(n, px, py);
        }));
      }
      *spec.headline = row.ThreadMs(1) > 0.0 ? row.serial_ms / row.ThreadMs(1)
                                             : 0.0;
      rows.push_back(row);
    }
  }

  // --- Fused LayerNorm forward: vectorized moments vs the legacy rows -------
  // Paper-shape rows (d=24): serial = legacy serial moments (CDCL_VEC_MATH=0)
  // at one thread; per-thread = the virtual-lane vectorized kernel the fused
  // sublayer nodes and ops::LayerNorm share.
  {
    const int64_t lrows = int64_t{1} << 16, ld = 24;
    const std::vector<float> x = RandVec(lrows * ld, 11);
    std::vector<float> o(static_cast<size_t>(lrows * ld));
    std::vector<float> inv(static_cast<size_t>(lrows));
    std::vector<float> hat(static_cast<size_t>(lrows * ld));
    const std::vector<float> gamma = RandVec(ld, 12), beta = RandVec(ld, 13);
    auto fwd = [&] {
      kernels::LayerNormForwardRows(lrows, ld, x.data(), gamma.data(),
                                    beta.data(), 1e-5f, o.data(), inv.data(),
                                    hat.data());
    };
    BenchRow row;
    row.op = "layernorm_fused";
    row.size = StrFormat("%lldx%lld", static_cast<long long>(lrows),
                         static_cast<long long>(ld));
    kernels::SetNumThreads(1);
    kernels::SetVecMath(false);
    row.serial_ms = TimeMs(reps, fwd);
    kernels::SetVecMath(true);
    for (int64_t t : thread_counts) {
      kernels::SetNumThreads(t);
      row.per_thread_ms.emplace_back(t, TimeMs(reps, fwd));
    }
    kernels::SetVecMath(ambient_vec_math);
    layernorm_fused_1t =
        row.ThreadMs(1) > 0.0 ? row.serial_ms / row.ThreadMs(1) : 0.0;
    rows.push_back(row);
  }

  // --- Batched fused attention vs the per-sample eval loop ------------------
  // Paper-model eval shape: seq 16 tokens (image_hw=16 through the 2-layer
  // tokenizer) at embed_dim 24 (ModelConfig::Small). Per-sample, every GEMM
  // sits below the packed-SIMD work floor and runs on the scalar tile; the
  // flattened (b*n, d) batched projections cross it, which is the fused
  // path's headline win on the table benches.
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
  // backward and a fused AdamW update. The op row runs the seed training
  // runtime exactly as PR 3 left it: op-by-op tape, heap storage, the PR-2
  // work-floor-only GEMM auto dispatch (narrow-pack off), and libm
  // transcendentals (vec-math off). The fused row runs the current training
  // runtime: fused attention/FFN sublayer nodes with their pre-norm
  // LayerNorms folded in, step arena, narrow-output packed-GEMM dispatch,
  // and the vectorized transcendental tier — the defaults. Fusion and arena
  // are bitwise-invisible (tests/arena_test.cc); narrow-pack runs the same
  // per-element math on a different kernel tier (float-rounding-level
  // difference); the vec-math tier is a numerics mode (polynomial
  // exp/tanh/GELU, <= 2 ULP of libm; CDCL_VEC_MATH=0 restores the seed
  // numerics exactly).
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
    auto step_on = [&](const Tensor& bxs, const Tensor& bxt) {
      ArenaScope scope(&arena);  // no-op while the arena toggle is off
      auto enc = model.EncodeCross(bxs, bxt, 0);
      Tensor loss = ops::CrossEntropy(model.CilLogits(enc.z_source), labels);
      loss = ops::Add(loss, ops::CrossEntropy(model.CilLogits(enc.z_target),
                                              labels));
      loss = ops::Add(loss, ops::CrossEntropy(model.TilLogits(enc.z_mixed, 0),
                                              labels));
      loss.Backward();
      opt.Step();
      opt.ZeroGrad();
    };
    auto step = [&] { step_on(xs, xt); };
    const std::string size = StrFormat("b%lld n16 d24 l2 x2streams",
                                       static_cast<long long>(tb));
    std::vector<int64_t> step_threads = thread_counts;
    if (std::find(step_threads.begin(), step_threads.end(), int64_t{8}) ==
        step_threads.end()) {
      step_threads.push_back(8);
    }
    BenchRow op_row, fused_row;
    op_row.op = "train_step_op";
    fused_row.op = "train_step_fused_arena";
    op_row.size = fused_row.size = size;
    auto seed_config = [] {
      SetArenaEnabled(false);
      nn::SetFusedTrain(false);
      kernels::SetGemmNarrowPack(false);
      kernels::SetVecMath(false);  // libm transcendentals: the seed numerics
    };
    auto fused_config = [] {
      SetArenaEnabled(true);
      nn::SetFusedTrain(true);
      kernels::SetGemmNarrowPack(true);
      kernels::SetVecMath(true);  // vectorized polynomial tier (the default)
    };
    // The two configurations are timed in alternation (best-of per side) so
    // slow machine-level drift over the bench run cancels out of the ratio.
    constexpr int64_t kStepsPerRep = 4;
    for (int64_t t : step_threads) {
      kernels::SetNumThreads(t);
      double best_op = 0.0, best_fused = 0.0;
      for (int64_t r = 0; r < 2 * reps; ++r) {
        seed_config();
        step();  // transition warm-up
        Stopwatch op_timer;
        for (int64_t i = 0; i < kStepsPerRep; ++i) step();
        const double op_ms = op_timer.ElapsedMillis() / kStepsPerRep;
        if (r == 0 || op_ms < best_op) best_op = op_ms;
        fused_config();
        step();
        Stopwatch fused_timer;
        for (int64_t i = 0; i < kStepsPerRep; ++i) step();
        const double fused_ms = fused_timer.ElapsedMillis() / kStepsPerRep;
        if (r == 0 || fused_ms < best_fused) best_fused = fused_ms;
      }
      op_row.per_thread_ms.emplace_back(t, best_op);
      fused_row.per_thread_ms.emplace_back(t, best_fused);
      if (t == 1) op_row.serial_ms = fused_row.serial_ms = best_op;
    }
    rows.push_back(op_row);
    rows.push_back(fused_row);

    // --- Pipelined step: batch gather overlapping the optimizer step --------
    // The CDCL_ASYNC_PIPELINE shape through the trainer loops: prepare
    // assembles batch k+1's source/target tensors from a sample pool by row
    // gather (the StackRecords/IndexRows access pattern) on the pipeline
    // thread, while the fused train step runs on batch k. The sync row is
    // the identical loop with the prepare deferred to Await — the
    // pre-pipeline execution order — so the ratio isolates the overlap win.
    {
      const int64_t pool_n = 256, per = 3 * 16 * 16;
      Rng prng(21);
      Tensor xs_pool = Tensor::Randn(Shape{pool_n, 3, 16, 16}, &prng);
      Tensor xt_pool = Tensor::Randn(Shape{pool_n, 3, 16, 16}, &prng);
      Tensor slot_xs[2] = {Tensor(Shape{tb, 3, 16, 16}),
                           Tensor(Shape{tb, 3, 16, 16})};
      Tensor slot_xt[2] = {Tensor(Shape{tb, 3, 16, 16}),
                           Tensor(Shape{tb, 3, 16, 16})};
      auto gather = [&](int64_t step_index, int slot) {
        for (int64_t j = 0; j < tb; ++j) {
          const int64_t src = (step_index * 17 + j * 5) % pool_n;
          std::memcpy(slot_xs[slot].data() + j * per,
                      xs_pool.data() + src * per,
                      static_cast<size_t>(per) * sizeof(float));
          std::memcpy(slot_xt[slot].data() + j * per,
                      xt_pool.data() + src * per,
                      static_cast<size_t>(per) * sizeof(float));
        }
      };
      constexpr int64_t kPipeSteps = 4;
      auto run_steps = [&](bool async) {
        StepPipeline pipe(async);
        int cur = 0;
        pipe.Submit([&gather, cur] { gather(0, cur); });
        for (int64_t s = 0; s < kPipeSteps; ++s) {
          pipe.Await();
          const int next = 1 - cur;
          if (s + 1 < kPipeSteps) {
            pipe.Submit([&gather, s, next] { gather(s + 1, next); });
          }
          step_on(slot_xs[cur], slot_xt[cur]);
          cur = next;
        }
      };
      fused_config();
      BenchRow sync_row, async_row;
      sync_row.op = "train_step_pipeline_sync";
      async_row.op = "train_step_pipelined";
      sync_row.size = async_row.size = size;
      for (int64_t t : step_threads) {
        kernels::SetNumThreads(t);
        run_steps(false);  // warm-up
        double best_sync = 0.0, best_async = 0.0;
        for (int64_t r = 0; r < reps; ++r) {
          Stopwatch sync_timer;
          run_steps(false);
          const double sync_ms = sync_timer.ElapsedMillis() / kPipeSteps;
          if (r == 0 || sync_ms < best_sync) best_sync = sync_ms;
          Stopwatch async_timer;
          run_steps(true);
          const double async_ms = async_timer.ElapsedMillis() / kPipeSteps;
          if (r == 0 || async_ms < best_async) best_async = async_ms;
        }
        sync_row.per_thread_ms.emplace_back(t, best_sync);
        async_row.per_thread_ms.emplace_back(t, best_async);
        if (t == 1) sync_row.serial_ms = async_row.serial_ms = best_sync;
      }
      rows.push_back(sync_row);
      rows.push_back(async_row);
    }
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

  // --- Scheduler dispatch overhead: empty region, old vs new ----------------
  // Per-region fork/join latency with a no-op body at a 4-participant team —
  // pure scheduling cost, the term that dominated the d=24 shapes. The old
  // column replays the seed's protocol verbatim (one ThreadPool::Submit per
  // helper — queue mutex + condvar each — and a condvar join); the new
  // column is kernels::ParallelChunks over the persistent RegionPool team
  // (one epoch publish, shared chunk counter, arrival-counter join). Both
  // values are nanoseconds per region; the speedup column is the headline
  // old/new improvement.
  double dispatch_old_vs_new = 0.0;
  {
    const int64_t team = 4;
    constexpr int64_t kRegions = 2000;
    ThreadPool old_pool(static_cast<size_t>(team - 1));
    auto old_region = [&old_pool, team] {
      struct CallState {
        std::atomic<int64_t> next{0};
        std::mutex mutex;
        std::condition_variable done;
        int64_t pending = 0;
      };
      CallState state;
      state.pending = team - 1;
      auto drain = [&state, team] {
        for (;;) {
          const int64_t c = state.next.fetch_add(1, std::memory_order_relaxed);
          if (c >= team) break;
        }
      };
      for (int64_t h = 0; h < team - 1; ++h) {
        old_pool.Submit([&state, &drain] {
          drain();
          std::lock_guard<std::mutex> lock(state.mutex);
          if (--state.pending == 0) state.done.notify_all();
        });
      }
      drain();
      std::unique_lock<std::mutex> lock(state.mutex);
      state.done.wait(lock, [&state] { return state.pending == 0; });
    };
    kernels::SetNumThreads(team);
    auto new_region = [team] {
      kernels::ParallelChunks(team, 1, [](int64_t, int64_t) {});
    };
    old_region();  // warm-up both teams
    new_region();
    const double old_ns =
        TimeMs(reps, [&] { for (int64_t r = 0; r < kRegions; ++r) old_region(); }) *
        1.0e6 / kRegions;
    const double new_ns =
        TimeMs(reps, [&] { for (int64_t r = 0; r < kRegions; ++r) new_region(); }) *
        1.0e6 / kRegions;
    if (new_ns > 0.0) dispatch_old_vs_new = old_ns / new_ns;
    BenchRow row;
    row.op = "dispatch_overhead_ns";
    row.size = StrFormat("team %lld, empty region",
                         static_cast<long long>(team));
    row.serial_ms = old_ns;  // ns per region, old scheduler
    row.per_thread_ms.emplace_back(team, new_ns);  // ns per region, new
    rows.push_back(row);
  }
  kernels::SetNumThreads(0);
  kernels::SetVecMath(ambient_vec_math);

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

  // Headline numbers for the arena + fused training path: step throughput
  // vs the seed's op-by-op heap training step at 1 and 8 threads (same
  // shape, same per-element math).
  double train_step_1t = 0.0, train_step_8t = 0.0;
  {
    double op1 = 0.0, fused1 = 0.0, op8 = 0.0, fused8 = 0.0;
    for (const BenchRow& r : rows) {
      if (r.op == "train_step_op") {
        op1 = r.ThreadMs(1);
        op8 = r.ThreadMs(8);
      }
      if (r.op == "train_step_fused_arena") {
        fused1 = r.ThreadMs(1);
        fused8 = r.ThreadMs(8);
      }
    }
    if (op1 > 0.0 && fused1 > 0.0) train_step_1t = op1 / fused1;
    if (op8 > 0.0 && fused8 > 0.0) train_step_8t = op8 / fused8;
    std::printf(
        "arena + fused training step vs seed op-by-op heap step: %.2fx "
        "(1 thread), %.2fx (8 threads)\n",
        train_step_1t, train_step_8t);
  }

  std::printf(
      "vectorized transcendentals vs libm (1 thread): exp %.2fx, tanh %.2fx; "
      "layernorm vectorized vs legacy rows: %.2fx\n",
      vec_exp_1t, vec_tanh_1t, layernorm_fused_1t);

  // Headline numbers for the persistent scheduler and the async pipeline:
  // empty-region dispatch latency old/new, and the pipelined step vs its
  // deferred-sync twin at 8 threads.
  double train_step_pipelined_8t = 0.0;
  {
    double sync8 = 0.0, async8 = 0.0;
    for (const BenchRow& r : rows) {
      if (r.op == "train_step_pipeline_sync") sync8 = r.ThreadMs(8);
      if (r.op == "train_step_pipelined") async8 = r.ThreadMs(8);
    }
    if (sync8 > 0.0 && async8 > 0.0) train_step_pipelined_8t = sync8 / async8;
    std::printf(
        "empty-region dispatch old vs new scheduler: %.2fx; pipelined vs "
        "sync train step (8 threads): %.2fx\n",
        dispatch_old_vs_new, train_step_pipelined_8t);
  }

  Headlines headlines;
  headlines.packed_vs_blocked_1t = packed_vs_blocked;
  headlines.batched_attention_8t = batched_attention_8t;
  headlines.train_step_fused_arena_1t = train_step_1t;
  headlines.train_step_fused_arena_8t = train_step_8t;
  headlines.vec_exp_1t = vec_exp_1t;
  headlines.vec_tanh_1t = vec_tanh_1t;
  headlines.layernorm_fused_1t = layernorm_fused_1t;
  headlines.dispatch_overhead_old_vs_new = dispatch_old_vs_new;
  headlines.train_step_pipelined_8t = train_step_pipelined_8t;
  WriteJson(out_path, rows, headlines);
  std::printf("report written to %s\n", out_path.c_str());
  return 0;
}
