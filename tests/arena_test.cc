// Equivalence + lifetime harness for the step-scoped tensor arena and the
// fused training path. The contract under test: the arena and fused-train
// test seams (SetArenaEnabled, nn::SetFusedTrain) change *where* step
// memory lives and *how many* tape nodes a training forward records — never
// a single bit of any loss, gradient, or post-step parameter, at any thread
// count or ISA cap. A short 2-task CdclTrainer run pins the end-to-end
// training trajectory; component tests localize a regression to the
// encoder sublayer nodes; the mechanics tests cover the arena itself
// (scopes, reset generations, nesting, the disabled seam). scripts/verify.sh re-runs this
// suite under ASan/UBSan, where every arena allocation becomes an
// individually freed heap block, so a step-scoped tensor escaping its scope
// trips the sanitizer as a heap-use-after-free.

#include <cstring>
#include <string>
#include <vector>

#include "core/cdcl_trainer.h"
#include "data/task_stream.h"
#include "gtest/gtest.h"
#include "nn/attention.h"
#include "nn/module.h"
#include "tensor/arena.h"
#include "tensor/kernels/kernel_context.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace cdcl {
namespace {

/// Restores threads, ISA cap, arena and fused-train toggles when a scope
/// ends, so no test leaks settings into the next.
class SettingsScope {
 public:
  ~SettingsScope() {
    kernels::SetNumThreads(0);
    kernels::SetIsaCap(kernels::IsaCap::kAvx512);
    SetArenaEnabled(true);
    nn::SetFusedTrain(true);
  }
};

/// Every ISA cap; one above what the host has resolves to its widest tier.
const kernels::IsaCap kCaps[] = {kernels::IsaCap::kScalar,
                                 kernels::IsaCap::kAvx2,
                                 kernels::IsaCap::kAvx512};

std::string CapName(kernels::IsaCap cap) {
  switch (cap) {
    case kernels::IsaCap::kScalar: return "scalar";
    case kernels::IsaCap::kAvx2: return "avx2";
    case kernels::IsaCap::kAvx512: return "avx512";
  }
  return "?";
}

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b,
                        const std::string& context) {
  ASSERT_EQ(a.size(), b.size()) << context;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::memcmp(&a[i], &b[i], sizeof(float)), 0)
        << context << " diverges at element " << i << ": " << a[i] << " vs "
        << b[i];
  }
}

// --- End-to-end: short 2-task CdclTrainer run -------------------------------

data::CrossDomainTaskStream TinyStream() {
  data::TaskStreamOptions opt;
  opt.family = "digits";
  opt.source_domain = "MN";
  opt.target_domain = "US";
  opt.num_tasks = 2;
  opt.classes_per_task = 2;
  opt.train_per_class = 8;
  opt.test_per_class = 4;
  opt.seed = 11;
  return *data::CrossDomainTaskStream::Make(opt);
}

struct Trajectory {
  std::vector<float> losses;                 // every training step, in order
  std::vector<std::vector<float>> params;    // final model parameters
};

Trajectory RunCdcl(bool arena, bool fused_train, int64_t threads,
                   kernels::IsaCap cap = kernels::IsaCap::kAvx512) {
  SettingsScope restore;
  kernels::SetNumThreads(threads);
  kernels::SetIsaCap(cap);
  SetArenaEnabled(arena);
  nn::SetFusedTrain(fused_train);
  auto stream = TinyStream();
  core::CdclOptions opt;
  opt.base.model.image_hw = 16;
  opt.base.model.channels = 1;
  opt.base.model.embed_dim = 16;
  opt.base.model.num_layers = 1;
  opt.base.epochs = 3;
  opt.base.warmup_epochs = 1;
  opt.base.batch_size = 8;
  opt.base.memory_size = 24;
  opt.base.seed = 5;
  core::CdclTrainer trainer(opt);
  for (int64_t t = 0; t < stream.num_tasks(); ++t) {
    EXPECT_TRUE(trainer.ObserveTask(stream.task(t)).ok());
  }
  // The trajectory must include the cross-attention pair loop (EncodeCross),
  // not just warm-up/fallback epochs, or the comparison is vacuous.
  EXPECT_GT(trainer.last_pair_count(), 0);
  Trajectory out;
  out.losses = trainer.loss_trace();
  for (const nn::NamedParameter& np : trainer.model().NamedParameters()) {
    out.params.push_back(np.tensor.ToVector());
  }
  return out;
}

void ExpectSameTrajectory(const Trajectory& a, const Trajectory& b,
                          const std::string& context) {
  ASSERT_GT(a.losses.size(), 0u) << context;
  ExpectBitwiseEqual(a.losses, b.losses, context + " (loss trajectory)");
  ASSERT_EQ(a.params.size(), b.params.size()) << context;
  for (size_t p = 0; p < a.params.size(); ++p) {
    ExpectBitwiseEqual(a.params[p], b.params[p],
                       context + " (param " + std::to_string(p) + ")");
  }
}

// The arena must be invisible in the numbers: the same run with the heap
// path, at every thread count, yields bit-identical losses and parameters.
TEST(ArenaTest, CdclTrajectoryBitwiseArenaOnVsOff) {
  Trajectory reference = RunCdcl(/*arena=*/false, /*fused_train=*/true, 1);
  for (int64_t threads : {int64_t{1}, int64_t{2}, int64_t{8}}) {
    Trajectory with_arena = RunCdcl(/*arena=*/true, /*fused_train=*/true,
                                    threads);
    ExpectSameTrajectory(reference, with_arena,
                         "arena on, threads=" + std::to_string(threads));
  }
}

// The fused training path must equal the op-by-op tape end to end: same
// trainer run with fused training off (the op-chain forwards and
// node-per-op backward) against the fused single-node path.
TEST(ArenaTest, CdclTrajectoryBitwiseFusedTrainOnVsOff) {
  Trajectory op_path = RunCdcl(/*arena=*/true, /*fused_train=*/false, 1);
  for (int64_t threads : {int64_t{1}, int64_t{2}}) {
    Trajectory fused = RunCdcl(/*arena=*/true, /*fused_train=*/true, threads);
    ExpectSameTrajectory(op_path, fused,
                         "fused train, threads=" + std::to_string(threads));
  }
}

// Every GEMM and vec-math tier computes the same chains, so within one build
// the dispatched ISA tier must not show in training: the same run under each
// ISA cap (at 1 and 2 threads, op path and fused) yields bit-identical losses
// and parameters.
TEST(ArenaTest, CdclTrajectoryBitwiseAcrossIsaCaps) {
  const Trajectory reference = RunCdcl(/*arena=*/true, /*fused_train=*/true, 1,
                                       kernels::IsaCap::kAvx512);
  for (kernels::IsaCap cap : kCaps) {
    ExpectSameTrajectory(reference, RunCdcl(true, true, 1, cap),
                         "cap=" + CapName(cap));
    ExpectSameTrajectory(reference, RunCdcl(true, false, 2, cap),
                         "cap=" + CapName(cap) + ", op path, threads=2");
  }
}

// --- Component level: attention / FFN closures vs the op chain --------------

struct GradCapture {
  float loss = 0.0f;
  std::vector<std::vector<float>> grads;
};

void ExpectSameGrads(const GradCapture& a, const GradCapture& b,
                     const std::string& context) {
  ASSERT_EQ(std::memcmp(&a.loss, &b.loss, sizeof(float)), 0) << context;
  ASSERT_EQ(a.grads.size(), b.grads.size()) << context;
  for (size_t i = 0; i < a.grads.size(); ++i) {
    ExpectBitwiseEqual(a.grads[i], b.grads[i],
                       context + " (grad " + std::to_string(i) + ")");
  }
}

// The full encoder block through both paths: this is the component that
// exercises the fused sublayer nodes (single-LN self sublayer, the
// two-stream cross sublayer with its companion LN node, and the folded MLP
// pre-norm). Losses and every gradient — block params and all input
// streams — must agree bit for bit with the op chain, per ISA cap, thread
// count and score mode (softmax and the literal linear eq. 2), including
// the first-layer undefined-mixed cross case. A second task freezes task
// 0's keys and bias; running at task 1 and at task 0 covers both the live
// and the skip-frozen-grad branches.
TEST(ArenaTest, EncoderLayerGradsBitwiseFusedVsOp) {
  for (kernels::IsaCap cap : kCaps) {
    for (int64_t threads : {int64_t{1}, int64_t{2}, int64_t{8}}) {
      for (const bool softmax : {true, false}) {
        SettingsScope restore;
        kernels::SetIsaCap(cap);
        kernels::SetNumThreads(threads);
        Rng rng(37);
        nn::TransformerEncoderLayer layer(24, 16, 48, &rng, softmax,
                                          /*freeze_old_keys=*/true);
        layer.AddTask();
        layer.AddTask();  // freezes task 0's K/b
        Tensor xs = Tensor::Randn(Shape{4, 16, 24}, &rng, 1.0f, true);
        Tensor xt = Tensor::Randn(Shape{4, 16, 24}, &rng, 1.0f, true);
        Tensor mixed = Tensor::Randn(Shape{4, 16, 24}, &rng, 1.0f, true);

        for (const int64_t task : {int64_t{1}, int64_t{0}}) {
          for (const int mode : {0, 1, 2}) {  // self, cross, cross first-layer
            auto run = [&](bool fused) {
              nn::SetFusedTrain(fused);
              for (Tensor& p : layer.Parameters()) p.ZeroGrad();
              xs.ZeroGrad();
              xt.ZeroGrad();
              mixed.ZeroGrad();
              Tensor y;
              switch (mode) {
                case 0:
                  y = layer.SelfForward(xs, task);
                  break;
                case 1:
                  y = layer.CrossForward(xs, xt, mixed, task);
                  break;
                default:
                  y = layer.CrossForward(xs, xt, Tensor(), task);
                  break;
              }
              Tensor loss = ops::Sum(ops::Square(y));
              loss.Backward();
              GradCapture cap;
              cap.loss = loss.item();
              for (Tensor& p : layer.Parameters()) {
                cap.grads.push_back(p.GradTensor().ToVector());
              }
              cap.grads.push_back(xs.GradTensor().ToVector());
              cap.grads.push_back(xt.GradTensor().ToVector());
              cap.grads.push_back(mixed.GradTensor().ToVector());
              return cap;
            };
            GradCapture op_path = run(/*fused=*/false);
            GradCapture fused = run(/*fused=*/true);
            ExpectSameGrads(op_path, fused,
                            "encoder layer cap=" + CapName(cap) +
                                " threads=" + std::to_string(threads) +
                                " softmax=" + std::to_string(softmax) +
                                " task=" + std::to_string(task) +
                                " mode=" + std::to_string(mode));
          }
        }
      }
    }
  }
}

// The same component check with the tensors and tape living in an arena:
// grads of the fused encoder block (self and cross) computed inside a step
// scope equal the heap-path grads bitwise (parameter grads stay heap-owned
// by design, so they survive the reset).
TEST(ArenaTest, FusedGradsBitwiseInsideArenaScope) {
  SettingsScope restore;
  Rng rng(31);
  nn::TransformerEncoderLayer layer(16, 9, 32, &rng, /*softmax_scores=*/true,
                                    /*freeze_old_keys=*/true);
  layer.AddTask();
  Tensor xs = Tensor::Randn(Shape{3, 9, 16}, &rng, 1.0f, true);
  Tensor xt = Tensor::Randn(Shape{3, 9, 16}, &rng, 1.0f, true);

  auto run = [&](Arena* arena) {
    for (Tensor& p : layer.Parameters()) p.ZeroGrad();
    xs.ZeroGrad();
    xt.ZeroGrad();
    ArenaScope scope(arena);
    Tensor self = layer.SelfForward(xs, 0);
    Tensor cross = layer.CrossForward(xs, xt, self, 0);
    Tensor loss = ops::Sum(ops::Square(cross));
    loss.Backward();
    GradCapture cap;
    cap.loss = loss.item();
    for (Tensor& p : layer.Parameters()) {
      cap.grads.push_back(p.GradTensor().ToVector());
    }
    cap.grads.push_back(xs.GradTensor().ToVector());
    cap.grads.push_back(xt.GradTensor().ToVector());
    return cap;
  };
  GradCapture heap = run(nullptr);
  Arena arena;
  GradCapture scoped = run(&arena);
  EXPECT_GT(arena.high_water_floats(), 0);  // the scope really was used
  ExpectSameGrads(heap, scoped, "arena scope");
}

// --- Arena mechanics --------------------------------------------------------

TEST(ArenaTest, ScopeActivatesAndResets) {
  Arena arena;
  EXPECT_EQ(internal::ActiveArena(), nullptr);
  const uint64_t gen = arena.generation();
  {
    ArenaScope scope(&arena);
    EXPECT_EQ(internal::ActiveArena(), &arena);
    Tensor t = Tensor::Full(Shape{128}, 3.0f);
    EXPECT_EQ(t.at(int64_t{7}), 3.0f);
    EXPECT_GT(arena.high_water_floats(), 0);
  }
  EXPECT_EQ(internal::ActiveArena(), nullptr);
  EXPECT_EQ(arena.generation(), gen + 1);  // scope exit reset the arena
}

TEST(ArenaTest, NestedSameArenaScopeIsANoOp) {
  Arena arena;
  ArenaScope outer(&arena);
  Tensor t = Tensor::Full(Shape{16}, 2.0f);
  const uint64_t gen = arena.generation();
  {
    ArenaScope inner(&arena);  // must not reset the outer scope's memory
    Tensor u = Tensor::Full(Shape{16}, 4.0f);
    EXPECT_EQ(u.at(int64_t{3}), 4.0f);
  }
  EXPECT_EQ(arena.generation(), gen);  // no reset happened
  EXPECT_EQ(t.at(int64_t{3}), 2.0f);   // outer allocation untouched
}

TEST(ArenaTest, DisabledArenaLeavesTensorsOnHeap) {
  SettingsScope restore;
  SetArenaEnabled(false);
  Arena arena;
  ArenaScope scope(&arena);
  EXPECT_EQ(internal::ActiveArena(), nullptr);
  Tensor t = Tensor::Full(Shape{64}, 1.0f);
  EXPECT_EQ(arena.high_water_floats(), 0);
  EXPECT_EQ(t.at(int64_t{0}), 1.0f);
}

TEST(ArenaTest, GrowsAcrossBlocksAndCoalescesOnReset) {
  Arena arena;
  {
    ArenaScope scope(&arena);
    // Far beyond the initial block: forces the block chain to grow while
    // every allocation stays writable and distinct.
    std::vector<Tensor> keep;
    for (int i = 0; i < 8; ++i) {
      keep.push_back(Tensor::Full(Shape{1 << 16}, static_cast<float>(i)));
    }
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(keep[static_cast<size_t>(i)].at(int64_t{100}),
                static_cast<float>(i));
    }
  }
  // After the spill-reset, a fresh scope must serve the same demand again.
  {
    ArenaScope scope(&arena);
    Tensor big = Tensor::Full(Shape{1 << 18}, 9.0f);
    EXPECT_EQ(big.at(int64_t{(1 << 18) - 1}), 9.0f);
  }
}

// Parameters keep heap storage even when their gradients are first created
// inside a step scope: the grad must survive the scope's reset (this is the
// assign_like contract that keeps optimizer state valid across steps).
TEST(ArenaTest, ParameterGradSurvivesScopeReset) {
  SettingsScope restore;
  Tensor w = Tensor::Full(Shape{8}, 1.0f, /*requires_grad=*/true);
  Arena arena;
  {
    ArenaScope scope(&arena);
    Tensor loss = ops::Sum(ops::Square(w));
    loss.Backward();
  }
  // d/dw sum(w^2) = 2w = 2, readable after the arena reset.
  ASSERT_TRUE(w.has_grad());
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(w.grad_data()[i], 2.0f) << i;
  }
}

}  // namespace
}  // namespace cdcl
