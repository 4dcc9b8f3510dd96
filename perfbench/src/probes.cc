// Per-layer replays for the traced run. Each probe times the benchmark's own
// calls into one module's public functions on the state the timed part left
// behind, so the timed trajectory itself is never touched.

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "ckpt/checkpoint.h"
#include "nn/losses.h"
#include "optim/optimizer.h"
#include "serve/inference.h"
#include "tensor/arena.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/tensor_ops.h"
#include "trace.h"
#include "uda/pseudo_label.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cdcl;  // NOLINT: probe brevity

double Ms(Clock::time_point start) { return SecondsSince(start) * 1e3; }

int64_t EvalBatch(const baselines::TrainerOptions& options) {
  return options.eval_batch > 0 ? options.eval_batch : options.batch_size;
}

/// Stacks examples [begin, begin + n) of `dataset` into one image batch.
Tensor Images(const data::TensorDataset& dataset, int64_t begin, int64_t n) {
  std::vector<int64_t> idx;
  for (int64_t i = begin; i < std::min(dataset.size(), begin + n); ++i) {
    idx.push_back(i);
  }
  return dataset.MakeBatch(idx).images;
}

/// EncodeSelfBatched over a whole dataset in eval-sized batches.
Tensor EncodeAll(const models::CompactTransformer& model,
                 const data::TensorDataset& dataset, int64_t task,
                 int64_t batch) {
  std::vector<Tensor> parts;
  for (int64_t b = 0; b < dataset.size(); b += batch) {
    parts.push_back(model.EncodeSelfBatched(Images(dataset, b, batch), task));
  }
  return ops::Concat0(parts);
}

/// The center-aware alignment of one task (paper eqs. 17-19), replayed from
/// public calls the way the trainer runs it each epoch.
double AlignOnce(const core::CdclTrainer& trainer,
                 const data::CrossDomainTask& task, int64_t task_id) {
  Span span("uda.align");
  const Clock::time_point start = Clock::now();
  const baselines::TrainerOptions& options = trainer.options();
  const models::CompactTransformer& model = trainer.model();
  const int64_t batch = EvalBatch(options);
  Tensor source = EncodeAll(model, task.source_train, task_id, batch);
  Tensor target = EncodeAll(model, task.target_train, task_id, batch);
  std::vector<int64_t> source_labels;
  for (int64_t i = 0; i < task.source_train.size(); ++i) {
    source_labels.push_back(task.source_train.Get(i).task_label);
  }
  NoGradGuard no_grad;
  Tensor probs = ops::Softmax(model.TilLogits(target, task_id));
  uda::PseudoLabelResult pseudo = uda::CenterAwarePseudoLabels(
      target, probs, options.pseudo_metric,
      trainer.cdcl_options().pseudo_refine_iters);
  const auto pairs =
      uda::BuildPairSet(source, source_labels, target, pseudo.labels,
                        options.pseudo_metric, options.pair_keep_fraction);
  (void)pairs;
  return Ms(start);
}

/// One CDCL pair step (cross-encoding, TIL/CIL heads with the CE and mixing
/// losses, backward, AdamW step) on a fresh model of the trainer's shape.
void PairStepProbe(const core::CdclTrainer& trainer,
                   const data::CrossDomainTask& task, uint64_t seed,
                   RunResult* result) {
  const baselines::TrainerOptions& options = trainer.options();
  Rng rng(seed * 0x9E3779B9ULL + 5);
  models::CompactTransformer model(options.model, &rng);
  model.AddTask(static_cast<int64_t>(task.classes.size()));
  model.SetTraining(true);
  optim::AdamW optimizer(model.TrainableParameters(), options.base_lr, 0.9f,
                         0.999f, 1e-8f, options.weight_decay);
  const int64_t b = std::min({options.batch_size, task.source_train.size(),
                              task.target_train.size()});
  std::vector<int64_t> idx;
  for (int64_t i = 0; i < b; ++i) idx.push_back(i);
  const data::Batch source = task.source_train.MakeBatch(idx);
  const Tensor target = task.target_train.MakeBatch(idx).images;
  // Task 0 of every stream owns global classes [0, classes), so global and
  // task-local labels index the same head rows here.
  Arena arena;
  std::vector<double> encode, heads, backward, step;
  for (int rep = 0; rep < 21; ++rep) {
    ArenaScope scope(&arena);
    Clock::time_point t = Clock::now();
    models::CompactTransformer::CrossEncoding enc;
    {
      Span span("models.encode_cross");
      enc = model.EncodeCross(source.images, target, 0);
    }
    const double encode_ms = Ms(t);
    t = Clock::now();
    Tensor loss;
    {
      Span span("models.heads_loss");
      loss = ops::Add(ops::CrossEntropy(model.CilLogits(enc.z_source),
                                        source.labels),
                      ops::CrossEntropy(model.CilLogits(enc.z_target),
                                        source.labels));
      loss = ops::Add(loss, nn::MixingLoss(model.CilLogits(enc.z_mixed),
                                           model.CilLogits(enc.z_target)));
      loss = ops::Add(loss, ops::CrossEntropy(model.TilLogits(enc.z_source, 0),
                                              source.task_labels));
      loss = ops::Add(loss, ops::CrossEntropy(model.TilLogits(enc.z_target, 0),
                                              source.task_labels));
      loss = ops::Add(loss, nn::MixingLoss(model.TilLogits(enc.z_mixed, 0),
                                           model.TilLogits(enc.z_target, 0)));
    }
    const double heads_ms = Ms(t);
    t = Clock::now();
    {
      Span span("tensor.backward");
      loss.Backward();
    }
    const double backward_ms = Ms(t);
    t = Clock::now();
    {
      Span span("optim.step");
      optimizer.Step();
      optimizer.ZeroGrad();
    }
    if (rep == 0) continue;  // first step grows the arena and Adam state
    encode.push_back(encode_ms);
    heads.push_back(heads_ms);
    backward.push_back(backward_ms);
    step.push_back(Ms(t));
  }
  result->AddLayer("models.encode_cross_ms", Median(encode), "ms");
  result->AddLayer("models.heads_loss_ms", Median(heads), "ms");
  result->AddLayer("tensor.backward_ms", Median(backward), "ms");
  result->AddLayer("optim.step_ms", Median(step), "ms");
}

/// GemmNN (projection) + GemmNT (its input-gradient shape) at the flattened
/// (batch * tokens, d) x (d, d) shape, at the configured thread count.
double GemmProbeMs(const models::ModelConfig& config, int64_t batch) {
  int64_t side = config.image_hw;
  for (int64_t l = 0; l < config.tokenizer_layers; ++l) side /= 2;
  const int64_t m = batch * side * side, d = config.embed_dim;
  std::vector<float> a(static_cast<size_t>(m * d), 0.5f);
  std::vector<float> w(static_cast<size_t>(d * d), 0.25f);
  std::vector<float> c(static_cast<size_t>(m * d), 0.0f);
  constexpr int kCalls = 64;
  std::vector<double> per_call;
  for (int rep = 0; rep < 31; ++rep) {
    Span span("kernels.gemm");
    const Clock::time_point t = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      kernels::GemmNN(m, d, d, a.data(), w.data(), c.data(), false);
      kernels::GemmNT(m, d, d, c.data(), w.data(), a.data(), false);
    }
    per_call.push_back(Ms(t) / kCalls);
  }
  return Median(per_call);
}

/// InferenceEngine::Run on a private engine at batch `b`, requests spread
/// over the snapshot's tasks and alternating TIL/CIL like the served mix.
double EngineRunMs(
    const std::shared_ptr<const models::CompactTransformer>& snapshot,
    const data::CrossDomainTaskStream& stream, int64_t b, uint64_t seed) {
  serve::InferenceEngine engine(snapshot);
  const models::ModelConfig& config = snapshot->config();
  Rng rng(seed + static_cast<uint64_t>(b));
  std::vector<serve::InferenceRequest> batch;
  for (int64_t i = 0; i < b; ++i) {
    serve::InferenceRequest r;
    const int64_t task =
        static_cast<int64_t>(rng.NextBelow(snapshot->num_tasks()));
    const data::TensorDataset& test = stream.task(task).target_test;
    const Tensor& image =
        test.Get(static_cast<int64_t>(rng.NextBelow(test.size()))).image;
    r.request.type = i % 2 ? serve::MessageType::kClassifyCil
                           : serve::MessageType::kClassifyTil;
    r.request.request_id = static_cast<uint32_t>(i);
    r.request.task = task;
    r.request.channels = config.channels;
    r.request.height = config.image_hw;
    r.request.width = config.image_hw;
    r.request.pixels.assign(image.data(), image.data() + image.NumElements());
    batch.push_back(std::move(r));
  }
  std::vector<double> times;
  for (int rep = 0; rep < 41; ++rep) {
    std::vector<serve::InferenceRequest> copy = batch;
    Span span("serve.engine_run", b);
    const Clock::time_point t = Clock::now();
    engine.Run(std::move(copy));
    if (rep > 0) times.push_back(Ms(t));
  }
  return Median(times);
}

}  // namespace

void RunProbes(const ProbeInputs& in, uint64_t seed, bool replay_commit,
               RunResult* result) {
  const core::CdclTrainer& trainer = *in.trainer;
  const data::CrossDomainTaskStream& stream = *in.stream;
  const int64_t last = trainer.tasks_seen() - 1;
  const int64_t batch = EvalBatch(trainer.options());

  std::vector<double> align;
  for (int rep = 0; rep < 5; ++rep) {
    align.push_back(AlignOnce(trainer, stream.task(last), last));
  }
  result->AddLayer("uda.align_ms", Median(align), "ms");

  PairStepProbe(trainer, stream.task(0), seed, result);

  {
    const Tensor images = Images(stream.task(0).target_test, 0, batch);
    std::vector<double> times;
    for (int rep = 0; rep < 31; ++rep) {
      Span span("models.encode_self_batched");
      const Clock::time_point t = Clock::now();
      in.snapshot->EncodeSelfBatched(images, 0);
      if (rep > 0) times.push_back(Ms(t));
    }
    result->AddLayer("models.encode_self_batched_ms", Median(times), "ms");
  }

  result->AddLayer("kernels.gemm_ms", GemmProbeMs(trainer.options().model, batch),
                   "ms");
  for (int64_t b : {1, 8, 32}) {
    result->AddLayer("serve.engine_run_ms.b" + std::to_string(b),
                     EngineRunMs(in.snapshot, stream, b, seed), "ms");
  }

  if (!replay_commit) return;
  // Commit and evaluation happen inside the server's training loop, out of
  // the benchmark's reach; replay them on the quiesced trainer instead.
  const std::string dir = in.scratch + "/probe-ckpt";
  std::vector<double> save;
  double bytes = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    Span span("ckpt.save");
    const Clock::time_point t = Clock::now();
    const Result<ckpt::CheckpointInfo> info =
        ckpt::SaveTrainer(dir, trainer, last + 1);
    save.push_back(Ms(t));
    if (info.ok()) {
      bytes = static_cast<double>(std::filesystem::file_size(info->path));
    } else {
      result->Fail("probe checkpoint: " + info.status().ToString());
    }
  }
  std::filesystem::remove_all(dir);
  result->AddLayer("ckpt.save_ms", Median(save), "ms");
  result->AddLayer("ckpt.bytes", bytes, "bytes");
  std::vector<double> eval;
  for (int rep = 0; rep < 3; ++rep) {
    Span span("cl.eval");
    const Clock::time_point t = Clock::now();
    for (int64_t j = 0; j <= last; ++j) {
      in.trainer->EvaluateTil(stream.task(j).target_test, j);
      in.trainer->EvaluateCil(stream.task(j).target_test);
    }
    eval.push_back(Ms(t));
  }
  result->AddLayer("cl.eval_ms", Median(eval), "ms");
}

}  // namespace perfbench
