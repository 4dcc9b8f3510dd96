#include "baselines/trainer_base.h"

#include <cstring>

#include "nn/losses.h"
#include "tensor/tensor_ops.h"
#include "uda/pseudo_label.h"
#include "util/logging.h"
#include "util/prefetch.h"

namespace cdcl {
namespace baselines {
TrainerBase::TrainerBase(std::string name, const TrainerOptions& options)
    : name_(std::move(name)),
      options_(options),
      rng_(options.seed * 0x9E3779B9ULL + 17),
      memory_(options.memory_size, options.memory_policy) {
  model_ = std::make_unique<models::CompactTransformer>(options.model, &rng_);
  optimizer_ = std::make_unique<optim::AdamW>(
      std::vector<Tensor>{}, options.base_lr, 0.9f, 0.999f, 1e-8f,
      options.weight_decay);
}

void TrainerBase::StartTask(int64_t num_classes, int64_t steps_per_epoch) {
  model_->AddTask(num_classes);
  optimizer_->SetParameters(model_->TrainableParameters());
  const int64_t warmup_steps = options_.warmup_epochs * steps_per_epoch;
  const int64_t total_steps =
      std::max<int64_t>(options_.epochs * steps_per_epoch, 1);
  schedule_ = std::make_unique<optim::WarmupCosineLr>(
      options_.warmup_lr, options_.base_lr, options_.min_lr, warmup_steps,
      total_steps);
  ++tasks_seen_;
}

void TrainerBase::RestoreTaskStructure(
    const std::vector<int64_t>& classes_per_task) {
  CDCL_CHECK_EQ(model_->num_tasks(), 0);
  for (int64_t classes : classes_per_task) model_->AddTask(classes);
  optimizer_->SetParameters(model_->TrainableParameters());
  tasks_seen_ = static_cast<int64_t>(classes_per_task.size());
}

void TrainerBase::ExportExtraState(ByteWriter* /*writer*/) const {}

bool TrainerBase::ImportExtraState(ByteReader* /*reader*/) { return true; }

void TrainerBase::OptimizerStep(int64_t step_in_task) {
  CDCL_CHECK(schedule_ != nullptr);
  optimizer_->set_lr(schedule_->LrAt(step_in_task));
  optimizer_->Step();
  optimizer_->ZeroGrad();
}

double TrainerBase::EvaluateTil(const data::TensorDataset& test,
                                int64_t task_id) {
  CDCL_CHECK_LT(task_id, model_->num_tasks());
  NoGradGuard no_grad;
  model_->SetTraining(false);
  int64_t correct = 0, total = 0;
  Rng eval_rng(1);
  data::DataLoader loader(&test, EvalBatchSize(), &eval_rng,
                          /*shuffle=*/false);
  data::Batch batch;
  while (loader.Next(&batch)) {
    ArenaScope step_arena(&arena_);
    Tensor z = model_->EncodeSelfBatched(batch.images, task_id);
    Tensor logits = model_->TilLogits(z, task_id);
    std::vector<int64_t> pred = ops::Argmax(logits);
    for (size_t i = 0; i < pred.size(); ++i) {
      correct += (pred[i] == batch.task_labels[i]);
      ++total;
    }
  }
  model_->SetTraining(true);
  return total == 0 ? 0.0 : static_cast<double>(correct) / total;
}

double TrainerBase::EvaluateCil(const data::TensorDataset& test) {
  CDCL_CHECK_GT(model_->num_tasks(), 0);
  NoGradGuard no_grad;
  model_->SetTraining(false);
  const int64_t latest = model_->num_tasks() - 1;
  int64_t correct = 0, total = 0;
  Rng eval_rng(1);
  data::DataLoader loader(&test, EvalBatchSize(), &eval_rng,
                          /*shuffle=*/false);
  data::Batch batch;
  while (loader.Next(&batch)) {
    ArenaScope step_arena(&arena_);
    Tensor z = model_->EncodeSelfBatched(batch.images, latest);
    Tensor logits = model_->CilLogits(z);
    std::vector<int64_t> pred = ops::Argmax(logits);
    for (size_t i = 0; i < pred.size(); ++i) {
      correct += (pred[i] == batch.labels[i]);
      ++total;
    }
  }
  model_->SetTraining(true);
  return total == 0 ? 0.0 : static_cast<double>(correct) / total;
}

TrainerBase::EncodedDataset TrainerBase::EncodeDataset(
    const data::TensorDataset& dataset, int64_t task_keys) {
  NoGradGuard no_grad;
  EncodedDataset out;
  out.features = Tensor(Shape{dataset.size(), model_->feature_dim()});
  Rng enc_rng(1);
  data::DataLoader loader(&dataset, EvalBatchSize(), &enc_rng,
                          /*shuffle=*/false);
  int64_t row = 0;
  const int64_t d = model_->feature_dim();
  data::Batch batch;
  while (loader.Next(&batch)) {
    // Per-batch step scope: z and the encoder intermediates are arena-backed
    // and copied into the (heap, outside-scope) feature matrix before reset.
    ArenaScope step_arena(&arena_);
    Tensor z = model_->EncodeSelfBatched(batch.images, task_keys);
    std::memcpy(out.features.data() + row * d, z.data(),
                static_cast<size_t>(z.NumElements()) * sizeof(float));
    for (size_t i = 0; i < batch.labels.size(); ++i) {
      out.labels.push_back(batch.labels[i]);
      out.task_labels.push_back(batch.task_labels[i]);
    }
    row += batch.size();
  }
  CDCL_CHECK_EQ(row, dataset.size());
  return out;
}

TrainerBase::AlignmentPlan TrainerBase::BuildAlignment(
    const data::CrossDomainTask& task, int64_t task_id, int refine_iters) {
  AlignmentPlan plan;
  EncodedDataset source = EncodeDataset(task.source_train, task_id);
  EncodedDataset target = EncodeDataset(task.target_train, task_id);
  Tensor target_probs;
  {
    NoGradGuard no_grad;
    target_probs = ops::Softmax(model_->TilLogits(target.features, task_id));
  }
  uda::PseudoLabelResult pseudo = uda::CenterAwarePseudoLabels(
      target.features, target_probs, options_.pseudo_metric, refine_iters);
  plan.pseudo_labels = pseudo.labels;
  plan.pairs = uda::BuildPairSet(source.features, source.task_labels,
                                 target.features, pseudo.labels,
                                 options_.pseudo_metric,
                                 options_.pair_keep_fraction);
  return plan;
}

data::Batch TrainerBase::FullBatch(const data::TensorDataset& dataset) {
  std::vector<int64_t> indices(static_cast<size_t>(dataset.size()));
  for (int64_t i = 0; i < dataset.size(); ++i) {
    indices[static_cast<size_t>(i)] = i;
  }
  return dataset.MakeBatch(indices);
}

namespace {

void StackRecords(const std::vector<const cl::MemoryRecord*>& records,
                  TrainerBase::ReplayBatch* out) {
  const Shape& img_shape = records[0]->source_image.shape();
  const int64_t per = img_shape.NumElements();
  std::vector<int64_t> dims = {static_cast<int64_t>(records.size())};
  for (int64_t d : img_shape.dims()) dims.push_back(d);
  out->source_images = Tensor(Shape(dims));
  out->target_images = Tensor(Shape(dims));
  out->labels.clear();
  out->task_labels.clear();
  out->task_ids.clear();
  for (size_t i = 0; i < records.size(); ++i) {
    if (i + 1 < records.size()) {
      // Replay records are scattered across the heap; hint the next pair of
      // images while this record stacks.
      PrefetchRead(records[i + 1]->source_image.data());
      PrefetchRead(records[i + 1]->target_image.data());
    }
    std::memcpy(out->source_images.data() + static_cast<int64_t>(i) * per,
                records[i]->source_image.data(),
                static_cast<size_t>(per) * sizeof(float));
    std::memcpy(out->target_images.data() + static_cast<int64_t>(i) * per,
                records[i]->target_image.data(),
                static_cast<size_t>(per) * sizeof(float));
    out->labels.push_back(records[i]->label);
    out->task_labels.push_back(records[i]->task_label);
    out->task_ids.push_back(records[i]->task_id);
  }
  out->records = records;
}

}  // namespace

bool TrainerBase::SampleReplayFromTask(int64_t task_id, int64_t n,
                                       ReplayBatch* out) {
  CDCL_CHECK(out != nullptr);
  std::vector<const cl::MemoryRecord*> records =
      memory_.SampleFromTask(task_id, n, &rng_);
  if (records.empty()) return false;
  StackRecords(records, out);
  return true;
}

bool TrainerBase::SampleReplay(int64_t n, ReplayBatch* out) {
  CDCL_CHECK(out != nullptr);
  if (memory_.empty() || n <= 0) return false;
  std::vector<const cl::MemoryRecord*> records = memory_.Sample(n, &rng_);
  StackRecords(records, out);
  return true;
}

}  // namespace baselines
}  // namespace cdcl
