#include "core/cdcl_trainer.h"

#include "nn/losses.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"

namespace cdcl {
namespace core {
namespace {

baselines::TrainerOptions ResolveOptions(const CdclOptions& options) {
  baselines::TrainerOptions o = options.base;
  if (options.simple_attention) {
    // Standard attention: one shared key set, no per-task growth.
    o.model.per_task_keys = false;
  }
  return o;
}

/// A replay batch's stored CIL logits as (records, width) tensors: the
/// targets of the logit-replay term L_R^Z (eq. 22). Every record must carry
/// the first record's width.
struct StoredLogits {
  Tensor source;
  Tensor target;
};

StoredLogits GatherStoredLogits(
    const baselines::TrainerBase::ReplayBatch& rb) {
  const int64_t width =
      static_cast<int64_t>(rb.records[0]->source_logits.size());
  const Shape shape{static_cast<int64_t>(rb.records.size()), width};
  StoredLogits out{Tensor::Uninitialized(shape), Tensor::Uninitialized(shape)};
  float* ps = out.source.data();
  float* pt = out.target.data();
  for (const cl::MemoryRecord* record : rb.records) {
    CDCL_CHECK_EQ(static_cast<int64_t>(record->source_logits.size()), width);
    CDCL_CHECK_EQ(static_cast<int64_t>(record->target_logits.size()), width);
    for (int64_t j = 0; j < width; ++j) {
      *ps++ = record->source_logits[static_cast<size_t>(j)];
      *pt++ = record->target_logits[static_cast<size_t>(j)];
    }
  }
  return out;
}

}  // namespace

CdclTrainer::CdclTrainer(const CdclOptions& options)
    : TrainerBase("CDCL", ResolveOptions(options)), cdcl_options_(options) {}

Tensor CdclTrainer::WarmupLoss(const data::Batch& batch, int64_t task_id) {
  Tensor z = model_->EncodeSelf(batch.images, task_id);
  Tensor loss = Tensor::Scalar(0.0f);
  if (cdcl_options_.use_cil_loss) {
    loss = ops::Add(loss,
                    ops::CrossEntropy(model_->CilLogits(z), batch.labels));
  }
  if (cdcl_options_.use_til_loss) {
    loss = ops::Add(loss, ops::CrossEntropy(model_->TilLogits(z, task_id),
                                            batch.task_labels));
  }
  if (!cdcl_options_.use_cil_loss && !cdcl_options_.use_til_loss) {
    // Degenerate ablation (both heads off): keep the source CE so training
    // is still defined.
    loss = ops::Add(loss, ops::CrossEntropy(model_->TilLogits(z, task_id),
                                            batch.task_labels));
  }
  return loss;
}

bool CdclTrainer::SampleRehearsal(ReplayBatch* rb, int64_t* past_task) {
  if (memory_.empty()) return false;
  std::vector<int64_t> stored = memory_.StoredTaskIds();
  const int64_t past =
      stored[static_cast<size_t>(rng_.NextBelow(stored.size()))];
  if (!SampleReplayFromTask(past, options_.replay_batch, rb)) return false;
  *past_task = past;
  return true;
}

Tensor CdclTrainer::RehearsalLossOn(const ReplayBatch& rb, int64_t past,
                                    int64_t current_task) {
  // Replay runs through the *current* task keys: the CIL protocol evaluates
  // every sample with the latest K_T/b_T (Fig. 1), so rehearsal must keep
  // old classes recognizable under the newest encoding - the "inter-task
  // outputs" of footnote 3.
  Tensor loss = Tensor::Scalar(0.0f);
  if (cdcl_options_.simple_attention) {
    // No cross stream: self-encode both domains, skip L_R^D.
    Tensor zs = model_->EncodeSelf(rb.source_images, current_task);
    Tensor zt = model_->EncodeSelf(rb.target_images, current_task);
    Tensor cil_s = model_->CilLogits(zs);
    Tensor cil_t = model_->CilLogits(zt);
    loss = ops::Add(loss, ops::CrossEntropy(cil_s, rb.labels));
    loss = ops::Add(loss, ops::CrossEntropy(cil_t, rb.labels));
    const int64_t logit_tasks = rb.records[0]->logit_tasks;
    const StoredLogits stored = GatherStoredLogits(rb);
    loss = ops::Add(
        loss, nn::LogitReplayLoss(model_->CilLogitsUpTo(zs, logit_tasks),
                                  model_->CilLogitsUpTo(zt, logit_tasks),
                                  stored.source, stored.target));
    return loss;
  }

  auto enc =
      model_->EncodeCross(rb.source_images, rb.target_images, current_task);
  Tensor cil_s = model_->CilLogits(enc.z_source);
  Tensor cil_t = model_->CilLogits(enc.z_target);
  Tensor cil_m = model_->CilLogits(enc.z_mixed);

  // L_R^ST (eq. 20): CE of the stored source label against both replayed
  // domain outputs (the product inside the log splits into two CE terms).
  loss = ops::Add(loss, ops::CrossEntropy(cil_s, rb.labels));
  loss = ops::Add(loss, ops::CrossEntropy(cil_t, rb.labels));

  // L_R^D (eq. 21): mixing consistency on the replayed pair.
  loss = ops::Add(loss, nn::MixingLoss(cil_m, cil_t));

  // L_R^Z (eq. 22): logit replay against the stored source/target logits.
  const int64_t logit_tasks = rb.records[0]->logit_tasks;
  const StoredLogits stored = GatherStoredLogits(rb);
  loss = ops::Add(
      loss, nn::LogitReplayLoss(model_->CilLogitsUpTo(enc.z_source, logit_tasks),
                                model_->CilLogitsUpTo(enc.z_target, logit_tasks),
                                stored.source, stored.target));

  // Intra-task replay: the TIL protocol re-encodes old tasks through their
  // own frozen K_i/b_i, so shared-parameter drift (tokenizer, Q/V, MLP) can
  // still break old heads. A CE pass through the record's own keys and head
  // anchors that path.
  Tensor zs_old = model_->EncodeSelf(rb.source_images, past);
  Tensor zt_old = model_->EncodeSelf(rb.target_images, past);
  loss = ops::Add(loss, ops::CrossEntropy(model_->TilLogits(zs_old, past),
                                          rb.task_labels));
  loss = ops::Add(loss, ops::CrossEntropy(model_->TilLogits(zt_old, past),
                                          rb.task_labels));
  return loss;
}

void CdclTrainer::RunSourceOnlyEpoch(const data::CrossDomainTask& task,
                                     int64_t task_id, bool with_rehearsal,
                                     int64_t* step) {
  data::DataLoader loader(&task.source_train, options_.batch_size, &rng_);
  const bool rehearse =
      with_rehearsal && cdcl_options_.use_rehearsal && task_id > 0;
  data::Batch batch;
  ReplayBatch replay;
  int64_t replay_task = -1;
  while (loader.Next(&batch)) {
    // The loader advance and the rehearsal draws are every RNG consumer of
    // this loop; they run before the step's arena scope opens, so the batch
    // and replay tensors are heap allocations (arena-invisible by contract).
    const bool has_replay =
        rehearse && SampleRehearsal(&replay, &replay_task);
    ArenaScope step_arena(&arena_);
    Tensor loss = WarmupLoss(batch, task_id);
    if (has_replay) {
      loss = ops::Add(loss, RehearsalLossOn(replay, replay_task, task_id));
    }
    loss_trace_.push_back(loss.item());
    loss.Backward();
    OptimizerStep((*step)++);
  }
}

Status CdclTrainer::ObserveTask(const data::CrossDomainTask& task) {
  const int64_t num_classes = static_cast<int64_t>(task.classes.size());
  const int64_t steps_per_epoch = std::max<int64_t>(
      (task.source_train.size() + options_.batch_size - 1) / options_.batch_size,
      1);
  StartTask(num_classes, steps_per_epoch);  // Algorithm 1 line 4 (new K_i, b_i)
  const int64_t current = tasks_seen_ - 1;
  const int64_t global_offset = task.classes[0];

  data::Batch source_all = FullBatch(task.source_train);
  data::Batch target_all = FullBatch(task.target_train);

  model_->SetTraining(true);
  int64_t step = 0;
  AlignmentPlan plan;
  for (int64_t epoch = 0; epoch < options_.epochs; ++epoch) {
    const bool warm = epoch < options_.warmup_epochs;
    if (warm) {
      // Algorithm 1 lines 7-9: source-only warm-up (with rehearsal from the
      // second task on).
      RunSourceOnlyEpoch(task, current, /*with_rehearsal=*/true, &step);
      continue;
    }

    // Algorithm 1 lines 11-12: rebuild centroids, pseudo-labels and the pair
    // set P every epoch.
    plan = BuildAlignment(task, current, cdcl_options_.pseudo_refine_iters);
    {
      int64_t hits = 0;
      for (size_t i = 0; i < plan.pseudo_labels.size(); ++i) {
        hits += plan.pseudo_labels[i] ==
                task.target_train.Get(static_cast<int64_t>(i)).task_label;
      }
      last_pseudo_label_accuracy_ =
          plan.pseudo_labels.empty()
              ? 0.0
              : static_cast<double>(hits) /
                    static_cast<double>(plan.pseudo_labels.size());
      last_pair_count_ = static_cast<int64_t>(plan.pairs.size());
    }
    if (plan.pairs.empty()) {
      // Alignment failed this epoch (all pseudo-labels unsupported); fall
      // back to source-only training rather than skipping the epoch.
      RunSourceOnlyEpoch(task, current, /*with_rehearsal=*/false, &step);
      continue;
    }

    rng_.Shuffle(&plan.pairs);
    // Full-coverage source batches run alongside the pair batches: the
    // filtered pair set only covers part of the source data, and eqs. 9/12
    // keep L_S on *all* labeled data throughout training.
    data::DataLoader source_loader(&task.source_train, options_.batch_size,
                                   &rng_);
    const bool rehearse = cdcl_options_.use_rehearsal && current > 0;
    const size_t batch_size = static_cast<size_t>(options_.batch_size);
    data::Batch source_batch;
    ReplayBatch replay;
    int64_t replay_task = -1;
    for (size_t start = 0; start < plan.pairs.size(); start += batch_size) {
      // Gather the pair batch, then make every RNG draw of the step
      // (source-loader advance incl. its reshuffle-on-exhaustion, rehearsal
      // task pick + replay sample). The step itself draws nothing.
      const size_t end = std::min(plan.pairs.size(), start + batch_size);
      std::vector<int64_t> si, ti, task_labels, labels;
      for (size_t i = start; i < end; ++i) {
        si.push_back(plan.pairs[i].first);
        ti.push_back(plan.pairs[i].second);
        const int64_t tl =
            source_all.task_labels[static_cast<size_t>(plan.pairs[i].first)];
        task_labels.push_back(tl);
        labels.push_back(tl + global_offset);
      }
      Tensor xs = ops::IndexRows(source_all.images, si);
      Tensor xt = ops::IndexRows(target_all.images, ti);
      if (!source_loader.Next(&source_batch)) {
        source_loader.Reset();
        source_loader.Next(&source_batch);
      }
      const bool has_replay =
          rehearse && SampleRehearsal(&replay, &replay_task);
      // One arena-scoped training step: every tensor from here to the
      // optimizer update (the cross-encoding, losses, tape scratch) is a
      // bump allocation released at the scope reset. The gathers above stay
      // heap-owned — arena-invisible by contract.
      ArenaScope step_arena(&arena_);
      Tensor loss = Tensor::Scalar(0.0f);
      if (cdcl_options_.simple_attention) {
        // Ablation: plain self-attention on each stream, no mixing terms.
        Tensor zs = model_->EncodeSelf(xs, current);
        Tensor zt = model_->EncodeSelf(xt, current);
        if (cdcl_options_.use_cil_loss) {
          loss = ops::Add(loss,
                          ops::CrossEntropy(model_->CilLogits(zs), labels));
          loss = ops::Add(loss,
                          ops::CrossEntropy(model_->CilLogits(zt), labels));
        }
        if (cdcl_options_.use_til_loss) {
          loss = ops::Add(loss, ops::CrossEntropy(model_->TilLogits(zs, current),
                                                  task_labels));
          loss = ops::Add(loss, ops::CrossEntropy(model_->TilLogits(zt, current),
                                                  task_labels));
        }
      } else {
        auto enc = model_->EncodeCross(xs, xt, current);
        if (cdcl_options_.use_cil_loss) {
          // L_CIL = L^CIL_S + L^CIL_T + L^CIL_D (eqs. 9-11, 15).
          Tensor cil_s = model_->CilLogits(enc.z_source);
          Tensor cil_t = model_->CilLogits(enc.z_target);
          Tensor cil_m = model_->CilLogits(enc.z_mixed);
          loss = ops::Add(loss, ops::CrossEntropy(cil_s, labels));
          loss = ops::Add(loss, ops::CrossEntropy(cil_t, labels));
          loss = ops::Add(loss, nn::MixingLoss(cil_m, cil_t));
        }
        if (cdcl_options_.use_til_loss) {
          // L_TIL = L^TIL_S + L^TIL_T + L^TIL_D (eqs. 12-14, 16).
          Tensor til_s = model_->TilLogits(enc.z_source, current);
          Tensor til_t = model_->TilLogits(enc.z_target, current);
          Tensor til_m = model_->TilLogits(enc.z_mixed, current);
          loss = ops::Add(loss, ops::CrossEntropy(til_s, task_labels));
          loss = ops::Add(loss, ops::CrossEntropy(til_t, task_labels));
          loss = ops::Add(loss, nn::MixingLoss(til_m, til_t));
        }
      }
      loss = ops::Add(loss, WarmupLoss(source_batch, current));
      // Algorithm 1 lines 15-16: rehearsal from the second task on.
      if (has_replay) {
        loss = ops::Add(loss, RehearsalLossOn(replay, replay_task, current));
      }
      loss_trace_.push_back(loss.item());
      loss.Backward();
      OptimizerStep(step++);
    }
  }

  // Algorithm 1 line 19: store the highest-confidence records.
  if (cdcl_options_.use_rehearsal) {
    if (plan.pairs.empty()) {
      plan = BuildAlignment(task, current, cdcl_options_.pseudo_refine_iters);
    }
    StoreTaskMemory(task, current, plan);
  }
  return Status::Ok();
}

void CdclTrainer::StoreTaskMemory(const data::CrossDomainTask& task,
                                  int64_t task_id, const AlignmentPlan& plan) {
  NoGradGuard no_grad;
  // Snapshot tensors are step-scoped; the records keep only plain vectors
  // plus handles to the (heap, dataset-owned) images.
  ArenaScope step_arena(&arena_);
  model_->SetTraining(false);
  // Records are the aligned pairs; when alignment is empty fall back to
  // index-aligned source/target samples so the memory never starves.
  std::vector<std::pair<int64_t, int64_t>> pairs = plan.pairs;
  if (pairs.empty()) {
    const int64_t n =
        std::min(task.source_train.size(), task.target_train.size());
    for (int64_t i = 0; i < n; ++i) pairs.emplace_back(i, i);
  }
  std::vector<int64_t> si, ti;
  for (const auto& [s, t] : pairs) {
    si.push_back(s);
    ti.push_back(t);
  }
  data::Batch source_all = FullBatch(task.source_train);
  data::Batch target_all = FullBatch(task.target_train);
  Tensor xs = ops::IndexRows(source_all.images, si);
  Tensor xt = ops::IndexRows(target_all.images, ti);
  // Memory snapshots are inference: take the fused batched path.
  Tensor zs = model_->EncodeSelfBatched(xs, task_id);
  Tensor zt = model_->EncodeSelfBatched(xt, task_id);
  Tensor til_probs_s = ops::Softmax(model_->TilLogits(zs, task_id));
  Tensor til_probs_t = ops::Softmax(model_->TilLogits(zt, task_id));
  Tensor cil_s = model_->CilLogits(zs);
  Tensor cil_t = model_->CilLogits(zt);
  std::vector<float> conf_s = ops::RowMax(til_probs_s);
  std::vector<float> conf_t = ops::RowMax(til_probs_t);
  const int64_t width = cil_s.dim(1);
  const int64_t d = model_->feature_dim();

  std::vector<cl::MemoryRecord> candidates;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const data::Example& src = task.source_train.Get(pairs[i].first);
    const data::Example& tgt = task.target_train.Get(pairs[i].second);
    cl::MemoryRecord rec;
    rec.source_image = src.image;
    rec.target_image = tgt.image;
    rec.label = src.label;
    rec.task_label = src.task_label;
    // max(y^TIL_S) v max(y^TIL_T) - the paper's confidence criterion.
    rec.confidence = std::max(conf_s[i], conf_t[i]);
    rec.logit_tasks = tasks_seen_;
    const int64_t row = static_cast<int64_t>(i);
    std::vector<float> logits_s(static_cast<size_t>(width));
    std::vector<float> logits_t(static_cast<size_t>(width));
    std::vector<float> feat(static_cast<size_t>(d));
    for (int64_t j = 0; j < width; ++j) {
      logits_s[static_cast<size_t>(j)] = cil_s.at(row, j);
      logits_t[static_cast<size_t>(j)] = cil_t.at(row, j);
    }
    for (int64_t j = 0; j < d; ++j) {
      feat[static_cast<size_t>(j)] = zs.at(row, j);
    }
    // Encoded under the active precision mode — fp32 stores raw floats.
    rec.source_logits = cl::CompactFloats::Encode(logits_s);
    rec.target_logits = cl::CompactFloats::Encode(logits_t);
    rec.feature = cl::CompactFloats::Encode(feat);
    candidates.push_back(std::move(rec));
  }
  memory_.AddTask(task_id, std::move(candidates), &rng_);
  model_->SetTraining(true);
}

void CdclTrainer::ExportExtraState(ByteWriter* writer) const {
  writer->PutF64(last_pseudo_label_accuracy_);
  writer->PutI64(last_pair_count_);
  writer->PutFloats(loss_trace_);
}

bool CdclTrainer::ImportExtraState(ByteReader* reader) {
  return reader->GetF64(&last_pseudo_label_accuracy_) &&
         reader->GetI64(&last_pair_count_) && reader->GetFloats(&loss_trace_);
}

std::unique_ptr<CdclTrainer> MakeCdclTrainer(const CdclOptions& options) {
  return std::make_unique<CdclTrainer>(options);
}

}  // namespace core
}  // namespace cdcl
