#include "models/compact_transformer.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace cdcl {
namespace models {

ModelConfig ModelConfig::Small(int64_t image_hw, int64_t channels) {
  ModelConfig c;
  c.image_hw = image_hw;
  c.channels = channels;
  c.embed_dim = 24;
  c.num_layers = 2;
  return c;
}

ModelConfig ModelConfig::Base(int64_t image_hw, int64_t channels) {
  ModelConfig c;
  c.image_hw = image_hw;
  c.channels = channels;
  c.embed_dim = 40;
  c.num_layers = 3;
  return c;
}

CompactTransformer::CompactTransformer(const ModelConfig& config, Rng* rng)
    : config_(config), rng_(rng) {
  CDCL_CHECK(rng != nullptr);
  tokenizer_ = std::make_unique<nn::ConvTokenizer>(
      config.image_hw, config.channels, config.embed_dim,
      config.tokenizer_layers, config.tokenizer_kernel, rng);
  RegisterModule("tokenizer", tokenizer_.get());
  const int64_t seq_len = tokenizer_->sequence_length();
  for (int64_t l = 0; l < config.num_layers; ++l) {
    layers_.push_back(std::make_unique<nn::TransformerEncoderLayer>(
        config.embed_dim, seq_len, config.embed_dim * config.mlp_ratio, rng,
        config.softmax_attention, config.freeze_old_keys));
    RegisterModule(StrFormat("layer%lld", static_cast<long long>(l)),
                   layers_.back().get());
  }
  pool_ = std::make_unique<nn::SequencePool>(config.embed_dim, rng);
  til_head_ = std::make_unique<nn::MultiHeadOutput>(config.embed_dim);
  cil_head_ = std::make_unique<nn::GrowingHead>(config.embed_dim);
  RegisterModule("pool", pool_.get());
  RegisterModule("til_head", til_head_.get());
  RegisterModule("cil_head", cil_head_.get());
}

int64_t CompactTransformer::AddTask(int64_t num_classes) {
  CDCL_CHECK_GT(num_classes, 0);
  const bool grow_keys = config_.per_task_keys || til_head_->num_tasks() == 0;
  if (grow_keys) {
    for (auto& layer : layers_) layer->AddTask();
  }
  const int64_t til_task = til_head_->AddTask(num_classes, rng_);
  const int64_t cil_task = cil_head_->AddTask(num_classes, rng_);
  CDCL_CHECK_EQ(til_task, cil_task);
  return til_task;
}

std::shared_ptr<CompactTransformer> CompactTransformer::CloneSnapshot() const {
  // Rebuild the same architecture (the clone's init values are overwritten
  // below, so the rng seed is irrelevant — it only feeds initializers), then
  // replay the task growth so parameter registration order and shapes match
  // the source exactly, and bulk-copy every value into the clone's own
  // storage. CopyParametersFrom verifies name-for-name correspondence.
  auto rng = std::make_unique<Rng>(0);
  auto clone = std::make_shared<CompactTransformer>(config_, rng.get());
  clone->owned_rng_ = std::move(rng);
  for (int64_t t = 0; t < num_tasks(); ++t) {
    clone->AddTask(task_classes(t));
  }
  clone->CopyParametersFrom(*this);
  clone->SetTraining(false);
  return clone;
}

int64_t CompactTransformer::KeyTask(int64_t task) const {
  return config_.per_task_keys ? task : 0;
}

Tensor CompactTransformer::EncodeTokensSelf(const Tensor& tokens,
                                            int64_t task) const {
  const int64_t key = KeyTask(task);
  Tensor h = tokens;
  if (!GradModeEnabled() && nn::FusedEvalEnabled()) {
    for (const auto& layer : layers_) h = layer->SelfForwardFused(h, key);
    return pool_->ForwardFused(h);
  }
  for (const auto& layer : layers_) h = layer->SelfForward(h, key);
  return pool_->Forward(h);
}

Tensor CompactTransformer::EncodeSelf(const Tensor& images, int64_t task) const {
  return EncodeTokensSelf(tokenizer_->Forward(images), task);
}

Tensor CompactTransformer::EncodeSelfBatched(const Tensor& images,
                                             int64_t task) const {
  NoGradGuard no_grad;
  return EncodeSelf(images, task);
}

CompactTransformer::CrossEncoding CompactTransformer::EncodeCross(
    const Tensor& source_images, const Tensor& target_images,
    int64_t task) const {
  Tensor hs = tokenizer_->Forward(source_images);
  Tensor ht = tokenizer_->Forward(target_images);
  const int64_t key = KeyTask(task);
  Tensor mixed;  // starts undefined -> first layer contributes pure cross
  for (const auto& layer : layers_) {
    Tensor next_mixed = layer->CrossForward(hs, ht, mixed, key);
    hs = layer->SelfForward(hs, key);
    ht = layer->SelfForward(ht, key);
    mixed = next_mixed;
  }
  CrossEncoding enc;
  enc.z_source = pool_->Forward(hs);
  enc.z_target = pool_->Forward(ht);
  enc.z_mixed = pool_->Forward(mixed);
  return enc;
}

Tensor CompactTransformer::TilLogits(const Tensor& z, int64_t task) const {
  return til_head_->Forward(z, task);
}

Tensor CompactTransformer::CilLogits(const Tensor& z) const {
  return cil_head_->Forward(z);
}

Tensor CompactTransformer::CilLogitsUpTo(const Tensor& z, int64_t tasks) const {
  return cil_head_->ForwardUpTo(z, tasks);
}

}  // namespace models
}  // namespace cdcl
