#include "serve/inference.h"

#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include "tensor/arena.h"
#include "tensor/tensor.h"
#include "util/logging.h"

namespace cdcl {
namespace serve {
namespace {

/// Step arena for batch execution: one per worker thread, reset per batch by
/// the ArenaScope in Run (mirrors the per-batch scopes of the trainer eval
/// loops).
thread_local Arena t_worker_arena;

/// Publish-during-dispatch fault-injection seam (SetRunSeamForTest). Guarded
/// by a mutex rather than an atomic because tests install/clear it around
/// traffic from a different thread than the workers that invoke it.
std::mutex g_run_seam_mutex;
std::function<void(uint32_t)> g_run_seam;  // guarded by g_run_seam_mutex

std::function<void(uint32_t)> LoadRunSeam() {
  std::lock_guard<std::mutex> lock(g_run_seam_mutex);
  return g_run_seam;
}

}  // namespace

void SetRunSeamForTest(std::function<void(uint32_t version)> seam) {
  std::lock_guard<std::mutex> lock(g_run_seam_mutex);
  g_run_seam = std::move(seam);
}

InferenceEngine::InferenceEngine(
    std::shared_ptr<const models::CompactTransformer> model) {
  CDCL_CHECK(model != nullptr);
  auto snapshot = std::make_shared<VersionedSnapshot>();
  snapshot->model = std::move(model);
  snapshot->version = 1;
  snapshot_ = std::move(snapshot);
}

uint32_t InferenceEngine::Publish(
    std::shared_ptr<const models::CompactTransformer> model) {
  CDCL_CHECK(model != nullptr);
  auto snapshot = std::make_shared<VersionedSnapshot>();
  snapshot->model = std::move(model);
  snapshot->version = next_version_.fetch_add(1, std::memory_order_relaxed);
  const uint32_t version = snapshot->version;
  std::atomic_store_explicit(&snapshot_,
                             std::shared_ptr<const VersionedSnapshot>(
                                 std::move(snapshot)),
                             std::memory_order_release);
  return version;
}

std::shared_ptr<const InferenceEngine::VersionedSnapshot>
InferenceEngine::Load() const {
  return std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
}

std::shared_ptr<const models::CompactTransformer> InferenceEngine::Snapshot()
    const {
  return Load()->model;
}

uint32_t InferenceEngine::version() const { return Load()->version; }

std::vector<CompletedResponse> InferenceEngine::Run(
    std::vector<InferenceRequest> batch) const {
  // ONE atomic load per batch: every response below — values, status and
  // version stamp alike — comes from this (model, version) pair, so a
  // Publish() landing anywhere during execution can never mix generations
  // within the batch.
  const std::shared_ptr<const VersionedSnapshot> snapshot = Load();
  const models::CompactTransformer& model = *snapshot->model;
  const models::ModelConfig& config = model.config();
  const int64_t d = model.feature_dim();

  if (const auto seam = LoadRunSeam()) seam(snapshot->version);

  std::vector<CompletedResponse> out(batch.size());
  // Requests that validated, grouped by task id (the encode unit).
  std::map<int64_t, std::vector<size_t>> by_task;
  for (size_t i = 0; i < batch.size(); ++i) {
    const Request& req = batch[i].request;
    out[i].session_id = batch[i].session_id;
    out[i].response.request_id = req.request_id;
    out[i].response.type = req.type;
    out[i].response.version = snapshot->version;
    if (req.type == MessageType::kPing) {
      // Pings are normally echoed at the session layer; one that reaches the
      // batcher is still answered, just without payload copies.
      out[i].response.ping_payload = req.ping_payload;
      continue;
    }
    if (req.task < 0 || req.task >= model.num_tasks()) {
      out[i].response.status = ResponseStatus::kBadTask;
      continue;
    }
    if (req.channels != config.channels || req.height != config.image_hw ||
        req.width != config.image_hw) {
      out[i].response.status = ResponseStatus::kBadShape;
      continue;
    }
    const int64_t want = config.channels * config.image_hw * config.image_hw;
    if (static_cast<int64_t>(req.pixels.size()) != want) {
      out[i].response.status = ResponseStatus::kBadRequest;
      continue;
    }
    by_task[req.task].push_back(i);
  }

  const int64_t pixels_per_image =
      config.channels * config.image_hw * config.image_hw;
  for (const auto& [task, indices] : by_task) {
    // Per-group step scope: every encoder intermediate is arena-backed and
    // dies here; response payloads are copied out to plain heap vectors.
    ArenaScope step_arena(&t_worker_arena);
    const int64_t b = static_cast<int64_t>(indices.size());
    Tensor images = Tensor::Uninitialized(
        Shape{b, config.channels, config.image_hw, config.image_hw});
    for (int64_t r = 0; r < b; ++r) {
      std::memcpy(images.data() + r * pixels_per_image,
                  batch[indices[static_cast<size_t>(r)]].request.pixels.data(),
                  static_cast<size_t>(pixels_per_image) * sizeof(float));
    }
    Tensor z = model.EncodeSelfBatched(images, task);

    // Head pass per response type, each as one batched GEMM over the rows
    // that asked for it (GEMM rows are bitwise independent, so sub-batching
    // preserves the per-request results).
    for (const MessageType type :
         {MessageType::kEncode, MessageType::kClassifyTil,
          MessageType::kClassifyCil}) {
      std::vector<size_t> rows;  // positions within this task group
      for (size_t r = 0; r < indices.size(); ++r) {
        if (batch[indices[r]].request.type == type) rows.push_back(r);
      }
      if (rows.empty()) continue;
      if (type == MessageType::kEncode) {
        for (size_t r : rows) {
          std::vector<float>& values = out[indices[r]].response.values;
          values.assign(z.data() + static_cast<int64_t>(r) * d,
                        z.data() + (static_cast<int64_t>(r) + 1) * d);
        }
        continue;
      }
      Tensor zs = Tensor::Uninitialized(
          Shape{static_cast<int64_t>(rows.size()), d});
      for (size_t r = 0; r < rows.size(); ++r) {
        std::memcpy(zs.data() + static_cast<int64_t>(r) * d,
                    z.data() + static_cast<int64_t>(rows[r]) * d,
                    static_cast<size_t>(d) * sizeof(float));
      }
      NoGradGuard no_grad;
      Tensor logits = type == MessageType::kClassifyTil
                          ? model.TilLogits(zs, task)
                          : model.CilLogits(zs);
      const int64_t u = logits.dim(1);
      for (size_t r = 0; r < rows.size(); ++r) {
        std::vector<float>& values = out[indices[rows[r]]].response.values;
        values.assign(logits.data() + static_cast<int64_t>(r) * u,
                      logits.data() + (static_cast<int64_t>(r) + 1) * u);
      }
    }
  }
  return out;
}

}  // namespace serve
}  // namespace cdcl
