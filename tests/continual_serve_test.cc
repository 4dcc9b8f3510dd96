// Serve-while-train suite: a ContinualServer advances the CDCL task loop on
// its training thread while client threads hammer the epoll server, and
// every served response must be bitwise identical to a quiesced eval of
// *some* published snapshot version — the version stamped on that response.
// Also pins the publish-isolation contract (CloneSnapshot gives the server
// its own parameter storage, so the trainer's in-place optimizer steps can
// never leak into served results) and the publish-vs-in-flight-batch race
// via the deterministic run seam (no sleeps). TSan-clean by construction:
// scripts/verify.sh runs this suite under CDCL_TSAN.

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cl/experiment.h"
#include "core/cdcl_trainer.h"
#include "data/task_stream.h"
#include "gtest/gtest.h"
#include "models/compact_transformer.h"
#include "serve/client.h"
#include "serve/continual.h"
#include "serve/inference.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tensor/tensor.h"
#include "util/env.h"
#include "util/rng.h"

namespace cdcl {
namespace {

using serve::MessageType;
using serve::Request;
using serve::Response;
using serve::ResponseStatus;

constexpr int64_t kHw = 16;
constexpr int64_t kChannels = 1;

data::CrossDomainTaskStream TinyDigitsStream(int64_t tasks) {
  data::TaskStreamOptions opt;
  opt.family = "digits";
  opt.source_domain = "MN";
  opt.target_domain = "US";
  opt.num_tasks = tasks;
  opt.classes_per_task = 2;
  opt.train_per_class = 8;
  opt.test_per_class = 4;
  opt.seed = 1;
  return *data::CrossDomainTaskStream::Make(opt);
}

core::CdclOptions TinyCdclOptions() {
  core::CdclOptions opt;
  opt.base.model.image_hw = kHw;
  opt.base.model.channels = kChannels;
  opt.base.model.embed_dim = 16;
  opt.base.model.num_layers = 1;
  opt.base.epochs = 3;
  opt.base.warmup_epochs = 1;
  opt.base.batch_size = 8;
  opt.base.memory_size = 32;
  opt.base.seed = 3;
  return opt;
}

Request ImageRequest(MessageType type, uint32_t id, int64_t task,
                     uint64_t seed) {
  Request r;
  r.type = type;
  r.request_id = id;
  r.task = task;
  r.channels = kChannels;
  r.height = kHw;
  r.width = kHw;
  Rng rng(seed);
  r.pixels.resize(static_cast<size_t>(kChannels * kHw * kHw));
  for (float& p : r.pixels) p = static_cast<float>(rng.Gaussian(0.0, 1.0));
  return r;
}

/// Quiesced single-request eval of `request` against `model` — the bitwise
/// ground truth for a response stamped with that model's version (GEMM
/// results do not depend on the batch a row was served in).
std::vector<float> Reference(const models::CompactTransformer& model,
                             const Request& request) {
  Tensor image = Tensor::Uninitialized(Shape{1, kChannels, kHw, kHw});
  std::memcpy(image.data(), request.pixels.data(),
              request.pixels.size() * sizeof(float));
  Tensor z = model.EncodeSelfBatched(image, request.task);
  if (request.type == MessageType::kEncode) {
    return std::vector<float>(z.data(), z.data() + z.NumElements());
  }
  NoGradGuard no_grad;
  Tensor logits = request.type == MessageType::kClassifyTil
                      ? model.TilLogits(z, request.task)
                      : model.CilLogits(z);
  return std::vector<float>(logits.data(),
                            logits.data() + logits.NumElements());
}

// ---------------------------------------------------------------------------
// Publish isolation (the latent-sharing bug this PR fixes)
// ---------------------------------------------------------------------------

TEST(CloneSnapshotTest, CloneIsBitwiseEqualButSharesNoStorage) {
  auto stream = TinyDigitsStream(2);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());

  auto clone = trainer.model().CloneSnapshot();
  const auto theirs = trainer.model().NamedParameters();
  const auto mine = clone->NamedParameters();
  ASSERT_EQ(mine.size(), theirs.size());
  ASSERT_FALSE(mine.empty());
  for (size_t i = 0; i < mine.size(); ++i) {
    EXPECT_EQ(mine[i].name, theirs[i].name);
    ASSERT_TRUE(mine[i].tensor.shape() == theirs[i].tensor.shape())
        << mine[i].name;
    EXPECT_NE(mine[i].tensor.data(), theirs[i].tensor.data())
        << mine[i].name << ": a published snapshot must own its storage — "
        << "sharing it with the trainer lets in-place Step() mutate what is "
        << "being served";
    EXPECT_EQ(std::memcmp(mine[i].tensor.data(), theirs[i].tensor.data(),
                          static_cast<size_t>(mine[i].tensor.NumElements()) *
                              sizeof(float)),
              0)
        << mine[i].name;
  }
  EXPECT_EQ(clone->num_tasks(), trainer.model().num_tasks());
  EXPECT_EQ(clone->task_classes(0), trainer.model().task_classes(0));
}

TEST(CloneSnapshotTest, TrainerStepsNeverReachThePublishedClone) {
  auto stream = TinyDigitsStream(2);
  core::CdclTrainer trainer(TinyCdclOptions());
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());

  auto clone = trainer.model().CloneSnapshot();
  const Request probe = ImageRequest(MessageType::kClassifyTil, 1, 0, 77);
  const std::vector<float> before = Reference(*clone, probe);
  std::vector<float> flat_before;
  for (const auto& np : clone->NamedParameters()) {
    flat_before.insert(flat_before.end(), np.tensor.data(),
                       np.tensor.data() + np.tensor.NumElements());
  }

  // Task 1 runs a full training round of in-place optimizer steps on the
  // trainer's model — the exact mutation that corrupted a shared-storage
  // publish.
  ASSERT_TRUE(trainer.ObserveTask(stream.task(1)).ok());
  bool trainer_changed = false;
  const auto trained = trainer.model().NamedParameters();
  const auto cloned = clone->NamedParameters();
  for (size_t i = 0; i < cloned.size() && !trainer_changed; ++i) {
    trainer_changed = std::memcmp(cloned[i].tensor.data(),
                                  trained[i].tensor.data(),
                                  static_cast<size_t>(
                                      cloned[i].tensor.NumElements()) *
                                      sizeof(float)) != 0;
  }
  ASSERT_TRUE(trainer_changed) << "training a task must move the weights, "
                                  "or this regression test tests nothing";

  std::vector<float> flat_after;
  for (const auto& np : clone->NamedParameters()) {
    flat_after.insert(flat_after.end(), np.tensor.data(),
                      np.tensor.data() + np.tensor.NumElements());
  }
  ASSERT_EQ(flat_after.size(), flat_before.size());
  EXPECT_EQ(std::memcmp(flat_after.data(), flat_before.data(),
                        flat_before.size() * sizeof(float)),
            0)
      << "the served snapshot's weights moved while the trainer stepped";
  const std::vector<float> after = Reference(*clone, probe);
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(std::memcmp(after.data(), before.data(),
                        before.size() * sizeof(float)),
            0)
      << "served results drifted while the trainer stepped";
}

// ---------------------------------------------------------------------------
// Publish racing an in-flight micro-batch (deterministic, via the run seam)
// ---------------------------------------------------------------------------

TEST(PublishRaceTest, InFlightBatchNeverMixesWeightGenerations) {
  models::ModelConfig config;
  config.image_hw = kHw;
  config.channels = kChannels;
  config.embed_dim = 16;
  config.num_layers = 1;
  Rng rng_a(42), rng_b(1234);
  auto model_a = std::make_shared<models::CompactTransformer>(config, &rng_a);
  model_a->AddTask(2);
  model_a->SetTraining(false);
  auto model_b = std::make_shared<models::CompactTransformer>(config, &rng_b);
  model_b->AddTask(2);
  model_b->SetTraining(false);

  serve::InferenceServer::Options options;
  options.port = 0;
  options.workers = 1;
  options.max_batch = 6;
  options.deadline_us = 200 * 1000;  // hold for a full 6-request batch
  serve::InferenceServer server(options, model_a);
  ASSERT_TRUE(server.Start());

  // The seam fires on the worker thread AFTER the batch loaded its snapshot
  // and BEFORE any eval work: publishing v2 right there is the exact
  // interleaving "new weights land while a batch is in flight". The batch
  // must still be answered entirely by the v1 snapshot it loaded.
  std::atomic<bool> fired{false};
  serve::SetRunSeamForTest([&](uint32_t) {
    if (!fired.exchange(true)) server.Publish(model_b);
  });

  serve::Client client;
  ASSERT_TRUE(client.Connect(server.port()));
  std::map<uint32_t, Request> sent;
  for (uint32_t id = 1; id <= 6; ++id) {
    const MessageType type = static_cast<MessageType>(1 + (id % 3));
    Request request = ImageRequest(type, id, 0, 500 + id);
    ASSERT_TRUE(client.Send(request));
    sent.emplace(id, std::move(request));
  }

  size_t v1_responses = 0;
  for (uint32_t i = 0; i < 6; ++i) {
    Response response;
    ASSERT_TRUE(client.Receive(&response)) << i;
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    ASSERT_TRUE(response.version == 1 || response.version == 2);
    v1_responses += response.version == 1 ? 1 : 0;
    // The pin: values must match the model OF THE STAMPED VERSION bitwise.
    // Mixed-generation weights would match neither model.
    const models::CompactTransformer& model =
        response.version == 1 ? *model_a : *model_b;
    const std::vector<float> want =
        Reference(model, sent.at(response.request_id));
    ASSERT_EQ(response.values.size(), want.size());
    EXPECT_EQ(std::memcmp(response.values.data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << "response " << response.request_id << " (v" << response.version
        << ") does not match its own version's weights";
  }
  EXPECT_GE(v1_responses, 1u)
      << "the batch that triggered the publish loaded v1 before it landed, "
         "so at least its own responses must be stamped v1";
  ASSERT_TRUE(fired.load());

  // Steady state after the race: everything serves from v2.
  Response response;
  const Request after = ImageRequest(MessageType::kEncode, 9, 0, 900);
  ASSERT_TRUE(client.Call(after, &response));
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.version, 2u);
  const std::vector<float> want = Reference(*model_b, after);
  ASSERT_EQ(response.values.size(), want.size());
  EXPECT_EQ(std::memcmp(response.values.data(), want.data(),
                        want.size() * sizeof(float)),
            0);
  serve::SetRunSeamForTest(nullptr);
}

// ---------------------------------------------------------------------------
// The tentpole torture test: serve while the trainer advances tasks
// ---------------------------------------------------------------------------

// N tasks train on the ContinualServer's training thread while 4 client
// threads run pipelined traffic the whole time. Every response must be
// bitwise identical to a quiesced eval of the published snapshot whose
// version it carries — i.e. served results always correspond to SOME
// published generation, never a torn or mixed one. CDCL_SERVE_TORTURE_REQS
// scales the per-client floor (the TSan pass bumps it).
TEST(ContinualServeTest, ResponsesBitwiseMatchSomePublishedVersion) {
  auto stream = TinyDigitsStream(3);
  core::CdclTrainer trainer(TinyCdclOptions());
  // Observe task 0 up front so the initial published snapshot already serves
  // task-0 requests; the training thread then advances tasks 1..2.
  ASSERT_TRUE(trainer.ObserveTask(stream.task(0)).ok());

  serve::ContinualServer::Options options;
  options.server.port = 0;
  options.server.workers = 2;
  options.server.max_batch = 8;
  options.server.deadline_us = 200;
  options.publish_every = 1;
  serve::ContinualServer continual(options, &trainer);

  // Version -> snapshot registry, fed by the publish observer. Responses are
  // validated against it after the fact.
  std::mutex registry_mu;
  std::map<uint32_t, std::shared_ptr<const models::CompactTransformer>>
      registry;
  continual.SetPublishObserver(
      [&](uint32_t version,
          std::shared_ptr<const models::CompactTransformer> snapshot) {
        std::lock_guard<std::mutex> lock(registry_mu);
        EXPECT_EQ(registry.count(version), 0u) << "versions must be unique";
        registry.emplace(version, std::move(snapshot));
      });
  ASSERT_TRUE(continual.Start());

  cl::ExperimentOptions experiment;
  experiment.first_task = 1;  // task 0 was observed above
  continual.BeginTraining(stream, experiment);

  // Fixed request pool (all task 0 — valid under every published version).
  std::vector<Request> pool;
  for (uint32_t i = 0; i < 9; ++i) {
    pool.push_back(ImageRequest(static_cast<MessageType>(1 + (i % 3)), 0, 0,
                                700 + i));
  }

  struct Served {
    uint32_t pool_index = 0;
    uint32_t version = 0;
    std::vector<float> values;
  };
  const int64_t min_per_client = EnvInt("CDCL_SERVE_TORTURE_REQS", 60);
  constexpr int kClients = 4;
  constexpr uint32_t kWindow = 6;
  std::atomic<int> failures{0};
  std::vector<std::vector<Served>> served(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::Client client;
      if (!client.Connect(continual.port())) {
        failures.fetch_add(1);
        return;
      }
      uint32_t next_id = 1;
      uint32_t in_flight = 0;
      // Keep traffic flowing for the entire training run, and serve at
      // least the floor even if training finishes instantly. Then wait for
      // the answer to one request sent after training finished: the final
      // publish happens before training_done(), so that answer carries the
      // final version. Answers to earlier requests may all predate it.
      uint32_t tail_id = 0;
      for (;;) {
        if (tail_id == 0 && continual.training_done() &&
            static_cast<int64_t>(served[c].size()) >= min_per_client) {
          tail_id = next_id;
        }
        while (in_flight < kWindow) {
          Request request = pool[next_id % pool.size()];
          request.request_id = next_id++;
          if (!client.Send(request)) {
            failures.fetch_add(1);
            return;
          }
          ++in_flight;
        }
        Response response;
        if (!client.Receive(&response) ||
            response.status != ResponseStatus::kOk) {
          failures.fetch_add(1);
          return;
        }
        --in_flight;
        served[c].push_back(
            {static_cast<uint32_t>(response.request_id % pool.size()),
             response.version, std::move(response.values)});
        if (tail_id != 0 && response.request_id >= tail_id) break;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ASSERT_EQ(failures.load(), 0);

  Result<cl::ContinualResult> result = continual.WaitForTraining();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  continual.Stop();

  // Initial publish + one per trained task.
  EXPECT_EQ(continual.publishes(), 3u);
  {
    std::lock_guard<std::mutex> lock(registry_mu);
    ASSERT_EQ(registry.size(), 3u);
  }

  // Validate every response against the quiesced eval of its own version.
  std::map<std::pair<uint32_t, uint32_t>, std::vector<float>> references;
  size_t total = 0;
  uint32_t max_version_seen = 0;
  for (const auto& per_client : served) {
    for (const Served& s : per_client) {
      auto it = registry.find(s.version);
      ASSERT_NE(it, registry.end())
          << "response stamped with never-published version " << s.version;
      const auto key = std::make_pair(s.version, s.pool_index);
      auto ref = references.find(key);
      if (ref == references.end()) {
        ref = references
                  .emplace(key, Reference(*it->second, pool[s.pool_index]))
                  .first;
      }
      ASSERT_EQ(s.values.size(), ref->second.size());
      ASSERT_EQ(std::memcmp(s.values.data(), ref->second.data(),
                            ref->second.size() * sizeof(float)),
                0)
          << "response served under training differs from the quiesced eval "
             "of published v"
          << s.version;
      max_version_seen = std::max(max_version_seen, s.version);
      ++total;
    }
  }
  EXPECT_GE(total, static_cast<size_t>(kClients) *
                       static_cast<size_t>(min_per_client));
  // The tail of the traffic ran after the final publish.
  EXPECT_EQ(max_version_seen, 3u);
}

}  // namespace
}  // namespace cdcl
