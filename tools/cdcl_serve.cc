// cdcl_serve: standalone epoll inference server over a CompactTransformer.
//
// Builds a deterministic paper-shape model (random init — the serving layer
// is agnostic to how the snapshot was trained; a real deployment publishes a
// trained checkpoint via InferenceServer::Publish), sets it to eval mode,
// and serves classify/encode requests on the length-prefixed protocol until
// SIGINT/SIGTERM. See docs/serve.md for the protocol and knob table.
//
// Knobs: CDCL_SERVE_PORT, CDCL_SERVE_WORKERS, CDCL_SERVE_QUEUE_MAX
// (backpressure bound), CDCL_SERVE_IDLE_TIMEOUT_MS
// (idle-connection reaping, 0 = off), CDCL_FAULT (deterministic fault
// injection, docs/robustness.md), CDCL_EVAL_BATCH (micro-batch ceiling),
// CDCL_TASKS / CDCL_EMBED_DIM / CDCL_LAYERS (model shape).

#include <csignal>
#include <memory>

#include "models/compact_transformer.h"
#include "serve/server.h"
#include "util/env.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/rng.h"

int main() {
  using namespace cdcl;  // NOLINT: tool brevity

  fault::ArmFromEnv();

  models::ModelConfig config = models::ModelConfig::Small(16, 3);
  config.embed_dim = EnvInt("CDCL_EMBED_DIM", config.embed_dim);
  config.num_layers = EnvInt("CDCL_LAYERS", config.num_layers);
  const int64_t tasks = EnvInt("CDCL_TASKS", 2);
  const int64_t classes_per_task = 2;

  Rng rng(42);
  auto model = std::make_shared<models::CompactTransformer>(config, &rng);
  for (int64_t t = 0; t < tasks; ++t) model->AddTask(classes_per_task);
  model->SetTraining(false);
  CDCL_LOG(Info) << "cdcl_serve: model d=" << config.embed_dim << " layers="
                 << config.num_layers << " tasks=" << tasks << " ("
                 << model->NumParameters() << " params)";

  // Block SIGINT/SIGTERM before any thread spawns so the signal is only ever
  // delivered to the sigwait below, never to a worker mid-kernel.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  serve::InferenceServer server(serve::InferenceServer::Options::FromEnv(),
                                model);
  if (!server.Start()) return 1;

  int sig = 0;
  sigwait(&signals, &sig);
  CDCL_LOG(Info) << "cdcl_serve: signal " << sig << ", shutting down";
  server.Stop();
  const auto stats = server.batcher_stats();
  CDCL_LOG(Info) << "cdcl_serve: served " << stats.requests << " requests in "
                 << stats.batches << " batches (max batch "
                 << stats.max_batch_seen << ")";
  return 0;
}
