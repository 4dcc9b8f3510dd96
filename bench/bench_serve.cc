// Serving-path load generator: drives an in-process InferenceServer (bound
// to an ephemeral port) with pipelined client connections and records
// throughput plus p50/p99 request latency per dispatch policy:
//
//   per_request    max_batch=1, deadline=0 — every request is its own eval
//   microbatch     max_batch=32, deadline=200us — adaptive coalescing
//   microbatch_4w  same, 4 batcher workers
//
// The headline ratio (microbatch QPS / per_request QPS) is the acceptance
// number for the micro-batching tentpole: coalescing must beat per-request
// dispatch at the paper shape. Emits BENCH_serve.json.
//
// A second pair of rows measures the serve-while-train subsystem
// (serve/continual.h) at the trainer shape:
//
//   serve_baseline        same traffic against a quiesced trainer snapshot
//   serve_under_training  identical traffic while a CDCL continual run
//                         advances tasks on the training thread, publishing
//                         a fresh snapshot per task; reports overload
//                         rejections (bounded batcher queue) and publishes
//
// Env knobs:
//   CDCL_BENCH_SERVE_REQS     requests per client connection (default 400)
//   CDCL_BENCH_SERVE_CLIENTS  concurrent client connections (default 4)
//   CDCL_BENCH_SERVE_WINDOW   pipelined requests in flight per client (16)
//   CDCL_BENCH_SERVE_TASKS    stream length of the under-training run (3)
//   CDCL_BENCH_SERVE_EPOCHS   trainer epochs per task (3)
//
// Defaults keep clients*window (64 in flight) above max_batch (32) so the
// saturation run measures steady-state coalescing: the queue never drains,
// full batches form back-to-back, and the latency deadline only shapes the
// tail at light load (it never idles a saturated server). The two continual
// rows bound the batcher queue BELOW the in-flight ceiling so admission
// control engages under pressure: clients back off and resubmit kOverloaded
// requests (serve::RetryPolicy, capped exponential backoff with jitter) and
// QPS counts completed (kOk) responses only.
//   CDCL_BENCH_OUT            JSON report path (default BENCH_serve.json)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cl/experiment.h"
#include "core/cdcl_trainer.h"
#include "data/task_stream.h"
#include "models/compact_transformer.h"
#include "serve/client.h"
#include "serve/continual.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/env.h"
#include "util/rng.h"

namespace {

using namespace cdcl;  // NOLINT: bench brevity
using Clock = std::chrono::steady_clock;

std::vector<float> RandomImage(const models::ModelConfig& config,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<float> pixels(static_cast<size_t>(
      config.channels * config.image_hw * config.image_hw));
  for (float& p : pixels) p = static_cast<float>(rng.Gaussian(0.0, 1.0));
  return pixels;
}

serve::Request MakeRequest(const models::ModelConfig& config,
                           const std::vector<float>& pixels, uint32_t id) {
  serve::Request request;
  request.type = serve::MessageType::kClassifyTil;
  request.request_id = id;
  request.task = 0;
  request.channels = static_cast<uint16_t>(config.channels);
  request.height = static_cast<uint16_t>(config.image_hw);
  request.width = static_cast<uint16_t>(config.image_hw);
  request.pixels = pixels;
  return request;
}

/// One pipelined client connection: keeps `window` requests in flight until
/// `total` responses arrived, recording per-request latency for completed
/// (kOk) responses. A kOverloaded rejection is counted, then the request is
/// re-sent under the retry policy's capped-exponential-backoff-with-jitter
/// schedule (serve::RetryDelayUs) — the backoff sleep is the load shedding
/// the server asked for, and it makes overload-bounded runs converge instead
/// of dropping work. Requests still rejected after max_attempts are given up.
void ClientLoop(uint16_t port, const models::ModelConfig& config,
                const std::vector<float>& pixels, int64_t total,
                int64_t window, const serve::RetryPolicy& retry,
                uint64_t rng_seed, std::vector<double>* latencies_ms,
                uint64_t* overloaded, bool* ok) {
  Rng rng(rng_seed);
  serve::Client client;
  if (!client.ConnectWithRetry(port, retry, &rng)) {
    *ok = false;
    return;
  }
  std::map<uint32_t, Clock::time_point> in_flight;
  std::map<uint32_t, int> attempts;  // resubmissions after kOverloaded
  uint32_t next_id = 1;
  int64_t received = 0;
  *ok = true;
  while (received < total) {
    while (static_cast<int64_t>(in_flight.size()) < window &&
           static_cast<int64_t>(next_id) <= total) {
      const uint32_t id = next_id++;
      in_flight[id] = Clock::now();
      if (!client.Send(MakeRequest(config, pixels, id))) {
        *ok = false;
        return;
      }
    }
    serve::Response response;
    if (!client.Receive(&response)) {
      *ok = false;
      return;
    }
    const auto it = in_flight.find(response.request_id);
    if (it == in_flight.end()) {
      *ok = false;
      return;
    }
    if (response.status == serve::ResponseStatus::kOk) {
      latencies_ms->push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - it->second)
              .count());
    } else if (response.status == serve::ResponseStatus::kOverloaded) {
      ++*overloaded;  // rejected at admission — not a completed request
      const int attempt = ++attempts[response.request_id];
      if (attempt < retry.max_attempts) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            serve::RetryDelayUs(retry, attempt, &rng)));
        if (!client.Send(MakeRequest(config, pixels, response.request_id))) {
          *ok = false;
          return;
        }
        continue;  // still in flight; latency covers the whole retry span
      }
      attempts.erase(response.request_id);  // out of attempts: give up
    } else {
      *ok = false;
      return;
    }
    in_flight.erase(it);
    ++received;
  }
}

/// Backoff tuned for an in-process server: short base so retries don't
/// dominate the window, capped well below the eval latency of a full batch.
serve::RetryPolicy BenchRetryPolicy() {
  serve::RetryPolicy retry;
  retry.max_attempts = 6;
  retry.base_delay_us = 200;
  retry.max_delay_us = 5000;
  return retry;
}

struct RunResult {
  std::string name;
  int64_t workers = 0;
  int64_t max_batch = 0;
  int64_t deadline_us = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t batches = 0;
  double mean_batch = 0.0;
  int64_t max_batch_seen = 0;
  uint64_t rejected = 0;   // kOverloaded admissions (bounded queue)
  uint64_t publishes = 0;  // snapshot generations published during the run
  bool ok = false;
};

double Percentile(std::vector<double>* sorted_in_place, double q) {
  std::sort(sorted_in_place->begin(), sorted_in_place->end());
  if (sorted_in_place->empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted_in_place->size() - 1));
  return (*sorted_in_place)[idx];
}

RunResult RunConfig(const std::string& name,
                    std::shared_ptr<const models::CompactTransformer> model,
                    const models::ModelConfig& config,
                    serve::InferenceServer::Options options, int64_t clients,
                    int64_t reqs_per_client, int64_t window) {
  RunResult result;
  result.name = name;
  result.workers = options.workers;
  result.max_batch = options.max_batch;
  result.deadline_us = options.deadline_us;

  options.port = 0;  // ephemeral
  serve::InferenceServer server(options, std::move(model));
  if (!server.Start()) return result;
  const std::vector<float> pixels = RandomImage(config, /*seed=*/7);
  const serve::RetryPolicy retry = BenchRetryPolicy();

  // Warm up kernel dispatch and the thread pool so the timed window
  // measures steady-state serving.
  {
    Rng warm_rng(11);
    serve::Client warm;
    serve::Response response;
    if (!warm.ConnectWithRetry(server.port(), retry, &warm_rng)) return result;
    for (int i = 0; i < 8; ++i) {
      if (!warm.CallWithRetry(MakeRequest(config, pixels, 1000000u + i),
                              &response, server.port(), retry, &warm_rng)) {
        return result;
      }
    }
  }
  const serve::MicroBatcher::Stats warm_stats = server.batcher_stats();

  std::vector<std::vector<double>> latencies(clients);
  std::vector<uint64_t> overloads(clients, 0);
  std::vector<bool> oks(clients, false);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      bool ok = false;
      ClientLoop(server.port(), config, pixels, reqs_per_client, window,
                 retry, /*rng_seed=*/100 + static_cast<uint64_t>(c),
                 &latencies[c], &overloads[c], &ok);
      oks[c] = ok;
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  server.Stop();

  result.ok = true;
  for (int64_t c = 0; c < clients; ++c) result.ok = result.ok && oks[c];
  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  // QPS counts completed responses only — a rejected request is answered
  // fast, and crediting it would make overload look like throughput.
  result.qps = seconds > 0.0 ? static_cast<double>(all.size()) / seconds : 0.0;
  result.p99_ms = Percentile(&all, 0.99);
  result.p50_ms = Percentile(&all, 0.50);
  const serve::MicroBatcher::Stats stats = server.batcher_stats();
  result.batches = stats.batches - warm_stats.batches;
  const uint64_t reqs = stats.requests - warm_stats.requests;
  result.mean_batch = result.batches > 0
                          ? static_cast<double>(reqs) /
                                static_cast<double>(result.batches)
                          : 0.0;
  result.max_batch_seen = stats.max_batch_seen;
  result.rejected = stats.rejected;
  return result;
}

/// The serve_under_training row: identical pipelined traffic, but a CDCL
/// continual run advances `stream`'s remaining tasks on the ContinualServer's
/// training thread for the whole window, publishing after every task.
RunResult RunUnderTraining(const std::string& name,
                           baselines::TrainerBase* trainer,
                           const data::CrossDomainTaskStream& stream,
                           const models::ModelConfig& config,
                           serve::InferenceServer::Options options,
                           int64_t clients, int64_t reqs_per_client,
                           int64_t window, bool train) {
  RunResult result;
  result.name = name;
  result.workers = options.workers;
  result.max_batch = options.max_batch;
  result.deadline_us = options.deadline_us;

  options.port = 0;  // ephemeral
  serve::ContinualServer::Options continual_options;
  continual_options.server = options;
  continual_options.publish_every = 1;
  serve::ContinualServer continual(continual_options, trainer);
  if (!continual.Start()) return result;
  const std::vector<float> pixels = RandomImage(config, /*seed=*/7);
  const serve::RetryPolicy retry = BenchRetryPolicy();

  {
    Rng warm_rng(11);
    serve::Client warm;
    serve::Response response;
    if (!warm.ConnectWithRetry(continual.port(), retry, &warm_rng)) {
      return result;
    }
    for (int i = 0; i < 8; ++i) {
      if (!warm.CallWithRetry(MakeRequest(config, pixels, 1000000u + i),
                              &response, continual.port(), retry,
                              &warm_rng)) {
        return result;
      }
    }
  }
  const serve::MicroBatcher::Stats warm_stats =
      continual.server().batcher_stats();

  cl::ExperimentOptions experiment;
  experiment.first_task = trainer->tasks_seen();
  experiment.evaluate = false;  // pure training load vs the serving path
  if (train) continual.BeginTraining(stream, experiment);

  std::vector<std::vector<double>> latencies(clients);
  std::vector<uint64_t> overloads(clients, 0);
  std::vector<bool> oks(clients, false);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int64_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      bool ok = false;
      ClientLoop(continual.port(), config, pixels, reqs_per_client, window,
                 retry, /*rng_seed=*/100 + static_cast<uint64_t>(c),
                 &latencies[c], &overloads[c], &ok);
      oks[c] = ok;
    });
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  const bool trainer_active_throughout = !train || !continual.training_done();
  if (train) {
    Result<cl::ContinualResult> trained = continual.WaitForTraining();
    if (!trained.ok()) return result;
  }
  const serve::MicroBatcher::Stats stats = continual.server().batcher_stats();
  result.publishes = continual.publishes();
  continual.Stop();

  result.ok = true;
  for (int64_t c = 0; c < clients; ++c) result.ok = result.ok && oks[c];
  if (train && !trainer_active_throughout) {
    std::fprintf(stderr,
                 "bench_serve: NOTE — training finished before the traffic "
                 "window closed; raise CDCL_BENCH_SERVE_EPOCHS or lower "
                 "CDCL_BENCH_SERVE_REQS for a fully-contended window\n");
  }
  std::vector<double> all;
  for (const auto& v : latencies) all.insert(all.end(), v.begin(), v.end());
  result.qps = seconds > 0.0 ? static_cast<double>(all.size()) / seconds : 0.0;
  result.p99_ms = Percentile(&all, 0.99);
  result.p50_ms = Percentile(&all, 0.50);
  result.batches = stats.batches - warm_stats.batches;
  const uint64_t reqs = stats.requests - warm_stats.requests;
  result.mean_batch = result.batches > 0
                          ? static_cast<double>(reqs) /
                                static_cast<double>(result.batches)
                          : 0.0;
  result.max_batch_seen = stats.max_batch_seen;
  result.rejected = stats.rejected;
  return result;
}

void WriteJson(const std::string& path, const std::vector<RunResult>& rows,
               double microbatch_vs_per_request,
               double under_training_vs_baseline) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"serve\",\n");
  std::fprintf(f, "  \"headlines\": {\n");
  std::fprintf(f, "    \"microbatch_vs_per_request_qps\": %.3f,\n",
               microbatch_vs_per_request);
  std::fprintf(f, "    \"under_training_vs_baseline_qps\": %.3f\n  },\n",
               under_training_vs_baseline);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const RunResult& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"workers\": %lld, \"max_batch\": "
                 "%lld, \"deadline_us\": %lld, \"qps\": %.1f, \"p50_ms\": "
                 "%.3f, \"p99_ms\": %.3f, \"batches\": %llu, \"mean_batch\": "
                 "%.2f, \"max_batch_seen\": %lld, \"rejected\": %llu, "
                 "\"publishes\": %llu, \"ok\": %s}%s\n",
                 r.name.c_str(), static_cast<long long>(r.workers),
                 static_cast<long long>(r.max_batch),
                 static_cast<long long>(r.deadline_us), r.qps, r.p50_ms,
                 r.p99_ms, static_cast<unsigned long long>(r.batches),
                 r.mean_batch, static_cast<long long>(r.max_batch_seen),
                 static_cast<unsigned long long>(r.rejected),
                 static_cast<unsigned long long>(r.publishes),
                 r.ok ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main() {
  const int64_t reqs = EnvInt("CDCL_BENCH_SERVE_REQS", 400);
  const int64_t clients = EnvInt("CDCL_BENCH_SERVE_CLIENTS", 4);
  const int64_t window = EnvInt("CDCL_BENCH_SERVE_WINDOW", 16);
  const std::string out = EnvString("CDCL_BENCH_OUT", "BENCH_serve.json");

  models::ModelConfig config = models::ModelConfig::Small(16, 3);
  config.embed_dim = EnvInt("CDCL_EMBED_DIM", config.embed_dim);
  config.num_layers = EnvInt("CDCL_LAYERS", config.num_layers);
  Rng rng(42);
  auto model = std::make_shared<models::CompactTransformer>(config, &rng);
  model->AddTask(4);
  model->AddTask(4);
  model->SetTraining(false);

  std::printf("bench_serve: %lld clients x %lld reqs, window %lld (d=%lld, "
              "layers=%lld)\n",
              static_cast<long long>(clients), static_cast<long long>(reqs),
              static_cast<long long>(window),
              static_cast<long long>(config.embed_dim),
              static_cast<long long>(config.num_layers));

  serve::InferenceServer::Options per_request;
  per_request.workers = 1;
  per_request.max_batch = 1;
  per_request.deadline_us = 0;

  serve::InferenceServer::Options microbatch;
  microbatch.workers = 1;
  microbatch.max_batch = 32;
  microbatch.deadline_us = 200;

  serve::InferenceServer::Options microbatch_4w = microbatch;
  microbatch_4w.workers = 4;

  std::vector<RunResult> rows;
  rows.push_back(RunConfig("per_request", model, config, per_request, clients,
                           reqs, window));
  rows.push_back(RunConfig("microbatch", model, config, microbatch, clients,
                           reqs, window));
  rows.push_back(RunConfig("microbatch_4w", model, config, microbatch_4w,
                           clients, reqs, window));

  // --- Serve-while-train rows (trainer shape: digits MN->US, 1 channel) ----
  data::TaskStreamOptions stream_opt;
  stream_opt.family = "digits";
  stream_opt.source_domain = "MN";
  stream_opt.target_domain = "US";
  stream_opt.num_tasks = EnvInt("CDCL_BENCH_SERVE_TASKS", 3);
  stream_opt.classes_per_task = 2;
  stream_opt.train_per_class = 12;
  stream_opt.test_per_class = 6;
  stream_opt.seed = 1;
  auto stream = data::CrossDomainTaskStream::Make(stream_opt);

  core::CdclOptions trainer_opt;
  trainer_opt.base.model.image_hw = 16;
  trainer_opt.base.model.channels = 1;
  trainer_opt.base.model.embed_dim = 16;
  trainer_opt.base.model.num_layers = 1;
  trainer_opt.base.epochs = EnvInt("CDCL_BENCH_SERVE_EPOCHS", 3);
  trainer_opt.base.warmup_epochs = 1;
  trainer_opt.base.batch_size = 8;
  trainer_opt.base.memory_size = 40;
  trainer_opt.base.seed = 3;

  if (stream.ok()) {
    core::CdclTrainer trainer(trainer_opt);
    // Task 0 trains up front: both rows serve a snapshot that already has a
    // task head, and the training row advances the remaining tasks live.
    if (trainer.ObserveTask(stream->task(0)).ok()) {
      serve::InferenceServer::Options continual_serve = microbatch;
      // Bound the queue below the in-flight ceiling so admission control
      // engages when the trainer steals cycles from the batcher workers.
      continual_serve.queue_max = std::max<int64_t>(clients * window * 3 / 4, 8);
      rows.push_back(RunUnderTraining(
          "serve_baseline", &trainer, *stream, trainer_opt.base.model,
          continual_serve, clients, reqs, window, /*train=*/false));
      rows.push_back(RunUnderTraining(
          "serve_under_training", &trainer, *stream, trainer_opt.base.model,
          continual_serve, clients, reqs, window, /*train=*/true));
    }
  }

  std::printf("%-20s %8s %10s %10s %10s %10s %9s %9s %6s\n", "config",
              "workers", "qps", "p50_ms", "p99_ms", "mean_bat", "rejected",
              "publishes", "ok");
  for (const RunResult& r : rows) {
    std::printf("%-20s %8lld %10.1f %10.3f %10.3f %10.2f %9llu %9llu %6s\n",
                r.name.c_str(), static_cast<long long>(r.workers), r.qps,
                r.p50_ms, r.p99_ms, r.mean_batch,
                static_cast<unsigned long long>(r.rejected),
                static_cast<unsigned long long>(r.publishes),
                r.ok ? "yes" : "NO");
  }
  const double ratio =
      rows[0].qps > 0.0 ? rows[1].qps / rows[0].qps : 0.0;
  std::printf("headline: microbatch vs per_request QPS x%.2f\n", ratio);
  double under_training_ratio = 0.0;
  if (rows.size() >= 5 && rows[3].qps > 0.0) {
    under_training_ratio = rows[4].qps / rows[3].qps;
    std::printf("headline: serving retains x%.2f QPS under live training "
                "(%llu overload rejections)\n",
                under_training_ratio,
                static_cast<unsigned long long>(rows[4].rejected));
  }
  WriteJson(out, rows, ratio, under_training_ratio);
  return 0;
}
