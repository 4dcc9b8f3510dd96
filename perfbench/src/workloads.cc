#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "ckpt/checkpoint.h"
#include "serve/inference.h"
#include "tensor/kernels/matmul_kernel.h"
#include "tensor/tensor_ops.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace cdcl;  // NOLINT: workload brevity

// --- Fixed parameters (README.md and BENCHMARK.json record them) ------------

// The nominal rate is at most 0.71x the lowest serve_max_qps measured on the
// 4-vCPU development host (7.0k req/s under training) and below 0.5x the
// lowest against a static server (10.7k req/s), so the nominal phase measures
// service time more than queueing. The limit is about twice the worst
// nominal-rate p99 measured there (11.9 ms under training, 12.6 ms static):
// a request misses it only when the tail doubles. README.md lists the
// measurements.
constexpr double kLimitMs = 25.0;        // p99 latency limit per request
constexpr double kNominalRate = 5000.0;  // req/s of the nominal phase
constexpr double kLadderBase = 1000.0;   // rung i runs at base * 2^(i/12)
constexpr int kLadderRungs = 61;         // 1000 .. 32000 req/s
constexpr int kLadderProbes = 8;         // expected probes of the search
constexpr int kSetups = 5;               // set-ups per run; setup_s = median
constexpr double kTilFloorPct = 60.0;    // train_digits quality guard
constexpr double kChunkSeconds = 1.25;   // longest light-load stretch
constexpr double kStreamSeconds = 1.8;   // nominal time of one digits stream
constexpr int64_t kNominalSampleEvery = 16;
constexpr int64_t kLadderSampleEvery = 64;

struct Workload {
  const char* name;
  bool officehome;      // long 3-channel stream instead of digits MN->US
  int64_t setup_tasks;  // tasks trained before the server starts
  bool continual;       // ContinualServer trains while serving
  double train_share;   // share of --seconds spent on timed streams
};

constexpr Workload kWorkloads[] = {
    {"train_digits", false, 2, false, 0.75},
    {"serve_mixed", false, 5, false, 0.0},
    {"serve_under_training", true, 1, true, 0.0},
};

/// Hands memory freed by a finished stream or set-up back to the OS, so
/// rss_peak_mb tracks what the program holds rather than how the allocator
/// happened to keep earlier streams' freed blocks.
void ReleaseFreedMemory() { malloc_trim(0); }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

data::TaskStreamOptions StreamOptions(bool officehome, uint64_t seed) {
  data::TaskStreamOptions o;
  if (officehome) {
    o.family = "officehome";
    o.source_domain = "Ar";
    o.target_domain = "Cl";
    o.num_tasks = 32;
  } else {
    o.family = "digits";
    o.source_domain = "MN";
    o.target_domain = "US";
    o.num_tasks = 5;
  }
  o.classes_per_task = 2;
  // The long stream's tasks carry a third more samples, so its 31 remaining
  // tasks outlast a 20 s traffic window even while serving steals cycles.
  o.train_per_class = officehome ? 32 : 24;
  o.test_per_class = 12;
  o.seed = seed;
  return o;
}

Result<data::CrossDomainTaskStream> BuildStream(bool officehome,
                                                uint64_t seed) {
  Span span("data.stream_build");
  return data::CrossDomainTaskStream::Make(StreamOptions(officehome, seed));
}

/// Timing and alignment diagnostics of one observed task.
struct TaskRecord {
  double observe_s = 0.0;
  double task_s = 0.0;  // ObserveTask + checkpoint commit + evaluation row
  int64_t samples = 0;  // source + target training samples over all epochs
  double pseudo_label_acc = 0.0;
  double pair_yield = 0.0;
};

TaskRecord Diagnostics(const core::CdclTrainer& trainer,
                       const data::CrossDomainTask& task) {
  TaskRecord r;
  const int64_t target = task.target_train.size();
  r.samples = trainer.options().epochs * (task.source_train.size() + target);
  r.pseudo_label_acc = trainer.last_pseudo_label_accuracy();
  r.pair_yield = target > 0 ? static_cast<double>(trainer.last_pair_count()) /
                                  static_cast<double>(target)
                            : 0.0;
  return r;
}

struct StreamOutcome {
  explicit StreamOutcome(int64_t tasks)
      : result{cl::AccuracyMatrix(tasks), cl::AccuracyMatrix(tasks)} {}
  std::vector<TaskRecord> tasks;
  cl::ContinualResult result;
  std::vector<float> loss_trace;
  double ckpt_bytes = 0.0;
};

/// Mean of one accuracy-matrix row (the average accuracy after that task),
/// in percent.
double RowMeanPct(const cl::AccuracyMatrix& m, int64_t row) {
  if (row < 0) return 0.0;
  double sum = 0.0;
  for (int64_t j = 0; j <= row; ++j) sum += m.Get(row, j);
  return 100.0 * sum / static_cast<double>(row + 1);
}

bool SameTrajectory(const StreamOutcome& a, const StreamOutcome& b) {
  const int64_t last = a.result.last_task_observed;
  if (last != b.result.last_task_observed || a.loss_trace != b.loss_trace) {
    return false;
  }
  for (int64_t i = 0; i <= last; ++i) {
    for (int64_t j = 0; j <= i; ++j) {
      if (a.result.til.Get(i, j) != b.result.til.Get(i, j) ||
          a.result.cil.Get(i, j) != b.result.cil.Get(i, j)) {
        return false;
      }
    }
  }
  return true;
}

/// The paper protocol over the first `num_tasks` tasks, as a user runs it:
/// per task ObserveTask, a checkpoint commit, then the lower-triangle TIL/CIL
/// evaluation. `uid` numbers the tasks for the trace.
StreamOutcome RunStream(core::CdclTrainer* trainer,
                        const data::CrossDomainTaskStream& stream,
                        int64_t num_tasks, const std::string& ckpt_dir,
                        int64_t* uid, RunResult* run) {
  StreamOutcome out(stream.num_tasks());
  for (int64_t t = 0; t < num_tasks; ++t) {
    const int64_t id = (*uid)++;
    Span task_span("task", id);
    const Clock::time_point start = Clock::now();
    ++run->attempted;
    Status status;
    {
      Span span("core.observe_task", id);
      status = trainer->ObserveTask(stream.task(t));
    }
    if (!status.ok()) {
      run->Fail("ObserveTask: " + status.ToString());
      return out;
    }
    TaskRecord record = Diagnostics(*trainer, stream.task(t));
    record.observe_s = SecondsSince(start);
    {
      Span span("ckpt.save", id);
      const Result<ckpt::CheckpointInfo> info =
          ckpt::SaveTrainer(ckpt_dir, *trainer, t + 1);
      if (!info.ok()) {
        run->Fail("SaveTrainer: " + info.status().ToString());
      } else {
        out.ckpt_bytes =
            static_cast<double>(std::filesystem::file_size(info->path));
      }
    }
    {
      Span span("cl.eval", id);
      for (int64_t j = 0; j <= t; ++j) {
        const data::TensorDataset& test = stream.task(j).target_test;
        out.result.til.Set(t, j, trainer->EvaluateTil(test, j));
        out.result.cil.Set(t, j, trainer->EvaluateCil(test));
      }
    }
    record.task_s = SecondsSince(start);
    out.tasks.push_back(record);
    out.result.last_task_observed = t;
  }
  out.loss_trace = trainer->loss_trace();
  return out;
}

/// One set-up: stream, trainer, the set-up tasks, a running server and a
/// connected, warmed-up load generator.
struct Served {
  ~Served() {
    if (continual != nullptr) {
      continual->RequestStop();
      continual->Stop();  // joins the training thread before hooks' state dies
    }
  }

  std::unique_ptr<data::CrossDomainTaskStream> stream;
  std::unique_ptr<core::CdclTrainer> trainer;
  std::unique_ptr<StreamOutcome> setup_run;
  VersionRegistry versions;
  std::shared_ptr<const models::CompactTransformer> snapshot;
  TrafficMix mix;

  // serve_under_training: written by the training thread's hooks, read by
  // the main thread only after WaitForTraining() joined it.
  std::atomic<bool> stop{false};
  bool training_started = false;
  std::vector<int64_t> poll_ns, after_ns, publish_ns;
  std::vector<TaskRecord> records;

  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<serve::ContinualServer> continual;
  std::unique_ptr<LoadGenerator> loadgen;

  /// Static workloads serve every model they trained (train_digits: each
  /// timed stream's; serve_mixed: each set-up's) in turn, one per load chunk,
  /// so serve_acc averages over seeds instead of hanging on one.
  std::vector<std::shared_ptr<const models::CompactTransformer>> rotation;
  size_t rotation_next = 0;

  serve::InferenceServer& live_server() {
    return continual != nullptr ? continual->server() : *server;
  }

  void PublishNextInRotation() {
    if (rotation.empty()) return;
    Span span("serve.publish");
    snapshot = rotation[rotation_next++ % rotation.size()];
    versions.Add(server->Publish(snapshot), snapshot);
  }
};

std::unique_ptr<Served> SetUp(const Workload& w, const Options& options,
                              uint64_t seed, int setup_index, int64_t* uid,
                              RunResult* run) {
  auto s = std::make_unique<Served>();
  Result<data::CrossDomainTaskStream> stream = BuildStream(w.officehome, seed);
  if (!stream.ok()) {
    run->Fail("stream: " + stream.status().ToString());
    return nullptr;
  }
  s->stream = std::make_unique<data::CrossDomainTaskStream>(std::move(*stream));
  const int64_t channels = s->stream->spec().channels;
  s->trainer =
      std::make_unique<core::CdclTrainer>(TableOneOptions(channels, seed));
  const std::string tag = std::to_string(setup_index);
  s->setup_run = std::make_unique<StreamOutcome>(
      RunStream(s->trainer.get(), *s->stream, w.setup_tasks,
                options.scratch + "/setup-" + tag, uid, run));
  if (s->setup_run->result.last_task_observed != w.setup_tasks - 1) {
    return nullptr;
  }
  for (int64_t t = 0; t < s->stream->num_tasks(); ++t) {
    s->mix.tests.push_back(&s->stream->task(t).target_test);
  }
  s->mix.available.store(w.setup_tasks);

  uint16_t port = 0;
  if (w.continual) {
    serve::ContinualServer::Options co = serve::ContinualServer::Options::FromEnv();
    co.server.port = 0;
    co.ckpt_dir = options.scratch + "/serve-" + tag;
    s->continual =
        std::make_unique<serve::ContinualServer>(co, s->trainer.get());
    Served* self = s.get();
    s->continual->SetPublishObserver(
        [self](uint32_t version,
               std::shared_ptr<const models::CompactTransformer> snapshot) {
          if (self->training_started) self->publish_ns.push_back(NowNs());
          self->mix.available.store(snapshot->num_tasks(),
                                    std::memory_order_release);
          self->versions.Add(version, snapshot);
          self->snapshot = std::move(snapshot);
        });
    if (!s->continual->Start()) {
      run->Fail("ContinualServer::Start");
      return nullptr;
    }
    port = s->continual->port();
  } else {
    serve::InferenceServer::Options so = serve::InferenceServer::Options::FromEnv();
    so.port = 0;
    s->snapshot = s->trainer->model().CloneSnapshot();
    s->server = std::make_unique<serve::InferenceServer>(so, s->snapshot);
    if (!s->server->Start()) {
      run->Fail("InferenceServer::Start");
      return nullptr;
    }
    s->versions.Add(s->server->published_version(), s->snapshot);
    port = s->server->port();
  }
  const int connections = static_cast<int>(std::clamp<unsigned>(
      std::thread::hardware_concurrency(), 1u, 4u));
  s->loadgen = std::make_unique<LoadGenerator>(
      &s->mix, channels, s->stream->spec().image_hw, kLimitMs);
  if (!s->loadgen->Connect(port, connections)) {
    run->Fail("load generator could not connect");
    return nullptr;
  }
  PhaseStats warm;
  warm.rate = 1000.0;
  s->loadgen->Run(0.2, seed ^ 0x77, 0, nullptr, &warm);
  run->attempted += warm.sent;
  if (warm.errors + warm.unanswered > 0) {
    run->Fail("warm-up requests failed");
    return nullptr;
  }
  return s;
}

void PrintPhase(const PhaseStats& p) {
  std::printf(
      "# phase %-14s rate=%8.1f/s %5.2fs sent=%6lld ok=%6lld in_limit=%6lld "
      "overloaded=%5lld errors=%lld unanswered=%lld p50=%.3fms p99=%.3fms "
      "lag_p99=%.3fms backlog=%lld burst=%.0fGFLOP/s %s\n",
      p.name.c_str(), p.rate, p.seconds, static_cast<long long>(p.sent),
      static_cast<long long>(p.ok), static_cast<long long>(p.ok_in_limit),
      static_cast<long long>(p.overloaded), static_cast<long long>(p.errors),
      static_cast<long long>(p.unanswered), p.p50_ms, p.p99_ms, p.lag_p99_ms,
      static_cast<long long>(p.backlog_at_end), p.min_burst_gflops,
      p.Meets(kLimitMs) ? "meets" : "misses");
}

/// One phase at `rate`, sent in chunks of at most kChunkSeconds with a
/// KeepVcpus() burst before each, so the host never sees the vCPUs idle long
/// enough to take them away (report.h). Under training the bursts take cores
/// from the trainer too; README.md gives their measured cost, which is far
/// below the run-to-run spread they remove. Between chunks (untimed,
/// quiesced) the server may be handed the next snapshot of its rotation.
PhaseStats RunPhase(Served* s, const std::string& name, double rate,
                    double seconds, uint64_t seed, int64_t sample_every,
                    std::vector<SampledResponse>* samples) {
  PhaseStats stats;
  stats.name = name;
  stats.rate = rate;
  const int chunks = static_cast<int>(std::ceil(seconds / kChunkSeconds));
  for (int c = 0; c < chunks; ++c) {
    s->PublishNextInRotation();
    const double gflops = KeepVcpus();
    stats.min_burst_gflops =
        c == 0 ? gflops : std::min(stats.min_burst_gflops, gflops);
    const int64_t sent = stats.sent, ok_in_limit = stats.ok_in_limit;
    const size_t first = stats.latency_ms.size();
    s->loadgen->Run(seconds / chunks, seed * 131 + static_cast<uint64_t>(c),
                    sample_every, samples, &stats);
    stats.chunk_p50_ms.push_back(Percentile(
        std::vector<double>(stats.latency_ms.begin() + first,
                            stats.latency_ms.end()),
        0.5));
    stats.chunk_ok_ratio.push_back(
        static_cast<double>(stats.ok_in_limit - ok_in_limit) /
        static_cast<double>(std::max<int64_t>(1, stats.sent - sent)));
  }
  stats.Finish();
  return stats;
}

/// The nominal-rate phase; in the traced run also the rate ladder. The
/// ladder's rungs are fixed (kLadderBase * 2^(i/12)); a binary search over
/// them finds the highest rung that meets the limit, and serve_max_qps is the
/// goodput measured there. A rung fails only when a second attempt fails too,
/// so one host stall does not send the search down. The ladder runs the
/// server into overload, where this host's run-to-run spread is far wider
/// than any useful bound, so its figure is a per-layer metric (README.md).
struct ServeOutcome {
  PhaseStats nominal;
  double max_qps = 0.0;
  std::vector<PhaseStats> phases;
  double trace_overhead_pct = 0.0;
};

ServeOutcome RunServing(Served* s, double budget, const Options& options,
                        std::vector<SampledResponse>* samples) {
  ServeOutcome out;
  if (!options.trace) {
    out.nominal = RunPhase(s, "nominal", kNominalRate, budget,
                           options.seed * 31 + 1, kNominalSampleEvery, samples);
    out.phases.push_back(out.nominal);
    return out;
  }
  // Traced run: the nominal phase runs half with spans, half without (the
  // p50 difference is the tracing overhead), then the ladder.
  const double nominal_s = 0.5 * budget;
  const PhaseStats traced =
      RunPhase(s, "nominal-traced", kNominalRate, 0.5 * nominal_s,
               options.seed * 31 + 1, kNominalSampleEvery, samples);
  Tracer::Enable(false);
  out.nominal = RunPhase(s, "nominal", kNominalRate, 0.5 * nominal_s,
                         options.seed * 31 + 2, kNominalSampleEvery, samples);
  Tracer::Enable(true);
  out.trace_overhead_pct =
      100.0 * (traced.p50_ms - out.nominal.p50_ms) / out.nominal.p50_ms;
  out.phases.push_back(traced);
  out.phases.push_back(out.nominal);

  const double probe_s = (budget - nominal_s) / kLadderProbes;
  int lo = 0, hi = kLadderRungs - 1;
  double best = -1.0;
  uint64_t probe = 0;
  while (lo <= hi) {
    const int mid = (lo + hi) / 2;
    const double rate = kLadderBase * std::pow(2.0, mid / 12.0);
    bool met = false;
    for (int attempt = 0; attempt < 2 && !met; ++attempt) {
      Span span("loadgen.ladder_probe", mid);
      PhaseStats p = RunPhase(s, "ladder-" + std::to_string(mid), rate, probe_s,
                              options.seed * 31 + 100 + probe++,
                              kLadderSampleEvery, samples);
      met = p.Meets(kLimitMs);
      if (met) best = p.goodput();
      out.phases.push_back(std::move(p));
    }
    if (met) {
      lo = mid + 1;
    } else {
      hi = mid - 1;
    }
  }
  // No rung met the limit: report what the lowest rung still delivered.
  out.max_qps = best >= 0.0 ? best : out.phases.back().goodput();
  return out;
}

/// Re-evaluates sampled responses, quiesced, against the snapshot version
/// stamped on each: the argmax must match (a failed operation otherwise);
/// bitwise disagreement is only counted.
void CheckSamples(const std::vector<SampledResponse>& samples,
                  const VersionRegistry& versions, RunResult* run,
                  int64_t* bitwise_mismatch) {
  for (const SampledResponse& s : samples) {
    ++run->attempted;
    const auto model = versions.Get(s.version);
    if (model == nullptr) {
      run->Fail("response stamped with unknown version " +
                std::to_string(s.version));
      continue;
    }
    kernels::BatchInvariantGemmScope invariant_dispatch;
    const Tensor& src = s.image->image;
    Tensor image = Tensor::Uninitialized(
        Shape{1, src.dim(0), src.dim(1), src.dim(2)});
    std::memcpy(image.data(), src.data(),
                static_cast<size_t>(src.NumElements()) * sizeof(float));
    Tensor z = model->EncodeSelfBatched(image, s.task);
    NoGradGuard no_grad;
    const Tensor logits = s.cil ? model->CilLogits(z) : model->TilLogits(z, s.task);
    const std::vector<float> expect = logits.ToVector();
    if (expect.size() != s.logits.size() ||
        ops::Argmax(logits)[0] !=
            static_cast<int64_t>(std::max_element(s.logits.begin(),
                                                  s.logits.end()) -
                                 s.logits.begin())) {
      run->Fail("served argmax differs from the quiesced eval of version " +
                std::to_string(s.version));
      continue;
    }
    if (std::memcmp(expect.data(), s.logits.data(),
                    expect.size() * sizeof(float)) != 0) {
      ++*bitwise_mismatch;
    }
  }
}

/// Each training figure is taken per stream and the median over the streams
/// is reported, so a host stall during one stream does not move it.
void AddTrainMetrics(const std::vector<std::vector<TaskRecord>>& streams,
                     double til, double cil, RunResult* r) {
  std::vector<double> p50, p90, rate;
  size_t count = 0;
  for (const std::vector<TaskRecord>& tasks : streams) {
    std::vector<double> task_s;
    double observe_s = 0.0;
    int64_t samples = 0;
    for (const TaskRecord& t : tasks) {
      if (t.task_s > 0.0) task_s.push_back(t.task_s);
      observe_s += t.observe_s;
      samples += t.samples;
    }
    count += tasks.size();
    p50.push_back(Percentile(task_s, 0.5));
    p90.push_back(Percentile(task_s, 0.9));
    rate.push_back(observe_s > 0.0 ? static_cast<double>(samples) / observe_s
                                   : 0.0);
  }
  r->Add("train_task_s_p50", Median(p50), "s");
  r->Add("train_task_s_p90", Median(p90), "s");
  r->Add("train_samples_per_s", Median(rate), "1/s");
  r->Add("til_acc", til, "%");
  r->AddLayer("cil_acc", cil, "%");
  std::printf(
      "# train: %zu timed tasks in %zu streams, til_acc=%.2f%% "
      "cil_acc=%.2f%%\n",
      count, streams.size(), til, cil);
}

/// serve_p50_ms and serve_ok_ratio are medians over the nominal phase's
/// load chunks (each at most kChunkSeconds), so a host stall during one chunk
/// does not move them; p99 covers the whole phase.
void AddServeMetrics(const ServeOutcome& serve, RunResult* r) {
  const PhaseStats& n = serve.nominal;
  r->Add("serve_p50_ms", Median(n.chunk_p50_ms), "ms");
  r->AddLayer("serve_p99_ms", n.p99_ms, "ms");
  r->Add("serve_ok_ratio", Median(n.chunk_ok_ratio), "ratio");
  r->AddLayer("serve_acc",
         n.ok > 0 ? static_cast<double>(n.correct) / static_cast<double>(n.ok)
                  : 0.0,
         "ratio");
}

double MedianSpanMs(const char* name) {
  return Median(Tracer::DurationsMs(name));
}

void PrintSelfTimes() {
  std::printf("# self time per layer (traced run):\n");
  for (const auto& [name, t] : Tracer::SelfTimes()) {
    std::printf("#   %-28s self=%10.3fms total=%10.3fms spans=%lld\n",
                name.c_str(), t.self_ms, t.total_ms,
                static_cast<long long>(t.count));
  }
}

}  // namespace

void VersionRegistry::Add(
    uint32_t version, std::shared_ptr<const models::CompactTransformer> model) {
  std::lock_guard<std::mutex> lock(mutex_);
  models_[version] = std::move(model);
}

std::shared_ptr<const models::CompactTransformer> VersionRegistry::Get(
    uint32_t version) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = models_.find(version);
  return it == models_.end() ? nullptr : it->second;
}

bool KnownWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return true;
  }
  return false;
}

core::CdclOptions TableOneOptions(int64_t channels, uint64_t seed) {
  core::CdclOptions o;
  o.base.model.image_hw = 16;
  o.base.model.channels = channels;
  o.base.model.embed_dim = 24;
  o.base.model.num_layers = 2;
  o.base.epochs = 16;
  o.base.warmup_epochs = 5;
  o.base.memory_size = 100;
  o.base.seed = seed;
  return o;
}

RunResult RunWorkload(const Options& options) {
  RunResult result;
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) found = &w;
  }
  const Workload& w = *found;
  int64_t uid = 0;

  // --- Set-up, several times; the last one is kept ------------------------
  // The first set-up also absorbs process start-up (thread-team spawn, arena
  // growth, first snapshot), so the timed part starts in steady state.
  // setup_s is the median of the set-ups; the cold first one is reported on
  // its own as setup.cold_s.
  std::vector<double> setup_s;
  std::vector<std::vector<TaskRecord>> setup_streams;
  std::vector<double> setup_til, setup_cil;
  std::vector<std::shared_ptr<const models::CompactTransformer>> setup_models;
  std::unique_ptr<Served> served;
  for (int r = 0; r < kSetups; ++r) {
    served.reset();
    ReleaseFreedMemory();
    const Clock::time_point start = Clock::now();
    std::unique_ptr<Served> s =
        SetUp(w, options, options.seed * kSetups + r, r, &uid, &result);
    setup_s.push_back(SecondsSince(start));
    if (s == nullptr) return result;
    const StreamOutcome& run = *s->setup_run;
    // Set-up 0 pays the process start-up; its tasks are not steady state.
    if (r > 0) setup_streams.push_back(run.tasks);
    setup_til.push_back(
        RowMeanPct(run.result.til, run.result.last_task_observed));
    setup_cil.push_back(
        RowMeanPct(run.result.cil, run.result.last_task_observed));
    if (!w.continual) setup_models.push_back(s->snapshot);
    served = std::move(s);
  }
  std::printf("# setup: %d set-ups (s):", kSetups);
  for (double t : setup_s) std::printf(" %.3f", t);
  std::printf(", peak rss %.1f MB\n", PeakRssMb());
  Served& s = *served;

  // --- Timed part ----------------------------------------------------------
  std::vector<std::vector<TaskRecord>> streams;  // timed tasks, per stream
  double til = 0.0, cil = 0.0, train_overhead_pct = 0.0;
  double ckpt_bytes = s.setup_run->ckpt_bytes;
  std::unique_ptr<data::CrossDomainTaskStream> last_stream;
  std::unique_ptr<core::CdclTrainer> last_trainer;
  std::vector<SampledResponse> samples;
  ServeOutcome serve;
  bool covered = true;

  if (std::string(w.name) == "train_digits") {
    // A fixed number of streams per --seconds, so every run does the same
    // work whatever the host's speed.
    const double budget = w.train_share * options.seconds;
    const int num_streams =
        std::max(2, static_cast<int>(budget / kStreamSeconds));
    std::vector<double> tils, cils, stream_s;
    std::unique_ptr<StreamOutcome> first;
    for (int i = 0; i < num_streams; ++i) {
      // Stream 1 repeats stream 0's seed: the determinism check, and in the
      // traced run (stream 1 untraced) the tracing overhead.
      const uint64_t stream_seed = options.seed * 1000 + (i == 1 ? 0 : i);
      if (options.trace) Tracer::Enable(i != 1);
      Result<data::CrossDomainTaskStream> stream =
          BuildStream(false, stream_seed);
      if (!stream.ok()) {
        result.Fail("stream: " + stream.status().ToString());
        return result;
      }
      last_stream =
          std::make_unique<data::CrossDomainTaskStream>(std::move(*stream));
      last_trainer = std::make_unique<core::CdclTrainer>(
          TableOneOptions(1, stream_seed));
      ReleaseFreedMemory();
      const std::string dir = options.scratch + "/stream-" + std::to_string(i);
      StreamOutcome outcome =
          RunStream(last_trainer.get(), *last_stream, last_stream->num_tasks(),
                    dir, &uid, &result);
      std::filesystem::remove_all(dir);
      const int64_t last = outcome.result.last_task_observed;
      if (last != last_stream->num_tasks() - 1) return result;
      streams.push_back(outcome.tasks);
      ckpt_bytes = outcome.ckpt_bytes;
      double total = 0.0;
      for (const TaskRecord& t : outcome.tasks) total += t.task_s;
      stream_s.push_back(total);
      if (i == 1) {
        if (!SameTrajectory(*first, outcome)) {
          result.Fail("two streams of one seed gave different accuracy "
                      "matrices or loss traces");
        }
        train_overhead_pct = 100.0 * (stream_s[0] - stream_s[1]) / stream_s[1];
        continue;  // a repeat: not another sample of accuracy
      }
      tils.push_back(RowMeanPct(outcome.result.til, last));
      cils.push_back(RowMeanPct(outcome.result.cil, last));
      s.rotation.push_back(last_trainer->model().CloneSnapshot());
      if (i == 0) first = std::make_unique<StreamOutcome>(std::move(outcome));
    }
    if (options.trace) Tracer::Enable(true);
    til = Mean(tils);
    cil = Mean(cils);
    if (til < kTilFloorPct) {
      result.Fail("til_acc " + std::to_string(til) + "% below the " +
                  std::to_string(kTilFloorPct) + "% floor");
    }
    // Serve the models the streams trained, in turn (Served::rotation).
    s.mix.available.store(last_stream->num_tasks());
    serve = RunServing(&s, options.seconds - budget, options, &samples);
  } else if (!w.continual) {  // serve_mixed: training happened in set-up
    streams = setup_streams;
    til = Mean(setup_til);
    cil = Mean(setup_cil);
    s.rotation = setup_models;
    serve = RunServing(&s, options.seconds, options, &samples);
  } else {  // serve_under_training
    cl::ExperimentOptions experiment;
    experiment.first_task = w.setup_tasks;
    experiment.evaluate = true;
    Served* self = &s;
    experiment.stop_requested = [self] {
      self->poll_ns.push_back(NowNs());
      return self->stop.load(std::memory_order_relaxed);
    };
    experiment.after_task = [self](int64_t t) {
      self->after_ns.push_back(NowNs());
      self->records.push_back(
          Diagnostics(*self->trainer, self->stream->task(t)));
    };
    s.training_started = true;
    s.continual->BeginTraining(*s.stream, experiment);
    serve = RunServing(&s, options.seconds, options, &samples);
    covered = !s.continual->training_done();
    s.stop.store(true);
    const Result<cl::ContinualResult> trained = s.continual->WaitForTraining();
    result.attempted += static_cast<int64_t>(s.records.size());
    if (!trained.ok()) {
      result.Fail("training thread: " + trained.status().ToString());
    } else {
      const int64_t last = trained->last_task_observed;
      til = RowMeanPct(trained->til, last);
      cil = RowMeanPct(trained->cil, last);
    }
    for (size_t k = 0; k < s.records.size(); ++k) {
      s.records[k].observe_s =
          static_cast<double>(s.after_ns[k] - s.poll_ns[k]) / 1e9;
      if (k + 1 < s.poll_ns.size()) {
        s.records[k].task_s =
            static_cast<double>(s.poll_ns[k + 1] - s.poll_ns[k]) / 1e9;
      }
    }
    streams.push_back(s.records);
    if (!covered) {
      result.Fail("training finished before the traffic window closed");
    }
  }

  // --- Checks and end-to-end metrics ---------------------------------------
  std::printf("# timed part done, peak rss %.1f MB\n", PeakRssMb());
  for (const PhaseStats& p : serve.phases) {
    PrintPhase(p);
    result.attempted += p.sent;
    if (p.errors + p.unanswered > 0) {
      result.failed += p.errors + p.unanswered;
      result.correct = false;
      std::printf("# FAILED: phase %s had %lld errors, %lld unanswered\n",
                  p.name.c_str(), static_cast<long long>(p.errors),
                  static_cast<long long>(p.unanswered));
    }
  }
  int64_t bitwise_mismatch = 0;
  CheckSamples(samples, s.versions, &result, &bitwise_mismatch);
  std::printf("# checked %zu sampled responses: %lld bitwise mismatches\n",
              samples.size(), static_cast<long long>(bitwise_mismatch));

  result.Add("setup_s", Median(setup_s), "s");
  AddTrainMetrics(streams, til, cil, &result);
  AddServeMetrics(serve, &result);
  result.Add("rss_peak_mb", PeakRssMb(), "MB");
  if (!options.trace) return result;

  // --- Per-layer metrics (traced run) --------------------------------------
  core::CdclTrainer& trainer = last_trainer ? *last_trainer : *s.trainer;
  ProbeInputs probe;
  probe.trainer = &trainer;
  probe.stream = last_stream ? last_stream.get() : s.stream.get();
  probe.snapshot = s.snapshot;
  probe.scratch = options.scratch;

  std::vector<double> observe_ms, pseudo, yield, publish_ms;
  for (const std::vector<TaskRecord>& tasks : streams) {
    for (const TaskRecord& t : tasks) {
      observe_ms.push_back(t.observe_s * 1e3);
      pseudo.push_back(t.pseudo_label_acc);
      yield.push_back(t.pair_yield);
    }
  }
  result.AddLayer("setup.cold_s", setup_s[0], "s");
  result.AddLayer("core.observe_task_ms", Median(observe_ms), "ms");
  result.AddLayer("cl.memory_records",
                  static_cast<double>(trainer.memory().size()), "count");
  if (!w.continual) {
    result.AddLayer("cl.eval_ms", MedianSpanMs("cl.eval"), "ms");
    result.AddLayer("ckpt.save_ms", MedianSpanMs("ckpt.save"), "ms");
    result.AddLayer("ckpt.bytes", ckpt_bytes, "bytes");
  }
  result.AddLayer("uda.pair_yield", Mean(yield), "ratio");
  result.AddLayer("uda.pseudo_label_acc", Mean(pseudo), "ratio");
  RunProbes(probe, options.seed, w.continual, &result);

  if (w.continual) {
    for (size_t k = 0; k < s.publish_ns.size() && k < s.after_ns.size(); ++k) {
      publish_ms.push_back(
          static_cast<double>(s.publish_ns[k] - s.after_ns[k]) / 1e6);
    }
  } else {
    // Static servers publish once; replay CloneSnapshot + Publish on a
    // private engine for a steadier figure.
    serve::InferenceEngine engine(s.snapshot);
    for (int rep = 0; rep < 11; ++rep) {
      Span span("serve.publish");
      const Clock::time_point t = Clock::now();
      engine.Publish(trainer.model().CloneSnapshot());
      publish_ms.push_back(SecondsSince(t) * 1e3);
    }
  }
  result.AddLayer("serve.publish_ms", Median(publish_ms), "ms");
  const serve::MicroBatcher::Stats batcher = s.live_server().batcher_stats();
  result.AddLayer("serve.batch_mean",
                  batcher.batches > 0 ? static_cast<double>(batcher.requests) /
                                            static_cast<double>(batcher.batches)
                                      : 0.0,
                  "count");
  result.AddLayer(
      "serve.rejected_ratio",
      static_cast<double>(batcher.rejected) /
          static_cast<double>(std::max<uint64_t>(
              1, batcher.requests + batcher.rejected)),
      "ratio");
  result.AddLayer("serve.publishes",
                  static_cast<double>(s.live_server().published_version()),
                  "count");
  result.AddLayer("serve.bitwise_mismatch",
                  static_cast<double>(bitwise_mismatch), "count");
  double lag = 0.0;
  int64_t sent = 0, failed = 0;
  for (const PhaseStats& p : serve.phases) {
    lag = std::max(lag, p.lag_p99_ms);
    sent += p.sent;
    failed += p.errors + p.unanswered;
  }
  result.AddLayer("serve_max_qps", serve.max_qps, "1/s");
  result.AddLayer("loadgen.lag_ms_p99", lag, "ms");
  result.AddLayer("loadgen.sent", static_cast<double>(sent), "count");
  result.AddLayer("loadgen.failed", static_cast<double>(failed), "count");
  result.AddLayer("data.stream_build_ms", MedianSpanMs("data.stream_build"),
                  "ms");
  result.AddLayer("trace.overhead_pct",
                  std::string(w.name) == "train_digits"
                      ? train_overhead_pct
                      : serve.trace_overhead_pct,
                  "%");
  PrintSelfTimes();
  return result;
}

}  // namespace perfbench
