// Open-loop load generator for the serving workloads. One thread (the
// caller's) drives up to `connections` pipelined, non-blocking connections:
// requests leave on a seeded Poisson schedule whether or not earlier ones were
// answered, so a stalled server builds a queue instead of slowing the
// generator. Latency is timed from when each request was *due*, which charges
// a stall to every request queued behind it; how late the generator itself
// sent (lag) is reported as a validity check on the generator.

#ifndef CDCL_PERFBENCH_LOADGEN_H_
#define CDCL_PERFBENCH_LOADGEN_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "serve/buffer.h"
#include "serve/protocol.h"

namespace perfbench {

/// The traffic mix: a request picks a task uniformly among the tasks the
/// served model knows, TIL or CIL with equal odds, and an image uniformly from
/// that task's target-domain test split (so its ground truth is known).
struct TrafficMix {
  std::vector<const cdcl::data::TensorDataset*> tests;  // per task
  /// Tasks the latest published snapshot knows; raised as training publishes.
  std::atomic<int64_t> available{1};
};

/// One answered request kept for the post-run correctness check.
struct SampledResponse {
  int64_t task = 0;
  bool cil = false;
  const cdcl::data::Example* image = nullptr;
  uint32_t version = 0;
  std::vector<float> logits;
};

/// Counts and latencies of one phase: one rate held for a fixed time, sent
/// in one or more chunks.
struct PhaseStats {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;
  int64_t sent = 0;
  int64_t ok = 0;           // answered kOk
  int64_t ok_in_limit = 0;  // answered kOk within the latency limit
  int64_t overloaded = 0;   // refused with kOverloaded
  int64_t errors = 0;       // any other status, or a transport failure
  int64_t unanswered = 0;   // no reply within the drain timeout
  int64_t correct = 0;      // kOk whose argmax equals the ground truth
  int64_t backlog_at_end = 0;  // most in flight when a chunk's schedule ended
  std::vector<double> latency_ms;  // per sent request, due to answered;
                                   // misses (refused, failed, unanswered) = inf
  std::vector<double> lag_ms;      // per sent request, due to sent
  double min_burst_gflops = 0.0;  // slowest KeepVcpus() burst before a chunk
  std::vector<double> chunk_p50_ms;    // per chunk: median latency
  std::vector<double> chunk_ok_ratio;  // per chunk: ok_in_limit / sent
  double p50_ms = 0.0;  // filled by Finish()
  double p99_ms = 0.0;
  double lag_p99_ms = 0.0;

  void Finish();

  /// kOk-within-limit responses per second of the phase.
  double goodput() const {
    return seconds > 0.0 ? static_cast<double>(ok_in_limit) / seconds : 0.0;
  }
  /// p99 within the limit and no growing backlog: at most one limit's worth
  /// of arrivals still in flight when the schedule ended.
  bool Meets(double limit_ms) const {
    return p99_ms <= limit_ms && errors == 0 && unanswered == 0 &&
           static_cast<double>(backlog_at_end) <=
               std::max(1.0, rate * limit_ms / 1000.0);
  }
};

class LoadGenerator {
 public:
  LoadGenerator(const TrafficMix* mix, int64_t channels, int64_t image_hw,
                double limit_ms);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Opens `connections` connections to 127.0.0.1:`port`.
  bool Connect(uint16_t port, int connections);

  /// Sends a Poisson stream at `stats->rate` req/s for `seconds`, then
  /// waits up to the drain timeout for the stragglers, adding counts and
  /// latencies to `stats`. Every `sample_every`-th answered request is
  /// appended to `samples` (0 = none).
  void Run(double seconds, uint64_t seed, int64_t sample_every,
           std::vector<SampledResponse>* samples, PhaseStats* stats);

 private:
  struct Connection {
    int fd = -1;
    cdcl::serve::Buffer in;
    cdcl::serve::Buffer out;
    cdcl::serve::ResponseParser parser;
  };

  const TrafficMix* mix_;
  int64_t channels_;
  int64_t image_hw_;
  double limit_ms_;
  uint32_t next_id_ = 1;
  std::vector<Connection> connections_;
};

}  // namespace perfbench

#endif  // CDCL_PERFBENCH_LOADGEN_H_
