#ifndef CDCL_SERVE_SERVER_H_
#define CDCL_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>

#include "models/compact_transformer.h"
#include "serve/batcher.h"
#include "serve/event_loop.h"
#include "serve/inference.h"
#include "serve/protocol.h"

namespace cdcl {
namespace serve {

/// Coarse serving-plane health, answered wire-side via MessageType::kHealth
/// (values[0] of the response). kDegraded is the graceful-degradation state:
/// the training thread died, but the server keeps answering from the last
/// published snapshot until an operator restarts it from a checkpoint.
enum class ServerHealth : uint8_t {
  kTraining = 0,  // continual training in progress
  kComplete = 1,  // no training running (static model or stream finished)
  kDegraded = 2,  // trainer died; still serving the last good snapshot
};

/// Epoll inference server: one event-loop thread owns the acceptor and all
/// sessions; N micro-batcher workers run fused batched evals against the
/// published model snapshot; completed responses hop back to the loop thread
/// (EventLoop::RunInLoop) to be written, so session state never needs a
/// lock. Pings short-circuit at the session layer (no batcher round-trip).
///
/// Wire protocol, batching policy and knob table are documented in
/// docs/serve.md.
class InferenceServer {
 public:
  struct Options {
    uint16_t port = 7070;       // 0 = ephemeral (tests/bench)
    int64_t workers = 1;        // batcher worker threads
    int64_t max_batch = 32;     // micro-batch ceiling
    /// Explicit hold for a partial micro-batch (MicroBatcher::Options);
    /// 0, the default, dispatches work-conservingly. Programmatic only.
    int64_t deadline_us = 0;
    /// Backpressure bound on undispatched batcher requests: a request that
    /// would exceed it is answered immediately with kOverloaded instead of
    /// growing the queue without limit. <= 0 = unbounded (seed behavior).
    int64_t queue_max = 1024;
    size_t max_frame_bytes = kMaxFrameBytes;
    /// Per-session idle timeout: a connection with no read activity and no
    /// in-flight/unflushed work for this long is reaped by a lazy sweep on
    /// the loop thread, so dead clients stop pinning sessions forever.
    /// <= 0 disables reaping (seed behavior).
    int64_t idle_timeout_ms = 0;

    /// CDCL_SERVE_PORT / CDCL_SERVE_WORKERS / CDCL_SERVE_QUEUE_MAX /
    /// CDCL_SERVE_IDLE_TIMEOUT_MS / CDCL_EVAL_BATCH (>0 overrides
    /// max_batch) on top of the defaults.
    static Options FromEnv();
  };

  InferenceServer(const Options& options,
                  std::shared_ptr<const models::CompactTransformer> model);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Binds, starts the loop thread and the batcher workers. False when the
  /// port cannot be bound.
  bool Start();

  /// Stops accepting, closes sessions, drains the batcher, joins threads.
  /// Idempotent; also called by the destructor.
  void Stop();

  /// Actual bound port (resolves port=0 binds). Valid after Start().
  uint16_t port() const { return port_; }

  /// Publishes a new immutable model snapshot (SetTraining(false) and no
  /// further mutation are the caller's contract;
  /// CompactTransformer::CloneSnapshot() produces one from a live trainer
  /// model). Thread-safe. Returns the snapshot's version — the generation
  /// stamped into every response it computes.
  uint32_t Publish(std::shared_ptr<const models::CompactTransformer> model);

  /// Version of the currently published snapshot.
  uint32_t published_version() const { return engine_.version(); }

  MicroBatcher::Stats batcher_stats() const { return batcher_->stats(); }

  /// Installs the callback answering MessageType::kHealth probes (invoked on
  /// the loop thread). Call before Start(). Unset, probes answer kComplete —
  /// right for a static-model server; ContinualServer wires its own.
  void SetHealthReporter(std::function<ServerHealth()> reporter) {
    health_reporter_ = std::move(reporter);
  }

  /// Sessions closed by the idle sweep since Start() (test observability).
  uint64_t reaped_sessions() const {
    return reaped_sessions_.load(std::memory_order_relaxed);
  }

 private:
  class Session;

  void HandleAccept();
  void CloseSession(uint64_t session_id);
  /// Loop-thread delivery of a finished micro-batch.
  void DeliverResponses(std::vector<CompletedResponse> responses);
  /// Loop-thread periodic sweep closing sessions idle past the timeout.
  void ReapIdleSessions();
  /// Health code stamped into kHealth responses (loop thread).
  ServerHealth CurrentHealth() const;

  Options options_;
  InferenceEngine engine_;
  EventLoop loop_;
  std::unique_ptr<MicroBatcher> batcher_;
  int listen_fd_ = -1;
  int reap_timer_fd_ = -1;  // loop thread only
  uint16_t port_ = 0;
  std::thread loop_thread_;
  std::atomic<bool> running_{false};
  uint64_t next_session_id_ = 1;  // loop thread only
  std::unordered_map<uint64_t, std::unique_ptr<Session>> sessions_;
  std::function<ServerHealth()> health_reporter_;  // set before Start()
  std::atomic<uint64_t> reaped_sessions_{0};
};

}  // namespace serve
}  // namespace cdcl

#endif  // CDCL_SERVE_SERVER_H_
