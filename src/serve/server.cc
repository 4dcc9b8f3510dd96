#include "serve/server.h"

#include <algorithm>
#include <ctime>
#include <sys/epoll.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "serve/net.h"
#include "tensor/kernels/kernel_context.h"
#include "util/env.h"
#include "util/logging.h"

namespace cdcl {
namespace serve {
namespace {

int64_t MonotonicMs() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1000 + ts.tv_nsec / 1000000;
}

}  // namespace

// ---------------------------------------------------------------------------
// Session: one connected client, owned by the event-loop thread.
// ---------------------------------------------------------------------------

class InferenceServer::Session {
 public:
  Session(InferenceServer* server, uint64_t id, int fd)
      : server_(server), id_(id), fd_(fd),
        parser_(server->options_.max_frame_bytes),
        last_activity_ms_(MonotonicMs()) {}

  ~Session() {
    server_->loop_.Remove(fd_);
    ::close(fd_);
  }

  uint64_t id() const { return id_; }
  int fd() const { return fd_; }

  void Register() {
    loop_events_ = EPOLLIN;
    server_->loop_.Add(fd_, loop_events_, [this](uint32_t events) {
      // Order matters: handle readable before writable so a peer that sent
      // and half-closed still gets its response flushed; handle errors last
      // so EPOLLERR|EPOLLHUP with pending data still drains what it can.
      bool alive = true;
      if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) alive = HandleReadable();
      if (alive && (events & EPOLLOUT)) alive = FlushWrites();
      if (!alive) server_->CloseSession(id_);
    });
  }

  /// Appends one serialized response and flushes as much as the socket
  /// accepts; the remainder waits for EPOLLOUT (partial-write buffering).
  /// Returns false when the connection died or fully drained after EOF.
  bool QueueResponse(const Response& response) {
    AppendResponse(response, &out_);
    return FlushWrites();
  }

  /// Delivery of a batcher completion for this session.
  bool DeliverBatchResponse(const Response& response) {
    --in_flight_;
    return QueueResponse(response);
  }

  /// True when this session has been silent past `timeout_ms` AND has no
  /// in-flight or unflushed work — the reapable "dead client" state. The
  /// work condition keeps a client merely waiting out a slow eval alive.
  bool IdlePast(int64_t now_ms, int64_t timeout_ms) const {
    return now_ms - last_activity_ms_ >= timeout_ms && Drained();
  }

 private:
  bool HandleReadable() {
    last_activity_ms_ = MonotonicMs();
    const IoStatus status = ReadToBuffer(fd_, &in_);
    // Parse every complete frame buffered so far (coalesced reads), keeping
    // partial tails for the next readable event (split reads).
    for (;;) {
      Request request;
      const ParseResult parsed = parser_.Next(&in_, &request);
      if (parsed == ParseResult::kNeedMore) break;
      if (parsed == ParseResult::kError) {
        CDCL_LOG(Warning) << "serve: session " << id_
                          << " protocol error (oversized or malformed frame)";
        return false;
      }
      if (request.type == MessageType::kPing) {
        Response echo;
        echo.request_id = request.request_id;
        echo.type = MessageType::kPing;
        // Pings double as a version probe: the echo carries the currently
        // published snapshot generation, so a client can watch a continual
        // trainer's publishes without spending an eval.
        echo.version = server_->engine_.version();
        echo.ping_payload = std::move(request.ping_payload);
        if (!QueueResponse(echo)) return false;
        continue;
      }
      if (request.type == MessageType::kHealth) {
        // Health probes answer on the loop thread like pings — they must
        // keep working even when the batcher path is wedged or the trainer
        // is dead (that is the state they exist to report).
        Response health;
        health.request_id = request.request_id;
        health.type = MessageType::kHealth;
        health.version = server_->engine_.version();
        health.values = {
            static_cast<float>(static_cast<int>(server_->CurrentHealth()))};
        if (!QueueResponse(health)) return false;
        continue;
      }
      const uint32_t request_id = request.request_id;
      const MessageType type = request.type;
      InferenceRequest inference;
      inference.session_id = id_;
      inference.request = std::move(request);
      if (!server_->batcher_->Submit(std::move(inference))) {
        // Bounded-queue backpressure: answer right away instead of queueing
        // without limit. The connection stays fully usable — the client can
        // retry after draining some of its in-flight window.
        Response overloaded;
        overloaded.request_id = request_id;
        overloaded.status = ResponseStatus::kOverloaded;
        overloaded.type = type;
        overloaded.version = server_->engine_.version();
        if (!QueueResponse(overloaded)) return false;
        continue;
      }
      ++in_flight_;
    }
    if (status == IoStatus::kError) return false;
    if (status == IoStatus::kEof) {
      // Orderly close (or shutdown(SHUT_WR) from a pipelining client): keep
      // the session until every in-flight response has been computed and
      // flushed, then drop it.
      eof_ = true;
      return !Drained();
    }
    return true;
  }

  bool FlushWrites() {
    if (WriteFromBuffer(fd_, &out_) == IoStatus::kError) return false;
    if (eof_ && Drained()) return false;  // nothing more will ever happen
    const uint32_t wanted =
        out_.ReadableBytes() > 0 ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    if (wanted != loop_events_) {
      loop_events_ = wanted;
      server_->loop_.Update(fd_, wanted);
    }
    return true;
  }

  bool Drained() const { return in_flight_ == 0 && out_.ReadableBytes() == 0; }

  InferenceServer* server_;
  uint64_t id_;
  int fd_;
  FrameParser parser_;
  Buffer in_;
  Buffer out_;
  int64_t last_activity_ms_;  // loop thread only; read-side activity
  uint32_t loop_events_ = 0;
  int64_t in_flight_ = 0;  // requests submitted to the batcher, not yet queued
  bool eof_ = false;       // peer closed its write side
};

// ---------------------------------------------------------------------------
// InferenceServer
// ---------------------------------------------------------------------------

InferenceServer::Options InferenceServer::Options::FromEnv() {
  Options options;
  options.port = static_cast<uint16_t>(EnvInt("CDCL_SERVE_PORT", options.port));
  options.workers = EnvInt("CDCL_SERVE_WORKERS", options.workers);
  options.queue_max = EnvInt("CDCL_SERVE_QUEUE_MAX", options.queue_max);
  options.idle_timeout_ms =
      EnvInt("CDCL_SERVE_IDLE_TIMEOUT_MS", options.idle_timeout_ms);
  const int64_t batch = EnvInt("CDCL_EVAL_BATCH", 0);
  if (batch > 0) options.max_batch = batch;
  return options;
}

InferenceServer::InferenceServer(
    const Options& options,
    std::shared_ptr<const models::CompactTransformer> model)
    : options_(options), engine_(std::move(model)) {
  MicroBatcher::Options batcher_options;
  batcher_options.max_batch = options_.max_batch;
  batcher_options.deadline_us = options_.deadline_us;
  batcher_options.workers = options_.workers;
  batcher_options.queue_max = options_.queue_max;
  batcher_ = std::make_unique<MicroBatcher>(
      batcher_options, [this](std::vector<InferenceRequest> batch) {
        std::vector<CompletedResponse> responses =
            engine_.Run(std::move(batch));
        // On an idle server a batch is a burst of kernel regions followed by
        // a gap until the next request. Parking the team then, instead of
        // letting it spin through the gap, leaves the cores to the loop
        // thread and the clients. With a backlog the next batch starts at
        // once, so the team keeps spinning.
        if (batcher_->queued() == 0) kernels::RestWorkers();
        loop_.RunInLoop([this, responses = std::move(responses)]() mutable {
          DeliverResponses(std::move(responses));
        });
      });
}

InferenceServer::~InferenceServer() { Stop(); }

bool InferenceServer::Start() {
  CDCL_CHECK(!running_.load());
  CDCL_CHECK(loop_.ok());
  IgnoreSigpipe();
  listen_fd_ = CreateListenSocket(options_.port);
  if (listen_fd_ < 0) {
    CDCL_LOG(Error) << "serve: cannot bind 127.0.0.1:" << options_.port;
    return false;
  }
  port_ = LocalPort(listen_fd_);
  batcher_->Start();
  running_.store(true);
  loop_thread_ = std::thread([this] {
    loop_.Add(listen_fd_, EPOLLIN, [this](uint32_t) { HandleAccept(); });
    if (options_.idle_timeout_ms > 0) {
      // Lazy sweep at half the timeout: a dead client is reaped at most
      // 1.5x the timeout after its last activity, with zero per-request
      // bookkeeping beyond one timestamp.
      const int64_t sweep_ms = std::max<int64_t>(1, options_.idle_timeout_ms / 2);
      reap_timer_fd_ = loop_.AddPeriodic(sweep_ms, [this] { ReapIdleSessions(); });
    }
    loop_.Run();
    // Loop exited: tear sessions down on their owner thread.
    sessions_.clear();
    loop_.Remove(listen_fd_);
    if (reap_timer_fd_ >= 0) {
      loop_.Remove(reap_timer_fd_);
      ::close(reap_timer_fd_);
      reap_timer_fd_ = -1;
    }
  });
  CDCL_LOG(Info) << "serve: listening on 127.0.0.1:" << port_ << " ("
                 << options_.workers << " workers, max_batch "
                 << options_.max_batch << ", deadline " << options_.deadline_us
                 << "us, queue_max " << options_.queue_max << ")";
  return true;
}

void InferenceServer::Stop() {
  if (!running_.exchange(false)) return;
  // Drain the batcher first so every accepted request still gets a response
  // attempt; its completion tasks land in the loop queue, which Run() drains
  // once more after Quit().
  batcher_->Stop();
  loop_.Quit();
  if (loop_thread_.joinable()) loop_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

uint32_t InferenceServer::Publish(
    std::shared_ptr<const models::CompactTransformer> model) {
  return engine_.Publish(std::move(model));
}

void InferenceServer::HandleAccept() {
  // Accept until the backlog drains: level-triggered epoll would re-arm, but
  // draining here saves a poll round under connection bursts.
  for (;;) {
    const int fd = AcceptConnection(listen_fd_);
    if (fd < 0) return;
    const uint64_t id = next_session_id_++;
    auto session = std::make_unique<Session>(this, id, fd);
    session->Register();
    sessions_.emplace(id, std::move(session));
  }
}

void InferenceServer::CloseSession(uint64_t session_id) {
  sessions_.erase(session_id);  // ~Session deregisters + closes
}

void InferenceServer::DeliverResponses(
    std::vector<CompletedResponse> responses) {
  for (CompletedResponse& done : responses) {
    auto it = sessions_.find(done.session_id);
    if (it == sessions_.end()) continue;  // session died before completion
    if (!it->second->DeliverBatchResponse(done.response)) {
      CloseSession(done.session_id);
    }
  }
}

void InferenceServer::ReapIdleSessions() {
  const int64_t now = MonotonicMs();
  std::vector<uint64_t> idle;
  for (const auto& [id, session] : sessions_) {
    if (session->IdlePast(now, options_.idle_timeout_ms)) idle.push_back(id);
  }
  for (uint64_t id : idle) {
    CDCL_LOG(Info) << "serve: reaping idle session " << id;
    CloseSession(id);
    reaped_sessions_.fetch_add(1, std::memory_order_relaxed);
  }
}

ServerHealth InferenceServer::CurrentHealth() const {
  return health_reporter_ ? health_reporter_() : ServerHealth::kComplete;
}

}  // namespace serve
}  // namespace cdcl
