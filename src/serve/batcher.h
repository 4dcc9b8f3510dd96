#ifndef CDCL_SERVE_BATCHER_H_
#define CDCL_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/protocol.h"

namespace cdcl {
namespace serve {

/// One in-flight request as the batcher sees it: the parsed protocol frame
/// plus the session it came from (so completions can find their way home).
struct InferenceRequest {
  uint64_t session_id = 0;
  Request request;
  std::chrono::steady_clock::time_point enqueue_time;
};

/// Work-conserving micro-batcher: a free worker ships everything queued, up
/// to `max_batch`, the moment it sees it. Requests that arrive while every
/// worker is busy queue up and form the next batch, so batches grow with
/// load on their own and a full backlog ships full batches, while a request
/// reaching an idle server pays no added latency. The batch function runs
/// on the worker thread; with several workers, distinct batches execute
/// concurrently against the shared immutable model snapshot.
///
/// `deadline_us > 0` is an explicit hold, set only programmatically (tests
/// use it to force full batches): a partial batch then waits until it fills
/// or its oldest request has waited `deadline_us`. No measurement favours a
/// hold in production, because each task group of a batch needs its own
/// encode (docs/serve.md), so the default is 0.
///
/// Backpressure: `queue_max > 0` bounds the number of *undispatched*
/// requests. A Submit() that would exceed the bound is rejected (returns
/// false, counted in Stats::rejected) instead of growing the queue without
/// limit — the caller answers the client with kOverloaded and the
/// connection stays usable. Requests a worker has already taken into a
/// batch no longer count against the bound.
class MicroBatcher {
 public:
  struct Options {
    int64_t max_batch = 32;
    int64_t deadline_us = 0;  // explicit hold for a partial batch; 0 = none
    int64_t workers = 1;
    int64_t queue_max = 0;  // <= 0 = unbounded
  };

  struct Stats {
    uint64_t batches = 0;
    uint64_t requests = 0;   // dispatched into batches (Stop() drains, so
                             // after Stop this equals every accepted Submit)
    uint64_t rejected = 0;   // refused by the queue bound
    int64_t max_batch_seen = 0;
  };

  using BatchFn = std::function<void(std::vector<InferenceRequest>)>;

  MicroBatcher(const Options& options, BatchFn batch_fn);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  void Start();
  /// Drains the queue (every submitted request is still dispatched), then
  /// joins the workers. Idempotent.
  void Stop();

  /// Thread-safe; stamps the enqueue time an explicit hold is measured from.
  /// Returns false (and drops the request) when the queue bound is hit.
  bool Submit(InferenceRequest request);

  Stats stats() const;

  /// Requests waiting for a worker right now (a snapshot; it may change as
  /// soon as the call returns).
  size_t queued() const;

 private:
  void WorkerLoop();

  Options options_;
  BatchFn batch_fn_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<InferenceRequest> queue_;  // guarded by mutex_
  bool stopping_ = false;               // guarded by mutex_
  Stats stats_;                         // guarded by mutex_
  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace cdcl

#endif  // CDCL_SERVE_BATCHER_H_
