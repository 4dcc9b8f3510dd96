#include "serve/batcher.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace cdcl {
namespace serve {

MicroBatcher::MicroBatcher(const Options& options, BatchFn batch_fn)
    : options_(options), batch_fn_(std::move(batch_fn)) {
  CDCL_CHECK(batch_fn_ != nullptr);
  options_.max_batch = std::max<int64_t>(options_.max_batch, 1);
  options_.workers = std::max<int64_t>(options_.workers, 1);
}

MicroBatcher::~MicroBatcher() { Stop(); }

void MicroBatcher::Start() {
  CDCL_CHECK(workers_.empty());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = false;
  }
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int64_t w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void MicroBatcher::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

bool MicroBatcher::Submit(InferenceRequest request) {
  request.enqueue_time = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (options_.queue_max > 0 &&
        static_cast<int64_t>(queue_.size()) >= options_.queue_max) {
      ++stats_.rejected;
      return false;
    }
    queue_.push_back(std::move(request));
  }
  ready_.notify_one();
  return true;
}

MicroBatcher::Stats MicroBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

size_t MicroBatcher::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void MicroBatcher::WorkerLoop() {
  const auto deadline_budget = std::chrono::microseconds(
      options_.deadline_us > 0 ? options_.deadline_us : 0);
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Wait for work and take it at once. Only an explicit hold makes a
    // partial batch wait for more, until the oldest request's deadline
    // expires. All sleeping workers share the same predicate, so exactly the
    // first one to wake past it takes the batch and the rest go back to
    // waiting.
    for (;;) {
      if (stopping_ && queue_.empty()) return;
      if (!queue_.empty()) {
        if (stopping_ || options_.deadline_us <= 0 ||
            static_cast<int64_t>(queue_.size()) >= options_.max_batch) {
          break;
        }
        const auto deadline = queue_.front().enqueue_time + deadline_budget;
        if (std::chrono::steady_clock::now() >= deadline) break;
        ready_.wait_until(lock, deadline);
      } else {
        ready_.wait(lock);
      }
    }

    std::vector<InferenceRequest> batch;
    const size_t take = std::min<size_t>(
        queue_.size(), static_cast<size_t>(options_.max_batch));
    batch.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    stats_.batches += 1;
    stats_.requests += static_cast<uint64_t>(batch.size());
    stats_.max_batch_seen =
        std::max(stats_.max_batch_seen, static_cast<int64_t>(batch.size()));

    lock.unlock();
    batch_fn_(std::move(batch));
    lock.lock();

    // More work may have queued while this batch ran and every other worker
    // may be parked in wait_until: make sure someone picks it up.
    if (!queue_.empty()) ready_.notify_one();
  }
}

}  // namespace serve
}  // namespace cdcl
