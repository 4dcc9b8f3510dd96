#include "loadgen.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <limits>

#include "report.h"
#include "trace.h"
#include "serve/net.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using cdcl::serve::IoStatus;
using cdcl::serve::MessageType;
using cdcl::serve::ParseResult;
using cdcl::serve::ResponseStatus;

constexpr double kDrainSeconds = 5.0;
constexpr double kInf = std::numeric_limits<double>::infinity();

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One scheduled request: its due offset and the draws that pick its
/// task, type and image when it is sent.
struct Arrival {
  int64_t due_ns = 0;
  double task_u = 0.0;
  double image_u = 0.0;
  bool cil = false;
};

std::vector<Arrival> PoissonSchedule(double rate, double seconds,
                                     uint64_t seed) {
  cdcl::Rng rng(seed);
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.due_ns = static_cast<int64_t>(t * 1e9);
    a.task_u = rng.NextDouble();
    a.image_u = rng.NextDouble();
    a.cil = rng.NextBool();
    out.push_back(a);
  }
  return out;
}

/// A request on the wire, remembered until its response arrives.
struct InFlight {
  int64_t due_ns = 0;
  int64_t task = 0;
  bool cil = false;
  bool done = false;
  const cdcl::data::Example* image = nullptr;
};

int64_t Argmax(const std::vector<float>& v) {
  int64_t best = 0;
  for (size_t i = 1; i < v.size(); ++i) {
    if (v[i] > v[static_cast<size_t>(best)]) best = static_cast<int64_t>(i);
  }
  return best;
}

}  // namespace

LoadGenerator::LoadGenerator(const TrafficMix* mix, int64_t channels,
                             int64_t image_hw, double limit_ms)
    : mix_(mix), channels_(channels), image_hw_(image_hw),
      limit_ms_(limit_ms) {}

LoadGenerator::~LoadGenerator() {
  for (Connection& c : connections_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

bool LoadGenerator::Connect(uint16_t port, int connections) {
  cdcl::serve::IgnoreSigpipe();
  connections_.resize(static_cast<size_t>(connections));
  for (Connection& c : connections_) {
    c.fd = cdcl::serve::ConnectLocal(port);
    if (c.fd < 0 || !cdcl::serve::SetNonBlocking(c.fd)) return false;
  }
  return true;
}

void PhaseStats::Finish() {
  p50_ms = Percentile(latency_ms, 0.50);
  p99_ms = Percentile(latency_ms, 0.99);
  lag_p99_ms = Percentile(lag_ms, 0.99);
}

void LoadGenerator::Run(double seconds, uint64_t seed, int64_t sample_every,
                        std::vector<SampledResponse>* samples,
                        PhaseStats* phase) {
  PhaseStats& stats = *phase;
  stats.seconds += seconds;
  const int64_t sent_before = stats.sent;
  const std::vector<Arrival> schedule =
      PoissonSchedule(stats.rate, seconds, seed);
  std::vector<InFlight> flight(schedule.size());
  std::vector<double> latency_ms(schedule.size(), kInf);
  const uint32_t first_id = next_id_;
  next_id_ += static_cast<uint32_t>(schedule.size());

  cdcl::serve::Request request;
  request.channels = channels_;
  request.height = image_hw_;
  request.width = image_hw_;
  cdcl::serve::Response response;
  std::vector<pollfd> fds(connections_.size());

  // Books one response; false for a straggler of an earlier phase.
  auto on_response = [&](const cdcl::serve::Response& r, int64_t now) {
    if (r.request_id < first_id || r.request_id - first_id >= flight.size()) {
      return false;
    }
    const size_t i = r.request_id - first_id;
    InFlight& f = flight[i];
    if (f.done) return false;
    f.done = true;
    if (r.status == ResponseStatus::kOverloaded) {
      ++stats.overloaded;
      return true;
    }
    if (r.status != ResponseStatus::kOk) {
      ++stats.errors;
      return true;
    }
    ++stats.ok;
    latency_ms[i] = static_cast<double>(now - f.due_ns) / 1e6;
    if (Tracer::enabled()) {
      Tracer::Record("loadgen.request", r.request_id, f.due_ns, now);
    }
    if (latency_ms[i] <= limit_ms_) ++stats.ok_in_limit;
    const int64_t truth = f.cil ? f.image->label : f.image->task_label;
    if (Argmax(r.values) == truth) ++stats.correct;
    if (samples != nullptr && sample_every > 0 &&
        static_cast<int64_t>(i) % sample_every == 0) {
      samples->push_back({f.task, f.cil, f.image, r.version, r.values});
    }
    return true;
  };

  const int64_t t0 = NowNs();
  size_t next = 0;
  int64_t answered = 0;
  int64_t drain_deadline = 0;
  bool transport_ok = true;
  while (transport_ok) {
    int64_t now = NowNs();
    while (next < schedule.size() && t0 + schedule[next].due_ns <= now) {
      const Arrival& a = schedule[next];
      const int64_t tasks = std::max<int64_t>(
          1, std::min<int64_t>(mix_->available.load(std::memory_order_acquire),
                               static_cast<int64_t>(mix_->tests.size())));
      InFlight& f = flight[next];
      f.due_ns = t0 + a.due_ns;
      f.task = std::min<int64_t>(tasks - 1,
                                 static_cast<int64_t>(a.task_u * tasks));
      f.cil = a.cil;
      const cdcl::data::TensorDataset& test =
          *mix_->tests[static_cast<size_t>(f.task)];
      f.image = &test.Get(std::min<int64_t>(
          test.size() - 1, static_cast<int64_t>(a.image_u * test.size())));
      request.type =
          a.cil ? MessageType::kClassifyCil : MessageType::kClassifyTil;
      request.request_id = first_id + static_cast<uint32_t>(next);
      request.task = f.task;
      request.pixels.assign(f.image->image.data(),
                            f.image->image.data() +
                                f.image->image.NumElements());
      Connection& c = connections_[next % connections_.size()];
      cdcl::serve::AppendRequest(request, &c.out);
      stats.lag_ms.push_back(static_cast<double>(now - f.due_ns) / 1e6);
      ++next;
      ++stats.sent;
    }
    for (Connection& c : connections_) {
      if (c.out.ReadableBytes() > 0 &&
          cdcl::serve::WriteFromBuffer(c.fd, &c.out) != IoStatus::kOk) {
        transport_ok = false;
      }
    }
    if (next == schedule.size()) {
      if (drain_deadline == 0) {
        stats.backlog_at_end = std::max<int64_t>(
            stats.backlog_at_end, stats.sent - sent_before - answered);
        drain_deadline = now + static_cast<int64_t>(kDrainSeconds * 1e9);
      }
      if (answered == stats.sent - sent_before || now >= drain_deadline) {
        break;
      }
    }
    const int64_t wake =
        next < schedule.size() ? t0 + schedule[next].due_ns : drain_deadline;
    const int64_t wait_ns = std::max<int64_t>(0, wake - now);
    for (size_t k = 0; k < connections_.size(); ++k) {
      fds[k].fd = connections_[k].fd;
      fds[k].events = static_cast<short>(
          POLLIN | (connections_[k].out.ReadableBytes() > 0 ? POLLOUT : 0));
      fds[k].revents = 0;
    }
    timespec ts{wait_ns / 1000000000, wait_ns % 1000000000};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      transport_ok = false;
    }
    now = NowNs();
    for (size_t k = 0; k < connections_.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Connection& c = connections_[k];
      if (cdcl::serve::ReadToBuffer(c.fd, &c.in) != IoStatus::kOk) {
        transport_ok = false;
      }
      for (;;) {
        const ParseResult parsed = c.parser.Next(&c.in, &response);
        if (parsed == ParseResult::kNeedMore) break;
        if (parsed == ParseResult::kError) {
          transport_ok = false;
          break;
        }
        if (on_response(response, now)) ++answered;
      }
    }
  }
  const int64_t missing = stats.sent - sent_before - answered;
  (transport_ok ? stats.unanswered : stats.errors) += missing;
  // Requests never sent (transport failure) are not counted as sent.
  latency_ms.resize(static_cast<size_t>(stats.sent - sent_before));
  stats.latency_ms.insert(stats.latency_ms.end(), latency_ms.begin(),
                          latency_ms.end());
}

}  // namespace perfbench
