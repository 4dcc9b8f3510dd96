// In-memory span recorder for the traced run. Spans wrap the benchmark's own
// calls into the library's public functions (no span lives inside src/):
// name, start, end, the enclosing span on the same thread (its parent), and
// an id shared by every span of one task or request. With tracing off a Span
// costs one relaxed load.

#ifndef CDCL_PERFBENCH_TRACE_H_
#define CDCL_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  int64_t id = -1;
  int64_t parent = -1;  // index into the span list; -1 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Process-wide span list. Thread-safe.
class Tracer {
 public:
  static void Enable(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  static int64_t Open(const char* name, int64_t id);
  static void Close(int64_t index);
  /// Adds a finished root span, for work that does not nest on one thread
  /// (a pipelined request, timed from due to answered).
  static void Record(const char* name, int64_t id, int64_t start_ns,
                     int64_t end_ns);

  /// Durations in ms of every closed span called `name`.
  static std::vector<double> DurationsMs(const std::string& name);

  /// Per span name: total self time in ms (duration minus the part covered
  /// by child spans) and the number of spans.
  struct SelfTime {
    double self_ms = 0.0;
    double total_ms = 0.0;
    int64_t count = 0;
  };
  static std::map<std::string, SelfTime> SelfTimes();

  /// Writes every span and the self-time table as JSON; false on I/O error.
  static bool WriteJson(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name, int64_t id = -1)
      : index_(Tracer::enabled() ? Tracer::Open(name, id) : -1) {}
  ~Span() {
    if (index_ >= 0) Tracer::Close(index_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_;
};

}  // namespace perfbench

#endif  // CDCL_PERFBENCH_TRACE_H_
