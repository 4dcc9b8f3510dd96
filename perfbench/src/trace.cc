#include "trace.h"

#include <chrono>
#include <cstdio>
#include <mutex>

namespace perfbench {
namespace {

std::mutex g_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_mutex
/// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> t_open;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

int64_t Tracer::Open(const char* name, int64_t id) {
  SpanRecord record;
  record.name = name;
  record.id = id;
  record.parent = t_open.empty() ? -1 : t_open.back();
  record.start_ns = NowNs();
  int64_t index;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    index = static_cast<int64_t>(g_spans.size());
    g_spans.push_back(record);
  }
  t_open.push_back(index);
  return index;
}

void Tracer::Close(int64_t index) {
  const int64_t now = NowNs();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans[static_cast<size_t>(index)].end_ns = now;
}

void Tracer::Record(const char* name, int64_t id, int64_t start_ns,
                    int64_t end_ns) {
  SpanRecord record;
  record.name = name;
  record.id = id;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(record);
}

std::vector<double> Tracer::DurationsMs(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<double> out;
  for (const SpanRecord& s : g_spans) {
    if (s.end_ns > 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() {
  std::lock_guard<std::mutex> lock(g_mutex);
  std::vector<double> child_ms(g_spans.size(), 0.0);
  for (const SpanRecord& s : g_spans) {
    if (s.parent >= 0 && s.end_ns > 0) {
      child_ms[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    if (s.end_ns == 0) continue;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    SelfTime& t = out[s.name];
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
    ++t.count;
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) {
  const std::map<std::string, SelfTime> self = SelfTimes();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"self_ms\": {");
  bool first = true;
  for (const auto& [name, t] : self) {
    std::fprintf(f, "%s\"%s\": {\"self\": %.6f, \"total\": %.6f, \"count\": %lld}",
                 first ? "" : ", ", name.c_str(), t.self_ms, t.total_ms,
                 static_cast<long long>(t.count));
    first = false;
  }
  std::fprintf(f, "},\n\"spans\": [\n");
  std::lock_guard<std::mutex> lock(g_mutex);
  const int64_t origin = g_spans.empty() ? 0 : g_spans.front().start_ns;
  for (size_t i = 0; i < g_spans.size(); ++i) {
    const SpanRecord& s = g_spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, "
                 "\"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 s.name, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - origin) / 1e3,
                 i + 1 < g_spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
