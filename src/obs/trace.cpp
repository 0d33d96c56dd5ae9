#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "obs/format.h"
#include "obs/metrics.h"

namespace sybiltd::obs {

namespace detail {

std::atomic<bool> g_trace_enabled{false};

namespace {

using Clock = std::chrono::steady_clock;

// One recorded span.  PODs only: names are string literals, so the buffer
// never owns memory beyond its own storage.
struct Event {
  const char* name;
  std::uint64_t start_us;
  std::uint64_t duration_us;
  std::uint32_t tid;
  const char* key1;
  const char* key2;
  double value1;
  double value2;
};

// Bound the buffer so a span-happy run cannot grow without limit; drops are
// counted in the registry (obs.trace.dropped_spans).
constexpr std::size_t kMaxEvents = 1 << 20;

struct TraceState {
  std::mutex mutex;
  std::string path;
  std::vector<Event> events;
  Clock::time_point epoch = Clock::now();
};

// Leaked, like the metrics registry: spans may end during static or
// thread_local destruction.
TraceState& state() {
  static TraceState* trace_state = new TraceState();
  return *trace_state;
}

void flush_at_exit() { flush_trace(); }

// Reads SYBILTD_TRACE exactly once, before main-driven spans start.
const bool g_env_initialized = [] {
  const char* path = std::getenv("SYBILTD_TRACE");
  if (path != nullptr && *path != '\0') enable_trace(path);
  return true;
}();

}  // namespace

std::uint64_t trace_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            state().epoch)
          .count());
}

void trace_span_end(const char* name, std::uint64_t start_us,
                    const char* key1, double value1, const char* key2,
                    double value2) {
  const std::uint64_t end_us = trace_now_us();
  static thread_local const std::uint32_t tid =
      static_cast<std::uint32_t>(thread_slot());
  TraceState& trace_state = state();
  std::lock_guard<std::mutex> lock(trace_state.mutex);
  if (!g_trace_enabled.load(std::memory_order_relaxed)) return;
  if (trace_state.events.size() >= kMaxEvents) {
    MetricsRegistry::global()
        .counter("obs.trace.dropped_spans",
                 "spans discarded after the event buffer filled")
        .inc();
    return;
  }
  trace_state.events.push_back({name, start_us,
                                end_us >= start_us ? end_us - start_us : 0,
                                tid, key1, key2, value1, value2});
}

}  // namespace detail

void enable_trace(const std::string& path) {
  detail::TraceState& trace_state = detail::state();
  {
    std::lock_guard<std::mutex> lock(trace_state.mutex);
    trace_state.path = path;
    trace_state.events.clear();
    trace_state.epoch = detail::Clock::now();
  }
  detail::g_trace_enabled.store(true, std::memory_order_relaxed);
  static const bool registered = [] {
    std::atexit(detail::flush_at_exit);
    return true;
  }();
  (void)registered;
}

void disable_trace() {
  detail::g_trace_enabled.store(false, std::memory_order_relaxed);
}

std::size_t trace_event_count() {
  detail::TraceState& trace_state = detail::state();
  std::lock_guard<std::mutex> lock(trace_state.mutex);
  return trace_state.events.size();
}

namespace {

// One span argument as `"key": value`.
void append_arg(std::string& out, const char* key, double value) {
  out += '"';
  out += key;
  out += "\": ";
  append_json_number(out, value);
}

}  // namespace

bool flush_trace() {
  detail::TraceState& trace_state = detail::state();
  std::lock_guard<std::mutex> lock(trace_state.mutex);
  if (trace_state.path.empty()) return false;
  std::FILE* file = std::fopen(trace_state.path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", file);
  for (std::size_t i = 0; i < trace_state.events.size(); ++i) {
    const detail::Event& e = trace_state.events[i];
    std::fprintf(file,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %llu, \"dur\": %llu",
                 e.name, e.tid,
                 static_cast<unsigned long long>(e.start_us),
                 static_cast<unsigned long long>(e.duration_us));
    if (e.key1 != nullptr) {
      std::string args = ", \"args\": {";
      append_arg(args, e.key1, e.value1);
      if (e.key2 != nullptr) {
        args += ", ";
        append_arg(args, e.key2, e.value2);
      }
      args += '}';
      std::fputs(args.c_str(), file);
    }
    std::fputs(i + 1 < trace_state.events.size() ? "},\n" : "}\n", file);
  }
  std::fputs("]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace sybiltd::obs
