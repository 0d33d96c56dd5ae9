#include "spans.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::uint32_t SpanRecorder::open(const char* name) {
  const std::uint32_t parent = stack_.empty() ? 0 : stack_.back();
  spans_.push_back({name, parent, op_, Clock::now(), {}});
  const auto id = static_cast<std::uint32_t>(spans_.size());
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(std::uint32_t id) {
  spans_[id - 1].end = Clock::now();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::vector<double> child_us(spans_.size() + 1, 0.0);
  for (const Span& span : spans_) {
    if (span.parent != 0) child_us[span.parent] += us_between(span.start, span.end);
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double total = us_between(span.start, span.end);
    Totals& t = out[span.name];
    t.self_us += total - child_us[i + 1];
    ++t.count;
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    char line[320];
    std::snprintf(line, sizeof line,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %u, \"op\": %llu}}",
                  i == 0 ? "" : ",\n", span.name, us_between(origin_, span.start),
                  us_between(span.start, span.end), i + 1, span.parent,
                  static_cast<unsigned long long>(span.op));
    out << line;
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(out);
}

namespace {

// Every per-layer metric, in table order, with its unit.  BENCHMARK.json's
// per_layer list names the same set.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"server.parse.us_per_request", "us"},
    {"server.decode.us_per_request", "us"},
    {"server.decode.fast_ratio", "ratio"},
    {"pipeline.submit.us_per_request", "us"},
    {"server.wire.us_per_request", "us"},
    {"server.render.us_per_get", "us"},
    {"server.render.bytes_per_get", "bytes"},
    {"pipeline.apply.us_per_report", "us"},
    {"pipeline.apply.new_membership_ratio", "ratio"},
    {"pipeline.evict.us_per_batch", "us"},
    {"pipeline.evict.evicted_per_batch", "count"},
    {"pipeline.regroup.us_per_batch", "us"},
    {"pipeline.regroup.group_count", "count"},
    {"pipeline.view.us_per_batch", "us"},
    {"pipeline.refine.us_per_batch", "us"},
    {"pipeline.live_observations", "count"},
    {"pipeline.queue_wait_ms", "ms"},
    {"core.agts.ms_per_campaign", "ms"},
    {"candidate.setjoin.verified_pairs", "count"},
    {"candidate.setjoin.edge_ratio", "ratio"},
    {"core.agtr.ms_per_campaign", "ms"},
    {"candidate.blocking.candidate_ratio", "ratio"},
    {"candidate.cascade.exact_ratio", "ratio"},
    {"core.group_data.ms_per_campaign", "ms"},
    {"core.framework_init.ms_per_campaign", "ms"},
    {"truth.crh.us_per_iteration", "us"},
    {"truth.crh.iterations", "count"},
};

}  // namespace

void report_layers(const std::string& workload,
                   const std::map<std::string, LayerValue>& values,
                   double e2e_p50_ms, std::uint64_t traced_ops,
                   double overhead_pct, RunResult* result) {
  std::printf("\nper-layer self time, %s (%llu traced operations; untraced "
              "latency_p50_ms %.4f)\n",
              workload.c_str(), static_cast<unsigned long long>(traced_ops),
              e2e_p50_ms);
  std::printf("  %-38s %14s %-6s %10s %7s\n", "metric", "value", "unit",
              "ms/op", "share");
  const auto share = [e2e_p50_ms](double ms) {
    return e2e_p50_ms > 0.0 ? 100.0 * ms / e2e_p50_ms : 0.0;
  };
  double timed = 0.0;
  double derived = 0.0;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    const LayerValue v = it == values.end() ? LayerValue{} : it->second;
    (v.derived ? derived : timed) += v.ms_per_op;
    if (v.ms_per_op != 0.0) {
      std::printf("  %-38s %14.4f %-6s %10.4f %6.1f%%%s\n", name, v.value, unit,
                  v.ms_per_op, share(v.ms_per_op), v.derived ? " derived" : "");
    } else if (it != values.end()) {
      std::printf("  %-38s %14.4f %-6s\n", name, v.value, unit);
    }
    result->add(name, v.value, unit);
  }
  std::printf("  %-38s %14s %-6s %10.4f %6.1f%%\n", "timed layers", "", "",
              timed, share(timed));
  std::printf("  %-38s %14s %-6s %10.4f %6.1f%%\n", "timed + derived", "", "",
              timed + derived, share(timed + derived));
  std::printf("tracing overhead (traced minus untraced operation): %+.2f%%\n",
              overhead_pct);
  result->add("trace.timed_share",
              e2e_p50_ms > 0.0 ? timed / e2e_p50_ms : 0.0, "ratio");
  result->add("trace.overhead_pct", overhead_pct, "%");
}

}  // namespace perfbench
