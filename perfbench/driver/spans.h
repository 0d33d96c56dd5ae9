// In-memory spans for the traced run.  The driver opens a span around each
// call into a layer's public function; spans carry their parent's id and
// the operation they belong to, and are written as Chrome trace JSON when
// the run ends.  A layer's self time is its span's duration minus the part
// its child spans cover.  Only the driver's main thread records.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

class SpanRecorder {
 public:
  struct Totals {
    double self_us = 0.0;
    std::uint64_t count = 0;
  };

  SpanRecorder() : origin_(Clock::now()) {}

  // While disabled, Scoped spans record nothing and read no clock.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  void set_op(std::uint64_t op) { op_ = op; }

  std::uint32_t open(const char* name);
  void close(std::uint32_t id);

  // Self time and span count per name.
  std::map<std::string, Totals> totals() const;
  bool write_chrome_trace(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

  class Scoped {
   public:
    Scoped(SpanRecorder& recorder, const char* name)
        : recorder_(recorder.enabled() ? &recorder : nullptr),
          id_(recorder_ != nullptr ? recorder.open(name) : 0) {}
    ~Scoped() {
      if (recorder_ != nullptr) recorder_->close(id_);
    }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    SpanRecorder* recorder_;
    std::uint32_t id_;
  };

 private:
  struct Span {
    const char* name;  // string literal
    std::uint32_t parent;  // 0 = root
    std::uint64_t op;
    Clock::time_point start;
    Clock::time_point end;
  };

  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  bool enabled_ = true;
  std::uint64_t op_ = 0;
  Clock::time_point origin_;
};

// One per-layer metric of a workload: its value and, for a time, what it
// adds to one operation.  `derived` marks a residual computed from the
// untraced latency rather than timed around a call.
struct LayerValue {
  double value = 0.0;
  double ms_per_op = 0.0;
  bool derived = false;
};

// Print the per-layer table and add every per-layer metric to `result`;
// metrics a workload does not exercise report 0.  Adds the closure
// (trace.timed_share: timed self time per operation over the untraced
// latency_p50_ms) and the tracing overhead.
void report_layers(const std::string& workload,
                   const std::map<std::string, LayerValue>& values,
                   double e2e_p50_ms, std::uint64_t traced_ops,
                   double overhead_pct, RunResult* result);

}  // namespace perfbench
