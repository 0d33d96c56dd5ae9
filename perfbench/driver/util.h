// Shared helpers for the benchmark driver: clocks, order statistics,
// /proc readings, and the result record every workload fills in.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);
double ms_between(Clock::time_point from, Clock::time_point to);
double us_between(Clock::time_point from, Clock::time_point to);

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

// user+sys CPU seconds of every thread `pid` ever ran, from
// /proc/<pid>/stat.  Throws when the file cannot be read.
double process_cpu_seconds(pid_t pid);
// CPU seconds of this process, nanosecond resolution.
double self_cpu_seconds();
// VmHWM of `pid` in MiB, from /proc/<pid>/status.  Throws when missing.
double peak_rss_mb(pid_t pid);

std::string cpu_model();
unsigned online_cpus();

void sleep_until(Clock::time_point when);

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;        // tiny sizes, for the schema/gate smoke test
  std::string server;        // path to the sybiltd_server binary
  std::string work_dir;      // port files, server logs, trace files
  std::string commit;        // source identity, printed with the result
};

// What one run prints: the result line plus everything a reader needs to
// trust or reproduce it.
struct RunResult {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  // False once a correctness gate or a steady-state guard failed; such a
  // run reports no numbers.
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  std::vector<std::pair<std::string, std::string>> meta;

  void fail_gate(const std::string& why);
  void add(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);
};

// The five end-to-end metrics, printed with their sample counts.
struct EndToEnd {
  std::vector<double> latencies_ms;
  double cpu_seconds = 0.0;     // process under test, timed window
  std::uint64_t reports = 0;    // reports completed in the timed window
  double peak_rss_mb = 0.0;
  std::vector<double> setup_s;  // one entry per set-up repetition
};
void report_end_to_end(const EndToEnd& e2e, RunResult* result);

// How often each workload sets itself up; setup_s is the median.
constexpr int kSetupRepetitions = 3;

std::string json_escape(const std::string& text);
std::string format_number(double value);

}  // namespace perfbench
