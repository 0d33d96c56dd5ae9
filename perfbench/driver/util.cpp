#include "util.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double process_cpu_seconds(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/stat";
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("cannot read " + path);
  // The command name may contain spaces; fields resume after the last ')'.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) throw std::runtime_error("bad " + path);
  std::istringstream fields(line.substr(close + 2));
  std::string field;
  // Field 3 (state) is the first token; utime and stime are fields 14, 15.
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) stime = std::stoull(field);
  }
  const long ticks = ::sysconf(_SC_CLK_TCK);
  return static_cast<double>(utime + stime) / static_cast<double>(ticks);
}

double self_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in " + path);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

unsigned online_cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

void sleep_until(Clock::time_point when) { std::this_thread::sleep_until(when); }

void RunResult::fail_gate(const std::string& why) {
  correct = false;
  problems.push_back(why);
}

void RunResult::add(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void RunResult::note(const std::string& key, const std::string& value) {
  meta.emplace_back(key, value);
}

void RunResult::note(const std::string& key, double value) {
  meta.emplace_back(key, format_number(value));
}

void report_end_to_end(const EndToEnd& e2e, RunResult* result) {
  const std::size_t n = e2e.latencies_ms.size();
  if (n == 0 || e2e.reports == 0) {
    result->fail_gate("no operation completed in the timed window");
    return;
  }
  const double p50 = quantile(e2e.latencies_ms, 0.50);
  const double p90 = quantile(e2e.latencies_ms, 0.90);
  const std::size_t above_p90 = static_cast<std::size_t>(std::count_if(
      e2e.latencies_ms.begin(), e2e.latencies_ms.end(),
      [p90](double v) { return v > p90; }));
  const double cpu_us = 1e6 * e2e.cpu_seconds / static_cast<double>(e2e.reports);
  const double setup = quantile(e2e.setup_s, 0.5);

  std::printf("latency quantiles  p10 %.4f  p25 %.4f  p75 %.4f  p95 %.4f  "
              "p99 %.4f  max %.4f ms\n",
              quantile(e2e.latencies_ms, 0.10), quantile(e2e.latencies_ms, 0.25),
              quantile(e2e.latencies_ms, 0.75), quantile(e2e.latencies_ms, 0.95),
              quantile(e2e.latencies_ms, 0.99), quantile(e2e.latencies_ms, 1.0));
  std::printf("latency_p50_ms     %10.4f ms   (n=%zu)\n", p50, n);
  std::printf("latency_p90_ms     %10.4f ms   (n=%zu, %zu above)\n", p90, n,
              above_p90);
  std::printf("cpu_us_per_report  %10.4f us   (%.3f s CPU / %llu reports)\n",
              cpu_us, e2e.cpu_seconds,
              static_cast<unsigned long long>(e2e.reports));
  std::printf("peak_rss_mb        %10.2f MB\n", e2e.peak_rss_mb);
  std::printf("setup_s            %10.4f s    (median of", setup);
  for (double s : e2e.setup_s) std::printf(" %.3f", s);
  std::printf(")\n");

  result->add("latency_p50_ms", p50, "ms");
  result->add("latency_p90_ms", p90, "ms");
  result->add("cpu_us_per_report", cpu_us, "us");
  result->add("peak_rss_mb", e2e.peak_rss_mb, "MB");
  result->add("setup_s", setup, "s");
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace perfbench
