// perfbench_driver: runs one workload and prints its result as the last
// line of stdout.  run.py builds this binary and calls it; see
// perfbench/README.md for the workloads and metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --server PATH --work-dir DIR [--commit ID] [--smoke]
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "util.h"
#include "workloads.h"

namespace {

using perfbench::RunConfig;
using perfbench::RunResult;

void usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload wire_ingest|campaign_stream|"
               "batch_discovery --seed N --seconds S --trace 0|1 --server PATH "
               "--work-dir DIR [--commit ID] [--smoke]\n");
}

bool parse_args(int argc, char** argv, RunConfig* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config->smoke = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      config->workload = argv[++i];
    } else if (arg == "--seed") {
      config->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      config->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      config->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--server") {
      config->server = argv[++i];
    } else if (arg == "--work-dir") {
      config->work_dir = argv[++i];
    } else if (arg == "--commit") {
      config->commit = argv[++i];
    } else {
      return false;
    }
  }
  return !config->workload.empty() && config->seconds > 0.0 &&
         !config->work_dir.empty();
}

void print_result(const RunConfig& config, const RunResult& result) {
  std::string meta = "{\"workload\": \"" + perfbench::json_escape(config.workload) +
                     "\", \"seed\": " + std::to_string(config.seed) +
                     ", \"seconds\": " + perfbench::format_number(config.seconds) +
                     ", \"trace\": " + (config.trace ? "1" : "0") +
                     ", \"smoke\": " + (config.smoke ? "true" : "false") +
                     ", \"nproc\": " + std::to_string(perfbench::online_cpus()) +
                     ", \"cpu_model\": \"" +
                     perfbench::json_escape(perfbench::cpu_model()) +
                     "\", \"commit\": \"" + perfbench::json_escape(config.commit) + "\"";
  for (const auto& [key, value] : result.meta) {
    meta += ", \"" + perfbench::json_escape(key) + "\": \"" +
            perfbench::json_escape(value) + "\"";
  }
  meta += "}";
  std::printf("meta %s\n", meta.c_str());
  for (const std::string& problem : result.problems) {
    std::printf("problem: %s\n", problem.c_str());
  }

  // A run that failed a gate or a guard reports no numbers.
  const bool correct = result.correct && result.failed == 0;
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  if (correct) {
    bool first = true;
    for (const auto& metric : result.metrics) {
      line += std::string(first ? "" : ", ") + "\"" +
              perfbench::json_escape(metric.name) + "\": {\"value\": " +
              perfbench::format_number(metric.value) + ", \"unit\": \"" +
              perfbench::json_escape(metric.unit) + "\"}";
      first = false;
    }
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  if (!parse_args(argc, argv, &config)) {
    usage();
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  RunResult result;
  try {
    if (config.workload == "wire_ingest") {
      perfbench::run_wire_ingest(config, &result);
    } else if (config.workload == "campaign_stream") {
      perfbench::run_campaign_stream(config, &result);
    } else if (config.workload == "batch_discovery") {
      perfbench::run_batch_discovery(config, &result);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }
  print_result(config, result);
  return result.correct && result.failed == 0 ? 0 : 1;
}
