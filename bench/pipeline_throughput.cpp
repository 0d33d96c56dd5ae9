// Extension bench: streaming pipeline ingestion throughput.
//
// Measures sustained reports/sec through the concurrent campaign engine
// (bounded MPMC queues -> sharded workers -> incremental AG-TS grouping ->
// group-level CRH refinement -> snapshot publication) for 1, 2, 4 and 8
// producer threads, ending each run with the drain() barrier so every
// accepted report is fully aggregated before the clock stops.  Also
// reports micro-batch and regroup counts so the amortization behaviour is
// visible.
//
//   pipeline_throughput [reports_per_run] [shards] [--metrics <path>]
//
// After the sweep it prints the per-shard queue/work breakdown of the last
// run, and `--metrics <path>` dumps {"engine": <last run's counters>,
// "metrics": <process metrics registry>} — the engine side rendered by the
// same pipeline/status_json code the HTTP server's /v1/status uses, so the
// bench artifact and the wire format cannot drift apart.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "pipeline/engine.h"
#include "pipeline/status_json.h"

using namespace sybiltd;

namespace {

constexpr std::size_t kCampaigns = 4;
constexpr std::size_t kAccounts = 128;
constexpr std::size_t kTasks = 64;

std::vector<pipeline::Report> make_reports(std::size_t total) {
  Rng rng(42);
  std::vector<pipeline::Report> reports;
  reports.reserve(total);
  for (std::size_t k = 0; k < total; ++k) {
    const std::size_t campaign = rng.uniform_index(kCampaigns);
    const std::size_t account = rng.uniform_index(kAccounts);
    // Accounts favor a task block (clone structure for the grouping to
    // find) with occasional out-of-block reports.
    const std::size_t block = (account % 4) * (kTasks / 4);
    const std::size_t task = rng.bernoulli(0.9)
                                 ? block + rng.uniform_index(kTasks / 4)
                                 : rng.uniform_index(kTasks);
    reports.push_back(
        {campaign, account, task, rng.uniform(-90.0, -50.0), 0.0});
  }
  return reports;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  const std::size_t total =
      !positional.empty() ? std::stoul(positional[0]) : std::size_t{200000};
  const std::size_t shards = positional.size() > 1 ? std::stoul(positional[1]) : 2;

  std::printf("=== Extension: streaming pipeline throughput ===\n");
  std::printf("%zu campaigns x %zu accounts x %zu tasks, %zu reports/run, "
              "%zu shard worker(s), %u hardware thread(s)\n\n",
              kCampaigns, kAccounts, kTasks, total, shards,
              std::thread::hardware_concurrency());

  const std::vector<pipeline::Report> reports = make_reports(total);

  TextTable table({"producers", "reports", "seconds", "reports/sec",
                   "micro-batches", "regroups", "snapshots"});
  std::vector<pipeline::ShardStatus> last_shards;
  pipeline::EngineCounters last_counters;
  for (std::size_t producers : {1u, 2u, 4u, 8u}) {
    pipeline::EngineOptions options;
    options.shard_count = shards;
    options.queue_capacity = 8192;
    options.max_batch = 512;
    pipeline::CampaignEngine engine(options);
    for (std::size_t c = 0; c < kCampaigns; ++c) engine.add_campaign(kTasks);
    engine.start();

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (std::size_t k = p; k < reports.size(); k += producers) {
          engine.submit(reports[k]);
        }
      });
    }
    for (auto& t : threads) t.join();
    engine.drain();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    engine.stop();

    const pipeline::EngineCounters counters = engine.counters();
    last_shards = counters.shards;
    last_counters = counters;
    table.add_row({std::to_string(producers), std::to_string(total),
                   format_cell(seconds, 3),
                   std::to_string(static_cast<std::size_t>(total / seconds)),
                   std::to_string(counters.batches),
                   std::to_string(counters.regroups),
                   std::to_string(counters.publications)});
  }
  std::printf("%s", table.render().c_str());

  TextTable shard_table({"shard", "accepted", "rejected", "applied",
                         "batches", "regroups", "queue hwm"});
  for (const pipeline::ShardStatus& s : last_shards) {
    shard_table.add_row(
        {std::to_string(s.shard), std::to_string(s.accepted),
         std::to_string(s.rejected), std::to_string(s.applied),
         std::to_string(s.batches), std::to_string(s.regroups),
         std::to_string(s.queue_high_watermark) + "/" +
             std::to_string(s.queue_capacity)});
  }
  std::printf("\nper-shard breakdown (last run):\n%s",
              shard_table.render().c_str());

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot write metrics to %s\n",
                   metrics_path.c_str());
      return 1;
    }
    out << "{\"engine\": " << pipeline::to_json(last_counters)
        << ", \"metrics\": " << obs::to_json(obs::snapshot()) << "}";
    std::printf("\nmetrics written to %s\n", metrics_path.c_str());
  }
  return 0;
}
