// wire_ingest: open-loop HTTP ingestion below saturation.
//
// About 2,000 requests/s of 100 reports (200k reports/s), roughly a third
// of what one event loop sustains closed-loop, sent by one generator thread
// over two keep-alive connections to `--loops 1 --shards 2` with 4
// campaigns x 64 accounts x 32 tasks.  After warm-up every report is an
// upsert of a known (account, task), so the pipeline does almost nothing
// and the server's parse, decode and submit path does the work.  Below
// saturation latency is service time.  Requests are due on a fixed
// schedule, but a connection carries one request at a time: a request due
// while both connections still wait for responses is sent the moment one
// arrives, and that wait counts as generator lateness.  Latency
// runs from the first byte written to the last byte of the response.
// Latency from the due time is printed too, but not reported: on a shared
// 4-vCPU virtual machine the server's event loop loses the CPU for 2-10 ms
// dozens of times a second, every request due during such a stall queues
// behind it, and the due-time p90 then measured the stalls (1.5 to 6.8 ms
// over runs of identical code).  The generator's lateness and the shard
// queues are guarded.
//
// Even per request, the p90 on such a machine is set by how often an idle
// vCPU wakes late (0.37 to 0.89 ms over ten seeds, against a p50 of
// 0.12 ms that moved by 5%), so BENCHMARK.json does not list this workload;
// run it by name for the server layers' per-layer numbers.
#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <numeric>
#include <random>
#include <stdexcept>

#include "common/thread_pool.h"
#include "http_client.h"
#include "pipeline/engine.h"
#include "population.h"
#include "server/http.h"
#include "server/report_decode.h"
#include "server_process.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace pl = sybiltd::pipeline;
namespace srv = sybiltd::server;

constexpr std::size_t kCampaigns = 4;
constexpr std::size_t kAccounts = 64;
constexpr std::size_t kTasks = 32;
constexpr std::size_t kTasksPerAccount = 8;
constexpr std::size_t kBatch = 100;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kShards = 2;
constexpr std::size_t kQueueCapacity = 65536;
constexpr std::size_t kMaxBatch = 256;
constexpr unsigned kPoolThreads = 2;
constexpr std::size_t kRequestPool = 512;  // distinct requests, cycled

// Steady-state guards: past these the generator or the server fell behind
// and the latencies no longer describe service time at the nominal rate.
constexpr double kMinRateShare = 0.95;
constexpr std::uint64_t kMaxQueueHighWatermark = kQueueCapacity / 2;

struct Shape {
  double rate;      // requests per second
  double warmup_s;  // open-loop warm-up before the timed window
};

Shape shape_for(const RunConfig& config) {
  return config.smoke ? Shape{500.0, 0.2} : Shape{2000.0, 1.0};
}

struct WireRequest {
  std::size_t campaign = 0;
  std::string bytes;  // the full HTTP request
};

// Each account reports a fixed set of tasks and requests cycle through every
// (account, task) pair of their campaign, so after the first pass over the
// pairs every report is an upsert.
std::vector<WireRequest> make_requests(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::vector<std::vector<StreamReport>> pairs(kCampaigns);
  std::vector<std::vector<double>> truth(kCampaigns, std::vector<double>(kTasks));
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    for (double& t : truth[c]) t = -60.0 + 5.0 * normal(rng);
    std::vector<std::uint32_t> tasks(kTasks);
    std::iota(tasks.begin(), tasks.end(), 0u);
    for (std::size_t a = 0; a < kAccounts; ++a) {
      std::shuffle(tasks.begin(), tasks.end(), rng);
      for (std::size_t k = 0; k < kTasksPerAccount; ++k) {
        pairs[c].push_back({static_cast<std::uint32_t>(a), tasks[k], 0.0, 0.0});
      }
    }
    std::shuffle(pairs[c].begin(), pairs[c].end(), rng);
  }
  std::vector<WireRequest> out;
  std::vector<std::size_t> cursor(kCampaigns, 0);
  std::vector<StreamReport> batch(kBatch);
  for (std::size_t i = 0; i < kRequestPool; ++i) {
    const std::size_t c = i % kCampaigns;
    for (StreamReport& r : batch) {
      r = pairs[c][cursor[c]++ % pairs[c].size()];
      r.value = truth[c][r.task] + 2.0 * normal(rng);
      r.timestamp_hours = 1e-3 * static_cast<double>(i);
    }
    std::string body;
    append_reports_json(batch.data(), batch.size(), &body);
    out.push_back({c, make_request("POST",
                                   "/v1/campaigns/" + std::to_string(c) +
                                       "/reports",
                                   body)});
  }
  return out;
}

struct OpenLoopResult {
  std::vector<double> latency_ms;   // first byte written -> last byte read
  std::vector<double> due_latency_ms;  // due time -> last response byte
  std::vector<double> lateness_ms;  // due time -> first byte written
  double send_seconds = 0.0;        // first due time -> last request written
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t accepted = 0;       // reports the server said it accepted
  std::vector<std::string> problems;
};

void classify(const HttpResponse& response, OpenLoopResult* out) {
  std::uint64_t accepted = 0;
  json_u64(response.body, "accepted", &accepted);
  out->accepted += accepted;  // a 429 still accepted its clean prefix
  if (response.status != 202 || accepted != kBatch) {
    ++out->failed;
    if (out->problems.size() < 5) {
      out->problems.push_back("HTTP " + std::to_string(response.status) +
                              " accepted " + std::to_string(accepted));
    }
  }
}

// Send request `*next` onward at start + i / rate for `seconds` over the
// connections, at most one request in flight on each, from this one
// thread; then collect the responses still in flight.
OpenLoopResult run_open_loop(std::vector<std::unique_ptr<HttpConnection>>& conns,
                             const std::vector<WireRequest>& requests,
                             std::size_t* next, double rate, double seconds) {
  OpenLoopResult out;
  const auto start = Clock::now();
  const auto total = static_cast<std::size_t>(std::llround(seconds * rate));
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(i) / rate));
  };
  const Clock::time_point give_up = due(total) + std::chrono::seconds(10);
  struct Sent {
    Clock::time_point due;
    Clock::time_point written;
  };
  std::vector<std::deque<Sent>> inflight(conns.size());
  std::vector<pollfd> pfds(conns.size());
  std::size_t sent = 0;
  std::size_t outstanding = 0;
  bool broken = false;
  HttpResponse response;
  out.latency_ms.reserve(total);
  out.due_latency_ms.reserve(total);
  out.lateness_ms.reserve(total);

  while (!broken && (sent < total || outstanding > 0)) {
    auto now = Clock::now();
    while (sent < total && due(sent) <= now) {
      std::size_t c = sent % conns.size();
      for (std::size_t k = 0; k < conns.size() && !inflight[c].empty(); ++k) {
        c = (c + 1) % conns.size();
      }
      if (!inflight[c].empty()) break;
      out.lateness_ms.push_back(ms_between(due(sent), now));
      conns[c]->queue(requests[*next % requests.size()].bytes);
      ++*next;
      inflight[c].push_back({due(sent), now});
      ++sent;
      ++outstanding;
      ++out.attempted;
      if (!conns[c]->flush()) broken = true;
      now = Clock::now();
      if (sent == total) out.send_seconds = seconds_between(start, now);
    }
    if (broken || now >= give_up) break;
    for (std::size_t c = 0; c < conns.size(); ++c) {
      pfds[c] = {conns[c]->fd(),
                 static_cast<short>(POLLIN |
                                    (conns[c]->has_pending_output() ? POLLOUT : 0)),
                 0};
    }
    // Sleep until the next due time or a response (busy-polling here did
    // not steady the server's latency tail, and takes a core from it).
    const Clock::time_point wake = sent < total ? due(sent) : give_up;
    const auto wait = std::max(Clock::duration::zero(), wake - now);
    const auto secs = std::chrono::duration_cast<std::chrono::seconds>(wait);
    timespec ts{static_cast<time_t>(secs.count()), static_cast<long>((wait - secs).count())};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    const auto arrived = Clock::now();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if ((pfds[c].revents & POLLOUT) && !conns[c]->flush()) broken = true;
      if (!(pfds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const bool open = conns[c]->receive();
      while (conns[c]->next_response(&response)) {
        if (inflight[c].empty()) {
          broken = true;  // a response nobody asked for
          break;
        }
        out.latency_ms.push_back(ms_between(inflight[c].front().written, arrived));
        out.due_latency_ms.push_back(ms_between(inflight[c].front().due, arrived));
        inflight[c].pop_front();
        --outstanding;
        classify(response, &out);
      }
      if (!open || conns[c]->malformed()) broken = true;
    }
  }
  if (outstanding > 0) {
    // Timeouts, short reads and dropped connections all fail the requests
    // that were waiting on them.
    out.failed += outstanding;
    out.problems.push_back(std::to_string(outstanding) +
                           " requests without a response");
  }
  return out;
}

std::vector<std::string> server_flags() {
  return {"--loops",     "1",   "--shards",         std::to_string(kShards),
          "--campaigns", "4",   "--tasks",          std::to_string(kTasks),
          "--max-batch", "256", "--queue-capacity", std::to_string(kQueueCapacity)};
}

struct Setup {
  std::vector<WireRequest> requests;
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<HttpConnection>> conns;
  std::size_t next = 0;
  OpenLoopResult warmup;
};

std::unique_ptr<Setup> set_up(const RunConfig& config, int repetition) {
  auto s = std::make_unique<Setup>();
  s->requests = make_requests(config.seed);
  s->server = std::make_unique<ServerProcess>(
      config.server, server_flags(), kPoolThreads, config.work_dir,
      "wire_ingest-" + std::to_string(repetition));
  s->server->start();
  for (std::size_t c = 0; c < kConnections; ++c) {
    auto conn = std::make_unique<HttpConnection>();
    if (!conn->connect(s->server->port())) {
      throw std::runtime_error("cannot connect to the server");
    }
    s->conns.push_back(std::move(conn));
  }
  const Shape shape = shape_for(config);
  s->warmup = run_open_loop(s->conns, s->requests, &s->next, shape.rate,
                            shape.warmup_s);
  return s;
}

void add_failures(const OpenLoopResult& run, const char* phase,
                  RunResult* result) {
  result->attempted += run.attempted;
  result->failed += run.failed;
  for (const std::string& p : run.problems) {
    result->problems.push_back(std::string(phase) + ": " + p);
  }
}

// The same requests, replayed in-process at the same schedule through the
// layers the server's event loop calls: HttpParser, decode_reports and
// CampaignEngine::try_submit_batch on a running engine.  Every second
// request is traced; the others time the same work without spans, which
// gives the tracing overhead.
void replay_traced(const RunConfig& config, const std::vector<WireRequest>& requests,
                   double e2e_p50_ms, RunResult* result) {
  sybiltd::ThreadPool::set_global_concurrency(kPoolThreads);
  pl::EngineOptions options;
  options.shard_count = kShards;
  options.queue_capacity = kQueueCapacity;
  options.max_batch = kMaxBatch;
  pl::CampaignEngine engine(options);
  for (std::size_t c = 0; c < kCampaigns; ++c) engine.add_campaign(kTasks);
  engine.start();

  const Shape shape = shape_for(config);
  std::vector<srv::HttpParser> parsers(kConnections);
  SpanRecorder spans;
  std::size_t next = 0;
  std::uint64_t accepted = 0, fast = 0, decoded_requests = 0;
  std::vector<double> traced_us, untraced_us;

  for (const bool timed : {false, true}) {
    const double seconds = timed ? config.seconds : shape.warmup_s;
    const auto total = static_cast<std::size_t>(std::llround(seconds * shape.rate));
    const auto start = Clock::now();
    for (std::size_t i = 0; i < total; ++i) {
      sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  static_cast<double>(i) / shape.rate)));
      const bool traced = timed && i % 2 == 1;
      spans.set_enabled(traced);
      spans.set_op(i);
      const WireRequest& request = requests[next++ % requests.size()];
      srv::HttpParser& parser = parsers[i % parsers.size()];
      bool ok = false;
      const auto t0 = Clock::now();
      {
        SpanRecorder::Scoped op(spans, "request");
        srv::HttpRequest http;
        srv::HttpParser::Status status;
        {
          SpanRecorder::Scoped s(spans, "server.parse");
          parser.feed(request.bytes);
          status = parser.next(http);
        }
        if (status == srv::HttpParser::Status::kRequest) {
          srv::DecodedReports decoded = [&] {
            SpanRecorder::Scoped s(spans, "server.decode");
            return srv::decode_reports(http.body, request.campaign, kTasks);
          }();
          if (decoded.ok) {
            pl::SubmitBatchResult submit;
            {
              SpanRecorder::Scoped s(spans, "pipeline.submit");
              submit = engine.try_submit_batch(decoded.reports);
            }
            accepted += submit.accepted;
            ok = submit.accepted == decoded.reports.size();
            if (timed) {
              ++decoded_requests;
              fast += decoded.fast_path ? 1 : 0;
            }
          }
        }
      }
      const double us = us_between(t0, Clock::now());
      if (!timed) continue;
      (traced ? traced_us : untraced_us).push_back(us);
      ++result->attempted;
      if (!ok) ++result->failed;
    }
  }
  engine.drain();
  const pl::EngineCounters counters = engine.counters();
  engine.stop();
  ++result->attempted;
  if (counters.applied != accepted) {
    ++result->failed;
    result->problems.push_back("replay: applied " + std::to_string(counters.applied) +
                               " != accepted " + std::to_string(accepted));
  }

  const auto totals = spans.totals();
  const double ops = static_cast<double>(std::max<std::uint64_t>(
      1, totals.count("request") ? totals.at("request").count : 0));
  const auto per_op_us = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_us / ops;
  };
  const double parse_us = per_op_us("server.parse");
  const double decode_us = per_op_us("server.decode");
  const double submit_us = per_op_us("pipeline.submit");
  const double wire_us = 1e3 * e2e_p50_ms - parse_us - decode_us - submit_us;
  std::map<std::string, LayerValue> values;
  values["server.parse.us_per_request"] = {parse_us, parse_us / 1e3};
  values["server.decode.us_per_request"] = {decode_us, decode_us / 1e3};
  values["server.decode.fast_ratio"] = {
      decoded_requests ? static_cast<double>(fast) / static_cast<double>(decoded_requests)
                       : 0.0};
  values["pipeline.submit.us_per_request"] = {submit_us, submit_us / 1e3};
  values["server.wire.us_per_request"] = {wire_us, wire_us / 1e3, true};
  const double overhead =
      100.0 * (mean(traced_us) - mean(untraced_us)) / std::max(1e-9, mean(untraced_us));
  report_layers("wire_ingest", values, e2e_p50_ms,
                static_cast<std::uint64_t>(ops), overhead, result);
  const std::string path = config.work_dir + "/trace-wire_ingest-" +
                           std::to_string(config.seed) + ".json";
  if (spans.write_chrome_trace(path)) {
    std::printf("chrome trace: %s (%zu spans)\n", path.c_str(), spans.size());
  }
}

}  // namespace

void run_wire_ingest(const RunConfig& config, RunResult* result) {
  const Shape shape = shape_for(config);
  const int setups = config.trace ? 1 : kSetupRepetitions;
  EndToEnd e2e;
  std::unique_ptr<Setup> s;
  for (int rep = 0; rep < setups; ++rep) {
    if (s) {
      s->conns.clear();
      s->server->stop();
    }
    const auto t0 = Clock::now();
    s = set_up(config, rep);
    e2e.setup_s.push_back(seconds_between(t0, Clock::now()));
    add_failures(s->warmup, "warm-up", result);
  }

  const pid_t pid = s->server->pid();
  const double cpu0 = process_cpu_seconds(pid);
  const OpenLoopResult timed =
      run_open_loop(s->conns, s->requests, &s->next, shape.rate, config.seconds);
  const double cpu1 = process_cpu_seconds(pid);
  e2e.peak_rss_mb = peak_rss_mb(pid);
  add_failures(timed, "timed", result);
  e2e.latencies_ms = timed.latency_ms;
  e2e.cpu_seconds = cpu1 - cpu0;
  e2e.reports = timed.accepted;

  // Every accepted report must be applied once the engine drains.
  const std::string simd = server_simd_level(s->conns[0].get());
  HttpResponse response;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  std::uint64_t applied = 0;
  std::uint64_t hwm = 0;
  ++result->attempted;
  const bool drained =
      s->conns[0]->roundtrip(make_request("POST", "/v1/campaigns/0/drain"),
                             &response, deadline) &&
      response.status == 200 &&
      s->conns[0]->roundtrip(make_request("GET", "/v1/status"), &response,
                             deadline) &&
      response.status == 200 && json_u64(response.body, "applied", &applied);
  for (std::uint64_t v : json_u64_all(response.body, "queue_high_watermark")) {
    hwm = std::max(hwm, v);
  }
  const std::uint64_t accepted = s->warmup.accepted + timed.accepted;
  if (!drained || applied != accepted) {
    ++result->failed;
    result->problems.push_back("drain: applied " + std::to_string(applied) +
                               " != accepted " + std::to_string(accepted));
  }
  s->conns.clear();
  if (!s->server->stop()) result->problems.push_back("server did not exit cleanly");

  const double lateness_p50 = quantile(timed.lateness_ms, 0.5);
  const double lateness_p90 = quantile(timed.lateness_ms, 0.90);
  const double lateness_p99 = quantile(timed.lateness_ms, 0.99);
  const double lateness_max =
      timed.lateness_ms.empty()
          ? 0.0
          : *std::max_element(timed.lateness_ms.begin(), timed.lateness_ms.end());
  std::printf("generator lateness p50 %.4f ms, p90 %.4f ms, p99 %.4f ms, max "
              "%.3f ms (n=%zu); shard queue high watermark %llu\n",
              lateness_p50, lateness_p90, lateness_p99, lateness_max,
              timed.lateness_ms.size(),
              static_cast<unsigned long long>(hwm));
  std::printf("latency from the due time: p50 %.4f ms, p90 %.4f ms, p99 %.4f ms\n",
              quantile(timed.due_latency_ms, 0.5), quantile(timed.due_latency_ms, 0.9),
              quantile(timed.due_latency_ms, 0.99));
  const double achieved =
      static_cast<double>(timed.attempted) / std::max(1e-9, timed.send_seconds);
  std::printf("offered rate %.1f requests/s (nominal %.0f)\n", achieved, shape.rate);
  if (achieved < kMinRateShare * shape.rate) {
    result->fail_gate("steady-state guard: the generator fell behind, offering " +
                      format_number(achieved) + " requests/s");
  }
  if (hwm > kMaxQueueHighWatermark) {
    result->fail_gate("steady-state guard: shard queue high watermark " +
                      std::to_string(hwm) + " > " +
                      std::to_string(kMaxQueueHighWatermark));
  }

  result->note("simd_level", simd);
  result->note("loops", 1);
  result->note("shards", static_cast<double>(kShards));
  result->note("pool_threads", kPoolThreads);
  result->note("rate_requests_per_s", shape.rate);
  result->note("reports_per_request", static_cast<double>(kBatch));
  result->note("connections", static_cast<double>(kConnections));
  result->note("lateness_p99_ms", lateness_p99);
  result->note("queue_high_watermark", static_cast<double>(hwm));
  result->note("accepted_reports", static_cast<double>(accepted));
  result->note("applied_reports", static_cast<double>(applied));

  if (!config.trace) {
    report_end_to_end(e2e, result);
    return;
  }
  replay_traced(config, s->requests, quantile(e2e.latencies_ms, 0.5), result);
}

}  // namespace perfbench
