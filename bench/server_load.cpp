// Extension bench: HTTP ingestion throughput over loopback.
//
// Starts a CampaignServer on an ephemeral loopback port inside the bench
// process, then hammers it from N concurrent client connections.  Each
// client keeps one keep-alive connection and POSTs batches of reports to
// /v1/campaigns/{id}/reports, measuring per-request latency from the first
// byte written to the last response byte read.  After the timed window the
// bench drains the server (so every accepted report is aggregated) and
// reports sustained accepted reports/sec plus latency p50/p99.
//
//   server_load [reports_total] [connections] [batch] [--loops N]
//               [--sweep L1,L2,...] [--json]
//
//   --loops N   event-loop threads for the server under test (default 1)
//   --sweep     run the whole load once per listed loop count (same
//               reports/connections/batch) and emit one benchmark entry
//               per configuration — the loops x connections scaling sweep
//               behind docs/PERFORMANCE.md and BENCH_server.json
//   --json      google-benchmark-compatible JSON, one entry per run named
//               http_ingest/loops:L/connections:C/batch:B with
//               reports_per_sec / bytes_per_sec user counters,
//               request_p50_us / request_p99_us (client round-trip; p50_us /
//               p99_us remain as aliases), publish_p50_us / publish_p99_us
//               (end-to-end ingest->publish latency from the per-campaign
//               registry histograms), decode_fast / decode_fallback
//               (which ingest codec served the run) and loop_requests
//               (requests each event loop served) — the shape
//               compare_bench.py understands; committed as
//               BENCH_server.json.
//
// Connections are opened before the timed window and spread evenly over
// the event loops: the kernel hashes each connection to one loop's
// SO_REUSEPORT listener, so a connection that lands on a loop already
// holding its share is set aside and another one is opened.  Without that,
// runs differ in how many loops do any work.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "server/server.h"

using namespace sybiltd;

namespace {

constexpr std::size_t kCampaigns = 4;
constexpr std::size_t kAccounts = 64;
constexpr std::size_t kTasks = 32;

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Read until a full response (headers + Content-Length body) is buffered.
bool read_response(int fd, std::string& buffer) {
  char chunk[8192];
  while (true) {
    const std::size_t header_end = buffer.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      const std::size_t cl = buffer.find("Content-Length: ");
      std::size_t body_len = 0;
      if (cl != std::string::npos && cl < header_end) {
        body_len = std::strtoul(buffer.c_str() + cl + 16, nullptr, 10);
      }
      const std::size_t total = header_end + 4 + body_len;
      if (buffer.size() >= total) {
        buffer.erase(0, total);
        return true;
      }
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

struct ClientResult {
  std::size_t accepted = 0;
  std::size_t requests = 0;
  std::size_t bytes = 0;  // request bytes written (headers + body)
  std::vector<double> latencies_us;
  bool ok = true;
};

std::string make_batch_body(std::size_t client, std::size_t batch_index,
                            std::size_t batch) {
  std::string body = "[";
  for (std::size_t k = 0; k < batch; ++k) {
    const std::size_t seq = batch_index * batch + k;
    const std::size_t account = (client * 13 + seq) % kAccounts;
    const std::size_t task = (account % 4) * (kTasks / 4) + seq % (kTasks / 4);
    if (k > 0) body += ",";
    body += "{\"account\":" + std::to_string(account) +
            ",\"task\":" + std::to_string(task) +
            ",\"value\":" + std::to_string(-70.0 + (seq % 17) * 0.5) + "}";
  }
  body += "]";
  return body;
}

// Every request a client will send, rendered before the timed window opens:
// body generation and header formatting must not pollute the wall-clock
// ingestion measurement (they used to shave a few percent off the
// sustained rate at loops=1).
std::vector<std::string> render_client_requests(std::size_t client,
                                                std::size_t requests,
                                                std::size_t batch) {
  const std::size_t campaign = client % kCampaigns;
  const std::string path =
      "/v1/campaigns/" + std::to_string(campaign) + "/reports";
  std::vector<std::string> out;
  out.reserve(requests);
  for (std::size_t r = 0; r < requests; ++r) {
    const std::string body = make_batch_body(client, r, batch);
    out.push_back("POST " + path +
                  " HTTP/1.1\r\nHost: bench\r\nContent-Type: "
                  "application/json\r\nContent-Length: " +
                  std::to_string(body.size()) + "\r\n\r\n" + body);
  }
  return out;
}

// One value per event loop of a per-loop registry family, by loop label.
template <typename Family>
std::vector<double> per_loop(Family& family, std::size_t loops) {
  std::vector<double> out(loops);
  for (std::size_t i = 0; i < loops; ++i) {
    out[i] = static_cast<double>(family.at(std::to_string(i)).value());
  }
  return out;
}

// Open `connections` keep-alive connections, at most
// ceil(connections / loops) on any one event loop.  A connection's loop is
// the one whose server.loop.connections_active gauge rose across its
// /healthz round trip (the loop has adopted it by the time it answers).
// A connection that landed on a full loop stays open until placement is
// done, so the gauges only ever rise meanwhile, then it is closed.
// Returns an empty vector when kMaxAttempts connections do not reach the
// placement.
std::vector<int> connect_balanced(std::uint16_t port, std::size_t connections,
                                  std::size_t loops) {
  constexpr std::size_t kMaxAttempts = 256;
  obs::GaugeFamily& active =
      obs::MetricsRegistry::global().gauge_family(
          "server.loop.connections_active", "loop");
  const std::size_t share = (connections + loops - 1) / loops;
  std::vector<std::size_t> placed(loops, 0);
  std::vector<int> fds;
  std::vector<int> set_aside;
  std::string buffer;
  const std::string healthz = "GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n";
  for (std::size_t attempt = 0;
       fds.size() < connections && attempt < kMaxAttempts; ++attempt) {
    const std::vector<double> before = per_loop(active, loops);
    const int fd = connect_loopback(port);
    if (fd < 0 || !write_all(fd, healthz) || !read_response(fd, buffer)) {
      if (fd >= 0) ::close(fd);
      break;
    }
    const std::vector<double> after = per_loop(active, loops);
    std::size_t loop = loops;
    for (std::size_t i = 0; i < loops; ++i) {
      if (after[i] > before[i]) loop = i;
    }
    if (loop < loops && placed[loop] < share) {
      ++placed[loop];
      fds.push_back(fd);
    } else {
      set_aside.push_back(fd);
    }
  }
  for (int fd : set_aside) ::close(fd);
  if (fds.size() < connections) {
    std::fprintf(stderr,
                 "server_load: %zu connection attempts placed only %zu of "
                 "%zu connections at most %zu per loop over %zu loops\n",
                 kMaxAttempts, fds.size(), connections, share, loops);
    for (int fd : fds) ::close(fd);
    fds.clear();
  }
  return fds;
}

void run_client(int fd, const std::vector<std::string>* requests,
                std::size_t batch, ClientResult* result) {
  std::string response_buffer;
  result->latencies_us.reserve(requests->size());
  for (const std::string& request : *requests) {
    const auto start = std::chrono::steady_clock::now();
    if (!write_all(fd, request) || !read_response(fd, response_buffer)) {
      result->ok = false;
      break;
    }
    result->latencies_us.push_back(
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count());
    result->accepted += batch;
    result->bytes += request.size();
    ++result->requests;
  }
  ::close(fd);
}

// Bucket counts of every pipeline.ingest_to_publish_us series, merged
// across campaign labels.  The registry accumulates across sweep
// configurations, so callers take a before/after delta per run.
std::map<double, std::uint64_t> publish_latency_buckets() {
  std::map<double, std::uint64_t> merged;
  for (const obs::HistogramValue& h : obs::snapshot().histograms) {
    if (h.name != "pipeline.ingest_to_publish_us") continue;
    for (const obs::HistogramBucket& bucket : h.buckets) {
      merged[bucket.upper_edge] += bucket.count;
    }
  }
  return merged;
}

// Percentile from log2 bucket counts: the upper edge of the bucket the
// quantile lands in (a <=2x over-estimate, same resolution as /metrics).
double bucket_percentile(const std::map<double, std::uint64_t>& buckets,
                         double q) {
  std::uint64_t total = 0;
  for (const auto& [edge, count] : buckets) total += count;
  if (total == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, q * static_cast<double>(total)));
  std::uint64_t cumulative = 0;
  for (const auto& [edge, count] : buckets) {
    cumulative += count;
    if (cumulative >= target) return edge;
  }
  return buckets.rbegin()->first;
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  const std::size_t k = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

struct LoadConfig {
  std::size_t loops = 1;
  std::size_t connections = 4;
  std::size_t total = 200000;
  std::size_t batch = 100;
};

struct LoadResult {
  std::size_t accepted = 0;
  std::size_t requests = 0;
  double ingest_seconds = 0.0;
  double drain_seconds = 0.0;
  double reports_per_sec = 0.0;
  // Request wire bytes (headers + body) per second of the ingest window.
  double bytes_per_sec = 0.0;
  // Client-observed request round-trip latency (first byte written to last
  // response byte read).  Emitted as request_p50_us/request_p99_us so the
  // JSON never conflates them with the publish percentiles below; p50_us /
  // p99_us stay as aliases for older tooling.
  double request_p50_us = 0.0;
  double request_p99_us = 0.0;
  // End-to-end ingest->publish latency from the labeled registry
  // histograms (0 when SYBILTD_LATENCY=off disables stamping).
  double publish_p50_us = 0.0;
  double publish_p99_us = 0.0;
  // server.decode.fast / server.decode.fallback deltas across the run:
  // the canonical load must take the fast path for ~every request.
  std::uint64_t decode_fast = 0;
  std::uint64_t decode_fallback = 0;
  std::uint64_t engine_accepted = 0;
  std::uint64_t engine_applied = 0;
  std::uint64_t engine_batches = 0;
  // server.loop.requests{loop} deltas across the timed window: how the
  // requests spread over the event loops.
  std::vector<double> loop_requests;
  bool ok = true;
};

// One full measurement: fresh server with the given loop count, timed
// ingestion from `connections` keep-alive clients, then drain.  The
// accepted => applied cross-check runs per configuration, so a sweep is as
// strict as a single run.
LoadResult run_load(const LoadConfig& config) {
  const std::size_t per_client =
      (config.total / config.connections) / config.batch;

  server::ServerOptions options;
  options.port = 0;
  options.loops = config.loops;
  options.engine.shard_count = 2;
  options.engine.queue_capacity = 65536;
  options.engine.max_batch = 1024;
  server::CampaignServer server(options);
  for (std::size_t c = 0; c < kCampaigns; ++c) {
    server.engine().add_campaign(kTasks);
  }
  server.start();
  const std::map<double, std::uint64_t> publish_before =
      publish_latency_buckets();
  obs::Counter& decode_fast_counter =
      obs::MetricsRegistry::global().counter("server.decode.fast");
  obs::Counter& decode_fallback_counter =
      obs::MetricsRegistry::global().counter("server.decode.fallback");
  const std::uint64_t decode_fast_before = decode_fast_counter.value();
  const std::uint64_t decode_fallback_before = decode_fallback_counter.value();

  std::vector<std::vector<std::string>> requests(config.connections);
  for (std::size_t c = 0; c < config.connections; ++c) {
    requests[c] = render_client_requests(c, per_client, config.batch);
  }

  LoadResult out;
  const std::vector<int> fds =
      connect_balanced(server.port(), config.connections, server.loop_count());
  if (fds.empty()) {
    server.shutdown();
    out.ok = false;
    return out;
  }
  obs::CounterFamily& loop_requests =
      obs::MetricsRegistry::global().counter_family("server.loop.requests",
                                                    "loop");
  const std::vector<double> requests_before =
      per_loop(loop_requests, server.loop_count());

  std::vector<ClientResult> results(config.connections);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < config.connections; ++c) {
    clients.emplace_back(run_client, fds[c], &requests[c], config.batch,
                         &results[c]);
  }
  for (auto& t : clients) t.join();
  const double ingest_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  server.engine().drain();
  const double total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  out.loop_requests = per_loop(loop_requests, server.loop_count());
  for (std::size_t i = 0; i < requests_before.size(); ++i) {
    out.loop_requests[i] -= requests_before[i];
  }
  out.ingest_seconds = ingest_seconds;
  out.drain_seconds = total_seconds - ingest_seconds;
  std::size_t bytes = 0;
  std::vector<double> latencies;
  for (const ClientResult& r : results) {
    out.accepted += r.accepted;
    out.requests += r.requests;
    bytes += r.bytes;
    out.ok = out.ok && r.ok;
    latencies.insert(latencies.end(), r.latencies_us.begin(),
                     r.latencies_us.end());
  }
  const auto counters = server.engine().counters();
  std::map<double, std::uint64_t> publish_delta = publish_latency_buckets();
  for (const auto& [edge, count] : publish_before) {
    publish_delta[edge] -= count;
  }
  out.decode_fast = decode_fast_counter.value() - decode_fast_before;
  out.decode_fallback =
      decode_fallback_counter.value() - decode_fallback_before;
  server.shutdown();

  out.reports_per_sec =
      ingest_seconds > 0.0 ? static_cast<double>(out.accepted) / ingest_seconds
                           : 0.0;
  out.bytes_per_sec =
      ingest_seconds > 0.0 ? static_cast<double>(bytes) / ingest_seconds : 0.0;
  out.request_p50_us = percentile(latencies, 0.50);
  out.request_p99_us = percentile(latencies, 0.99);
  out.publish_p50_us = bucket_percentile(publish_delta, 0.50);
  out.publish_p99_us = bucket_percentile(publish_delta, 0.99);
  out.engine_accepted = counters.accepted;
  out.engine_applied = counters.applied;
  out.engine_batches = counters.batches;
  // Loss anywhere (socket failure, engine mismatch) is a bench failure:
  // every report this bench accepted over the wire must be applied.
  out.ok = out.ok && counters.applied == out.accepted;
  return out;
}

void print_json_entry(const LoadConfig& config, const LoadResult& result,
                      bool last) {
  std::printf("    {\n");
  std::printf(
      "      \"name\": \"http_ingest/loops:%zu/connections:%zu/batch:%zu\",\n",
      config.loops, config.connections, config.batch);
  std::printf("      \"run_type\": \"iteration\",\n");
  std::printf("      \"iterations\": %zu,\n", result.requests);
  std::printf("      \"real_time\": %.6f,\n", result.ingest_seconds * 1e3);
  std::printf("      \"cpu_time\": %.6f,\n", result.ingest_seconds * 1e3);
  std::printf("      \"time_unit\": \"ms\",\n");
  std::printf("      \"reports_per_sec\": %.1f,\n", result.reports_per_sec);
  std::printf("      \"bytes_per_sec\": %.1f,\n", result.bytes_per_sec);
  std::printf("      \"request_p50_us\": %.1f,\n", result.request_p50_us);
  std::printf("      \"request_p99_us\": %.1f,\n", result.request_p99_us);
  // Aliases kept for older compare_bench baselines; same values as the
  // request_* keys above.
  std::printf("      \"p50_us\": %.1f,\n", result.request_p50_us);
  std::printf("      \"p99_us\": %.1f,\n", result.request_p99_us);
  std::printf("      \"publish_p50_us\": %.1f,\n", result.publish_p50_us);
  std::printf("      \"publish_p99_us\": %.1f,\n", result.publish_p99_us);
  std::printf("      \"decode_fast\": %llu,\n",
              static_cast<unsigned long long>(result.decode_fast));
  std::printf("      \"decode_fallback\": %llu,\n",
              static_cast<unsigned long long>(result.decode_fallback));
  std::printf("      \"loop_requests\": [");
  for (std::size_t i = 0; i < result.loop_requests.size(); ++i) {
    std::printf("%s%.0f", i > 0 ? ", " : "", result.loop_requests[i]);
  }
  std::printf("]\n");
  std::printf("    }%s\n", last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  LoadConfig config;
  bool json = false;
  std::vector<std::size_t> sweep_loops;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--loops" && i + 1 < argc) {
      config.loops = std::stoul(argv[++i]);
    } else if (arg == "--sweep" && i + 1 < argc) {
      std::string list = argv[++i];
      for (std::size_t begin = 0; begin <= list.size();) {
        const std::size_t comma = std::min(list.find(',', begin), list.size());
        if (comma > begin) {
          sweep_loops.push_back(std::stoul(list.substr(begin, comma - begin)));
        }
        begin = comma + 1;
      }
    } else {
      positional.emplace_back(arg);
    }
  }
  if (!positional.empty()) config.total = std::stoul(positional[0]);
  if (positional.size() > 1) config.connections = std::stoul(positional[1]);
  if (positional.size() > 2) config.batch = std::stoul(positional[2]);
  if (sweep_loops.empty()) sweep_loops.push_back(config.loops);

  std::vector<LoadResult> results;
  bool ok = true;
  for (std::size_t index = 0; index < sweep_loops.size(); ++index) {
    config.loops = sweep_loops[index];
    if (!json) {
      if (index == 0) {
        std::printf(
            "=== Extension: HTTP ingestion load over loopback ===\n\n");
      }
      std::printf("--- loops=%zu: %zu connections x %zu reports/batch "
                  "(%zu reports total) ---\n",
                  config.loops, config.connections, config.batch,
                  config.total);
    }
    const LoadResult result = run_load(config);
    ok = ok && result.ok;
    if (!json) {
      std::printf("accepted %zu reports in %zu requests over %.3f s "
                  "(+%.3f s drain)\n",
                  result.accepted, result.requests, result.ingest_seconds,
                  result.drain_seconds);
      std::printf("sustained     %.0f reports/sec (%.1f MB/s on the wire)\n",
                  result.reports_per_sec, result.bytes_per_sec / 1e6);
      std::printf("request       p50 %.0f us, p99 %.0f us (round-trip)\n",
                  result.request_p50_us, result.request_p99_us);
      std::printf("publish       p50 %.0f us, p99 %.0f us (ingest->publish)\n",
                  result.publish_p50_us, result.publish_p99_us);
      std::printf("decode        fast=%llu fallback=%llu\n",
                  static_cast<unsigned long long>(result.decode_fast),
                  static_cast<unsigned long long>(result.decode_fallback));
      std::printf("loop requests");
      for (std::size_t i = 0; i < result.loop_requests.size(); ++i) {
        std::printf(" %zu:%.0f", i, result.loop_requests[i]);
      }
      std::printf("\n");
      std::printf("engine        accepted=%llu applied=%llu batches=%llu\n\n",
                  static_cast<unsigned long long>(result.engine_accepted),
                  static_cast<unsigned long long>(result.engine_applied),
                  static_cast<unsigned long long>(result.engine_batches));
    }
    results.push_back(result);
  }

  if (json) {
    std::printf("{\n");
    std::printf("  \"context\": {\n");
    std::printf("    \"executable\": \"server_load\",\n");
    std::printf("    \"connections\": %zu,\n", config.connections);
    std::printf("    \"batch\": %zu,\n", config.batch);
    std::printf("    \"reports\": %zu\n", config.total);
    std::printf("  },\n");
    std::printf("  \"benchmarks\": [\n");
    for (std::size_t index = 0; index < results.size(); ++index) {
      config.loops = sweep_loops[index];
      print_json_entry(config, results[index],
                       index + 1 == results.size());
    }
    std::printf("  ]\n}\n");
  } else if (results.size() > 1) {
    std::printf("--- scaling (vs loops=%zu) ---\n", sweep_loops[0]);
    for (std::size_t index = 0; index < results.size(); ++index) {
      std::printf("loops=%zu  %.0f reports/sec  (%.2fx)\n", sweep_loops[index],
                  results[index].reports_per_sec,
                  results[0].reports_per_sec > 0.0
                      ? results[index].reports_per_sec /
                            results[0].reports_per_sec
                      : 0.0);
    }
  }

  if (!ok) {
    std::fprintf(stderr, "FAILED: a configuration lost reports or a client "
                         "errored (see above)\n");
    return 1;
  }
  return 0;
}
