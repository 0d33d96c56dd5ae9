#include "server/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/status_json.h"
#include "server/handlers.h"

namespace sybiltd::server {

namespace {

// Hard cap on event loops: bounds the fixed wake-fd fan-out that
// request_shutdown() walks from a signal handler.
constexpr std::size_t kMaxLoops = 64;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  SYBILTD_CHECK(flags >= 0, "fcntl(F_GETFL) failed");
  SYBILTD_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "fcntl(F_SETFL, O_NONBLOCK) failed");
}

// Event-loop and ingestion metrics, registered once.
struct ServerMetrics {
  obs::Counter& connections_accepted = obs::MetricsRegistry::global().counter(
      "server.connections.accepted", "TCP connections accepted");
  obs::Counter& connections_refused = obs::MetricsRegistry::global().counter(
      "server.connections.refused", "connections closed for exceeding the cap");
  obs::Gauge& connections_active = obs::MetricsRegistry::global().gauge(
      "server.connections.active", "currently open connections (all loops)");
  obs::Counter& accept_errors = obs::MetricsRegistry::global().counter(
      "server.accept.errors",
      "accept() failures other than would-block (EMFILE sheds included)");
  obs::Counter& requests = obs::MetricsRegistry::global().counter(
      "server.requests", "HTTP requests parsed");
  obs::Counter& responses_2xx = obs::MetricsRegistry::global().counter(
      "server.responses.2xx", "responses with a 2xx status");
  obs::Counter& responses_4xx = obs::MetricsRegistry::global().counter(
      "server.responses.4xx", "responses with a 4xx status");
  obs::Counter& responses_5xx = obs::MetricsRegistry::global().counter(
      "server.responses.5xx", "responses with a 5xx status");
  obs::Histogram& request_us = obs::MetricsRegistry::global().histogram(
      "server.request_us", "request handling latency in microseconds");
  // Per-loop instruments live in labeled families keyed by the loop index,
  // replacing the historical hand-numbered server.loop<N>.* names.
  obs::CounterFamily& loop_requests =
      obs::MetricsRegistry::global().counter_family(
          "server.loop.requests", "loop",
          "HTTP requests parsed, per event loop");
  obs::GaugeFamily& loop_connections =
      obs::MetricsRegistry::global().gauge_family(
          "server.loop.connections_active", "loop",
          "connections currently owned, per event loop");
  obs::Counter& sse_events = obs::MetricsRegistry::global().counter(
      "server.sse.events", "metric-stream events written");
  obs::Counter& sse_slow_disconnects = obs::MetricsRegistry::global().counter(
      "server.sse.slow_disconnects",
      "metric-stream clients dropped for not keeping up");
  obs::Gauge& sse_clients = obs::MetricsRegistry::global().gauge(
      "server.sse.clients_active", "open /v1/metrics/stream connections");

  static ServerMetrics& get() {
    static ServerMetrics metrics;
    return metrics;
  }
};

obs::LogRateLimiter& server_warn_limiter() {
  static obs::LogRateLimiter limiter(10.0, 20.0);
  return limiter;
}

// Percentile estimate from a snapshot histogram: walk the cumulative bucket
// counts to the quantile and report that bucket's upper edge.  Log2 buckets
// make this a ≤2x over-estimate — plenty for a live dashboard feed.
double histogram_percentile(const obs::HistogramValue& h, double q) {
  if (h.count == 0) return 0.0;
  const std::uint64_t target = static_cast<std::uint64_t>(
      std::max(1.0, q * static_cast<double>(h.count)));
  std::uint64_t cumulative = 0;
  for (const obs::HistogramBucket& bucket : h.buckets) {
    cumulative += bucket.count;
    if (cumulative >= target) return bucket.upper_edge;
  }
  return h.buckets.empty() ? 0.0 : h.buckets.back().upper_edge;
}

void append_json_number(std::string& out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  out += buffer;
}

std::size_t resolve_loop_count(const ServerOptions& options) {
#ifndef SO_REUSEPORT
  // Each loop accepts on its own listener, and listeners can share a port
  // only through SO_REUSEPORT.
  (void)options;
  return 1;
#endif
  std::size_t loops = options.loops;
  if (loops == 0) {
    if (const char* env = std::getenv("SYBILTD_SERVER_LOOPS")) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0' && parsed > 0) {
        loops = static_cast<std::size_t>(parsed);
      }
    }
  }
  if (loops == 0) loops = 1;
  return loops > kMaxLoops ? kMaxLoops : loops;
}

}  // namespace

struct CampaignServer::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)), engine(options.engine) {}

  // A drain barrier the owning loop requested and polls until every shard
  // has finalized it.  The connection reads no further requests until the
  // drain is answered.
  struct PendingDrain {
    pipeline::DrainTicket ticket;
    std::size_t campaign = 0;
    bool keep_alive = true;
    std::uint64_t request_id = 0;
    std::string target;  // for the slow-request log
    std::chrono::steady_clock::time_point start;
  };

  // One multiplexed connection, owned by exactly one loop for its whole
  // lifetime: every member is touched only by that loop's thread.
  struct Connection {
    int fd = -1;
    HttpParser parser;
    std::string out;             // bytes not yet written to the socket
    std::size_t out_offset = 0;  // prefix of `out` already written
    // Close once `out` is flushed and no drain is parked: set by a
    // non-keep-alive response, a parse error, or the peer's EOF.
    bool close_after_flush = false;
    std::optional<PendingDrain> drain;

    // Metric-stream state (GET /v1/metrics/stream).  Once `sse` flips the
    // connection stops parsing requests and instead receives one event per
    // interval from its owning loop's tick until it disconnects.
    bool sse = false;
    std::chrono::steady_clock::time_point sse_next{};
    std::chrono::milliseconds sse_interval{1000};
    std::uint64_t sse_seq = 0;
    // Last streamed snapshot version per campaign, for delta events.
    std::unordered_map<std::size_t, std::uint64_t> sse_versions;

    explicit Connection(const HttpLimits& limits) : parser(limits) {}

    bool flushed() const { return out_offset >= out.size(); }
    bool finished() const { return close_after_flush && !drain && flushed(); }
  };

  // One event loop: its own listener and a poll() set over the connections
  // it accepted.  Nothing here is touched by another thread except
  // wake_write, which request_shutdown() writes to.
  struct Loop {
    std::size_t index = 0;
    int listen_fd = -1;
    int wake_read = -1;
    int wake_write = -1;  // async-signal-safe shutdown doorbell
    int reserve_fd = -1;  // spare descriptor for EMFILE shedding
    std::thread thread;
    std::unordered_map<int, Connection> connections;

    // Index-labeled series (server.loop.*{loop=<index>}) so repeated
    // server constructions reuse the same entries, mirroring the per-shard
    // gauge labeling in src/pipeline.
    obs::Counter* requests_counter = nullptr;
    obs::Gauge* connections_gauge = nullptr;
    std::size_t sse_connections = 0;  // loop-owned /v1/metrics/stream conns
    std::size_t pending_drains = 0;   // connections parked on a drain
  };

  ServerOptions options;
  pipeline::CampaignEngine engine;

  std::size_t loop_count = 1;
  std::vector<std::unique_ptr<Loop>> loops;  // immutable once start() returns
  std::uint16_t bound_port = 0;
  std::atomic<std::size_t> active_connections{0};

  std::atomic<bool> started{false};
  std::atomic<bool> stopped{false};
  std::atomic<bool> shutdown_requested{false};
  std::atomic<bool> ready{true};
  std::atomic<std::uint64_t> next_request_id{1};

  // --- Socket setup ---------------------------------------------------------

  int open_listener(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    SYBILTD_CHECK(fd >= 0, "socket() failed");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
#ifdef SO_REUSEPORT
    // Several loops: every listener carries SO_REUSEPORT before bind, so
    // the kernel balances accepts across them.  One loop keeps a plain
    // listener.
    if (loop_count > 1) {
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));
    }
#endif
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    SYBILTD_CHECK(
        ::inet_pton(AF_INET, options.bind_address.c_str(), &addr.sin_addr) ==
            1,
        "bind address is not a valid IPv4 address");
    SYBILTD_CHECK(
        ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
        "bind() failed (port in use?)");
    SYBILTD_CHECK(::listen(fd, options.backlog) == 0, "listen() failed");
    set_nonblocking(fd);
    return fd;
  }

  std::uint16_t local_port(int fd) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    SYBILTD_CHECK(
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
        "getsockname() failed");
    return ntohs(bound.sin_port);
  }

  void open_sockets() {
    loop_count = resolve_loop_count(options);
    loops.reserve(loop_count);
    auto& metrics = ServerMetrics::get();
    for (std::size_t i = 0; i < loop_count; ++i) {
      auto loop = std::make_unique<Loop>();
      loop->index = i;
      int fds[2];
      SYBILTD_CHECK(::pipe(fds) == 0, "pipe() failed");
      loop->wake_read = fds[0];
      loop->wake_write = fds[1];
      set_nonblocking(loop->wake_read);
      set_nonblocking(loop->wake_write);
      loop->reserve_fd = ::open("/dev/null", O_RDONLY);
      const std::string label = std::to_string(i);
      loop->requests_counter = &metrics.loop_requests.at(label);
      loop->connections_gauge = &metrics.loop_connections.at(label);
      loops.push_back(std::move(loop));
    }
    // The first bind resolves an ephemeral port for the rest to join.
    loops[0]->listen_fd = open_listener(options.port);
    bound_port = local_port(loops[0]->listen_fd);
    for (std::size_t i = 1; i < loop_count; ++i) {
      loops[i]->listen_fd = open_listener(bound_port);
    }
  }

  void close_sockets() {
    for (auto& loop : loops) {
      if (loop->listen_fd >= 0) ::close(loop->listen_fd);
      if (loop->wake_read >= 0) ::close(loop->wake_read);
      if (loop->wake_write >= 0) ::close(loop->wake_write);
      if (loop->reserve_fd >= 0) ::close(loop->reserve_fd);
      loop->listen_fd = loop->wake_read = loop->wake_write =
          loop->reserve_fd = -1;
    }
  }

  void wake(Loop& loop) {
    const char byte = 1;
    // Full pipe means a wake is already pending; EINTR retry is the only
    // loop, keeping this callable from a signal handler.
    while (::write(loop.wake_write, &byte, 1) < 0 && errno == EINTR) {
    }
  }

  // --- Event loop -----------------------------------------------------------

  void record_response(int status, std::chrono::steady_clock::time_point start,
                       std::string_view target, std::uint64_t request_id) {
    auto& metrics = ServerMetrics::get();
    if (status < 400) {
      metrics.responses_2xx.inc();
    } else if (status < 500) {
      metrics.responses_4xx.inc();
    } else {
      metrics.responses_5xx.inc();
    }
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    metrics.request_us.record(us);
    if (us > obs::log_slow_threshold_us() &&
        obs::log_enabled(obs::LogLevel::kWarn)) {
      obs::LogEvent(obs::LogLevel::kWarn, "slow_request")
          .field("request", request_id)
          .field("target", target)
          .field("status", status)
          .field("us", us);
    }
  }

  void queue_response(Connection& conn, const HandlerResponse& response,
                      bool keep_alive,
                      std::chrono::steady_clock::time_point start,
                      std::string_view target, std::uint64_t request_id) {
    // Head and body appended separately: a cached shared body lands in the
    // connection buffer without first materializing head+body in a
    // temporary string.
    const std::string& body = response.text();
    conn.out += http_response_head(response.status, response.content_type,
                                   body.size(), keep_alive);
    conn.out += body;
    if (!keep_alive) conn.close_after_flush = true;
    record_response(response.status, start, target, request_id);
  }

  void close_connection(Loop& loop, int fd) {
    const auto it = loop.connections.find(fd);
    if (it != loop.connections.end() && it->second.sse) {
      --loop.sse_connections;
      ServerMetrics::get().sse_clients.add(-1.0);
    }
    // A drain parked here is simply abandoned: its finalize still runs and
    // nothing will read the ticket again.
    if (it != loop.connections.end() && it->second.drain) {
      --loop.pending_drains;
    }
    ::close(fd);
    loop.connections.erase(fd);
    const std::size_t active =
        active_connections.fetch_sub(1, std::memory_order_relaxed) - 1;
    ServerMetrics::get().connections_active.set(static_cast<double>(active));
    loop.connections_gauge->set(static_cast<double>(loop.connections.size()));
  }

  // Take ownership of a socket this loop accepted.
  void adopt_fd(Loop& loop, int fd) {
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection conn(options.http);
    conn.fd = fd;
    loop.connections.emplace(fd, std::move(conn));
    ServerMetrics::get().connections_accepted.inc();
    loop.connections_gauge->set(static_cast<double>(loop.connections.size()));
  }

  void accept_new(Loop& loop) {
    while (true) {
      const int fd = ::accept(loop.listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == ECONNABORTED) continue;  // peer gave up; next in queue
        auto& metrics = ServerMetrics::get();
        metrics.accept_errors.inc();
        if (errno == EMFILE || errno == ENFILE) {
          // Out of descriptors.  Returning here would spin the loop hot:
          // the pending connection keeps the listener level-triggered
          // readable forever.  Burn the reserve fd to free one slot, accept
          // and immediately close the head of the queue (the peer gets a
          // deterministic RST/EOF instead of hanging), then re-arm the
          // reserve and back off to poll().
          if (loop.reserve_fd >= 0) {
            ::close(loop.reserve_fd);
            loop.reserve_fd = -1;
          }
          const int shed = ::accept(loop.listen_fd, nullptr, nullptr);
          if (shed >= 0) {
            ::close(shed);
            metrics.connections_refused.inc();
          }
          loop.reserve_fd = ::open("/dev/null", O_RDONLY);
          if (obs::log_enabled(obs::LogLevel::kWarn) &&
              server_warn_limiter().allow()) {
            obs::LogEvent(obs::LogLevel::kWarn, "accept_shed")
                .field("loop", loop.index)
                .field("reason", "fd_exhausted");
          }
          return;
        }
        // Hard accept failure (ENOBUFS, ENOMEM, ...): counted; back off to
        // poll() rather than spinning on a broken listener.
        return;
      }
      auto& metrics = ServerMetrics::get();
      const std::size_t active =
          active_connections.fetch_add(1, std::memory_order_relaxed) + 1;
      if (active > options.max_connections) {
        active_connections.fetch_sub(1, std::memory_order_relaxed);
        metrics.connections_refused.inc();
        ::close(fd);
        if (obs::log_enabled(obs::LogLevel::kWarn) &&
            server_warn_limiter().allow()) {
          obs::LogEvent(obs::LogLevel::kWarn, "connection_refused")
              .field("loop", loop.index)
              .field("active", active)
              .field("limit", options.max_connections);
        }
        continue;
      }
      metrics.connections_active.set(static_cast<double>(active));
      adopt_fd(loop, fd);
    }
  }

  // --- Metric streaming (GET /v1/metrics/stream) ----------------------------

  // A streaming client that lets this much formatted output pile up gets
  // disconnected instead of growing the buffer without bound.
  static constexpr std::size_t kSseMaxBuffered = 256 * 1024;

  static bool is_stream_request(const HttpRequest& request) {
    std::string_view target = request.target;
    const std::size_t query = target.find('?');
    if (query != std::string_view::npos) target = target.substr(0, query);
    return request.method == "GET" && target == "/v1/metrics/stream";
  }

  static std::chrono::milliseconds stream_interval(const HttpRequest& request) {
    long ms = 1000;
    const std::string_view target = request.target;
    const std::size_t query = target.find('?');
    if (query != std::string_view::npos) {
      std::string_view qs = target.substr(query + 1);
      constexpr std::string_view key = "interval_ms=";
      while (!qs.empty()) {
        const std::size_t amp = qs.find('&');
        const std::string_view param =
            amp == std::string_view::npos ? qs : qs.substr(0, amp);
        if (param.size() > key.size() && param.substr(0, key.size()) == key) {
          long parsed = 0;
          bool valid = true;
          for (char c : param.substr(key.size())) {
            if (c < '0' || c > '9' || parsed > 1000000) {
              valid = false;
              break;
            }
            parsed = parsed * 10 + (c - '0');
          }
          if (valid && parsed > 0) ms = parsed;
        }
        if (amp == std::string_view::npos) break;
        qs = qs.substr(amp + 1);
      }
    }
    ms = std::clamp(ms, 50L, 60000L);
    return std::chrono::milliseconds(ms);
  }

  // One stream event: engine counters, per-campaign snapshot deltas (only
  // campaigns whose published version moved since this client's last
  // event), and per-campaign latency summaries from the labeled registry
  // histograms.
  std::string build_sse_event(Connection& conn) {
    std::string data = "{\"seq\": " + std::to_string(conn.sse_seq++) +
                       ", \"engine\": " + pipeline::to_json(engine.counters());
    data += ", \"campaigns\": [";
    bool first = true;
    const std::size_t campaigns = engine.campaign_count();
    for (std::size_t c = 0; c < campaigns; ++c) {
      if (engine.campaign_task_count(c) == 0) continue;
      const auto snapshot = engine.snapshot(c);
      if (snapshot == nullptr) continue;
      std::uint64_t& last = conn.sse_versions[c];
      if (snapshot->version == last) continue;
      last = snapshot->version;
      if (!first) data += ", ";
      first = false;
      data += "{\"campaign\": " + std::to_string(c) +
              ", \"version\": " + std::to_string(snapshot->version) +
              ", \"applied_reports\": " +
              std::to_string(snapshot->applied_reports) +
              ", \"live_observations\": " +
              std::to_string(snapshot->live_observations) +
              ", \"group_count\": " + std::to_string(snapshot->group_count) +
              "}";
    }
    data += "], \"latency\": [";
    const obs::MetricsSnapshot snap = obs::snapshot();
    first = true;
    for (const obs::HistogramValue& h : snap.histograms) {
      if (h.label_key != "campaign" || h.count == 0) continue;
      if (h.name != "pipeline.ingest_to_apply_us" &&
          h.name != "pipeline.ingest_to_publish_us") {
        continue;
      }
      if (!first) data += ", ";
      first = false;
      data += "{\"name\": \"" + h.name + "\", \"campaign\": \"" +
              h.label_value + "\", \"count\": " + std::to_string(h.count) +
              ", \"p50_us\": ";
      append_json_number(data, histogram_percentile(h, 0.50));
      data += ", \"p99_us\": ";
      append_json_number(data, histogram_percentile(h, 0.99));
      data += "}";
    }
    data += "]}";
    ServerMetrics::get().sse_events.inc();
    return "data: " + data + "\n\n";
  }

  // Switch the connection into streaming mode: hand-built response head
  // (unframed body, so no Content-Length; the stream ends by close) plus
  // the first event immediately.
  void start_stream(Loop& loop, Connection& conn, const HttpRequest& request,
                    std::chrono::steady_clock::time_point start,
                    std::uint64_t request_id) {
    conn.sse = true;
    conn.sse_interval = stream_interval(request);
    conn.sse_next = std::chrono::steady_clock::now() + conn.sse_interval;
    conn.out +=
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: text/event-stream\r\n"
        "Cache-Control: no-store\r\n"
        "Connection: close\r\n"
        "\r\n";
    conn.out += build_sse_event(conn);
    ++loop.sse_connections;
    ServerMetrics::get().sse_clients.add(1.0);
    record_response(200, start, request.target, request_id);
  }

  // Parse and answer everything buffered on the connection, stopping at a
  // drain: the requests behind it wait until the drain is answered.
  void process_requests(Loop& loop, Connection& conn) {
    if (conn.drain) return;  // parked until the drain is answered
    if (conn.sse) return;    // streaming: input is ignored from here on
    auto& metrics = ServerMetrics::get();
    HttpRequest request;
    while (true) {
      const std::uint64_t parse_start =
          obs::trace_enabled() ? obs::detail::trace_now_us() : 0;
      const HttpParser::Status status = conn.parser.next(request);
      if (status == HttpParser::Status::kNeedMore) return;
      const std::uint64_t request_id =
          next_request_id.fetch_add(1, std::memory_order_relaxed);
      if (status == HttpParser::Status::kError) {
        metrics.requests.inc();
        loop.requests_counter->inc();
        const auto start = std::chrono::steady_clock::now();
        HandlerResponse response{conn.parser.error_status(),
                                 "application/json",
                                 error_body(conn.parser.error_reason())};
        queue_response(conn, response, /*keep_alive=*/false, start,
                       "<parse error>", request_id);
        return;  // flush the error, then close
      }
      if (obs::trace_enabled()) {
        obs::detail::trace_span_end(
            "http/parse", parse_start, "request",
            static_cast<double>(request_id), "bytes",
            static_cast<double>(request.body.size()));
      }
      metrics.requests.inc();
      loop.requests_counter->inc();
      const auto start = std::chrono::steady_clock::now();
      const bool keep_alive =
          request.keep_alive && !shutdown_requested.load();
      std::size_t campaign = 0;
      if (is_drain_request(request, &campaign)) {
        if (engine.campaign_task_count(campaign) == 0) {
          queue_response(conn, drain_response(engine, campaign), keep_alive,
                         start, request.target, request_id);
          continue;
        }
        conn.drain = PendingDrain{engine.request_drain(), campaign,
                                  keep_alive, request_id,
                                  std::string(request.target), start};
        ++loop.pending_drains;
        return;
      }
      if (is_stream_request(request)) {
        start_stream(loop, conn, request, start, request_id);
        return;
      }
      HandlerContext context;
      context.ready = !shutdown_requested.load() &&
                      ready.load(std::memory_order_relaxed);
      context.request_id = request_id;
      queue_response(conn, handle_api_request(engine, request, context),
                     keep_alive, start, request.target, request_id);
    }
  }

  // Feed everything readable to the parser.  Returns false once the peer
  // has stopped sending (EOF) or the socket failed.
  bool read_from(Connection& conn) {
    char buffer[16384];
    while (true) {
      const ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
      if (n > 0) {
        conn.parser.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
        if (static_cast<std::size_t>(n) < sizeof(buffer)) return true;
        continue;
      }
      if (n == 0) return false;  // EOF
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }

  // Returns false on a write error.
  bool flush_to(Connection& conn) {
    while (conn.out_offset < conn.out.size()) {
      const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_offset,
                                conn.out.size() - conn.out_offset);
      if (n > 0) {
        conn.out_offset += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    conn.out.clear();
    conn.out_offset = 0;
    return true;
  }

  void drain_wake_pipe(Loop& loop) {
    char buffer[256];
    while (::read(loop.wake_read, buffer, sizeof(buffer)) > 0) {
    }
  }

  void close_all(Loop& loop, std::vector<int>& fds) {
    for (int fd : fds) {
      if (loop.connections.count(fd) != 0) close_connection(loop, fd);
    }
    fds.clear();
  }

  // Answer every parked drain whose barrier has completed, then the
  // requests its peer pipelined behind it.
  void finish_drains(Loop& loop, std::vector<int>& to_close) {
    for (auto& [fd, conn] : loop.connections) {
      if (!conn.drain || !engine.drained(conn.drain->ticket)) continue;
      const PendingDrain drain = std::move(*conn.drain);
      conn.drain.reset();
      --loop.pending_drains;
      queue_response(conn, drain_response(engine, drain.campaign),
                     drain.keep_alive, drain.start, drain.target,
                     drain.request_id);
      process_requests(loop, conn);
      if (!flush_to(conn) || conn.finished()) to_close.push_back(fd);
    }
    close_all(loop, to_close);
  }

  void loop_main(Loop& loop) {
    std::vector<pollfd> pollfds;
    std::vector<int> to_close;
    while (true) {
      const bool stopping = shutdown_requested.load();
      // Once shutdown is requested and every response has been flushed and
      // every parked drain answered, this loop is done; wait() joining all
      // loops forms the barrier.
      if (stopping) {
        bool pending = false;
        for (const auto& [fd, conn] : loop.connections) {
          if (conn.drain || !conn.out.empty()) {
            pending = true;
            break;
          }
        }
        if (!pending) break;
      }

      pollfds.clear();
      pollfds.push_back({loop.wake_read, POLLIN, 0});
      if (!stopping) pollfds.push_back({loop.listen_fd, POLLIN, 0});
      for (const auto& [fd, conn] : loop.connections) {
        // Listed even with no events: poll() still reports POLLERR for a
        // connection the peer reset while its drain is parked.
        short events = 0;
        if (!conn.drain && !conn.close_after_flush) events |= POLLIN;
        if (!conn.flushed()) events |= POLLOUT;
        pollfds.push_back({fd, events, 0});
      }

      int timeout_ms = stopping ? 100 : 1000;
      if (!stopping && loop.sse_connections > 0) {
        // Wake in time for the earliest stream deadline.
        const auto now = std::chrono::steady_clock::now();
        for (const auto& [fd, conn] : loop.connections) {
          if (!conn.sse) continue;
          const auto until = std::chrono::duration_cast<
                                 std::chrono::milliseconds>(conn.sse_next -
                                                            now)
                                 .count();
          timeout_ms = std::clamp(static_cast<int>(until), 1, timeout_ms);
        }
      }
      if (loop.pending_drains > 0) {
        // A shard notices a finalize request within its idle poll, so
        // polling the tickets more often than that gains nothing.
        timeout_ms = std::min(
            timeout_ms,
            static_cast<int>(pipeline::Shard::kIdlePoll.count()));
      }
      const int poll_ready =
          ::poll(pollfds.data(), static_cast<nfds_t>(pollfds.size()),
                 timeout_ms);
      if (poll_ready < 0 && errno != EINTR) break;

      for (const pollfd& pfd : pollfds) {
        if (pfd.revents == 0) continue;
        if (pfd.fd == loop.wake_read) {
          drain_wake_pipe(loop);
          continue;
        }
        if (pfd.fd == loop.listen_fd) {
          accept_new(loop);
          continue;
        }
        auto it = loop.connections.find(pfd.fd);
        if (it == loop.connections.end()) continue;
        Connection& conn = it->second;
        bool alive = (pfd.revents & (POLLERR | POLLNVAL)) == 0;
        if (alive && (pfd.revents & (POLLIN | POLLHUP))) {
          // At EOF the peer may still be reading (a half-close): answer
          // every complete request it sent, flush, then close.
          if (!read_from(conn)) conn.close_after_flush = true;
          process_requests(loop, conn);
        }
        if (alive && (pfd.revents & POLLOUT)) alive = flush_to(conn);
        if (!alive || conn.finished()) to_close.push_back(pfd.fd);
      }
      close_all(loop, to_close);

      if (loop.pending_drains > 0) finish_drains(loop, to_close);

      // Stream tick: emit due events, drop clients that stopped reading.
      if (!stopping && loop.sse_connections > 0) {
        const auto now = std::chrono::steady_clock::now();
        for (auto& [fd, conn] : loop.connections) {
          if (!conn.sse || now < conn.sse_next) continue;
          if (conn.out.size() - conn.out_offset > kSseMaxBuffered) {
            ServerMetrics::get().sse_slow_disconnects.inc();
            if (obs::log_enabled(obs::LogLevel::kWarn) &&
                server_warn_limiter().allow()) {
              obs::LogEvent(obs::LogLevel::kWarn, "sse_slow_disconnect")
                  .field("loop", loop.index)
                  .field("buffered", conn.out.size() - conn.out_offset);
            }
            to_close.push_back(fd);
            continue;
          }
          conn.out += build_sse_event(conn);
          conn.sse_next = now + conn.sse_interval;
          flush_to(conn);
        }
        close_all(loop, to_close);
      }

      if (stopping) {
        // Cut keep-alive connections that owe us nothing.
        for (const auto& [fd, conn] : loop.connections) {
          if (!conn.drain && conn.out.empty() &&
              !conn.parser.mid_request()) {
            to_close.push_back(fd);
          }
        }
        close_all(loop, to_close);
      }
    }

    // Final sweep: release everything this loop still owns.
    for (const auto& [fd, conn] : loop.connections) {
      ::close(fd);
      active_connections.fetch_sub(1, std::memory_order_relaxed);
    }
    loop.connections.clear();
    loop.connections_gauge->set(0.0);
    ServerMetrics::get().connections_active.set(static_cast<double>(
        active_connections.load(std::memory_order_relaxed)));
  }
};

CampaignServer::CampaignServer(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

CampaignServer::~CampaignServer() { shutdown(); }

void CampaignServer::start() {
  SYBILTD_CHECK(!impl_->started.load(), "server already started");
  impl_->open_sockets();
  impl_->engine.start();
  impl_->started.store(true);
  for (auto& loop : impl_->loops) {
    Impl::Loop* raw = loop.get();
    raw->thread = std::thread([this, raw] { impl_->loop_main(*raw); });
  }
  obs::LogEvent(obs::LogLevel::kInfo, "server_started")
      .field("port", impl_->bound_port)
      .field("loops", impl_->loop_count);
}

std::uint16_t CampaignServer::port() const { return impl_->bound_port; }

std::size_t CampaignServer::loop_count() const { return impl_->loop_count; }

pipeline::CampaignEngine& CampaignServer::engine() { return impl_->engine; }

void CampaignServer::set_ready(bool ready) {
  impl_->ready.store(ready, std::memory_order_relaxed);
}

void CampaignServer::request_shutdown() {
  impl_->shutdown_requested.store(true);
  // Async-signal-safe: the loops vector is immutable after start() and each
  // wake is one write() to a pre-opened pipe.
  if (!impl_->started.load()) return;
  for (auto& loop : impl_->loops) {
    if (loop->wake_write >= 0) impl_->wake(*loop);
  }
}

void CampaignServer::wait() {
  if (!impl_->started.load()) return;
  // Joining every loop is the drain barrier: each loop exits only after
  // flushing its own in-flight responses, so once all have returned no
  // report can still be entering the engine.
  for (auto& loop : impl_->loops) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  if (!impl_->stopped.exchange(true)) {
    // Graceful contract: every report accepted over the wire is reflected
    // in a final converged snapshot before the process exits.
    impl_->engine.drain();
    impl_->engine.stop();
    impl_->close_sockets();
    obs::LogEvent(obs::LogLevel::kInfo, "server_stopped")
        .field("port", impl_->bound_port);
  }
}

void CampaignServer::shutdown() {
  if (!impl_->started.load()) {
    if (!impl_->stopped.exchange(true)) impl_->close_sockets();
    return;
  }
  request_shutdown();
  wait();
}

}  // namespace sybiltd::server
