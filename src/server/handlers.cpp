#include "server/handlers.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/status_json.h"
#include "server/json.h"
#include "server/report_decode.h"
#include "server/snapshot_cache.h"

namespace sybiltd::server {

namespace {

// Per-endpoint request counters plus ingestion outcome totals, registered
// once in the process metrics registry (surfacing on /metrics itself).
struct HandlerMetrics {
  obs::Counter& healthz = obs::MetricsRegistry::global().counter(
      "server.endpoint.healthz", "GET /healthz requests");
  obs::Counter& metrics = obs::MetricsRegistry::global().counter(
      "server.endpoint.metrics", "GET /metrics requests");
  obs::Counter& status = obs::MetricsRegistry::global().counter(
      "server.endpoint.status", "GET /v1/status requests");
  obs::Counter& campaigns = obs::MetricsRegistry::global().counter(
      "server.endpoint.campaigns", "POST /v1/campaigns requests");
  obs::Counter& ingest = obs::MetricsRegistry::global().counter(
      "server.endpoint.ingest", "POST .../reports requests");
  obs::Counter& truths = obs::MetricsRegistry::global().counter(
      "server.endpoint.truths", "GET .../truths requests");
  obs::Counter& groups = obs::MetricsRegistry::global().counter(
      "server.endpoint.groups", "GET .../groups requests");
  obs::Counter& drain = obs::MetricsRegistry::global().counter(
      "server.endpoint.drain", "POST .../drain requests");
  obs::Counter& other = obs::MetricsRegistry::global().counter(
      "server.endpoint.other", "requests to unknown routes");
  obs::Counter& readyz = obs::MetricsRegistry::global().counter(
      "server.endpoint.readyz", "GET /readyz requests");
  obs::Counter& reports_accepted = obs::MetricsRegistry::global().counter(
      "server.reports.accepted", "reports accepted over HTTP");
  obs::Counter& reports_rejected = obs::MetricsRegistry::global().counter(
      "server.reports.rejected", "reports refused by backpressure (429s)");
  obs::Counter& reports_invalid = obs::MetricsRegistry::global().counter(
      "server.reports.invalid", "reports refused by validation (400s)");
  obs::CounterFamily& campaign_accepted =
      obs::MetricsRegistry::global().counter_family(
          "server.campaign.reports_accepted", "campaign",
          "reports accepted over HTTP, per campaign");
  obs::CounterFamily& campaign_rejected =
      obs::MetricsRegistry::global().counter_family(
          "server.campaign.reports_rejected", "campaign",
          "reports refused by backpressure, per campaign");
  obs::Counter& decode_fast = obs::MetricsRegistry::global().counter(
      "server.decode.fast",
      "ingest bodies decoded by the schema-specialized fast path");
  obs::Counter& decode_fallback = obs::MetricsRegistry::global().counter(
      "server.decode.fallback",
      "ingest bodies decoded by the generic JSON codec");
  obs::Counter& decode_bytes = obs::MetricsRegistry::global().counter(
      "server.decode.bytes", "ingest body bytes decoded");

  static HandlerMetrics& get() {
    static HandlerMetrics metrics;
    return metrics;
  }
};

// SYBILTD_LATENCY=off disables the per-batch arrival stamp (and with it
// the ingest→apply/publish histograms) for overhead A/B runs.
bool latency_tracking_enabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("SYBILTD_LATENCY");
    return env == nullptr || std::string_view(env) != "off";
  }();
  return enabled;
}

obs::LogRateLimiter& ingest_warn_limiter() {
  static obs::LogRateLimiter limiter(10.0, 20.0);
  return limiter;
}

// Path without the query string, split on '/'.
std::vector<std::string_view> split_path(std::string_view target) {
  const std::size_t query = target.find('?');
  if (query != std::string_view::npos) target = target.substr(0, query);
  std::vector<std::string_view> segments;
  std::size_t pos = 0;
  while (pos < target.size()) {
    if (target[pos] == '/') {
      ++pos;
      continue;
    }
    const std::size_t end = target.find('/', pos);
    segments.push_back(target.substr(
        pos, end == std::string_view::npos ? end : end - pos));
    if (end == std::string_view::npos) break;
    pos = end + 1;
  }
  return segments;
}

bool parse_index(std::string_view text, std::size_t* out) {
  if (text.empty() || text.size() > 18) return false;
  std::size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  *out = value;
  return true;
}

HandlerResponse make_error(int status, std::string_view message) {
  return {status, "application/json", error_body(message)};
}

HandlerResponse method_not_allowed() {
  return make_error(405, "method not allowed for this resource");
}

// --- Ingestion --------------------------------------------------------------

HandlerResponse handle_ingest(pipeline::CampaignEngine& engine,
                              std::size_t campaign,
                              const HttpRequest& request,
                              const HandlerContext& context) {
  auto& metrics = HandlerMetrics::get();
  obs::TraceSpan route_span("ingest/route");
  route_span.arg("request", static_cast<double>(context.request_id));
  route_span.arg("campaign", static_cast<double>(campaign));
  const std::size_t task_count = engine.campaign_task_count(campaign);
  if (task_count == 0) return make_error(404, "unknown campaign");

  // Decode and validate the whole batch before any shard work, so a 400
  // never leaves a partially-applied batch behind.  The fast path and the
  // generic codec produce identical results (see report_decode.h); only
  // the counters tell them apart.
  DecodedReports decoded =
      decode_reports(request.body, campaign, task_count);
  metrics.decode_bytes.inc(request.body.size());
  (decoded.fast_path ? metrics.decode_fast : metrics.decode_fallback).inc();
  if (!decoded.ok) {
    switch (decoded.error_kind) {
      case DecodeErrorKind::kJson:
        metrics.reports_invalid.inc();
        if (obs::log_enabled(obs::LogLevel::kWarn) &&
            ingest_warn_limiter().allow()) {
          obs::LogEvent(obs::LogLevel::kWarn, "ingest_invalid_json")
              .field("request", context.request_id)
              .field("campaign", campaign)
              .field("error", decoded.detail);
        }
        break;
      case DecodeErrorKind::kShape:
        metrics.reports_invalid.inc();
        break;
      case DecodeErrorKind::kReport:
        metrics.reports_invalid.inc(decoded.batch_size);
        if (obs::log_enabled(obs::LogLevel::kWarn) &&
            ingest_warn_limiter().allow()) {
          obs::LogEvent(obs::LogLevel::kWarn, "ingest_invalid_report")
              .field("request", context.request_id)
              .field("campaign", campaign)
              .field("index", decoded.error_index)
              .field("error", decoded.detail);
        }
        break;
      case DecodeErrorKind::kNone:
        break;
    }
    return make_error(400, decoded.error);
  }
  if (decoded.reports.empty()) {
    return {202, "application/json",
            "{\"campaign\": " + std::to_string(campaign) +
                ", \"accepted\": 0, \"rejected\": 0}"};
  }

  // Stamp the batch with one steady-clock read at HTTP arrival; the shard
  // turns the stamp into ingest→apply / ingest→publish latency.
  if (latency_tracking_enabled()) {
    const std::uint64_t ticks = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    for (pipeline::Report& report : decoded.reports) {
      report.ingest_ticks = ticks;
    }
  }

  // One engine call for the whole batch: validation against a single
  // routing snapshot, one queue lock per touched shard, and the same
  // clean-prefix outcome a per-report try_submit loop would produce.
  const pipeline::SubmitBatchResult submit =
      engine.try_submit_batch(decoded.reports);
  const std::size_t accepted = submit.accepted;
  const bool closed = submit.status == pipeline::SubmitStatus::kClosed ||
                      submit.status == pipeline::SubmitStatus::kNotRunning;
  const std::size_t rejected = decoded.reports.size() - accepted;
  metrics.reports_accepted.inc(accepted);
  const std::string campaign_label = std::to_string(campaign);
  if (accepted > 0) metrics.campaign_accepted.at(campaign_label).inc(accepted);
  std::string body = "{\"campaign\": " + campaign_label +
                     ", \"accepted\": " + std::to_string(accepted) +
                     ", \"rejected\": " + std::to_string(rejected) + "}";
  if (rejected == 0) return {202, "application/json", std::move(body)};
  if (closed) return make_error(503, "engine is shutting down");
  metrics.reports_rejected.inc(rejected);
  metrics.campaign_rejected.at(campaign_label).inc(rejected);
  if (obs::log_enabled(obs::LogLevel::kWarn) && ingest_warn_limiter().allow()) {
    obs::LogEvent(obs::LogLevel::kWarn, "ingest_backpressure")
        .field("request", context.request_id)
        .field("campaign", campaign)
        .field("accepted", accepted)
        .field("rejected", rejected);
  }
  return {429, "application/json", std::move(body)};
}

// --- Queries ----------------------------------------------------------------

// Both snapshot views serve out of the response cache: one rendering per
// snapshot version, shared across every reader.
HandlerResponse snapshot_view(pipeline::CampaignEngine& engine,
                              std::size_t campaign,
                              SnapshotResponseCache::View view) {
  if (engine.campaign_task_count(campaign) == 0) {
    return make_error(404, "unknown campaign");
  }
  HandlerResponse response{200, "application/json", {}};
  response.shared_body = SnapshotResponseCache::global().get(
      campaign, engine.snapshot(campaign), view);
  return response;
}

HandlerResponse handle_truths(pipeline::CampaignEngine& engine,
                              std::size_t campaign) {
  return snapshot_view(engine, campaign, SnapshotResponseCache::View::kTruths);
}

HandlerResponse handle_groups(pipeline::CampaignEngine& engine,
                              std::size_t campaign) {
  return snapshot_view(engine, campaign, SnapshotResponseCache::View::kGroups);
}

HandlerResponse handle_status(pipeline::CampaignEngine& engine) {
  std::string body =
      "{\"campaigns\": " + std::to_string(engine.campaign_count()) +
      ", \"shards\": " + std::to_string(engine.shard_count()) +
      ", \"engine\": " + pipeline::to_json(engine.counters()) + "}";
  return {200, "application/json", std::move(body)};
}

HandlerResponse handle_create_campaign(pipeline::CampaignEngine& engine,
                                       const HttpRequest& request) {
  JsonValue doc;
  std::string parse_error;
  if (!json_parse(request.body, doc, &parse_error)) {
    return make_error(400, "invalid JSON: " + parse_error);
  }
  const JsonValue* tasks = doc.find("tasks");
  std::size_t task_count = 0;
  if (tasks == nullptr || !tasks->as_index(&task_count) || task_count == 0 ||
      task_count > 1000000) {
    return make_error(400,
                      "campaign config needs \"tasks\": an integer in "
                      "[1, 1000000]");
  }
  const std::size_t campaign = engine.add_campaign(task_count);
  return {201, "application/json",
          "{\"campaign\": " + std::to_string(campaign) +
              ", \"tasks\": " + std::to_string(task_count) + "}"};
}

}  // namespace

std::string error_body(std::string_view message) {
  std::string body = "{\"error\": ";
  json_append_string(body, message);
  body += "}";
  return body;
}

bool is_drain_request(const HttpRequest& request, std::size_t* campaign) {
  const auto segments = split_path(request.target);
  return request.method == "POST" && segments.size() == 4 &&
         segments[0] == "v1" && segments[1] == "campaigns" &&
         segments[3] == "drain" && parse_index(segments[2], campaign);
}

HandlerResponse drain_response(const pipeline::CampaignEngine& engine,
                               std::size_t campaign) {
  HandlerMetrics::get().drain.inc();
  if (engine.campaign_task_count(campaign) == 0) {
    return make_error(404, "unknown campaign");
  }
  const auto snapshot = engine.snapshot(campaign);
  std::string body =
      "{\"campaign\": " + std::to_string(campaign) +
      ", \"version\": " + std::to_string(snapshot->version) +
      ", \"applied_reports\": " + std::to_string(snapshot->applied_reports) +
      ", \"converged\": " + (snapshot->converged ? "true" : "false") + "}";
  return {200, "application/json", std::move(body)};
}

HandlerResponse handle_api_request(pipeline::CampaignEngine& engine,
                                   const HttpRequest& request,
                                   const HandlerContext& context) {
  auto& metrics = HandlerMetrics::get();
  const auto segments = split_path(request.target);
  const bool is_get = request.method == "GET";
  const bool is_post = request.method == "POST";

  if (segments.size() == 1 && segments[0] == "healthz") {
    if (!is_get) return method_not_allowed();
    metrics.healthz.inc();
    return {200, "text/plain; charset=utf-8", "ok\n"};
  }
  if (segments.size() == 1 && segments[0] == "readyz") {
    // Liveness vs readiness: /healthz answers "is the process up" (200 for
    // as long as the loop can respond), /readyz answers "should a load
    // balancer still send work here" — 503 from the moment drain/shutdown
    // begins, so upstream traffic falls off before the listener closes.
    if (!is_get) return method_not_allowed();
    metrics.readyz.inc();
    if (!context.ready) {
      return {503, "text/plain; charset=utf-8", "draining\n"};
    }
    return {200, "text/plain; charset=utf-8", "ready\n"};
  }
  if (segments.size() == 1 && segments[0] == "metrics") {
    if (!is_get) return method_not_allowed();
    metrics.metrics.inc();
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            obs::to_prometheus(obs::snapshot())};
  }
  if (segments.size() == 2 && segments[0] == "v1" &&
      segments[1] == "status") {
    if (!is_get) return method_not_allowed();
    metrics.status.inc();
    return handle_status(engine);
  }
  if (segments.size() == 2 && segments[0] == "v1" &&
      segments[1] == "campaigns") {
    if (!is_post) return method_not_allowed();
    metrics.campaigns.inc();
    return handle_create_campaign(engine, request);
  }
  if (segments.size() == 4 && segments[0] == "v1" &&
      segments[1] == "campaigns") {
    std::size_t campaign = 0;
    if (!parse_index(segments[2], &campaign)) {
      metrics.other.inc();
      return make_error(404, "campaign id must be a non-negative integer");
    }
    if (segments[3] == "reports") {
      if (!is_post) return method_not_allowed();
      metrics.ingest.inc();
      return handle_ingest(engine, campaign, request, context);
    }
    if (segments[3] == "truths") {
      if (!is_get) return method_not_allowed();
      metrics.truths.inc();
      return handle_truths(engine, campaign);
    }
    if (segments[3] == "groups") {
      if (!is_get) return method_not_allowed();
      metrics.groups.inc();
      return handle_groups(engine, campaign);
    }
    // NB: .../drain belongs to is_drain_request/drain_response.
  }
  metrics.other.inc();
  return make_error(404, "no such resource");
}

}  // namespace sybiltd::server
