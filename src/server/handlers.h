// Endpoint routing and JSON rendering for the campaign server, factored
// out of the event loop so the whole API surface is unit-testable without
// a socket: build an HttpRequest, call handle_api_request, assert on the
// HandlerResponse.
//
// Endpoints (docs/SERVER.md has the full table):
//
//   GET  /healthz                        liveness probe (always 200)
//   GET  /readyz                         readiness probe (503 once draining)
//   GET  /metrics                        Prometheus exposition (obs registry)
//   GET  /v1/status                      engine counters + per-shard status
//   POST /v1/campaigns                   create a campaign {"tasks": N}
//   POST /v1/campaigns/{id}/reports      ingest one report or a batch
//   GET  /v1/campaigns/{id}/truths       latest snapshot, truth view
//   GET  /v1/campaigns/{id}/groups       latest snapshot, grouping view
//   POST /v1/campaigns/{id}/drain        convergence barrier (slow path)
//
// (GET /v1/metrics/stream — the SSE live feed — is served by the event
// loop itself, since it outlives a single request/response exchange.)
//
// Ingestion maps the engine's backpressure-aware try_submit onto status
// codes: every report enqueued -> 202, shard queue full -> 429 (with the
// partial-accept count), malformed JSON or an invalid report -> 400
// before ANY report of the batch reaches a shard, unknown campaign -> 404,
// engine shutting down -> 503.
//
// Drain is the one endpoint that waits (on the convergence barrier).  The
// event loop never blocks on it: is_drain_request() recognizes it, the
// loop calls engine.request_drain() for a known campaign, polls
// engine.drained(), and renders the answer with drain_response().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "pipeline/engine.h"
#include "server/http.h"

namespace sybiltd::server {

struct HandlerResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  // When set, the response body is this shared immutable buffer (the
  // snapshot response cache hands the same rendering to every reader of a
  // snapshot version) and `body` is ignored.  Use text() to read either.
  std::shared_ptr<const std::string> shared_body = nullptr;

  const std::string& text() const {
    return shared_body != nullptr ? *shared_body : body;
  }
};

// Per-request context the event loop threads into the handler: whether the
// server still accepts work (drives /readyz) and a process-unique request
// id that joins the request's trace spans and log lines.  The defaults make
// direct handler calls (unit tests) behave like a healthy server.
struct HandlerContext {
  bool ready = true;
  std::uint64_t request_id = 0;
};

// True when the request targets POST /v1/campaigns/{id}/drain; extracts
// the campaign id.  Such requests never go to handle_api_request.
bool is_drain_request(const HttpRequest& request, std::size_t* campaign);

// Dispatch any non-drain request.  Never blocks: ingestion uses
// try_submit, queries read the wait-free snapshot cells.
HandlerResponse handle_api_request(pipeline::CampaignEngine& engine,
                                   const HttpRequest& request,
                                   const HandlerContext& context = {});

// The answer to POST /v1/campaigns/{id}/drain once the barrier requested
// for it has completed: the drained campaign's snapshot summary, or 404
// for an unknown campaign (which needs no barrier).  Never blocks.
HandlerResponse drain_response(const pipeline::CampaignEngine& engine,
                               std::size_t campaign);

// A JSON error document {"error": "..."}.
std::string error_body(std::string_view message);

}  // namespace sybiltd::server
