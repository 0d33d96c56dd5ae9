// CampaignServer — a long-running HTTP/1.1 front end over
// pipeline::CampaignEngine.
//
// Threading model: N event-loop threads (ServerOptions::loops /
// SYBILTD_SERVER_LOOPS, default 1) and nothing else.  Each loop accepts
// on its own listener — with N > 1 every listener binds the same port
// with SO_REUSEPORT and the kernel balances accepts; where SO_REUSEPORT is
// not defined N resolves to 1 — and multiplexes the connections it
// accepted with poll() over non-blocking sockets.  A connection is touched
// only by the loop that accepted it, from accept to close, so the
// read/parse/respond path has no locking at all.  Ingestion goes through
// the engine's wait-free routing table and try_submit_batch() (a full
// shard queue becomes a 429, not a stalled loop), and snapshot queries
// read wait-free cells.
//
// Drain is the one endpoint that waits (for the convergence barrier).  The
// owning loop starts it with the engine's non-blocking request_drain(),
// parks the connection — requests pipelined behind the drain wait
// unanswered — and polls drained() at the shard's idle-poll interval while
// any drain is parked; then it answers the drain and the parked requests.
// A peer that closes meanwhile takes its parked drain with it.
//
// Shutdown is graceful and signal-driven: request_shutdown() is
// async-signal-safe (one write() per loop's wake pipe), after which every
// loop stops accepting, answers its parked drains, finishes its in-flight
// responses and returns; wait() joining all N loops is the drain barrier,
// and only then is the engine drained so every accepted report is
// reflected in final snapshots (the accepted ⇒ applied contract is
// loop-count independent).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "pipeline/engine.h"
#include "server/http.h"

namespace sybiltd::server {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  // TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  int backlog = 128;
  // Connections beyond this (summed across loops) are accepted and
  // immediately closed.
  std::size_t max_connections = 1024;
  // Event-loop threads.  0 = resolve from SYBILTD_SERVER_LOOPS, else 1.
  std::size_t loops = 0;
  HttpLimits http;
  pipeline::EngineOptions engine;
};

class CampaignServer {
 public:
  explicit CampaignServer(ServerOptions options = {});
  ~CampaignServer();

  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  // Bind, listen, start the engine, and launch the event-loop threads.  Throws common::Error on socket failures (e.g. port in use).
  void start();

  // The bound port (resolves port 0 after start()).
  std::uint16_t port() const;

  // Event-loop threads the server runs with (resolved from options/env).
  std::size_t loop_count() const;

  // The engine behind the API — for tests and for pre-registering
  // campaigns before start().
  pipeline::CampaignEngine& engine();

  // Readiness control for GET /readyz.  The server starts ready; flipping
  // to false makes /readyz answer 503 (while /healthz stays 200) so a load
  // balancer stops routing new work here — shutdown flips it implicitly,
  // this is the explicit handle (deploy hooks, tests).  Thread-safe.
  void set_ready(bool ready);

  // Begin graceful shutdown.  Async-signal-safe: only writes one byte to
  // each loop's wake pipe, so it is callable straight from a
  // SIGTERM/SIGINT handler.  Idempotent.  Also marks the server not ready.
  void request_shutdown();

  // Block until the server has fully shut down (every event loop returned,
  // engine drained and stopped).  Returns immediately if never started.
  void wait();

  // request_shutdown() + wait() + close sockets.  Also run by the
  // destructor.  Idempotent.
  void shutdown();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sybiltd::server
