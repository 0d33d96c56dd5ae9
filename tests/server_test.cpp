// Tests for the HTTP server subsystem: the incremental request parser
// (including splits at every byte boundary and pipelined keep-alive), the
// minimal JSON codec, the endpoint handlers (unit-tested without a
// socket), and the end-to-end equivalence of HTTP-ingested reports with
// the one-shot batch framework.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/format.h"
#include "obs/metrics.h"

#include "common/rng.h"
#include "core/ag_ts.h"
#include "core/framework.h"
#include "pipeline/engine.h"
#include "pipeline/status_json.h"
#include "server/handlers.h"
#include "server/http.h"
#include "server/json.h"
#include "server/report_decode.h"
#include "server/server.h"
#include "server/snapshot_cache.h"
#include "parked_pool.h"
#include "alloc_probe.h"

namespace sybiltd::server {
namespace {

// --- HttpParser ------------------------------------------------------------

TEST(HttpParser, ParsesSimpleGet) {
  HttpParser parser;
  parser.feed("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  HttpRequest request;
  ASSERT_EQ(parser.next(request), HttpParser::Status::kRequest);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/healthz");
  EXPECT_EQ(request.version_minor, 1);
  EXPECT_TRUE(request.keep_alive);
  ASSERT_NE(request.header("host"), nullptr);
  EXPECT_EQ(*request.header("host"), "x");
  EXPECT_EQ(parser.next(request), HttpParser::Status::kNeedMore);
  EXPECT_FALSE(parser.mid_request());
}

TEST(HttpParser, ParsesBodyAndLowercasesHeaderNames) {
  HttpParser parser;
  parser.feed(
      "POST /v1/campaigns HTTP/1.1\r\nContent-Type: application/json\r\n"
      "Content-Length: 12\r\n\r\n{\"tasks\": 3}");
  HttpRequest request;
  ASSERT_EQ(parser.next(request), HttpParser::Status::kRequest);
  EXPECT_EQ(request.body, "{\"tasks\": 3}");
  ASSERT_NE(request.header("content-type"), nullptr);
  EXPECT_EQ(*request.header("content-type"), "application/json");
}

// The same request must parse identically no matter where the reads split
// it — down to one byte at a time, at every boundary.
TEST(HttpParser, EveryByteBoundarySplitParsesIdentically) {
  const std::string raw =
      "POST /v1/campaigns/0/reports HTTP/1.1\r\nHost: t\r\n"
      "Content-Length: 29\r\n\r\n"
      "{\"account\":1,\"task\":2,\"value\"";
  ASSERT_EQ(raw.size() - raw.find("{"), 29u);
  for (std::size_t split = 1; split < raw.size(); ++split) {
    HttpParser parser;
    HttpRequest request;
    parser.feed(std::string_view(raw).substr(0, split));
    const HttpParser::Status first = parser.next(request);
    if (first == HttpParser::Status::kRequest) {
      FAIL() << "complete before all bytes arrived (split " << split << ")";
    }
    ASSERT_EQ(first, HttpParser::Status::kNeedMore) << "split " << split;
    parser.feed(std::string_view(raw).substr(split));
    ASSERT_EQ(parser.next(request), HttpParser::Status::kRequest)
        << "split " << split;
    EXPECT_EQ(request.target, "/v1/campaigns/0/reports");
    EXPECT_EQ(request.body.size(), 29u);
  }
}

TEST(HttpParser, DrainsPipelinedRequestsFromOneFeed) {
  HttpParser parser;
  parser.feed(
      "GET /a HTTP/1.1\r\n\r\n"
      "POST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
      "GET /c HTTP/1.1\r\nConnection: close\r\n\r\n");
  HttpRequest request;
  ASSERT_EQ(parser.next(request), HttpParser::Status::kRequest);
  EXPECT_EQ(request.target, "/a");
  ASSERT_EQ(parser.next(request), HttpParser::Status::kRequest);
  EXPECT_EQ(request.target, "/b");
  EXPECT_EQ(request.body, "hi");
  ASSERT_EQ(parser.next(request), HttpParser::Status::kRequest);
  EXPECT_EQ(request.target, "/c");
  EXPECT_FALSE(request.keep_alive);
  EXPECT_EQ(parser.next(request), HttpParser::Status::kNeedMore);
}

TEST(HttpParser, KeepAliveSemanticsPerVersion) {
  const auto parse_one = [](const std::string& raw) {
    HttpParser parser;
    parser.feed(raw);
    HttpRequest request;
    EXPECT_EQ(parser.next(request), HttpParser::Status::kRequest);
    return request.keep_alive;
  };
  EXPECT_TRUE(parse_one("GET / HTTP/1.1\r\n\r\n"));
  EXPECT_FALSE(parse_one("GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
  EXPECT_FALSE(parse_one("GET / HTTP/1.0\r\n\r\n"));
  EXPECT_TRUE(parse_one("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
  // Token scan, not substring match, over a comma-separated header.
  EXPECT_FALSE(
      parse_one("GET / HTTP/1.1\r\nConnection: foo, Close\r\n\r\n"));
}

TEST(HttpParser, OversizedDeclaredBodyFailsEarlyWith413) {
  HttpLimits limits;
  limits.max_body_bytes = 64;
  HttpParser parser(limits);
  // The parser must refuse from the Content-Length alone — no body bytes
  // are ever fed.
  parser.feed("POST /x HTTP/1.1\r\nContent-Length: 65\r\n\r\n");
  HttpRequest request;
  ASSERT_EQ(parser.next(request), HttpParser::Status::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParser, HugeContentLengthDoesNotOverflow) {
  HttpParser parser;
  parser.feed(
      "POST /x HTTP/1.1\r\nContent-Length: "
      "99999999999999999999999999999999\r\n\r\n");
  HttpRequest request;
  ASSERT_EQ(parser.next(request), HttpParser::Status::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParser, OversizedRequestLineFailsWith414BeforeTermination) {
  HttpLimits limits;
  limits.max_request_line = 32;
  HttpParser parser(limits);
  // No newline yet: the overflow must be detected incrementally.
  parser.feed("GET /" + std::string(64, 'a'));
  HttpRequest request;
  ASSERT_EQ(parser.next(request), HttpParser::Status::kError);
  EXPECT_EQ(parser.error_status(), 414);
}

TEST(HttpParser, OversizedHeaderBlockFailsWith431) {
  HttpLimits limits;
  limits.max_header_bytes = 64;
  HttpParser parser(limits);
  parser.feed("GET / HTTP/1.1\r\nX-A: " + std::string(80, 'b') + "\r\n\r\n");
  HttpRequest request;
  ASSERT_EQ(parser.next(request), HttpParser::Status::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParser, RejectsProtocolViolations) {
  const auto error_of = [](const std::string& raw) {
    HttpParser parser;
    parser.feed(raw);
    HttpRequest request;
    EXPECT_EQ(parser.next(request), HttpParser::Status::kError);
    return parser.error_status();
  };
  EXPECT_EQ(error_of("GARBAGE\r\n\r\n"), 400);
  EXPECT_EQ(error_of("GET  / HTTP/1.1\r\n\r\n"), 400);  // empty target
  EXPECT_EQ(error_of("GET example.com HTTP/1.1\r\n\r\n"), 400);
  EXPECT_EQ(error_of("GET / HTTP/2.0\r\n\r\n"), 505);
  EXPECT_EQ(error_of("GET / HTTP/1.1\r\nBad Header\r\n\r\n"), 400);
  EXPECT_EQ(
      error_of("POST / HTTP/1.1\r\nContent-Length: 2\r\n"
               "Content-Length: 3\r\n\r\n"),
      400);
  EXPECT_EQ(error_of("POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"), 400);
  EXPECT_EQ(
      error_of("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
      501);
}

TEST(HttpParser, ToleratesBareLfLineEndings) {
  HttpParser parser;
  parser.feed("GET /x HTTP/1.1\nHost: y\n\n");
  HttpRequest request;
  ASSERT_EQ(parser.next(request), HttpParser::Status::kRequest);
  EXPECT_EQ(request.target, "/x");
  ASSERT_NE(request.header("host"), nullptr);
  EXPECT_EQ(*request.header("host"), "y");
}

TEST(HttpResponse, SerializesWithContentLengthFraming) {
  const std::string response =
      http_response(202, "application/json", "{\"ok\":true}", true);
  EXPECT_NE(response.find("HTTP/1.1 202 Accepted\r\n"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(response.substr(response.size() - 11), "{\"ok\":true}");
}

// --- JSON codec ------------------------------------------------------------

TEST(Json, ParsesNestedDocument) {
  JsonValue doc;
  ASSERT_TRUE(json_parse(
      R"({"reports": [{"account": 1, "task": 2, "value": -7.25e1}], "ok": true, "note": null})",
      doc));
  const JsonValue* reports = doc.find("reports");
  ASSERT_NE(reports, nullptr);
  ASSERT_TRUE(reports->is_array());
  ASSERT_EQ(reports->array.size(), 1u);
  std::size_t account = 0;
  ASSERT_TRUE(reports->array[0].find("account")->as_index(&account));
  EXPECT_EQ(account, 1u);
  EXPECT_DOUBLE_EQ(reports->array[0].find("value")->number, -72.5);
  EXPECT_TRUE(doc.find("ok")->boolean);
  EXPECT_TRUE(doc.find("note")->is_null());
}

TEST(Json, DecodesEscapesIncludingSurrogatePairs) {
  JsonValue doc;
  ASSERT_TRUE(json_parse(R"("a\n\t\"\\\u00e9\ud83d\ude00")", doc));
  EXPECT_EQ(doc.string, "a\n\t\"\\\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(Json, RejectsMalformedDocumentsWithOffsets) {
  JsonValue doc;
  std::string error;
  EXPECT_FALSE(json_parse("{\"a\": 1,}", doc, &error));
  EXPECT_NE(error.find("offset"), std::string::npos);
  EXPECT_FALSE(json_parse("[1, 2", doc, &error));
  EXPECT_FALSE(json_parse("01", doc, &error));
  EXPECT_FALSE(json_parse("1 trailing", doc, &error));
  EXPECT_FALSE(json_parse("\"unterminated", doc, &error));
  EXPECT_FALSE(json_parse("\"\\ud800\"", doc, &error));  // lone surrogate
  EXPECT_FALSE(json_parse("nul", doc, &error));
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_FALSE(json_parse(deep, doc, &error));
  EXPECT_NE(error.find("deep"), std::string::npos);
}

TEST(Json, AsIndexRejectsNonIndices) {
  const auto index_of = [](const std::string& text, std::size_t* out) {
    JsonValue doc;
    EXPECT_TRUE(json_parse(text, doc));
    return doc.as_index(out);
  };
  std::size_t out = 0;
  EXPECT_TRUE(index_of("7", &out));
  EXPECT_EQ(out, 7u);
  EXPECT_FALSE(index_of("-1", &out));
  EXPECT_FALSE(index_of("1.5", &out));
  EXPECT_FALSE(index_of("1e300", &out));
  EXPECT_FALSE(index_of("\"3\"", &out));
}

TEST(Json, WriterEscapesAndHandlesNonFinite) {
  std::string out;
  json_append_string(out, "a\"b\\c\nd\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
  out.clear();
  obs::append_json_number(out, std::nan(""));
  EXPECT_EQ(out, "null");
}

// --- Metrics exposition with non-finite values ------------------------------

// A gauge holding NaN, +inf or -inf and a histogram whose sum is NaN must
// still render parseable output: the text format's NaN/+Inf/-Inf spellings
// (its parser rejects printf's "-nan") and null in the JSON view.
TEST(MetricsExposition, NonFiniteValuesStayParseable) {
  const double kInf = std::numeric_limits<double>::infinity();
  obs::MetricsRegistry registry;
  registry.gauge("nonfinite.nan").set(std::nan(""));
  registry.gauge("nonfinite.neg_nan").set(-std::nan(""));
  registry.gauge("nonfinite.pos_inf").set(kInf);
  registry.gauge("nonfinite.neg_inf").set(-kInf);
  registry.histogram("nonfinite.hist").record(std::nan(""));
  const obs::MetricsSnapshot snap = registry.snapshot();

  // Prometheus: every sample line's value is a float the format allows.
  const std::regex sample(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? )"
      R"((NaN|[+-]Inf|[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?)$)");
  std::map<std::string, std::string> values;
  std::istringstream text(obs::to_prometheus(snap));
  for (std::string line; std::getline(text, line);) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_TRUE(std::regex_match(line, sample)) << line;
    const std::size_t space = line.rfind(' ');
    values[line.substr(0, space)] = line.substr(space + 1);
  }
  EXPECT_EQ(values["nonfinite_nan"], "NaN");
  EXPECT_EQ(values["nonfinite_neg_nan"], "NaN");
  EXPECT_EQ(values["nonfinite_pos_inf"], "+Inf");
  EXPECT_EQ(values["nonfinite_neg_inf"], "-Inf");
  EXPECT_EQ(values["nonfinite_hist_sum"], "NaN");
  EXPECT_EQ(values["nonfinite_hist_count"], "1");

  // JSON: the document parses, and each non-finite value is null.
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(obs::to_json(snap), doc, &error)) << error;
  std::size_t null_gauges = 0;
  for (const JsonValue& gauge : doc.find("gauges")->array) {
    if (gauge.find("name")->string.starts_with("nonfinite.")) {
      EXPECT_TRUE(gauge.find("value")->is_null());
      ++null_gauges;
    }
  }
  EXPECT_EQ(null_gauges, 4u);
  const JsonValue& hist = doc.find("histograms")->array.at(0);
  EXPECT_EQ(hist.find("name")->string, "nonfinite.hist");
  EXPECT_TRUE(hist.find("sum")->is_null());
  EXPECT_EQ(hist.find("count")->number, 1.0);
}

// --- Handlers (no socket) ---------------------------------------------------

HttpRequest make_request(std::string method, std::string target,
                         std::string body = {}) {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.body = std::move(body);
  return request;
}

TEST(Handlers, HealthzAndUnknownRoutes) {
  pipeline::CampaignEngine engine;
  EXPECT_EQ(handle_api_request(engine, make_request("GET", "/healthz")).status,
            200);
  EXPECT_EQ(handle_api_request(engine, make_request("POST", "/healthz")).status,
            405);
  EXPECT_EQ(handle_api_request(engine, make_request("GET", "/nope")).status,
            404);
  EXPECT_EQ(
      handle_api_request(engine, make_request("GET", "/v1/campaigns/x/truths"))
          .status,
      404);
}

TEST(Handlers, ReadyzTracksHandlerContextWhileHealthzStaysUp) {
  pipeline::CampaignEngine engine;
  // Default context (unit tests, healthy server): ready.
  EXPECT_EQ(handle_api_request(engine, make_request("GET", "/readyz")).status,
            200);
  EXPECT_EQ(handle_api_request(engine, make_request("POST", "/readyz")).status,
            405);
  HandlerContext draining;
  draining.ready = false;
  EXPECT_EQ(
      handle_api_request(engine, make_request("GET", "/readyz"), draining)
          .status,
      503);
  // Liveness is independent of readiness.
  EXPECT_EQ(
      handle_api_request(engine, make_request("GET", "/healthz"), draining)
          .status,
      200);
}

TEST(Handlers, MetricsEndpointServesPrometheusText) {
  pipeline::CampaignEngine engine;
  const HandlerResponse response =
      handle_api_request(engine, make_request("GET", "/metrics"));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.content_type.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(response.body.find("uptime_seconds"), std::string::npos);
}

TEST(Handlers, CampaignLifecycleOverRequests) {
  pipeline::CampaignEngine engine;
  const HandlerResponse created = handle_api_request(
      engine, make_request("POST", "/v1/campaigns", "{\"tasks\": 4}"));
  ASSERT_EQ(created.status, 201);
  JsonValue doc;
  ASSERT_TRUE(json_parse(created.body, doc));
  std::size_t id = 99;
  ASSERT_TRUE(doc.find("campaign")->as_index(&id));
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(engine.campaign_task_count(0), 4u);

  EXPECT_EQ(handle_api_request(
                engine, make_request("POST", "/v1/campaigns", "{\"tasks\": 0}"))
                .status,
            400);
  EXPECT_EQ(handle_api_request(
                engine, make_request("POST", "/v1/campaigns", "not json"))
                .status,
            400);
  // Query string is ignored for routing.
  EXPECT_EQ(handle_api_request(
                engine, make_request("GET", "/v1/campaigns/0/truths?x=1"))
                .status,
            200);
}

TEST(Handlers, InvalidBatchIsRejectedBeforeAnyShardWork) {
  pipeline::CampaignEngine engine;
  engine.add_campaign(4);
  engine.start();
  // Second report has an out-of-range task: the whole batch must bounce
  // with 400 and NO report may reach a shard queue.
  const HandlerResponse response = handle_api_request(
      engine,
      make_request("POST", "/v1/campaigns/0/reports",
                   R"([{"account":0,"task":0,"value":1.0},)"
                   R"({"account":1,"task":9,"value":1.0}])"));
  EXPECT_EQ(response.status, 400);
  EXPECT_EQ(engine.counters().accepted, 0u);
  EXPECT_EQ(engine.counters().submitted, 0u);

  // Same for NaN-shaped values (JSON null) and malformed JSON.
  EXPECT_EQ(handle_api_request(
                engine, make_request("POST", "/v1/campaigns/0/reports",
                                     R"([{"account":0,"task":0}])"))
                .status,
            400);
  EXPECT_EQ(handle_api_request(engine,
                               make_request("POST", "/v1/campaigns/0/reports",
                                            "[{\"account\":"))
                .status,
            400);
  EXPECT_EQ(engine.counters().accepted, 0u);
  engine.stop();
}

TEST(Handlers, IngestAcceptsSingleObjectWrappedAndBareArrayForms) {
  pipeline::CampaignEngine engine;
  engine.add_campaign(4);
  engine.start();
  EXPECT_EQ(handle_api_request(
                engine, make_request("POST", "/v1/campaigns/0/reports",
                                     R"({"account":0,"task":0,"value":2.0})"))
                .status,
            202);
  EXPECT_EQ(
      handle_api_request(
          engine,
          make_request("POST", "/v1/campaigns/0/reports",
                       R"({"reports":[{"account":1,"task":0,"value":4.0}]})"))
          .status,
      202);
  EXPECT_EQ(handle_api_request(
                engine, make_request("POST", "/v1/campaigns/0/reports",
                                     R"([{"account":2,"task":1,"value":6.0}])"))
                .status,
            202);
  engine.drain();
  EXPECT_EQ(engine.counters().applied, 3u);
  EXPECT_EQ(handle_api_request(
                engine, make_request("POST", "/v1/campaigns/7/reports",
                                     R"([{"account":0,"task":0,"value":1.0}])"))
                .status,
            404);
  engine.stop();
}

TEST(Handlers, IngestOnStoppedEngineReturns503) {
  pipeline::CampaignEngine engine;
  engine.add_campaign(2);
  const HandlerResponse response = handle_api_request(
      engine, make_request("POST", "/v1/campaigns/0/reports",
                           R"([{"account":0,"task":0,"value":1.0}])"));
  EXPECT_EQ(response.status, 503);
}

TEST(Handlers, DrainRouteRecognitionAndBarrier) {
  pipeline::CampaignEngine engine;
  engine.add_campaign(2);
  engine.start();
  std::size_t campaign = 99;
  EXPECT_TRUE(is_drain_request(
      make_request("POST", "/v1/campaigns/0/drain"), &campaign));
  EXPECT_EQ(campaign, 0u);
  EXPECT_FALSE(is_drain_request(
      make_request("GET", "/v1/campaigns/0/drain"), &campaign));
  EXPECT_FALSE(is_drain_request(
      make_request("POST", "/v1/campaigns/0/truths"), &campaign));

  handle_api_request(engine,
                     make_request("POST", "/v1/campaigns/0/reports",
                                  R"([{"account":0,"task":0,"value":5.0},)"
                                  R"({"account":1,"task":1,"value":3.0}])"));
  engine.drain();
  const HandlerResponse drained = drain_response(engine, 0);
  EXPECT_EQ(drained.status, 200);
  JsonValue doc;
  ASSERT_TRUE(json_parse(drained.body, doc));
  EXPECT_DOUBLE_EQ(doc.find("applied_reports")->number, 2.0);
  EXPECT_TRUE(doc.find("converged")->boolean);
  EXPECT_EQ(drain_response(engine, 9).status, 404);
  engine.stop();
}

// --- try_submit status coverage ---------------------------------------------

TEST(TrySubmit, FoldsValidationIntoStatuses) {
  pipeline::CampaignEngine engine;
  engine.add_campaign(3);
  EXPECT_EQ(engine.try_submit({0, 0, 0, 1.0, 0.0}),
            pipeline::SubmitStatus::kNotRunning);
  engine.start();
  EXPECT_EQ(engine.try_submit({0, 0, 0, 1.0, 0.0}),
            pipeline::SubmitStatus::kAccepted);
  EXPECT_EQ(engine.try_submit({5, 0, 0, 1.0, 0.0}),
            pipeline::SubmitStatus::kUnknownCampaign);
  EXPECT_EQ(engine.try_submit({0, 0, 7, 1.0, 0.0}),
            pipeline::SubmitStatus::kInvalidTask);
  EXPECT_EQ(engine.try_submit({0, 0, 0, std::nan(""), 0.0}),
            pipeline::SubmitStatus::kInvalidValue);
  engine.drain();
  EXPECT_EQ(engine.counters().applied, 1u);
  engine.stop();
  EXPECT_EQ(engine.try_submit({0, 0, 0, 1.0, 0.0}),
            pipeline::SubmitStatus::kNotRunning);
}

// --- End-to-end over a real socket -------------------------------------------

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

struct ClientResponse {
  int status = 0;
  std::string body;
};

// One round trip on an already-connected keep-alive socket.
ClientResponse round_trip(int fd, const std::string& method,
                          const std::string& target,
                          const std::string& body = {}) {
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: t\r\n";
  if (!body.empty()) {
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
  std::size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::write(fd, request.data() + off, request.size() - off);
    if (n <= 0) return {};
    off += static_cast<std::size_t>(n);
  }
  std::string buffer;
  char chunk[4096];
  while (true) {
    const std::size_t header_end = buffer.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      const std::size_t cl = buffer.find("Content-Length: ");
      std::size_t body_len = 0;
      if (cl != std::string::npos && cl < header_end) {
        body_len = std::strtoul(buffer.c_str() + cl + 16, nullptr, 10);
      }
      if (buffer.size() >= header_end + 4 + body_len) {
        ClientResponse response;
        response.status = std::atoi(buffer.c_str() + 9);
        response.body = buffer.substr(header_end + 4, body_len);
        return response;
      }
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return {};
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

TEST(CampaignServer, EphemeralPortStartupAndHealth) {
  ServerOptions options;
  options.port = 0;
  CampaignServer server(options);
  server.engine().add_campaign(2);
  server.start();
  ASSERT_NE(server.port(), 0);
  const int fd = connect_loopback(server.port());
  EXPECT_EQ(round_trip(fd, "GET", "/healthz").status, 200);
  // Keep-alive: the same connection serves further requests.
  EXPECT_EQ(round_trip(fd, "GET", "/v1/status").status, 200);
  EXPECT_EQ(round_trip(fd, "GET", "/metrics").status, 200);
  ::close(fd);
  server.shutdown();
}

TEST(CampaignServer, ReadyzFlipsWithSetReadyWhileHealthzStaysUp) {
  ServerOptions options;
  options.port = 0;
  CampaignServer server(options);
  server.start();
  const int fd = connect_loopback(server.port());
  EXPECT_EQ(round_trip(fd, "GET", "/readyz").status, 200);
  server.set_ready(false);
  EXPECT_EQ(round_trip(fd, "GET", "/readyz").status, 503);
  // Liveness is unaffected: the process still answers.
  EXPECT_EQ(round_trip(fd, "GET", "/healthz").status, 200);
  server.set_ready(true);
  EXPECT_EQ(round_trip(fd, "GET", "/readyz").status, 200);
  ::close(fd);
  server.shutdown();
}

TEST(CampaignServer, IngestExportsPerCampaignLatencyHistograms) {
  ServerOptions options;
  options.port = 0;
  CampaignServer server(options);
  server.engine().add_campaign(3);
  server.start();
  const int fd = connect_loopback(server.port());
  EXPECT_EQ(round_trip(fd, "POST", "/v1/campaigns/0/reports",
                       "[{\"account\":0,\"task\":0,\"value\":1.0},"
                       "{\"account\":1,\"task\":1,\"value\":2.0}]")
                .status,
            202);
  // The drain barrier guarantees the reports were applied and published,
  // so both lifecycle histograms have closed out their stamps.
  EXPECT_EQ(round_trip(fd, "POST", "/v1/campaigns/0/drain").status, 200);
  const ClientResponse metrics = round_trip(fd, "GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("pipeline_ingest_to_apply_us_count{"
                              "campaign=\"0\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("pipeline_ingest_to_publish_us_count{"
                              "campaign=\"0\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("server_campaign_reports_accepted_total{"
                              "campaign=\"0\"}"),
            std::string::npos);
  ::close(fd);
  server.shutdown();
}

TEST(CampaignServer, MetricStreamDeliversEventsUntilClose) {
  ServerOptions options;
  options.port = 0;
  CampaignServer server(options);
  server.engine().add_campaign(2);
  server.start();

  // Seed one report so the first event carries a campaign delta.
  const int ingest_fd = connect_loopback(server.port());
  EXPECT_EQ(round_trip(ingest_fd, "POST", "/v1/campaigns/0/reports",
                       "{\"account\":0,\"task\":0,\"value\":1.0}")
                .status,
            202);
  ::close(ingest_fd);

  const int fd = connect_loopback(server.port());
  const std::string request =
      "GET /v1/metrics/stream?interval_ms=50 HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));

  // Read until three full events arrived (the immediate one plus ticks)
  // AND one of them carried the campaign-0 delta for the seeded report;
  // capped so a regression fails instead of hanging.
  std::string buffer;
  char chunk[4096];
  std::size_t events = 0;
  while (events < 50 &&
         (events < 3 ||
          buffer.find("\"campaign\": 0") == std::string::npos)) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    ASSERT_GT(n, 0) << "stream ended after " << events << " events";
    buffer.append(chunk, static_cast<std::size_t>(n));
    events = 0;
    for (std::size_t pos = 0;
         (pos = buffer.find("data: ", pos)) != std::string::npos; ++pos) {
      ++events;
    }
  }
  EXPECT_GE(events, 3u);
  EXPECT_NE(buffer.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(buffer.find("Content-Type: text/event-stream"),
            std::string::npos);
  EXPECT_NE(buffer.find("\"engine\": "), std::string::npos);
  EXPECT_NE(buffer.find("\"campaign\": 0"), std::string::npos);
  ::close(fd);
  server.shutdown();
}

TEST(CampaignServer, ParserErrorsSurfaceAsStatusCodesOverTheWire) {
  ServerOptions options;
  options.port = 0;
  options.http.max_body_bytes = 128;
  CampaignServer server(options);
  server.engine().add_campaign(2);
  server.start();

  int fd = connect_loopback(server.port());
  const std::string big(256, 'x');
  EXPECT_EQ(round_trip(fd, "POST", "/v1/campaigns/0/reports", big).status,
            413);
  ::close(fd);

  // Malformed reports travel the full wire path to a 400 with no shard
  // work behind them.
  fd = connect_loopback(server.port());
  EXPECT_EQ(round_trip(fd, "POST", "/v1/campaigns/0/reports", "{oops")
                .status,
            400);
  EXPECT_EQ(server.engine().counters().accepted, 0u);
  ::close(fd);
  server.shutdown();
}

// Acceptance: reports ingested over HTTP followed by a drain match the
// one-shot batch framework on identical data to 1e-9.
TEST(CampaignServer, HttpIngestThenDrainMatchesBatchFramework) {
  constexpr std::size_t kTasks = 12;
  Rng rng(23);
  std::vector<double> truth(kTasks);
  for (auto& t : truth) t = rng.uniform(-90.0, -50.0);

  core::FrameworkInput input;
  input.task_count = kTasks;
  auto add_account = [&](const std::vector<std::size_t>& tasks, double base,
                         double sigma) {
    core::AccountTrace trace;
    std::vector<std::size_t> sorted = tasks;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t t : sorted) {
      const double value =
          (base == 0.0 ? truth[t] : base) + rng.normal(0.0, sigma);
      trace.reports.push_back({t, value, 0.0});
    }
    input.accounts.push_back(std::move(trace));
  };
  for (int s = 0; s < 3; ++s) {
    add_account({0, 1, 2, 3, 4, 5, 6, 7}, -50.0, 0.2);
  }
  for (int s = 0; s < 2; ++s) {
    add_account({4, 5, 6, 7, 8, 9, 10, 11}, -55.0, 0.2);
  }
  for (std::size_t u = 0; u < 8; ++u) {
    add_account({u % kTasks, (u + 3) % kTasks, (u + 6) % kTasks}, 0.0, 2.0);
  }

  struct Flat {
    std::size_t account, task;
    double value;
  };
  std::vector<Flat> reports;
  for (std::size_t a = 0; a < input.accounts.size(); ++a) {
    for (const auto& r : input.accounts[a].reports) {
      reports.push_back({a, r.task, r.value});
    }
  }
  std::shuffle(reports.begin(), reports.end(), rng);

  ServerOptions options;
  options.port = 0;
  options.engine.shard_count = 2;
  options.engine.max_batch = 16;
  CampaignServer server(options);
  server.engine().add_campaign(kTasks);
  server.start();

  // Ingest over the wire in small batches from one keep-alive connection.
  const int fd = connect_loopback(server.port());
  constexpr std::size_t kBatch = 7;
  for (std::size_t begin = 0; begin < reports.size(); begin += kBatch) {
    std::string body = "[";
    for (std::size_t k = begin;
         k < std::min(begin + kBatch, reports.size()); ++k) {
      if (k > begin) body += ",";
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", reports[k].value);
      body += "{\"account\":" + std::to_string(reports[k].account) +
              ",\"task\":" + std::to_string(reports[k].task) +
              ",\"value\":" + value + "}";
    }
    body += "]";
    ASSERT_EQ(round_trip(fd, "POST", "/v1/campaigns/0/reports", body).status,
              202);
  }

  const ClientResponse drained =
      round_trip(fd, "POST", "/v1/campaigns/0/drain");
  ASSERT_EQ(drained.status, 200);
  const ClientResponse truths =
      round_trip(fd, "GET", "/v1/campaigns/0/truths");
  ASSERT_EQ(truths.status, 200);
  const ClientResponse groups =
      round_trip(fd, "GET", "/v1/campaigns/0/groups");
  ASSERT_EQ(groups.status, 200);
  ::close(fd);
  server.shutdown();

  const core::FrameworkResult batch = core::run_framework(
      input, core::AgTs(core::AgTsOptions{1.0}), core::FrameworkOptions{});

  JsonValue doc;
  ASSERT_TRUE(json_parse(truths.body, doc));
  const JsonValue* wire_truths = doc.find("truths");
  ASSERT_NE(wire_truths, nullptr);
  ASSERT_EQ(wire_truths->array.size(), batch.truths.size());
  for (std::size_t j = 0; j < kTasks; ++j) {
    ASSERT_FALSE(std::isnan(batch.truths[j]));
    ASSERT_TRUE(wire_truths->array[j].is_number()) << "task " << j;
    EXPECT_NEAR(wire_truths->array[j].number, batch.truths[j], 1e-9)
        << "task " << j;
  }
  EXPECT_TRUE(doc.find("converged")->boolean);
  EXPECT_DOUBLE_EQ(doc.find("applied_reports")->number,
                   static_cast<double>(reports.size()));

  JsonValue group_doc;
  ASSERT_TRUE(json_parse(groups.body, group_doc));
  const JsonValue* group_of = group_doc.find("group_of");
  ASSERT_NE(group_of, nullptr);
  ASSERT_EQ(group_of->array.size(), batch.grouping.labels().size());
  for (std::size_t a = 0; a < group_of->array.size(); ++a) {
    EXPECT_DOUBLE_EQ(group_of->array[a].number,
                     static_cast<double>(batch.grouping.labels()[a]));
  }
}

TEST(CampaignServer, LiveCampaignCreationOverTheWire) {
  ServerOptions options;
  options.port = 0;
  CampaignServer server(options);
  server.start();  // zero campaigns pre-registered

  const int fd = connect_loopback(server.port());
  const ClientResponse created =
      round_trip(fd, "POST", "/v1/campaigns", "{\"tasks\": 3}");
  ASSERT_EQ(created.status, 201);
  EXPECT_EQ(round_trip(fd, "POST", "/v1/campaigns/0/reports",
                       R"([{"account":0,"task":0,"value":4.0},)"
                       R"({"account":1,"task":0,"value":6.0}])")
                .status,
            202);
  ASSERT_EQ(round_trip(fd, "POST", "/v1/campaigns/0/drain").status, 200);
  const ClientResponse truths =
      round_trip(fd, "GET", "/v1/campaigns/0/truths");
  ASSERT_EQ(truths.status, 200);
  JsonValue doc;
  ASSERT_TRUE(json_parse(truths.body, doc));
  EXPECT_DOUBLE_EQ(doc.find("truths")->array[0].number, 5.0);
  ::close(fd);
  server.shutdown();
}

// --- Multi-loop end-to-end ---------------------------------------------------

// Scoped environment override (SYBILTD_SERVER_LOOPS).
struct EnvGuard {
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  const char* name_;
  std::string old_;
  bool had_ = false;
};

// Write `wire` in one syscall-sized burst, then read `count` complete
// responses off the socket — exercises pipelined keep-alive on one loop.
std::vector<ClientResponse> pipelined(int fd, const std::string& wire,
                                      std::size_t count) {
  std::vector<ClientResponse> out;
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t n = ::write(fd, wire.data() + off, wire.size() - off);
    if (n <= 0) return out;
    off += static_cast<std::size_t>(n);
  }
  std::string buffer;
  char chunk[4096];
  while (out.size() < count) {
    const std::size_t header_end = buffer.find("\r\n\r\n");
    if (header_end != std::string::npos) {
      const std::size_t cl = buffer.find("Content-Length: ");
      std::size_t body_len = 0;
      if (cl != std::string::npos && cl < header_end) {
        body_len = std::strtoul(buffer.c_str() + cl + 16, nullptr, 10);
      }
      if (buffer.size() >= header_end + 4 + body_len) {
        ClientResponse response;
        response.status = std::atoi(buffer.c_str() + 9);
        response.body = buffer.substr(header_end + 4, body_len);
        out.push_back(std::move(response));
        buffer.erase(0, header_end + 4 + body_len);
        continue;
      }
    }
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return out;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return out;
}

std::string ingest_request(std::size_t campaign, const std::string& body) {
  return "POST /v1/campaigns/" + std::to_string(campaign) +
         "/reports HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// Open keep-alive connections until every loop owns at least one.  The
// kernel picks each connection's listener (SO_REUSEPORT), so the test does
// not choose placement; it only checks that all loops were reached.  Each
// connection's /healthz round trip means its loop has adopted it before
// the per-loop gauges are read.
std::vector<int> connect_to_every_loop(const CampaignServer& server) {
  constexpr std::size_t kMaxConnections = 256;
  auto& active = obs::MetricsRegistry::global().gauge_family(
      "server.loop.connections_active", "loop");
  auto loops_reached = [&] {
    std::size_t reached = 0;
    for (std::size_t i = 0; i < server.loop_count(); ++i) {
      if (active.at(std::to_string(i)).value() > 0.0) ++reached;
    }
    return reached;
  };
  std::vector<int> fds;
  while (loops_reached() < server.loop_count()) {
    if (fds.size() == kMaxConnections) {
      ADD_FAILURE() << kMaxConnections << " connections reached only "
                    << loops_reached() << " of " << server.loop_count()
                    << " loops";
      break;
    }
    fds.push_back(connect_loopback(server.port()));
    EXPECT_EQ(round_trip(fds.back(), "GET", "/healthz").status, 200);
  }
  return fds;
}

TEST(MultiLoopServer, FourLoopsServeManyConnections) {
  ServerOptions options;
  options.port = 0;
  options.loops = 4;
  CampaignServer server(options);
  server.engine().add_campaign(4);
  server.start();
  EXPECT_EQ(server.loop_count(), 4u);

  std::vector<int> fds;
  for (int i = 0; i < 8; ++i) fds.push_back(connect_loopback(server.port()));
  for (std::size_t i = 0; i < fds.size(); ++i) {
    const std::string body = "[{\"account\":" + std::to_string(i) +
                             ",\"task\":0,\"value\":1.0}]";
    EXPECT_EQ(
        round_trip(fds[i], "POST", "/v1/campaigns/0/reports", body).status,
        202);
    EXPECT_EQ(round_trip(fds[i], "GET", "/v1/status").status, 200);
  }
  for (int fd : fds) ::close(fd);
  server.shutdown();
  const auto counters = server.engine().counters();
  EXPECT_EQ(counters.accepted, 8u);
  EXPECT_EQ(counters.applied, 8u);
}

TEST(MultiLoopServer, ConnectionsReachEveryLoop) {
  auto& loop_requests = obs::MetricsRegistry::global().counter_family(
      "server.loop.requests", "loop");
  std::vector<std::uint64_t> before;
  for (int i = 0; i < 3; ++i) {
    before.push_back(loop_requests.at(std::to_string(i)).value());
  }

  ServerOptions options;
  options.port = 0;
  options.loops = 3;
  CampaignServer server(options);
  server.engine().add_campaign(2);
  server.start();
  EXPECT_EQ(server.loop_count(), 3u);

  // Every loop accepts on its own listener and serves what it accepted.
  std::vector<int> fds = connect_to_every_loop(server);
  for (int fd : fds) {
    EXPECT_EQ(round_trip(fd, "GET", "/healthz").status, 200);
  }
  for (int fd : fds) ::close(fd);
  server.shutdown();

  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(loop_requests.at(std::to_string(i)).value(), before[i])
        << "loop " << i;
  }
}

TEST(MultiLoopServer, LiveCampaignVisibleOnEveryLoop) {
  ServerOptions options;
  options.port = 0;
  options.loops = 4;
  CampaignServer server(options);
  server.start();  // zero campaigns pre-registered

  // Connections on all four loops, so this really does ingest on each.
  std::vector<int> fds = connect_to_every_loop(server);
  ASSERT_GE(fds.size(), 4u);
  // Create the campaign through one loop's connection; the registration
  // must be visible to try_submit_batch on every other loop thread
  // immediately.
  ASSERT_EQ(round_trip(fds[0], "POST", "/v1/campaigns", "{\"tasks\": 2}")
                .status,
            201);
  for (std::size_t i = 0; i < fds.size(); ++i) {
    const std::string body = "[{\"account\":" + std::to_string(i) +
                             ",\"task\":0,\"value\":4.0}]";
    EXPECT_EQ(
        round_trip(fds[i], "POST", "/v1/campaigns/0/reports", body).status,
        202)
        << "connection " << i;
  }
  ASSERT_EQ(round_trip(fds[1], "POST", "/v1/campaigns/0/drain").status, 200);
  const ClientResponse truths =
      round_trip(fds[2], "GET", "/v1/campaigns/0/truths");
  ASSERT_EQ(truths.status, 200);
  JsonValue doc;
  ASSERT_TRUE(json_parse(truths.body, doc));
  EXPECT_DOUBLE_EQ(doc.find("applied_reports")->number,
                   static_cast<double>(fds.size()));
  for (int fd : fds) ::close(fd);
  server.shutdown();
}

TEST(MultiLoopServer, KeepAlivePipeliningPerLoop) {
  ServerOptions options;
  options.port = 0;
  options.loops = 2;
  CampaignServer server(options);
  server.engine().add_campaign(2);
  server.start();

  std::vector<int> fds = connect_to_every_loop(server);
  for (int fd : fds) {
    std::string wire;
    for (int k = 0; k < 3; ++k) {
      wire += ingest_request(
          0, "[{\"account\":" + std::to_string(k) +
                 ",\"task\":1,\"value\":2.0}]");
    }
    const std::vector<ClientResponse> responses = pipelined(fd, wire, 3);
    ASSERT_EQ(responses.size(), 3u);
    for (const ClientResponse& response : responses) {
      EXPECT_EQ(response.status, 202);
    }
  }
  for (int fd : fds) ::close(fd);
  server.shutdown();
  EXPECT_EQ(server.engine().counters().applied, 3 * fds.size());
}

TEST(MultiLoopServer, ShutdownBarrierFlushesInFlightWritesOnEveryLoop) {
  ServerOptions options;
  options.port = 0;
  options.loops = 4;
  CampaignServer server(options);
  server.engine().add_campaign(4);
  server.start();

  // Connections on every loop, each with an ingest response in flight: the
  // request is written and at least one response byte exists server-side
  // (MSG_PEEK), but nothing has been read.  The SIGTERM-path shutdown must
  // flush every one of these before the loops exit.
  std::vector<int> fds = connect_to_every_loop(server);
  for (std::size_t i = 0; i < fds.size(); ++i) {
    const std::string wire = ingest_request(
        0, "[{\"account\":" + std::to_string(i) +
               ",\"task\":" + std::to_string(i % 4) + ",\"value\":1.5}]");
    ASSERT_EQ(::write(fds[i], wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));
  }
  for (int fd : fds) {
    char peek = 0;
    ASSERT_EQ(::recv(fd, &peek, 1, MSG_PEEK), 1);  // response started
  }

  server.request_shutdown();  // what the SIGTERM handler calls
  server.wait();              // barrier across all four loops

  // Every in-flight response is intact in the socket even though the
  // server is gone.
  std::string buffer;
  char chunk[4096];
  for (int fd : fds) {
    buffer.clear();
    ssize_t n = 0;
    while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(buffer.compare(0, 12, "HTTP/1.1 202"), 0) << buffer;
    ::close(fd);
  }
  const auto counters = server.engine().counters();
  EXPECT_EQ(counters.accepted, fds.size());
  EXPECT_EQ(counters.applied, fds.size());
  EXPECT_TRUE(server.engine().snapshot(0)->converged);
}

TEST(MultiLoopServer, LoopCountResolvesFromEnvAndOptions) {
  EnvGuard loops_env("SYBILTD_SERVER_LOOPS", "3");
  {
    ServerOptions options;
    options.port = 0;  // options.loops = 0 defers to the environment
    CampaignServer server(options);
    server.engine().add_campaign(1);
    server.start();
    EXPECT_EQ(server.loop_count(), 3u);
    server.shutdown();
  }
  {
    ServerOptions options;
    options.port = 0;
    options.loops = 2;  // explicit option wins over the environment
    CampaignServer server(options);
    server.engine().add_campaign(1);
    server.start();
    EXPECT_EQ(server.loop_count(), 2u);
    server.shutdown();
  }
}

// Acceptance: the batch-framework equivalence holds with four loops and the
// ingest split across four connections — report order across connections is
// free, and last-write-wins per (account, task) makes the result invariant.
TEST(MultiLoopServer, HttpIngestThenDrainMatchesBatchFrameworkAcrossLoops) {
  constexpr std::size_t kTasks = 12;
  Rng rng(29);
  std::vector<double> truth(kTasks);
  for (auto& t : truth) t = rng.uniform(-90.0, -50.0);

  core::FrameworkInput input;
  input.task_count = kTasks;
  auto add_account = [&](const std::vector<std::size_t>& tasks, double base,
                         double sigma) {
    core::AccountTrace trace;
    std::vector<std::size_t> sorted = tasks;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t t : sorted) {
      const double value =
          (base == 0.0 ? truth[t] : base) + rng.normal(0.0, sigma);
      trace.reports.push_back({t, value, 0.0});
    }
    input.accounts.push_back(std::move(trace));
  };
  for (int s = 0; s < 3; ++s) {
    add_account({0, 1, 2, 3, 4, 5, 6, 7}, -50.0, 0.2);
  }
  for (int s = 0; s < 2; ++s) {
    add_account({4, 5, 6, 7, 8, 9, 10, 11}, -55.0, 0.2);
  }
  for (std::size_t u = 0; u < 8; ++u) {
    add_account({u % kTasks, (u + 3) % kTasks, (u + 6) % kTasks}, 0.0, 2.0);
  }

  struct Flat {
    std::size_t account, task;
    double value;
  };
  std::vector<Flat> reports;
  for (std::size_t a = 0; a < input.accounts.size(); ++a) {
    for (const auto& r : input.accounts[a].reports) {
      reports.push_back({a, r.task, r.value});
    }
  }
  std::shuffle(reports.begin(), reports.end(), rng);

  ServerOptions options;
  options.port = 0;
  options.loops = 4;
  options.engine.shard_count = 2;
  options.engine.max_batch = 16;
  CampaignServer server(options);
  server.engine().add_campaign(kTasks);
  server.start();

  // Four keep-alive connections (spread over the loops by SO_REUSEPORT;
  // wherever they land the result must match), batches dealt round-robin.
  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) fds.push_back(connect_loopback(server.port()));
  constexpr std::size_t kBatch = 5;
  std::size_t turn = 0;
  for (std::size_t begin = 0; begin < reports.size(); begin += kBatch) {
    std::string body = "[";
    for (std::size_t k = begin;
         k < std::min(begin + kBatch, reports.size()); ++k) {
      if (k > begin) body += ",";
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", reports[k].value);
      body += "{\"account\":" + std::to_string(reports[k].account) +
              ",\"task\":" + std::to_string(reports[k].task) +
              ",\"value\":" + value + "}";
    }
    body += "]";
    const int fd = fds[turn++ % fds.size()];
    ASSERT_EQ(round_trip(fd, "POST", "/v1/campaigns/0/reports", body).status,
              202);
  }

  ASSERT_EQ(round_trip(fds[0], "POST", "/v1/campaigns/0/drain").status, 200);
  const ClientResponse truths =
      round_trip(fds[1], "GET", "/v1/campaigns/0/truths");
  ASSERT_EQ(truths.status, 200);
  for (int fd : fds) ::close(fd);
  server.shutdown();

  const core::FrameworkResult batch = core::run_framework(
      input, core::AgTs(core::AgTsOptions{1.0}), core::FrameworkOptions{});

  JsonValue doc;
  ASSERT_TRUE(json_parse(truths.body, doc));
  const JsonValue* wire_truths = doc.find("truths");
  ASSERT_NE(wire_truths, nullptr);
  ASSERT_EQ(wire_truths->array.size(), batch.truths.size());
  for (std::size_t j = 0; j < kTasks; ++j) {
    ASSERT_FALSE(std::isnan(batch.truths[j]));
    ASSERT_TRUE(wire_truths->array[j].is_number()) << "task " << j;
    EXPECT_NEAR(wire_truths->array[j].number, batch.truths[j], 1e-9)
        << "task " << j;
  }
  EXPECT_TRUE(doc.find("converged")->boolean);
  EXPECT_DOUBLE_EQ(doc.find("applied_reports")->number,
                   static_cast<double>(reports.size()));
}

TEST(CampaignServer, GracefulShutdownDrainsAcceptedReports) {
  ServerOptions options;
  options.port = 0;
  CampaignServer server(options);
  server.engine().add_campaign(2);
  server.start();

  const int fd = connect_loopback(server.port());
  ASSERT_EQ(round_trip(fd, "POST", "/v1/campaigns/0/reports",
                       R"([{"account":0,"task":0,"value":1.0},)"
                       R"({"account":1,"task":1,"value":2.0}])")
                .status,
            202);
  ::close(fd);

  server.request_shutdown();  // what the SIGTERM handler calls
  server.wait();
  // The graceful path drained before stopping: accepted == applied and the
  // final snapshot reflects every report.
  const auto counters = server.engine().counters();
  EXPECT_EQ(counters.accepted, 2u);
  EXPECT_EQ(counters.applied, 2u);
  EXPECT_TRUE(server.engine().snapshot(0)->converged);
}

// A request that ends exactly on the loop's 16 KiB read size, then the
// client's half-close: the read that fills the buffer and the EOF behind it
// can land in one wakeup, and the request must still be answered and
// applied before the connection closes.  Repeated because that timing is
// the kernel's to pick.
TEST(CampaignServer, HalfCloseOnReadBoundaryStillAnswers) {
  constexpr std::size_t kRequestBytes = 16384;
  constexpr std::size_t kRounds = 50;
  ServerOptions options;
  options.port = 0;
  CampaignServer server(options);
  server.engine().add_campaign(2);
  server.start();

  for (std::size_t round = 0; round < kRounds; ++round) {
    // Pad the JSON with whitespace until the whole request is exactly
    // kRequestBytes (the Content-Length digits move with the padding).
    const std::string report = "[{\"account\":" + std::to_string(round) +
                               ",\"task\":0,\"value\":1.0}";
    std::string wire;
    std::size_t pad = 0;
    while ((wire = ingest_request(0, report + std::string(pad, ' ') + "]"))
               .size() != kRequestBytes) {
      pad += kRequestBytes - wire.size();
    }
    const int fd = connect_loopback(server.port());
    std::size_t off = 0;
    while (off < wire.size()) {
      const ssize_t n = ::write(fd, wire.data() + off, wire.size() - off);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
    std::string response;
    char chunk[4096];
    ssize_t n = 0;
    while ((n = ::read(fd, chunk, sizeof(chunk))) > 0) {
      response.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(fd);
    EXPECT_EQ(response.compare(0, 12, "HTTP/1.1 202"), 0)
        << "round " << round << " got \"" << response << "\"";
  }
  server.shutdown();
  const auto counters = server.engine().counters();
  EXPECT_EQ(counters.accepted, kRounds);
  EXPECT_EQ(counters.applied, kRounds);
}

// Wait until the server has parsed `count` more requests than `before`.
void await_requests(std::uint64_t before, std::uint64_t count) {
  auto& requests = obs::MetricsRegistry::global().counter("server.requests");
  for (int i = 0; i < 5000 && requests.value() < before + count; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(requests.value(), before + count);
}

// True when nothing arrives on `fd` within `ms` milliseconds.
bool quiet_for(int fd, int ms) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, ms) == 0;
}

// The parked pool holds every drain pending, so a peer can reset its
// connection while the drain is still parked on the loop.  The loop must
// keep serving, and the abandoned drain's answer must reach nobody —
// including a new connection that reuses the descriptor number.
TEST(CampaignServer, PeerResetDuringParkedDrainLeavesLoopServing) {
  ParkedPool pool;
  ServerOptions options;
  options.port = 0;
  CampaignServer server(options);
  server.engine().add_campaign(2);
  server.start();

  const int other = connect_loopback(server.port());
  EXPECT_EQ(round_trip(other, "POST", "/v1/campaigns/0/reports",
                       "{\"account\":0,\"task\":0,\"value\":1.0}")
                .status,
            202);
  auto& requests = obs::MetricsRegistry::global().counter("server.requests");
  const std::uint64_t before = requests.value();
  const int drainer = connect_loopback(server.port());
  const std::string drain =
      "POST /v1/campaigns/0/drain HTTP/1.1\r\nHost: t\r\n\r\n";
  EXPECT_EQ(::write(drainer, drain.data(), drain.size()),
            static_cast<ssize_t>(drain.size()));
  await_requests(before, 1);  // the drain is parked now
  const linger reset{1, 0};   // close with RST instead of FIN
  ::setsockopt(drainer, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
  ::close(drainer);

  const int fresh = connect_loopback(server.port());
  EXPECT_EQ(round_trip(fresh, "GET", "/healthz").status, 200);
  EXPECT_EQ(round_trip(other, "POST", "/v1/campaigns/0/reports",
                       "{\"account\":1,\"task\":1,\"value\":2.0}")
                .status,
            202);
  pool.release();
  const ClientResponse drained =
      round_trip(fresh, "POST", "/v1/campaigns/0/drain");
  EXPECT_EQ(drained.status, 200);
  JsonValue doc;
  ASSERT_TRUE(json_parse(drained.body, doc));
  EXPECT_DOUBLE_EQ(doc.find("applied_reports")->number, 2.0);
  EXPECT_TRUE(quiet_for(fresh, 50)) << "a stale drain answer arrived";
  EXPECT_TRUE(quiet_for(other, 0));
  ::close(fresh);
  ::close(other);
  server.shutdown();
}

// Requests pipelined behind a drain wait unanswered while it is parked,
// then are answered in order after it: the ingest behind the first drain
// is not covered by it, and is covered by the second.
TEST(CampaignServer, RequestsPipelinedBehindDrainAnswerInOrderAfterIt) {
  ParkedPool pool;
  ServerOptions options;
  options.port = 0;
  CampaignServer server(options);
  server.engine().add_campaign(2);
  server.start();

  const int fd = connect_loopback(server.port());
  EXPECT_EQ(round_trip(fd, "POST", "/v1/campaigns/0/reports",
                       "[{\"account\":0,\"task\":0,\"value\":1.0},"
                       "{\"account\":1,\"task\":1,\"value\":2.0}]")
                .status,
            202);
  const std::string drain =
      "POST /v1/campaigns/0/drain HTTP/1.1\r\nHost: t\r\n\r\n";
  const std::string wire =
      drain +
      ingest_request(0, "{\"account\":2,\"task\":0,\"value\":3.0}") +
      drain;
  EXPECT_EQ(::write(fd, wire.data(), wire.size()),
            static_cast<ssize_t>(wire.size()));
  EXPECT_TRUE(quiet_for(fd, 100)) << "answered before the drain completed";
  pool.release();

  const std::vector<ClientResponse> responses = pipelined(fd, "", 3);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status, 200);
  EXPECT_EQ(responses[1].status, 202);
  EXPECT_EQ(responses[2].status, 200);
  JsonValue first;
  JsonValue second;
  ASSERT_TRUE(json_parse(responses[0].body, first));
  ASSERT_TRUE(json_parse(responses[2].body, second));
  EXPECT_DOUBLE_EQ(first.find("applied_reports")->number, 2.0);
  EXPECT_DOUBLE_EQ(second.find("applied_reports")->number, 3.0);
  ::close(fd);
  server.shutdown();
}

// --- Fast decode: zero-allocation proof -------------------------------------

TEST(ReportDecodeFast, SteadyStateDecodesWithZeroHeapAllocations) {
  std::string body = "[";
  for (int i = 0; i < 100; ++i) {
    if (i > 0) body += ',';
    body += "{\"account\":" + std::to_string(i) +
            ",\"task\":" + std::to_string(i % 16) +
            ",\"value\":" + std::to_string(i) + ".5}";
  }
  body += "]";

  // Warm the thread's workspace pool and the SIMD dispatch table.
  {
    const DecodedReports warm = decode_reports(body, 0, 16);
    ASSERT_TRUE(warm.ok);
    ASSERT_TRUE(warm.fast_path);
    ASSERT_EQ(warm.reports.size(), 100u);
  }

  bool ok = false, fast = false;
  std::size_t count = 0;
  double checksum = 0.0;
  const std::uint64_t allocs = count_allocations([&] {
    const DecodedReports decoded = decode_reports(body, 0, 16);
    ok = decoded.ok;
    fast = decoded.fast_path;
    count = decoded.reports.size();
    for (const pipeline::Report& r : decoded.reports) checksum += r.value;
  });
  EXPECT_TRUE(ok);
  EXPECT_TRUE(fast);
  EXPECT_EQ(count, 100u);
  EXPECT_DOUBLE_EQ(checksum, 100 * 0.5 + 99.0 * 100.0 / 2.0);
  EXPECT_EQ(allocs, 0u)
      << "fast-path decode must not touch the heap once the workspace "
         "pool is warm";
}

// --- Snapshot response cache ------------------------------------------------

pipeline::CampaignSnapshot make_snapshot(std::size_t campaign,
                                         std::uint64_t version) {
  pipeline::CampaignSnapshot snapshot;
  snapshot.campaign = campaign;
  snapshot.version = version;
  snapshot.truths = {1.5, std::nan(""), 3.0};
  snapshot.group_weights = {0.25, 0.75};
  snapshot.group_of = {0, 1, 1};
  snapshot.group_count = 2;
  snapshot.applied_reports = 7;
  return snapshot;
}

TEST(SnapshotCache, ServesOneRenderingPerSnapshotIdentity) {
  SnapshotResponseCache cache;
  const auto snap = std::make_shared<const pipeline::CampaignSnapshot>(
      make_snapshot(5, 9));

  const auto first =
      cache.get(5, snap, SnapshotResponseCache::View::kTruths);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(*first, pipeline::to_json(*snap));

  // Same snapshot pointer -> the very same buffer, not an equal copy.
  const auto second =
      cache.get(5, snap, SnapshotResponseCache::View::kTruths);
  EXPECT_EQ(first.get(), second.get());

  // The groups view caches independently under the same entry.
  const auto groups =
      cache.get(5, snap, SnapshotResponseCache::View::kGroups);
  std::string expected_groups;
  pipeline::groups_json_into(*snap, expected_groups);
  EXPECT_EQ(*groups, expected_groups);
  EXPECT_EQ(groups.get(),
            cache.get(5, snap, SnapshotResponseCache::View::kGroups).get());

  // A new snapshot version invalidates; the old buffer stays valid for
  // readers still holding it.
  const auto next = std::make_shared<const pipeline::CampaignSnapshot>(
      make_snapshot(5, 10));
  const auto third =
      cache.get(5, next, SnapshotResponseCache::View::kTruths);
  EXPECT_NE(first.get(), third.get());
  EXPECT_EQ(*third, pipeline::to_json(*next));
  EXPECT_EQ(*first, pipeline::to_json(*snap));
}

TEST(SnapshotCache, DistinguishesSameVersionFromDifferentEngines) {
  // Two engines in one process can both serve campaign 0 at version 1
  // (ubiquitous in tests).  Identity keying must not leak one engine's
  // rendering to the other.
  SnapshotResponseCache cache;
  auto a = std::make_shared<const pipeline::CampaignSnapshot>(
      make_snapshot(0, 1));
  auto b_value = make_snapshot(0, 1);
  b_value.truths = {42.0};
  const auto b =
      std::make_shared<const pipeline::CampaignSnapshot>(std::move(b_value));

  EXPECT_EQ(*cache.get(0, a, SnapshotResponseCache::View::kTruths),
            pipeline::to_json(*a));
  EXPECT_EQ(*cache.get(0, b, SnapshotResponseCache::View::kTruths),
            pipeline::to_json(*b));

  // And a recycled allocation at the same address cannot alias: the entry
  // pins its snapshot, so `a`'s storage can't be reused while cached.
  const auto held = cache.get(0, a, SnapshotResponseCache::View::kTruths);
  EXPECT_EQ(*held, pipeline::to_json(*a));
}

TEST(SnapshotCache, HandlerServesSharedBodyAndCountsHits) {
  pipeline::CampaignEngine engine;
  engine.add_campaign(3);
  engine.start();
  ASSERT_EQ(handle_api_request(
                engine, make_request("POST", "/v1/campaigns/0/reports",
                                     R"([{"account":0,"task":0,"value":5.0}])"))
                .status,
            202);
  engine.drain();

  const HandlerResponse truths =
      handle_api_request(engine, make_request("GET", "/v1/campaigns/0/truths"));
  ASSERT_EQ(truths.status, 200);
  ASSERT_NE(truths.shared_body, nullptr);
  EXPECT_EQ(truths.text(), pipeline::to_json(*engine.snapshot(0)));

  // A second GET of the same snapshot returns the same shared buffer.
  const HandlerResponse again =
      handle_api_request(engine, make_request("GET", "/v1/campaigns/0/truths"));
  ASSERT_EQ(again.status, 200);
  EXPECT_EQ(truths.shared_body.get(), again.shared_body.get());

  const HandlerResponse groups =
      handle_api_request(engine, make_request("GET", "/v1/campaigns/0/groups"));
  ASSERT_EQ(groups.status, 200);
  ASSERT_NE(groups.shared_body, nullptr);
  std::string expected;
  pipeline::groups_json_into(*engine.snapshot(0), expected);
  EXPECT_EQ(groups.text(), expected);

  // After more reports are applied the version ticks and a GET re-renders.
  ASSERT_EQ(handle_api_request(
                engine, make_request("POST", "/v1/campaigns/0/reports",
                                     R"([{"account":1,"task":1,"value":2.0}])"))
                .status,
            202);
  engine.drain();
  const HandlerResponse fresh =
      handle_api_request(engine, make_request("GET", "/v1/campaigns/0/truths"));
  ASSERT_EQ(fresh.status, 200);
  EXPECT_NE(truths.shared_body.get(), fresh.shared_body.get());
  EXPECT_EQ(fresh.text(), pipeline::to_json(*engine.snapshot(0)));
  engine.stop();
}

}  // namespace
}  // namespace sybiltd::server
