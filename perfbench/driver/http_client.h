// Minimal HTTP/1.1 client for the load generator: one keep-alive loopback
// connection per object, non-blocking so a single generator thread can
// drive several connections open-loop, with a blocking round trip for the
// closed-loop workload.  Every response is parsed for its status and body;
// nothing is credited without reading it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util.h"

namespace perfbench {

struct HttpResponse {
  int status = 0;
  std::string body;
};

class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  bool connect(std::uint16_t port);
  int fd() const { return fd_; }

  // Send `request` and wait for its response until `deadline`.  False on
  // timeout, a short read, a closed connection or a malformed response.
  bool roundtrip(std::string_view request, HttpResponse* response,
                 Clock::time_point deadline);

  // Open-loop primitives: queue bytes, write what the socket accepts, read
  // what arrived, and pop complete responses in order.
  void queue(std::string_view bytes);
  bool flush();  // false on a write error
  bool has_pending_output() const { return out_off_ < out_.size(); }
  bool receive();  // false on EOF or a read error
  bool next_response(HttpResponse* out);
  bool malformed() const { return malformed_; }

 private:
  int fd_ = -1;
  std::string out_;
  std::size_t out_off_ = 0;
  std::string in_;
  std::size_t in_off_ = 0;
  bool malformed_ = false;
};

std::string make_request(std::string_view method, std::string_view path,
                         std::string_view body = {});

// Name of the SIMD level the server dispatched, from the `simd_level`
// gauge on its /metrics page; "unknown" when absent.
std::string server_simd_level(HttpConnection* connection);

// Value of the first `"key": <unsigned integer>` in a JSON body.
bool json_u64(std::string_view body, std::string_view key, std::uint64_t* out);
// Every `"key": <n>` occurrence, for per-shard fields.
std::vector<std::uint64_t> json_u64_all(std::string_view body,
                                        std::string_view key);
// The flat number array under `"key": [...]`; null entries become NaN.
bool json_number_array(std::string_view body, std::string_view key,
                       std::vector<double>* out);

}  // namespace perfbench
