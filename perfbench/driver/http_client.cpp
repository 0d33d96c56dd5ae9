#include "http_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace perfbench {

HttpConnection::~HttpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpConnection::connect(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
}

void HttpConnection::queue(std::string_view bytes) {
  if (out_off_ == out_.size()) {
    out_.clear();
    out_off_ = 0;
  }
  out_.append(bytes);
}

bool HttpConnection::flush() {
  while (out_off_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_off_, out_.size() - out_off_,
                             MSG_NOSIGNAL);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else {
      return false;
    }
  }
  return true;
}

bool HttpConnection::receive() {
  char chunk[65536];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      in_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

bool HttpConnection::next_response(HttpResponse* out) {
  const std::string_view buf(in_.data() + in_off_, in_.size() - in_off_);
  const std::size_t header_end = buf.find("\r\n\r\n");
  if (header_end == std::string_view::npos) return false;
  const std::size_t space = buf.find(' ');
  if (buf.substr(0, 5) != "HTTP/" || space == std::string_view::npos ||
      space + 4 > header_end) {
    malformed_ = true;
    return false;
  }
  const int status = std::atoi(std::string(buf.substr(space + 1, 3)).c_str());
  std::size_t length = 0;
  bool has_length = false;
  std::size_t line = buf.find("\r\n") + 2;
  while (line < header_end) {
    const std::size_t eol = buf.find("\r\n", line);
    const std::string_view header = buf.substr(line, eol - line);
    const std::size_t colon = header.find(':');
    if (colon != std::string_view::npos) {
      std::string name(header.substr(0, colon));
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      if (name == "content-length") {
        length = std::strtoull(std::string(header.substr(colon + 1)).c_str(),
                               nullptr, 10);
        has_length = true;
      }
    }
    line = eol + 2;
  }
  if (!has_length) {
    malformed_ = true;  // the server frames every response with a length
    return false;
  }
  const std::size_t total = header_end + 4 + length;
  if (buf.size() < total) return false;
  out->status = status;
  out->body.assign(buf.substr(header_end + 4, length));
  in_off_ += total;
  if (in_off_ == in_.size()) {
    in_.clear();
    in_off_ = 0;
  } else if (in_off_ > (1u << 20)) {
    in_.erase(0, in_off_);
    in_off_ = 0;
  }
  return true;
}

bool HttpConnection::roundtrip(std::string_view request, HttpResponse* response,
                               Clock::time_point deadline) {
  queue(request);
  while (true) {
    if (!flush()) return false;
    if (next_response(response)) return true;
    if (malformed_) return false;
    const auto now = Clock::now();
    if (now >= deadline) return false;
    pollfd pfd{fd_, static_cast<short>(POLLIN | (has_pending_output() ? POLLOUT : 0)),
               0};
    const double wait_ms = std::ceil(ms_between(now, deadline));
    const int rc = ::poll(&pfd, 1, static_cast<int>(std::min(wait_ms, 1000.0)));
    if (rc < 0 && errno != EINTR) return false;
    if (rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR))) {
      const bool open = receive();
      if (next_response(response)) return true;
      if (!open || malformed_) return false;
    }
  }
}

std::string make_request(std::string_view method, std::string_view path,
                         std::string_view body) {
  std::string out;
  out.reserve(128 + body.size());
  out.append(method);
  out += ' ';
  out.append(path);
  out += " HTTP/1.1\r\nHost: bench\r\n";
  if (!body.empty() || method == "POST") {
    out += "Content-Type: application/json\r\nContent-Length: ";
    out += std::to_string(body.size());
    out += "\r\n";
  }
  out += "\r\n";
  out.append(body);
  return out;
}

std::string server_simd_level(HttpConnection* connection) {
  HttpResponse response;
  if (!connection->roundtrip(make_request("GET", "/metrics"), &response,
                             Clock::now() + std::chrono::seconds(10)) ||
      response.status != 200) {
    return "unknown";
  }
  const std::size_t at = response.body.find("\nsimd_level ");
  if (at == std::string::npos) return "unknown";
  const int level = std::atoi(response.body.c_str() + at + 12);
  static const char* const kNames[] = {"scalar", "sse2", "neon", "avx2"};
  return level >= 0 && level < 4 ? kNames[level] : "unknown";
}

namespace {

// Position right after `"key":` and any spaces, or npos.
std::size_t value_start(std::string_view body, std::string_view key,
                        std::size_t from) {
  std::string needle(1, '"');
  needle.append(key);
  needle.append("\":");
  const std::size_t at = body.find(needle, from);
  if (at == std::string_view::npos) return at;
  std::size_t pos = at + needle.size();
  while (pos < body.size() && body[pos] == ' ') ++pos;
  return pos;
}

bool parse_u64(std::string_view body, std::size_t pos, std::uint64_t* out) {
  if (pos >= body.size() || body[pos] < '0' || body[pos] > '9') return false;
  std::uint64_t value = 0;
  while (pos < body.size() && body[pos] >= '0' && body[pos] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(body[pos] - '0');
    ++pos;
  }
  *out = value;
  return true;
}

}  // namespace

bool json_u64(std::string_view body, std::string_view key, std::uint64_t* out) {
  const std::size_t pos = value_start(body, key, 0);
  return pos != std::string_view::npos && parse_u64(body, pos, out);
}

std::vector<std::uint64_t> json_u64_all(std::string_view body,
                                        std::string_view key) {
  std::vector<std::uint64_t> values;
  std::size_t from = 0;
  while (true) {
    const std::size_t pos = value_start(body, key, from);
    if (pos == std::string_view::npos) break;
    std::uint64_t value = 0;
    if (parse_u64(body, pos, &value)) values.push_back(value);
    from = pos;
  }
  return values;
}

bool json_number_array(std::string_view body, std::string_view key,
                       std::vector<double>* out) {
  std::size_t pos = value_start(body, key, 0);
  if (pos == std::string_view::npos || pos >= body.size() || body[pos] != '[') {
    return false;
  }
  out->clear();
  ++pos;
  const std::string text(body.substr(pos, body.find(']', pos) - pos));
  const char* cursor = text.c_str();
  while (*cursor != '\0') {
    while (*cursor == ' ' || *cursor == ',') ++cursor;
    if (*cursor == '\0') break;
    if (std::string_view(cursor).substr(0, 4) == "null") {
      out->push_back(std::numeric_limits<double>::quiet_NaN());
      cursor += 4;
      continue;
    }
    char* end = nullptr;
    const double value = std::strtod(cursor, &end);
    if (end == cursor) return false;
    out->push_back(value);
    cursor = end;
  }
  return true;
}

}  // namespace perfbench
