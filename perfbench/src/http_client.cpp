#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "stats.hpp"

namespace perfbench {
namespace {

/// Owns one socket descriptor.
class Socket {
 public:
  Socket() : fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {}
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
};

bool connect_loopback(const Socket& s, std::uint16_t port) {
  if (s.fd() < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) == 0;
}

bool send_all(const Socket& s, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(s.fd(), data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read until EOF or until `deadline` (monotonic seconds) passes.
/// Returns true on EOF.
bool read_to_eof(const Socket& s, double deadline, std::string& out) {
  char buf[16384];
  while (true) {
    const double left_ms = (deadline - now_s()) * 1000.0;
    if (left_ms <= 0.0) return false;
    pollfd pfd{s.fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left_ms) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t n = ::recv(s.fd(), buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return true;
    out.append(buf, static_cast<std::size_t>(n));
  }
}

std::string request_line(const std::string& target) {
  return "GET " + target + " HTTP/1.0\r\n\r\n";
}

}  // namespace

HttpReply parse_http_response(const std::string& raw) {
  HttpReply r;
  const auto head_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.", 0) != 0 || head_end == std::string::npos) {
    r.error = "malformed response";
    return r;
  }
  const auto sp = raw.find(' ');
  if (sp == std::string::npos || sp > head_end) {
    r.error = "malformed status line";
    return r;
  }
  r.status = std::atoi(raw.c_str() + sp + 1);
  if (r.status < 100 || r.status > 599) {
    r.error = "bad status";
    return r;
  }
  r.body = raw.substr(head_end + 4);
  r.ok = true;
  return r;
}

HttpReply http_get(std::uint16_t port, const std::string& target,
                   int timeout_ms) {
  const double deadline = now_s() + timeout_ms / 1000.0;
  Socket s;
  if (!connect_loopback(s, port)) return {false, 0, {}, "connect failed"};
  if (!send_all(s, request_line(target))) {
    return {false, 0, {}, "send failed"};
  }
  std::string raw;
  if (!read_to_eof(s, deadline, raw)) return {false, 0, {}, "timed out"};
  return parse_http_response(raw);
}

bool idle_client_probe(std::uint16_t port, int deadline_ms, int drain_ms) {
  Socket idle;
  Socket probe;
  if (!connect_loopback(idle, port) || !connect_loopback(probe, port)) {
    return false;
  }
  const double start = now_s();
  if (!send_all(probe, request_line("/healthz"))) return false;
  std::string raw;
  const bool answered =
      read_to_eof(probe, start + deadline_ms / 1000.0, raw) &&
      parse_http_response(raw).status == 200;
  // Release the server: end the idle request, then collect both replies.
  ::shutdown(idle.fd(), SHUT_WR);
  const double drain_deadline = now_s() + drain_ms / 1000.0;
  std::string idle_reply;
  (void)read_to_eof(idle, drain_deadline, idle_reply);
  if (!answered) (void)read_to_eof(probe, drain_deadline, raw);
  return answered;
}

}  // namespace perfbench
