// Minimal HTTP/1.0 client for the loopback daemon (one request per
// connection, as obs::HttpServer serves them), plus the idle-client probe.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpReply {
  bool ok = false;       ///< a complete response arrived before the deadline
  int status = 0;
  std::string body;
  std::string error;     ///< why !ok
};

/// GET `target` from 127.0.0.1:`port`, reading to EOF. The whole exchange
/// must finish within `timeout_ms`.
[[nodiscard]] HttpReply http_get(std::uint16_t port, const std::string& target,
                                 int timeout_ms);

/// Parse a raw response ("HTTP/1.x <status> ...\r\n...\r\n\r\n<body>").
[[nodiscard]] HttpReply parse_http_response(const std::string& raw);

/// One client holds a connection open without sending anything while a
/// second sends GET /healthz. Returns true when a 200 arrived within
/// `deadline_ms`. Either way, the idle connection is then half-closed and
/// both replies are read to EOF before returning (within `drain_ms`), so
/// the server never writes to a closed socket.
[[nodiscard]] bool idle_client_probe(std::uint16_t port, int deadline_ms,
                                     int drain_ms);

}  // namespace perfbench
