#pragma once

/// \file http_client.hpp
/// A minimal blocking HTTP/1.1 keep-alive client for loopback load
/// generation: Content-Length framing, one connection reused across
/// requests.

#include <string>

namespace perfbench {

struct HttpReply {
  int status = 0;      ///< 0 when the exchange failed
  std::string body;
  bool complete = false;  ///< body length matched Content-Length
};

class HttpClient {
 public:
  explicit HttpClient(int port) : port_(port) {}
  ~HttpClient() { close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// One request/response exchange; reconnects when the connection is
  /// closed. Never retries a failed exchange.
  HttpReply call(const std::string& method, const std::string& path,
                 const std::string& body = "");
  void close();

 private:
  bool connect();
  bool readMore();

  int port_;
  int fd_ = -1;
  std::string inbuf_;
};

}  // namespace perfbench
