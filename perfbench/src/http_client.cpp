#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>

namespace perfbench {

void HttpClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  inbuf_.clear();
}

bool HttpClient::connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    close();
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return true;
}

bool HttpClient::readMore() {
  char chunk[16384];
  const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
  if (n <= 0) return false;
  inbuf_.append(chunk, static_cast<std::size_t>(n));
  return true;
}

HttpReply HttpClient::call(const std::string& method, const std::string& path,
                           const std::string& body) {
  HttpReply reply;
  if (fd_ < 0 && !connect()) return reply;
  std::string req = method + " " + path +
                    " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    "Connection: keep-alive\r\n"
                    "Content-Type: application/json\r\nContent-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body;
  for (std::size_t sent = 0; sent < req.size();) {
    const ssize_t n =
        ::send(fd_, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      close();
      return reply;
    }
    sent += static_cast<std::size_t>(n);
  }
  std::size_t headEnd;
  while ((headEnd = inbuf_.find("\r\n\r\n")) == std::string::npos)
    if (!readMore()) {
      close();
      return reply;
    }
  const std::string head = inbuf_.substr(0, headEnd);
  if (head.rfind("HTTP/1.1 ", 0) == 0)
    reply.status = std::atoi(head.c_str() + 9);
  std::string lower = head;
  std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  std::size_t contentLength = 0;
  const std::size_t cl = lower.find("\r\ncontent-length:");
  if (cl != std::string::npos)
    contentLength = static_cast<std::size_t>(
        std::strtoull(head.c_str() + cl + 17, nullptr, 10));
  const bool closeAfter =
      lower.find("\r\nconnection: close") != std::string::npos;
  const std::size_t bodyStart = headEnd + 4;
  while (inbuf_.size() - bodyStart < contentLength)
    if (!readMore()) {
      reply.body = inbuf_.substr(bodyStart);
      close();
      return reply;
    }
  reply.body = inbuf_.substr(bodyStart, contentLength);
  reply.complete = true;
  inbuf_.erase(0, bodyStart + contentLength);
  if (closeAfter) close();
  return reply;
}

}  // namespace perfbench
