// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.

#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <strings.h>

namespace perfbench {

std::string BuildHttpRequest(std::string_view method, std::string_view target,
                             std::string_view body) {
  std::string request;
  request.reserve(body.size() + 128);
  request.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
  request += "Host: 127.0.0.1\r\n";
  request += "Content-Type: text/html\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request.append(body);
  return request;
}

HttpConnection::~HttpConnection() { Close(); }

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpConnection::Connect(int port, int timeout_ms) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  timeval timeout{};
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = (timeout_ms % 1000) * 1000;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  const int one = 1;
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    Close();
    return false;
  }
  return true;
}

int HttpConnection::RoundTrip(std::string_view request, std::string* body) {
  body->clear();
  if (fd_ < 0) return 0;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return 0;
    }
    sent += static_cast<size_t>(n);
  }

  // Read until the head is complete, then until Content-Length bytes of
  // body have arrived.
  size_t head_end = std::string::npos;
  size_t content_length = std::string::npos;
  int status = 0;
  char chunk[16384];
  for (;;) {
    if (head_end == std::string::npos) {
      head_end = buffer_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        // "HTTP/1.1 200 OK"
        if (buffer_.size() < 12) {
          Close();
          return 0;
        }
        status = std::atoi(buffer_.c_str() + 9);
        size_t line = buffer_.find("\r\n");
        while (line < head_end) {
          const size_t next = buffer_.find("\r\n", line + 2);
          const std::string_view header(buffer_.data() + line + 2,
                                        next - line - 2);
          constexpr std::string_view kName = "content-length:";
          if (header.size() > kName.size() &&
              strncasecmp(header.data(), kName.data(), kName.size()) == 0) {
            content_length = static_cast<size_t>(
                std::strtoull(header.data() + kName.size(), nullptr, 10));
          }
          line = next;
        }
        if (content_length == std::string::npos) {
          Close();
          return 0;
        }
      }
    }
    if (head_end != std::string::npos &&
        buffer_.size() >= head_end + 4 + content_length) {
      body->assign(buffer_, head_end + 4, content_length);
      buffer_.erase(0, head_end + 4 + content_length);
      return status;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return 0;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
