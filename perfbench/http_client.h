// Copyright (c) the webrbd authors. Licensed under the Apache License 2.0.
//
// A minimal blocking HTTP/1.1 client over one keep-alive loopback
// connection: exactly what the open-loop load generator needs to talk to
// webrbd_serve (Content-Length bodies, no chunking, no redirects).

#ifndef WEBRBD_PERFBENCH_HTTP_CLIENT_H_
#define WEBRBD_PERFBENCH_HTTP_CLIENT_H_

#include <string>
#include <string_view>

namespace perfbench {

/// Serializes a request with a Content-Length body.
std::string BuildHttpRequest(std::string_view method, std::string_view target,
                             std::string_view body);

class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Connects to 127.0.0.1:`port`; every blocking read or write gives up
  /// after `timeout_ms`.
  bool Connect(int port, int timeout_ms);

  /// Sends one serialized request and reads its response. Returns the HTTP
  /// status (0 on a transport error or timeout, after which the
  /// connection is closed) and fills `*body`.
  int RoundTrip(std::string_view request, std::string* body);

  bool connected() const { return fd_ >= 0; }
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes read past the previous response
};

}  // namespace perfbench

#endif  // WEBRBD_PERFBENCH_HTTP_CLIENT_H_
