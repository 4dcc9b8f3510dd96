#ifndef CDCL_SERVE_CLIENT_H_
#define CDCL_SERVE_CLIENT_H_

#include <cstdint>
#include <map>
#include <vector>

#include "serve/buffer.h"
#include "serve/protocol.h"

namespace cdcl {
namespace serve {

/// Minimal blocking client for the length-prefixed protocol, used by the
/// load generator, the test suites and the demo binary. One connection per
/// instance; pipelining-friendly: Send() never waits for responses, and
/// Receive() returns completions in arrival order (the server may reorder
/// across micro-batches — match on request_id).
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Serializes and writes one request (blocking until fully written).
  bool Send(const Request& request);

  /// Blocks until one full response arrives. False on EOF/error.
  bool Receive(Response* response);

  /// Convenience: send + wait for the response to that exact request_id,
  /// buffering any other completions for later Receive() calls.
  bool Call(const Request& request, Response* response);

 private:
  int fd_ = -1;
  Buffer in_;
  ResponseParser parser_;
  std::map<uint32_t, Response> pending_;  // out-of-order completions
};

}  // namespace serve
}  // namespace cdcl

#endif  // CDCL_SERVE_CLIENT_H_
