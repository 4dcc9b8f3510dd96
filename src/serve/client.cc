#include "serve/client.h"

#include <unistd.h>

#include <utility>

#include "serve/net.h"

namespace cdcl {
namespace serve {

Client::~Client() { Close(); }

bool Client::Connect(uint16_t port) {
  Close();
  IgnoreSigpipe();
  fd_ = ConnectLocal(port);
  return fd_ >= 0;
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  in_.Clear();
  pending_.clear();
}

bool Client::Send(const Request& request) {
  if (fd_ < 0) return false;
  Buffer wire;
  AppendRequest(request, &wire);
  return SendAll(fd_, wire.Peek(), wire.ReadableBytes());
}

bool Client::Receive(Response* response) {
  if (!pending_.empty()) {
    auto it = pending_.begin();
    *response = std::move(it->second);
    pending_.erase(it);
    return true;
  }
  for (;;) {
    const ParseResult parsed = parser_.Next(&in_, response);
    if (parsed == ParseResult::kFrame) return true;
    if (parsed == ParseResult::kError) return false;
    uint8_t chunk[16 * 1024];
    const int64_t n = RecvSome(fd_, chunk, sizeof(chunk));
    if (n <= 0) return false;
    in_.Append(chunk, static_cast<size_t>(n));
  }
}

bool Client::Call(const Request& request, Response* response) {
  if (!Send(request)) return false;
  for (;;) {
    Response received;
    if (!Receive(&received)) return false;
    if (received.request_id == request.request_id) {
      *response = std::move(received);
      return true;
    }
    pending_[received.request_id] = std::move(received);
  }
}

}  // namespace serve
}  // namespace cdcl
