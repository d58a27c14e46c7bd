#include "opmap/server/client.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "opmap/server/net.h"

namespace opmap::server {

std::string Reply::ErrorText() const {
  Status decoded;
  if (DecodeErrorBody(body, &decoded).ok()) return decoded.ToString();
  return std::string(RespStatusName(status));
}

Status Reply::ToStatus() const {
  if (ok()) return Status::OK();
  Status decoded;
  if (DecodeErrorBody(body, &decoded).ok()) return decoded;
  return Status::Internal(std::string("server replied ") +
                          RespStatusName(status));
}

Result<std::unique_ptr<Client>> Client::Connect(const std::string& address,
                                                int timeout_ms) {
  OPMAP_ASSIGN_OR_RETURN(Address addr, ParseAddress(address));
  OPMAP_ASSIGN_OR_RETURN(int fd, ConnectTo(addr));
  if (timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = timeout_ms / 1000;
    tv.tv_usec = (timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  std::unique_ptr<Client> client(new Client());
  client->fd_ = fd;
  return client;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Status Client::SendRaw(const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError(std::string("send: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status Client::ShutdownWrite() {
  if (::shutdown(fd_, SHUT_WR) != 0) {
    return Status::IOError(std::string("shutdown: ") + std::strerror(errno));
  }
  return Status::OK();
}

Result<Reply> Client::ReadReply() {
  for (;;) {
    uint64_t request_id = 0;
    std::string payload;
    size_t consumed = 0;
    std::string error;
    const FrameDecode rc =
        DecodeFrame(in_.data(), in_.size(), kMaxResponseBytes, &request_id,
                    &payload, &consumed, &error);
    if (rc == FrameDecode::kCorrupt) {
      return Status::IOError("corrupt response frame: " + error);
    }
    if (rc == FrameDecode::kFrame) {
      in_.erase(0, consumed);
      OPMAP_ASSIGN_OR_RETURN(DecodedResponse resp, DecodeResponse(payload));
      Reply reply;
      reply.request_id = request_id;
      reply.status = resp.status;
      reply.body = std::move(resp.body);
      return reply;
    }
    char buf[64 << 10];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      in_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      return Status::IOError("connection closed by server");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::IOError("timed out waiting for response");
    }
    return Status::IOError(std::string("recv: ") + std::strerror(errno));
  }
}

Result<Reply> Client::Call(Op op, const std::string& body) {
  const uint64_t id = next_request_id_++;
  OPMAP_RETURN_NOT_OK(SendRaw(EncodeFrame(id, EncodeRequest(op, body))));
  OPMAP_ASSIGN_OR_RETURN(Reply reply, ReadReply());
  if (reply.request_id != id) {
    return Status::Internal("response id " + std::to_string(reply.request_id) +
                            " does not match request id " +
                            std::to_string(id));
  }
  return reply;
}

}  // namespace opmap::server
