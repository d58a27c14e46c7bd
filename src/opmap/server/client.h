#ifndef OPMAP_SERVER_CLIENT_H_
#define OPMAP_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "opmap/common/status.h"
#include "opmap/server/protocol.h"

namespace opmap::server {

/// One decoded response from the daemon.
struct Reply {
  uint64_t request_id = 0;
  RespStatus status = RespStatus::kError;
  std::string body;

  bool ok() const { return status == RespStatus::kOk; }
  /// For non-OK replies carrying an error body: "<code>: <message>".
  std::string ErrorText() const;
  /// Lifts a non-OK reply into a Status (OK replies map to Status::OK).
  Status ToStatus() const;
};

/// A blocking opmapd client: one connection, synchronous request/response.
/// Used by `opmap loadgen` (one Client per worker thread; a Client itself
/// is not thread-safe) and by the protocol tests, which also use SendRaw
/// to inject malformed bytes.
class Client {
 public:
  /// Connects to an address in listen-option syntax ("unix:<path>",
  /// "<host>:<port>"). `timeout_ms` bounds each send/receive syscall
  /// (0 = no timeout).
  static Result<std::unique_ptr<Client>> Connect(const std::string& address,
                                                 int timeout_ms = 10000);

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends `op` with an already-encoded request body and waits for the
  /// matching reply. Fails if the echoed request id does not match.
  Result<Reply> Call(Op op, const std::string& body = "");

  // Typed conveniences (encode + Call).
  Result<Reply> Ping() { return Call(Op::kPing); }
  Result<Reply> Compare(const CompareRequest& req) {
    return Call(Op::kCompare, EncodeCompareRequest(req));
  }
  Result<Reply> AllPairs(const AllPairsRequest& req) {
    return Call(Op::kAllPairs, EncodeAllPairsRequest(req));
  }
  Result<Reply> Gi(const GiRequest& req) {
    return Call(Op::kGi, EncodeGiRequest(req));
  }
  Result<Reply> Session(const SessionRequest& req) {
    return Call(Op::kSession, EncodeSessionRequest(req));
  }
  Result<Reply> Render(const RenderRequest& req) {
    return Call(Op::kRender, EncodeRenderRequest(req));
  }
  Result<Reply> Stats() { return Call(Op::kStats); }
  Result<Reply> Reload(const ReloadRequest& req) {
    return Call(Op::kReload, EncodeReloadRequest(req));
  }

  /// Writes raw bytes to the socket without framing — protocol-robustness
  /// tests use this to deliver truncated and corrupted frames.
  Status SendRaw(const std::string& bytes);

  /// Half-closes the connection (shutdown SHUT_WR): the daemon reads EOF
  /// after the bytes already sent, answers them, then closes.
  Status ShutdownWrite();

  /// Reads the next response frame regardless of what was sent (pairs with
  /// SendRaw). Returns IOError on timeout/EOF.
  Result<Reply> ReadReply();

 private:
  Client() = default;

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  std::string in_;  // buffered unparsed response bytes
};

}  // namespace opmap::server

#endif  // OPMAP_SERVER_CLIENT_H_
