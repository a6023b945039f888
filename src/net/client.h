// Blocking framed-TCP client for the session server.
//
// One Client is one connection; calls are strict request/response (the
// server answers in order, so a blocking client never needs to correlate).
// Typed helpers mirror the SessionService surface: a server-reported error
// frame comes back as the round-tripped common::Status, so remote misuse
// reads exactly like in-process misuse.
//
// Deadlines: an optional per-call budget (set_deadline_millis, or the
// Connect parameter for the handshake) bounds every blocking wait with
// poll(2) before I/O. A deadline that expires mid-call surfaces as
// DeadlineExceeded and disconnects the client — a half-read response
// leaves the stream unusable, so the router's health probes and handoff
// RPCs fail fast instead of hanging on a wedged backend. The default (0)
// blocks forever, exactly like the pre-deadline client.
//
// Not thread-safe: one thread per Client (the load generator gives each
// worker thread its own connection and multiplexes its sessions over it).
#ifndef QLEARN_NET_CLIENT_H_
#define QLEARN_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "service/session_service.h"
#include "service/wire.h"

namespace qlearn {
namespace net {

/// Opens a TCP connection to a numeric IPv4 address and port, waiting at
/// most `deadline_millis` for the handshake (0 waits forever). Returns the
/// connected socket, non-blocking and with TCP_NODELAY set; the caller
/// owns it.
common::Result<int> DialTcp(const std::string& address, uint16_t port,
                            int64_t deadline_millis);

class Client {
 public:
  /// Connects to a numeric IPv4 address ("127.0.0.1") and port.
  /// `deadline_millis` bounds the TCP handshake and becomes the connected
  /// client's per-call deadline; 0 (the default) blocks forever.
  static common::Result<Client> Connect(
      const std::string& address, uint16_t port,
      size_t max_frame_bytes = kDefaultMaxFrameBytes,
      int64_t deadline_millis = 0);

  Client() = default;  ///< unconnected; Connect() produces usable clients
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }
  /// Closes the connection (idempotent).
  void Disconnect();

  /// Per-call wall-clock budget for every subsequent call (send + receive
  /// together); 0 restores unbounded blocking. An expired deadline returns
  /// DeadlineExceeded and disconnects (mid-call framing state is lost).
  void set_deadline_millis(int64_t millis) { deadline_millis_ = millis; }
  int64_t deadline_millis() const { return deadline_millis_; }

  /// Sends one raw payload as a frame and blocks for the response frame.
  /// Transport failures (closed socket, oversized response) are errors;
  /// whatever JSON the server sent back is returned verbatim.
  common::Result<std::string> CallRaw(const std::string& payload);

  /// Serializes `request`, round-trips it, and parses the response for
  /// that op. A Result error is a transport/parse failure; a server-side
  /// error frame is returned as a Response with !status.ok().
  common::Result<Response> Call(const Request& request);

  // Typed helpers: transport failures and server-reported errors both
  // surface as the Result/Status error.
  common::Result<std::string> Open(const std::string& scenario,
                                   const service::OpenOptions& options = {});
  common::Result<std::vector<service::wire::QuestionPayload>> Ask(
      const std::string& id, uint64_t k);
  common::Status Tell(const std::string& id, const std::vector<bool>& labels);
  common::Result<std::vector<bool>> OracleLabels(const std::string& id);
  common::Result<service::SessionStatus> Status(const std::string& id);
  common::Result<service::CloseResult> Close(const std::string& id);
  /// Service-wide counters plus the current open-session count.
  common::Result<std::pair<service::ServiceCounters, uint64_t>> Counters();

  // Administrative surface for sharding/rebalance (sessions/export/import
  // ops): list the backend's live handles, ship a quiescent session's
  // hibernation image out, adopt one shipped from elsewhere.
  common::Result<std::vector<std::string>> ListSessions();
  common::Result<service::ExportedSession> ExportSession(
      const std::string& id);
  common::Status ImportSession(const std::string& id,
                               const std::string& scenario,
                               const std::string& image);

 private:
  int fd_ = -1;
  size_t max_frame_bytes_ = kDefaultMaxFrameBytes;
  int64_t deadline_millis_ = 0;  ///< 0 = block forever
};

}  // namespace net
}  // namespace qlearn

#endif  // QLEARN_NET_CLIENT_H_
