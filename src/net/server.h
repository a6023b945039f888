// Framed-TCP serving front end for SessionService.
//
// The server is one Reactor (net/reactor.h) with a handler that answers
// each request frame with HandleFrameInto against the shared
// SessionService (thread-safe; distinct sessions run in parallel). The
// reactor owns the sockets, sharding, framing, output queues and
// backpressure. Every request runs inline on the shard thread that owns
// its connection: no handoff and no context switch, and pipelined
// requests are answered back-to-back and flushed as one scatter-gather
// write. Parallelism comes from the shard count (`reactors`).
//
// The request path is allocation-free at steady state: frames are parsed
// with the shard's arena (service/json.h ParseInto), and reassembly and
// response buffers recycle through the shard's BufferPool.
//
// Per-connection protocol discipline: requests are answered strictly in
// arrival order. Pipelined frames queue up to max_queued_frames, counting
// unsent responses; past that the reactor stops reading the socket, so
// backpressure is TCP flow control, not memory growth. A malformed frame
// — zero-length, oversized, or unparseable JSON — produces a structured
// error frame in the same ordered stream and the connection stays usable;
// the connection is only closed by the peer, by EOF, or by Stop().
#ifndef QLEARN_NET_SERVER_H_
#define QLEARN_NET_SERVER_H_

#include <cstdint>

#include "common/status.h"
#include "net/frame.h"
#include "net/reactor.h"
#include "service/session_service.h"

namespace qlearn {
namespace net {

/// The reactor's listener and sizing fields (net/reactor.h), plus:
struct ServerOptions : ReactorOptions {
  /// Retired: requests always run inline on the shard thread. Start()
  /// rejects any value but 0 with InvalidArgument. The field stays only
  /// because the end-to-end benchmark (qbench/src/serve.cc) still sets it;
  /// the benchmark change of ROADMAP item K deletes that line and then
  /// this field.
  size_t workers = 0;
};

/// Lifetime statistics of one server, for tests and the load harness.
using ServerStats = ReactorStats;

class Server {
 public:
  /// Serves `service` (not owned; must outlive the server).
  Server(service::SessionService* service, ServerOptions options = {});
  ~Server();  ///< calls Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the reactor's shard threads. Fails
  /// (InvalidArgument/Internal) without leaking resources; safe to retry.
  common::Status Start();

  /// Shuts down: stops accepting, closes every connection, joins all
  /// threads. Idempotent; also called by the destructor.
  void Stop();

  /// The bound port (the ephemeral pick when options.port was 0); valid
  /// after a successful Start().
  uint16_t port() const;

  ServerStats stats() const;

 private:
  service::SessionService* const service_;
  const size_t workers_;  ///< the retired option, checked by Start()
  Reactor reactor_;
};

}  // namespace net
}  // namespace qlearn

#endif  // QLEARN_NET_SERVER_H_
