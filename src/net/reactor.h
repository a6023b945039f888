// The sharded poll(2) event loop shared by net::Server and net::Router.
//
// A Reactor binds one listening socket and runs `reactors` shard threads.
// Each shard owns a disjoint set of connections end to end — accept runs
// on shard 0, which deals new sockets round-robin over a wake pipe — so
// connection state is single-threaded by construction, with no locks on
// the socket path. Per connection, arriving bytes stream through a
// FrameReader into an input queue, and outgoing frames wait in an OutFrame
// queue drained by scatter-gather writes; frame bodies recycle through the
// shard's BufferPool.
//
// What a frame *means* is the business of the shard's Handler (the server
// answers it, the router forwards it). A handler may also register sockets
// it dialed itself, such as a router's backends, with its shard; those use
// the same output queue and flush.
//
// Backpressure is one rule for every front end: a connection stops being
// read once its queued inputs + reader events + unsent frames + frames
// the handler holds (Conn::held) reach max_queued_frames, and dispatch
// stops once unsent + held frames reach it. A peer that pipelines but
// never reads therefore stalls in TCP flow control instead of growing
// memory.
#ifndef QLEARN_NET_REACTOR_H_
#define QLEARN_NET_REACTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "net/buffer_pool.h"
#include "net/frame.h"

namespace qlearn {
namespace net {

/// The listener and sizing fields of ServerOptions and RouterOptions.
struct ReactorOptions {
  /// Numeric IPv4 address to bind; loopback by default (the load harness
  /// and tests run client and server on one host).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Reactor shards; must be > 0. Each owns its connections and buffer
  /// pool; accept runs on shard 0 and deals sockets round-robin.
  size_t reactors = 1;
  /// Frame payload cap — shared with FrameReader and net::Client via
  /// net/frame.h, so an oversized frame is rejected identically at every
  /// hop; enforced on reads and responses alike.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// listen(2) backlog.
  int backlog = 128;
  /// The per-connection backpressure cap (see above).
  size_t max_queued_frames = 32;
  /// Buffers each shard's pool retains, and the capacity above which a
  /// released buffer is freed instead of pooled (one oversized frame must
  /// not pin its footprint).
  size_t pool_buffers = 64;
  size_t pool_buffer_bytes = 64 * 1024;
};

/// Lifetime counters over accepted connections, across restarts.
#define QLEARN_REACTOR_STATS(X)                                      \
  X(connections_accepted)                                            \
  X(connections_open) /* gauge: accepted and not yet closed */       \
  X(frames_received)  /* complete, well-framed payloads */           \
  X(bad_frames)       /* zero-length/oversized framing errors */     \
  X(truncated_frames) /* peer EOF mid-frame */

struct ReactorStats {
  QLEARN_REACTOR_STATS(QLEARN_COUNTER_MEMBER)
};

inline constexpr common::CounterField<ReactorStats> kReactorStatsFields[] = {
#define QLEARN_FIELD(name) {#name, &ReactorStats::name},
    QLEARN_REACTOR_STATS(QLEARN_FIELD)
#undef QLEARN_FIELD
};

/// One frame queued for a socket. The 4-byte length prefix and the body
/// stay separate so a flush can scatter-gather straight out of the queue
/// and hand each fully written body back to the shard's pool.
struct OutFrame {
  unsigned char header[kFrameHeaderBytes] = {0, 0, 0, 0};
  size_t header_sent = 0;
  std::string body;
  size_t body_sent = 0;

  bool Done() const {
    return header_sent == kFrameHeaderBytes && body_sent == body.size();
  }
};

/// One socket owned by a shard. Handlers derive from it to keep their own
/// per-connection state next to the reactor's.
struct Conn {
  explicit Conn(size_t max_frame_bytes) : reader(max_frame_bytes) {}
  virtual ~Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd = -1;
  uint64_t id = 0;
  /// True for sockets the listener accepted; false for sockets a handler
  /// registered (their frames go to OnPeerFrames, not Dispatch).
  bool accepted = true;
  bool peer_eof = false;  ///< read side closed; drain, then close
  FrameReader reader;
  std::deque<FrameReader::Event> inputs;  ///< frames awaiting Dispatch
  std::deque<OutFrame> outq;              ///< frames awaiting the socket
  /// Frames the handler holds for this connection (dispatched, not yet
  /// queued for output); counts toward max_queued_frames.
  size_t held = 0;
};

/// The structured error frame answering a kBadFrame event.
std::string BadFrameError(const FrameReader::Event& event);

class ShardThread;

class Reactor {
 public:
  class Shard;

  /// Per-shard protocol logic. Every call runs on the shard thread.
  class Handler {
   public:
    Handler() = default;
    virtual ~Handler() = default;
    Handler(const Handler&) = delete;
    Handler& operator=(const Handler&) = delete;
    /// State for a newly accepted socket.
    virtual std::unique_ptr<Conn> NewConn(size_t max_frame_bytes) {
      return std::make_unique<Conn>(max_frame_bytes);
    }
    /// False holds `conn`'s inputs back even under the frame cap.
    virtual bool CanDispatch(const Conn& /*conn*/) const { return true; }
    /// Handles one input frame of an accepted connection: queue the answer
    /// with Shard::Enqueue, or hold it (++conn->held) and Step the
    /// connection once it is queued. Must not close `conn`.
    virtual void Dispatch(Conn* conn, FrameReader::Event&& event) = 0;
    /// A registered socket delivered frames (drain conn->reader).
    virtual void OnPeerFrames(Conn* /*conn*/) {}
    /// `conn` is about to be closed and freed.
    virtual void OnClose(Conn* /*conn*/, std::string_view /*reason*/) {}
    /// Once per loop iteration, after the ready sockets were served.
    virtual void AfterPoll() {}
  };

  using HandlerFactory = std::function<std::unique_ptr<Handler>(Shard*)>;

  class Shard {
   public:
    Shard(Reactor* reactor, size_t index);
    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    // Thread-safe.
    void Wake();
    BufferPool& pool() { return pool_; }
    Handler* handler() const { return handler_.get(); }

    // Shard thread only.
    /// Queues `body` as one frame. A body that cannot be framed for an
    /// accepted connection (empty or over max_frame_bytes) is replaced by
    /// a structured error frame; registered sockets get it verbatim.
    void Enqueue(Conn* conn, std::string&& body);
    /// Writes what the socket accepts; closes `conn` and returns false on
    /// a dead socket.
    bool Flush(Conn* conn);
    /// Dispatches what the backpressure rule allows, flushes, and closes
    /// a drained connection after EOF.
    void Step(Conn* conn);
    /// Steps every accepted connection (a handler lifting its own pause).
    void StepAll();
    Conn* Find(uint64_t id);
    /// Adopts a connected non-blocking socket (`accepted` false for one
    /// the handler dialed itself).
    Conn* Register(std::unique_ptr<Conn> conn);
    void Close(Conn* conn, std::string_view reason);

   private:
    friend class Reactor;
    friend class ShardThread;  // the poll loop (reactor.cc)

    bool InputPaused(const Conn& conn) const;
    bool Dispatchable(const Conn& conn) const;

    Reactor* const reactor_;
    const size_t index_;
    const ReactorOptions& options_;
    int wake_read_ = -1;
    int wake_write_ = -1;
    BufferPool pool_;
    std::unique_ptr<Handler> handler_;

    std::mutex incoming_mutex_;
    std::vector<int> incoming_fds_;  ///< dealt by shard 0, not yet adopted

    std::map<uint64_t, std::unique_ptr<Conn>> conns_;  // shard thread only
    std::thread thread_;
  };

  explicit Reactor(ReactorOptions options);
  ~Reactor();  ///< calls Stop()

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Binds, listens, builds one handler per shard, and starts the shard
  /// threads. Fails without leaking resources; safe to retry, and a
  /// restart keeps stats() cumulative.
  common::Status Start(const HandlerFactory& make_handler);
  /// Closes every connection and joins the shard threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return bound_port_; }
  /// The current shard set; valid while running.
  size_t shard_count() const { return shards_.size(); }
  Shard* shard(size_t index) { return shards_[index].get(); }
  ReactorStats stats() const;

 private:
  friend class ShardThread;

  const ReactorOptions options_;
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<uint64_t> next_shard_{0};
  std::vector<std::unique_ptr<Shard>> shards_;

  /// The one live stats block every shard bumps; it outlives the shard
  /// sets of successive Start/Stop cycles.
  ReactorStats stats_;
};

}  // namespace net
}  // namespace qlearn

#endif  // QLEARN_NET_REACTOR_H_
