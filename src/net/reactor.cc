#include "net/reactor.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "net/protocol.h"

namespace qlearn {
namespace net {

namespace {

using common::Status;

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

std::string BadFrameError(const FrameReader::Event& event) {
  return SerializeError(Status::InvalidArgument("bad frame: " + event.error));
}

Reactor::Shard::Shard(Reactor* reactor, size_t index)
    : reactor_(reactor),
      index_(index),
      options_(reactor->options_),
      pool_(options_.pool_buffers, options_.pool_buffer_bytes) {}

void Reactor::Shard::Wake() {
  const char byte = 1;
  // A full pipe already guarantees a pending wakeup; EAGAIN is fine.
  [[maybe_unused]] const ssize_t ignored = ::write(wake_write_, &byte, 1);
}

void Reactor::Shard::Enqueue(Conn* conn, std::string&& body) {
  const size_t size = body.size();
  if (conn->accepted && (size == 0 || size > options_.max_frame_bytes ||
                         size > UINT32_MAX)) {
    // An answer bigger than the frame cap (a huge ask batch, a wide
    // fan-out merge) cannot be framed; tell the peer why instead of
    // wedging the connection.
    pool_.Release(std::move(body));
    body = SerializeError(Status::Internal("response of " +
                                           std::to_string(size) +
                                           " bytes exceeds the frame limit"));
  }
  OutFrame frame;
  EncodeFrameHeader(static_cast<uint32_t>(body.size()), frame.header);
  frame.body = std::move(body);
  conn->outq.push_back(std::move(frame));
}

bool Reactor::Shard::Flush(Conn* conn) {
  // Gathers up to eight frames per sendmsg, so a pipelined burst leaves in
  // one syscall; fully written bodies go back to the pool.
  std::deque<OutFrame>& outq = conn->outq;
  while (!outq.empty()) {
    iovec iov[16];
    size_t iovcnt = 0;
    for (OutFrame& frame : outq) {
      if (iovcnt + 2 > 16) break;
      if (frame.header_sent < kFrameHeaderBytes) {
        iov[iovcnt].iov_base = frame.header + frame.header_sent;
        iov[iovcnt].iov_len = kFrameHeaderBytes - frame.header_sent;
        ++iovcnt;
      }
      if (frame.body_sent < frame.body.size()) {
        iov[iovcnt].iov_base = frame.body.data() + frame.body_sent;
        iov[iovcnt].iov_len = frame.body.size() - frame.body_sent;
        ++iovcnt;
      }
    }
    msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      Close(conn, "send failed");  // EPIPE/ECONNRESET/...
      return false;
    }
    size_t left = static_cast<size_t>(n);
    while (!outq.empty()) {
      OutFrame& frame = outq.front();
      const size_t header_take =
          std::min(left, kFrameHeaderBytes - frame.header_sent);
      frame.header_sent += header_take;
      left -= header_take;
      const size_t body_take =
          std::min(left, frame.body.size() - frame.body_sent);
      frame.body_sent += body_take;
      left -= body_take;
      if (!frame.Done()) break;
      pool_.Release(std::move(frame.body));
      outq.pop_front();
    }
    if (n == 0) return true;  // defensive: avoid a hot spin
  }
  return true;
}

bool Reactor::Shard::InputPaused(const Conn& conn) const {
  return conn.inputs.size() + conn.reader.EventCount() + conn.outq.size() +
             conn.held >=
         options_.max_queued_frames;
}

bool Reactor::Shard::Dispatchable(const Conn& conn) const {
  return !conn.inputs.empty() &&
         conn.outq.size() + conn.held < options_.max_queued_frames &&
         handler_->CanDispatch(conn);
}

void Reactor::Shard::Step(Conn* conn) {
  for (;;) {
    while (Dispatchable(*conn)) {
      FrameReader::Event event = std::move(conn->inputs.front());
      conn->inputs.pop_front();
      handler_->Dispatch(conn, std::move(event));
    }
    if (!Flush(conn)) return;
    // A flush that drained the queue may have lifted the cap; with outq
    // empty the poll loop arms no POLLOUT and, with reads paused, nothing
    // else would re-enter this connection. A non-empty outq is safe to
    // leave: POLLOUT drives the next Step.
    if (!conn->outq.empty() || !Dispatchable(*conn)) break;
  }
  if (conn->peer_eof && conn->inputs.empty() && conn->held == 0 &&
      conn->outq.empty()) {
    Close(conn, "peer closed");
  }
}

void Reactor::Shard::StepAll() {
  std::vector<uint64_t> ids;
  for (const auto& [id, conn] : conns_) {
    if (conn->accepted) ids.push_back(id);
  }
  for (const uint64_t id : ids) {
    if (Conn* conn = Find(id)) Step(conn);
  }
}

Conn* Reactor::Shard::Find(uint64_t id) {
  auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

Conn* Reactor::Shard::Register(std::unique_ptr<Conn> conn) {
  conn->id = reactor_->next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  conn->reader.set_pool(&pool_);
  Conn* raw = conn.get();
  conns_.emplace(raw->id, std::move(conn));
  return raw;
}

void Reactor::Shard::Close(Conn* conn, std::string_view reason) {
  handler_->OnClose(conn, reason);
  const bool accepted = conn->accepted;
  CloseFd(&conn->fd);
  conns_.erase(conn->id);  // `conn` is dead past this line
  if (accepted) common::DropCounter(reactor_->stats_.connections_open);
}

/// A shard's thread: the poll loop over the shard's sockets, accept on
/// shard 0, adoption of the sockets shard 0 deals out, and reads.
class ShardThread {
 public:
  explicit ShardThread(Reactor::Shard* shard)
      : s_(*shard), reactor_(*shard->reactor_) {}

  void Run() {
    const bool acceptor = (s_.index_ == 0);
    std::vector<pollfd> pollfds;
    std::vector<uint64_t> poll_ids;
    while (reactor_.running()) {
      pollfds.clear();
      poll_ids.clear();
      pollfds.push_back({s_.wake_read_, POLLIN, 0});
      if (acceptor) pollfds.push_back({reactor_.listen_fd_, POLLIN, 0});
      const size_t base = pollfds.size();
      for (const auto& [id, conn] : s_.conns_) {
        short events = 0;
        if (!conn->peer_eof && (!conn->accepted || !s_.InputPaused(*conn))) {
          events |= POLLIN;
        }
        if (!conn->outq.empty()) events |= POLLOUT;
        if (events == 0) continue;  // woken by the handler, not the socket
        pollfds.push_back({conn->fd, events, 0});
        poll_ids.push_back(id);
      }
      const int ready = ::poll(pollfds.data(), pollfds.size(), -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        break;  // poll itself failing is unrecoverable
      }
      if (pollfds[0].revents & POLLIN) {
        char drain[256];
        while (::read(s_.wake_read_, drain, sizeof(drain)) > 0) {
        }
      }
      if (acceptor && (pollfds[1].revents & POLLIN)) Accept();
      AdoptIncoming();
      for (size_t i = base; i < pollfds.size(); ++i) {
        const uint64_t id = poll_ids[i - base];
        Conn* conn = s_.Find(id);
        if (conn == nullptr) continue;  // closed while serving another
        const short revents = pollfds[i].revents;
        if (revents & (POLLERR | POLLNVAL)) {
          s_.Close(conn, "socket error");
          continue;
        }
        if (revents & (POLLIN | POLLHUP)) {
          Read(conn);
          if ((conn = s_.Find(id)) == nullptr) continue;
        }
        if (conn->accepted) {
          s_.Step(conn);
        } else if (revents & POLLOUT) {
          s_.Flush(conn);
        }
      }
      s_.handler_->AfterPoll();
    }
    // Shutdown: drop every connection (answers still held by the handler
    // miss their lookup and are discarded).
    uint64_t accepted = 0;
    for (auto& [id, conn] : s_.conns_) {
      CloseFd(&conn->fd);
      if (conn->accepted) ++accepted;
    }
    s_.conns_.clear();
    common::DropCounter(reactor_.stats_.connections_open, accepted);
  }

 private:
  /// Shard 0 only: accepts everything pending and deals the sockets
  /// round-robin across shards (its own share included).
  void Accept() {
    for (;;) {
      const int fd = ::accept(reactor_.listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN, or fd exhaustion: try again on the next wakeup
      }
      if (!SetNonBlocking(fd)) {
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      Reactor::Shard* target =
          reactor_.shards_[reactor_.next_shard_.fetch_add(
                               1, std::memory_order_relaxed) %
                           reactor_.shards_.size()]
              .get();
      {
        std::lock_guard<std::mutex> lock(target->incoming_mutex_);
        target->incoming_fds_.push_back(fd);
      }
      if (target != &s_) target->Wake();
    }
  }

  /// Takes ownership of the sockets shard 0 dealt to this shard.
  void AdoptIncoming() {
    {
      std::lock_guard<std::mutex> lock(s_.incoming_mutex_);
      if (s_.incoming_fds_.empty()) return;
      incoming_.swap(s_.incoming_fds_);
    }
    for (const int fd : incoming_) {
      std::unique_ptr<Conn> conn =
          s_.handler_->NewConn(s_.options_.max_frame_bytes);
      conn->fd = fd;
      s_.Register(std::move(conn));
    }
    common::BumpCounter(reactor_.stats_.connections_accepted,
                        incoming_.size());
    common::BumpCounter(reactor_.stats_.connections_open, incoming_.size());
    incoming_.clear();
  }

  void Read(Conn* conn) {
    char buffer[64 * 1024];
    std::string reason;
    for (;;) {
      // Past the queued-work cap the unread bytes stay in the kernel buffer
      // and TCP flow control pushes back. Registered sockets only carry
      // answers to frames this side sent, so they are always drained.
      if (conn->accepted && s_.InputPaused(*conn)) break;
      const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        conn->reader.Feed(buffer, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      conn->peer_eof = true;  // EOF or a dead socket; drain what we have
      reason = n == 0 ? "connection closed"
                      : std::string("recv: ") + std::strerror(errno);
      if (n == 0 && conn->accepted && conn->reader.MidFrame()) {
        common::BumpCounter(reactor_.stats_.truncated_frames);
      }
      break;
    }
    if (!conn->accepted) {
      // OnPeerFrames may close the socket itself (a frame nobody asked
      // for), so liveness is re-checked by id before the EOF close.
      const uint64_t id = conn->id;
      const bool eof = conn->peer_eof;
      s_.handler_->OnPeerFrames(conn);
      if (eof && (conn = s_.Find(id)) != nullptr) s_.Close(conn, reason);
      return;
    }
    uint64_t good = 0;
    uint64_t bad = 0;
    while (conn->reader.HasEvent()) {
      FrameReader::Event event = conn->reader.Next();
      (event.kind == FrameReader::Event::Kind::kFrame ? good : bad) += 1;
      conn->inputs.push_back(std::move(event));
    }
    if (good > 0) common::BumpCounter(reactor_.stats_.frames_received, good);
    if (bad > 0) common::BumpCounter(reactor_.stats_.bad_frames, bad);
  }

  Reactor::Shard& s_;
  Reactor& reactor_;
  std::vector<int> incoming_;  // reused across iterations
};

Reactor::Reactor(ReactorOptions options) : options_(std::move(options)) {}

Reactor::~Reactor() { Stop(); }

common::Status Reactor::Start(const HandlerFactory& make_handler) {
  if (options_.reactors == 0) {
    return Status::InvalidArgument("options.reactors must be > 0");
  }
  if (options_.max_frame_bytes == 0) {
    return Status::InvalidArgument("options.max_frame_bytes must be > 0");
  }

  shards_.clear();  // the previous cycle's shards, if any

  auto fail = [this](Status status) {
    CloseFd(&listen_fd_);
    return status;
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return fail(Status::Internal(std::string("socket: ") +
                                 std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return fail(Status::InvalidArgument("bad bind address: " +
                                        options_.bind_address));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, options_.backlog) != 0) {
    return fail(Status::Internal(std::string("bind/listen: ") +
                                 std::strerror(errno)));
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  bound_port_ = ntohs(bound.sin_port);

  for (size_t i = 0; i < options_.reactors; ++i) {
    auto shard = std::make_unique<Shard>(this, i);
    int pipe_fds[2];
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
      for (auto& built : shards_) {
        CloseFd(&built->wake_read_);
        CloseFd(&built->wake_write_);
      }
      shards_.clear();
      return fail(Status::Internal(std::string("pipe2: ") +
                                   std::strerror(errno)));
    }
    shard->wake_read_ = pipe_fds[0];
    shard->wake_write_ = pipe_fds[1];
    shard->handler_ = make_handler(shard.get());
    shards_.push_back(std::move(shard));
  }

  next_shard_.store(0, std::memory_order_relaxed);
  running_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread_ = std::thread([s] { ShardThread(s).Run(); });
  }
  return Status::OK();
}

void Reactor::Stop() {
  if (!running()) return;
  running_.store(false, std::memory_order_release);
  for (auto& shard : shards_) shard->Wake();
  for (auto& shard : shards_) {
    if (shard->thread_.joinable()) shard->thread_.join();
  }
  for (auto& shard : shards_) {
    {
      // Sockets dealt to this shard that it never got to adopt. Swept
      // after every thread is joined, so nothing races the handoff.
      std::lock_guard<std::mutex> lock(shard->incoming_mutex_);
      for (const int fd : shard->incoming_fds_) ::close(fd);
      shard->incoming_fds_.clear();
    }
    CloseFd(&shard->wake_read_);
    CloseFd(&shard->wake_write_);
  }
  CloseFd(&listen_fd_);
}

ReactorStats Reactor::stats() const {
  ReactorStats snapshot;
  common::LoadCounters(stats_, kReactorStatsFields, &snapshot);
  return snapshot;
}

}  // namespace net
}  // namespace qlearn
