#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>

namespace qlearn {
namespace net {

namespace {

using common::Result;
using common::Status;

// One call's wall-clock budget as an absolute point, so a call that polls
// many times (short writes, slow trickle of response bytes) still honors
// the total. `has == false` means block forever (poll timeout -1).
struct Deadline {
  bool has = false;
  std::chrono::steady_clock::time_point at;

  static Deadline After(int64_t millis) {
    Deadline d;
    if (millis > 0) {
      d.has = true;
      d.at = std::chrono::steady_clock::now() +
             std::chrono::milliseconds(millis);
    }
    return d;
  }

  /// Remaining budget in poll(2) terms: -1 = infinite, 0 = already expired.
  int PollTimeoutMillis() const {
    if (!has) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          at - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return 0;
    if (left > INT_MAX) return INT_MAX;
    return static_cast<int>(left);
  }
};

/// Blocks until `fd` is ready for `events` or the deadline expires.
Status Await(int fd, short events, const Deadline& deadline,
             const char* what) {
  for (;;) {
    const int timeout = deadline.PollTimeoutMillis();
    if (timeout == 0) {
      return Status::DeadlineExceeded(std::string(what) +
                                      ": deadline exceeded");
    }
    pollfd p;
    p.fd = fd;
    p.events = events;
    p.revents = 0;
    const int rc = ::poll(&p, 1, timeout);
    if (rc > 0) return Status::OK();
    if (rc == 0) {
      return Status::DeadlineExceeded(std::string(what) +
                                      ": deadline exceeded");
    }
    if (errno == EINTR) continue;
    return Status::Internal(std::string("poll: ") + std::strerror(errno));
  }
}

Status WriteAll(int fd, const std::string& bytes, const Deadline& deadline) {
  size_t pos = 0;
  while (pos < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + pos, bytes.size() - pos, MSG_NOSIGNAL);
    if (n > 0) {
      pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      QLEARN_RETURN_IF_ERROR(Await(fd, POLLOUT, deadline, "send"));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Internal(std::string("send: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status ReadExactly(int fd, char* out, size_t n, const Deadline& deadline) {
  size_t pos = 0;
  while (pos < n) {
    const ssize_t got = ::recv(fd, out + pos, n - pos, 0);
    if (got > 0) {
      pos += static_cast<size_t>(got);
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      QLEARN_RETURN_IF_ERROR(Await(fd, POLLIN, deadline, "recv"));
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got == 0) {
      return Status::Internal("connection closed mid-response");
    }
    return Status::Internal(std::string("recv: ") + std::strerror(errno));
  }
  return Status::OK();
}

/// A wall-clock budget in the wire's whole microseconds, where 0 means
/// unlimited: non-positive and NaN budgets are unlimited, a positive one
/// keeps at least 1 µs (truncating it to 0 would lift the limit), and
/// anything past the wire's range saturates at UINT64_MAX.
uint64_t WallBudgetMicros(double seconds) {
  if (!(seconds > 0)) return 0;
  const double micros = seconds * 1e6;
  if (micros >= 18446744073709551616.0) return UINT64_MAX;  // 2^64
  return std::max<uint64_t>(1, static_cast<uint64_t>(micros));
}

}  // namespace

Result<int> DialTcp(const std::string& address, uint16_t port,
                    int64_t deadline_millis) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad address: " + address);
  }
  const Deadline deadline = Deadline::After(deadline_millis);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0 && errno == EINPROGRESS) {
    const common::Status ready = Await(fd, POLLOUT, deadline, "connect");
    if (!ready.ok()) {
      ::close(fd);
      return ready;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) {
      so_error = errno;
    }
    rc = so_error == 0 ? 0 : -1;
    errno = so_error;
  }
  if (rc != 0) {
    const std::string error = std::strerror(errno);
    ::close(fd);
    return Status::Internal("connect: " + error);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<Client> Client::Connect(const std::string& address, uint16_t port,
                               size_t max_frame_bytes,
                               int64_t deadline_millis) {
  QLEARN_ASSIGN_OR_RETURN(const int fd,
                          DialTcp(address, port, deadline_millis));
  Client client;
  client.fd_ = fd;
  client.max_frame_bytes_ = max_frame_bytes;
  client.deadline_millis_ = deadline_millis;
  return client;
}

Client::~Client() { Disconnect(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      max_frame_bytes_(other.max_frame_bytes_),
      deadline_millis_(other.deadline_millis_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Disconnect();
    fd_ = other.fd_;
    max_frame_bytes_ = other.max_frame_bytes_;
    deadline_millis_ = other.deadline_millis_;
    other.fd_ = -1;
  }
  return *this;
}

void Client::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<std::string> Client::CallRaw(const std::string& payload) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  const Deadline deadline = Deadline::After(deadline_millis_);
  std::string framed;
  if (!AppendFrame(payload, max_frame_bytes_, &framed)) {
    return Status::InvalidArgument("payload does not fit in a frame");
  }
  auto deadline_guard = [this](common::Status status) {
    // An expired deadline abandons a call mid-stream; the framing state is
    // unknowable, so the connection is done.
    if (status.code() == common::StatusCode::kDeadlineExceeded) Disconnect();
    return status;
  };
  {
    common::Status sent = WriteAll(fd_, framed, deadline);
    if (!sent.ok()) return deadline_guard(std::move(sent));
  }

  unsigned char header[kFrameHeaderBytes];
  {
    common::Status got = ReadExactly(fd_, reinterpret_cast<char*>(header),
                             sizeof(header), deadline);
    if (!got.ok()) return deadline_guard(std::move(got));
  }
  const uint64_t length = DecodeFrameHeader(header);
  if (length == 0 || length > max_frame_bytes_) {
    Disconnect();  // framing is out of sync; the stream is unusable
    return Status::Internal("server sent a frame of " +
                            std::to_string(length) + " bytes");
  }
  std::string payload_in(static_cast<size_t>(length), '\0');
  {
    common::Status got =
        ReadExactly(fd_, payload_in.data(), payload_in.size(), deadline);
    if (!got.ok()) return deadline_guard(std::move(got));
  }
  return payload_in;
}

Result<Response> Client::Call(const Request& request) {
  QLEARN_ASSIGN_OR_RETURN(const std::string raw,
                          CallRaw(Serialize(request)));
  return ParseResponse(request.op, raw);
}

Result<std::string> Client::Open(const std::string& scenario,
                                 const service::OpenOptions& options) {
  Request request;
  request.op = Request::Op::kOpen;
  request.scenario = scenario;
  request.seed = options.seed;
  request.max_questions = options.budget.max_questions;
  request.max_pending = options.budget.max_pending;
  request.max_wall_micros = WallBudgetMicros(options.budget.max_wall_seconds);
  request.id = options.id;
  QLEARN_ASSIGN_OR_RETURN(const Response response, Call(request));
  if (!response.status.ok()) return response.status;
  return response.id;
}

Result<std::vector<service::wire::QuestionPayload>> Client::Ask(
    const std::string& id, uint64_t k) {
  Request request;
  request.op = Request::Op::kAsk;
  request.id = id;
  request.k = k;
  QLEARN_ASSIGN_OR_RETURN(Response response, Call(request));
  if (!response.status.ok()) return response.status;
  return std::move(response.questions);
}

common::Status Client::Tell(const std::string& id,
                            const std::vector<bool>& labels) {
  Request request;
  request.op = Request::Op::kTell;
  request.id = id;
  request.labels = labels;
  auto response = Call(request);
  if (!response.ok()) return response.status();
  return response.value().status;
}

Result<std::vector<bool>> Client::OracleLabels(const std::string& id) {
  Request request;
  request.op = Request::Op::kOracle;
  request.id = id;
  QLEARN_ASSIGN_OR_RETURN(Response response, Call(request));
  if (!response.status.ok()) return response.status;
  return std::move(response.labels);
}

Result<service::SessionStatus> Client::Status(const std::string& id) {
  Request request;
  request.op = Request::Op::kStatus;
  request.id = id;
  QLEARN_ASSIGN_OR_RETURN(Response response, Call(request));
  if (!response.status.ok()) return response.status;
  return std::move(response.session);
}

Result<service::CloseResult> Client::Close(const std::string& id) {
  Request request;
  request.op = Request::Op::kClose;
  request.id = id;
  QLEARN_ASSIGN_OR_RETURN(Response response, Call(request));
  if (!response.status.ok()) return response.status;
  service::CloseResult result;
  result.hypothesis = std::move(response.hypothesis);
  result.stats = response.stats;
  return result;
}

Result<std::pair<service::ServiceCounters, uint64_t>> Client::Counters() {
  Request request;
  request.op = Request::Op::kCounters;
  QLEARN_ASSIGN_OR_RETURN(const Response response, Call(request));
  if (!response.status.ok()) return response.status;
  return std::make_pair(response.counters, response.open_sessions);
}

Result<std::vector<std::string>> Client::ListSessions() {
  Request request;
  request.op = Request::Op::kSessions;
  QLEARN_ASSIGN_OR_RETURN(Response response, Call(request));
  if (!response.status.ok()) return response.status;
  return std::move(response.session_ids);
}

Result<service::ExportedSession> Client::ExportSession(
    const std::string& id) {
  Request request;
  request.op = Request::Op::kExport;
  request.id = id;
  QLEARN_ASSIGN_OR_RETURN(Response response, Call(request));
  if (!response.status.ok()) return response.status;
  service::ExportedSession exported;
  exported.scenario = std::move(response.scenario);
  exported.image = std::move(response.image);
  return exported;
}

common::Status Client::ImportSession(const std::string& id,
                                     const std::string& scenario,
                                     const std::string& image) {
  Request request;
  request.op = Request::Op::kImport;
  request.id = id;
  request.scenario = scenario;
  request.image = image;
  auto response = Call(request);
  if (!response.ok()) return response.status();
  return response.value().status;
}

}  // namespace net
}  // namespace qlearn
