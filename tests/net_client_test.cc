// Regression tests for net::Client per-call deadlines: a server that
// accepts but never answers must surface DeadlineExceeded in bounded time
// instead of blocking forever, and an expired call must tear down the
// connection (the framing state is unknowable mid-call). Also covers how
// Client::Open carries a session's wall-clock budget over the wire.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/server.h"
#include "service/session_service.h"

namespace qlearn {
namespace net {
namespace {

using common::StatusCode;

/// A listening socket that accepts connections but never reads or writes:
/// the most honest model of a hung server.
class SilentServer {
 public:
  SilentServer() { Init(); }
  ~SilentServer() {
    if (accepted_fd_ >= 0) ::close(accepted_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

  /// Accepts the pending connection (so the client's send succeeds) and
  /// then ignores it.
  void AcceptOne() { accepted_fd_ = ::accept(listen_fd_, nullptr, nullptr); }

 private:
  void Init() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(listen_fd_, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listen_fd_, 8), 0);
    socklen_t len = sizeof(addr);
    ASSERT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                            &len),
              0);
    port_ = ntohs(addr.sin_port);
  }

  int listen_fd_ = -1;
  int accepted_fd_ = -1;
  uint16_t port_ = 0;
};

TEST(NetClientDeadlineTest, CallAgainstSilentServerTimesOut) {
  SilentServer server;
  auto connected =
      Client::Connect("127.0.0.1", server.port(), kDefaultMaxFrameBytes,
                      /*deadline_millis=*/200);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(connected).value();
  server.AcceptOne();

  const auto start = std::chrono::steady_clock::now();
  auto response = client.CallRaw("{\"op\":\"counters\"}");
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
  // Bounded: well past the 200ms budget yet nowhere near "forever".
  EXPECT_GE(elapsed, 150);
  EXPECT_LT(elapsed, 5000);

  // The expired call abandoned a response mid-stream, so the connection is
  // gone; the next call fails fast rather than desyncing the framing.
  auto after = client.CallRaw("{\"op\":\"counters\"}");
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
}

TEST(NetClientDeadlineTest, DeadlineSettableAfterConnect) {
  SilentServer server;
  auto connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(connected).value();
  server.AcceptOne();
  EXPECT_EQ(client.deadline_millis(), 0);
  client.set_deadline_millis(100);
  EXPECT_EQ(client.deadline_millis(), 100);
  auto response = client.CallRaw("{\"op\":\"counters\"}");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(NetClientDeadlineTest, DeadlineDoesNotFireAgainstAResponsiveServer) {
  // A real server well inside the budget: deadline-armed calls behave
  // exactly like the blocking ones.
  service::SessionService service;
  Server real(&service);
  ASSERT_TRUE(real.Start().ok());
  auto connected = Client::Connect("127.0.0.1", real.port(),
                                   kDefaultMaxFrameBytes,
                                   /*deadline_millis=*/5000);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(connected).value();
  auto id = client.Open("twig", {});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto counters = client.Counters();
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
  EXPECT_EQ(counters.value().first.opens, 1u);
  ASSERT_TRUE(client.Close(id.value()).ok());
}

TEST(NetClientOpenTest, WallBudgetsSurviveTheMicrosecondWire) {
  // The wire carries whole microseconds with 0 = unlimited. A positive
  // sub-microsecond budget must still be enforced (not truncated to
  // "unlimited"), and negative or infinite budgets must open cleanly as
  // unlimited rather than hit an out-of-range cast.
  service::SessionService service;
  Server server(&service);
  ASSERT_TRUE(server.Start().ok());
  auto connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(connected).value();

  const auto ask_after_2ms = [&](double max_wall_seconds) {
    service::OpenOptions open;
    open.budget.max_wall_seconds = max_wall_seconds;
    auto id = client.Open("join", open);
    EXPECT_TRUE(id.ok()) << max_wall_seconds << ": "
                         << id.status().ToString();
    if (!id.ok()) return StatusCode::kInternal;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto asked = client.Ask(id.value(), 1);
    EXPECT_TRUE(client.Close(id.value()).ok());
    return asked.ok() ? StatusCode::kOk : asked.status().code();
  };
  EXPECT_EQ(ask_after_2ms(5e-7), StatusCode::kResourceExhausted);
  EXPECT_EQ(ask_after_2ms(-1), StatusCode::kOk);
  EXPECT_EQ(ask_after_2ms(std::numeric_limits<double>::infinity()),
            StatusCode::kOk);
  EXPECT_EQ(ask_after_2ms(std::numeric_limits<double>::quiet_NaN()),
            StatusCode::kOk);
  server.Stop();
}

TEST(NetClientDeadlineTest, ConnectToUnroutableAddressTimesOut) {
  // 203.0.113.1 (TEST-NET-3) is reserved for documentation and never
  // routed: SYNs disappear, so only the deadline can end the connect.
  const auto start = std::chrono::steady_clock::now();
  auto connected = Client::Connect("203.0.113.1", 9, kDefaultMaxFrameBytes,
                                   /*deadline_millis=*/200);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  if (connected.ok()) {
    GTEST_SKIP() << "environment routes TEST-NET-3; cannot exercise "
                    "connect timeout here";
  }
  // Sandboxed environments may refuse the route outright (Internal);
  // otherwise the SYN blackholes and the deadline fires.
  if (connected.status().code() == StatusCode::kDeadlineExceeded) {
    EXPECT_GE(elapsed, 150);
  }
  EXPECT_LT(elapsed, 5000);
}

}  // namespace
}  // namespace net
}  // namespace qlearn
