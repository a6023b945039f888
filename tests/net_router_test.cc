// Loopback integration tests for the consistent-hash routing front tier:
// a real net::Router in front of N real net::Server backends, driven
// through net::Client (and a raw pipelining socket) over real sockets.
//
// The centerpiece replays the golden transcripts through the router at 1,
// 2, and 4 backends and asserts the served bytes are identical to the
// checked-in goldens — the router forwards responses as opaque bytes, so
// routing must be invisible at the byte level. The rebalance tests grow
// the fleet mid-transcript, once under the multiplexed golden load, and
// require every migrated session to finish with zero errors and zero byte
// mismatches.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/router.h"
#include "net/server.h"
#include "net/shard_map.h"
#include "service/session_service.h"
#include "service/wire.h"
#include "transcript_harness.h"

namespace qlearn {
namespace net {
namespace {

using common::StatusCode;

/// One backend process stand-in: its own service and server.
struct Backend {
  Backend() : server(&service) {}

  BackendAddress address() const { return {"127.0.0.1", server.port()}; }

  service::SessionService service;
  Server server;
};

class RouterFixture {
 public:
  void StartBackends(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      backends_.push_back(std::make_unique<Backend>());
      ASSERT_TRUE(backends_.back()->server.Start().ok());
    }
  }

  void StartRouter(size_t reactors = 1) {
    ShardMap map;
    for (const auto& backend : backends_) {
      map.backends.push_back(backend->address());
    }
    RouterOptions options;
    options.reactors = reactors;
    router_ = std::make_unique<Router>(std::move(map), options);
    ASSERT_TRUE(router_->Start().ok());
  }

  Client Connect() {
    auto client = Client::Connect("127.0.0.1", router_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  /// A session id placed on backend `bucket` out of `buckets` by the same
  /// jump hash the router uses.
  static std::string IdOnBucket(size_t bucket, size_t buckets) {
    for (int i = 0; i < 10000; ++i) {
      const std::string id = "t-" + std::to_string(i);
      if (ShardFor(id, buckets) == bucket) return id;
    }
    ADD_FAILURE() << "no id found for bucket " << bucket;
    return "t-0";
  }

  std::vector<std::unique_ptr<Backend>> backends_;
  std::unique_ptr<Router> router_;
};

class NetRouterTest : public ::testing::Test, public RouterFixture {};

/// Raw framed-TCP connection for pipelining tests: the blocking Client is
/// strict request/response, so bursts need hand-rolled socket I/O.
class RawConn {
 public:
  explicit RawConn(uint16_t port) { Init(port); }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void SendBurst(const std::vector<std::string>& payloads) {
    std::string wire;
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(AppendFrame(payload, kDefaultMaxFrameBytes, &wire));
    }
    size_t pos = 0;
    while (pos < wire.size()) {
      const ssize_t n =
          ::send(fd_, wire.data() + pos, wire.size() - pos, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      pos += static_cast<size_t>(n);
    }
  }

  std::string RecvFrame() {
    unsigned char header[kFrameHeaderBytes];
    ReadExactly(reinterpret_cast<char*>(header), sizeof(header));
    const uint64_t length = DecodeFrameHeader(header);
    EXPECT_GT(length, 0u);
    EXPECT_LE(length, kDefaultMaxFrameBytes);
    std::string payload(static_cast<size_t>(length), '\0');
    ReadExactly(payload.data(), payload.size());
    return payload;
  }

 private:
  void Init(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd_, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }

  void ReadExactly(char* out, size_t n) {
    size_t pos = 0;
    while (pos < n) {
      const ssize_t got = ::recv(fd_, out + pos, n - pos, 0);
      ASSERT_GT(got, 0);
      pos += static_cast<size_t>(got);
    }
  }

  int fd_ = -1;
};

/// A scripted stand-in backend for protocol-corruption tests: answers
/// every request frame with one canned payload. With `poison_first_conn`
/// its first connection appends one extra *unsolicited* frame after the
/// response and closes — the desynced-backend behavior a real server
/// never exhibits.
class FakeBackend {
 public:
  explicit FakeBackend(std::string response, bool poison_first_conn)
      : response_(std::move(response)), poison_next_(poison_first_conn) {
    Init();
    thread_ = std::thread([this] { Serve(); });
  }

  ~FakeBackend() {
    running_.store(false);
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  uint16_t port() const { return port_; }

 private:
  void Init() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(listen_fd_, 0);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0);
    ASSERT_EQ(::listen(listen_fd_, 8), 0);
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    ASSERT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                            &len),
              0);
    port_ = ntohs(bound.sin_port);
  }

  /// Polls `fd` readable in short slices so the serve thread notices
  /// shutdown even while a peer keeps its connection open.
  bool WaitReadable(int fd) {
    while (running_.load()) {
      pollfd p{fd, POLLIN, 0};
      const int ready = ::poll(&p, 1, 50);
      if (ready > 0) return true;
      if (ready < 0 && errno != EINTR) return false;
    }
    return false;
  }

  bool ReadExactly(int fd, char* out, size_t n) {
    size_t pos = 0;
    while (pos < n) {
      if (!WaitReadable(fd)) return false;
      const ssize_t got = ::recv(fd, out + pos, n - pos, 0);
      if (got <= 0) return false;
      pos += static_cast<size_t>(got);
    }
    return true;
  }

  void Serve() {
    while (running_.load()) {
      if (!WaitReadable(listen_fd_)) return;
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) continue;
      ServeConn(fd, poison_next_);
      ::close(fd);
      poison_next_ = false;
    }
  }

  void ServeConn(int fd, bool poison) {
    for (;;) {
      unsigned char header[kFrameHeaderBytes];
      if (!ReadExactly(fd, reinterpret_cast<char*>(header), sizeof(header))) {
        return;
      }
      const uint64_t length = DecodeFrameHeader(header);
      if (length == 0 || length > kDefaultMaxFrameBytes) return;
      std::string payload(static_cast<size_t>(length), '\0');
      if (!ReadExactly(fd, payload.data(), payload.size())) return;
      std::string wire;
      if (!AppendFrame(response_, kDefaultMaxFrameBytes, &wire)) return;
      // The response plus one frame nobody asked for, then EOF: both the
      // unsolicited frame and the close must tear the connection down
      // router-side.
      if (poison && !AppendFrame(response_, kDefaultMaxFrameBytes, &wire)) {
        return;
      }
      size_t pos = 0;
      while (pos < wire.size()) {
        const ssize_t n =
            ::send(fd, wire.data() + pos, wire.size() - pos, MSG_NOSIGNAL);
        if (n <= 0) return;
        pos += static_cast<size_t>(n);
      }
      if (poison) return;
    }
  }

  std::string response_;
  bool poison_next_ = false;  // serve-thread-only after construction
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{true};
  std::thread thread_;
};

TEST_F(NetRouterTest, MissingOrMalformedIdAnsweredWithoutBackendRoundTrip) {
  StartBackends(2);
  StartRouter();
  Client client = Connect();

  // Missing id on an id-requiring op: the backend's exact error wording,
  // but the backends never see a frame.
  auto no_id = client.CallRaw("{\"k\":1,\"op\":\"ask\"}");
  ASSERT_TRUE(no_id.ok()) << no_id.status().ToString();
  EXPECT_EQ(no_id.value(),
            "{\"error\":{\"code\":\"ParseError\",\"message\":\"json: "
            "missing or non-string \\\"id\\\"\"}}");

  // Malformed id (non-string) and malformed JSON both answer locally too.
  auto bad_id = client.CallRaw("{\"id\":7,\"k\":1,\"op\":\"ask\"}");
  ASSERT_TRUE(bad_id.ok());
  EXPECT_EQ(bad_id.value().rfind("{\"error\":{\"code\":\"ParseError\"", 0),
            0u)
      << bad_id.value();
  auto not_json = client.CallRaw("this is not json");
  ASSERT_TRUE(not_json.ok());
  EXPECT_EQ(not_json.value().rfind("{\"error\":", 0), 0u);
  auto unknown_op = client.CallRaw("{\"op\":\"frobnicate\"}");
  ASSERT_TRUE(unknown_op.ok());
  EXPECT_EQ(unknown_op.value(),
            "{\"error\":{\"code\":\"ParseError\",\"message\":\"protocol: "
            "unknown op \\\"frobnicate\\\"\"}}");

  for (const auto& backend : backends_) {
    EXPECT_EQ(backend->server.stats().frames_received, 0u);
  }
  const RouterStats stats = router_->stats();
  EXPECT_EQ(stats.local_answers, 4u);
  EXPECT_EQ(stats.frames_forwarded, 0u);
}

TEST_F(NetRouterTest, MintedOpenPastTheFrameCapIsAnsweredLocally) {
  // A 253-byte id-less open fits the router's 256-byte cap, but the minted
  // id pushes it past: no backend could read it, so the router answers
  // and forwards nothing.
  StartBackends(1);
  ShardMap map;
  map.backends.push_back(backends_[0]->address());
  RouterOptions options;
  options.max_frame_bytes = 256;
  router_ = std::make_unique<Router>(std::move(map), options);
  ASSERT_TRUE(router_->Start().ok());
  Client client = Connect();

  const std::string prefix = "{\"op\":\"open\",\"scenario\":\"";
  const std::string suffix = "\"}";
  const std::string open =
      prefix + std::string(253 - prefix.size() - suffix.size(), 'x') + suffix;
  ASSERT_EQ(open.size(), 253u);
  auto response = client.CallRaw(open);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value(),
            "{\"error\":{\"code\":\"InvalidArgument\",\"message\":\"open of "
            "279 bytes with a minted id exceeds the frame limit\"}}");
  EXPECT_EQ(backends_[0]->server.stats().frames_received, 0u);
  const RouterStats stats = router_->stats();
  EXPECT_EQ(stats.frames_forwarded, 0u);
  EXPECT_EQ(stats.local_answers, 1u);
  EXPECT_EQ(stats.ids_minted, 0u);
}

TEST_F(NetRouterTest, MergedResponsePastTheFrameCapIsOneStructuredError) {
  // Each backend's `sessions` list fits the router's 200-byte cap, but
  // the merged list of all 16 ids does not: the client gets the reactor's
  // oversize error frame (the same text the server sends).
  StartBackends(2);
  ShardMap map;
  for (const auto& backend : backends_) {
    map.backends.push_back(backend->address());
  }
  RouterOptions options;
  options.max_frame_bytes = 200;
  router_ = std::make_unique<Router>(std::move(map), options);
  ASSERT_TRUE(router_->Start().ok());
  Client client = Connect();

  // 16 ids shaped like minted ones, 8 per backend, so each backend's list
  // is 184 bytes and the merge is 352.
  size_t per_bucket[2] = {0, 0};
  for (uint64_t i = 0; per_bucket[0] + per_bucket[1] < 16; ++i) {
    char id[2 + 16 + 1];
    std::snprintf(id, sizeof(id), "r-%016llx",
                  static_cast<unsigned long long>(i));
    const size_t bucket = ShardFor(id, 2);
    if (per_bucket[bucket] == 8) continue;
    ++per_bucket[bucket];
    service::OpenOptions open;
    open.id = id;
    ASSERT_TRUE(client.Open("twig", open).ok()) << id;
  }
  auto sessions = client.CallRaw("{\"op\":\"sessions\"}");
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  EXPECT_EQ(sessions.value(),
            "{\"error\":{\"code\":\"Internal\",\"message\":\"response of 352 "
            "bytes exceeds the frame limit\"}}");
  EXPECT_EQ(router_->stats().backend_errors, 0u);
}

TEST_F(NetRouterTest, MintedOpenIdsPlaceDeterministically) {
  StartBackends(2);
  StartRouter();
  Client client = Connect();

  // Id-less opens get router-minted ids; each lands on the backend the
  // jump hash says owns it.
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    auto id = client.Open("twig", {});
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(id.value().rfind("r-", 0), 0u) << id.value();
    ids.push_back(id.value());
  }
  EXPECT_EQ(router_->stats().ids_minted, 8u);
  for (const std::string& id : ids) {
    const size_t owner = ShardFor(id, backends_.size());
    const auto open = backends_[owner]->service.ListOpen();
    EXPECT_NE(std::find(open.begin(), open.end(), id), open.end())
        << id << " not on backend " << owner;
    ASSERT_TRUE(client.Close(id).ok());
  }

  // Caller-supplied ids route by the same hash; reopening a taken id is
  // the backend's AlreadyExists, round-tripped.
  service::OpenOptions with_id;
  with_id.id = IdOnBucket(1, 2);
  ASSERT_TRUE(client.Open("join", with_id).ok());
  EXPECT_EQ(client.Open("join", with_id).status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(client.Close(with_id.id).ok());
}

TEST_F(NetRouterTest, BackendDeathIsUnavailableWhileOtherShardsServe) {
  StartBackends(2);
  StartRouter();
  Client client = Connect();

  service::OpenOptions on_dead;
  on_dead.id = IdOnBucket(0, 2);
  service::OpenOptions on_live;
  on_live.id = IdOnBucket(1, 2);
  ASSERT_TRUE(client.Open("twig", on_dead).ok());
  ASSERT_TRUE(client.Open("twig", on_live).ok());
  // Both backends have served traffic, so the router holds live
  // connections to each.
  ASSERT_TRUE(client.Status(on_dead.id).ok());
  ASSERT_TRUE(client.Status(on_live.id).ok());

  backends_[0]->server.Stop();

  // The dead shard surfaces Unavailable (maybe after one in-flight error
  // drains); the live shard keeps serving the whole time.
  common::Status dead_status = common::Status::OK();
  for (int i = 0; i < 10 && dead_status.code() != StatusCode::kUnavailable;
       ++i) {
    dead_status = client.Status(on_dead.id).status();
  }
  EXPECT_EQ(dead_status.code(), StatusCode::kUnavailable)
      << dead_status.ToString();
  auto live = client.Status(on_live.id);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(live.value().scenario, "twig");
  ASSERT_TRUE(client.Close(on_live.id).ok());
  EXPECT_GT(router_->stats().backend_errors, 0u);
}

TEST_F(NetRouterTest, UnsolicitedBackendFrameDropsConnectionWithoutCorruption) {
  // Two fakes: the poisoned one plus a healthy one, so the shard's
  // backend table is non-empty after the poisoned connection dies — the
  // use-after-free regression needs a live entry for the post-response
  // liveness lookup to compare the freed connection's address against.
  FakeBackend poisoned("{\"ok\":{\"x\":1}}", /*poison_first_conn=*/true);
  FakeBackend healthy("{\"ok\":{\"x\":2}}", /*poison_first_conn=*/false);
  ShardMap map;
  map.backends.push_back({"127.0.0.1", poisoned.port()});
  map.backends.push_back({"127.0.0.1", healthy.port()});
  router_ = std::make_unique<Router>(std::move(map), RouterOptions());
  ASSERT_TRUE(router_->Start().ok());
  Client client = Connect();
  const std::string on_poisoned =
      "{\"id\":\"" + IdOnBucket(0, 2) + "\",\"op\":\"status\"}";
  const std::string on_healthy =
      "{\"id\":\"" + IdOnBucket(1, 2) + "\",\"op\":\"status\"}";

  // Establish the healthy connection first so it outlives the poisoning.
  auto ok2 = client.CallRaw(on_healthy);
  ASSERT_TRUE(ok2.ok()) << ok2.status().ToString();
  EXPECT_EQ(ok2.value(), "{\"ok\":{\"x\":2}}");

  // This response arrives glued to a frame nobody asked for. The router
  // must deliver the response and fail the poisoned backend connection
  // without touching the freed BackendConn (the ASan regression).
  auto first = client.CallRaw(on_poisoned);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value(), "{\"ok\":{\"x\":1}}");

  // Later requests re-dial and are served on a fresh connection. The
  // teardown can race one request onto the dying connection (answered
  // Unavailable), so retry until the canned answer returns over dial #3.
  std::string body;
  for (int i = 0; i < 100; ++i) {
    auto result = client.CallRaw(on_poisoned);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    body = result.value();
    if (router_->stats().backend_reconnects >= 3 &&
        body == "{\"ok\":{\"x\":1}}") {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(body, "{\"ok\":{\"x\":1}}");
  EXPECT_GE(router_->stats().backend_reconnects, 3u);
  // The healthy backend kept serving throughout.
  auto after = client.CallRaw(on_healthy);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), "{\"ok\":{\"x\":2}}");
  router_.reset();  // before the fakes: their serve threads join on exit
}

TEST_F(NetRouterTest, FailedBackendDialsFailFastFromTheBackoffCache) {
  // A port with no listener: bind-then-close reserves one that refuses.
  const int probe = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&bound), &len),
            0);
  const uint16_t dead_port = ntohs(bound.sin_port);
  ::close(probe);

  ShardMap map;
  map.backends.push_back({"127.0.0.1", dead_port});
  router_ = std::make_unique<Router>(std::move(map), RouterOptions());
  ASSERT_TRUE(router_->Start().ok());
  Client client = Connect();

  // Both requests answer Unavailable, but only the first one dials: the
  // second hits the failure cache instead of re-blocking the reactor.
  for (int i = 0; i < 2; ++i) {
    auto result = client.CallRaw("{\"id\":\"s\",\"op\":\"status\"}");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(
        result.value().rfind("{\"error\":{\"code\":\"Unavailable\"", 0), 0u)
        << result.value();
  }
  const RouterStats stats = router_->stats();
  EXPECT_EQ(stats.dial_backoffs, 1u);
  EXPECT_EQ(stats.backend_errors, 2u);
  EXPECT_EQ(stats.backend_reconnects, 0u);
}

TEST_F(NetRouterTest, PipelinedBurstFromOneClientPreservesFifoAcrossBackends) {
  StartBackends(2);
  StartRouter();
  Client admin = Connect();

  // Two sessions on different backends, with visibly different state.
  service::OpenOptions a;
  a.id = IdOnBucket(0, 2);
  service::OpenOptions b;
  b.id = IdOnBucket(1, 2);
  ASSERT_TRUE(admin.Open("twig", a).ok());
  ASSERT_TRUE(admin.Open("join", b).ok());

  // One pipelined burst alternating backends, with a local error in the
  // middle: responses must come back in exact request order.
  RawConn conn(router_->port());
  std::vector<std::string> burst;
  for (int round = 0; round < 8; ++round) {
    burst.push_back("{\"id\":\"" + (round % 2 == 0 ? a.id : b.id) +
                    "\",\"op\":\"status\"}");
  }
  burst.push_back("{\"op\":\"status\"}");  // missing id: answered locally
  for (int round = 0; round < 8; ++round) {
    burst.push_back("{\"id\":\"" + (round % 2 == 0 ? b.id : a.id) +
                    "\",\"op\":\"status\"}");
  }
  conn.SendBurst(burst);
  for (size_t i = 0; i < burst.size(); ++i) {
    const std::string response = conn.RecvFrame();
    if (i == 8) {
      EXPECT_EQ(response.rfind("{\"error\":", 0), 0u) << response;
      continue;
    }
    const bool want_a = i < 8 ? (i % 2 == 0) : ((i - 9) % 2 == 1);
    const std::string want_scenario = want_a ? "twig" : "join";
    auto parsed = ParseResponse(Request::Op::kStatus, response);
    ASSERT_TRUE(parsed.ok()) << response;
    ASSERT_TRUE(parsed.value().status.ok()) << response;
    EXPECT_EQ(parsed.value().session.scenario, want_scenario)
        << "response " << i << " out of order";
  }
  ASSERT_TRUE(admin.Close(a.id).ok());
  ASSERT_TRUE(admin.Close(b.id).ok());
}

TEST_F(NetRouterTest, CountersFanOutMergesOpCountsAndHistograms) {
  StartBackends(2);
  StartRouter();
  Client client = Connect();

  // Traffic on both backends.
  for (size_t bucket = 0; bucket < 2; ++bucket) {
    service::OpenOptions options;
    options.id = IdOnBucket(bucket, 2);
    ASSERT_TRUE(client.Open("twig", options).ok());
    auto batch = client.Ask(options.id, 2);
    ASSERT_TRUE(batch.ok());
    auto labels = client.OracleLabels(options.id);
    ASSERT_TRUE(labels.ok());
    ASSERT_TRUE(client.Tell(options.id, labels.value()).ok());
  }

  auto merged = client.Counters();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  // The merge equals the field-wise and bucket-wise sum of what each
  // backend reports directly.
  service::ServiceCounters want;
  uint64_t want_open = 0;
  for (const auto& backend : backends_) {
    auto direct = Client::Connect("127.0.0.1", backend->server.port());
    ASSERT_TRUE(direct.ok());
    auto counters = direct.value().Counters();
    ASSERT_TRUE(counters.ok());
    const service::ServiceCounters& c = counters.value().first;
    want.opens += c.opens;
    want.asks += c.asks;
    want.tells += c.tells;
    want.questions_served += c.questions_served;
    want.labels_accepted += c.labels_accepted;
    for (size_t i = 0; i < service::LatencySnapshot::kBuckets; ++i) {
      want.ask_latency_us.buckets[i] += c.ask_latency_us.buckets[i];
      want.tell_latency_us.buckets[i] += c.tell_latency_us.buckets[i];
    }
    want_open += counters.value().second;
  }
  // Each backend saw exactly one open/ask/tell, so the merge must see two.
  EXPECT_EQ(want.opens, 2u);
  EXPECT_EQ(merged.value().first.opens, want.opens);
  EXPECT_EQ(merged.value().first.asks, want.asks);
  EXPECT_EQ(merged.value().first.tells, want.tells);
  EXPECT_EQ(merged.value().first.questions_served, want.questions_served);
  EXPECT_EQ(merged.value().first.labels_accepted, want.labels_accepted);
  EXPECT_EQ(merged.value().second, want_open);
  uint64_t merged_ask_samples = 0;
  uint64_t want_ask_samples = 0;
  for (size_t i = 0; i < service::LatencySnapshot::kBuckets; ++i) {
    EXPECT_EQ(merged.value().first.ask_latency_us.buckets[i],
              want.ask_latency_us.buckets[i])
        << "ask bucket " << i;
    EXPECT_EQ(merged.value().first.tell_latency_us.buckets[i],
              want.tell_latency_us.buckets[i])
        << "tell bucket " << i;
    merged_ask_samples += merged.value().first.ask_latency_us.buckets[i];
    want_ask_samples += want.ask_latency_us.buckets[i];
  }
  EXPECT_EQ(merged_ask_samples, 2u);  // one ask per backend, both counted
  EXPECT_EQ(merged_ask_samples, want_ask_samples);
  EXPECT_GE(router_->stats().fanouts, 1u);

  // `sessions` fans out too: the union of both backends' handles.
  auto ids = client.ListSessions();
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids.value().size(), 2u);
  for (size_t bucket = 0; bucket < 2; ++bucket) {
    ASSERT_TRUE(client.Close(IdOnBucket(bucket, 2)).ok());
  }
}

TEST_F(NetRouterTest, ExportImportRoundTripsThroughTheRouter) {
  StartBackends(2);
  StartRouter();
  Client client = Connect();

  service::OpenOptions options;
  options.id = IdOnBucket(0, 2);
  ASSERT_TRUE(client.Open("twig", options).ok());
  auto batch = client.Ask(options.id, 2);
  ASSERT_TRUE(batch.ok());
  auto labels = client.OracleLabels(options.id);
  ASSERT_TRUE(labels.ok());
  ASSERT_TRUE(client.Tell(options.id, labels.value()).ok());

  // Export parks + ships the image and deletes the session; import adopts
  // it back (same id routes to the same backend), and the session picks up
  // exactly where it left off.
  auto exported = client.ExportSession(options.id);
  ASSERT_TRUE(exported.ok()) << exported.status().ToString();
  EXPECT_EQ(exported.value().scenario, "twig");
  EXPECT_FALSE(exported.value().image.empty());
  EXPECT_EQ(client.Status(options.id).status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(client
                  .ImportSession(options.id, exported.value().scenario,
                                 exported.value().image)
                  .ok());
  auto status = client.Status(options.id);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status.value().scenario, "twig");
  EXPECT_GE(status.value().stats.questions, 2u);
  ASSERT_TRUE(client.Close(options.id).ok());
}

// ---- golden replay through the router ----

class NetRouterGoldenTest : public ::testing::TestWithParam<size_t>,
                            public RouterFixture {};

TEST_P(NetRouterGoldenTest, GoldenTranscriptsReplayByteIdenticalViaRouter) {
  StartBackends(GetParam());
  StartRouter(/*reactors=*/2);
  auto goldens = testing::LoadGoldens();
  ASSERT_TRUE(goldens.ok()) << goldens.status().ToString();
  ASSERT_EQ(goldens.value().size(), testing::ConformanceCases().size());
  // Ids are router-minted here, which the comparison never looks at.
  Client client = Connect();
  for (size_t i = 0; i < goldens.value().size(); ++i) {
    SCOPED_TRACE(testing::ConformanceCases()[i].name);
    auto mismatches = testing::ReplayTranscript(&client, goldens.value()[i]);
    ASSERT_TRUE(mismatches.ok()) << mismatches.status().ToString();
    for (const std::string& m : mismatches.value()) ADD_FAILURE() << m;
  }
  const RouterStats stats = router_->stats();
  EXPECT_EQ(stats.bad_frames, 0u);
  EXPECT_EQ(stats.backend_errors, 0u);
  EXPECT_GT(stats.frames_forwarded, 0u);
}

INSTANTIATE_TEST_SUITE_P(BackendCounts, NetRouterGoldenTest,
                         ::testing::Values(1u, 2u, 4u),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::to_string(info.param) + "_backends";
                         });

// ---- live rebalance ----

TEST_F(NetRouterTest, RebalanceMigratesSessionsMidTranscriptWithZeroErrors) {
  StartBackends(1);
  StartRouter();
  Client client = Connect();

  // Several sessions mid-transcript on the single backend: each has asked
  // and told (quiescent between batches), with work left to do. Their ids
  // are fixed, not router-minted (minted ids start from a per-Start nonce),
  // so which of them the rebalance moves is the same on every run.
  constexpr size_t kSessions = 6;
  std::vector<std::string> ids;
  for (size_t i = 0; i < kSessions; ++i) {
    service::OpenOptions options;
    options.seed = 100 + i;
    options.id = "m-" + std::to_string(i);
    auto id = client.Open(i % 2 == 0 ? "twig" : "join", options);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
    auto batch = client.Ask(id.value(), 2);
    ASSERT_TRUE(batch.ok());
    auto labels = client.OracleLabels(id.value());
    ASSERT_TRUE(labels.ok());
    ASSERT_TRUE(client.Tell(id.value(), labels.value()).ok());
  }

  // Grow the fleet: add a second backend and rebalance. Only sessions
  // whose jump-hash owner changed move.
  backends_.push_back(std::make_unique<Backend>());
  ASSERT_TRUE(backends_.back()->server.Start().ok());
  const uint64_t generation_before = router_->shard_map().generation;
  std::vector<BackendAddress> grown = {backends_[0]->address(),
                                       backends_[1]->address()};
  ASSERT_TRUE(router_->Rebalance(grown).ok());
  EXPECT_EQ(router_->shard_map().generation, generation_before + 1);

  size_t expected_moves = 0;
  for (const std::string& id : ids) {
    if (ShardFor(id, 2) == 1) ++expected_moves;
  }
  ASSERT_GT(expected_moves, 0u)
      << "jump hash moved nothing; test ids need rechecking";
  EXPECT_EQ(router_->stats().handoffs, expected_moves);
  EXPECT_EQ(backends_[1]->service.ListOpen().size(), expected_moves);

  // Every session — migrated or not — finishes its transcript through the
  // same client connection with zero errors; migrated sessions kept their
  // full learner state (stats count the pre-migration questions).
  for (const std::string& id : ids) {
    while (true) {
      auto batch = client.Ask(id, 3);
      ASSERT_TRUE(batch.ok()) << id << ": " << batch.status().ToString();
      if (batch.value().empty()) break;
      auto labels = client.OracleLabels(id);
      ASSERT_TRUE(labels.ok()) << id;
      ASSERT_TRUE(client.Tell(id, labels.value()).ok()) << id;
    }
    auto closed = client.Close(id);
    ASSERT_TRUE(closed.ok()) << id << ": " << closed.status().ToString();
    EXPECT_GE(closed.value().stats.questions, 2u) << id;
  }
  for (const auto& backend : backends_) {
    EXPECT_EQ(backend->service.OpenCount(), 0u);
  }
  const RouterStats stats = router_->stats();
  EXPECT_EQ(stats.backend_errors, 0u);
  EXPECT_EQ(stats.rebalances, 1u);
}

/// Fails on every field of `fields` (the connections_open gauge aside)
/// that reads lower in `now` than in `before`.
template <typename Stats, typename Base, size_t N>
void ExpectNonDecreasing(const Stats& before, const Stats& now,
                         const common::CounterField<Base> (&fields)[N]) {
  for (const auto& field : fields) {
    if (field.name == "connections_open") continue;
    EXPECT_GE(now.*field.member, before.*field.member) << field.name;
  }
}

TEST_F(NetRouterTest, GoldenLoadSurvivesLiveRebalance) {
  StartBackends(2);
  StartRouter(/*reactors=*/2);
  // Growing the fleet to three backends moves the ids whose jump-hash
  // owner becomes bucket 2. The rebalance runs on the connection thread
  // that opened last, while the other connections keep replaying; that
  // thread's own sessions are open and quiescent throughout, so at least
  // its moving sessions are handed off, whichever thread it is.
  size_t min_moves = testing::kLoadSessionsPerConnection;
  for (size_t c = 0; c < testing::kLoadConnections; ++c) {
    size_t moves = 0;
    for (size_t k = 0; k < testing::kLoadSessionsPerConnection; ++k) {
      if (ShardFor(testing::LoadSessionId(c, k), 3) == 2) ++moves;
    }
    min_moves = std::min(min_moves, moves);
  }
  ASSERT_GT(min_moves, 0u) << "load ids need rechecking";

  // The third backend exists before the load (its server starts mid-run),
  // so a poller can read every backend's counters, and the router's stats,
  // for the whole run: each monotonic field must never go backwards.
  backends_.push_back(std::make_unique<Backend>());
  std::atomic<bool> done{false};
  size_t polls = 0;
  std::thread poller([&] {
    RouterStats router_before = router_->stats();
    std::vector<service::ServiceCounters> before;
    for (const auto& backend : backends_) {
      before.push_back(backend->service.Counters());
    }
    while (!done.load(std::memory_order_relaxed)) {
      const RouterStats router_now = router_->stats();
      ExpectNonDecreasing(router_before, router_now, kRouterStatsFields);
      router_before = router_now;
      for (size_t b = 0; b < backends_.size(); ++b) {
        const service::ServiceCounters now = backends_[b]->service.Counters();
        ExpectNonDecreasing(before[b], now, service::kServiceCounterFields);
        for (const auto& field : service::kServiceLatencyFields) {
          for (size_t i = 0; i < service::LatencySnapshot::kBuckets; ++i) {
            EXPECT_GE((now.*field.member).buckets[i],
                      (before[b].*field.member).buckets[i])
                << "backend " << b << " " << field.name << " bucket " << i;
          }
        }
        before[b] = now;
      }
      ++polls;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  common::Status rebalanced = common::Status::Internal("never rebalanced");
  const testing::LoadReport report =
      testing::ReplayGoldenLoad(router_->port(), [&] {
        rebalanced = backends_[2]->server.Start();
        if (!rebalanced.ok()) return;
        rebalanced = router_->Rebalance({backends_[0]->address(),
                                         backends_[1]->address(),
                                         backends_[2]->address()});
      });
  done.store(true, std::memory_order_relaxed);
  poller.join();
  EXPECT_GT(polls, 0u);
  EXPECT_TRUE(rebalanced.ok()) << rebalanced.ToString();
  for (const std::string& m : report.mismatches) ADD_FAILURE() << m;
  EXPECT_EQ(report.sessions_closed, testing::kLoadSessions);
  const RouterStats stats = router_->stats();
  EXPECT_EQ(stats.backend_errors, 0u);
  EXPECT_EQ(stats.rebalances, 1u);
  EXPECT_GE(stats.handoffs, min_moves);
  ASSERT_EQ(backends_.size(), 3u);
  for (const auto& backend : backends_) {
    EXPECT_EQ(backend->service.OpenCount(), 0u);
  }
}

TEST_F(NetRouterTest, RebalancePinsNonQuiescentSessionsUntilClose) {
  StartBackends(1);
  StartRouter();
  Client client = Connect();

  // A session with labels pending cannot park, so it cannot migrate.
  auto id = client.Open("twig", {});
  ASSERT_TRUE(id.ok());
  auto batch = client.Ask(id.value(), 2);
  ASSERT_TRUE(batch.ok());

  backends_.push_back(std::make_unique<Backend>());
  ASSERT_TRUE(backends_.back()->server.Start().ok());
  ASSERT_TRUE(
      router_
          ->Rebalance({backends_[0]->address(), backends_[1]->address()})
          .ok());

  // Wherever the new map places it, the session still answers — served
  // from backend 0 via the routing override if its home moved.
  auto labels = client.OracleLabels(id.value());
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  ASSERT_TRUE(client.Tell(id.value(), labels.value()).ok());
  ASSERT_TRUE(client.Close(id.value()).ok());
  if (ShardFor(id.value(), 2) == 1) {
    EXPECT_EQ(router_->stats().handoff_skipped, 1u);
  }
  EXPECT_EQ(backends_[0]->service.OpenCount(), 0u);
}

TEST_F(NetRouterTest, FanOutReachesSessionsPinnedOffTheMap) {
  StartBackends(2);
  StartRouter();
  Client client = Connect();

  // A non-quiescent session on backend 0 (labels pending: cannot park).
  service::OpenOptions options;
  options.id = IdOnBucket(0, 2);
  ASSERT_TRUE(client.Open("twig", options).ok());
  ASSERT_TRUE(client.Ask(options.id, 2).ok());

  // Shrink the fleet to backend 1 only. The pinned session stays on
  // backend 0 behind a routing override — a backend the new map no
  // longer lists.
  ASSERT_TRUE(router_->Rebalance({backends_[1]->address()}).ok());
  EXPECT_EQ(router_->stats().handoff_skipped, 1u);

  // Fan-out must still reach it: `sessions` lists the pinned id and
  // `counters` merges the off-map backend's counts, or the fleet
  // under-reports until the next successful rebalance.
  auto ids = client.ListSessions();
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_EQ(ids.value().size(), 1u);
  EXPECT_EQ(ids.value()[0], options.id);
  auto counters = client.Counters();
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
  EXPECT_EQ(counters.value().first.opens, 1u);
  EXPECT_EQ(counters.value().second, 1u);

  // The session still serves through the override; close retires it, and
  // the fan-out set shrinks back to the map.
  auto labels = client.OracleLabels(options.id);
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  ASSERT_TRUE(client.Tell(options.id, labels.value()).ok());
  ASSERT_TRUE(client.Close(options.id).ok());
  EXPECT_EQ(backends_[0]->service.OpenCount(), 0u);
  auto after = client.ListSessions();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().empty());
}

TEST_F(NetRouterTest, BackToBackRebalancesInstallCleanly) {
  StartBackends(3);
  ShardMap map;
  map.backends.push_back(backends_[0]->address());
  router_ = std::make_unique<Router>(std::move(map), RouterOptions());
  ASSERT_TRUE(router_->Start().ok());
  Client client = Connect();

  // Quiescent sessions (ask/tell cycles complete) that can all migrate.
  std::vector<std::string> ids;
  for (int i = 0; i < 6; ++i) {
    service::OpenOptions options;
    options.seed = 200 + i;
    auto id = client.Open(i % 2 == 0 ? "twig" : "join", options);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
    auto batch = client.Ask(id.value(), 2);
    ASSERT_TRUE(batch.ok());
    auto labels = client.OracleLabels(id.value());
    ASSERT_TRUE(labels.ok());
    ASSERT_TRUE(client.Tell(id.value(), labels.value()).ok());
  }

  // Two rebalances with no gap: the second must wait for pause acks that
  // observed *its own* pause (the stale-ack regression) and still drain
  // and install cleanly.
  ASSERT_TRUE(
      router_->Rebalance({backends_[0]->address(), backends_[1]->address()})
          .ok());
  ASSERT_TRUE(router_
                  ->Rebalance({backends_[0]->address(),
                               backends_[1]->address(),
                               backends_[2]->address()})
                  .ok());
  EXPECT_EQ(router_->shard_map().generation, 3u);

  for (const std::string& id : ids) {
    auto status = client.Status(id);
    ASSERT_TRUE(status.ok()) << id << ": " << status.status().ToString();
    ASSERT_TRUE(client.Close(id).ok()) << id;
  }
  const RouterStats stats = router_->stats();
  EXPECT_EQ(stats.backend_errors, 0u);
  EXPECT_EQ(stats.rebalances, 2u);
}

}  // namespace
}  // namespace net
}  // namespace qlearn
