// Loopback integration tests for the framed-TCP server: an in-process
// Server in front of a real SessionService, driven through net::Client over
// real sockets. The centerpiece replays all 11 golden transcripts and
// asserts the question stream served over TCP is byte-identical to the
// checked-in goldens — the wire format is canonical JSON, so byte equality
// is semantic equality. The sequential replay, the multiplexed golden load
// (kLoadConnections connections round-robining their sessions, with and
// without an idle-park sweeper), and the concurrent-client hammer run at
// one, two and three reactor shards, since the golden bytes must not
// depend on how the server spreads connections over its shards.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "service/session_service.h"
#include "service/wire.h"
#include "transcript_harness.h"

namespace qlearn {
namespace net {
namespace {

using common::StatusCode;

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<Server>(&service_);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override { server_->Stop(); }

  Client Connect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  service::SessionService service_;
  std::unique_ptr<Server> server_;
};

/// A shard configuration the byte-identity suite runs under.
struct ServerConfig {
  const char* name;
  size_t reactors;
};

void PrintTo(const ServerConfig& config, std::ostream* os) {
  *os << config.name;
}

class NetServerConfigTest : public ::testing::TestWithParam<ServerConfig> {
 protected:
  void SetUp() override { Restart({}); }
  void TearDown() override { server_->Stop(); }

  /// (Re)starts the server in this config in front of a fresh service.
  void Restart(const service::ServiceOptions& service_options) {
    server_.reset();  // stops the server in front of the old service
    service_ = std::make_unique<service::SessionService>(service_options);
    ServerOptions options;
    options.reactors = GetParam().reactors;
    server_ = std::make_unique<Server>(service_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  Client Connect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::unique_ptr<service::SessionService> service_;
  std::unique_ptr<Server> server_;
};

TEST_P(NetServerConfigTest, GoldenTranscriptsReplayByteIdenticalOverTcp) {
  auto goldens = testing::LoadGoldens();
  ASSERT_TRUE(goldens.ok()) << goldens.status().ToString();
  ASSERT_EQ(goldens.value().size(), testing::ConformanceCases().size());
  Client client = Connect();
  for (size_t i = 0; i < goldens.value().size(); ++i) {
    SCOPED_TRACE(testing::ConformanceCases()[i].name);
    auto mismatches = testing::ReplayTranscript(&client, goldens.value()[i]);
    ASSERT_TRUE(mismatches.ok()) << mismatches.status().ToString();
    for (const std::string& m : mismatches.value()) ADD_FAILURE() << m;
  }
  EXPECT_EQ(service_->OpenCount(), 0u);
}

/// Fails the test on every mismatch of a golden load and checks that the
/// service saw exactly the requests the clients sent, none of them failing.
void ExpectCleanLoad(const testing::LoadReport& report,
                     const service::ServiceCounters& counters) {
  for (const std::string& m : report.mismatches) ADD_FAILURE() << m;
  EXPECT_EQ(report.sessions_closed, testing::kLoadSessions);
  EXPECT_EQ(counters.errors, 0u);
  EXPECT_EQ(counters.opens, report.sent.opens);
  EXPECT_EQ(counters.asks, report.sent.asks);
  EXPECT_EQ(counters.tells, report.sent.tells);
  EXPECT_EQ(counters.closes, report.sent.closes);
  EXPECT_EQ(report.sent.opens, testing::kLoadSessions);
  EXPECT_EQ(report.sent.closes, testing::kLoadSessions);
}

TEST_P(NetServerConfigTest, GoldenLoadAcrossConnectionsIsByteIdentical) {
  const testing::LoadReport report = testing::ReplayGoldenLoad(server_->port());
  ExpectCleanLoad(report, service_->Counters());
  EXPECT_EQ(service_->OpenCount(), 0u);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, testing::kLoadConnections);
  EXPECT_EQ(stats.bad_frames, 0u);
}

TEST_P(NetServerConfigTest, GoldenLoadParksAndRehydratesIdleSessions) {
  // Idle time is read from a fake clock the test advances, so parking does
  // not depend on scheduling. Once every session has opened, one sweep
  // runs synchronously on the connection thread that opened last: that
  // thread's sessions are all quiescent and idle then, so each of them
  // parks and rehydrates on its next request. A background sweeper keeps
  // parking whatever goes idle for the rest of the load. The service
  // outlives this body, so its clock shares ownership of the counter.
  auto now_seconds = std::make_shared<std::atomic<int64_t>>(0);
  auto advance = [now_seconds] { now_seconds->fetch_add(2); };
  service::ServiceOptions options;
  options.hibernate_after_seconds = 1;
  options.clock = [now_seconds] {
    return std::chrono::steady_clock::time_point{} + std::chrono::hours(1) +
           std::chrono::seconds(now_seconds->load());
  };
  Restart(options);

  size_t first_sweep = 0;
  std::atomic<bool> load_done{false};
  std::thread sweeper;
  const testing::LoadReport report =
      testing::ReplayGoldenLoad(server_->port(), [&] {
        advance();
        first_sweep = service_->ParkIdleSessions();
        sweeper = std::thread([&] {
          while (!load_done.load()) {
            advance();
            service_->ParkIdleSessions();
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        });
      });
  load_done.store(true);
  if (sweeper.joinable()) sweeper.join();

  const service::ServiceCounters counters = service_->Counters();
  ExpectCleanLoad(report, counters);
  EXPECT_GE(first_sweep, testing::kLoadSessionsPerConnection);
  EXPECT_GE(counters.hibernates, testing::kLoadSessionsPerConnection);
  EXPECT_GE(counters.rehydrates, testing::kLoadSessionsPerConnection);
  EXPECT_EQ(counters.hibernate_errors, 0u);
  EXPECT_EQ(service_->OpenCount(), 0u);
}

TEST_P(NetServerConfigTest, ConcurrentClientsReplayUnderEveryDispatchMode) {
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kThreads);
  const uint16_t port = server_->port();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, port, &failures] {
      auto client_or = Client::Connect("127.0.0.1", port);
      if (!client_or.ok()) {
        failures[t] = client_or.status().ToString();
        return;
      }
      Client client = std::move(client_or).value();
      const char* scenarios[] = {"twig", "join", "chain", "path"};
      service::OpenOptions options;
      options.seed = 11 + static_cast<uint64_t>(t);
      auto id = client.Open(scenarios[t % 4], options);
      if (!id.ok()) {
        failures[t] = id.status().ToString();
        return;
      }
      while (true) {
        auto batch = client.Ask(id.value(), 3);
        if (!batch.ok()) {
          failures[t] = batch.status().ToString();
          return;
        }
        if (batch.value().empty()) break;
        auto labels = client.OracleLabels(id.value());
        if (!labels.ok()) {
          failures[t] = labels.status().ToString();
          return;
        }
        const common::Status told = client.Tell(id.value(), labels.value());
        if (!told.ok()) {
          failures[t] = told.ToString();
          return;
        }
      }
      if (!client.Close(id.value()).ok()) failures[t] = "close failed";
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "thread " << t;
  }
  EXPECT_EQ(service_->OpenCount(), 0u);
  // Per-shard stats sum to the fleet totals regardless of sharding.
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.bad_frames, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    DispatchModes, NetServerConfigTest,
    ::testing::Values(ServerConfig{"one_reactor", 1},
                      ServerConfig{"two_reactors", 2},
                      ServerConfig{"three_reactors", 3}),
    [](const ::testing::TestParamInfo<ServerConfig>& info) {
      return std::string(info.param.name);
    });

TEST(NetServerOptionsTest, ZeroReactorsIsRejected) {
  service::SessionService service;
  ServerOptions zero_reactors;
  zero_reactors.reactors = 0;
  Server bad(&service, zero_reactors);
  EXPECT_EQ(bad.Start().code(), StatusCode::kInvalidArgument);

  // The retired workers option accepts only 0; any other value fails
  // Start() before anything is bound, and a later server starts cleanly.
  ServerOptions with_workers;
  with_workers.workers = 1;
  Server retired(&service, with_workers);
  EXPECT_EQ(retired.Start().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(retired.port(), 0u);

  ServerOptions inline_mode;
  inline_mode.workers = 0;
  Server good(&service, inline_mode);
  ASSERT_TRUE(good.Start().ok());
  auto client = Client::Connect("127.0.0.1", good.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto id = client.value().Open("twig", {});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(client.value().Close(id.value()).ok());
  good.Stop();
}

TEST(NetServerOptionsTest, ResponsePastTheFrameCapIsOneStructuredError) {
  // max_frame_bytes bounds responses too: a counters answer that does not
  // fit in 256 bytes comes back as the reactor's oversize error frame (the
  // same text the router sends), and the connection keeps serving.
  service::SessionService service;
  ServerOptions options;
  options.max_frame_bytes = 256;
  Server server(&service, options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto counters = client.value().CallRaw("{\"op\":\"counters\"}");
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
  EXPECT_EQ(counters.value(),
            "{\"error\":{\"code\":\"Internal\",\"message\":\"response of 339 "
            "bytes exceeds the frame limit\"}}");
  auto status = client.value().Status("s-1");
  EXPECT_EQ(status.status().code(), StatusCode::kNotFound);
  server.Stop();
}

TEST(NetServerOptionsTest, StatsAreSafeAgainstConcurrentRestartCycles) {
  // stats() may race a Stop()/Start() cycle: Start retires and rebuilds
  // the shard set, and a concurrent reader must see either the old or the
  // new set, never the vector mid-mutation. A polling thread hammers
  // stats() through several restart cycles; lifetime counters stay
  // cumulative across them.
  service::SessionService service;
  ServerOptions options;
  options.reactors = 2;
  Server server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)server.stats();
    }
  });
  constexpr int kCycles = 10;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    auto client = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE(client.value().Counters().ok());
    server.Stop();
    ASSERT_TRUE(server.Start().ok());
  }
  done.store(true);
  poller.join();
  EXPECT_GE(server.stats().connections_accepted,
            static_cast<uint64_t>(kCycles));
  server.Stop();
}

TEST_F(NetServerTest, OpenAskTellCloseRoundTrip) {
  Client client = Connect();
  auto id = client.Open("join", {});
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  auto status = client.Status(id.value());
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status.value().scenario, "join");
  EXPECT_EQ(status.value().pending, 0u);

  auto batch = client.Ask(id.value(), 4);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_FALSE(batch.value().empty());
  EXPECT_EQ(batch.value()[0].kind, "join");

  auto labels = client.OracleLabels(id.value());
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  ASSERT_EQ(labels.value().size(), batch.value().size());
  ASSERT_TRUE(client.Tell(id.value(), labels.value()).ok());

  auto closed = client.Close(id.value());
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_EQ(closed.value().hypothesis.kind, "join");
  EXPECT_GE(closed.value().stats.questions, batch.value().size());

  // The handle is gone: further calls surface the server's NotFound.
  EXPECT_EQ(client.Status(id.value()).status().code(), StatusCode::kNotFound);
}

TEST_F(NetServerTest, ServerSideErrorsArriveAsStructuredStatuses) {
  Client client = Connect();
  EXPECT_EQ(client.Open("no-such-scenario", {}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(client.Ask("s-404", 1).status().code(), StatusCode::kNotFound);

  auto id = client.Open("twig", {});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Tell with no pending batch is a protocol-state error, not a hangup.
  EXPECT_EQ(client.Tell(id.value(), {true}).code(),
            StatusCode::kFailedPrecondition);
  auto batch = client.Ask(id.value(), 2);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  // Wrong label count.
  std::vector<bool> wrong(batch.value().size() + 1, true);
  EXPECT_EQ(client.Tell(id.value(), wrong).code(),
            StatusCode::kInvalidArgument);
  // The connection is still fine: answer correctly and close.
  auto labels = client.OracleLabels(id.value());
  ASSERT_TRUE(labels.ok());
  EXPECT_TRUE(client.Tell(id.value(), labels.value()).ok());
  EXPECT_TRUE(client.Close(id.value()).ok());
}

TEST_F(NetServerTest, CountersReflectTraffic) {
  Client client = Connect();
  auto id = client.Open("chain", {});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto batch = client.Ask(id.value(), 2);
  ASSERT_TRUE(batch.ok());
  auto counters = client.Counters();
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
  EXPECT_EQ(counters.value().first.opens, 1u);
  EXPECT_EQ(counters.value().first.asks, 1u);
  EXPECT_EQ(counters.value().first.questions_served, batch.value().size());
  EXPECT_EQ(counters.value().second, 1u);  // open_sessions
  ASSERT_TRUE(client.Close(id.value()).ok());
}

TEST_F(NetServerTest, ConcurrentClientsRunFullSessions) {
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kThreads);
  const uint16_t port = server_->port();
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, port, &failures] {
      auto client_or = Client::Connect("127.0.0.1", port);
      if (!client_or.ok()) {
        failures[t] = client_or.status().ToString();
        return;
      }
      Client client = std::move(client_or).value();
      const char* scenarios[] = {"twig", "join", "chain", "path"};
      const std::string scenario = scenarios[t % 4];
      service::OpenOptions options;
      options.seed = 7 + static_cast<uint64_t>(t);
      auto id = client.Open(scenario, options);
      if (!id.ok()) {
        failures[t] = id.status().ToString();
        return;
      }
      while (true) {
        auto batch = client.Ask(id.value(), 4);
        if (!batch.ok()) {
          failures[t] = batch.status().ToString();
          return;
        }
        if (batch.value().empty()) break;
        auto labels = client.OracleLabels(id.value());
        if (!labels.ok()) {
          failures[t] = labels.status().ToString();
          return;
        }
        const common::Status told = client.Tell(id.value(), labels.value());
        if (!told.ok()) {
          failures[t] = told.ToString();
          return;
        }
      }
      auto closed = client.Close(id.value());
      if (!closed.ok()) failures[t] = closed.status().ToString();
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "thread " << t;
  }
  EXPECT_EQ(service_.OpenCount(), 0u);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.bad_frames, 0u);
}

TEST_F(NetServerTest, StopWhileClientsConnectedShutsDownCleanly) {
  Client client = Connect();
  auto id = client.Open("path", {});
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  server_->Stop();
  // The connection is gone; the client reports a transport error rather
  // than hanging.
  EXPECT_FALSE(client.Ask(id.value(), 1).ok());
  // TearDown's second Stop() must be a no-op.
}

}  // namespace
}  // namespace net
}  // namespace qlearn
