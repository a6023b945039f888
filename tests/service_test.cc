// Tests for the session service surface: wire-payload serving, per-session
// budget enforcement (question budget hit mid-batch, zero budgets,
// wall-clock), status-error (never assert) behavior for misbehaving clients
// (Tell after Close, mismatched label counts, Ask with answers
// outstanding), and thread-safety of N threads driving disjoint sessions.
#include "service/session_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "service/wire.h"
#include "session/registry.h"
#include "session/session.h"

namespace qlearn {
namespace service {
namespace {

using common::StatusCode;

/// Drives `scenario` to completion through `service` with batch size `k`
/// and returns the final stats; EXPECTs every step to succeed.
session::SessionStats DriveToCompletion(SessionService* service,
                                        const std::string& scenario, size_t k,
                                        uint64_t seed = 7) {
  OpenOptions options;
  options.seed = seed;
  auto id = service->Open(scenario, options);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  if (!id.ok()) return {};
  for (;;) {
    auto batch = service->Ask(id.value(), k);
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    if (!batch.ok() || batch.value().empty()) break;
    auto labels = service->OracleLabels(id.value());
    EXPECT_TRUE(labels.ok()) << labels.status().ToString();
    if (!labels.ok()) break;
    EXPECT_TRUE(service->Tell(id.value(), labels.value()).ok());
  }
  auto closed = service->Close(id.value());
  EXPECT_TRUE(closed.ok()) << closed.status().ToString();
  return closed.ok() ? closed.value().stats : session::SessionStats{};
}

TEST(SessionServiceTest, ServesAllBuiltinScenariosToConvergence) {
  SessionService service;
  for (const session::ScenarioInfo& info :
       session::ScenarioRegistry::Global()->List()) {
    const session::SessionStats stats =
        DriveToCompletion(&service, info.name, 1);
    EXPECT_GT(stats.questions, 0u) << info.name;
    EXPECT_EQ(stats.conflicts, 0u) << info.name;
  }
  EXPECT_EQ(service.OpenCount(), 0u);
}

TEST(SessionServiceTest, QuestionsCarryTaggedPayloads) {
  SessionService service;
  auto id = service.Open("join");
  ASSERT_TRUE(id.ok());
  auto batch = service.Ask(id.value(), 3);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch.value().empty());
  for (const wire::QuestionPayload& payload : batch.value()) {
    EXPECT_EQ(payload.kind, "join");
    EXPECT_EQ(payload.ids.size(), 2u);  // (left_row, right_row)
    EXPECT_FALSE(payload.text.empty());
    // The payload survives the wire.
    auto parsed = wire::ParseQuestionPayload(wire::Serialize(payload));
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed.value() == payload);
  }
  EXPECT_TRUE(service.Close(id.value()).ok());
}

TEST(SessionServiceTest, StatusReportsProgress) {
  SessionService service;
  auto id = service.Open("twig");
  ASSERT_TRUE(id.ok());
  auto before = service.Status(id.value());
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().scenario, "twig");
  EXPECT_EQ(before.value().pending, 0u);
  EXPECT_EQ(before.value().stats.questions, 0u);
  EXPECT_FALSE(before.value().hypothesis.empty());

  auto batch = service.Ask(id.value(), 2);
  ASSERT_TRUE(batch.ok());
  auto during = service.Status(id.value());
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during.value().pending, batch.value().size());
  EXPECT_EQ(during.value().stats.questions, batch.value().size());
  EXPECT_TRUE(service.Close(id.value()).ok());
}

// ---------------------------------------------------------------------------
// Budget edges: every refusal is a Status error, never an assert.

TEST(SessionServiceBudgetTest, ZeroQuestionBudgetRefusesFirstAsk) {
  SessionService service;
  OpenOptions options;
  options.budget.max_questions = 0;
  auto id = service.Open("join", options);
  ASSERT_TRUE(id.ok());
  auto batch = service.Ask(id.value(), 1);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kResourceExhausted);
  auto status = service.Status(id.value());
  ASSERT_TRUE(status.ok());
  EXPECT_TRUE(status.value().budget_exhausted);
  // The session is still owned and closable.
  EXPECT_TRUE(service.Close(id.value()).ok());
}

TEST(SessionServiceBudgetTest, QuestionBudgetClampsMidBatch) {
  SessionService service;
  OpenOptions options;
  options.budget.max_questions = 3;
  auto id = service.Open("join", options);
  ASSERT_TRUE(id.ok());
  // Asking for 8 with 3 left serves a truncated batch of exactly 3...
  auto batch = service.Ask(id.value(), 8);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.value().size(), 3u);
  auto labels = service.OracleLabels(id.value());
  ASSERT_TRUE(labels.ok());
  ASSERT_TRUE(service.Tell(id.value(), labels.value()).ok());
  // ...and the next Ask is refused.
  auto refused = service.Ask(id.value(), 1);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(service.Close(id.value()).ok());
}

TEST(SessionServiceBudgetTest, ZeroMaxPendingIsRejectedAtOpen) {
  // A session that could never serve a question would look converged on
  // the first Ask (ok empty batch); Open must refuse the budget instead.
  SessionService service;
  OpenOptions options;
  options.budget.max_pending = 0;
  auto id = service.Open("join", options);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.OpenCount(), 0u);
}

TEST(SessionServiceBudgetTest, MaxPendingCapsTheBatch) {
  SessionService service;
  OpenOptions options;
  options.budget.max_pending = 2;
  auto id = service.Open("join", options);
  ASSERT_TRUE(id.ok());
  auto batch = service.Ask(id.value(), 100);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch.value().size(), 2u);
  EXPECT_TRUE(service.Close(id.value()).ok());
}

TEST(SessionServiceBudgetTest, WallClockBudgetRefusesLateAsks) {
  SessionService service;
  OpenOptions options;
  options.budget.max_wall_seconds = 1e-9;
  auto id = service.Open("join", options);
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto batch = service.Ask(id.value(), 1);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(service.Close(id.value()).ok());
}

TEST(SessionServiceBudgetTest, UnlimitedWallClockIsTheDefault) {
  SessionService service;
  auto id = service.Open("twig");
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(service.Ask(id.value(), 1).ok());
  EXPECT_TRUE(service.Close(id.value()).ok());
}

// ---------------------------------------------------------------------------
// Misbehaving clients get status errors.

TEST(SessionServiceErrorTest, UnknownScenarioIsNotFound) {
  SessionService service;
  auto id = service.Open("no-such-scenario");
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kNotFound);
}

TEST(SessionServiceErrorTest, UnknownSessionIsNotFound) {
  SessionService service;
  EXPECT_EQ(service.Ask("s-bogus", 1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Tell("s-bogus", {true}).code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Status("s-bogus").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Close("s-bogus").status().code(), StatusCode::kNotFound);
}

TEST(SessionServiceErrorTest, TellAfterCloseIsNotFound) {
  SessionService service;
  auto id = service.Open("twig");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Ask(id.value(), 1).ok());
  ASSERT_TRUE(service.Close(id.value()).ok());
  const common::Status status = service.Tell(id.value(), {true});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  // Double close too.
  EXPECT_EQ(service.Close(id.value()).status().code(), StatusCode::kNotFound);
}

TEST(SessionServiceErrorTest, TellWithoutPendingIsFailedPrecondition) {
  SessionService service;
  auto id = service.Open("twig");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(service.Tell(id.value(), {true}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(service.Close(id.value()).ok());
}

TEST(SessionServiceErrorTest, MismatchedLabelCountIsInvalidArgument) {
  SessionService service;
  auto id = service.Open("join");
  ASSERT_TRUE(id.ok());
  auto batch = service.Ask(id.value(), 3);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), 3u);
  EXPECT_EQ(service.Tell(id.value(), {true}).code(),
            StatusCode::kInvalidArgument);
  // The batch stays pending; answering with the right count succeeds.
  auto labels = service.OracleLabels(id.value());
  ASSERT_TRUE(labels.ok());
  EXPECT_TRUE(service.Tell(id.value(), labels.value()).ok());
  EXPECT_TRUE(service.Close(id.value()).ok());
}

TEST(SessionServiceErrorTest, AskWithAnswersOutstandingIsFailedPrecondition) {
  SessionService service;
  auto id = service.Open("join");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Ask(id.value(), 2).ok());
  EXPECT_EQ(service.Ask(id.value(), 2).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(service.Close(id.value()).ok());
}

TEST(SessionServiceErrorTest, AskZeroIsInvalidArgument) {
  SessionService service;
  auto id = service.Open("twig");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(service.Ask(id.value(), 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(service.Close(id.value()).ok());
}

// ---------------------------------------------------------------------------
// Concurrency: disjoint sessions on one service behave exactly like
// single-threaded runs.

TEST(SessionServiceConcurrencyTest, DisjointSessionsMatchSingleThreadedRuns) {
  const std::vector<std::string> scenarios = {"twig", "join", "chain", "path",
                                              "twig-ambiguity"};
  // Single-threaded reference counts, one per scenario.
  SessionService reference;
  std::vector<size_t> expected;
  for (const std::string& scenario : scenarios) {
    expected.push_back(DriveToCompletion(&reference, scenario, 1).questions);
    ASSERT_GT(expected.back(), 0u) << scenario;
  }

  constexpr int kThreads = 8;
  constexpr int kSessionsPerThread = 2;
  SessionService service;
  std::vector<std::vector<size_t>> got(kThreads);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < kSessionsPerThread; ++round) {
          const std::string& scenario =
              scenarios[(static_cast<size_t>(t) + round) % scenarios.size()];
          OpenOptions options;
          options.seed = 7;
          auto id = service.Open(scenario, options);
          if (!id.ok()) {
            ++failures;
            return;
          }
          for (;;) {
            auto batch = service.Ask(id.value(), 1);
            if (!batch.ok()) {
              ++failures;
              return;
            }
            if (batch.value().empty()) break;
            auto labels = service.OracleLabels(id.value());
            if (!labels.ok() ||
                !service.Tell(id.value(), labels.value()).ok()) {
              ++failures;
              return;
            }
          }
          auto closed = service.Close(id.value());
          if (!closed.ok()) {
            ++failures;
            return;
          }
          got[t].push_back(closed.value().stats.questions);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.OpenCount(), 0u);
  // Each concurrent session asked exactly as many questions as the
  // single-threaded run of its scenario.
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), static_cast<size_t>(kSessionsPerThread)) << t;
    for (int round = 0; round < kSessionsPerThread; ++round) {
      const size_t scenario_index =
          (static_cast<size_t>(t) + round) % scenarios.size();
      EXPECT_EQ(got[t][round], expected[scenario_index])
          << "thread " << t << " round " << round << " scenario "
          << scenarios[scenario_index];
    }
  }
}

TEST(LatencySnapshotTest, QuantileUpperBoundClampsQAtTheEdges) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> qs = {0, 0.5, 1, 1.5, -1, kNaN};

  // Empty: every quantile is 0.
  const LatencySnapshot empty;
  for (const double q : qs) EXPECT_EQ(empty.QuantileUpperBoundMicros(q), 0u);

  // Five samples in bucket 3 (4-7 µs): every quantile is that bucket's
  // upper edge — q = 1 included, not the histogram's last bucket.
  LatencySnapshot one_bucket;
  for (const uint64_t micros : {4, 5, 5, 6, 7}) one_bucket.Record(micros);
  EXPECT_EQ(one_bucket.buckets[3], 5u);
  for (const double q : qs) {
    EXPECT_EQ(one_bucket.QuantileUpperBoundMicros(q), 7u) << "q=" << q;
  }

  // Samples in buckets 1, 4, 4 and 9: q below 0 and NaN read as 0, q
  // above 1 as 1.
  LatencySnapshot spread;
  for (const uint64_t micros : {1, 8, 15, 300}) spread.Record(micros);
  EXPECT_EQ(spread.QuantileUpperBoundMicros(0), 1u);
  EXPECT_EQ(spread.QuantileUpperBoundMicros(0.5), 15u);
  EXPECT_EQ(spread.QuantileUpperBoundMicros(1), 511u);
  EXPECT_EQ(spread.QuantileUpperBoundMicros(1.5), 511u);
  EXPECT_EQ(spread.QuantileUpperBoundMicros(-1), 1u);
  EXPECT_EQ(spread.QuantileUpperBoundMicros(kNaN), 1u);
}

TEST(SessionServiceConcurrencyTest, ListOpenTracksConcurrentSessions) {
  SessionService service;
  std::vector<std::string> ids;
  for (int i = 0; i < 5; ++i) {
    auto id = service.Open("twig");
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  EXPECT_EQ(service.OpenCount(), 5u);
  EXPECT_EQ(service.ListOpen(), ids);  // zero-padded ids keep open order
  for (const std::string& id : ids) {
    EXPECT_TRUE(service.Close(id).ok());
  }
  EXPECT_EQ(service.OpenCount(), 0u);
}

}  // namespace
}  // namespace service
}  // namespace qlearn
