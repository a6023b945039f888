// Concurrency hardening for SessionService: races Close against in-flight
// Ask/Tell/Status/OracleLabels from multiple threads. Every outcome must be
// either success or a well-defined Status (NotFound once closed,
// FailedPrecondition/InvalidArgument for protocol-state misuse) — never a
// crash, deadlock, or torn entry. The CI sanitizer job (ASan/UBSan) runs
// this test to flush out data races the assertions alone would miss.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "service/session_service.h"
#include "session/registry.h"

namespace qlearn {
namespace service {
namespace {

using common::Status;
using common::StatusCode;

// The codes a caller may legitimately observe when racing against Close:
// the call either wins (OK), loses to Close (NotFound), or hits a
// protocol-state error because another thread moved the session first.
bool IsExpectedRaceOutcome(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
    case StatusCode::kNotFound:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kInvalidArgument:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

TEST(ServiceRaceTest, EveryScenarioOpensFromSharedPrototypesConcurrently) {
  // Every open and every rehydrate clones the scenario's prototype, which
  // the registry builds once, on first use. Four threads open, ask, tell,
  // park and close every built-in scenario on one service, each starting
  // at a different scenario, so the prototypes are built and cloned from
  // several threads at once. (This test runs first in the binary, before
  // any other test has built a prototype.) Each thread must learn exactly
  // what a session driven alone learns.
  constexpr size_t kThreads = 4;
  session::RegisterBuiltinScenarios();
  const std::vector<session::ScenarioInfo> scenarios =
      session::ScenarioRegistry::Global()->List();
  SessionService service;
  std::vector<std::vector<std::string>> results(
      kThreads, std::vector<std::string>(scenarios.size()));
  std::vector<std::string> failures(kThreads);
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {
      }
      for (size_t i = 0; i < scenarios.size(); ++i) {
        const size_t s = (i + t * 3) % scenarios.size();
        auto id = service.Open(scenarios[s].name, {});
        if (!id.ok()) {
          failures[t] = id.status().ToString();
          return;
        }
        for (;;) {
          auto batch = service.Ask(id.value(), 2);
          if (!batch.ok()) {
            failures[t] = batch.status().ToString();
            return;
          }
          if (batch.value().empty()) break;
          auto labels = service.OracleLabels(id.value());
          Status outcome = labels.ok() ? service.Tell(id.value(), labels.value())
                                       : labels.status();
          if (outcome.ok()) outcome = service.Park(id.value());
          if (!outcome.ok()) {
            failures[t] = outcome.ToString();
            return;
          }
        }
        auto closed = service.Close(id.value());
        if (!closed.ok()) {
          failures[t] = closed.status().ToString();
          return;
        }
        results[t][s] = closed.value().hypothesis.text + " after " +
                        std::to_string(closed.value().stats.questions);
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "thread " << t;
  }

  // The same sessions, one at a time.
  SessionService alone;
  for (size_t s = 0; s < scenarios.size(); ++s) {
    auto id = alone.Open(scenarios[s].name, {});
    ASSERT_TRUE(id.ok());
    for (;;) {
      auto batch = alone.Ask(id.value(), 2);
      ASSERT_TRUE(batch.ok());
      if (batch.value().empty()) break;
      ASSERT_TRUE(
          alone.Tell(id.value(), alone.OracleLabels(id.value()).value()).ok());
    }
    auto closed = alone.Close(id.value());
    ASSERT_TRUE(closed.ok());
    const std::string expected = closed.value().hypothesis.text + " after " +
                                 std::to_string(closed.value().stats.questions);
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(results[t][s], expected)
          << scenarios[s].name << " on thread " << t;
    }
  }
  const ServiceCounters counters = service.Counters();
  EXPECT_EQ(counters.opens, kThreads * scenarios.size());
  EXPECT_EQ(counters.rehydrates, counters.hibernates);
  EXPECT_EQ(counters.hibernate_errors, 0u);
  EXPECT_EQ(service.OpenCount(), 0u);
}

TEST(ServiceRaceTest, CloseRacesInFlightAskTellStatus) {
  constexpr int kRounds = 20;
  constexpr int kCallers = 4;
  for (int round = 0; round < kRounds; ++round) {
    SessionService service;
    auto id_or = service.Open("join", {});
    ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
    const std::string id = id_or.value();

    std::atomic<bool> start{false};
    std::atomic<int> unexpected{0};
    std::vector<std::string> details(kCallers + 1);

    std::vector<std::thread> threads;
    for (int t = 0; t < kCallers; ++t) {
      threads.emplace_back([&, t] {
        while (!start.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < 50; ++i) {
          Status outcome;
          switch ((t + i) % 4) {
            case 0: {
              auto batch = service.Ask(id, 2);
              outcome = batch.ok() ? Status::OK() : batch.status();
              break;
            }
            case 1: {
              auto labels = service.OracleLabels(id);
              if (labels.ok()) {
                outcome = service.Tell(id, labels.value());
              } else {
                outcome = labels.status();
              }
              break;
            }
            case 2: {
              auto status = service.Status(id);
              outcome = status.ok() ? Status::OK() : status.status();
              break;
            }
            case 3: {
              // Reads that scan the whole session map, concurrent with
              // the erase inside Close.
              service.ListOpen();
              service.OpenCount();
              service.Counters();
              outcome = Status::OK();
              break;
            }
          }
          if (!IsExpectedRaceOutcome(outcome)) {
            unexpected.fetch_add(1);
            details[t] = outcome.ToString();
          }
        }
      });
    }
    threads.emplace_back([&] {
      while (!start.load(std::memory_order_acquire)) {
      }
      auto closed = service.Close(id);
      const Status outcome = closed.ok() ? Status::OK() : closed.status();
      if (!IsExpectedRaceOutcome(outcome)) {
        unexpected.fetch_add(1);
        details[kCallers] = outcome.ToString();
      }
    });

    start.store(true, std::memory_order_release);
    for (auto& thread : threads) thread.join();

    for (const auto& d : details) {
      if (!d.empty()) ADD_FAILURE() << "unexpected outcome: " << d;
    }
    ASSERT_EQ(unexpected.load(), 0);
    // Exactly one Close can have won; afterwards the handle is gone.
    EXPECT_EQ(service.OpenCount(), 0u);
    EXPECT_EQ(service.Status(id).status().code(), StatusCode::kNotFound);
  }
}

TEST(ServiceRaceTest, ConcurrentDoubleCloseHasExactlyOneWinner) {
  constexpr int kRounds = 50;
  constexpr int kClosers = 4;
  for (int round = 0; round < kRounds; ++round) {
    SessionService service;
    auto id_or = service.Open("twig", {});
    ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
    const std::string id = id_or.value();

    std::atomic<bool> start{false};
    std::atomic<int> winners{0};
    std::atomic<int> not_found{0};
    std::atomic<int> other{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClosers; ++t) {
      threads.emplace_back([&] {
        while (!start.load(std::memory_order_acquire)) {
        }
        auto closed = service.Close(id);
        if (closed.ok()) {
          winners.fetch_add(1);
        } else if (closed.status().code() == StatusCode::kNotFound) {
          not_found.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      });
    }
    start.store(true, std::memory_order_release);
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(winners.load(), 1);
    EXPECT_EQ(not_found.load(), kClosers - 1);
    EXPECT_EQ(other.load(), 0);
  }
}

TEST(ServiceRaceTest, ParallelSessionsProgressIndependently) {
  // Threads drive disjoint sessions to completion while a churn thread
  // opens and closes unrelated ones: per-session locks must not serialize
  // or corrupt unrelated learner work.
  constexpr int kDrivers = 4;
  SessionService service;
  std::vector<std::string> failures(kDrivers + 1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kDrivers; ++t) {
    threads.emplace_back([&, t] {
      const char* scenarios[] = {"twig", "join", "chain", "path"};
      OpenOptions options;
      options.seed = 7 + static_cast<uint64_t>(t);
      auto id = service.Open(scenarios[t % 4], options);
      if (!id.ok()) {
        failures[t] = id.status().ToString();
        return;
      }
      while (true) {
        auto batch = service.Ask(id.value(), 4);
        if (!batch.ok()) {
          failures[t] = batch.status().ToString();
          return;
        }
        if (batch.value().empty()) break;
        auto labels = service.OracleLabels(id.value());
        if (!labels.ok()) {
          failures[t] = labels.status().ToString();
          return;
        }
        const Status told = service.Tell(id.value(), labels.value());
        if (!told.ok()) {
          failures[t] = told.ToString();
          return;
        }
      }
      auto closed = service.Close(id.value());
      if (!closed.ok()) failures[t] = closed.status().ToString();
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 100; ++i) {
      auto id = service.Open("twig", {});
      if (!id.ok()) {
        failures[kDrivers] = id.status().ToString();
        return;
      }
      auto closed = service.Close(id.value());
      if (!closed.ok()) {
        failures[kDrivers] = closed.status().ToString();
        return;
      }
    }
  });
  for (auto& thread : threads) thread.join();
  for (size_t t = 0; t < failures.size(); ++t) {
    EXPECT_EQ(failures[t], "") << "thread " << t;
  }
  EXPECT_EQ(service.OpenCount(), 0u);

  // Counter bookkeeping survives the churn: every open was closed, and
  // every successful Ask's questions were answered by a matching Tell.
  const ServiceCounters counters = service.Counters();
  EXPECT_EQ(counters.opens, static_cast<uint64_t>(kDrivers) + 100u);
  EXPECT_EQ(counters.closes, counters.opens);
  EXPECT_EQ(counters.questions_served, counters.labels_accepted);
}

TEST(ServiceRaceTest, ParkRacesInFlightAskTellClose) {
  // A sweeper parks the session whenever it catches it quiescent while a
  // driver replays it to completion: every driver call transparently
  // rehydrates, every outcome stays in the expected set, and the
  // hibernation counters balance (each park was undone by exactly one
  // rehydrate, none failed).
  constexpr int kRounds = 10;
  for (int round = 0; round < kRounds; ++round) {
    SessionService service;
    auto id_or = service.Open("join", {});
    ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
    const std::string id = id_or.value();

    std::atomic<bool> start{false};
    std::atomic<bool> done{false};
    std::vector<std::string> failures(2);

    std::thread parker([&] {
      while (!start.load(std::memory_order_acquire)) {
      }
      while (!done.load(std::memory_order_acquire)) {
        const Status parked = service.Park(id);
        if (!IsExpectedRaceOutcome(parked)) {
          failures[0] = parked.ToString();
          return;
        }
      }
    });
    std::thread driver([&] {
      while (!start.load(std::memory_order_acquire)) {
      }
      while (true) {
        auto batch = service.Ask(id, 2);
        if (!batch.ok()) {
          failures[1] = batch.status().ToString();
          return;
        }
        if (batch.value().empty()) break;
        auto labels = service.OracleLabels(id);
        if (!labels.ok()) {
          failures[1] = labels.status().ToString();
          return;
        }
        const Status told = service.Tell(id, labels.value());
        if (!told.ok()) {
          failures[1] = told.ToString();
          return;
        }
      }
      auto closed = service.Close(id);
      if (!closed.ok()) failures[1] = closed.status().ToString();
    });

    start.store(true, std::memory_order_release);
    driver.join();
    done.store(true, std::memory_order_release);
    parker.join();

    EXPECT_EQ(failures[0], "") << "parker";
    EXPECT_EQ(failures[1], "") << "driver";
    const ServiceCounters counters = service.Counters();
    EXPECT_EQ(counters.hibernates, counters.rehydrates);
    EXPECT_EQ(counters.hibernate_errors, 0u);
    EXPECT_EQ(service.OpenCount(), 0u);
  }
}

TEST(ServiceRaceTest, ConcurrentFirstTouchRehydrateHasSingleWinner) {
  // Many threads touch a parked session at once: exactly one restores it
  // (the others serialize behind the entry lock and find it resident) —
  // no double-restore, no torn state, and the session still finishes
  // cleanly afterwards.
  constexpr int kRounds = 20;
  constexpr int kTouchers = 4;
  for (int round = 0; round < kRounds; ++round) {
    SessionService service;
    auto id_or = service.Open("chain", {});
    ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
    const std::string id = id_or.value();
    ASSERT_TRUE(service.Park(id).ok());
    ASSERT_EQ(service.ParkedCount(), 1u);

    std::atomic<bool> start{false};
    std::atomic<int> unexpected{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kTouchers; ++t) {
      threads.emplace_back([&, t] {
        while (!start.load(std::memory_order_acquire)) {
        }
        const Status outcome = (t % 2 == 0)
                                   ? service.Status(id).status()
                                   : service.Ask(id, 1).status();
        if (!IsExpectedRaceOutcome(outcome)) unexpected.fetch_add(1);
      });
    }
    start.store(true, std::memory_order_release);
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(unexpected.load(), 0);
    const ServiceCounters counters = service.Counters();
    EXPECT_EQ(counters.hibernates, 1u);
    EXPECT_EQ(counters.rehydrates, 1u);
    EXPECT_EQ(counters.hibernate_errors, 0u);
    EXPECT_EQ(service.ParkedCount(), 0u);
    EXPECT_TRUE(service.Close(id).ok());
  }
}

TEST(ServiceRaceTest, ConcurrentCloseOfParkedSessionHasOneWinner) {
  constexpr int kRounds = 20;
  constexpr int kClosers = 4;
  for (int round = 0; round < kRounds; ++round) {
    SessionService service;
    auto id_or = service.Open("path", {});
    ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
    const std::string id = id_or.value();
    ASSERT_TRUE(service.Park(id).ok());

    std::atomic<bool> start{false};
    std::atomic<int> winners{0};
    std::atomic<int> not_found{0};
    std::atomic<int> other{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClosers; ++t) {
      threads.emplace_back([&] {
        while (!start.load(std::memory_order_acquire)) {
        }
        auto closed = service.Close(id);
        if (closed.ok()) {
          winners.fetch_add(1);
        } else if (closed.status().code() == StatusCode::kNotFound) {
          not_found.fetch_add(1);
        } else {
          other.fetch_add(1);
        }
      });
    }
    start.store(true, std::memory_order_release);
    for (auto& thread : threads) thread.join();

    // The winning Close rehydrated the parked session so Finish could run.
    EXPECT_EQ(winners.load(), 1);
    EXPECT_EQ(not_found.load(), kClosers - 1);
    EXPECT_EQ(other.load(), 0);
    const ServiceCounters counters = service.Counters();
    EXPECT_EQ(counters.rehydrates, 1u);
    EXPECT_EQ(counters.hibernate_errors, 0u);
    EXPECT_EQ(service.OpenCount(), 0u);
  }
}

}  // namespace
}  // namespace service
}  // namespace qlearn
