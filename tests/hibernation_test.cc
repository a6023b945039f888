// Park/rehydrate conformance and fault injection for session hibernation.
//
// The conformance half replays every golden transcript through a
// SessionService while parking the session at EVERY question boundary
// (right after open and after each answered batch): each subsequent call
// transparently rehydrates it from the snapshot store, so a clean replay
// proves the full session state — remaining question/answer sequence,
// final hypothesis, stats, wire bytes — survives arbitrarily many
// hibernation round trips for all four scenario kinds.
//
// The fault-injection half corrupts the stored image every way a disk can
// (truncated, bit-flipped, wrong magic, wrong version, deleted), feeds it
// an engine image of an older format, and pins
// the failure semantics: structured DataLoss/InvalidArgument statuses with
// byte offsets, a retryable parked entry, a Close that always releases the
// handle, and the hibernate_errors counter. The fake-clock tests pin the
// wall-budget arithmetic across a park (the parked interval counts toward
// the allowance exactly once).
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "service/session_service.h"
#include "service/snapshot_store.h"
#include "service/wire.h"
#include "transcript_harness.h"
#include "twig/twig_query.h"

namespace qlearn {
namespace {

using common::Status;
using common::StatusCode;
using service::OpenOptions;
using service::ServiceOptions;
using service::SessionService;
using testing::ConformanceCases;
using testing::LoadGoldens;
using testing::ReadFileToString;
using testing::ReplayTranscript;

std::chrono::steady_clock::time_point BaseTime() {
  return std::chrono::steady_clock::time_point{} + std::chrono::hours(1);
}

/// Fake clock handle: tests advance it, the service reads it.
struct FakeClock {
  std::chrono::steady_clock::time_point now = BaseTime();
  std::function<std::chrono::steady_clock::time_point()> AsFn() {
    return [this] { return now; };
  }
  void Advance(double seconds) {
    now += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(seconds));
  }
};

// ---------------------------------------------------------------------------
// Conformance: park at every question boundary, replay must be identical.

TEST(HibernationConformance, GoldensReplayIdenticallyThroughParkCycles) {
  auto goldens = LoadGoldens();
  ASSERT_TRUE(goldens.ok()) << goldens.status().ToString();
  for (size_t i = 0; i < goldens.value().size(); ++i) {
    const std::string& name = ConformanceCases()[i].name;
    SCOPED_TRACE(name);
    // The session hibernates after open and after every answered batch;
    // every Ask/Close that follows rehydrates it.
    SessionService service;
    auto mismatches = ReplayTranscript(
        &service, goldens.value()[i],
        [&service](const std::string& id) { return service.Park(id); });
    ASSERT_TRUE(mismatches.ok()) << mismatches.status().ToString();
    for (const std::string& mismatch : mismatches.value()) {
      ADD_FAILURE() << name << ": " << mismatch;
    }
    // Every boundary parked and every park rehydrated: one park after open
    // plus one per answered batch, and nothing left in the store.
    const service::ServiceCounters counters = service.Counters();
    EXPECT_GE(counters.hibernates, 2u) << name;
    EXPECT_EQ(counters.hibernates, counters.rehydrates) << name;
    EXPECT_EQ(counters.hibernate_errors, 0u) << name;
  }
}

TEST(HibernationConformance, StatusAndOracleRehydrateParkedSessions) {
  SessionService service;
  auto id = service.Open("join", {});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Park(id.value()).ok());
  EXPECT_EQ(service.ParkedCount(), 1u);
  EXPECT_EQ(service.ResidentCount(), 0u);
  EXPECT_EQ(service.OpenCount(), 1u);

  // Status on a parked session rehydrates it transparently.
  auto status = service.Status(id.value());
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(service.ParkedCount(), 0u);
  EXPECT_EQ(service.ResidentCount(), 1u);

  // Park again, then OracleLabels must fail for lack of pending questions —
  // but only after a successful rehydrate (the error is FailedPrecondition,
  // not DataLoss).
  ASSERT_TRUE(service.Park(id.value()).ok());
  auto labels = service.OracleLabels(id.value());
  EXPECT_EQ(labels.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.ParkedCount(), 0u);
  EXPECT_TRUE(service.Close(id.value()).ok());
}

TEST(HibernationConformance, ParkRequiresQuiescence) {
  SessionService service;
  auto id = service.Open("twig", {});
  ASSERT_TRUE(id.ok());
  auto batch = service.Ask(id.value(), 1);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch.value().empty());
  const Status parked = service.Park(id.value());
  EXPECT_EQ(parked.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(parked.message().find("unanswered"), std::string::npos)
      << parked.message();
  // Answer, then parking succeeds; parking twice is a no-op.
  ASSERT_TRUE(service.Tell(id.value(), {true}).ok());
  EXPECT_TRUE(service.Park(id.value()).ok());
  EXPECT_TRUE(service.Park(id.value()).ok());
  EXPECT_EQ(service.Counters().hibernates, 1u);
  EXPECT_TRUE(service.Close(id.value()).ok());
}

TEST(HibernationConformance, ParkIdleSessionsSweepsOnlyIdleQuiescent) {
  FakeClock clock;
  ServiceOptions options;
  options.hibernate_after_seconds = 5;
  options.clock = clock.AsFn();
  SessionService service(options);

  auto idle = service.Open("join", {});
  auto busy = service.Open("chain", {});
  ASSERT_TRUE(idle.ok());
  ASSERT_TRUE(busy.ok());
  // `busy` has an unanswered batch; `idle` is quiescent.
  ASSERT_TRUE(service.Ask(busy.value(), 1).ok());

  clock.Advance(2);
  EXPECT_EQ(service.ParkIdleSessions(), 0u);  // not idle long enough
  clock.Advance(4);
  EXPECT_EQ(service.ParkIdleSessions(), 1u);  // only the quiescent one
  EXPECT_EQ(service.ParkedCount(), 1u);
  EXPECT_EQ(service.ResidentCount(), 1u);

  // Rehydration restores service as if nothing happened.
  auto batch = service.Ask(idle.value(), 1);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_FALSE(batch.value().empty());
  EXPECT_TRUE(service.Close(busy.value()).ok());
  EXPECT_TRUE(service.Close(idle.value()).ok());
}

// ---------------------------------------------------------------------------
// Wall-clock budget across a park (the latent under/over-counting hole).

TEST(HibernationWallClock, ParkedIntervalCountsTowardWallBudget) {
  FakeClock clock;
  ServiceOptions options;
  options.clock = clock.AsFn();
  SessionService service(options);

  OpenOptions open_options;
  open_options.budget.max_wall_seconds = 10;
  auto id = service.Open("join", open_options);
  ASSERT_TRUE(id.ok());

  // Consume 2s awake, then sleep 20s parked: 22s > 10s allowance, so the
  // rehydrate-then-Ask must refuse with ResourceExhausted.
  clock.Advance(2);
  ASSERT_TRUE(service.Park(id.value()).ok());
  clock.Advance(20);
  auto refused = service.Ask(id.value(), 1);
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted)
      << refused.status().ToString();
  // The refusal happened after a successful rehydrate, not instead of one.
  EXPECT_EQ(service.Counters().rehydrates, 1u);
  EXPECT_EQ(service.Counters().hibernate_errors, 0u);
  EXPECT_TRUE(service.Close(id.value()).ok());
}

TEST(HibernationWallClock, ParkedIntervalIsNotDoubleCounted) {
  FakeClock clock;
  ServiceOptions options;
  options.clock = clock.AsFn();
  SessionService service(options);

  OpenOptions open_options;
  open_options.budget.max_wall_seconds = 10;
  auto id = service.Open("join", open_options);
  ASSERT_TRUE(id.ok());

  // 2s awake + 3s parked = 5s consumed: well inside the 10s allowance, so
  // the session must keep serving after rehydrate (over-counting — e.g.
  // adding the parked interval on top of a still-ticking opened_at — would
  // refuse here once the pre-park elapsed plus double-counted park crossed
  // 10s).
  clock.Advance(2);
  ASSERT_TRUE(service.Park(id.value()).ok());
  clock.Advance(3);
  auto batch = service.Ask(id.value(), 1);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_TRUE(service.Tell(id.value(), service.OracleLabels(id.value())
                                            .value())
                  .ok());

  // 5s consumed so far; 4 more (9s total) still serves, 2 more (11s) not —
  // the budget keeps ticking from the reconstructed open time, exactly
  // once.
  clock.Advance(4);
  auto second = service.Ask(id.value(), 1);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_TRUE(service.Tell(id.value(), service.OracleLabels(id.value())
                                           .value())
                  .ok());
  clock.Advance(2);
  auto third = service.Ask(id.value(), 1);
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted)
      << third.status().ToString();
  EXPECT_TRUE(service.Close(id.value()).ok());
}

// ---------------------------------------------------------------------------
// Fault injection: every way an image can rot, as structured statuses.

/// Opens a `scenario` session, advances it one answered batch of `batch`
/// questions, parks it, and returns its handle. The store is shared with
/// the test so images can be corrupted in place.
std::string OpenAndPark(SessionService* service,
                        const std::string& scenario = "join",
                        size_t batch = 4) {
  auto id = service->Open(scenario, {});
  EXPECT_TRUE(id.ok());
  auto asked = service->Ask(id.value(), batch);
  EXPECT_TRUE(asked.ok());
  auto labels = service->OracleLabels(id.value());
  EXPECT_TRUE(labels.ok());
  EXPECT_TRUE(service->Tell(id.value(), labels.value()).ok());
  EXPECT_TRUE(service->Park(id.value()).ok());
  return id.value();
}

/// Replaces the trailing FNV checksum so a deliberately malformed body
/// still passes the integrity check (exercising the parse errors behind
/// it).
std::string WithFixedChecksum(std::string body) {
  const uint64_t checksum = service::Fnv1a64(body);
  for (size_t i = 0; i < 8; ++i) {
    body.push_back(static_cast<char>((checksum >> (8 * i)) & 0xff));
  }
  return body;
}

struct FaultFixture {
  std::shared_ptr<service::InMemorySnapshotStore> store;
  std::unique_ptr<SessionService> service;
  std::string id;
  std::string image;  // the pristine stored image

  explicit FaultFixture(const std::string& scenario = "join",
                        size_t batch = 4) {
    store = std::make_shared<service::InMemorySnapshotStore>();
    ServiceOptions options;
    options.snapshot_store = store;
    service = std::make_unique<SessionService>(options);
    id = OpenAndPark(service.get(), scenario, batch);
    auto stored = store->Get(id);
    EXPECT_TRUE(stored.ok());
    image = stored.value();
  }
};

TEST(HibernationFaults, DeletedImageIsDataLossAndHandleStillCloses) {
  FaultFixture f;
  ASSERT_TRUE(f.store->Delete(f.id).ok());

  auto refused = f.service->Ask(f.id, 1);
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss)
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("missing"), std::string::npos);
  EXPECT_EQ(f.service->Counters().hibernate_errors, 1u);

  // The handle is not dropped: Close releases it, reporting the loss.
  auto closed = f.service->Close(f.id);
  EXPECT_EQ(closed.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(f.service->OpenCount(), 0u);
  EXPECT_EQ(f.service->Status(f.id).status().code(), StatusCode::kNotFound);
}

TEST(HibernationFaults, TruncatedBelowChecksumIsDataLoss) {
  FaultFixture f;
  ASSERT_TRUE(f.store->Put(f.id, f.image.substr(0, 5)).ok());
  auto refused = f.service->Ask(f.id, 1);
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(refused.status().message().find("5 byte(s)"), std::string::npos)
      << refused.status().message();
}

TEST(HibernationFaults, TruncatedImageFailsChecksumWithByteRange) {
  FaultFixture f;
  ASSERT_TRUE(f.store->Put(f.id, f.image.substr(0, f.image.size() - 9)).ok());
  auto refused = f.service->Ask(f.id, 1);
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(refused.status().message().find("checksum over bytes [0, "),
            std::string::npos)
      << refused.status().message();
}

TEST(HibernationFaults, TruncatedBodyWithValidChecksumReportsByteOffset) {
  FaultFixture f;
  // Rebuild a checksum-valid image whose body stops mid-field: the
  // integrity check passes, the structured parse reports where it ran out.
  const std::string body = f.image.substr(0, f.image.size() - 8);
  ASSERT_TRUE(
      f.store->Put(f.id, WithFixedChecksum(body.substr(0, 20))).ok());
  auto refused = f.service->Ask(f.id, 1);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("truncated at byte"),
            std::string::npos)
      << refused.status().message();
}

TEST(HibernationFaults, BitFlipAnywhereIsChecksumDataLoss) {
  FaultFixture f;
  std::string flipped = f.image;
  flipped[flipped.size() / 2] ^= 0x10;
  ASSERT_TRUE(f.store->Put(f.id, flipped).ok());
  auto refused = f.service->Ask(f.id, 1);
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(refused.status().message().find("stored 0x"), std::string::npos)
      << refused.status().message();
}

TEST(HibernationFaults, WrongMagicIsInvalidArgumentAtByteZero) {
  FaultFixture f;
  std::string body = f.image.substr(0, f.image.size() - 8);
  body[0] = 'X';
  ASSERT_TRUE(f.store->Put(f.id, WithFixedChecksum(body)).ok());
  auto refused = f.service->Ask(f.id, 1);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("not a hibernation image"),
            std::string::npos)
      << refused.status().message();
  EXPECT_NE(refused.status().message().find("at byte 0"), std::string::npos);
}

TEST(HibernationFaults, WrongVersionIsInvalidArgumentAtByteFour) {
  FaultFixture f;
  std::string body = f.image.substr(0, f.image.size() - 8);
  body[4] = 0x7f;
  ASSERT_TRUE(f.store->Put(f.id, WithFixedChecksum(body)).ok());
  auto refused = f.service->Ask(f.id, 1);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(
      refused.status().message().find("unsupported hibernation image version"),
      std::string::npos)
      << refused.status().message();
  EXPECT_NE(refused.status().message().find("at byte 4"), std::string::npos);
}

/// Stores `body` (checksum fixed up) as the fixture's image and expects
/// rehydrate to refuse it with InvalidArgument naming `message`, leaving
/// the session parked; then closes it.
void ExpectRefusedAndStillParked(FaultFixture& f, std::string body,
                                 const std::string& message) {
  ASSERT_TRUE(f.store->Put(f.id, WithFixedChecksum(std::move(body))).ok());
  auto refused = f.service->Ask(f.id, 1);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find(message), std::string::npos)
      << refused.status().message();
  EXPECT_EQ(f.service->Counters().hibernate_errors, 1u);
  EXPECT_EQ(f.service->ParkedCount(), 1u);  // still parked, not dropped
  (void)f.service->Close(f.id);
  EXPECT_EQ(f.service->OpenCount(), 0u);
}

TEST(HibernationFaults, OldRelationalEngineVersionIsInvalidArgument) {
  // A version-3 relational engine image ("QLCE", the last version ending
  // in a candidate-store segment) cannot be read by the current codec:
  // rehydrate refuses it with a structured status instead of misreading
  // the tail.
  FaultFixture f;
  std::string body = f.image.substr(0, f.image.size() - 8);
  const size_t magic = body.find("QLCE");
  ASSERT_NE(magic, std::string::npos);
  ASSERT_EQ(body[magic + 4], 4);  // the current version, little-endian
  body[magic + 4] = 3;
  ExpectRefusedAndStillParked(f, std::move(body),
                              "unsupported chain-engine snapshot version 3");
}

TEST(HibernationFaults, RelationalClassCountMismatchIsInvalidArgument) {
  // The QLCE header records the engine's mask-class count; an image whose
  // count differs from the rebuilt engine's is refused.
  FaultFixture f;
  std::string body = f.image.substr(0, f.image.size() - 8);
  const size_t magic = body.find("QLCE");
  ASSERT_NE(magic, std::string::npos);
  // magic, version, strategy and aborted bytes, edge count, class count.
  const size_t classes = magic + 4 + 4 + 1 + 1 + 8;
  ASSERT_LT(classes + 8, body.size());
  body[classes] = static_cast<char>(body[classes] + 1);
  ExpectRefusedAndStillParked(f, std::move(body), "mask classes");
}

TEST(HibernationFaults, RelationalMaskBitOutsideUniverseIsInvalidArgument) {
  // The join scenario's edge has a 4-pair universe. An image whose θ*
  // sets bit 63 would send the next popcount sweep to plane 63 of a
  // 4-plane store; rehydrate refuses it instead.
  FaultFixture f;
  std::string body = f.image.substr(0, f.image.size() - 8);
  const size_t magic = body.find("QLCE");
  ASSERT_NE(magic, std::string::npos);
  // magic, version, strategy and aborted bytes, edge, class and plane
  // counts; θ*'s top byte is the last of its 8.
  const size_t theta = magic + 4 + 4 + 1 + 1 + 3 * 8;
  ASSERT_LT(theta + 8, body.size());
  body[theta + 7] = static_cast<char>(body[theta + 7] | 0x80);
  ExpectRefusedAndStillParked(f, std::move(body), "outside edge 0");
}

TEST(HibernationFaults, OldTwigEngineVersionIsInvalidArgument) {
  // A version-1 twig engine image ("QLTE", ending in a candidate-store
  // segment) is refused rather than misread.
  FaultFixture f("twig", 1);
  std::string body = f.image.substr(0, f.image.size() - 8);
  const size_t magic = body.find("QLTE");
  ASSERT_NE(magic, std::string::npos);
  ASSERT_EQ(body[magic + 4], 2);  // the current version, little-endian
  body[magic + 4] = 1;
  ExpectRefusedAndStillParked(f, std::move(body),
                              "unsupported twig-engine snapshot version 1");
}

TEST(HibernationFaults, TwigHypothesisSelectingNoDocumentNodeIsInvalidArgument) {
  // A twig engine image ("QLTE") whose hypothesis selects the virtual root
  // (or nothing) would crash the next generalization: rehydrate refuses it.
  for (uint32_t selection : {uint32_t{0}, twig::kInvalidQNode}) {
    SCOPED_TRACE(selection);
    FaultFixture f("twig", 1);
    std::string body = f.image.substr(0, f.image.size() - 8);
    const size_t magic = body.find("QLTE");
    ASSERT_NE(magic, std::string::npos);
    // magic, version, strategy byte, node count, then 9 bytes per
    // non-root node (parent, axis, label), then the selection.
    uint32_t num_nodes = 0;
    for (size_t i = 0; i < 4; ++i) {
      num_nodes |= static_cast<uint32_t>(
                       static_cast<unsigned char>(body[magic + 9 + i]))
                   << (8 * i);
    }
    ASSERT_GT(num_nodes, 1u);
    const size_t at = magic + 13 + 9 * (size_t{num_nodes} - 1);
    ASSERT_LT(at + 4, body.size());
    for (size_t i = 0; i < 4; ++i) {
      body[at + i] = static_cast<char>((selection >> (8 * i)) & 0xff);
    }
    ASSERT_TRUE(f.store->Put(f.id, WithFixedChecksum(body)).ok());
    auto refused = f.service->Ask(f.id, 1);
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << refused.status().ToString();
    EXPECT_NE(refused.status().message().find("selects no document node"),
              std::string::npos)
        << refused.status().message();
    EXPECT_EQ(f.service->Counters().hibernate_errors, 1u);
    EXPECT_EQ(f.service->ParkedCount(), 1u);  // still parked, not dropped
    (void)f.service->Close(f.id);
    EXPECT_EQ(f.service->OpenCount(), 0u);
  }
}

TEST(HibernationFaults, FailedRehydrateIsRetryable) {
  FaultFixture f;
  std::string flipped = f.image;
  flipped[flipped.size() / 3] ^= 0x01;
  ASSERT_TRUE(f.store->Put(f.id, flipped).ok());
  EXPECT_EQ(f.service->Ask(f.id, 1).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(f.service->ParkedCount(), 1u);  // still parked, not dropped

  // Restore the pristine image: the same handle serves again.
  ASSERT_TRUE(f.store->Put(f.id, f.image).ok());
  auto batch = f.service->Ask(f.id, 1);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_FALSE(batch.value().empty());
  EXPECT_EQ(f.service->Counters().hibernate_errors, 1u);
  EXPECT_TRUE(f.service->Close(f.id).ok());
}

TEST(HibernationFaults, EveryFaultPathIncrementsHibernateErrors) {
  FaultFixture f;
  uint64_t expected = 0;
  for (int round = 0; round < 3; ++round) {
    std::string bad = f.image;
    bad[8 + static_cast<size_t>(round)] ^= 0x40;
    ASSERT_TRUE(f.store->Put(f.id, bad).ok());
    EXPECT_FALSE(f.service->Ask(f.id, 1).ok());
    ++expected;
    EXPECT_EQ(f.service->Counters().hibernate_errors, expected);
  }
  ASSERT_TRUE(f.store->Put(f.id, f.image).ok());
  EXPECT_TRUE(f.service->Close(f.id).ok());
}

// ---------------------------------------------------------------------------
// File-backed snapshot store.

TEST(FileSnapshotStore, ParkRehydrateRoundTripsThroughDisk) {
  const std::string dir =
      ::testing::TempDir() + "qlearn_hibernation_store";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ASSERT_TRUE(std::filesystem::create_directories(dir, ec) || !ec);

  auto store = std::make_shared<service::FileSnapshotStore>(dir);
  ServiceOptions options;
  options.snapshot_store = store;
  SessionService service(options);

  const std::string id = OpenAndPark(&service);
  EXPECT_TRUE(std::filesystem::exists(store->PathFor(id)));
  EXPECT_EQ(store->Count(), 1u);

  // Rehydrate from disk and finish; the image is consumed.
  auto batch = service.Ask(id, 1);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(store->PathFor(id)));
  EXPECT_TRUE(service.Close(id).ok());
}

TEST(FileSnapshotStore, OnDiskCorruptionSurfacesAsDataLoss) {
  const std::string dir =
      ::testing::TempDir() + "qlearn_hibernation_corrupt";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ASSERT_TRUE(std::filesystem::create_directories(dir, ec) || !ec);

  auto store = std::make_shared<service::FileSnapshotStore>(dir);
  ServiceOptions options;
  options.snapshot_store = store;
  SessionService service(options);

  const std::string id = OpenAndPark(&service);
  // Flip one byte of the image in place on disk.
  auto content = ReadFileToString(store->PathFor(id));
  ASSERT_TRUE(content.ok());
  std::string bytes = content.value();
  bytes[bytes.size() / 2] ^= 0x04;
  ASSERT_TRUE(testing::WriteStringToFile(store->PathFor(id), bytes).ok());

  auto refused = service.Ask(id, 1);
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss)
      << refused.status().ToString();
  auto closed = service.Close(id);
  EXPECT_EQ(closed.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(service.OpenCount(), 0u);
}

TEST(FileSnapshotStore, GetMissingKeyIsNotFoundAndDeleteIsIdempotent) {
  const std::string dir = ::testing::TempDir() + "qlearn_hibernation_empty";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ASSERT_TRUE(std::filesystem::create_directories(dir, ec) || !ec);

  service::FileSnapshotStore store(dir);
  EXPECT_EQ(store.Get("s-1").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.Delete("s-1").ok());
  EXPECT_TRUE(store.Put("s-1", "payload").ok());
  auto got = store.Get("s-1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "payload");
  EXPECT_TRUE(store.Delete("s-1").ok());
  EXPECT_TRUE(store.Delete("s-1").ok());
  EXPECT_EQ(store.Count(), 0u);
}

}  // namespace
}  // namespace qlearn
