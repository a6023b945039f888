// SessionService: many concurrent interactive learning sessions behind
// string handles, with per-session budgets enforced by the service.
//
// This is the serving layer over the ScenarioRegistry front door: callers
// (an RPC handler, a crowd dispatcher, a demo CLI) speak scenario names,
// session ids, and wire payloads — never engine types. One service call
// maps to one protocol step:
//
//   SessionService service;
//   auto id = service.Open("join", {});
//   while (true) {
//     auto batch = service.Ask(id.value(), /*k=*/8);     // wire payloads
//     if (!batch.ok() || batch.value().empty()) break;
//     service.Tell(id.value(), LabelsFromUser(batch.value()));
//   }
//   auto closed = service.Close(id.value());             // final hypothesis
//
// Budgets (SessionBudget) are enforced here rather than by each caller:
// the question budget clamps a batch mid-Ask and then refuses further
// questions with ResourceExhausted; the wall-clock budget refuses questions
// once the session has been open too long; max_pending caps how many
// questions can be in flight at once. All failures are common::Status
// errors — a misbehaving client (Tell after Close, mismatched label count,
// Ask with answers outstanding) gets an error, never an assert.
//
// Thread-safety: all methods are safe to call from multiple threads.
// Distinct sessions never serialize on each other's learner work (each
// session has its own lock); calls on the same session are serialized.
// Entries are held by shared_ptr, so a handle resolved by one thread stays
// valid while another thread Closes and erases it — the loser observes
// `closed` under the entry lock and gets NotFound, never a dangling entry.
// tests/service_race_test.cc races Close against in-flight Ask/Tell/Status
// under the sanitizer CI job to keep this claim honest.
//
// Hibernation: a quiescent session (no pending batch) can be *parked* —
// serialized through a SnapshotStore as a checksummed image and evicted
// from memory — either explicitly (Park) or by the idle sweep
// (ParkIdleSessions, driven by ServiceOptions::hibernate_after_seconds).
// The handle stays valid: the next Ask/Tell/OracleLabels/Status/Close
// transparently rehydrates the session from its image, with budgets,
// wall-clock accounting, RNG lanes, and counters surviving the round trip
// (time spent parked still counts against the wall-clock budget). A
// missing or corrupt image surfaces as DataLoss, a stale-version or
// foreign image as InvalidArgument — never an assert or a dropped handle;
// Close always releases the handle even when rehydration fails.
// tests/hibernation_test.cc proves transcript-identical replay through a
// park/rehydrate cycle at every question boundary.
#ifndef QLEARN_SERVICE_SESSION_SERVICE_H_
#define QLEARN_SERVICE_SESSION_SERVICE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "service/snapshot_store.h"
#include "service/wire.h"
#include "session/registry.h"
#include "session/session.h"

namespace qlearn {
namespace service {

/// Per-session resource limits, enforced by the service.
struct SessionBudget {
  /// Hard cap on questions served over the session's lifetime.
  uint64_t max_questions = session::SessionDefaults::kMaxQuestions;
  /// Cap on questions in flight in one batch; Ask(k) clamps k to this.
  /// Must be > 0 (Open rejects a budget that could never serve a question).
  size_t max_pending = 64;
  /// Wall-clock allowance since Open, in seconds; 0 means unlimited. Asking
  /// past the allowance fails with ResourceExhausted (answers to already
  /// served questions are still accepted).
  double max_wall_seconds = 0;
};

/// Knobs for Open: the scenario-independent session options plus budgets.
struct OpenOptions {
  uint64_t seed = session::SessionDefaults::kSeed;
  SessionBudget budget;
  /// Caller-supplied session handle; empty (the default) mints one. A
  /// routing front tier mints ids itself so consistent-hash placement is
  /// decided before the backend is picked. Must be a plain path component
  /// ([A-Za-z0-9._-], at most 64 bytes); a taken handle is AlreadyExists.
  std::string id;
};

/// Service-wide construction knobs (all optional).
struct ServiceOptions {
  /// Scenario registry; nullptr means the global registry with the
  /// built-in scenarios registered.
  session::ScenarioRegistry* registry = nullptr;
  /// ParkIdleSessions() hibernates sessions idle (no call touched them) at
  /// least this long. 0 disables the idle sweep; explicit Park() always
  /// works.
  double hibernate_after_seconds = 0;
  /// Where hibernation images live; nullptr means a fresh
  /// InMemorySnapshotStore owned by the service.
  std::shared_ptr<SnapshotStore> snapshot_store;
  /// Time source for wall-clock budgets and idle accounting. Injectable so
  /// tests pin budget arithmetic with a fake clock; nullptr means
  /// std::chrono::steady_clock.
  std::function<std::chrono::steady_clock::time_point()> clock;
};

/// Snapshot of one session, as reported by Status().
struct SessionStatus {
  std::string id;
  std::string scenario;
  session::SessionStats stats;
  size_t pending = 0;            ///< questions served but not yet answered
  bool budget_exhausted = false; ///< a budget refused further questions
  std::string hypothesis;        ///< current rendering
};

/// Log2 latency histogram: bucket i counts samples whose microsecond
/// duration has bit width i, i.e. [2^(i-1), 2^i); bucket 0 is
/// sub-microsecond. 28 buckets top out above two minutes. Like the
/// counters (common/counters.h), one struct is both the live histogram and
/// its snapshot.
struct LatencySnapshot {
  static constexpr size_t kBuckets = 28;
  std::array<uint64_t, kBuckets> buckets{};

  /// Counts one sample in a live histogram: one relaxed atomic add, cheap
  /// enough for every request.
  void Record(uint64_t micros) {
    common::BumpCounter(
        buckets[std::min<size_t>(std::bit_width(micros), kBuckets - 1)]);
  }
  uint64_t Count() const;
  /// Upper edge (µs) of the bucket holding quantile q of the recorded
  /// samples — a factor-of-two estimate, which is all a log2 histogram
  /// promises. q is clamped to [0, 1] (NaN reads as 0), so q = 1 is the
  /// highest non-empty bucket. Returns 0 when empty.
  uint64_t QuantileUpperBoundMicros(double q) const;
};

/// The service's monotonic operation counters, in wire order.
#define QLEARN_SERVICE_COUNTERS(X)                                         \
  X(opens)                                                                 \
  X(asks)                                                                  \
  X(tells)                                                                 \
  X(oracles)                                                               \
  X(statuses)                                                              \
  X(closes)                                                                \
  X(errors)           /* calls that returned a non-OK Status */            \
  X(questions_served) /* questions across all Ask batches */               \
  X(labels_accepted)  /* labels across all Tell batches */                 \
  X(hibernates)       /* sessions parked to the snapshot store */          \
  X(rehydrates)       /* sessions restored from their image */             \
  X(hibernate_errors) /* failed park or rehydrate attempts */              \
  X(exports)          /* sessions shipped out via ExportSession */         \
  X(imports)          /* sessions adopted via ImportSession */

/// Server-side per-op latency histograms (µs), measured around the whole
/// service call, so latency is observable over the `counters` op without a
/// client-side harness. X(member, key under "latency_us"), in wire order.
#define QLEARN_SERVICE_LATENCIES(X) \
  X(open_latency_us, "open")        \
  X(ask_latency_us, "ask")          \
  X(tell_latency_us, "tell")        \
  X(oracle_latency_us, "oracle")    \
  X(status_latency_us, "status")    \
  X(close_latency_us, "close")

/// Service-wide operation counters and latency histograms — what a front
/// end or load generator reads to compute served throughput without
/// instrumenting the transport. Snapshot semantics as in common/counters.h.
struct ServiceCounters {
  QLEARN_SERVICE_COUNTERS(QLEARN_COUNTER_MEMBER)
#define QLEARN_LATENCY_MEMBER(member, key) LatencySnapshot member;
  QLEARN_SERVICE_LATENCIES(QLEARN_LATENCY_MEMBER)
#undef QLEARN_LATENCY_MEMBER
};

inline constexpr common::CounterField<ServiceCounters> kServiceCounterFields[] =
    {
#define QLEARN_FIELD(name) {#name, &ServiceCounters::name},
        QLEARN_SERVICE_COUNTERS(QLEARN_FIELD)
#undef QLEARN_FIELD
};

inline constexpr common::CounterField<ServiceCounters, LatencySnapshot>
    kServiceLatencyFields[] = {
#define QLEARN_FIELD(member, key) {key, &ServiceCounters::member},
        QLEARN_SERVICE_LATENCIES(QLEARN_FIELD)
#undef QLEARN_FIELD
};

/// What Close() returns: the final hypothesis and final counters (the
/// learner may audit labels and minimize during Finish, so these can differ
/// from the last Status() snapshot).
struct CloseResult {
  wire::HypothesisPayload hypothesis;
  session::SessionStats stats;
};

/// What ExportSession() returns: the scenario name plus the checksummed
/// hibernation image (the same QLSV bytes Park writes) — everything a new
/// owner needs to adopt the session via ImportSession.
struct ExportedSession {
  std::string scenario;
  std::string image;
};

class SessionService {
 public:
  /// Serves scenarios from `registry`; defaults to the global registry with
  /// the built-in scenarios registered.
  explicit SessionService(session::ScenarioRegistry* registry = nullptr);
  /// Full construction surface: registry, hibernation policy, snapshot
  /// store, and clock (see ServiceOptions).
  explicit SessionService(const ServiceOptions& options);

  /// Instantiates a session of the named scenario; returns its handle.
  common::Result<std::string> Open(const std::string& scenario,
                                   const OpenOptions& options = {});

  /// Serves up to `k` questions (clamped to the pending and question
  /// budgets). An empty batch means the session converged: every item is
  /// labeled or uninformative. Fails with FailedPrecondition while a batch
  /// is unanswered and with ResourceExhausted once a budget is hit.
  /// (string_view ids throughout: the TCP hot path resolves handles
  /// straight out of the frame buffer without materializing a string.)
  common::Result<std::vector<wire::QuestionPayload>> Ask(std::string_view id,
                                                         size_t k);

  /// Labels the pending batch, in order. The label count must match the
  /// pending count exactly (InvalidArgument otherwise).
  common::Status Tell(std::string_view id, const std::vector<bool>& labels);
  /// Span form for callers that already hold the labels contiguously (the
  /// arena request path) — avoids materializing a vector<bool> per call.
  common::Status Tell(std::string_view id, const bool* labels, size_t count);

  /// Labels the built-in goal oracle would give the pending batch — for
  /// demos, smoke tests, and load generation against built-in scenarios.
  common::Result<std::vector<bool>> OracleLabels(std::string_view id);

  /// Snapshot of the session's counters, pending batch, and hypothesis.
  common::Result<SessionStatus> Status(std::string_view id) const;

  /// Finishes the session, returns the final hypothesis and counters, and
  /// releases the handle (subsequent calls on it return NotFound). A parked
  /// session is rehydrated first so Finish can run; if its image is
  /// unrecoverable the handle is still released and the rehydration error
  /// returned.
  common::Result<CloseResult> Close(std::string_view id);

  /// Hibernates one session now: serializes it into a checksummed image in
  /// the snapshot store and evicts the in-memory learner state. Requires
  /// quiescence — a pending batch fails with FailedPrecondition. Parking a
  /// parked session is a no-op; the handle stays listed and rehydrates on
  /// the next call.
  common::Status Park(std::string_view id);

  /// Ships one session out of this service for snapshot handoff: parks it
  /// (if resident) through the PR 8 path, returns the checksummed QLSV
  /// image, and releases the handle — after a successful export the
  /// session no longer exists here. Requires quiescence like Park; a
  /// pending batch fails with FailedPrecondition and leaves the session
  /// untouched (the rebalancer routes it via an override until it drains).
  common::Result<ExportedSession> ExportSession(std::string_view id);

  /// Adopts a session exported by another service instance: validates the
  /// image's checksum/header against `scenario`, installs the handle in
  /// the parked state, and stores the image — the first call on the handle
  /// rehydrates it exactly like a locally-parked session (budgets, wall
  /// clock, and RNG lanes survive). A taken handle is AlreadyExists; a
  /// corrupt image is DataLoss/InvalidArgument and nothing is installed.
  common::Status ImportSession(std::string_view id,
                               const std::string& scenario,
                               std::string_view image);

  /// Idle sweep: parks every session whose last call is at least
  /// hibernate_after_seconds ago (no-op when that knob is 0). Skips
  /// sessions with pending questions and sessions whose lock is contended
  /// (an in-flight call means the session is not idle). Returns how many
  /// sessions were parked.
  size_t ParkIdleSessions();

  /// Handles of the currently open sessions, in open order (parked
  /// sessions included — their handles are still live).
  std::vector<std::string> ListOpen() const;
  size_t OpenCount() const;
  /// Sessions resident in memory (open minus parked).
  size_t ResidentCount() const;
  /// Sessions currently hibernated to the snapshot store.
  size_t ParkedCount() const;

  /// Snapshot of the service-wide operation counters.
  ServiceCounters Counters() const;

 private:
  struct Entry {
    std::mutex mutex;  // serializes calls on this session
    std::unique_ptr<session::ScenarioSession> session;
    std::string scenario;
    SessionBudget budget;
    std::chrono::steady_clock::time_point opened_at;
    /// When the last call touched this session (idle-sweep input); guarded
    /// by `mutex` like the rest of the mutable state.
    std::chrono::steady_clock::time_point last_touch;
    /// When the session was parked (wall-budget arithmetic on rehydrate).
    std::chrono::steady_clock::time_point parked_at;
    size_t pending = 0;
    bool budget_exhausted = false;
    bool closed = false;
    /// True while the session lives in the snapshot store instead of
    /// memory (`session` is null then). Mutated under `mutex`; atomic so
    /// ResidentCount/ParkedCount can tally without taking every session
    /// lock.
    std::atomic<bool> parked{false};
  };

  std::shared_ptr<Entry> Find(std::string_view id) const;

  /// Shared body of the two Tell overloads; `make_labels()` materializes
  /// (or passes through) the vector AnswerAll consumes, called only once
  /// every precondition holds.
  template <typename MakeLabels>
  common::Status TellImpl(std::string_view id, size_t count,
                          MakeLabels&& make_labels);

  /// Counts a failed call and passes the status through (so error returns
  /// read `return Fail(Status::...)`).
  common::Status Fail(common::Status status) const;

  double ElapsedSeconds(std::chrono::steady_clock::time_point since) const;

  /// Serializes + evicts one quiescent session. Caller holds entry->mutex.
  /// On failure the session stays resident and hibernate_errors is
  /// incremented.
  common::Status ParkLocked(const std::string& id, Entry* entry);
  /// Restores a parked session from its image. Caller holds entry->mutex.
  /// On failure the entry stays parked (a later call may retry) and
  /// hibernate_errors is incremented. Const because the read path (Status)
  /// rehydrates too; only the entry and mutable counters change.
  common::Status RehydrateLocked(const std::string& id, Entry* entry) const;

  session::ScenarioRegistry* registry_;
  double hibernate_after_seconds_ = 0;
  std::shared_ptr<SnapshotStore> snapshot_store_;
  std::function<std::chrono::steady_clock::time_point()> clock_;
  mutable std::mutex mutex_;  // guards sessions_ and next_id_
  // Transparent comparator: the hot path resolves string_view handles
  // without building a temporary std::string key.
  std::map<std::string, std::shared_ptr<Entry>, std::less<>> sessions_;
  uint64_t next_id_ = 1;

  // The live counters and histograms, bumped through common/counters.h.
  // Mutable: Status() is const but still counted.
  mutable ServiceCounters counters_;
};

}  // namespace service
}  // namespace qlearn

#endif  // QLEARN_SERVICE_SESSION_SERVICE_H_
