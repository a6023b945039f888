// Unified interactive learning-session layer.
//
// The paper's four interactive scenarios — XML twigs (Section 2),
// relational joins and chains of joins (Section 3), and graph path queries
// (Section 3) — run the *same* protocol: propose an informative item, ask
// the oracle,
// propagate the labels of uninformative items so they are never asked,
// refine the most-specific hypothesis, repeat. This header captures that
// protocol once:
//
//   * SessionStats     — the questions / forced-label / conflict counters
//                        previously duplicated in all three Interactive*Result
//                        structs;
//   * SessionOptions   — model-independent knobs (seed, question budget) with
//                        the default constants centralized here;
//   * Oracle<Item>     — the membership-question interface, generic over the
//                        scenario's item type;
//   * LearningSession  — an incremental, resumable driver over a scenario
//                        Engine: NextQuestion() / Answer() / Hypothesis() /
//                        Finish(), plus batched NextQuestions(k) for
//                        throughput.
//
// The legacy one-shot entry points (learn::RunInteractiveTwigSession,
// rlearn::RunInteractiveJoinSession, rlearn::RunInteractiveChainSession,
// glearn::RunInteractivePathSession) are thin wrappers over this driver and
// keep their historical question sequences bit-for-bit.
//
// Engine concept (see learn::TwigEngine, rlearn::JoinEngine,
// rlearn::ChainEngine, glearn::PathEngine for the four implementations):
//
//   using Item = ...;         // what one question is about
//   using HypothesisT = ...;  // what is being learned
//   // Picks the next informative item under the engine's strategy, or
//   // nullopt when every item is labeled or uninformative. `rng` is the
//   // session-owned stream (consumed only by randomized strategies).
//   std::optional<Item> SelectQuestion(common::Rng* rng);
//   // Removes `item` from future selection (it is now in flight).
//   void MarkAsked(const Item& item);
//   // Incorporates the oracle's answer; may record a conflict.
//   void Observe(const Item& item, bool positive, SessionStats* stats);
//   // Per-answer propagation deltas (see session/propagation.h). The
//   // driver calls exactly one of these right after each Observe(), and
//   // the engine queues the incremental work that answer can force:
//   // OnNegative records the new negative's witness payload (the
//   // hypothesis is untouched, so only candidates witnessing the new
//   // negative can settle); OnPositive records a hypothesis change when
//   // the observation actually advanced it (forced labels never revert,
//   // so the next flush re-tests only still-open candidates).
//   void OnPositive(const Item& item);
//   void OnNegative(const Item& item);
//   // Flushes the queued deltas: settles exactly the candidates the
//   // answers since the last flush force (forced positives / negatives).
//   // The first call runs the full baseline pass; afterwards a flush
//   // without a hypothesis change touches only affected candidates, never
//   // the whole open set. Must reach the same fixpoint the historical
//   // full-universe rescan reached (Debug builds assert this).
//   void Propagate(SessionStats* stats);
//   // True when the target escaped the hypothesis class and the session
//   // cannot usefully continue.
//   bool Aborted() const;
//   // Current hypothesis snapshot (cheap; called any time).
//   HypothesisT Current() const;
//   // Final hypothesis (may audit labels / minimize; called once).
//   HypothesisT Finish(SessionStats* stats);
#ifndef QLEARN_SESSION_SESSION_H_
#define QLEARN_SESSION_SESSION_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "session/snapshot.h"

namespace qlearn {
namespace session {

/// Interaction counters shared by every scenario.
struct SessionStats {
  /// Oracle questions actually asked.
  size_t questions = 0;
  /// Labels inferred positive (every consistent hypothesis selects the
  /// item), never asked.
  size_t forced_positive = 0;
  /// Labels inferred negative (accepting the item would contradict a known
  /// negative), never asked.
  size_t forced_negative = 0;
  /// Answers that contradicted the hypothesis class (0 when the hidden
  /// target is expressible in the class being learned).
  size_t conflicts = 0;
};

/// Central home of the session default constants. The unified API uses
/// kSeed/kMaxQuestions; the kLegacy* values preserve the historical
/// per-scenario defaults (7/11/13/17) that the compatibility wrappers and
/// their options structs must keep for bit-identical replay of the seed
/// experiments.
struct SessionDefaults {
  static constexpr uint64_t kSeed = 7;
  static constexpr size_t kMaxQuestions = 1000000;

  static constexpr uint64_t kLegacyTwigSeed = 7;
  static constexpr uint64_t kLegacyJoinSeed = 11;
  static constexpr uint64_t kLegacyPathSeed = 13;
  static constexpr uint64_t kLegacyChainSeed = 17;
  static constexpr size_t kLegacyTwigMaxQuestions = 100000;
};

/// Model-independent session knobs; scenario-specific knobs (strategies,
/// candidate caps, workload priors) live on the engine.
struct SessionOptions {
  uint64_t seed = SessionDefaults::kSeed;
  /// Hard cap on oracle questions (safety valve).
  size_t max_questions = SessionDefaults::kMaxQuestions;
};

/// Membership oracle over a scenario's question items. Implemented by
/// hidden-goal oracles in tests and benchmarks and by an actual user (or a
/// crowd) in an application.
template <typename Item>
class Oracle {
 public:
  virtual ~Oracle() = default;
  virtual bool IsPositive(const Item& item) = 0;
};

/// Incremental driver of the interactive protocol over a scenario engine.
///
/// One-question flow (ask/answer ping-pong, e.g. driving a UI):
///
///   LearningSession<learn::TwigEngine> session(std::move(engine));
///   while (auto q = session.NextQuestion()) {
///     session.Answer(AskUser(*q));
///   }
///   auto query = session.Finish();
///
/// Batched flow (amortize round trips to a crowd or a remote user):
///
///   while (!session.NextQuestions(8).empty()) {
///     session.AnswerAll(labels_from_crowd(session.pending()));
///   }
///
/// The driver owns the RNG stream and the question budget; the engine owns
/// candidate enumeration, strategy, propagation, and the hypothesis.
template <typename Engine>
class LearningSession {
 public:
  using Item = typename Engine::Item;
  using HypothesisT = typename Engine::HypothesisT;

  explicit LearningSession(Engine engine, const SessionOptions& options = {})
      : engine_(std::move(engine)),
        rng_(options.seed),
        max_questions_(options.max_questions) {
    engine_.Propagate(&stats_);
  }

  /// Selects the next informative item, or nullopt when the session is over
  /// (everything settled, budget exhausted, or the engine aborted). The
  /// returned item is pending until Answer() is called.
  std::optional<Item> NextQuestion() {
    assert(pending_.empty() && "answer the pending question first");
    auto item = Select();
    if (item.has_value()) pending_.push_back(*item);
    return item;
  }

  /// Batched variant: up to `k` informative items selected under the
  /// engine's strategy without waiting for answers in between. The batch is
  /// pending until AnswerAll() is called. May ask slightly more questions
  /// overall than the one-at-a-time flow (propagation runs only once per
  /// batch) — that is the throughput trade-off.
  std::vector<Item> NextQuestions(size_t k) {
    assert(pending_.empty() && "answer the pending batch first");
    while (pending_.size() < k) {
      auto item = Select();
      if (!item.has_value()) break;
      pending_.push_back(*item);
    }
    return pending_;
  }

  /// Items selected but not yet answered.
  const std::vector<Item>& pending() const { return pending_; }

  /// Drops the pending question(s) without answering them — e.g. the user
  /// walked away mid-batch. Discarded items remain counted in
  /// stats().questions and are not asked again.
  void DiscardPending() { pending_.clear(); }

  /// Answers the single pending question from NextQuestion().
  void Answer(bool positive) {
    assert(pending_.size() == 1 && "Answer() pairs with NextQuestion()");
    ObserveAll({positive});
  }

  /// Answers the pending batch from NextQuestions(), in order. Labels after
  /// an engine abort (conflict) are dropped.
  void AnswerAll(const std::vector<bool>& labels) {
    assert(labels.size() == pending_.size() && "one label per pending item");
    ObserveAll(labels);
  }

  /// Current hypothesis snapshot; after Finish(), the final one.
  HypothesisT Hypothesis() const {
    return finished_ ? *final_ : engine_.Current();
  }

  /// Ends the session and returns the final hypothesis (engines may audit
  /// labels and minimize here). Unanswered pending questions are discarded.
  /// Idempotent; no questions can follow.
  HypothesisT Finish() {
    DiscardPending();
    if (!finished_) {
      final_ = engine_.Finish(&stats_);
      finished_ = true;
    }
    return *final_;
  }

  /// True once Finish() ran.
  bool Finished() const { return finished_; }

  /// Drives the session to completion against `oracle` (an Oracle<Item>
  /// pointer/reference or any callable Item -> bool) and returns the final
  /// hypothesis. This is exactly the legacy one-shot behavior.
  template <typename OracleT>
  HypothesisT Run(OracleT&& oracle) {
    while (auto q = NextQuestion()) {
      Answer(Ask(oracle, *q));
    }
    return Finish();
  }

  const SessionStats& stats() const { return stats_; }
  const Engine& engine() const { return engine_; }

  /// Serializes the full session state (RNG stream, budget, stats, and the
  /// engine's versioned snapshot) into a binary image a later process can
  /// RestoreSnapshot() from — hibernation for long-lived serving sessions.
  /// Only quiescent sessions snapshot: answer or discard the pending
  /// question(s) first, and a finished session has nothing left to resume.
  /// Instantiated only for engines implementing
  /// SerializeSnapshot(SnapshotWriter*) / RestoreSnapshot(SnapshotReader*)
  /// (all four engines do).
  common::Status SerializeSnapshot(std::string* out) const {
    if (!pending_.empty()) {
      return common::Status::FailedPrecondition(
          "cannot snapshot with unanswered pending questions");
    }
    if (finished_) {
      return common::Status::FailedPrecondition(
          "cannot snapshot a finished session");
    }
    SnapshotWriter writer;
    writer.WriteU32(kSnapshotMagic);
    writer.WriteU32(kSnapshotVersion);
    uint64_t lanes[4];
    rng_.SaveState(lanes);
    for (uint64_t lane : lanes) writer.WriteU64(lane);
    writer.WriteU64(max_questions_);
    writer.WriteU64(stats_.questions);
    writer.WriteU64(stats_.forced_positive);
    writer.WriteU64(stats_.forced_negative);
    writer.WriteU64(stats_.conflicts);
    engine_.SerializeSnapshot(&writer);
    *out = writer.TakeBytes();
    return common::Status::OK();
  }

  /// Restores an image produced by SerializeSnapshot into a freshly
  /// constructed session over the same immutable inputs (documents /
  /// relations / options). After a successful restore the session replays
  /// the exact remaining question/answer sequence the snapshotted session
  /// would have produced. Malformed or mismatched images are rejected with
  /// InvalidArgument and leave no partially restored state guarantee —
  /// discard the session on error.
  common::Status RestoreSnapshot(std::string_view image) {
    SnapshotReader reader(image);
    uint32_t magic = 0;
    QLEARN_RETURN_IF_ERROR(reader.ReadU32(&magic));
    if (magic != kSnapshotMagic) {
      return common::Status::InvalidArgument(
          "session snapshot magic mismatch");
    }
    uint32_t version = 0;
    QLEARN_RETURN_IF_ERROR(reader.ReadU32(&version));
    if (version != kSnapshotVersion) {
      return common::Status::InvalidArgument(
          "unsupported session snapshot version " + std::to_string(version));
    }
    uint64_t lanes[4];
    for (uint64_t& lane : lanes) QLEARN_RETURN_IF_ERROR(reader.ReadU64(&lane));
    uint64_t max_questions = 0;
    QLEARN_RETURN_IF_ERROR(reader.ReadU64(&max_questions));
    SessionStats stats;
    uint64_t counter = 0;
    QLEARN_RETURN_IF_ERROR(reader.ReadU64(&counter));
    stats.questions = counter;
    QLEARN_RETURN_IF_ERROR(reader.ReadU64(&counter));
    stats.forced_positive = counter;
    QLEARN_RETURN_IF_ERROR(reader.ReadU64(&counter));
    stats.forced_negative = counter;
    QLEARN_RETURN_IF_ERROR(reader.ReadU64(&counter));
    stats.conflicts = counter;
    QLEARN_RETURN_IF_ERROR(engine_.RestoreSnapshot(&reader));
    if (!reader.AtEnd()) {
      return common::Status::InvalidArgument(
          "session snapshot has " + std::to_string(reader.remaining()) +
          " trailing bytes");
    }
    rng_.RestoreState(lanes);
    max_questions_ = static_cast<size_t>(max_questions);
    stats_ = stats;
    pending_.clear();
    final_.reset();
    finished_ = false;
    return common::Status::OK();
  }

 private:
  /// "QLSS" little-endian — session-level snapshot image.
  static constexpr uint32_t kSnapshotMagic = 0x53534C51u;
  static constexpr uint32_t kSnapshotVersion = 1;

  template <typename OracleT>
  static bool Ask(OracleT&& oracle, const Item& item) {
    if constexpr (std::is_invocable_r_v<bool, OracleT&, const Item&>) {
      return oracle(item);
    } else if constexpr (std::is_pointer_v<std::decay_t<OracleT>>) {
      return oracle->IsPositive(item);
    } else {
      return oracle.IsPositive(item);
    }
  }

  std::optional<Item> Select() {
    if (finished_ || engine_.Aborted()) return std::nullopt;
    if (stats_.questions >= max_questions_) return std::nullopt;
    auto item = engine_.SelectQuestion(&rng_);
    if (item.has_value()) {
      ++stats_.questions;
      engine_.MarkAsked(*item);
    }
    return item;
  }

  void ObserveAll(const std::vector<bool>& labels) {
    assert(!finished_);
    // Clamp defensively: the asserts above are compiled out in release
    // builds, and a mismatched label count must not index out of bounds.
    const size_t count = std::min(labels.size(), pending_.size());
    for (size_t i = 0; i < count && !engine_.Aborted(); ++i) {
      engine_.Observe(pending_[i], labels[i], &stats_);
      // Per-answer delta: the engine queues the propagation work this
      // answer can force; the flush below settles the whole batch.
      if (labels[i]) {
        engine_.OnPositive(pending_[i]);
      } else {
        engine_.OnNegative(pending_[i]);
      }
    }
    pending_.clear();
    if (!engine_.Aborted()) engine_.Propagate(&stats_);
  }

  Engine engine_;
  common::Rng rng_;
  size_t max_questions_;
  SessionStats stats_;
  std::vector<Item> pending_;
  std::optional<HypothesisT> final_;
  bool finished_ = false;
};

}  // namespace session
}  // namespace qlearn

#endif  // QLEARN_SESSION_SESSION_H_
