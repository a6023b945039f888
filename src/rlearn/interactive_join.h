// The paper's interactive join-learning protocol (Section 3): the learner
// proposes tuple pairs, the user labels them, and after every answer the
// learner infers the labels of all *uninformative* pairs (those on which
// every hypothesis in the current version space agrees) so they are never
// asked. The session ends when every pair is labeled or uninformative; the
// goal is to minimize questions (experiment E6).
//
// A join is the chain of two relations, so JoinEngine is a thin
// translation of the unified session Engine concept (session/session.h)
// onto a ChainEngine (interactive_chain.h) over a one-edge JoinChain;
// RunInteractiveJoinSession is the legacy one-shot wrapper over
// session::LearningSession<JoinEngine>.
#ifndef QLEARN_RLEARN_INTERACTIVE_JOIN_H_
#define QLEARN_RLEARN_INTERACTIVE_JOIN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "rlearn/chain_learner.h"
#include "rlearn/interactive_chain.h"
#include "session/candidate_store.h"
#include "session/session.h"
#include "session/snapshot.h"

namespace qlearn {
namespace rlearn {

/// Labels tuple pairs; backed by a hidden goal in tests/benchmarks, by a
/// human in an application.
class JoinOracle {
 public:
  virtual ~JoinOracle() = default;
  virtual bool IsPositive(const relational::Tuple& left,
                          const relational::Tuple& right) = 0;
};

/// Oracle defined by a hidden goal predicate over a pair universe.
class GoalJoinOracle : public JoinOracle {
 public:
  GoalJoinOracle(const PairUniverse* universe, PairMask goal)
      : universe_(universe), goal_(goal) {}
  bool IsPositive(const relational::Tuple& left,
                  const relational::Tuple& right) override {
    return MaskSatisfied(goal_, universe_->AgreeMask(left, right));
  }

 private:
  const PairUniverse* universe_;
  PairMask goal_;
};

/// Question-selection strategies (compared in E6): the relational engine's
/// enum. Joins use kRandom, kSplitHalf and kLattice.
using JoinStrategy = ChainStrategy;

/// Knob ownership contract (same split on all four engines' options
/// structs): `strategy` is consumed by the engine itself; `seed` and
/// `max_questions` are consumed only by the RunInteractiveJoinSession
/// wrapper, which forwards them into session::SessionOptions — an engine
/// driven directly through LearningSession ignores them.
struct InteractiveJoinOptions {
  JoinStrategy strategy = JoinStrategy::kSplitHalf;
  uint64_t seed = session::SessionDefaults::kLegacyJoinSeed;
  size_t max_questions = session::SessionDefaults::kMaxQuestions;
};

struct InteractiveJoinResult {
  /// Most specific hypothesis consistent with all answers.
  PairMask learned = 0;
  size_t questions = 0;
  size_t forced_positive = 0;
  size_t forced_negative = 0;
  size_t candidate_pairs = 0;
  /// Non-zero when the oracle contradicted the hypothesis space (goal not
  /// an equi-join over the universe).
  size_t conflicts = 0;
};

/// Session engine over all |left| x |right| tuple pairs. Questions are
/// PairExamples; the version space settles uninformative pairs after every
/// answer. Every member translates onto the ChainEngine over the one-edge
/// chain left ⋈ right, whose candidate k is the pair (k / |right|,
/// k % |right|). `universe`, `left`, and `right` must outlive the engine,
/// and the universe must be non-empty.
class JoinEngine {
 public:
  using Item = PairExample;
  using HypothesisT = PairMask;

  /// Wire-payload hooks: the tag and the stable model-specific coordinates
  /// of a question item (see service/wire.h).
  static constexpr const char* kPayloadKind = "join";
  static std::vector<uint64_t> ItemIds(const Item& item) {
    return {static_cast<uint64_t>(item.left_row),
            static_cast<uint64_t>(item.right_row)};
  }

  JoinEngine(const PairUniverse* universe, const relational::Relation* left,
             const relational::Relation* right,
             const InteractiveJoinOptions& options = {});

  std::optional<Item> SelectQuestion(common::Rng* rng);
  void MarkAsked(const Item& item) { engine_.MarkAsked(Path(item)); }
  void Observe(const Item& item, bool positive, session::SessionStats* stats) {
    engine_.Observe(Path(item), positive, stats);
  }
  void OnPositive(const Item& item) { engine_.OnPositive(Path(item)); }
  void OnNegative(const Item& item) { engine_.OnNegative(Path(item)); }
  void Propagate(session::SessionStats* stats) { engine_.Propagate(stats); }
  /// True once an answer contradicted the version space (target outside the
  /// equi-join hypothesis class).
  bool Aborted() const { return engine_.Aborted(); }
  /// θ*, or 0 once a conflict aborted the session.
  HypothesisT Current() const {
    return Aborted() ? 0 : engine_.Current().front();
  }
  HypothesisT Finish(session::SessionStats* stats) {
    engine_.Finish(stats);
    return Current();
  }

  size_t candidate_pairs() const { return engine_.candidate_paths(); }
  const relational::Tuple& LeftRow(const Item& item) const {
    return chain_->relation(0).row(item.left_row);
  }
  const relational::Tuple& RightRow(const Item& item) const {
    return chain_->relation(1).row(item.right_row);
  }

  // Introspection for conformance tests and UIs. Pairs outside the
  // |left| x |right| grid report false.
  bool WasAsked(const Item& item) const {
    return engine_.WasAsked(ChainExample{{item.left_row, item.right_row}});
  }
  bool HasForcedLabel(const Item& item) const {
    return engine_.HasForcedLabel(
        ChainExample{{item.left_row, item.right_row}});
  }

  /// Test/bench hook: every flush replays the historical full-universe
  /// rescan instead of the delta pass (identical behavior, different cost).
  void set_reference_propagation(bool on) {
    engine_.set_reference_propagation(on);
  }
  /// Test/bench hook: makes the next flush run the full classification pass.
  void ForceFullRepropagation() { engine_.ForceFullRepropagation(); }
  /// Test introspection of the structure-of-arrays candidate store (one
  /// plane per universe pair, one slot per agreement-mask class).
  const session::CandidateStore& StoreForTest() const {
    return engine_.StoreForTest();
  }
  /// Bit c set iff mask class c has an open pair.
  const std::vector<uint64_t>& OpenClassWordsForTest() const {
    return engine_.OpenClassWordsForTest();
  }
  /// Mask class of the pair (k / |right|, k % |right|).
  size_t ClassOfForTest(size_t k) const { return engine_.ClassOfForTest(k); }

  /// Hibernation: the chain engine's versioned image ("QLCE"). Call only
  /// between answered turns (queued deltas flushed).
  void SerializeSnapshot(session::SnapshotWriter* writer) const {
    engine_.SerializeSnapshot(writer);
  }
  /// Restores an image produced by SerializeSnapshot into an engine built
  /// over the same relations/universe/options. Mismatched geometry or
  /// strategy is rejected with InvalidArgument.
  common::Status RestoreSnapshot(session::SnapshotReader* reader) {
    return engine_.RestoreSnapshot(reader);
  }

 private:
  /// `item` as a two-row path, in a buffer the per-answer calls reuse so
  /// they allocate nothing.
  const ChainExample& Path(const Item& item) {
    path_.rows = {item.left_row, item.right_row};
    return path_;
  }

  /// Heap-held so the engine's pointer to it survives moves of JoinEngine.
  std::unique_ptr<JoinChain> chain_;
  ChainEngine engine_;
  ChainExample path_;
};

/// Runs the protocol over all |left| x |right| tuple pairs. Thin wrapper
/// over session::LearningSession<JoinEngine>; question counts are identical
/// to driving the engine one question at a time.
common::Result<InteractiveJoinResult> RunInteractiveJoinSession(
    const PairUniverse& universe, const relational::Relation& left,
    const relational::Relation& right, JoinOracle* oracle,
    const InteractiveJoinOptions& options = {});

}  // namespace rlearn
}  // namespace qlearn

#endif  // QLEARN_RLEARN_INTERACTIVE_JOIN_H_
