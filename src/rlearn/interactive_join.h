// The paper's interactive join-learning protocol (Section 3): the learner
// proposes tuple pairs, the user labels them, and after every answer the
// learner infers the labels of all *uninformative* pairs (those on which
// every hypothesis in the current version space agrees) so they are never
// asked. The session ends when every pair is labeled or uninformative; the
// goal is to minimize questions (experiment E6).
//
// JoinEngine implements the unified session Engine concept
// (session/session.h); RunInteractiveJoinSession is the legacy one-shot
// wrapper over session::LearningSession<JoinEngine>.
#ifndef QLEARN_RLEARN_INTERACTIVE_JOIN_H_
#define QLEARN_RLEARN_INTERACTIVE_JOIN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "rlearn/equijoin_learner.h"
#include "session/candidate_store.h"
#include "session/frontier.h"
#include "session/propagation.h"
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

/// Question-selection strategies (compared in E6).
enum class JoinStrategy {
  kRandom,     ///< uniform over informative pairs
  kSplitHalf,  ///< aim to halve the hypothesis lattice each question
  kLattice,    ///< probe pairs that test one candidate pair's necessity
};

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
/// answer. `universe`, `left`, and `right` must outlive the engine, and the
/// universe must be non-empty.
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
  void MarkAsked(const Item& item);
  void Observe(const Item& item, bool positive, session::SessionStats* stats);
  /// Per-answer propagation deltas (engine concept, session/session.h): a
  /// negative answer queues its agreement mask; a positive answer marks
  /// the hypothesis changed iff it actually shrank θ*.
  void OnPositive(const Item& item);
  void OnNegative(const Item& item);
  /// Flushes queued deltas. Classification of a pair is a pure function of
  /// its effective mask A = θ* ∧ agree, and the agreement bits live
  /// bit-transposed in the candidate store (one plane per universe pair),
  /// so each flush is a handful of word-at-a-time plane sweeps over the
  /// open set: a new negative m convicts open ∧ ¬OR(planes of θ* ∧ ¬m), a
  /// θ* change additionally forces open ∧ AND(planes of θ*) positive — no
  /// per-candidate loop and no witness hash index at all.
  void Propagate(session::SessionStats* stats);
  /// True once an answer contradicted the version space (target outside the
  /// equi-join hypothesis class).
  bool Aborted() const { return aborted_; }
  HypothesisT Current() const;
  HypothesisT Finish(session::SessionStats* stats);

  size_t candidate_pairs() const { return frontier_.size(); }
  const relational::Tuple& LeftRow(const Item& item) const;
  const relational::Tuple& RightRow(const Item& item) const;

  // Introspection for conformance tests and UIs.
  bool WasAsked(const Item& item) const;
  bool HasForcedLabel(const Item& item) const;

  /// Test/bench hook: every flush replays the historical full-universe
  /// rescan instead of the delta pass (identical behavior, different cost).
  void set_reference_propagation(bool on) { reference_propagation_ = on; }
  /// Test/bench hook: makes the next flush run the full classification pass.
  void ForceFullRepropagation() { prop_.RecordHypothesisChange(); }
  /// Bench-parity hook: the SoA engine keeps no witness index (conviction
  /// is a plane sweep), so the historical "drop the index before the next
  /// negative" costs nothing to set up. Kept so BM_Classify measures the
  /// same externally-triggered operation before and after the refactor.
  void InvalidateWitnessIndexForBench() {}
  /// Test introspection of the structure-of-arrays candidate store.
  const session::CandidateStore& StoreForTest() const { return store_; }

  /// Hibernation: appends a versioned engine image (strategy, version
  /// space, frontier states, candidate-store planes) to `writer`. Call only
  /// between answered turns (queued deltas flushed).
  void SerializeSnapshot(session::SnapshotWriter* writer) const;
  /// Restores an image produced by SerializeSnapshot into an engine built
  /// over the same relations/universe/options. Mismatched geometry or
  /// strategy is rejected with InvalidArgument.
  common::Status RestoreSnapshot(session::SnapshotReader* reader);

 private:
  using FrontierT = session::Frontier<PairExample, long>;
  /// Queued payloads are the new negatives' agreement masks.
  using PropagationT = session::PropagationIndex<PairMask>;

  size_t IndexOf(const Item& item) const;

  /// The historical per-candidate Classify rescan, verbatim.
  void ReferencePropagate(session::SessionStats* stats);
  /// Baseline / θ*-change pass: positive sweep (open ∧ AND θ* planes) plus
  /// one conviction sweep per accumulated negative.
  void FullPropagate(session::SessionStats* stats);
  /// Steady-state flush: one conviction sweep per queued negative mask.
  void ApplyNegativeDeltas(session::SessionStats* stats);
  /// Convicts the open candidates whose effective mask the negative `neg`
  /// covers: open ∧ ¬OR(planes of θ* ∧ ¬neg). neg = 0 convicts the A == 0
  /// set.
  void ConvictCovered(PairMask neg, session::SessionStats* stats);
  /// Forces every candidate whose bit is set in `bits` (a sweep result over
  /// the dense axis; all bits are open by construction).
  void ForceSweep(const std::vector<uint64_t>& bits, bool positive,
                  session::SessionStats* stats);
  /// Recomputes the per-candidate |θ* ∧ agree| counts (bit-sliced popcount
  /// over the θ* planes) if θ* changed or the store compacted.
  void EnsureKeptCounts();
#ifndef NDEBUG
  void AssertPropagationFixpoint() const;
#endif

  const PairUniverse* universe_;
  const relational::Relation* left_;
  const relational::Relation* right_;
  JoinStrategy strategy_;
  FrontierT frontier_;  // row-major over (left, right)
  /// SoA agreement planes + open/active mirrors + dense compaction; plane b
  /// holds "candidate agrees on universe pair b".
  session::CandidateStore store_;
  EquiJoinVersionSpace vs_;
  PropagationT prop_;
  /// Sweep scratch (dense words) reused across flushes.
  std::vector<uint64_t> scratch_;
  /// kept_counts_[DenseOf(k)] = |θ* ∧ agree_k|, the split/lattice scoring
  /// input; refreshed lazily per θ* change / compaction.
  std::vector<uint8_t> kept_counts_;
  bool counts_valid_ = false;
  /// Did the last positive Observe actually shrink θ*?
  bool theta_advanced_ = false;
  bool reference_propagation_ = false;
  bool aborted_ = false;
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
