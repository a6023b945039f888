// The interactive protocol for chains of joins (Section 3's extension of
// the single-join scenario, experiments E6 and E12): the learner proposes
// tuple paths, the user labels them, and after every answer the labels of
// all *uninformative* paths (those on which every hypothesis in the current
// chain version space agrees) are inferred so they are never asked.
//
// ChainEngine is the one relational engine: it implements the unified
// session Engine concept (session/session.h) over a capped row-major
// enumeration of the chain's tuple paths, for any number of edges. A join
// is the one-edge chain — rlearn::JoinEngine (interactive_join.h) is a thin
// translation onto a ChainEngine over two relations.
// RunInteractiveChainSession is the legacy one-shot wrapper over
// session::LearningSession<ChainEngine>.
#ifndef QLEARN_RLEARN_INTERACTIVE_CHAIN_H_
#define QLEARN_RLEARN_INTERACTIVE_CHAIN_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "rlearn/chain_learner.h"
#include "session/candidate_store.h"
#include "session/frontier.h"
#include "session/propagation.h"
#include "session/session.h"
#include "session/snapshot.h"

namespace qlearn {
namespace rlearn {

/// Labels candidate paths; backed by a hidden goal in benchmarks.
class ChainOracle {
 public:
  virtual ~ChainOracle() = default;
  virtual bool IsPositive(const JoinChain& chain,
                          const ChainExample& example) = 0;
};

/// Oracle defined by a hidden goal chain mask.
class GoalChainOracle : public ChainOracle {
 public:
  explicit GoalChainOracle(ChainMask goal) : goal_(std::move(goal)) {}
  bool IsPositive(const JoinChain& chain, const ChainExample& example) override {
    return ChainSatisfied(chain, goal_, example);
  }

 private:
  ChainMask goal_;
};

/// Question-selection strategies of the relational engine (compared in E6
/// and E12). The greedy scores sum per-edge (|θ*_e|, |θ*_e ∧ agree_e|)
/// scores from rlearn/mask_scoring.h; a join is one edge, so JoinStrategy
/// is this same enum.
enum class ChainStrategy {
  kRandom,         ///< uniform over informative paths
  kSplitHalf,      ///< aim to halve every edge's θ* with each question
  kLattice,        ///< probe paths that test one candidate pair's necessity
  kHuntThenSplit,  ///< ask the most plausible match until the first
                   ///< positive, then split (see SelectCandidate)
};

/// Knob ownership contract (same split on all four engines' options
/// structs): `strategy` and `max_candidates` are consumed by the engine
/// itself; `seed` and `max_questions` are consumed only by the
/// RunInteractiveChainSession wrapper, which forwards them into
/// session::SessionOptions — an engine driven directly through
/// LearningSession ignores them.
struct InteractiveChainOptions {
  ChainStrategy strategy = ChainStrategy::kHuntThenSplit;
  uint64_t seed = session::SessionDefaults::kLegacyChainSeed;
  /// Cap on enumerated candidate paths (the full product can explode).
  size_t max_candidates = 20000;
  size_t max_questions = session::SessionDefaults::kMaxQuestions;
};

struct InteractiveChainResult {
  /// One non-empty mask per chain edge: the most specific hypothesis
  /// consistent with all answers (on conflict, the last consistent one).
  ChainMask learned;
  size_t questions = 0;
  size_t forced_positive = 0;
  size_t forced_negative = 0;
  size_t candidate_paths = 0;
  /// Non-zero when the oracle contradicted the version space (goal outside
  /// the chain-hypothesis class).
  size_t conflicts = 0;
};

/// Session engine over (a capped row-major enumeration of) all tuple paths
/// of the chain. Questions are ChainExamples; the version space settles
/// uninformative paths after every answer. `chain` must outlive the engine.
///
/// Whether a path is forced, and how the greedy strategies score it, depend
/// only on its per-edge agreement-mask tuple. The engine therefore keys its
/// frontier on mask classes (paths with equal tuples) and decides each
/// class once: the candidate store holds one slot per class, a sweep
/// settles a whole class with Frontier::MarkForcedClass, and a greedy pick
/// is the first open member of the best class. Open states, random picks,
/// question ids and forced counts stay per path.
///
/// The classes are computed edge by edge (see the constructor), since a
/// chain's edges have far fewer row pairs than the chain has paths. Class
/// ids follow first appearance along the row-major walk, so they (and
/// with them every question sequence and snapshot image) do not depend
/// on how they are computed.
class ChainEngine {
 public:
  using Item = ChainExample;
  using HypothesisT = ChainMask;

  /// Wire-payload hooks: the tag and the stable model-specific coordinates
  /// of a question item (see service/wire.h).
  static constexpr const char* kPayloadKind = "chain";
  static std::vector<uint64_t> ItemIds(const Item& item) {
    return std::vector<uint64_t>(item.rows.begin(), item.rows.end());
  }

  /// Builds the mask classes of the first max_candidates paths of the
  /// row-major product and fills the store planes once per class:
  ///  - each edge's masks are interned into per-edge ids one left row at a
  ///    time (one JoinChain::AgreeRow), the first time the capped walk
  ///    reaches that row; for a join (one edge) these ids are the classes;
  ///  - with more edges, the tuple of edges 0..e is interned as the pair
  ///    (tuple of edges 0..e-1, edge e's id), one 64-bit key;
  ///  - a path's class depends only on its prefix tuple (all edges but the
  ///    last) and its second-to-last row, so the classes over the last
  ///    relation's rows are interned once per such pair and copied when
  ///    the pair repeats.
  explicit ChainEngine(const JoinChain* chain,
                       const InteractiveChainOptions& options = {});

  std::optional<Item> SelectQuestion(common::Rng* rng);
  /// SelectQuestion's pick as a candidate index (see candidate()).
  std::optional<size_t> SelectCandidate(common::Rng* rng);
  void MarkAsked(const Item& item);
  void Observe(const Item& item, bool positive, session::SessionStats* stats);
  /// Per-answer propagation deltas (engine concept, session/session.h): a
  /// negative answer queues its per-edge agreement masks; a positive
  /// answer marks the hypothesis changed iff it shrank some edge's θ*.
  void OnPositive(const Item& item);
  void OnNegative(const Item& item);
  /// Flushes queued deltas. Classification of a path is a pure function of
  /// its per-edge effective masks A_e = θ*_e ∧ agree_e, so it is decided
  /// per mask class. The agreement bits live bit-transposed in the
  /// candidate store over the classes (one plane per pair of each edge's
  /// universe, packed edge after edge; bit c of a plane is class c), so
  /// each flush is a handful of word-at-a-time plane sweeps over the open
  /// classes, and each swept class is settled whole.
  void Propagate(session::SessionStats* stats);
  /// True once an answer contradicted the version space (target outside the
  /// chain-of-joins hypothesis class).
  bool Aborted() const { return aborted_; }
  /// Most specific hypothesis after the last consistent answer — never the
  /// post-conflict vector, which can violate the "one non-empty mask per
  /// edge" ChainMask invariant.
  const HypothesisT& Current() const { return last_consistent_; }
  const HypothesisT& Finish(session::SessionStats* stats);

  size_t candidate_paths() const { return frontier_.size(); }
  /// Candidate k's path: the k-th row vector of the row-major product (the
  /// inverse of IndexOf; no per-candidate row vectors are stored).
  ChainExample candidate(size_t k) const;
  const JoinChain& chain() const { return *chain_; }

  // Introspection for conformance tests and UIs. Paths without a candidate
  // slot (malformed or beyond the candidate cap) were never considered and
  // report false.
  bool WasAsked(const Item& item) const;
  bool HasForcedLabel(const Item& item) const;

  /// Test/bench hook: every flush replays the historical full-universe
  /// rescan instead of the delta pass (identical behavior, different cost).
  void set_reference_propagation(bool on) { reference_propagation_ = on; }
  /// Test/bench hook: makes the next flush run the full classification pass.
  void ForceFullRepropagation() { prop_.RecordHypothesisChange(); }
  /// Test introspection of the structure-of-arrays candidate store, whose
  /// ids are mask classes.
  const session::CandidateStore& StoreForTest() const { return store_; }
  /// The frontier's open-class words: bit c set iff mask class c has an
  /// open member (test introspection).
  const std::vector<uint64_t>& OpenClassWordsForTest() const {
    return frontier_.open_words();
  }
  /// Mask class of candidate k (test introspection).
  size_t ClassOfForTest(size_t k) const { return frontier_.ClassOf(k); }

  /// Hibernation: appends a versioned engine image (strategy, class and
  /// plane counts, version space, frontier states) to `writer`. The planes
  /// are not written: the constructor rebuilds them from the chain. Call
  /// only between answered turns (queued deltas flushed).
  void SerializeSnapshot(session::SnapshotWriter* writer) const;
  /// Restores an image produced by SerializeSnapshot into an engine built
  /// over the same chain/options. Mismatched geometry or strategy is
  /// rejected with InvalidArgument.
  common::Status RestoreSnapshot(session::SnapshotReader* reader);

 private:
  /// The frontier tracks states only: a candidate's path is derived from
  /// its index. Greedy scores are (primary, tie) pairs packed into one long
  /// (see ScoreOf).
  using FrontierT = session::Frontier<std::monostate, long>;
  /// Queued payloads index the new negatives in vs_ (vs_.negative(i)).
  using PropagationT = session::PropagationIndex<size_t>;

  std::optional<size_t> IndexOf(const Item& item) const;
  /// Writes candidate k's row vector into `rows` (mixed radix over the
  /// relation sizes).
  void RowsOf(size_t k, std::vector<size_t>* rows) const;
  /// Greedy score of mask class `c` under strategy_; see SelectCandidate
  /// for the two-phase hunting/splitting semantics.
  long ScoreOf(size_t c, bool hunting) const;

  /// The version space's per-candidate verdict on candidate k (the
  /// reference the plane sweeps must match). `rows` and `agree` are
  /// buffers reused across calls.
  ChainVersionSpace::PathStatus ReferenceClassify(
      size_t k, std::vector<size_t>* rows,
      std::vector<PairMask>* agree) const;
  /// The historical per-candidate Classify rescan, verbatim.
  void ReferencePropagate(session::SessionStats* stats);
  /// Baseline / θ*-change pass: positive sweep (open ∧ AND of every edge's
  /// θ* planes) plus per-edge A_e == 0 sweeps plus one conviction sweep per
  /// accumulated negative.
  void FullPropagate(session::SessionStats* stats);
  /// Steady-state flush: one conviction sweep per queued negative.
  void ApplyNegativeDeltas(session::SessionStats* stats);
  /// Convicts the open paths the negative's agreement vector (one mask per
  /// edge) covers edge-wise: open ∧ ∧_e ¬OR(planes of θ*_e ∧ ¬neg_e).
  void ConvictCovered(const PairMask* neg, session::SessionStats* stats);
  /// Forces the open members of every class whose bit is set in `bits` (a
  /// sweep result over the class axis, seeded from the frontier's open
  /// words) and counts them in `stats`.
  void ForceSweep(const std::vector<uint64_t>& bits, bool positive,
                  session::SessionStats* stats);
  /// Recomputes the per-edge per-class |θ*_e ∧ agree_e| counts (bit-sliced
  /// popcount over each edge's θ* planes) if θ* changed.
  void EnsureKeptCounts();
#ifndef NDEBUG
  void AssertPropagationFixpoint() const;
#endif

  const JoinChain* chain_;
  ChainStrategy strategy_;
  FrontierT frontier_;  // row-major candidate paths, capped; mask classes
  /// plane_base_[e] = first plane of edge e: the universe sizes of the
  /// edges before it.
  std::vector<size_t> plane_base_;
  /// SoA agreement planes over the mask classes: plane plane_base_[e]+b
  /// holds "the class agrees on bit b of edge e's universe". Sweeps start
  /// from the frontier's open words (a class is open iff a member is).
  session::CandidateStore store_;
  ChainVersionSpace vs_;
  ChainMask last_consistent_;
  PropagationT prop_;
  /// Sweep scratch (class words) reused across flushes.
  std::vector<uint64_t> scratch_;
  /// kept_counts_[e][c] = |θ*_e ∧ agree_e(c)| for class c, the greedy
  /// scoring input; refreshed lazily per θ* change.
  std::vector<std::vector<uint8_t>> kept_counts_;
  /// totals_[e] = |θ*_e| under the same validity regime.
  std::vector<int> totals_;
  bool counts_valid_ = false;
  /// Did the last positive Observe actually shrink some edge's θ*?
  bool theta_advanced_ = false;
  bool reference_propagation_ = false;
  bool aborted_ = false;
};

/// Runs the protocol over (a capped enumeration of) all tuple paths of the
/// chain. Stops when every path is labeled or uninformative. Thin wrapper
/// over session::LearningSession<ChainEngine>; question counts are
/// identical to driving the engine one question at a time.
common::Result<InteractiveChainResult> RunInteractiveChainSession(
    const JoinChain& chain, ChainOracle* oracle,
    const InteractiveChainOptions& options = {});

}  // namespace rlearn
}  // namespace qlearn

#endif  // QLEARN_RLEARN_INTERACTIVE_CHAIN_H_
