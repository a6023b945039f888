// Interactive twig learning: the paper's protocol where the learner chooses
// nodes and asks the user (an oracle here) to label them, propagating
// labels of uninformative nodes so they are never asked:
//  * nodes selected by the current hypothesis are forced positive (any
//    consistent generalization still selects them);
//  * nodes whose addition would force the hypothesis to select a known
//    negative are forced negative.
// The goal is to minimize the number of questions (experiment E1/E4 kin;
// the relational analogue is experiment E6).
//
// The protocol itself runs in the unified session layer: TwigEngine
// implements the session Engine concept and plugs into
// session::LearningSession for incremental ask/answer driving;
// RunInteractiveTwigSession is the legacy one-shot wrapper over it.
#ifndef QLEARN_LEARN_INTERACTIVE_H_
#define QLEARN_LEARN_INTERACTIVE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "learn/twig_learner.h"
#include "session/candidate_store.h"
#include "session/frontier.h"
#include "session/propagation.h"
#include "session/session.h"
#include "session/snapshot.h"
#include "twig/twig_eval.h"
#include "twig/twig_query.h"
#include "xml/xml_tree.h"

namespace qlearn {
namespace learn {

/// Answers membership questions; implemented by hidden-goal-query oracles in
/// tests and benchmarks, and by an actual user in an application.
class TwigOracle {
 public:
  virtual ~TwigOracle() = default;
  /// True iff the hidden target selects `node` of `doc`.
  virtual bool IsPositive(const xml::XmlTree& doc, xml::NodeId node) = 0;
};

/// Oracle backed by a known goal query.
class GoalTwigOracle : public TwigOracle {
 public:
  explicit GoalTwigOracle(twig::TwigQuery goal) : goal_(std::move(goal)) {}
  bool IsPositive(const xml::XmlTree& doc, xml::NodeId node) override {
    return twig::Selects(goal_, doc, node);
  }

 private:
  twig::TwigQuery goal_;
};

/// Question-selection strategies.
enum class TwigStrategy {
  kRandom,        ///< uniformly random informative node
  kGreedyImpact,  ///< node whose positive answer would settle the most nodes
};

/// Knob ownership contract (same split on all four engines' options
/// structs): `strategy` and `learner` are consumed by the engine itself;
/// `seed` and `max_questions` are consumed only by the
/// RunInteractiveTwigSession wrapper, which forwards them into
/// session::SessionOptions — an engine driven directly through
/// LearningSession ignores them (the session owns the RNG stream and the
/// question budget).
struct InteractiveTwigOptions {
  TwigStrategy strategy = TwigStrategy::kGreedyImpact;
  uint64_t seed = session::SessionDefaults::kLegacyTwigSeed;
  /// Hard cap on oracle questions (safety valve).
  size_t max_questions = session::SessionDefaults::kLegacyTwigMaxQuestions;
  TwigLearnerOptions learner;
};

struct InteractiveTwigResult {
  twig::TwigQuery query;
  size_t questions = 0;
  size_t forced_positive = 0;  ///< labels inferred, not asked
  size_t forced_negative = 0;
  /// Oracle answers that contradicted a forced label (0 when the target is
  /// in the anchored class).
  size_t conflicts = 0;
};

/// Session engine for interactive twig learning over one document (see the
/// Engine concept in session/session.h). Questions are document nodes. The
/// caller must seed the engine with one known-positive node; use
/// session::LearningSession<TwigEngine> to drive it.
class TwigEngine {
 public:
  using Item = xml::NodeId;
  using HypothesisT = twig::TwigQuery;

  /// Wire-payload hooks: the tag and the stable model-specific coordinates
  /// of a question item. The type-erased scenario layer forwards these so a
  /// service can serialize questions without knowing the engine type (see
  /// service/wire.h).
  static constexpr const char* kPayloadKind = "twig";
  static std::vector<uint64_t> ItemIds(const Item& node) {
    return {static_cast<uint64_t>(node)};
  }

  /// `doc` must outlive the engine; `seed` is a node the user already
  /// marked positive (the engine does not re-ask it).
  TwigEngine(const xml::XmlTree* doc, xml::NodeId seed,
             const InteractiveTwigOptions& options = {});

  std::optional<Item> SelectQuestion(common::Rng* rng);
  void MarkAsked(const Item& item);
  void Observe(const Item& item, bool positive, session::SessionStats* stats);
  /// Per-answer propagation deltas (engine concept, session/session.h): a
  /// negative answer queues the node as a new witness conviction; a
  /// positive answer marks the hypothesis changed iff Observe actually
  /// generalized it (a conflicting positive leaves it untouched).
  void OnPositive(const Item& item);
  void OnNegative(const Item& item);
  /// Flushes queued deltas. Steady state (no hypothesis change since the
  /// last flush): each new negative settles exactly the active candidates
  /// whose memoized selected-set row contains it — one word-parallel sweep
  /// of active ∧ plane(negative) over the candidate store's transposed
  /// witness planes, O(words), not O(open × negatives). A hypothesis change
  /// (and the baseline call) runs the full pass; the witness planes are
  /// rebuilt lazily (64×64 bit-block transpose of the active rows) when the
  /// next negative delta demands them.
  void Propagate(session::SessionStats* stats);
  bool Aborted() const { return false; }  // twig sessions tolerate conflicts
  HypothesisT Current() const { return hypothesis_; }
  /// Audits forced positives against the known negatives (conflicts mean
  /// the target was outside the anchored class) and minimizes.
  HypothesisT Finish(session::SessionStats* stats);

  // Introspection for conformance tests and UIs.
  bool WasAsked(xml::NodeId node) const { return frontier_.WasAsked(node); }
  bool HasForcedLabel(xml::NodeId node) const {
    return frontier_.HasForcedLabel(node);
  }

  /// Test/bench hook: every flush replays the historical full-universe
  /// rescan instead of the delta pass. Behavior (questions, forced sets,
  /// stats) is identical by construction — the parity property test
  /// asserts it — only the per-answer cost differs.
  void set_reference_propagation(bool on) { reference_propagation_ = on; }
  /// Test/bench hook: makes the next flush run the full hypothesis-change
  /// pass (steady-state positive-answer cost without mutating the session).
  void ForceFullRepropagation() { prop_.RecordHypothesisChange(); }
  /// Test/bench hook: drops the witness planes so the next negative delta
  /// pays the full rebuild cost — row materialization plus the bit-block
  /// transpose (measured by BM_Classify).
  void InvalidateWitnessIndexForBench() { witness_planes_valid_ = false; }
  /// Hibernation: appends a versioned engine image (strategy, hypothesis
  /// tree, accumulated negatives, frontier states) to `writer`. The store's
  /// rows and witness planes are caches and are not written. Call only
  /// between answered turns (queued deltas flushed). Follows the
  /// relational engine's "QLCE" pattern.
  void SerializeSnapshot(session::SnapshotWriter* writer) const;
  /// Restores an image produced by SerializeSnapshot into an engine built
  /// over the same document/options. Mismatched geometry or strategy is
  /// rejected with InvalidArgument.
  common::Status RestoreSnapshot(session::SnapshotReader* reader);

  // Test introspection of the witness planes (lazy rebuild semantics).
  // "Buckets" are the document nodes with at least one live witness bit —
  // the plane-sweep analogue of the historical bucket count.
  bool WitnessIndexValidForTest() const { return witness_planes_valid_; }
  size_t WitnessBucketsForTest() const;
  /// Test introspection of the structure-of-arrays candidate store.
  const session::CandidateStore& StoreForTest() const { return store_; }

 private:
  using FrontierT = session::Frontier<xml::NodeId, long>;

  /// Deltas are the negative nodes themselves.
  using PropagationT = session::PropagationIndex<xml::NodeId>;

  /// A generalized query whose selected set was evaluated this hypothesis
  /// epoch, and the candidate whose row holds that set.
  struct EvaluatedQuery {
    uint64_t hash;
    twig::TwigQuery query;
    xml::NodeId row;
  };

  /// Hypothesis with doc-node `v` joined in, or nullopt if no anchored
  /// generalization exists. Generalizes through the shared memo, which it
  /// builds over the current hypothesis if the call has none yet.
  std::optional<twig::TwigQuery> Extended(xml::NodeId v);
  /// Materializes candidate v's selected-set row in the store (the sorted
  /// node set Extended(v) selects, as a bitset) if it is stale; returns
  /// true when the row is present (an anchored generalization exists).
  /// Both the greedy-impact score and the forced-negative propagation
  /// predicate read the row instead of re-running GeneralizePair +
  /// evaluation per call. A query already evaluated this epoch (many
  /// candidates generalize to the same one) is not evaluated again: its
  /// row is copied.
  bool EnsureRow(xml::NodeId v);

  /// The historical full-universe rescan, verbatim (reference mode).
  void ReferencePropagate(session::SessionStats* stats);
  /// Baseline / hypothesis-change pass: historical forced-positive sweep,
  /// plus the forced-negative sweep that skips selected-set
  /// materialization while no negative exists yet.
  void FullPropagate(session::SessionStats* stats);
  /// Steady-state flush: one active ∧ plane(neg) sweep per queued negative.
  void ApplyNegativeDeltas(session::SessionStats* stats);
  /// Rebuilds the witness planes: materializes every active candidate's
  /// selected-set row, then bit-transposes the rows into the planes
  /// (deferred until a negative delta actually demands it).
  void RebuildWitnessPlanes();
#ifndef NDEBUG
  /// Replays the historical per-candidate predicates and asserts the flush
  /// reached their fixpoint (identical forced sets and stats totals).
  void AssertPropagationFixpoint();
#endif

  const xml::XmlTree* doc_;
  // strategy + learner knobs; see the knob-ownership contract on
  // InteractiveTwigOptions (seed/max_questions are wrapper-only).
  InteractiveTwigOptions options_;
  twig::TwigQuery hypothesis_;
  /// The document as one twig and, within an engine call, one filter memo
  /// over (hypothesis_, that twig) shared by every candidate's
  /// generalization (sharing is exact; see DocumentGeneralizer). The memo
  /// is built on the call's first generalization and released when
  /// SelectQuestion, Observe or Propagate returns, so an idle session
  /// holds no |hypothesis| x |document| table; the rows carry the results
  /// across calls. Observe releases it before the hypothesis changes.
  DocumentGeneralizer generalizer_;
  /// The distinct queries the current rows were evaluated from. Cleared
  /// whenever the rows go stale (hypothesis change, restore).
  std::vector<EvaluatedQuery> evaluated_;
  FrontierT frontier_;  // one candidate per doc node, index == NodeId
  /// SoA store: selected-set rows (one per candidate, row == NodeId) and
  /// their transpose, the witness planes (plane u = active candidates whose
  /// selected-set holds node u).
  session::CandidateStore store_;
  std::vector<xml::NodeId> negatives_;
  /// The negatives as a doc-node bitset (row_words-sized), the word-wise
  /// mirror of negatives_ the row-intersection tests sweep against.
  std::vector<uint64_t> neg_words_;
  PropagationT prop_;
  /// Do the store's witness planes match the current hypothesis? Cleared
  /// by every full pass (and restore), set by RebuildWitnessPlanes.
  bool witness_planes_valid_ = false;
  /// Sweep scratch (candidate words) reused across flushes.
  std::vector<uint64_t> scratch_;
  /// Did the last positive Observe actually generalize the hypothesis?
  bool hypothesis_advanced_ = false;
  bool reference_propagation_ = false;
};

/// Runs the interactive protocol on `doc`, starting from one positive seed
/// node (caller-provided, e.g. the first node the user annotated). Thin
/// wrapper over session::LearningSession<TwigEngine>; question counts are
/// identical to driving the engine one question at a time.
common::Result<InteractiveTwigResult> RunInteractiveTwigSession(
    const xml::XmlTree& doc, xml::NodeId seed, TwigOracle* oracle,
    const InteractiveTwigOptions& options = {});

}  // namespace learn
}  // namespace qlearn

#endif  // QLEARN_LEARN_INTERACTIVE_H_
