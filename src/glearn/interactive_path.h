// Interactive path-query learning on a graph — the paper's geographical
// scenario: the learner proposes *paths* for the user to label, propagates
// uninformative paths, and can prioritize paths matching a historical query
// workload (the "all previous users wanted highway-only paths" heuristic).
//
// PathEngine implements the unified session Engine concept
// (session/session.h); RunInteractivePathSession is the legacy one-shot
// wrapper over session::LearningSession<PathEngine>.
#ifndef QLEARN_GLEARN_INTERACTIVE_PATH_H_
#define QLEARN_GLEARN_INTERACTIVE_PATH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "glearn/concat_pattern.h"
#include "graph/path_query.h"
#include "session/frontier.h"
#include "session/propagation.h"
#include "session/session.h"
#include "session/snapshot.h"

namespace qlearn {
namespace glearn {

/// Labels candidate paths; backed by a hidden goal query in benchmarks.
/// Implementations that need the graph (e.g. to resolve edge labels) bind
/// it at construction time, like GoalPathOracle does.
class PathOracle {
 public:
  virtual ~PathOracle() = default;
  virtual bool IsPositive(const graph::Path& path) = 0;
};

/// Oracle defined by a hidden goal path query.
class GoalPathOracle : public PathOracle {
 public:
  GoalPathOracle(const graph::PathQuery& goal, const graph::Graph& g)
      : evaluator_(goal, g) {}
  bool IsPositive(const graph::Path& path) override {
    return evaluator_.MatchesPath(path);
  }

 private:
  graph::PathQueryEvaluator evaluator_;
};

/// Question-selection strategies (compared in E7).
enum class PathStrategy {
  kRandom,    ///< uniform over informative paths
  kFrontier,  ///< smallest generalization cost first (conservative growth)
  kWorkload,  ///< paths matching the historical workload first
};

/// Knob ownership contract (same split on all four engines' options
/// structs): `strategy`, the candidate-pool knobs, and `workload` are
/// consumed by the engine itself; `seed` and `max_questions` are consumed
/// only by the RunInteractivePathSession wrapper, which forwards them into
/// session::SessionOptions — an engine driven directly through
/// LearningSession ignores them.
struct InteractivePathOptions {
  PathStrategy strategy = PathStrategy::kFrontier;
  uint64_t seed = session::SessionDefaults::kLegacyPathSeed;
  /// Candidate pool: paths of at most this many edges...
  size_t max_path_edges = 4;
  /// ...capped at this many paths.
  size_t max_candidates = 4000;
  size_t max_questions = session::SessionDefaults::kMaxQuestions;
  /// Historical workload for kWorkload (regexes of past learned queries).
  std::vector<automata::RegexPtr> workload;
};

struct InteractivePathResult {
  ConcatPattern hypothesis;
  /// Max weight among positive paths (a most-specific weight bound).
  double max_positive_weight = 0;
  size_t questions = 0;
  size_t forced_positive = 0;
  size_t forced_negative = 0;
  size_t candidate_paths = 0;
  /// Non-zero when the hypothesis ends up accepting a labeled-negative word
  /// (goal outside the concat class).
  size_t conflicts = 0;
};

/// Session engine for path-query learning. Questions reference candidate
/// paths in the engine's candidate pool, which is immutable once built and
/// shared by every copy of the engine (the pointers stay valid for as long
/// as any copy lives). The caller must seed the engine with one
/// known-positive path.
///
/// Every decision the engine makes about a candidate — generalization,
/// cost, workload match, forced labels — depends only on its label word,
/// so candidates with equal words form one frontier class (the word is
/// interned once at construction) and each is decided once per class.
class PathEngine {
 public:
  /// One question: a candidate path and its label word.
  struct Question {
    size_t index;  ///< candidate index (stable engine-internal id)
    const graph::Path* path;
    const std::vector<common::SymbolId>* word;  ///< the class's word
  };

  using Item = Question;
  using HypothesisT = ConcatPattern;

  /// Wire-payload hooks: the tag and the stable model-specific coordinates
  /// of a question item — the candidate index, which is stable for the
  /// engine's lifetime (see service/wire.h).
  static constexpr const char* kPayloadKind = "path";
  static std::vector<uint64_t> ItemIds(const Item& item) {
    return {static_cast<uint64_t>(item.index)};
  }

  /// `g` must outlive the engine; `seed` is a path the user already marked
  /// positive (the engine does not re-ask it).
  PathEngine(const graph::Graph* g, const graph::Path& seed,
             const InteractivePathOptions& options = {});

  std::optional<Item> SelectQuestion(common::Rng* rng);
  void MarkAsked(const Item& item);
  void Observe(const Item& item, bool positive, session::SessionStats* stats);
  /// Per-answer propagation deltas (engine concept, session/session.h): a
  /// negative answer queues its candidate index; a positive answer marks
  /// the hypothesis changed iff generalizing actually grew the pattern.
  void OnPositive(const Item& item);
  void OnNegative(const Item& item);
  /// Flushes queued deltas. Steady state: only the *new* negative word is
  /// tested against each open class's memoized generalized pattern —
  /// O(open classes) accept tests instead of O(open × negatives)
  /// generalize+accept sweeps. A hypothesis change (and the baseline call)
  /// re-tests the open classes once, memoizing the generalizations the
  /// frontier already caches for scoring.
  void Propagate(session::SessionStats* stats);
  /// True once the hypothesis accepted a labeled-negative word (goal
  /// outside the concat class).
  bool Aborted() const { return aborted_; }
  HypothesisT Current() const { return hypothesis_; }
  HypothesisT Finish(session::SessionStats* /*stats*/) { return hypothesis_; }

  size_t candidate_paths() const { return frontier_.size(); }
  /// Max weight among positive paths (a most-specific weight bound).
  double max_positive_weight() const { return max_positive_weight_; }

  // Introspection for conformance tests and UIs.
  bool WasAsked(size_t index) const { return frontier_.WasAsked(index); }
  bool HasForcedLabel(size_t index) const {
    return frontier_.HasForcedLabel(index);
  }

  /// Test/bench hook: every flush replays the historical full-universe
  /// rescan (fresh Generalize per candidate per flush) instead of the
  /// delta pass (identical behavior, different cost).
  void set_reference_propagation(bool on) { reference_propagation_ = on; }
  /// Test/bench hook: makes the next flush run the full re-test pass.
  void ForceFullRepropagation() { prop_.RecordHypothesisChange(); }

  /// Hibernation: appends a versioned engine image (strategy, hypothesis
  /// pattern, weight bound, accumulated negative words, frontier states) to
  /// `writer`. Call only between answered turns (queued deltas flushed).
  /// Follows the chain engine's "QLCE" pattern; the candidate pool and its
  /// word classes are built deterministically by the constructor, not
  /// serialized.
  void SerializeSnapshot(session::SnapshotWriter* writer) const;
  /// Restores an image produced by SerializeSnapshot into an engine built
  /// over the same graph/options. Mismatched geometry or strategy is
  /// rejected with InvalidArgument.
  common::Status RestoreSnapshot(session::SnapshotReader* reader);

 private:
  struct Candidate {
    graph::Path path;
    uint32_t word_class = 0;  ///< index into Pool::word_classes
  };
  /// One distinct label word: the frontier class of every candidate that
  /// spells it.
  struct WordClass {
    std::vector<common::SymbolId> word;
    bool workload_hit = false;
  };
  /// The candidate pool: fixed by the constructor, shared by every copy of
  /// the engine. Questions point into it.
  struct Pool {
    std::vector<Candidate> candidates;  // states live in frontier_
    std::vector<WordClass> word_classes;  // class id == frontier class id
  };

  /// Greedy scores are (workload-hit, -generalization-cost) pairs compared
  /// lexicographically; kFrontier pins the hit component to 0.
  using PathScore = std::pair<long, long>;
  /// Memoized per-class intermediate: the hypothesis generalized with the
  /// class's word, plus the edit cost. Scoring reads the cost; the
  /// forced-negative predicate (would absorbing this word swallow a known
  /// negative?) reads the pattern — so negative-answer deltas never re-run
  /// Generalize. Valid until the hypothesis changes.
  struct GenMemo {
    ConcatPattern extended;
    int cost = 0;
  };
  using FrontierT = session::Frontier<Question, PathScore, GenMemo>;
  /// Deltas are the word classes of new negatives: the per-class accept
  /// test against one word is already O(1) per class.
  using PropagationT = session::PropagationIndex<size_t>;

  const std::vector<common::SymbolId>& WordOf(size_t k) const {
    return pool_->word_classes[pool_->candidates[k].word_class].word;
  }
  /// Memoized generalization of class `c`'s word into the current
  /// hypothesis (recomputed only after a hypothesis change).
  const std::optional<GenMemo>& GenMemoOf(size_t c);
  /// Memoized generalization cost of absorbing class `c`'s word into the
  /// current hypothesis (stale only when the hypothesis changes).
  long CostOf(size_t c);

  /// The historical full-universe rescan, verbatim (reference mode).
  void ReferencePropagate(session::SessionStats* stats);
  /// Baseline / hypothesis-change pass over the open classes, via the
  /// memos.
  void FullPropagate(session::SessionStats* stats);
  /// Steady-state flush: tests only the queued new negatives against each
  /// open class's memoized generalized pattern.
  void ApplyNegativeDeltas(session::SessionStats* stats);
#ifndef NDEBUG
  void AssertPropagationFixpoint();
#endif

  const graph::Graph* g_;
  PathStrategy strategy_;
  std::shared_ptr<const Pool> pool_;
  FrontierT frontier_;
  ConcatPattern hypothesis_;
  double max_positive_weight_ = 0;
  std::vector<std::vector<common::SymbolId>> negative_words_;
  PropagationT prop_;
  /// Did the last positive Observe actually grow the hypothesis?
  bool hypothesis_advanced_ = false;
  bool reference_propagation_ = false;
  bool aborted_ = false;
};

/// Runs the interactive protocol starting from one positive seed path. Thin
/// wrapper over session::LearningSession<PathEngine>; question counts are
/// identical to driving the engine one question at a time.
common::Result<InteractivePathResult> RunInteractivePathSession(
    const graph::Graph& g, const graph::Path& seed, PathOracle* oracle,
    const InteractivePathOptions& options = {});

}  // namespace glearn
}  // namespace qlearn

#endif  // QLEARN_GLEARN_INTERACTIVE_PATH_H_
