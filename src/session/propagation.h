// Shared delta-propagation layer for the interactive engines.
//
// PR 4's frontier made steady-state SelectQuestion flat in candidate count,
// but every answer still paid a full-universe Propagate: all four engines
// rescanned every open candidate and re-ran model-specific classification
// per flush. This layer turns the Propagate contract into per-answer
// deltas. The driver (session::LearningSession) reports every observed
// answer through the engine's OnPositive/OnNegative hooks; the engine
// queues the delta here and the next Propagate() flush settles only the
// candidates that answer can actually force:
//
//   * a negative answer leaves the hypothesis untouched, so it can create
//     no new forced positives; the only candidates it can force negative
//     are those whose (memoized) extended selection witnesses the new
//     negative. The engines find them with word-parallel plane sweeps over
//     their session::CandidateStore, seeded from the frontier's class
//     words (open_words / active_words, the one record of which candidates
//     are still settleable): twig planes are the transposed selected-set
//     rows (plane u = candidates whose extension selects node u),
//     join/chain planes the transposed agreement bits, so a flush costs
//     O(words) per queued negative, not O(candidates × negatives). The path
//     engine runs one accept test of the new word per open candidate;
//   * a positive answer may change the hypothesis; forced labels never
//     revert (monotonicity), so the engine re-tests only still-settleable
//     candidates in one full pass.
//
// Bit-identity contract: a flush must reach exactly the fixpoint the
// historical full rescan reached — same forced sets, same stats totals, and
// hence the same question bytes downstream. Every engine keeps its
// historical rescan as a reference mode (set_reference_propagation) for the
// parity property test and the BM_Propagate "before" numbers, and Debug
// builds assert the fixpoint against the historical per-candidate
// predicates after every flush, mirroring the GreedyScoreStrategy parity
// check in session/frontier.h.
#ifndef QLEARN_SESSION_PROPAGATION_H_
#define QLEARN_SESSION_PROPAGATION_H_

#include <utility>
#include <vector>

namespace qlearn {
namespace session {

/// The per-answer delta queue one engine owns next to its Frontier.
///
///   Delta  what one queued negative answer carries into the flush (twig:
///          the negative node; chain: the negative's index among the
///          version space's negative agreements; path: the word class of
///          the negative).
///
/// Lifecycle: engines RecordNegative/RecordHypothesisChange from their
/// OnNegative/OnPositive hooks, then Propagate() either runs a full pass
/// (baseline or hypothesis change; ends with MarkFullPassDone) or drains
/// DrainDeltas() through its plane sweeps.
template <typename Delta>
class PropagationIndex {
 public:
  /// Queues one negative answer's payload for the next flush.
  void RecordNegative(Delta delta) { pending_.push_back(std::move(delta)); }

  /// Marks the hypothesis changed: the next flush must run the engine's
  /// full pass (per-candidate predicates changed wholesale).
  void RecordHypothesisChange() { hypothesis_dirty_ = true; }

  /// True when the next flush cannot be a delta pass: the baseline full
  /// pass has not run yet (fresh engine) or the hypothesis changed.
  bool NeedsFullPass() const { return !baseline_done_ || hypothesis_dirty_; }

  bool HasPendingDeltas() const { return !pending_.empty(); }

  /// Hands the queued deltas to the flush and empties the queue. The
  /// returned batch stays valid until the next DrainDeltas; the queue and
  /// the batch trade buffers, so neither reallocates once both have grown.
  const std::vector<Delta>& DrainDeltas() {
    draining_.clear();
    draining_.swap(pending_);
    return draining_;
  }

  /// A full pass just ran: the baseline is established, the dirty flag is
  /// spent, and queued deltas are subsumed (the pass classified against
  /// every negative).
  void MarkFullPassDone() {
    baseline_done_ = true;
    hypothesis_dirty_ = false;
    pending_.clear();
  }

 private:
  // Epoch-free: the flags below are spent by the next flush.
  std::vector<Delta> pending_;
  std::vector<Delta> draining_;  // the last drained batch
  bool baseline_done_ = false;
  bool hypothesis_dirty_ = false;
};

}  // namespace session
}  // namespace qlearn

#endif  // QLEARN_SESSION_PROPAGATION_H_
