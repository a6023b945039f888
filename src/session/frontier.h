// Shared incremental candidate-frontier layer for the interactive engines.
//
// All four scenario engines (learn::TwigEngine, rlearn::JoinEngine,
// rlearn::ChainEngine, glearn::PathEngine) run the same hot loop: keep a
// pool of candidate items, repeatedly pick the most informative open one,
// retire items as they are asked / labeled / forced, and rescore the rest
// as the hypothesis evolves. Before this layer each engine hand-rolled that
// bookkeeping with private state arrays and an O(candidates * eval) (twig:
// O(candidates^2 * eval)) rescan on every SelectQuestion call. The frontier
// centralizes it once, incrementally:
//
//   * candidate states  — one CandidateState per item (unknown / asked /
//                         labeled / forced) plus a persistent was-asked bit;
//   * candidate classes — AddClassed(items, class_of) groups candidates
//                         that every scorer and propagation predicate
//                         treats alike (the path engine's equal label
//                         words, the relational engine's equal agreement
//                         masks); memos, greedy scores and forced labels
//                         are then decided once per class
//                         (MarkForcedClass). The member lists are one CSR
//                         array, built by a count pass and a fill pass.
//                         The class index never changes after it is
//                         built, so copies of a frontier share it (a
//                         cloned session reads its prototype's).
//                         Add(item) is the identity mapping: each
//                         candidate is its own class, with no per-class
//                         tables at all;
//   * class bit-vectors — open_words() (bit c: class c has a kUnknown
//                         member) and active_words() (a kUnknown or kAsked
//                         member), kept in step by every transition; the
//                         engines seed their bit-plane sweeps
//                         (session/candidate_store.h) from copies of them,
//                         so the frontier is the one record of candidate
//                         lifecycle state;
//   * memoized scores   — per-class Memo slots with epoch-based
//                         dirty-marking: an Observe that changes the
//                         hypothesis bumps the epoch (everything rescores
//                         lazily), an Observe that does not (negative
//                         answers in every engine) invalidates nothing, so
//                         the next selection reuses every cached score;
//   * selection         — strategy objects the frontier drives:
//                         UniformRandomStrategy (every engine's kRandom)
//                         and GreedyScoreStrategy (kGreedyImpact /
//                         kSplitHalf / kHuntThenSplit / kLattice /
//                         kFrontier / kWorkload, each engine binding its
//                         model-specific scorer). Greedy selection runs
//                         off a lazy max-heap with one entry per class, so
//                         the per-question cost between hypothesis changes
//                         is O(log classes) instead of a full rescan.
//
// Bit-identity contract: GreedyScoreStrategy reproduces exactly the
// historical first-wins linear scan — the smallest-index candidate among
// the best-scoring open ones wins, and when no score strictly beats the
// strategy's sentinel the first open candidate wins. With classes that is
// the first open member of the best class, ties going to the class whose
// first open member has the smallest index. The heap relies on
// scores never *improving* within an epoch (they may decay as the open set
// shrinks, e.g. the twig impact count); call Invalidate(c)/InvalidateAll()
// before a score can rise. Debug builds cross-check every greedy pick
// against the reference linear scan.
//
// The engines keep their model-specific pieces — hypothesis extension,
// evaluation, propagation predicates — and delegate every candidate-state
// question to this layer. See session/session.h for the protocol driver
// that sits above the engines.
#ifndef QLEARN_SESSION_FRONTIER_H_
#define QLEARN_SESSION_FRONTIER_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "session/snapshot.h"

namespace qlearn {
namespace session {

/// Lifecycle of one candidate. States only ever move away from kUnknown
/// (the frontier never reopens a candidate); the one lateral transition is
/// kForcedNegative -> kForcedPositive, which the twig engine needs when a
/// growing hypothesis reaches a node that an earlier, smaller hypothesis
/// had ruled out.
enum class CandidateState : uint8_t {
  kUnknown,          ///< open: selectable by a strategy
  kAsked,            ///< question issued, answer not yet observed
  kLabeledPositive,  ///< answered positive by the oracle (or pre-seeded)
  kLabeledNegative,  ///< answered negative by the oracle
  kForcedPositive,   ///< inferred positive, never asked
  kForcedNegative,   ///< inferred negative, never asked
};

/// Human-readable state name (diagnostics and tests).
const char* CandidateStateName(CandidateState state);

/// Uniform-random selection over the open candidates: the kRandom strategy
/// of all four engines. Consumes exactly one Rng draw per pick, on the size
/// of the open set, preserving the historical random streams.
struct UniformRandomStrategy {
  template <typename FrontierT>
  std::optional<size_t> Pick(FrontierT* frontier, common::Rng* rng) const {
    return frontier->SelectUniform(rng);
  }
};

/// Greedy argmax of an engine-bound scorer: the shape of every non-random
/// strategy the engines had (twig kGreedyImpact, join kSplitHalf/kLattice,
/// chain kHuntThenSplit, path kFrontier/kWorkload). `score_of(c)` returns
/// the score of class `c` (the candidate itself under the identity
/// mapping), or nullopt when it cannot be scored (e.g. no anchored twig
/// generalization exists); higher scores win, ties go to the smallest open
/// index, and when nothing strictly beats `sentinel` the first open
/// candidate wins — exactly the historical linear-scan semantics.
/// Strategies that historically minimized a cost negate it.
template <typename Score, typename ScoreFn>
class GreedyScoreStrategy {
 public:
  GreedyScoreStrategy(Score sentinel, ScoreFn score_of)
      : sentinel_(std::move(sentinel)), score_of_(std::move(score_of)) {}

  template <typename FrontierT>
  std::optional<size_t> Pick(FrontierT* frontier, common::Rng* /*rng*/) const {
    return frontier->SelectBest(sentinel_, score_of_);
  }

 private:
  Score sentinel_;
  ScoreFn score_of_;
};

/// Deduction helper: Greedy(sentinel, [..](size_t k) { ... }).
template <typename Score, typename ScoreFn>
GreedyScoreStrategy<Score, ScoreFn> Greedy(Score sentinel, ScoreFn score_of) {
  return GreedyScoreStrategy<Score, ScoreFn>(std::move(sentinel),
                                             std::move(score_of));
}

/// The shared candidate frontier.
///
///   Item   what one candidate is (node id, tuple pair, tuple path, ...);
///          owned by the frontier, index-stable for its lifetime.
///   Score  the ordering type of greedy strategies; needs operator< (e.g.
///          long, std::pair<long, long>).
///   Memo   the expensive per-class intermediate a scorer caches via
///          MemoOf (defaults to Score when the score itself is the memo).
///
/// A frontier is built either with Add(item) only (identity mapping: class
/// id == candidate index) or with one AddClassed call.
template <typename Item, typename Score = long, typename Memo = Score>
class Frontier {
 public:
  /// Reserves room for `n` candidates of the identity mapping.
  void Reserve(size_t n) {
    items_.reserve(n);
    states_.reserve(n);
    asked_.reserve(n);
    memos_.reserve(n);
    memo_epoch_.reserve(n);
    open_words_.reserve(WordsFor(n));
    active_words_.reserve(WordsFor(n));
  }

  /// Appends a candidate (state kUnknown) as its own class and returns its
  /// index.
  size_t Add(Item item) {
    assert(classes_ == nullptr && "identity Add on a class-keyed frontier");
    memos_.emplace_back();
    memo_epoch_.push_back(0);
    const size_t k = Append(std::move(item));
    if (k % 64 == 0) {
      open_words_.push_back(0);
      active_words_.push_back(0);
    }
    SyncWords(k);
    return k;
  }

  /// Fills an empty frontier with `items` (state kUnknown), candidate k a
  /// member of class `class_of[k]` < `num_classes`. The member lists are
  /// one CSR array: a count pass sizes each class's run, a fill pass walks
  /// the candidates in ascending order, so every run is ascending.
  void AddClassed(std::vector<Item> items, std::vector<uint32_t> class_of,
                  size_t num_classes) {
    assert(items_.empty() && "AddClassed on a non-empty frontier");
    assert(items.size() == class_of.size());
    const size_t n = items.size();
    items_ = std::move(items);
    states_.assign(n, CandidateState::kUnknown);
    asked_.assign(n, false);
    open_count_ = n;
    memos_.resize(num_classes);
    memo_epoch_.assign(num_classes, 0);

    ClassIndex index;
    index.class_of = std::move(class_of);
    std::vector<uint32_t>& begin = index.member_begin;
    begin.assign(num_classes + 1, 0);
    for (uint32_t c : index.class_of) {
      assert(c < num_classes);
      ++begin[c + 1];
    }
    class_open_.resize(num_classes);
    for (size_t c = 0; c < num_classes; ++c) {
      class_open_[c] = begin[c + 1];
      begin[c + 1] += begin[c];
    }
    class_active_ = class_open_;
    index.members.resize(n);
    class_cursor_.assign(begin.begin(), begin.end() - 1);
    for (size_t k = 0; k < n; ++k) {
      index.members[class_cursor_[index.class_of[k]]++] =
          static_cast<uint32_t>(k);
    }
    class_cursor_.assign(begin.begin(), begin.end() - 1);
    classes_ = std::make_shared<const ClassIndex>(std::move(index));
    open_words_.assign(WordsFor(num_classes), 0);
    active_words_.assign(WordsFor(num_classes), 0);
    for (size_t c = 0; c < num_classes; ++c) SyncWords(c);
  }

  size_t size() const { return items_.size(); }
  const Item& item(size_t k) const { return items_[k]; }
  CandidateState state(size_t k) const { return states_[k]; }
  bool IsOpen(size_t k) const {
    return states_[k] == CandidateState::kUnknown;
  }
  /// Open candidates remaining (state kUnknown).
  size_t open_count() const { return open_count_; }
  /// True once a question about the candidate was issued, regardless of the
  /// label it later received (pre-seeded labels never set this).
  bool WasAsked(size_t k) const { return asked_[k]; }
  bool HasForcedLabel(size_t k) const {
    return states_[k] == CandidateState::kForcedPositive ||
           states_[k] == CandidateState::kForcedNegative;
  }

  /// Number of classes: the candidate count under the identity mapping.
  size_t num_classes() const {
    return classes_ == nullptr ? items_.size() : class_open_.size();
  }
  size_t ClassOf(size_t k) const {
    return classes_ == nullptr ? k : classes_->class_of[k];
  }
  /// Open members of class `c`.
  size_t ClassOpenCount(size_t c) const {
    if (classes_ == nullptr) return IsOpen(c) ? 1 : 0;
    return class_open_[c];
  }
  /// Bit c set iff class `c` has an open (kUnknown) member: the seed of
  /// every sweep that may settle a class. WordsFor(num_classes()) words;
  /// bits at and beyond num_classes() are zero.
  const std::vector<uint64_t>& open_words() const { return open_words_; }
  /// Bit c set iff class `c` has a kUnknown or kAsked member: a class that
  /// no label has settled yet (twig conviction eligibility). Same extent.
  const std::vector<uint64_t>& active_words() const { return active_words_; }
  /// Smallest open member of class `c`, or nullopt when the class is
  /// settled. Amortized O(1): the per-class cursor only moves forward.
  std::optional<size_t> FirstOpenMember(size_t c) {
    if (classes_ == nullptr) {
      return IsOpen(c) ? std::optional<size_t>(c) : std::nullopt;
    }
    if (class_open_[c] == 0) return std::nullopt;
    const std::vector<uint32_t>& members = classes_->members;
    uint32_t& cursor = class_cursor_[c];
    while (states_[members[cursor]] != CandidateState::kUnknown) ++cursor;
    return members[cursor];
  }

  /// kUnknown -> kAsked: the candidate is in flight and leaves the open
  /// set. The answer arrives via MarkLabeled — or never, if the driver
  /// discards the pending question, in which case the candidate stays
  /// kAsked (counted, not re-askable).
  void MarkAsked(size_t k) {
    assert(states_[k] == CandidateState::kUnknown && "asked a closed item");
    if (states_[k] != CandidateState::kUnknown) return;
    Close(k, CandidateState::kAsked);
    asked_[k] = true;
  }

  /// Records an oracle label: kAsked -> kLabeled* for answered questions,
  /// kUnknown -> kLabeled* for pre-seeded examples the oracle never sees.
  void MarkLabeled(size_t k, bool positive) {
    assert((states_[k] == CandidateState::kAsked ||
            states_[k] == CandidateState::kUnknown) &&
           "labeled an item that is settled already");
    const CandidateState next = positive ? CandidateState::kLabeledPositive
                                         : CandidateState::kLabeledNegative;
    if (states_[k] == CandidateState::kUnknown) {
      Close(k, next);
    } else if (states_[k] == CandidateState::kAsked) {
      SettleAsked(k, next);
    }
    ReleaseMemoIfSettled(k);
  }

  /// Records an inferred label. Allowed from kUnknown (both polarities),
  /// from kAsked (a discarded question settled by later knowledge), and —
  /// positive only — from kForcedNegative (the twig upgrade). Returns true
  /// if the state changed.
  bool MarkForced(size_t k, bool positive) {
    const CandidateState next = positive ? CandidateState::kForcedPositive
                                         : CandidateState::kForcedNegative;
    switch (states_[k]) {
      case CandidateState::kUnknown:
        Close(k, next);
        ReleaseMemoIfSettled(k);
        return true;
      case CandidateState::kAsked:
        SettleAsked(k, next);
        ReleaseMemoIfSettled(k);
        return true;
      case CandidateState::kForcedNegative:
        if (positive) {
          states_[k] = next;
          return true;
        }
        return false;
      default:
        assert(false && "forced a label on a labeled/settled item");
        return false;
    }
  }

  /// Forces every open member of class `c` (asked and labeled members keep
  /// their state) and returns how many it settled — the count the engine
  /// adds to SessionStats::forced_*.
  size_t MarkForcedClass(size_t c, bool positive) {
    if (classes_ == nullptr) return IsOpen(c) && MarkForced(c, positive);
    // One pass over the class's run from its cursor: every member before
    // the cursor is closed already.
    const size_t settled = class_open_[c];
    const CandidateState next = positive ? CandidateState::kForcedPositive
                                         : CandidateState::kForcedNegative;
    const std::vector<uint32_t>& members = classes_->members;
    for (uint32_t i = class_cursor_[c], left = class_open_[c]; left > 0; ++i) {
      CandidateState& state = states_[members[i]];
      if (state != CandidateState::kUnknown) continue;
      state = next;
      --left;
    }
    open_count_ -= settled;
    class_open_[c] = 0;
    class_active_[c] -= static_cast<uint32_t>(settled);
    SyncWords(c);
    ReleaseMemo(c);
    return settled;
  }

  /// Marks every memoized score stale (epoch bump). Call when the
  /// hypothesis — anything scores depend on beyond the open set — changed.
  /// O(1); rescoring happens lazily at the next greedy selection.
  void InvalidateAll() { ++epoch_; }

  /// Marks one class's memo stale and reschedules it for the greedy heap.
  /// Unlike the decay the heap tolerates implicitly, this also handles a
  /// score that *rises*.
  void Invalidate(size_t c) {
    memo_epoch_[c] = 0;
    dirty_.push_back(c);
  }

  /// Memoized access to the expensive per-class intermediate: recomputes
  /// via `recompute(c)` only when class `c`'s slot is stale (never
  /// computed, single-class Invalidate, or epoch bump). A nullopt memo is
  /// cached too — "cannot be scored" is itself a per-epoch fact.
  template <typename RecomputeFn>
  const std::optional<Memo>& MemoOf(size_t c, RecomputeFn&& recompute) {
    if (memo_epoch_[c] != epoch_) {
      memos_[c] = recompute(c);
      memo_epoch_[c] = epoch_;
    }
    return memos_[c];
  }

  /// First-wins greedy selection (see GreedyScoreStrategy for semantics).
  /// Runs off a lazy max-heap holding one entry per class, keyed by (score,
  /// first open member): a full rescore happens only on the first selection
  /// after an epoch bump; otherwise the pick costs O(log classes)
  /// amortized. Within an epoch cached scores must not improve — they may
  /// decay or vanish into nullopt, and a class's first open member only
  /// moves forward; the heap re-sifts such stale entries.
  template <typename ScoreFn>
  std::optional<size_t> SelectBest(const Score& sentinel, ScoreFn&& score_of) {
    if (open_count_ == 0) return std::nullopt;
    if (heap_epoch_ != epoch_) {
      heap_.clear();
      dirty_.clear();
      for (size_t c = 0; c < num_classes(); ++c) {
        const std::optional<size_t> first = FirstOpenMember(c);
        if (!first.has_value()) continue;
        std::optional<Score> s = score_of(c);
        if (s.has_value()) heap_.push_back(HeapEntry{std::move(*s), *first});
      }
      std::make_heap(heap_.begin(), heap_.end(), EntryLess);
      heap_epoch_ = epoch_;
    } else if (!dirty_.empty()) {
      for (size_t c : dirty_) {
        const std::optional<size_t> first = FirstOpenMember(c);
        if (!first.has_value()) continue;
        std::optional<Score> s = score_of(c);
        if (s.has_value()) PushHeap(HeapEntry{std::move(*s), *first});
      }
      dirty_.clear();
    }

    std::optional<size_t> picked;
    while (!heap_.empty()) {
      const HeapEntry& top = heap_.front();
      const size_t c = ClassOf(top.index);
      const std::optional<size_t> first = FirstOpenMember(c);
      if (!first.has_value()) {
        PopHeap();
        continue;
      }
      std::optional<Score> current = score_of(c);
      if (!current.has_value()) {
        PopHeap();
        continue;
      }
      if (*first != top.index || *current < top.score ||
          top.score < *current) {
        // Stale entry: the score decayed since it was pushed (e.g. the open
        // set shrank under an impact count), or the class's first open
        // member was asked or settled. Re-sift at its true key.
        PopHeap();
        PushHeap(HeapEntry{std::move(*current), *first});
        continue;
      }
      // Fresh top: the best-scored class, smallest first open member on
      // ties — i.e. the best-scored open candidate with the smallest index.
      picked = sentinel < top.score ? std::optional<size_t>(top.index)
                                    : FirstOpen();
      break;
    }
    if (!picked.has_value()) picked = FirstOpen();
    assert(picked == ReferenceSelectBest(sentinel, score_of) &&
           "lazy-heap selection diverged from the reference linear scan");
    return picked;
  }

  /// Uniformly random open candidate; exactly one Rng draw on the open
  /// count (the historical kRandom stream shape for every engine).
  std::optional<size_t> SelectUniform(common::Rng* rng) {
    if (open_count_ == 0) return std::nullopt;
    size_t remaining = rng->Index(open_count_);
    for (size_t k = 0; k < states_.size(); ++k) {
      if (states_[k] != CandidateState::kUnknown) continue;
      if (remaining == 0) return k;
      --remaining;
    }
    assert(false && "open_count_ out of sync with states");
    return std::nullopt;
  }

  /// Smallest open index, or nullopt when everything is settled. Amortized
  /// O(1): candidates never reopen, so the scan cursor only moves forward.
  std::optional<size_t> FirstOpen() {
    while (first_open_hint_ < states_.size() &&
           states_[first_open_hint_] != CandidateState::kUnknown) {
      ++first_open_hint_;
    }
    if (first_open_hint_ >= states_.size()) return std::nullopt;
    return first_open_hint_;
  }

  /// Lets a strategy object drive the pick: the engine chooses the
  /// strategy, the frontier supplies the candidate machinery.
  template <typename Strategy>
  std::optional<size_t> Select(const Strategy& strategy, common::Rng* rng) {
    return strategy.Pick(this, rng);
  }

  /// Hibernation: appends the per-candidate states and was-asked bits. The
  /// items themselves are not serialized — the engine rebuilds them from
  /// its model inputs and restores only the mutable lifecycle state.
  void SerializeState(SnapshotWriter* writer) const {
    writer->WriteU64(states_.size());
    for (CandidateState s : states_) {
      writer->WriteU8(static_cast<uint8_t>(s));
    }
    for (size_t k = 0; k < asked_.size(); ++k) {
      writer->WriteU8(asked_[k] ? 1 : 0);
    }
  }

  /// Restores SerializeState output into a frontier already holding the
  /// same candidate set, recounting the per-class open/active counts and
  /// words from the restored states. Memos and the greedy heap restart
  /// stale (epoch bump); scores recompute from the restored hypothesis on
  /// first use.
  common::Status RestoreState(SnapshotReader* reader) {
    uint64_t count = 0;
    common::Status s = reader->ReadU64(&count);
    if (!s.ok()) return s;
    if (count != states_.size()) {
      return common::Status::InvalidArgument(
          "frontier snapshot holds " + std::to_string(count) +
          " candidates, engine built " + std::to_string(states_.size()));
    }
    for (size_t k = 0; k < states_.size(); ++k) {
      uint8_t raw = 0;
      s = reader->ReadU8(&raw);
      if (!s.ok()) return s;
      if (raw > static_cast<uint8_t>(CandidateState::kForcedNegative)) {
        return common::Status::InvalidArgument(
            "frontier snapshot has invalid candidate state " +
            std::to_string(raw));
      }
      states_[k] = static_cast<CandidateState>(raw);
    }
    for (size_t k = 0; k < asked_.size(); ++k) {
      uint8_t raw = 0;
      s = reader->ReadU8(&raw);
      if (!s.ok()) return s;
      asked_[k] = raw != 0;
    }
    open_count_ = 0;
    std::fill(class_open_.begin(), class_open_.end(), 0);
    std::fill(class_active_.begin(), class_active_.end(), 0);
    if (classes_ != nullptr) {
      const std::vector<uint32_t>& begin = classes_->member_begin;
      class_cursor_.assign(begin.begin(), begin.end() - 1);
    }
    for (size_t k = 0; k < states_.size(); ++k) {
      const bool open = states_[k] == CandidateState::kUnknown;
      if (open) ++open_count_;
      if (classes_ == nullptr) continue;
      const uint32_t c = classes_->class_of[k];
      class_open_[c] += open ? 1 : 0;
      class_active_[c] += IsActiveState(states_[k]) ? 1 : 0;
    }
    for (size_t c = 0; c < num_classes(); ++c) SyncWords(c);
    first_open_hint_ = 0;
    for (size_t c = 0; c < memos_.size(); ++c) ReleaseMemo(c);
    InvalidateAll();  // restart heap and memos stale
    return common::Status::OK();
  }

 private:
  /// The candidate-to-class mapping and its CSR member lists.
  struct ClassIndex {
    std::vector<uint32_t> class_of;
    std::vector<uint32_t> member_begin;
    std::vector<uint32_t> members;
  };

  /// One greedy-heap entry per class: its score and its first open member
  /// when pushed (which also names the class).
  struct HeapEntry {
    Score score;
    size_t index;
  };

  /// Max-heap order: higher score first, smaller index first among equals
  /// (reproducing the linear scan's first-wins tie-break).
  static bool EntryLess(const HeapEntry& a, const HeapEntry& b) {
    if (a.score < b.score) return true;
    if (b.score < a.score) return false;
    return a.index > b.index;
  }

  void PushHeap(HeapEntry entry) {
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), EntryLess);
  }

  void PopHeap() {
    std::pop_heap(heap_.begin(), heap_.end(), EntryLess);
    heap_.pop_back();
  }

  size_t Append(Item item) {
    items_.push_back(std::move(item));
    states_.push_back(CandidateState::kUnknown);
    asked_.push_back(false);
    ++open_count_;
    return items_.size() - 1;
  }

  static size_t WordsFor(size_t bits) { return (bits + 63) / 64; }

  static bool IsActiveState(CandidateState state) {
    return state == CandidateState::kUnknown ||
           state == CandidateState::kAsked;
  }

  /// kUnknown -> `next`: leaves the open set, and the active set unless
  /// `next` is kAsked.
  void Close(size_t k, CandidateState next) {
    assert(states_[k] == CandidateState::kUnknown);
    states_[k] = next;
    --open_count_;
    if (classes_ != nullptr) {
      const uint32_t c = classes_->class_of[k];
      --class_open_[c];
      if (!IsActiveState(next)) --class_active_[c];
    }
    SyncWords(ClassOf(k));
  }

  /// kAsked -> terminal `next`: leaves the active set.
  void SettleAsked(size_t k, CandidateState next) {
    assert(states_[k] == CandidateState::kAsked && !IsActiveState(next));
    states_[k] = next;
    if (classes_ != nullptr) --class_active_[classes_->class_of[k]];
    SyncWords(ClassOf(k));
  }

  /// Members of class `c` in state kUnknown or kAsked.
  size_t ClassActiveCount(size_t c) const {
    if (classes_ == nullptr) return IsActiveState(states_[c]) ? 1 : 0;
    return class_active_[c];
  }

  /// Sets class `c`'s open and active bits from its member counts: the one
  /// definition of both word vectors, under either mapping.
  void SyncWords(size_t c) {
    const uint64_t bit = 1ULL << (c % 64);
    open_words_[c / 64] &= ~bit;
    active_words_[c / 64] &= ~bit;
    if (ClassOpenCount(c) > 0) open_words_[c / 64] |= bit;
    if (ClassActiveCount(c) > 0) active_words_[c / 64] |= bit;
  }

  /// Frees the memo of candidate `k`'s class once no member is open:
  /// settled classes are never scored again, and twig selected-sets are
  /// large enough that keeping them for the frontier's lifetime would hold
  /// O(n^2) dead cache in a parked session.
  void ReleaseMemoIfSettled(size_t k) {
    const size_t c = ClassOf(k);
    if (ClassOpenCount(c) == 0) ReleaseMemo(c);
  }

  /// The epoch reset keeps MemoOf correct if anything does read the slot
  /// later (it recomputes instead of serving a freed value).
  void ReleaseMemo(size_t c) {
    memos_[c].reset();
    memo_epoch_[c] = 0;
  }

#ifndef NDEBUG
  /// The historical selection loop, verbatim: ascending scan, strictly
  /// better score wins, first open candidate when nothing beats the
  /// sentinel. Debug builds assert the heap agrees on every pick.
  template <typename ScoreFn>
  std::optional<size_t> ReferenceSelectBest(const Score& sentinel,
                                            ScoreFn&& score_of) {
    std::optional<size_t> pick = FirstOpen();
    if (!pick.has_value()) return std::nullopt;
    Score best = sentinel;
    for (size_t k = *pick; k < states_.size(); ++k) {
      if (states_[k] != CandidateState::kUnknown) continue;
      std::optional<Score> s = score_of(ClassOf(k));
      if (s.has_value() && best < *s) {
        best = std::move(*s);
        pick = k;
      }
    }
    return pick;
  }
#endif

  std::vector<Item> items_;
  std::vector<CandidateState> states_;
  std::vector<bool> asked_;
  size_t open_count_ = 0;
  size_t first_open_hint_ = 0;

  // Class tables; null and empty under the identity mapping. The index is
  // immutable once AddClassed builds it, so copies share it; the counts
  // and cursors are per-frontier state. Class c's members are
  // members[member_begin[c] .. member_begin[c + 1]), ascending;
  // class_cursor_[c] is an index into members at or before its first open
  // member.
  std::shared_ptr<const ClassIndex> classes_;
  std::vector<uint32_t> class_open_;
  std::vector<uint32_t> class_active_;  ///< kUnknown + kAsked members
  std::vector<uint32_t> class_cursor_;

  // Per-class score memoization. Epoch 0 is reserved as "never valid".
  std::vector<std::optional<Memo>> memos_;
  std::vector<uint64_t> memo_epoch_;
  uint64_t epoch_ = 1;

  // Lazy greedy heap; entries scored under heap_epoch_.
  std::vector<HeapEntry> heap_;
  uint64_t heap_epoch_ = 0;
  std::vector<size_t> dirty_;

  // One bit per class (see open_words() / active_words()), maintained by
  // every state transition and rebuilt by RestoreState.
  std::vector<uint64_t> open_words_;
  std::vector<uint64_t> active_words_;
};

}  // namespace session
}  // namespace qlearn

#endif  // QLEARN_SESSION_FRONTIER_H_
