// Unit tests for the shared candidate-frontier layer (session/frontier.h):
// the state machine, score memoization with epoch/dirty invalidation, the
// lazy-heap greedy selection's bit-compatibility with the historical
// first-wins linear scan (tie-breaks, sentinel fallback, score decay), and
// the class-keyed frontier (per-class memos, heap entries and forcing), and
// the open/active class words under every transition.
#include "session/frontier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "session/snapshot.h"

namespace qlearn {
namespace session {
namespace {

using IntFrontier = Frontier<int>;

IntFrontier MakeFrontier(size_t n) {
  IntFrontier frontier;
  for (size_t k = 0; k < n; ++k) frontier.Add(static_cast<int>(k) * 10);
  return frontier;
}

TEST(FrontierStateTest, LifecycleTransitions) {
  IntFrontier f = MakeFrontier(5);
  EXPECT_EQ(f.size(), 5u);
  EXPECT_EQ(f.open_count(), 5u);
  EXPECT_EQ(f.item(2), 20);

  f.MarkAsked(0);
  EXPECT_EQ(f.state(0), CandidateState::kAsked);
  EXPECT_TRUE(f.WasAsked(0));
  EXPECT_FALSE(f.IsOpen(0));
  f.MarkLabeled(0, true);
  EXPECT_EQ(f.state(0), CandidateState::kLabeledPositive);
  EXPECT_TRUE(f.WasAsked(0));  // the asked bit survives labeling

  // Pre-seeded label: closed but never asked.
  f.MarkLabeled(1, false);
  EXPECT_EQ(f.state(1), CandidateState::kLabeledNegative);
  EXPECT_FALSE(f.WasAsked(1));

  f.MarkForced(2, false);
  EXPECT_EQ(f.state(2), CandidateState::kForcedNegative);
  EXPECT_TRUE(f.HasForcedLabel(2));
  // The one lateral transition: forced-negative can upgrade to
  // forced-positive (twig: a grown hypothesis reaches the node).
  EXPECT_TRUE(f.MarkForced(2, true));
  EXPECT_EQ(f.state(2), CandidateState::kForcedPositive);
  // ...while re-forcing an already-forced-negative stays a no-op.
  f.MarkForced(3, false);
  EXPECT_FALSE(f.MarkForced(3, false));
  EXPECT_EQ(f.state(3), CandidateState::kForcedNegative);

  EXPECT_EQ(f.open_count(), 1u);
  EXPECT_EQ(f.FirstOpen(), std::optional<size_t>(4));
}

TEST(FrontierStateTest, DiscardedQuestionCanStillBeForced) {
  // A question issued but never answered (driver discarded the batch) may
  // later be settled by propagation — the twig engine relies on this.
  IntFrontier f = MakeFrontier(2);
  f.MarkAsked(1);
  EXPECT_TRUE(f.MarkForced(1, true));
  EXPECT_EQ(f.state(1), CandidateState::kForcedPositive);
  EXPECT_TRUE(f.WasAsked(1));
  EXPECT_TRUE(f.HasForcedLabel(1));
}

TEST(FrontierStateTest, StateNames) {
  EXPECT_STREQ(CandidateStateName(CandidateState::kUnknown), "unknown");
  EXPECT_STREQ(CandidateStateName(CandidateState::kAsked), "asked");
  EXPECT_STREQ(CandidateStateName(CandidateState::kForcedPositive),
               "forced-positive");
}

TEST(FrontierMemoTest, RecomputesOnlyWhenStale) {
  IntFrontier f = MakeFrontier(3);
  int recomputes = 0;
  auto memo_fn = [&recomputes](size_t k) -> std::optional<long> {
    ++recomputes;
    return static_cast<long>(k);
  };
  EXPECT_EQ(f.MemoOf(1, memo_fn), std::optional<long>(1));
  EXPECT_EQ(f.MemoOf(1, memo_fn), std::optional<long>(1));
  EXPECT_EQ(recomputes, 1);  // cached on the second read

  f.InvalidateAll();
  EXPECT_EQ(f.MemoOf(1, memo_fn), std::optional<long>(1));
  EXPECT_EQ(recomputes, 2);  // epoch bump rescored it

  f.Invalidate(1);
  EXPECT_EQ(f.MemoOf(1, memo_fn), std::optional<long>(1));
  EXPECT_EQ(f.MemoOf(2, memo_fn), std::optional<long>(2));
  EXPECT_EQ(recomputes, 4);  // single dirty mark rescored only candidate 1

  // Settling a candidate releases its memo (never scored again); a later
  // read recomputes instead of serving the freed slot.
  f.MarkForced(2, true);
  EXPECT_EQ(f.MemoOf(2, memo_fn), std::optional<long>(2));
  EXPECT_EQ(recomputes, 5);

  // A nullopt memo ("cannot be scored") is cached like any other value.
  int failures = 0;
  auto failing = [&failures](size_t) -> std::optional<long> {
    ++failures;
    return std::nullopt;
  };
  f.InvalidateAll();
  EXPECT_FALSE(f.MemoOf(0, failing).has_value());
  EXPECT_FALSE(f.MemoOf(0, failing).has_value());
  EXPECT_EQ(failures, 1);
}

TEST(FrontierSelectTest, GreedyPicksBestScoreFirstWins) {
  IntFrontier f = MakeFrontier(5);
  const std::vector<long> scores = {3, 7, 7, 1, 6};
  auto score_of = [&scores](size_t k) -> std::optional<long> {
    return scores[k];
  };
  // 7 is the max; index 1 beats the equal-scored index 2 (first wins).
  EXPECT_EQ(f.SelectBest(0L, score_of), std::optional<size_t>(1));
  f.MarkAsked(1);
  // With 1 closed, the tie-holder at index 2 is the pick.
  EXPECT_EQ(f.SelectBest(0L, score_of), std::optional<size_t>(2));
}

TEST(FrontierSelectTest, SentinelFallsBackToFirstOpen) {
  IntFrontier f = MakeFrontier(3);
  auto zero = [](size_t) -> std::optional<long> { return 0; };
  // Nothing strictly beats the sentinel: the first open candidate wins,
  // matching the historical scans' default pick.
  EXPECT_EQ(f.SelectBest(0L, zero), std::optional<size_t>(0));
  f.MarkForced(0, false);
  EXPECT_EQ(f.SelectBest(0L, zero), std::optional<size_t>(1));

  // Unscorable candidates fall back the same way.
  auto none = [](size_t) -> std::optional<long> { return std::nullopt; };
  f.InvalidateAll();
  EXPECT_EQ(f.SelectBest(0L, none), std::optional<size_t>(1));
}

TEST(FrontierSelectTest, EmptyAndExhaustedFrontiers) {
  IntFrontier empty;
  common::Rng rng(7);
  auto one = [](size_t) -> std::optional<long> { return 1; };
  EXPECT_EQ(empty.SelectBest(0L, one), std::nullopt);
  EXPECT_EQ(empty.SelectUniform(&rng), std::nullopt);

  IntFrontier f = MakeFrontier(2);
  f.MarkForced(0, true);
  f.MarkAsked(1);
  EXPECT_EQ(f.SelectBest(0L, one), std::nullopt);
  EXPECT_EQ(f.SelectUniform(&rng), std::nullopt);
  EXPECT_EQ(f.FirstOpen(), std::nullopt);
}

TEST(FrontierSelectTest, HeapTracksScoreDecayWithinEpoch) {
  // Scores that shrink with the open set (the twig impact count) must not
  // leave a stale heap top in charge: close the support of the leader and
  // the runner-up must win the next pick without any invalidation call.
  IntFrontier f = MakeFrontier(4);
  auto impact = [&f](size_t k) -> std::optional<long> {
    // Candidate 0's score counts the open candidates among {1, 2}; the
    // others have fixed low scores.
    if (k == 0) {
      return static_cast<long>(f.IsOpen(1)) + static_cast<long>(f.IsOpen(2));
    }
    return k == 3 ? 1L : 0L;
  };
  EXPECT_EQ(f.SelectBest(0L, impact), std::optional<size_t>(0));  // score 2
  f.MarkForced(1, false);
  f.MarkForced(2, false);
  // Candidate 0 decayed to 0; candidate 3 (score 1) must now win.
  EXPECT_EQ(f.SelectBest(0L, impact), std::optional<size_t>(3));
}

TEST(FrontierSelectTest, InvalidateRescoresARaisedCandidate) {
  // Score *raises* are only legal through Invalidate(k) — verify the dirty
  // mark reschedules the candidate at its new score.
  IntFrontier f = MakeFrontier(3);
  std::vector<long> scores = {1, 2, 3};
  auto score_of = [&scores](size_t k) -> std::optional<long> {
    return scores[k];
  };
  EXPECT_EQ(f.SelectBest(0L, score_of), std::optional<size_t>(2));
  scores[0] = 10;
  f.Invalidate(0);
  EXPECT_EQ(f.SelectBest(0L, score_of), std::optional<size_t>(0));
}

TEST(FrontierSelectTest, PairScoresCompareLexicographically) {
  using Pair = std::pair<long, long>;
  Frontier<int, Pair> f;
  for (int k = 0; k < 3; ++k) f.Add(k);
  const std::vector<Pair> scores = {{1, 9}, {2, 0}, {2, -1}};
  auto score_of = [&scores](size_t k) -> std::optional<Pair> {
    return scores[k];
  };
  EXPECT_EQ(f.SelectBest(Pair{0, 0}, score_of), std::optional<size_t>(1));
}

TEST(FrontierSelectTest, UniformMatchesAscendingOpenScan) {
  // SelectUniform must draw exactly once on the open count and index the
  // open candidates in ascending order — the historical kRandom shape.
  IntFrontier f = MakeFrontier(6);
  f.MarkAsked(0);
  f.MarkForced(3, true);
  common::Rng pick_rng(42);
  common::Rng ref_rng(42);
  for (int round = 0; round < 3; ++round) {
    std::vector<size_t> open;
    for (size_t k = 0; k < f.size(); ++k) {
      if (f.IsOpen(k)) open.push_back(k);
    }
    const size_t want = open[ref_rng.Index(open.size())];
    EXPECT_EQ(f.SelectUniform(&pick_rng), std::optional<size_t>(want));
  }
}

TEST(FrontierSelectTest, StrategyObjectsDriveTheFrontier) {
  IntFrontier f = MakeFrontier(3);
  common::Rng rng(7);
  const std::vector<long> scores = {5, 9, 2};
  auto greedy = Greedy<long>(0, [&scores](size_t k) -> std::optional<long> {
    return scores[k];
  });
  EXPECT_EQ(f.Select(greedy, &rng), std::optional<size_t>(1));
  EXPECT_TRUE(f.Select(UniformRandomStrategy{}, &rng).has_value());
}

// --- Class-keyed frontiers ---

/// Candidates 0..n-1 with the given class ids.
IntFrontier MakeClassFrontier(const std::vector<size_t>& class_of) {
  std::vector<int> items;
  std::vector<uint32_t> classes;
  size_t num_classes = 0;
  for (size_t k = 0; k < class_of.size(); ++k) {
    items.push_back(static_cast<int>(k) * 10);
    classes.push_back(static_cast<uint32_t>(class_of[k]));
    num_classes = std::max(num_classes, class_of[k] + 1);
  }
  IntFrontier frontier;
  frontier.AddClassed(std::move(items), std::move(classes), num_classes);
  return frontier;
}

TEST(FrontierClassTest, IdentityMappingWithoutClassIds) {
  IntFrontier f = MakeFrontier(3);
  EXPECT_EQ(f.num_classes(), 3u);
  EXPECT_EQ(f.ClassOf(2), 2u);
  EXPECT_EQ(f.ClassOpenCount(1), 1u);
  EXPECT_EQ(f.FirstOpenMember(1), std::optional<size_t>(1));
  EXPECT_EQ(f.MarkForcedClass(1, false), 1u);
  EXPECT_EQ(f.state(1), CandidateState::kForcedNegative);
  EXPECT_EQ(f.ClassOpenCount(1), 0u);
  EXPECT_EQ(f.FirstOpenMember(1), std::nullopt);
  EXPECT_EQ(f.MarkForcedClass(1, true), 0u);
}

TEST(FrontierClassTest, MarkForcedClassSettlesOnlyOpenMembers) {
  IntFrontier f = MakeClassFrontier({0, 1, 0, 0, 1, 0});
  EXPECT_EQ(f.num_classes(), 2u);
  EXPECT_EQ(f.ClassOpenCount(0), 4u);
  f.MarkAsked(0);
  f.MarkLabeled(2, false);
  EXPECT_EQ(f.ClassOpenCount(0), 2u);
  EXPECT_EQ(f.FirstOpenMember(0), std::optional<size_t>(3));

  EXPECT_EQ(f.MarkForcedClass(0, true), 2u);
  EXPECT_EQ(f.state(0), CandidateState::kAsked);  // in flight: untouched
  EXPECT_EQ(f.state(2), CandidateState::kLabeledNegative);
  EXPECT_EQ(f.state(3), CandidateState::kForcedPositive);
  EXPECT_EQ(f.state(5), CandidateState::kForcedPositive);
  EXPECT_EQ(f.ClassOpenCount(0), 0u);
  EXPECT_EQ(f.FirstOpenMember(0), std::nullopt);
  EXPECT_EQ(f.MarkForcedClass(0, false), 0u);  // nothing left to settle
  // The other class is untouched.
  EXPECT_EQ(f.ClassOpenCount(1), 2u);
  EXPECT_EQ(f.open_count(), 2u);
}

TEST(FrontierClassTest, MemoIsSharedByMembersAndFreedWhenSettled) {
  IntFrontier f = MakeClassFrontier({0, 0, 1});
  int recomputes = 0;
  auto memo_fn = [&recomputes](size_t c) -> std::optional<long> {
    ++recomputes;
    return static_cast<long>(c) + 100;
  };
  EXPECT_EQ(f.MemoOf(f.ClassOf(1), memo_fn), std::optional<long>(100));
  EXPECT_EQ(f.MemoOf(f.ClassOf(0), memo_fn), std::optional<long>(100));
  EXPECT_EQ(recomputes, 1);  // one slot for both members
  f.MarkForced(0, false);    // a member remains open: the memo stays
  EXPECT_EQ(f.MemoOf(0, memo_fn), std::optional<long>(100));
  EXPECT_EQ(recomputes, 1);
  f.MarkForced(1, false);    // the class is settled: the memo is freed
  EXPECT_EQ(f.MemoOf(0, memo_fn), std::optional<long>(100));
  EXPECT_EQ(recomputes, 2);
}

TEST(FrontierClassTest, TieGoesToSmallestFirstOpenMember) {
  // Class 1 holds candidate 0, so it beats class 0 on a tied score even
  // though its id is larger.
  IntFrontier f = MakeClassFrontier({1, 0, 1, 0});
  auto flat = [](size_t) -> std::optional<long> { return 5; };
  EXPECT_EQ(f.SelectBest(0L, flat), std::optional<size_t>(0));
  // A strictly better class wins regardless of its members' positions.
  IntFrontier g = MakeClassFrontier({1, 0, 1, 0});
  auto prefer_zero = [](size_t c) -> std::optional<long> {
    return c == 0 ? 6 : 5;
  };
  EXPECT_EQ(g.SelectBest(0L, prefer_zero), std::optional<size_t>(1));
}

TEST(FrontierClassTest, HeapResiftsWhenFirstOpenMemberIsAsked) {
  // Class A = {0, 3}, class B = {1, 2}, equal scores: the pick walks the
  // open candidates in index order as each pick is asked, the stale class
  // entry re-sifting at its new first open member every time.
  IntFrontier f = MakeClassFrontier({0, 1, 1, 0});
  auto flat = [](size_t) -> std::optional<long> { return 5; };
  for (size_t want : {0u, 1u, 2u, 3u}) {
    const std::optional<size_t> pick = f.SelectBest(0L, flat);
    EXPECT_EQ(pick, std::optional<size_t>(want));
    if (pick.has_value()) f.MarkAsked(*pick);
  }
  EXPECT_EQ(f.SelectBest(0L, flat), std::nullopt);

  // A better class keeps winning until its members run out.
  IntFrontier g = MakeClassFrontier({0, 1, 1, 0});
  auto prefer_a = [](size_t c) -> std::optional<long> {
    return c == 0 ? 6 : 5;
  };
  for (size_t want : {0u, 3u, 1u, 2u}) {
    const std::optional<size_t> pick = g.SelectBest(0L, prefer_a);
    EXPECT_EQ(pick, std::optional<size_t>(want));
    if (pick.has_value()) g.MarkAsked(*pick);
  }
}

TEST(FrontierClassTest, MemberListsAreBuiltAscending) {
  // Interleaved, out-of-order class ids: the CSR build lists each class's
  // members in ascending candidate order, whatever order the classes
  // first appear in.
  const std::vector<size_t> classes = {2, 0, 2, 1, 0, 2, 1, 0};
  IntFrontier f = MakeClassFrontier(classes);
  EXPECT_EQ(f.size(), 8u);
  EXPECT_EQ(f.item(5), 50);
  EXPECT_EQ(f.num_classes(), 3u);
  const std::vector<std::vector<size_t>> members = {{1, 4, 7}, {3, 6},
                                                    {0, 2, 5}};
  for (size_t c = 0; c < members.size(); ++c) {
    EXPECT_EQ(f.ClassOpenCount(c), members[c].size());
    for (size_t k : members[c]) {
      EXPECT_EQ(f.ClassOf(k), c);
      EXPECT_EQ(f.FirstOpenMember(c), std::optional<size_t>(k));
      f.MarkAsked(k);
    }
    EXPECT_EQ(f.FirstOpenMember(c), std::nullopt);
  }
  EXPECT_EQ(f.open_count(), 0u);

  // Forcing a class settles exactly its open members, in any order of
  // earlier asks.
  IntFrontier g = MakeClassFrontier(classes);
  g.MarkAsked(4);
  EXPECT_EQ(g.MarkForcedClass(0, true), 2u);  // 1 and 7; 4 is in flight
  EXPECT_EQ(g.state(1), CandidateState::kForcedPositive);
  EXPECT_EQ(g.state(4), CandidateState::kAsked);
  EXPECT_EQ(g.state(7), CandidateState::kForcedPositive);
  EXPECT_EQ(g.FirstOpenMember(2), std::optional<size_t>(0));
  EXPECT_EQ(g.open_count(), 5u);
}

TEST(FrontierClassTest, RestoreRebuildsClassOpenCounts) {
  const std::vector<size_t> classes = {0, 1, 0, 2, 1, 0};
  IntFrontier f = MakeClassFrontier(classes);
  f.MarkAsked(0);
  f.MarkLabeled(0, true);
  f.MarkForcedClass(1, false);
  SnapshotWriter writer;
  f.SerializeState(&writer);

  IntFrontier restored = MakeClassFrontier(classes);
  SnapshotReader reader(writer.bytes());
  ASSERT_TRUE(restored.RestoreState(&reader).ok());
  EXPECT_EQ(restored.open_count(), 3u);
  EXPECT_EQ(restored.ClassOpenCount(0), 2u);
  EXPECT_EQ(restored.ClassOpenCount(1), 0u);
  EXPECT_EQ(restored.ClassOpenCount(2), 1u);
  EXPECT_EQ(restored.FirstOpenMember(0), std::optional<size_t>(2));
  EXPECT_EQ(restored.FirstOpenMember(1), std::nullopt);
  auto score = [](size_t c) -> std::optional<long> {
    return static_cast<long>(c);
  };
  EXPECT_EQ(restored.SelectBest(-1L, score), std::optional<size_t>(3));
  EXPECT_EQ(restored.MarkForcedClass(0, true), 2u);
  EXPECT_EQ(restored.open_count(), 1u);
}

/// Recounts every class's open (kUnknown member) and active (kUnknown or
/// kAsked member) bit from state() and compares with the frontier's words.
void ExpectWordsMatchStates(const IntFrontier& f) {
  const size_t words = (f.num_classes() + 63) / 64;
  std::vector<uint64_t> open(words, 0), active(words, 0);
  for (size_t k = 0; k < f.size(); ++k) {
    const size_t c = f.ClassOf(k);
    const uint64_t bit = 1ULL << (c % 64);
    if (f.state(k) == CandidateState::kUnknown) open[c / 64] |= bit;
    if (f.state(k) == CandidateState::kUnknown ||
        f.state(k) == CandidateState::kAsked) {
      active[c / 64] |= bit;
    }
  }
  EXPECT_EQ(f.open_words(), open);
  EXPECT_EQ(f.active_words(), active);
}

/// Drives `f` through every transition, checking the words after each,
/// then restores its state into `fresh` (built like `f`).
void CheckWordsFollowTransitions(IntFrontier f, IntFrontier fresh) {
  ExpectWordsMatchStates(f);
  f.MarkAsked(0);
  ExpectWordsMatchStates(f);
  f.MarkLabeled(0, true);  // from asked
  ExpectWordsMatchStates(f);
  f.MarkLabeled(1, false);  // from unknown (pre-seeded)
  ExpectWordsMatchStates(f);
  f.MarkAsked(2);
  f.MarkForced(2, false);  // asked -> forced
  ExpectWordsMatchStates(f);
  f.MarkForced(3, false);  // unknown -> forced
  ExpectWordsMatchStates(f);
  EXPECT_TRUE(f.MarkForced(3, true));  // forced-negative -> forced-positive
  ExpectWordsMatchStates(f);
  f.MarkAsked(66);
  ExpectWordsMatchStates(f);
  f.MarkForcedClass(f.ClassOf(66), true);  // the asked member stays active
  ExpectWordsMatchStates(f);
  f.MarkLabeled(66, false);  // ...until its answer settles the class
  ExpectWordsMatchStates(f);
  f.MarkForcedClass(f.ClassOf(5), false);
  ExpectWordsMatchStates(f);

  SnapshotWriter writer;
  f.SerializeState(&writer);
  SnapshotReader reader(writer.bytes());
  ASSERT_TRUE(fresh.RestoreState(&reader).ok());
  ExpectWordsMatchStates(fresh);
  EXPECT_EQ(fresh.open_words(), f.open_words());
  EXPECT_EQ(fresh.active_words(), f.active_words());
}

TEST(FrontierWordsTest, FollowEveryTransitionUnderIdentityMapping) {
  // 70 candidates: the words span two uint64_t.
  CheckWordsFollowTransitions(MakeFrontier(70), MakeFrontier(70));
}

TEST(FrontierWordsTest, FollowEveryTransitionUnderClassMapping) {
  // 134 candidates in 67 classes, k and k + 67 sharing class k % 67: a
  // class bit stays set until its last member leaves the set.
  std::vector<size_t> classes(134);
  for (size_t k = 0; k < classes.size(); ++k) classes[k] = k % 67;
  CheckWordsFollowTransitions(MakeClassFrontier(classes),
                              MakeClassFrontier(classes));
}

}  // namespace
}  // namespace session
}  // namespace qlearn
