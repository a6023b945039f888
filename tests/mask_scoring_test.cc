// Unit tests for the shared split-half / lattice-probe scorers
// (rlearn/mask_scoring.h) deduplicated out of the join and chain
// question-selection loops.
#include "rlearn/mask_scoring.h"

#include <gtest/gtest.h>

namespace qlearn {
namespace rlearn {
namespace {

TEST(MaskScoringTest, SplitHalfPeaksAtHalf) {
  // total = 8: best kept is 4 (score 4), monotone decay to both extremes.
  EXPECT_EQ(SplitHalfScore(8, 4), 4);
  EXPECT_EQ(SplitHalfScore(8, 3), 3);
  EXPECT_EQ(SplitHalfScore(8, 5), 3);
  EXPECT_EQ(SplitHalfScore(8, 0), 0);
  EXPECT_EQ(SplitHalfScore(8, 8), 0);
  // Odd total: the two middle kept-counts straddle the peak.
  EXPECT_EQ(SplitHalfScore(7, 3), 3);
  EXPECT_EQ(SplitHalfScore(7, 4), 2);
  // Degenerate singleton hypothesis set.
  EXPECT_EQ(SplitHalfScore(1, 0), 0);
  EXPECT_EQ(SplitHalfScore(1, 1), -1);
}

TEST(MaskScoringTest, SplitHalfOrderingIsSymmetricAroundHalf) {
  const int total = 12;
  for (int kept = 0; kept <= total / 2; ++kept) {
    EXPECT_EQ(SplitHalfScore(total, kept), SplitHalfScore(total, total - kept));
  }
  for (int kept = 1; kept <= total / 2; ++kept) {
    EXPECT_GT(SplitHalfScore(total, kept), SplitHalfScore(total, kept - 1));
  }
}

TEST(MaskScoringTest, LatticeProbePrefersAlmostFullAgreement) {
  // kept == total-1 is the lattice probe: score `total` strictly dominates
  // every split-half value (which is at most total/2).
  const int total = 10;
  EXPECT_EQ(LatticeProbeScore(total, total - 1), total);
  for (int kept = 0; kept <= total; ++kept) {
    if (kept == total - 1) continue;
    EXPECT_EQ(LatticeProbeScore(total, kept), SplitHalfScore(total, kept));
    EXPECT_LT(LatticeProbeScore(total, kept),
              LatticeProbeScore(total, total - 1));
  }
  // total == 1: kept == 0 is the probe case (drops the only pair).
  EXPECT_EQ(LatticeProbeScore(1, 0), 1);
}

}  // namespace
}  // namespace rlearn
}  // namespace qlearn
