// Shared popcount-based mask scorers for the relational question-selection
// strategies. The relational engine (ChainEngine, which also serves joins
// and the crowd join session) scores with them; this header is the one
// definition.
//
// All scores are functions of (total, kept) where total = |θ*| is the
// surviving hypothesis-pair count and kept = |θ* ∧ agree| is how many of
// those pairs a candidate's agreement keeps alive.
#ifndef QLEARN_RLEARN_MASK_SCORING_H_
#define QLEARN_RLEARN_MASK_SCORING_H_

#include <cstdlib>

namespace qlearn {
namespace rlearn {

/// Split-half score: maximal (= total/2) when a positive answer would halve
/// θ*, falling off linearly towards the extremes. Range [total/2 - max(kept,
/// total - kept), total/2]; always ≤ total/2. Within one hypothesis epoch
/// this is the historical -|kept - total/2| shifted by the constant total/2,
/// so greedy argmax ordering (including ties) is unchanged.
inline long SplitHalfScore(int total, int kept) {
  return static_cast<long>(total / 2) - std::abs(kept - total / 2);
}

/// Lattice-probe score: a candidate that would drop exactly one pair of θ*
/// (kept == total - 1) tests that pair's necessity and outranks every
/// split-half fallback — the probe score `total` strictly dominates the
/// fallback maximum total/2 for every total ≥ 1 (θ* is non-empty whenever a
/// consistent session is still asking).
inline long LatticeProbeScore(int total, int kept) {
  return kept == total - 1 ? static_cast<long>(total)
                           : SplitHalfScore(total, kept);
}

}  // namespace rlearn
}  // namespace qlearn

#endif  // QLEARN_RLEARN_MASK_SCORING_H_
