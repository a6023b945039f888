// Crowdsourced join learning (the paper's Section-3 crowd application):
// the interactive equi-join protocol where every question is a paid HIT.
//
// The learning session is session::LearningSession<rlearn::JoinEngine>, the
// engine behind rlearn::RunInteractiveJoinSession, with two crowd twists:
//  * answers come from a noisy majority-vote oracle and cost money;
//  * the label-everything baseline (Marcus et al.'s join task) can first
//    spend cheap per-record feature HITs on a pilot-calibrated *feature
//    filter*, skipping candidate pairs that disagree on the feature as
//    assumed negatives. Only the baseline filters: the learner already
//    infers those labels for free.
#ifndef QLEARN_CROWD_CROWD_JOIN_H_
#define QLEARN_CROWD_CROWD_JOIN_H_

#include <cstdint>
#include <optional>

#include "common/status.h"
#include "crowd/cost_model.h"
#include "crowd/noisy_oracle.h"
#include "rlearn/chain_learner.h"
#include "rlearn/interactive_join.h"

namespace qlearn {
namespace crowd {

struct CrowdJoinOptions {
  /// Per-answer flip probability of a single worker.
  double worker_error_rate = 0.05;
  /// Answers bought per question (majority vote); at least 1.
  int replication = 3;
  /// Brute baseline only: spend feature HITs to prune candidate pairs
  /// first. The feature is calibrated on a paid pilot sample (see
  /// PilotSelectedFeature); without a pilot positive the filter is skipped.
  bool feature_filtering = false;
  /// Pair HITs spent probing for pilot positives before choosing a feature.
  size_t pilot_budget = 12;
  HitCost cost;
  uint64_t seed = 23;
};

struct CrowdJoinResult {
  /// Most specific hypothesis consistent with the answers.
  rlearn::PairMask learned = 0;
  CostLedger ledger;
  double total_cost = 0;
  size_t questions = 0;
  size_t forced_positive = 0;
  size_t forced_negative = 0;
  /// Ground-truth disagreements of the learned join over all pairs
  /// (0 when the crowd noise did not corrupt the outcome).
  size_t accuracy_errors = 0;
};

/// Runs a crowdsourced join-learning session over all |left|x|right| pairs:
/// split-half questions, each answered by a NoisyMajorityOracle over `truth`
/// (also used to score accuracy_errors). Rejects `feature_filtering` and an
/// empty universe with InvalidArgument.
common::Result<CrowdJoinResult> RunCrowdJoinSession(
    const rlearn::PairUniverse& universe, const relational::Relation& left,
    const relational::Relation& right, rlearn::JoinOracle* truth,
    const CrowdJoinOptions& options = {});

/// Result of the label-everything baseline (Marcus et al.'s task: compute
/// the join output with the crowd, every surviving candidate pair is asked).
struct CrowdBruteResult {
  CostLedger ledger;
  double total_cost = 0;
  /// Pairs actually asked (candidates after filtering).
  size_t asked = 0;
  /// Candidate pairs skipped by the feature filter.
  size_t filtered_out = 0;
  /// Pilot HITs included in `ledger.pair_hits`.
  size_t pilot_questions = 0;
  /// Disagreements with ground truth over all pairs (filtered pairs count
  /// as answered "no").
  size_t accuracy_errors = 0;
  std::optional<size_t> feature_pair;
};

/// The brute-force crowd join: asks every candidate pair (optionally after
/// pilot-calibrated feature filtering). This is the baseline the version-
/// space session is measured against — the paper's "minimize interactions
/// == minimize cost" claim.
common::Result<CrowdBruteResult> RunCrowdBruteJoinSession(
    const rlearn::PairUniverse& universe, const relational::Relation& left,
    const relational::Relation& right, rlearn::JoinOracle* truth,
    const CrowdJoinOptions& options = {});

/// Picks the most selective universe pair for feature filtering: the pair
/// minimizing the number of candidate (left,right) pairs that agree on it
/// (ties: lowest index). Returns nullopt for an empty universe.
std::optional<size_t> MostSelectiveFeature(
    const rlearn::PairUniverse& universe, const relational::Relation& left,
    const relational::Relation& right);

/// Marcus-style pilot calibration: spends up to `options.pilot_budget` pair
/// HITs on random pairs looking for positives, then picks the most
/// selective universe pair that agrees on EVERY pilot positive (a feature
/// that provably cannot filter out those matches). Returns nullopt when the
/// pilot finds no positive. Costs are charged to `ledger`.
std::optional<size_t> PilotSelectedFeature(
    const rlearn::PairUniverse& universe, const relational::Relation& left,
    const relational::Relation& right, NoisyMajorityOracle* crowd,
    const CrowdJoinOptions& options, CostLedger* ledger,
    size_t* pilot_questions);

}  // namespace crowd
}  // namespace qlearn

#endif  // QLEARN_CROWD_CROWD_JOIN_H_
