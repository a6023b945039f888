#include "crowd/crowd_join.h"

#include <vector>

namespace qlearn {
namespace crowd {

using common::Result;
using common::Status;
using rlearn::MaskSatisfied;
using rlearn::PairExample;
using rlearn::PairMask;

namespace {

/// Per-universe-pair agreement counts over all candidate pairs (DB-side
/// statistics; costs nothing in HITs).
std::vector<size_t> AgreeCounts(const rlearn::PairUniverse& universe,
                                const relational::Relation& left,
                                const relational::Relation& right) {
  std::vector<size_t> counts(universe.size(), 0);
  for (size_t l = 0; l < left.size(); ++l) {
    for (size_t r = 0; r < right.size(); ++r) {
      const PairMask agree = universe.AgreeMask(left.row(l), right.row(r));
      for (size_t p = 0; p < universe.size(); ++p) {
        if (agree & (1ULL << p)) ++counts[p];
      }
    }
  }
  return counts;
}

Status ValidateOptions(const rlearn::JoinOracle* truth,
                       const CrowdJoinOptions& options) {
  if (truth == nullptr) {
    return Status::InvalidArgument("ground-truth oracle must not be null");
  }
  // Written so that a NaN rate fails too.
  if (!(options.worker_error_rate >= 0 && options.worker_error_rate < 0.5)) {
    return Status::InvalidArgument(
        "worker_error_rate must be in [0, 0.5) for majority voting to help");
  }
  if (options.replication < 1) {
    return Status::InvalidArgument("replication must be at least 1");
  }
  return Status::OK();
}

}  // namespace

std::optional<size_t> MostSelectiveFeature(
    const rlearn::PairUniverse& universe, const relational::Relation& left,
    const relational::Relation& right) {
  if (universe.size() == 0) return std::nullopt;
  const std::vector<size_t> counts = AgreeCounts(universe, left, right);
  size_t best = 0;
  for (size_t p = 1; p < universe.size(); ++p) {
    if (counts[p] < counts[best]) best = p;
  }
  return best;
}

std::optional<size_t> PilotSelectedFeature(
    const rlearn::PairUniverse& universe, const relational::Relation& left,
    const relational::Relation& right, NoisyMajorityOracle* crowd,
    const CrowdJoinOptions& options, CostLedger* ledger,
    size_t* pilot_questions) {
  if (universe.size() == 0 || left.empty() || right.empty()) {
    return std::nullopt;
  }
  common::Rng rng(options.seed ^ 0x9117);
  // The feature must agree on every pilot positive, i.e. live inside the
  // intersection of their agreement masks — the pilot's estimate of θ*.
  PairMask pilot_theta = universe.FullMask();
  bool found_positive = false;
  for (size_t i = 0; i < options.pilot_budget; ++i) {
    const size_t l = rng.Uniform(left.size());
    const size_t r = rng.Uniform(right.size());
    ++*pilot_questions;
    if (crowd->Ask(left.row(l), right.row(r), ledger)) {
      found_positive = true;
      pilot_theta &= universe.AgreeMask(left.row(l), right.row(r));
    }
  }
  if (!found_positive || pilot_theta == 0) return std::nullopt;

  const std::vector<size_t> counts = AgreeCounts(universe, left, right);
  std::optional<size_t> best;
  for (size_t p = 0; p < universe.size(); ++p) {
    if (!(pilot_theta & (1ULL << p))) continue;
    if (!best || counts[p] < counts[*best]) best = p;
  }
  return best;
}

Result<CrowdJoinResult> RunCrowdJoinSession(
    const rlearn::PairUniverse& universe, const relational::Relation& left,
    const relational::Relation& right, rlearn::JoinOracle* truth,
    const CrowdJoinOptions& options) {
  QLEARN_RETURN_IF_ERROR(ValidateOptions(truth, options));
  if (options.feature_filtering) {
    return Status::InvalidArgument(
        "feature filtering applies to the brute-force session only");
  }
  if (universe.size() == 0) {
    return Status::InvalidArgument("empty candidate pair universe");
  }
  CrowdJoinResult result;
  NoisyMajorityOracle crowd(truth, options.worker_error_rate,
                            options.replication, options.seed);
  // Split-half selection draws no randomness, so the session's own seed
  // never matters; the crowd's noise is seeded above.
  session::LearningSession<rlearn::JoinEngine> session(
      rlearn::JoinEngine(&universe, &left, &right));
  result.learned = session.Run([&](const PairExample& pair) {
    return crowd.Ask(left.row(pair.left_row), right.row(pair.right_row),
                     &result.ledger);
  });
  const session::SessionStats& stats = session.stats();
  result.questions = stats.questions;
  result.forced_positive = stats.forced_positive;
  result.forced_negative = stats.forced_negative;
  result.total_cost = result.ledger.Total(options.cost);

  // Ground-truth audit over every pair.
  for (size_t l = 0; l < left.size(); ++l) {
    for (size_t r = 0; r < right.size(); ++r) {
      const bool predicted = MaskSatisfied(
          result.learned, universe.AgreeMask(left.row(l), right.row(r)));
      if (predicted != truth->IsPositive(left.row(l), right.row(r))) {
        ++result.accuracy_errors;
      }
    }
  }
  return result;
}

Result<CrowdBruteResult> RunCrowdBruteJoinSession(
    const rlearn::PairUniverse& universe, const relational::Relation& left,
    const relational::Relation& right, rlearn::JoinOracle* truth,
    const CrowdJoinOptions& options) {
  QLEARN_RETURN_IF_ERROR(ValidateOptions(truth, options));
  CrowdBruteResult result;
  NoisyMajorityOracle crowd(truth, options.worker_error_rate,
                            options.replication, options.seed);

  if (options.feature_filtering) {
    result.feature_pair =
        PilotSelectedFeature(universe, left, right, &crowd, options,
                             &result.ledger, &result.pilot_questions);
  }
  const PairMask feature_bit =
      result.feature_pair ? (1ULL << *result.feature_pair) : 0;
  if (result.feature_pair) {
    result.ledger.feature_hits += left.size() + right.size();
  }

  for (size_t l = 0; l < left.size(); ++l) {
    for (size_t r = 0; r < right.size(); ++r) {
      const bool truth_answer = truth->IsPositive(left.row(l), right.row(r));
      bool predicted;
      if (result.feature_pair &&
          !(universe.AgreeMask(left.row(l), right.row(r)) & feature_bit)) {
        ++result.filtered_out;
        predicted = false;  // filtered pairs are assumed non-matches
      } else {
        predicted = crowd.Ask(left.row(l), right.row(r), &result.ledger);
        ++result.asked;
      }
      if (predicted != truth_answer) ++result.accuracy_errors;
    }
  }
  result.total_cost = result.ledger.Total(options.cost);
  return result;
}

}  // namespace crowd
}  // namespace qlearn
