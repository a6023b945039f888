#include "crowd/crowd_join.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <vector>

#include "rlearn/mask_scoring.h"

namespace qlearn {
namespace crowd {

using common::Result;
using common::Status;
using rlearn::ChainExample;
using rlearn::ChainVersionSpace;
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

namespace {

/// One kept crowd answer.
struct Answer {
  PairExample pair;
  bool positive;
};

/// Rebuilds a version space over the one-edge chain from the kept answers.
ChainVersionSpace BuildSpace(const rlearn::JoinChain& chain,
                             const std::vector<Answer>& answers) {
  ChainVersionSpace vs(&chain);
  for (const Answer& a : answers) {
    const ChainExample path{{a.pair.left_row, a.pair.right_row}};
    if (a.positive) {
      vs.AddPositive(path);
    } else {
      vs.AddNegative(path);
    }
  }
  return vs;
}

Status ValidateOptions(const rlearn::JoinOracle* truth,
                       const CrowdJoinOptions& options) {
  if (truth == nullptr) {
    return Status::InvalidArgument("ground-truth oracle must not be null");
  }
  if (options.worker_error_rate < 0 || options.worker_error_rate >= 0.5) {
    return Status::InvalidArgument(
        "worker_error_rate must be in [0, 0.5) for majority voting to help");
  }
  return Status::OK();
}

}  // namespace

Result<CrowdJoinResult> RunCrowdJoinSession(
    const rlearn::PairUniverse& universe, const relational::Relation& left,
    const relational::Relation& right, rlearn::JoinOracle* truth,
    const CrowdJoinOptions& options) {
  QLEARN_RETURN_IF_ERROR(ValidateOptions(truth, options));
  CrowdJoinResult result;
  NoisyMajorityOracle crowd(truth, options.worker_error_rate,
                            options.replication, options.seed);
  common::Rng rng(options.seed ^ 0xc0ffee);

  // Candidate pairs, optionally pruned by the pilot-calibrated filter.
  std::vector<PairExample> candidates;
  if (options.feature_filtering) {
    size_t pilot_questions = 0;
    result.feature_pair = PilotSelectedFeature(
        universe, left, right, &crowd, options, &result.ledger,
        &pilot_questions);
    result.questions += pilot_questions;
  }
  if (result.feature_pair) {
    // One feature-extraction HIT per record on each side: workers read off
    // the attribute the filter needs.
    result.ledger.feature_hits += left.size() + right.size();
    const PairMask feature_bit = 1ULL << *result.feature_pair;
    for (size_t l = 0; l < left.size(); ++l) {
      for (size_t r = 0; r < right.size(); ++r) {
        if (universe.AgreeMask(left.row(l), right.row(r)) & feature_bit) {
          candidates.push_back(PairExample{l, r});
        } else {
          ++result.filtered_out;
        }
      }
    }
  } else {
    for (size_t l = 0; l < left.size(); ++l) {
      for (size_t r = 0; r < right.size(); ++r) {
        candidates.push_back(PairExample{l, r});
      }
    }
  }
  std::vector<bool> settled(candidates.size(), false);

  // The join as a one-edge chain: its version space classifies a pair from
  // the pair's agreement mask, held in a buffer reused across the sweep.
  const rlearn::JoinChain chain = rlearn::JoinChain::ForJoin(universe, &left,
                                                             &right);
  std::vector<Answer> answers;
  ChainVersionSpace vs = BuildSpace(chain, answers);
  std::vector<PairMask> agree(1);

  while (result.questions < options.max_questions) {
    std::vector<size_t> informative;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (settled[i]) continue;
      agree[0] = universe.AgreeMask(left.row(candidates[i].left_row),
                                    right.row(candidates[i].right_row));
      switch (vs.ClassifyAgreements(agree)) {
        case ChainVersionSpace::PathStatus::kForcedPositive:
          settled[i] = true;
          ++result.forced_positive;
          break;
        case ChainVersionSpace::PathStatus::kForcedNegative:
          settled[i] = true;
          ++result.forced_negative;
          break;
        case ChainVersionSpace::PathStatus::kInformative:
          informative.push_back(i);
          break;
      }
    }
    if (informative.empty()) break;

    size_t chosen = informative[0];
    if (options.strategy == rlearn::JoinStrategy::kRandom) {
      chosen = informative[rng.Uniform(informative.size())];
    } else {
      // Split-half scoring against the surviving hypothesis pairs.
      const PairMask theta = vs.most_specific().front();
      long best_score = -1;
      for (size_t i : informative) {
        const PairMask kept_pairs =
            theta & universe.AgreeMask(left.row(candidates[i].left_row),
                                       right.row(candidates[i].right_row));
        const int total = std::popcount(theta);
        const int kept = std::popcount(kept_pairs);
        const long score = rlearn::SplitHalfScore(total, kept);
        if (score > best_score) {
          best_score = score;
          chosen = i;
        }
      }
    }

    const PairExample& q = candidates[chosen];
    bool answer = crowd.Ask(left.row(q.left_row), right.row(q.right_row),
                            &result.ledger);
    ++result.questions;
    settled[chosen] = true;

    // Tentatively keep the answer; on conflict, escalate with a bigger
    // majority, then drop it — the paper's "ignore some annotations".
    Answer kept{q, answer};
    answers.push_back(kept);
    vs = BuildSpace(chain, answers);
    int escalations_left = options.max_escalations;
    while (!vs.Consistent() && escalations_left-- > 0) {
      ++result.escalations;
      answers.pop_back();
      kept.positive = crowd.AskReplicated(
          left.row(q.left_row), right.row(q.right_row),
          options.escalation_replication, &result.ledger);
      answers.push_back(kept);
      vs = BuildSpace(chain, answers);
    }
    if (!vs.Consistent()) {
      answers.pop_back();
      ++result.dropped_answers;
      vs = BuildSpace(chain, answers);
    }
  }

  result.learned = vs.most_specific().front();
  result.total_cost = result.ledger.Total(options.cost);

  // Ground-truth audit over every pair (including filtered ones).
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
