// Learning equi-join (and natural-join) predicates from labeled tuple
// pairs. Consistency here is PTIME — the paper's Section-3 tractability
// claim — via the most-specific-hypothesis argument: with
// θ* = ⋂_{positives} Eq(r,s), a consistent hypothesis exists iff θ* is
// non-empty and no negative example satisfies θ*.
#ifndef QLEARN_RLEARN_EQUIJOIN_LEARNER_H_
#define QLEARN_RLEARN_EQUIJOIN_LEARNER_H_

#include <optional>
#include <vector>

#include "common/status.h"
#include "rlearn/join_hypothesis.h"

namespace qlearn {
namespace rlearn {

/// One labeled example: the (left-row, right-row) index pair.
struct PairExample {
  size_t left_row;
  size_t right_row;
};

/// Outcome of the PTIME consistency check.
struct EquiJoinConsistency {
  bool consistent = false;
  /// Most specific consistent hypothesis when consistent.
  PairMask most_specific = 0;
};

/// Version space of equi-join hypotheses: the interval between the most
/// specific hypothesis θ* and its subsets that still exclude all negatives.
class EquiJoinVersionSpace {
 public:
  EquiJoinVersionSpace(const PairUniverse* universe,
                       const relational::Relation* left,
                       const relational::Relation* right);

  /// Incorporates a labeled example.
  void AddPositive(const PairExample& example);
  void AddNegative(const PairExample& example);

  /// θ*: intersection of the positives' agree-masks (full mask initially).
  PairMask most_specific() const { return most_specific_; }

  /// PTIME consistency of everything added so far.
  bool Consistent() const;

  /// Classification of an unlabeled pair by the whole version space:
  /// forced-positive (every consistent hypothesis selects it),
  /// forced-negative (none does), or informative.
  enum class PairStatus { kForcedPositive, kForcedNegative, kInformative };
  PairStatus Classify(const PairExample& example) const;

  const PairUniverse& universe() const { return *universe_; }
  size_t num_positives() const { return num_positives_; }
  size_t num_negatives() const { return negative_masks_.size(); }

 private:
  PairMask Agree(const PairExample& e) const;

  const PairUniverse* universe_;
  const relational::Relation* left_;
  const relational::Relation* right_;
  PairMask most_specific_;
  std::vector<PairMask> negative_masks_;
  size_t num_positives_ = 0;
};

/// One-shot PTIME consistency check for a labeled sample.
EquiJoinConsistency CheckEquiJoinConsistency(
    const PairUniverse& universe, const relational::Relation& left,
    const relational::Relation& right, const std::vector<PairExample>& positives,
    const std::vector<PairExample>& negatives);

}  // namespace rlearn
}  // namespace qlearn

#endif  // QLEARN_RLEARN_EQUIJOIN_LEARNER_H_
