// Learning chains of equi-joins R1 ⋈ R2 ⋈ … ⋈ Rk — the extension the paper
// announces in Section 3 ("we want to extend our approach to other operators
// and also to chains of joins between many relations").
//
// A chain hypothesis fixes one non-empty set of attribute pairs per adjacent
// relation pair; a tuple path (t1,…,tk) satisfies it iff every edge's pairs
// agree. The tractability of the single-join case generalizes: with
// θ*_i = ⋂_{positives} Agree_i, the examples are consistent iff every θ*_i
// is non-empty and no negative path satisfies the whole vector θ* — still
// PTIME. The interactive protocol (uninformative-path propagation) lives in
// rlearn/interactive_chain.h as ChainEngine over this version space.
#ifndef QLEARN_RLEARN_CHAIN_LEARNER_H_
#define QLEARN_RLEARN_CHAIN_LEARNER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "relational/relation.h"
#include "rlearn/join_hypothesis.h"

namespace qlearn {
namespace rlearn {

/// A chain of k relations with k-1 pair universes between neighbours.
class JoinChain {
 public:
  /// Builds a chain over `relations` (not owned, must outlive the chain)
  /// using all type-compatible pairs between each adjacent pair of schemas.
  /// Fails when fewer than two relations are given or some adjacent pair
  /// has no compatible attributes.
  static common::Result<JoinChain> Create(
      std::vector<const relational::Relation*> relations);
  /// The one-edge chain left ⋈ right over the caller's (non-empty) pair
  /// universe, which is copied so edge 0's masks use its bit order.
  static JoinChain ForJoin(const PairUniverse& universe,
                           const relational::Relation* left,
                           const relational::Relation* right);

  size_t length() const { return relations_.size(); }
  size_t num_edges() const { return universes_.size(); }
  const relational::Relation& relation(size_t i) const {
    return *relations_[i];
  }
  const PairUniverse& universe(size_t edge) const { return universes_[edge]; }

  /// Agreement mask of a path on one edge.
  PairMask AgreeOn(size_t edge, const std::vector<size_t>& rows) const;

 private:
  std::vector<const relational::Relation*> relations_;
  std::vector<PairUniverse> universes_;
};

/// A hypothesis: one non-empty mask per chain edge.
using ChainMask = std::vector<PairMask>;

/// Goal mask selecting, on every edge, the pairs (left_attr, right_attr)
/// by attribute name — e.g. ("fk", "key") for the generated FK chains. An
/// edge without such a pair gets an empty mask.
ChainMask NamePairChainGoal(const JoinChain& chain,
                            const std::string& left_attr,
                            const std::string& right_attr);

/// Goal mask selecting, on every edge, the name-equal attribute pairs (the
/// natural-join goal, e.g. customers.cid=orders.cid).
ChainMask NaturalChainGoal(const JoinChain& chain);

/// One labeled example: row indexes, one per chain relation.
struct ChainExample {
  std::vector<size_t> rows;
};

/// True iff the path's agreement satisfies every edge mask.
bool ChainSatisfied(const JoinChain& chain, const ChainMask& hypothesis,
                    const ChainExample& example);

/// Outcome of the PTIME chain consistency check.
struct ChainConsistency {
  bool consistent = false;
  /// Edge-wise most specific hypothesis when consistent.
  ChainMask most_specific;
};

/// Version space of chain hypotheses (edge-wise subset interval around θ*,
/// negatives shared across edges).
class ChainVersionSpace {
 public:
  explicit ChainVersionSpace(const JoinChain* chain);

  /// Intersects every edge's θ* with the example's agreement; true iff some
  /// edge's θ* shrank.
  bool AddPositive(const ChainExample& example);
  void AddNegative(const ChainExample& example);

  const ChainMask& most_specific() const { return most_specific_; }

  /// PTIME consistency of everything added so far: every edge's θ* is
  /// non-empty and no negative satisfies the whole θ* vector.
  bool Consistent() const;

  enum class PathStatus { kForcedPositive, kForcedNegative, kInformative };
  /// Classification of an unlabeled path by the entire version space.
  PathStatus Classify(const ChainExample& example) const;
  /// Classify for a path given by its per-edge agreement masks; allocates
  /// nothing, so a caller classifying many paths reuses one mask buffer.
  PathStatus ClassifyAgreements(const std::vector<PairMask>& agree) const;

  const JoinChain& chain() const { return *chain_; }
  size_t num_positives() const { return num_positives_; }
  size_t num_negatives() const { return negative_agreements_.size(); }
  /// Per-edge agreement masks of the negatives, in arrival order (the
  /// delta propagation layer classifies witness buckets against them).
  const std::vector<std::vector<PairMask>>& negative_agreements() const {
    return negative_agreements_;
  }

  /// Hibernation restore: overwrites the accumulated state with a
  /// snapshot's. The caller (ChainEngine::RestoreSnapshot) owns validation.
  void RestoreState(ChainMask most_specific,
                    std::vector<std::vector<PairMask>> negatives,
                    size_t num_positives) {
    most_specific_ = std::move(most_specific);
    negative_agreements_ = std::move(negatives);
    num_positives_ = num_positives;
  }

 private:
  std::vector<PairMask> Agreements(const ChainExample& e) const;

  const JoinChain* chain_;
  ChainMask most_specific_;
  std::vector<std::vector<PairMask>> negative_agreements_;
  size_t num_positives_ = 0;
};

/// One-shot consistency check for a labeled sample of paths.
ChainConsistency CheckChainConsistency(
    const JoinChain& chain, const std::vector<ChainExample>& positives,
    const std::vector<ChainExample>& negatives);

/// Materializes the chain join under `hypothesis`: all row-index paths
/// satisfying every edge mask, in row-major order. `limit` caps the result
/// (0 = unlimited); the expansion is depth-first, so memory stays
/// O(chain length) beyond the returned paths even when intermediate edges
/// are fully permissive.
std::vector<ChainExample> EvaluateChain(const JoinChain& chain,
                                        const ChainMask& hypothesis,
                                        size_t limit = 0);

}  // namespace rlearn
}  // namespace qlearn

#endif  // QLEARN_RLEARN_CHAIN_LEARNER_H_
