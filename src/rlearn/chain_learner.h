// Learning chains of equi-joins R1 ⋈ R2 ⋈ … ⋈ Rk — the extension the paper
// announces in Section 3 ("we want to extend our approach to other operators
// and also to chains of joins between many relations").
//
// A chain hypothesis fixes one non-empty set of attribute pairs per adjacent
// relation pair; a tuple path (t1,…,tk) satisfies it iff every edge's pairs
// agree. The tractability of the single-join case generalizes: with
// θ*_i = ⋂_{positives} Agree_i, the examples are consistent iff every θ*_i
// is non-empty and no negative path satisfies the whole vector θ* — still
// PTIME. A single join is the one-edge chain (JoinChain::ForJoin), so the
// equi-join consistency check is this one too. The interactive protocol
// (uninformative-path propagation) lives in rlearn/interactive_chain.h as
// ChainEngine over this version space.
#ifndef QLEARN_RLEARN_CHAIN_LEARNER_H_
#define QLEARN_RLEARN_CHAIN_LEARNER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relational/relation.h"
#include "rlearn/join_hypothesis.h"

namespace qlearn {
namespace rlearn {

/// A chain of k relations with k-1 pair universes between neighbours.
///
/// The chain interns every cell its universes compare once, at
/// construction, into ids that are equal iff the cells are equal under
/// Value::EqualsSql (a NULL or NaN cell gets an id of its own, so it
/// matches nothing). AgreeOn then compares integers, not variants. The
/// relations must therefore not change while the chain is alive.
class JoinChain {
 public:
  /// Builds a chain over `relations` (not owned, must outlive the chain and
  /// stay unchanged) using all type-compatible pairs between each adjacent
  /// pair of schemas. Fails when fewer than two relations are given or some
  /// adjacent pair has no compatible attributes.
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

  /// Agreement mask of a path on one edge: bit i set iff the path's rows
  /// agree on universe pair i (PairUniverse::AgreeMask, from interned ids).
  PairMask AgreeOn(size_t edge, const std::vector<size_t>& rows) const {
    const EdgeIds& ids = edge_ids_[edge];
    const size_t width = universes_[edge].size();
    const uint32_t* l = ids.left.data() + rows[edge] * width;
    const uint32_t* r = ids.right.data() + rows[edge + 1] * width;
    PairMask mask = 0;
    for (size_t i = 0; i < width; ++i) {
      mask |= static_cast<PairMask>(l[i] == r[i]) << i;
    }
    return mask;
  }
  /// Agreement masks of row `left` of relation `edge` with every row of
  /// relation `edge + 1`: out[r] is AgreeOn's mask for that row pair. It
  /// visits only the agreeing cells, so it costs |R_{edge+1}| plus the
  /// number of agreements rather than |R_{edge+1}| · |U|.
  void AgreeRow(size_t edge, size_t left, PairMask* out) const;

 private:
  /// Interned cells of one edge, row-major with one column per universe
  /// pair: left[row * |U| + i] is the id of the pair-i left attribute of
  /// that row of relation `edge`, right[...] likewise for relation
  /// `edge + 1`.
  struct EdgeIds {
    std::vector<uint32_t> left;
    std::vector<uint32_t> right;
    /// Pair i's run right_by_id[i * |R| .. (i + 1) * |R|) lists the rows of
    /// relation `edge + 1` grouped by their pair-i id.
    std::vector<uint32_t> right_by_id;
    /// left_match[row * |U| + i] = the [begin, end) of pair i's run holding
    /// the right rows whose pair-i id equals that left row's.
    std::vector<std::pair<uint32_t, uint32_t>> left_match;
  };

  /// Fills edge_ids_ from the relations and universes.
  void InternCells();

  std::vector<const relational::Relation*> relations_;
  std::vector<PairUniverse> universes_;
  std::vector<EdgeIds> edge_ids_;
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
  size_t num_negatives() const {
    return negative_agreements_.size() / most_specific_.size();
  }
  /// Per-edge agreement masks of the i-th negative in arrival order: one
  /// mask per chain edge.
  const PairMask* negative(size_t i) const {
    return negative_agreements_.data() + i * most_specific_.size();
  }
  /// Every negative's per-edge masks, edge-strided: negative i's mask on
  /// edge e is at i * num_edges + e.
  const std::vector<PairMask>& negative_agreements() const {
    return negative_agreements_;
  }

  /// Hibernation restore: overwrites the accumulated state with a
  /// snapshot's (`negatives` edge-strided, as negative_agreements()). The
  /// caller (ChainEngine::RestoreSnapshot) owns validation.
  void RestoreState(ChainMask most_specific, std::vector<PairMask> negatives,
                    size_t num_positives) {
    most_specific_ = std::move(most_specific);
    negative_agreements_ = std::move(negatives);
    num_positives_ = num_positives;
  }

 private:
  const JoinChain* chain_;
  ChainMask most_specific_;
  /// One flat edge-strided array, so a negative answer appends in place.
  std::vector<PairMask> negative_agreements_;
  size_t num_positives_ = 0;
};

/// One-shot consistency check for a labeled sample of paths.
ChainConsistency CheckChainConsistency(
    const JoinChain& chain, const std::vector<ChainExample>& positives,
    const std::vector<ChainExample>& negatives);

/// One labeled example of a single join left ⋈ right: the (left-row,
/// right-row) index pair, i.e. the path {left_row, right_row} of the
/// one-edge chain JoinChain::ForJoin.
struct PairExample {
  size_t left_row;
  size_t right_row;
};

/// Outcome of the PTIME equi-join consistency check.
struct EquiJoinConsistency {
  bool consistent = false;
  /// Most specific consistent hypothesis when consistent.
  PairMask most_specific = 0;
};

/// One-shot consistency check for a labeled sample of tuple pairs: the
/// paper's Section-3 tractability claim. With θ* = ⋂_{positives} Eq(r,s),
/// a consistent hypothesis exists iff θ* is non-empty and no negative
/// satisfies θ* — CheckChainConsistency over the one-edge chain.
EquiJoinConsistency CheckEquiJoinConsistency(
    const PairUniverse& universe, const relational::Relation& left,
    const relational::Relation& right, const std::vector<PairExample>& positives,
    const std::vector<PairExample>& negatives);

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
