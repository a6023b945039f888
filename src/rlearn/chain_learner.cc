#include "rlearn/chain_learner.h"

#include <bit>
#include <cstdint>

namespace qlearn {
namespace rlearn {

using common::Result;
using common::Status;

Result<JoinChain> JoinChain::Create(
    std::vector<const relational::Relation*> relations) {
  if (relations.size() < 2) {
    return Status::InvalidArgument("a join chain needs at least 2 relations");
  }
  JoinChain chain;
  chain.relations_ = std::move(relations);
  for (size_t i = 0; i + 1 < chain.relations_.size(); ++i) {
    QLEARN_ASSIGN_OR_RETURN(
        PairUniverse u,
        PairUniverse::AllCompatible(chain.relations_[i]->schema(),
                                    chain.relations_[i + 1]->schema()));
    if (u.size() == 0) {
      return Status::InvalidArgument(
          "no compatible attribute pairs between chain relations " +
          std::to_string(i) + " and " + std::to_string(i + 1));
    }
    chain.universes_.push_back(std::move(u));
  }
  return chain;
}

JoinChain JoinChain::ForJoin(const PairUniverse& universe,
                             const relational::Relation* left,
                             const relational::Relation* right) {
  JoinChain chain;
  chain.relations_ = {left, right};
  chain.universes_.push_back(universe);
  return chain;
}

PairMask JoinChain::AgreeOn(size_t edge,
                            const std::vector<size_t>& rows) const {
  return universes_[edge].AgreeMask(relations_[edge]->row(rows[edge]),
                                    relations_[edge + 1]->row(rows[edge + 1]));
}

namespace {

template <typename PairPredicate>
ChainMask ChainGoalByName(const JoinChain& chain, PairPredicate keep) {
  ChainMask goal;
  goal.reserve(chain.num_edges());
  for (size_t e = 0; e < chain.num_edges(); ++e) {
    const PairUniverse& universe = chain.universe(e);
    const auto& left = chain.relation(e).schema().attributes();
    const auto& right = chain.relation(e + 1).schema().attributes();
    PairMask mask = 0;
    for (size_t i = 0; i < universe.size(); ++i) {
      const relational::AttributePair& p = universe.pairs()[i];
      if (keep(left[p.left].name, right[p.right].name)) mask |= (1ULL << i);
    }
    goal.push_back(mask);
  }
  return goal;
}

}  // namespace

ChainMask NamePairChainGoal(const JoinChain& chain,
                            const std::string& left_attr,
                            const std::string& right_attr) {
  return ChainGoalByName(chain,
                         [&](const std::string& l, const std::string& r) {
                           return l == left_attr && r == right_attr;
                         });
}

ChainMask NaturalChainGoal(const JoinChain& chain) {
  return ChainGoalByName(
      chain, [](const std::string& l, const std::string& r) { return l == r; });
}

bool ChainSatisfied(const JoinChain& chain, const ChainMask& hypothesis,
                    const ChainExample& example) {
  for (size_t e = 0; e < chain.num_edges(); ++e) {
    if (!MaskSatisfied(hypothesis[e], chain.AgreeOn(e, example.rows))) {
      return false;
    }
  }
  return true;
}

ChainVersionSpace::ChainVersionSpace(const JoinChain* chain) : chain_(chain) {
  most_specific_.reserve(chain->num_edges());
  for (size_t e = 0; e < chain->num_edges(); ++e) {
    most_specific_.push_back(chain->universe(e).FullMask());
  }
}

std::vector<PairMask> ChainVersionSpace::Agreements(
    const ChainExample& e) const {
  std::vector<PairMask> agree(chain_->num_edges());
  for (size_t edge = 0; edge < chain_->num_edges(); ++edge) {
    agree[edge] = chain_->AgreeOn(edge, e.rows);
  }
  return agree;
}

bool ChainVersionSpace::AddPositive(const ChainExample& example) {
  bool shrank = false;
  for (size_t e = 0; e < most_specific_.size(); ++e) {
    const PairMask kept =
        most_specific_[e] & chain_->AgreeOn(e, example.rows);
    shrank |= kept != most_specific_[e];
    most_specific_[e] = kept;
  }
  ++num_positives_;
  return shrank;
}

void ChainVersionSpace::AddNegative(const ChainExample& example) {
  negative_agreements_.push_back(Agreements(example));
}

bool ChainVersionSpace::Consistent() const {
  for (PairMask m : most_specific_) {
    if (m == 0) return false;  // some edge has no non-empty hypothesis left
  }
  for (const std::vector<PairMask>& neg : negative_agreements_) {
    bool selected = true;
    for (size_t e = 0; e < most_specific_.size(); ++e) {
      if (!MaskSatisfied(most_specific_[e], neg[e])) {
        selected = false;
        break;
      }
    }
    if (selected) return false;  // θ* itself selects a negative
  }
  return true;
}

ChainVersionSpace::PathStatus ChainVersionSpace::Classify(
    const ChainExample& example) const {
  return ClassifyAgreements(Agreements(example));
}

ChainVersionSpace::PathStatus ChainVersionSpace::ClassifyAgreements(
    const std::vector<PairMask>& agree) const {
  // Forced positive: the most specific hypothesis vector selects the path,
  // hence so does every edge-wise subset in the version space.
  bool theta_star_selects = true;
  for (size_t e = 0; e < most_specific_.size(); ++e) {
    if (!MaskSatisfied(most_specific_[e], agree[e])) {
      theta_star_selects = false;
      break;
    }
  }
  if (theta_star_selects) return PathStatus::kForcedPositive;

  // Some consistent hypothesis selects the path iff the edge-wise maximal
  // candidate A_e = θ*_e ∩ agree_e is non-empty everywhere and excludes
  // every negative (shrinking any edge only makes exclusion harder).
  for (size_t e = 0; e < most_specific_.size(); ++e) {
    if ((most_specific_[e] & agree[e]) == 0) {
      return PathStatus::kForcedNegative;
    }
  }
  for (const std::vector<PairMask>& neg : negative_agreements_) {
    bool selected = true;
    for (size_t e = 0; e < most_specific_.size(); ++e) {
      if (!MaskSatisfied(most_specific_[e] & agree[e], neg[e])) {
        selected = false;
        break;
      }
    }
    if (selected) return PathStatus::kForcedNegative;
  }
  return PathStatus::kInformative;
}

ChainConsistency CheckChainConsistency(
    const JoinChain& chain, const std::vector<ChainExample>& positives,
    const std::vector<ChainExample>& negatives) {
  ChainVersionSpace vs(&chain);
  for (const ChainExample& p : positives) vs.AddPositive(p);
  for (const ChainExample& n : negatives) vs.AddNegative(n);
  ChainConsistency out;
  out.consistent = vs.Consistent();
  if (out.consistent) out.most_specific = vs.most_specific();
  return out;
}

std::vector<ChainExample> EvaluateChain(const JoinChain& chain,
                                        const ChainMask& hypothesis,
                                        size_t limit) {
  // Depth-first nested-loop expansion in row-major order. Depth-first
  // (rather than one frontier per edge) avoids materializing intermediate
  // frontiers exponentially larger than a capped result on permissive
  // chains. Per-edge satisfaction is cached as lazy bitset rows — bit j of
  // row (e, i) says rows i⋈j satisfy hypothesis[e] — so revisiting a
  // prefix (every left row beyond depth 1) advances by bit-scan instead of
  // re-running AgreeOn per (prefix, j) pair. A row is computed at most
  // once, on first descent through its left row; memory beyond the emitted
  // paths is O(visited left rows × right rows / 64).
  std::vector<ChainExample> out;
  const size_t length = chain.length();
  struct EdgeRows {
    size_t right_size = 0;
    size_t words = 0;
    std::vector<uint64_t> bits;     // left_size × words, lazily filled
    std::vector<uint8_t> computed;  // per left row
  };
  std::vector<EdgeRows> sat(chain.num_edges());
  for (size_t e = 0; e < chain.num_edges(); ++e) {
    sat[e].right_size = chain.relation(e + 1).size();
    sat[e].words = (sat[e].right_size + 63) / 64;
    sat[e].bits.assign(chain.relation(e).size() * sat[e].words, 0);
    sat[e].computed.assign(chain.relation(e).size(), 0);
  }
  // rows is the current partial path; rows.back() is the next row index to
  // try in relation rows.size()-1.
  std::vector<size_t> rows(1, 0);
  while (!rows.empty()) {
    const size_t depth = rows.size() - 1;
    if (depth == 0) {
      if (rows[0] >= chain.relation(0).size()) break;
    } else {
      EdgeRows& edge = sat[depth - 1];
      const size_t left = rows[depth - 1];
      uint64_t* row = edge.bits.data() + left * edge.words;
      if (!edge.computed[left]) {
        const size_t save = rows[depth];
        for (size_t j = 0; j < edge.right_size; ++j) {
          rows[depth] = j;
          if (MaskSatisfied(hypothesis[depth - 1],
                            chain.AgreeOn(depth - 1, rows))) {
            row[j / 64] |= 1ULL << (j % 64);
          }
        }
        rows[depth] = save;
        edge.computed[left] = 1;
      }
      // Advance to the next satisfying right row (identical visit order to
      // the historical one-at-a-time mask tests).
      size_t w = rows[depth] / 64;
      uint64_t word =
          w < edge.words ? row[w] & (~0ULL << (rows[depth] % 64)) : 0;
      while (word == 0 && ++w < edge.words) word = row[w];
      if (word == 0) {
        rows.pop_back();
        ++rows.back();
        continue;
      }
      rows[depth] = w * 64 + static_cast<size_t>(std::countr_zero(word));
    }
    if (depth + 1 == length) {
      out.push_back(ChainExample{rows});
      if (limit != 0 && out.size() >= limit) return out;
      ++rows[depth];
    } else {
      rows.push_back(0);
    }
  }
  return out;
}

}  // namespace rlearn
}  // namespace qlearn
