#include "rlearn/chain_learner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <unordered_map>

namespace qlearn {
namespace rlearn {

using common::Result;
using common::Status;
using relational::Value;
using relational::ValueType;

namespace {

/// Hash consistent with Value::EqualsSql on non-NULL, non-NaN cells:
/// -0.0 and 0.0 are equal there, so both hash as 0.0.
struct SqlValueHash {
  size_t operator()(const Value* v) const {
    if (v->type() == ValueType::kDouble && v->AsDouble() == 0.0) {
      return std::hash<double>{}(0.0);
    }
    return v->Hash();
  }
};

struct SqlValueEqual {
  bool operator()(const Value* a, const Value* b) const {
    return a->EqualsSql(*b);
  }
};

}  // namespace

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
  chain.InternCells();
  return chain;
}

JoinChain JoinChain::ForJoin(const PairUniverse& universe,
                             const relational::Relation* left,
                             const relational::Relation* right) {
  JoinChain chain;
  chain.relations_ = {left, right};
  chain.universes_.push_back(universe);
  chain.InternCells();
  return chain;
}

void JoinChain::InternCells() {
  // One id space for the whole chain: cells equal under EqualsSql share an
  // id. NULL equals nothing and NaN not even itself, so such a cell takes
  // a fresh id no other cell has.
  std::unordered_map<const Value*, uint32_t, SqlValueHash, SqlValueEqual> ids;
  uint32_t next = 0;
  auto id_of = [&](const Value& v) {
    if (v.is_null() ||
        (v.type() == ValueType::kDouble && std::isnan(v.AsDouble()))) {
      return next++;
    }
    const auto [it, inserted] = ids.try_emplace(&v, next);
    if (inserted) ++next;
    return it->second;
  };
  edge_ids_.resize(universes_.size());
  // Counting-sort scratch, indexed by id and reset after each pair.
  std::vector<uint32_t> run_end, run_count, used;
  for (size_t e = 0; e < universes_.size(); ++e) {
    const std::vector<relational::AttributePair>& pairs = universes_[e].pairs();
    const relational::Relation& left = *relations_[e];
    const relational::Relation& right = *relations_[e + 1];
    EdgeIds& out = edge_ids_[e];
    out.left.resize(left.size() * pairs.size());
    out.right.resize(right.size() * pairs.size());
    for (size_t row = 0; row < left.size(); ++row) {
      for (size_t i = 0; i < pairs.size(); ++i) {
        out.left[row * pairs.size() + i] = id_of(left.row(row)[pairs[i].left]);
      }
    }
    for (size_t row = 0; row < right.size(); ++row) {
      for (size_t i = 0; i < pairs.size(); ++i) {
        out.right[row * pairs.size() + i] =
            id_of(right.row(row)[pairs[i].right]);
      }
    }
    run_end.resize(next, 0);
    run_count.resize(next, 0);
    // Per pair, the right rows grouped by id (a counting sort over the ids
    // the pair's right cells use), and each left cell's run of equal ids.
    out.right_by_id.resize(pairs.size() * right.size());
    out.left_match.resize(left.size() * pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      used.clear();
      for (size_t row = 0; row < right.size(); ++row) {
        const uint32_t id = out.right[row * pairs.size() + i];
        if (run_count[id]++ == 0) used.push_back(id);
      }
      // run_end[id] starts at the run's first slot and ends one past its
      // last, after the fill.
      uint32_t begin = 0;
      for (uint32_t id : used) {
        run_end[id] = begin;
        begin += run_count[id];
      }
      uint32_t* run = out.right_by_id.data() + i * right.size();
      for (size_t row = 0; row < right.size(); ++row) {
        const uint32_t id = out.right[row * pairs.size() + i];
        run[run_end[id]++] = static_cast<uint32_t>(row);
      }
      for (size_t row = 0; row < left.size(); ++row) {
        const uint32_t id = out.left[row * pairs.size() + i];
        out.left_match[row * pairs.size() + i] = {run_end[id] - run_count[id],
                                                  run_end[id]};
      }
      for (uint32_t id : used) run_end[id] = run_count[id] = 0;
    }
  }
}

void JoinChain::AgreeRow(size_t edge, size_t left, PairMask* out) const {
  const EdgeIds& ids = edge_ids_[edge];
  const size_t width = universes_[edge].size();
  const size_t right_rows = relations_[edge + 1]->size();
  std::fill(out, out + right_rows, PairMask{0});
  for (size_t i = 0; i < width; ++i) {
    const uint32_t* run = ids.right_by_id.data() + i * right_rows;
    const auto [begin, end] = ids.left_match[left * width + i];
    for (uint32_t j = begin; j < end; ++j) out[run[j]] |= PairMask{1} << i;
  }
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
  for (size_t e = 0; e < most_specific_.size(); ++e) {
    negative_agreements_.push_back(chain_->AgreeOn(e, example.rows));
  }
}

bool ChainVersionSpace::Consistent() const {
  for (PairMask m : most_specific_) {
    if (m == 0) return false;  // some edge has no non-empty hypothesis left
  }
  for (size_t i = 0, n = num_negatives(); i < n; ++i) {
    const PairMask* neg = negative(i);
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
  std::vector<PairMask> agree(most_specific_.size());
  for (size_t e = 0; e < agree.size(); ++e) {
    agree[e] = chain_->AgreeOn(e, example.rows);
  }
  return ClassifyAgreements(agree);
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
  for (size_t i = 0, n = num_negatives(); i < n; ++i) {
    const PairMask* neg = negative(i);
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

EquiJoinConsistency CheckEquiJoinConsistency(
    const PairUniverse& universe, const relational::Relation& left,
    const relational::Relation& right,
    const std::vector<PairExample>& positives,
    const std::vector<PairExample>& negatives) {
  // The one-edge chain over only the rows the examples name: interning
  // both whole relations would cost far more than the examples themselves.
  // Each named row is copied once into a sub-relation, in order of first
  // mention, and the examples are renumbered onto the copies.
  constexpr size_t kUnnamed = static_cast<size_t>(-1);
  relational::Relation named_left(left.schema());
  relational::Relation named_right(right.schema());
  std::vector<size_t> left_slot(left.size(), kUnnamed);
  std::vector<size_t> right_slot(right.size(), kUnnamed);
  auto slot_of = [](const relational::Relation& from, size_t row,
                    std::vector<size_t>* slots, relational::Relation* to) {
    size_t& slot = (*slots)[row];
    if (slot == kUnnamed) {
      slot = to->size();
      to->InsertUnchecked(from.row(row));
    }
    return slot;
  };
  auto paths = [&](const std::vector<PairExample>& pairs) {
    std::vector<ChainExample> out;
    out.reserve(pairs.size());
    for (const PairExample& p : pairs) {
      out.push_back(ChainExample{
          {slot_of(left, p.left_row, &left_slot, &named_left),
           slot_of(right, p.right_row, &right_slot, &named_right)}});
    }
    return out;
  };
  const std::vector<ChainExample> positive_paths = paths(positives);
  const std::vector<ChainExample> negative_paths = paths(negatives);
  const JoinChain chain =
      JoinChain::ForJoin(universe, &named_left, &named_right);
  const ChainConsistency chained =
      CheckChainConsistency(chain, positive_paths, negative_paths);
  EquiJoinConsistency out;
  out.consistent = chained.consistent;
  if (out.consistent) out.most_specific = chained.most_specific.front();
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
