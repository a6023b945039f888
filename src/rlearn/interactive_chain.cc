#include "rlearn/interactive_chain.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <limits>
#include <utility>

#include "rlearn/mask_scoring.h"

namespace qlearn {
namespace rlearn {

using common::Result;
using common::Status;

namespace {

/// "QLCE" little-endian: the relational-engine snapshot blob tag. Version
/// 4 records the class and plane counts in its header and carries no
/// candidate-store segment (the constructor rebuilds the planes); earlier
/// versions, which end in one, are rejected.
constexpr uint32_t kChainEngineMagic = 0x45434C51u;
constexpr uint32_t kChainEngineVersion = 4;

/// min(cap, |R_1| · … · |R_k|): the length of the capped row-major prefix
/// of the chain's tuple paths.
size_t CandidateCount(const JoinChain& chain, size_t cap) {
  size_t count = 1;
  for (size_t i = 0; i < chain.length(); ++i) {
    const size_t size = chain.relation(i).size();
    if (size == 0) return 0;
    count = count > cap / size ? cap : count * size;
  }
  return std::min(count, cap);
}

/// Interns 64-bit keys into dense ids in order of first appearance: an
/// open-addressing table of 4-byte ids, at most half full, over the
/// distinct keys, which are kept in id order. The table doubles when it
/// would pass half full and the key list is reserved to match, so a
/// distinct key costs 8 bytes plus 8 to 16 bytes of table, and a growth
/// frees one table and one key list. (Wider slots or a sparser table
/// cost a join's first question extra page faults.)
class WordInterner {
 public:
  WordInterner() { Resize(kMinSlotsLog2); }

  uint32_t Intern(uint64_t key) {
    if (2 * (keys_.size() + 1) > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    size_t slot = SlotOf(key);
    for (uint32_t id; (id = slots_[slot]) != kEmpty;
         slot = (slot + 1) & mask) {
      if (keys_[id] == key) return id;
    }
    const uint32_t id = static_cast<uint32_t>(keys_.size());
    keys_.push_back(key);
    slots_[slot] = id;
    return id;
  }

  size_t size() const { return keys_.size(); }
  uint64_t key(uint32_t id) const { return keys_[id]; }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  static constexpr int kMinSlotsLog2 = 6;

  /// Fibonacci hashing: the top bits of key * 2^64/φ.
  size_t SlotOf(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// Empties the table to 2^slots_log2 slots; keys stay.
  void Resize(int slots_log2) {
    shift_ = 64 - slots_log2;
    slots_.assign(size_t{1} << slots_log2, kEmpty);
    keys_.reserve(slots_.size() / 2);
  }

  void Grow() {
    Resize(65 - shift_);
    const size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < keys_.size(); ++id) {
      size_t slot = SlotOf(keys_[id]);
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = id;
    }
  }

  std::vector<uint32_t> slots_;
  int shift_ = 64;
  std::vector<uint64_t> keys_;
};

/// Two 32-bit ids packed into one interner key.
uint64_t PairKey(uint64_t high, uint64_t low) {
  assert(high <= std::numeric_limits<uint32_t>::max() &&
         low <= std::numeric_limits<uint32_t>::max());
  return high << 32 | low;
}

/// One edge's agreement masks as dense ids, a left row at a time: the
/// first Row(l) runs AgreeRow for row l of the edge's left relation and
/// interns its masks against every right row; later calls reread them.
class EdgeMaskIds {
 public:
  EdgeMaskIds(const JoinChain& chain, size_t edge)
      : chain_(&chain),
        edge_(edge),
        start_(chain.relation(edge).size(), kUnreached),
        agree_(chain.relation(edge + 1).size()) {}

  /// Ids of left row `left`'s masks, indexed by right row; valid until
  /// the next Row call.
  const uint32_t* Row(size_t left) {
    size_t& start = start_[left];
    if (start == kUnreached) {
      start = ids_.size();
      chain_->AgreeRow(edge_, left, agree_.data());
      for (PairMask m : agree_) ids_.push_back(masks_.Intern(m));
    }
    return ids_.data() + start;
  }

  PairMask mask(uint32_t id) const { return masks_.key(id); }

 private:
  static constexpr size_t kUnreached = std::numeric_limits<size_t>::max();

  const JoinChain* chain_;
  size_t edge_;
  WordInterner masks_;
  std::vector<size_t> start_;  // per left row: offset in ids_, or kUnreached
  std::vector<uint32_t> ids_;
  std::vector<PairMask> agree_;  // AgreeRow scratch
};

/// The mask classes of the first n paths of the row-major product: paths
/// with equal per-edge mask tuples share a class, and class ids follow
/// first appearance along the walk. With one edge, the edge's mask ids
/// are the classes. With more, the tuple of edges 0..e is the pair (tuple
/// of edges 0..e-1, edge e's mask id), interned level by level, so a path
/// costs one lookup per edge that moved rather than a hash of its whole
/// tuple.
class MaskClasses {
 public:
  MaskClasses(const JoinChain& chain, size_t n) : chain_(&chain) {
    class_of_.resize(n);
    if (chain.num_edges() == 1) {
      BuildOneEdge();
    } else {
      BuildFolded();
    }
  }

  size_t count() const { return classes_.size(); }
  /// Class of each path; leaves the builder without it.
  std::vector<uint32_t> TakeClassOf() { return std::move(class_of_); }

  /// Writes class c's mask on each edge e to masks[e], unfolding its key.
  void MasksOf(uint32_t c, PairMask* masks) const {
    uint64_t key = classes_.key(c);
    if (edge_ids_.empty()) {
      masks[0] = key;
      return;
    }
    const size_t edges = edge_ids_.size();
    masks[edges - 1] = edge_ids_[edges - 1].mask(static_cast<uint32_t>(key));
    for (size_t e = edges - 1; e-- > 1;) {
      key = folds_[e - 1].key(static_cast<uint32_t>(key >> 32));
      masks[e] = edge_ids_[e].mask(static_cast<uint32_t>(key));
    }
    masks[0] = edge_ids_[0].mask(static_cast<uint32_t>(key >> 32));
  }

 private:
  /// One edge: each left row's masks are interned straight into classes,
  /// up to the cap.
  void BuildOneEdge() {
    const size_t n = class_of_.size();
    std::vector<PairMask> agree(chain_->relation(1).size());
    for (size_t left = 0, k = 0; k < n; ++left) {
      chain_->AgreeRow(0, left, agree.data());
      const size_t len = std::min(agree.size(), n - k);
      for (size_t r = 0; r < len; ++r) {
        class_of_[k++] = classes_.Intern(agree[r]);
      }
    }
  }

  /// Two or more edges. A path's class depends only on its prefix tuple
  /// (every edge but the last) and the row where the last edge starts, so
  /// the run of classes over the last relation is built once per such
  /// pair and copied whenever the pair repeats.
  void BuildFolded() {
    const size_t n = class_of_.size();
    const size_t edges = chain_->num_edges();
    const size_t last = edges;  // the last relation's position
    const size_t width = chain_->relation(last).size();
    edge_ids_.reserve(edges);
    for (size_t e = 0; e < edges; ++e) edge_ids_.emplace_back(*chain_, e);
    folds_.resize(edges - 2);
    WordInterner runs;              // (prefix tuple id, second-to-last row)
    std::vector<size_t> run_start;  // per run: its first path
    std::vector<uint32_t> prefix(edges - 1);  // prefix[e]: tuple of 0..e
    std::vector<size_t> rows(last, 0);
    size_t moved = 0;  // lowest row position changed since the last run
    for (size_t k = 0; k < n;) {
      // Moving row i changes edges i - 1 and i.
      for (size_t e = moved == 0 ? 0 : moved - 1; e + 1 < edges; ++e) {
        const uint32_t id = edge_ids_[e].Row(rows[e])[rows[e + 1]];
        prefix[e] =
            e == 0 ? id : folds_[e - 1].Intern(PairKey(prefix[e - 1], id));
      }
      const uint32_t p = prefix[edges - 2];
      const size_t len = std::min(width, n - k);
      const size_t runs_before = runs.size();
      const uint32_t run = runs.Intern(PairKey(p, rows[last - 1]));
      if (run == runs_before) {
        run_start.push_back(k);
        const uint32_t* ids = edge_ids_[edges - 1].Row(rows[last - 1]);
        for (size_t r = 0; r < len; ++r) {
          class_of_[k + r] = classes_.Intern(PairKey(p, ids[r]));
        }
      } else {
        // Only the final run can be cut short, so a repeat copies a whole
        // run.
        std::copy_n(class_of_.begin() + run_start[run], len,
                    class_of_.begin() + k);
      }
      k += len;
      for (moved = last; moved > 0;) {
        --moved;
        if (++rows[moved] < chain_->relation(moved).size()) break;
        rows[moved] = 0;
      }
    }
  }

  const JoinChain* chain_;
  std::vector<uint32_t> class_of_;
  /// Keys: a mask (one edge), else (prefix tuple id, last edge's mask id).
  WordInterner classes_;
  std::vector<EdgeMaskIds> edge_ids_;  // per edge; empty for one edge
  /// folds_[e - 1] interns the tuples of edges 0..e, for 0 < e < edges - 1;
  /// the tuple of edge 0 alone is its mask id.
  std::vector<WordInterner> folds_;
};

}  // namespace

ChainEngine::ChainEngine(const JoinChain* chain,
                         const InteractiveChainOptions& options)
    : chain_(chain),
      strategy_(options.strategy),
      vs_(chain),
      last_consistent_(vs_.most_specific()) {
  const size_t n = CandidateCount(*chain, options.max_candidates);
  const size_t edges = chain->num_edges();
  size_t planes = 0;
  for (size_t e = 0; e < edges; ++e) {
    plane_base_.push_back(planes);
    planes += chain->universe(e).size();
  }
  // Paths with equal per-edge mask tuples are classified and scored
  // alike, so they share one frontier class. The builder's tables live
  // until the planes are filled; freeing them before the frontier
  // allocates its arrays measured more page faults per join.
  MaskClasses classes(*chain, n);
  frontier_.AddClassed(std::vector<std::monostate>(n), classes.TakeClassOf(),
                       classes.count());
  // Per-edge agreement masks go bit-transposed into the store, one slot
  // per class: plane plane_base_[e]+b = the classes agreeing on bit b of
  // edge e.
  store_.Reset(planes, classes.count());
  std::vector<PairMask> masks(edges);
  for (uint32_t c = 0; c < classes.count(); ++c) {
    classes.MasksOf(c, masks.data());
    for (size_t e = 0; e < edges; ++e) {
      for (PairMask m = masks[e]; m != 0; m &= m - 1) {
        store_.SetPlaneBit(
            plane_base_[e] + static_cast<size_t>(std::countr_zero(m)), c);
      }
    }
  }
}

std::optional<size_t> ChainEngine::IndexOf(const ChainExample& item) const {
  // Candidates are the row-major prefix of the full row product, so the
  // index is the mixed-radix value of the row vector. Malformed paths
  // (wrong arity, row out of range) and paths beyond the max_candidates
  // prefix have no candidate slot.
  if (item.rows.size() != chain_->length()) return std::nullopt;
  size_t index = 0;
  for (size_t i = 0; i < chain_->length(); ++i) {
    if (item.rows[i] >= chain_->relation(i).size()) return std::nullopt;
    index = index * chain_->relation(i).size() + item.rows[i];
  }
  if (index >= frontier_.size()) return std::nullopt;
  return index;
}

void ChainEngine::RowsOf(size_t k, std::vector<size_t>* rows) const {
  rows->resize(chain_->length());
  for (size_t i = chain_->length(); i-- > 0;) {
    const size_t size = chain_->relation(i).size();
    (*rows)[i] = k % size;
    k /= size;
  }
}

ChainExample ChainEngine::candidate(size_t k) const {
  ChainExample path;
  RowsOf(k, &path.rows);
  return path;
}

void ChainEngine::EnsureKeptCounts() {
  if (counts_valid_) return;
  const ChainMask& theta = vs_.most_specific();
  const size_t edges = chain_->num_edges();
  kept_counts_.resize(edges);
  totals_.resize(edges);
  for (size_t e = 0; e < edges; ++e) {
    store_.PlanePopcounts(plane_base_[e], theta[e], &kept_counts_[e]);
    totals_[e] = std::popcount(theta[e]);
  }
  counts_valid_ = true;
}

long ChainEngine::ScoreOf(size_t c, bool hunting) const {
  const long edges = static_cast<long>(kept_counts_.size());
  long total_kept = 0;
  long split = 0;
  for (size_t e = 0; e < kept_counts_.size(); ++e) {
    const int kept = kept_counts_[e][c];
    total_kept += kept;
    split += strategy_ == ChainStrategy::kLattice
                 ? LatticeProbeScore(totals_[e], kept)
                 : SplitHalfScore(totals_[e], kept);
  }
  if (strategy_ != ChainStrategy::kHuntThenSplit) return split;
  // The (primary, tie) pair in one long, ordered lexicographically: each
  // component sums per-edge scores in [-64, 64], so tie + 64·edges lies in
  // [0, 128·edges] and primary·(128·edges + 1) + that keeps the pair order.
  const long primary = hunting ? total_kept : split;
  const long tie = hunting ? split : total_kept;
  return primary * (128 * edges + 1) + tie + 64 * edges;
}

std::optional<ChainExample> ChainEngine::SelectQuestion(common::Rng* rng) {
  const std::optional<size_t> pick = SelectCandidate(rng);
  if (!pick.has_value()) return std::nullopt;
  return candidate(*pick);
}

std::optional<size_t> ChainEngine::SelectCandidate(common::Rng* rng) {
  if (strategy_ == ChainStrategy::kRandom) {
    return frontier_.Select(session::UniformRandomStrategy{}, rng);
  }
  // kSplitHalf and kLattice score every open path by its per-edge split (or
  // necessity-probe) scores. kHuntThenSplit runs in two phases. Until the
  // first positive arrives, ask the most plausible match (the candidate
  // keeping the most θ* pairs alive on every edge): a positive intersects
  // every edge's θ* at once and carries far more information than any
  // negative. Once θ* reflects a positive, switch to even-split probing of
  // the surviving pairs.
  //
  // The per-edge kept-counts depend only on θ*, which changes exactly on
  // positive answers — one bit-sliced popcount sweep per edge per change;
  // the greedy scorer is then a row of array reads.
  EnsureKeptCounts();
  const bool hunting = vs_.num_positives() == 0;
  return frontier_.Select(
      session::Greedy<long>(
          std::numeric_limits<long>::min(),
          [this, hunting](size_t c) -> std::optional<long> {
            return ScoreOf(c, hunting);
          }),
      rng);
}

void ChainEngine::MarkAsked(const ChainExample& item) {
  const std::optional<size_t> k = IndexOf(item);
  assert(k.has_value() && "asked path outside the enumerated candidates");
  if (!k.has_value()) return;
  frontier_.MarkAsked(*k);
}

void ChainEngine::Observe(const ChainExample& item, bool positive,
                          session::SessionStats* stats) {
  const std::optional<size_t> k = IndexOf(item);
  if (k.has_value()) frontier_.MarkLabeled(*k, positive);
  theta_advanced_ = false;
  if (positive) {
    theta_advanced_ = vs_.AddPositive(item);
    // θ* (and possibly the hunting phase) changed: memoized split scores
    // are stale. Negatives leave θ* untouched — nothing to invalidate.
    frontier_.InvalidateAll();
    if (theta_advanced_) counts_valid_ = false;
  } else {
    vs_.AddNegative(item);
  }
  if (vs_.Consistent()) {
    last_consistent_ = vs_.most_specific();
  } else {
    ++stats->conflicts;
    aborted_ = true;  // target outside the hypothesis space
  }
}

void ChainEngine::OnPositive(const ChainExample& /*item*/) {
  // A positive that covered every edge's θ* already (possible mid-batch)
  // leaves every classification unchanged.
  if (theta_advanced_) prop_.RecordHypothesisChange();
}

void ChainEngine::OnNegative(const ChainExample& /*item*/) {
  // Observe ran first, so the version space's newest negative agreement
  // vector is this path's (valid for slotless paths too — the version
  // space recomputes agreements itself).
  prop_.RecordNegative(vs_.num_negatives() - 1);
}

void ChainEngine::Propagate(session::SessionStats* stats) {
  if (reference_propagation_) {
    ReferencePropagate(stats);
    prop_.MarkFullPassDone();
  } else if (prop_.NeedsFullPass()) {
    FullPropagate(stats);
    prop_.MarkFullPassDone();
  } else {
    ApplyNegativeDeltas(stats);
  }
#ifndef NDEBUG
  AssertPropagationFixpoint();
#endif
}

ChainVersionSpace::PathStatus ChainEngine::ReferenceClassify(
    size_t k, std::vector<size_t>* rows, std::vector<PairMask>* agree) const {
  RowsOf(k, rows);
  agree->resize(chain_->num_edges());
  for (size_t e = 0; e < agree->size(); ++e) {
    (*agree)[e] = chain_->AgreeOn(e, *rows);
  }
  return vs_.ClassifyAgreements(*agree);
}

void ChainEngine::ReferencePropagate(session::SessionStats* stats) {
  std::vector<size_t> rows;
  std::vector<PairMask> agree;
  for (size_t k = 0; k < frontier_.size(); ++k) {
    if (!frontier_.IsOpen(k)) continue;
    switch (ReferenceClassify(k, &rows, &agree)) {
      case ChainVersionSpace::PathStatus::kForcedPositive:
        frontier_.MarkForced(k, /*positive=*/true);
        ++stats->forced_positive;
        break;
      case ChainVersionSpace::PathStatus::kForcedNegative:
        frontier_.MarkForced(k, /*positive=*/false);
        ++stats->forced_negative;
        break;
      case ChainVersionSpace::PathStatus::kInformative:
        break;
    }
  }
}

void ChainEngine::ForceSweep(const std::vector<uint64_t>& bits, bool positive,
                             session::SessionStats* stats) {
  session::ForEachSetBit(bits.data(), bits.size(), [&](size_t c) {
    const size_t settled = frontier_.MarkForcedClass(c, positive);
    (positive ? stats->forced_positive : stats->forced_negative) += settled;
  });
}

void ChainEngine::ConvictCovered(const PairMask* neg,
                                 session::SessionStats* stats) {
  // The negative covers a path iff on every edge A_e ∧ ¬neg_e == 0, i.e.
  // the path agrees on none of the surviving pairs θ*_e ∧ ¬neg_e. An edge
  // with no surviving pair imposes no constraint (its A_e is covered for
  // every path).
  const ChainMask& theta = vs_.most_specific();
  scratch_ = frontier_.open_words();
  for (size_t e = 0; e < chain_->num_edges(); ++e) {
    const PairMask surviving = theta[e] & ~neg[e];
    if (surviving != 0) {
      store_.AndNotOrPlanes(plane_base_[e], surviving, scratch_.data());
    }
  }
  ForceSweep(scratch_, /*positive=*/false, stats);
}

void ChainEngine::FullPropagate(session::SessionStats* stats) {
  // Classification of a path depends only on its per-edge effective masks
  // A_e = θ*_e ∧ agree_e (see ChainVersionSpace::Classify), so the whole
  // pass is word-parallel: one AND sweep over every edge's θ* planes for
  // the forced positives (A == θ* edge-wise), a per-edge A_e == 0 sweep,
  // and one conviction sweep per accumulated negative.
  const ChainMask& theta = vs_.most_specific();
  const size_t edges = chain_->num_edges();
  scratch_ = frontier_.open_words();
  for (size_t e = 0; e < edges; ++e) {
    assert(theta[e] != 0 && "propagating an inconsistent version space");
    store_.AndPlanes(plane_base_[e], theta[e], scratch_.data());
  }
  ForceSweep(scratch_, /*positive=*/true, stats);
  for (size_t e = 0; e < edges; ++e) {
    scratch_ = frontier_.open_words();
    store_.AndNotOrPlanes(plane_base_[e], theta[e], scratch_.data());
    ForceSweep(scratch_, /*positive=*/false, stats);
  }
  for (size_t i = 0, n = vs_.num_negatives(); i < n; ++i) {
    ConvictCovered(vs_.negative(i), stats);
  }
}

void ChainEngine::ApplyNegativeDeltas(session::SessionStats* stats) {
  // θ* is untouched, so no new forced positives exist: each queued
  // negative is one conviction sweep over the still-open paths.
  for (size_t neg : prop_.DrainDeltas()) {
    ConvictCovered(vs_.negative(neg), stats);
  }
}

#ifndef NDEBUG
void ChainEngine::AssertPropagationFixpoint() const {
  // The historical per-candidate classification must find nothing left to
  // force after a flush.
  std::vector<size_t> rows;
  std::vector<PairMask> agree;
  for (size_t k = 0; k < frontier_.size(); ++k) {
    if (!frontier_.IsOpen(k)) continue;
    assert(ReferenceClassify(k, &rows, &agree) ==
               ChainVersionSpace::PathStatus::kInformative &&
           "delta flush missed a forced path");
  }
}
#endif

const ChainMask& ChainEngine::Finish(session::SessionStats* /*stats*/) {
  // No end-of-session audit beyond the per-answer consistency checks.
  return Current();
}

void ChainEngine::SerializeSnapshot(session::SnapshotWriter* writer) const {
  writer->WriteU32(kChainEngineMagic);
  writer->WriteU32(kChainEngineVersion);
  writer->WriteU8(static_cast<uint8_t>(strategy_));
  writer->WriteU8(aborted_ ? 1 : 0);
  const size_t edges = chain_->num_edges();
  writer->WriteU64(edges);
  writer->WriteU64(frontier_.num_classes());
  writer->WriteU64(store_.num_planes());
  for (PairMask m : vs_.most_specific()) writer->WriteU64(m);
  for (PairMask m : last_consistent_) writer->WriteU64(m);
  writer->WriteU64(vs_.num_positives());
  writer->WriteU64(vs_.num_negatives());
  for (PairMask m : vs_.negative_agreements()) writer->WriteU64(m);
  frontier_.SerializeState(writer);
}

common::Status ChainEngine::RestoreSnapshot(session::SnapshotReader* reader) {
  uint64_t edges = 0, classes = 0, planes = 0;
  uint64_t num_positives = 0, num_negatives = 0;
  uint32_t magic = 0, version = 0;
  uint8_t strategy = 0, aborted = 0;
  Status s = reader->ReadU32(&magic);
  if (s.ok()) s = reader->ReadU32(&version);
  if (s.ok()) s = reader->ReadU8(&strategy);
  if (s.ok()) s = reader->ReadU8(&aborted);
  if (s.ok()) s = reader->ReadU64(&edges);
  if (s.ok()) s = reader->ReadU64(&classes);
  if (s.ok()) s = reader->ReadU64(&planes);
  if (!s.ok()) return s;
  if (magic != kChainEngineMagic) {
    return Status::InvalidArgument("not a chain-engine snapshot");
  }
  if (version != kChainEngineVersion) {
    return Status::InvalidArgument(
        "unsupported chain-engine snapshot version " +
        std::to_string(version));
  }
  if (strategy != static_cast<uint8_t>(strategy_)) {
    return Status::InvalidArgument(
        "chain-engine snapshot was taken under a different strategy");
  }
  if (edges != chain_->num_edges()) {
    return Status::InvalidArgument(
        "chain-engine snapshot has " + std::to_string(edges) +
        " edges, chain has " + std::to_string(chain_->num_edges()));
  }
  if (classes != frontier_.num_classes() || planes != store_.num_planes()) {
    return Status::InvalidArgument(
        "chain-engine snapshot has " + std::to_string(classes) +
        " mask classes over " + std::to_string(planes) +
        " planes, engine built " + std::to_string(frontier_.num_classes()) +
        " over " + std::to_string(store_.num_planes()));
  }
  ChainMask theta(edges), last(edges);
  for (uint64_t e = 0; e < edges && s.ok(); ++e) s = reader->ReadU64(&theta[e]);
  for (uint64_t e = 0; e < edges && s.ok(); ++e) s = reader->ReadU64(&last[e]);
  if (s.ok()) s = reader->ReadU64(&num_positives);
  if (s.ok()) s = reader->ReadU64(&num_negatives);
  if (!s.ok()) return s;
  std::vector<PairMask> negatives;
  negatives.reserve(static_cast<size_t>(
      std::min<uint64_t>(num_negatives, frontier_.size()) * edges));
  for (uint64_t i = 0; i < num_negatives * edges; ++i) {
    PairMask m = 0;
    s = reader->ReadU64(&m);
    if (!s.ok()) return s;
    negatives.push_back(m);
  }
  // A mask bit beyond an edge's universe names no pair and no plane: the
  // sweeps would read planes past the store.
  for (uint64_t e = 0; e < edges; ++e) {
    const size_t width = chain_->universe(e).size();
    const PairMask stray = width >= 64 ? 0 : ~PairMask{0} << width;
    bool clean = ((theta[e] | last[e]) & stray) == 0;
    for (uint64_t i = 0; i < num_negatives && clean; ++i) {
      clean = (negatives[i * edges + e] & stray) == 0;
    }
    if (!clean) {
      return Status::InvalidArgument(
          "chain-engine snapshot has a mask with bits outside edge " +
          std::to_string(e) + "'s " + std::to_string(width) +
          "-pair universe");
    }
  }
  s = frontier_.RestoreState(reader);
  if (!s.ok()) return s;

  vs_.RestoreState(std::move(theta), std::move(negatives),
                   static_cast<size_t>(num_positives));
  last_consistent_ = std::move(last);
  aborted_ = aborted != 0;
  theta_advanced_ = false;
  counts_valid_ = false;
  // Snapshots are taken between answered turns: every queued delta was
  // flushed, so the restored engine starts in steady state.
  prop_.MarkFullPassDone();
  return Status::OK();
}

bool ChainEngine::WasAsked(const ChainExample& item) const {
  const std::optional<size_t> k = IndexOf(item);
  return k.has_value() && frontier_.WasAsked(*k);
}

bool ChainEngine::HasForcedLabel(const ChainExample& item) const {
  // Paths without a candidate slot were never classified, so they carry no
  // label.
  const std::optional<size_t> k = IndexOf(item);
  return k.has_value() && frontier_.HasForcedLabel(*k);
}

Result<InteractiveChainResult> RunInteractiveChainSession(
    const JoinChain& chain, ChainOracle* oracle,
    const InteractiveChainOptions& options) {
  if (oracle == nullptr) {
    return Status::InvalidArgument("oracle must not be null");
  }
  session::SessionOptions session_options;
  session_options.seed = options.seed;
  session_options.max_questions = options.max_questions;
  session::LearningSession<ChainEngine> session(ChainEngine(&chain, options),
                                                session_options);

  InteractiveChainResult result;
  result.learned = session.Run([&](const ChainExample& example) {
    return oracle->IsPositive(chain, example);
  });
  result.candidate_paths = session.engine().candidate_paths();
  const session::SessionStats& stats = session.stats();
  result.questions = stats.questions;
  result.forced_positive = stats.forced_positive;
  result.forced_negative = stats.forced_negative;
  result.conflicts = stats.conflicts;
#ifndef NDEBUG
  // ChainMask invariant: one non-empty mask per edge, even after a
  // conflict (the engine then reports the last consistent θ*).
  assert(result.learned.size() == chain.num_edges());
  for (const PairMask mask : result.learned) assert(mask != 0);
#endif
  return result;
}

}  // namespace rlearn
}  // namespace qlearn
