#include "learn/twig_learner.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>

#include "twig/twig_containment.h"

namespace qlearn {
namespace learn {

using common::Result;
using common::Status;
using common::SymbolId;
using twig::Axis;
using twig::QNodeId;
using twig::TwigQuery;

namespace {

/// One selection-path step of a source query.
struct PathStep {
  Axis axis;        // incoming edge
  SymbolId label;
  QNodeId node;     // originating query node
};

/// Root-to-`node` path of `q` into `*path` (empty when `node` is unset or
/// the virtual root).
void PathTo(const TwigQuery& q, QNodeId node, std::vector<PathStep>* path) {
  path->clear();
  for (QNodeId cur = node; cur != 0 && cur != twig::kInvalidQNode;
       cur = q.parent(cur)) {
    path->push_back(PathStep{q.axis(cur), q.label(cur), cur});
  }
  std::reverse(path->begin(), path->end());
}

void SelectionPath(const TwigQuery& q, std::vector<PathStep>* path) {
  PathTo(q, q.selection(), path);
}

/// One node of a filter pattern (axis = edge from its parent, or from the
/// anchor step for a filter root), held in FilterLggMemo's pool. Its kids
/// are a span of pool indices, so filters share subtrees instead of
/// copying them. `size` is the node count of the expanded subtree and
/// `hash` an order-insensitive structural hash, so dedup and sorting are
/// O(1) per comparison.
struct FilterNode {
  uint64_t hash;
  size_t size;
  SymbolId label;
  Axis axis;
  uint32_t kids_begin;  // into FilterLggMemo::kids_
  uint32_t num_kids;
};

/// Structural hash of a filter node whose kids' hashes were combined into
/// `kid_mix` by KidMix (a commutative sum: kid order does not matter).
uint64_t FilterHash(Axis axis, SymbolId label, uint64_t kid_mix) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ (static_cast<uint64_t>(label) << 2) ^
               static_cast<uint64_t>(axis);
  h ^= kid_mix + (kid_mix << 7);
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

uint64_t KidMix(uint64_t kid_hash) {
  return kid_hash * 0x100000001b3ULL + 0x517cc1b727220a95ULL;
}

/// DP cell for the selection-path alignment.
struct Cell {
  bool valid = false;
  // Score: (#steps, #concrete labels, #child axes), lexicographic.
  std::array<int, 3> score{0, 0, 0};
  int prev_i = -1;
  int prev_j = -1;
  bool prev_wild = false;
  Axis in_axis = Axis::kDescendant;  // axis entering this aligned step
};

/// Pairwise filter generalization (FilterLgg) over (q1-node, q2-node)
/// pairs, memoized in one flat slot table indexed by x * |q2| + y. Each
/// reachable pair is generalized exactly once, which keeps the product of
/// two document-sized queries polynomial. Filter trees live in one pool
/// owned by the memo, a node's kids a span of pool indices, so no subtree
/// is ever copied; the per-pair dedup, sort and cap run in scratch buffers
/// reused across pairs. Nothing here reads either query's selection, so
/// one memo serves every selection path through the same two trees.
class FilterLggMemo {
 public:
  static constexpr int32_t kNone = -1;  // no anchored generalization

  FilterLggMemo(const TwigQuery& q1, const TwigQuery& q2,
                const TwigLearnerOptions& options)
      : q1_(q1),
        q2_(q2),
        options_(options),
        slots_(q1.NumNodes() * q2.NumNodes(), kUnset),
        labels1_(q1.NumNodes()),
        labels2_(q2.NumNodes()) {
    leaves_.fill(kNone);
  }

  const TwigQuery& q1() const { return q1_; }
  const TwigQuery& q2() const { return q2_; }
  const FilterNode& node(int32_t f) const { return pool_[f]; }
  std::span<const int32_t> kids(const FilterNode& f) const {
    return {kids_.data() + f.kids_begin, f.num_kids};
  }

  /// Most-specific common generalization of the branches rooted at x and y:
  /// a pool index, or kNone when no anchored generalization exists.
  int32_t Lgg(QNodeId x, QNodeId y) {
    // The slot table never resizes, so the reference survives Compute's
    // recursion (which only visits strictly deeper pairs).
    int32_t& slot = slots_[static_cast<size_t>(x) * q2_.NumNodes() + y];
    if (slot == kUnset) slot = Compute(x, y);
    return slot;
  }

  /// Candidate filters of the node under construction, in discovery
  /// order. A construction appends from `candidates_size()` on, then calls
  /// SelectFilters and DropCandidates on that start.
  size_t candidates_size() const { return candidates_.size(); }
  void AddCandidate(int32_t f) { candidates_.push_back(f); }

  /// Dedups the candidates from `begin` on by hash (first occurrence
  /// wins), orders them most specific (largest) first, ties in discovery
  /// order, and keeps a prefix capped in count and in total subtree size
  /// so patterns stay polynomial. Returns the kept filters.
  std::span<const int32_t> SelectFilters(size_t begin) {
    if (candidates_.size() - begin > 1) {
      // Dedup: one pass over an open-addressing set of the kept hashes.
      const size_t mask = std::bit_ceil(2 * (candidates_.size() - begin)) - 1;
      seen_.assign(mask + 1, kNone);
      size_t end = begin;
      for (size_t i = begin; i < candidates_.size(); ++i) {
        const int32_t f = candidates_[i];
        const uint64_t hash = pool_[f].hash;
        size_t slot = hash & mask;
        while (seen_[slot] != kNone && pool_[seen_[slot]].hash != hash) {
          slot = (slot + 1) & mask;
        }
        if (seen_[slot] != kNone) continue;
        seen_[slot] = f;
        candidates_[end++] = f;
      }
      candidates_.resize(end);
      SortLargestFirst(begin);
    }
    size_t kept = begin;
    size_t total = 1;
    for (size_t i = begin; i < candidates_.size(); ++i) {
      if (kept - begin >= options_.max_filters_per_node) break;
      const size_t size = pool_[candidates_[i]].size;
      if (total + size > options_.max_filter_size) continue;
      total += size;
      candidates_[kept++] = candidates_[i];
    }
    candidates_.resize(kept);
    return {candidates_.data() + begin, kept - begin};
  }

  void DropCandidates(size_t begin) { candidates_.resize(begin); }

  /// Stable sort of the candidates from `begin` on by subtree size,
  /// largest first: an insertion sort for the usual handful, one keyed
  /// sort past that.
  void SortLargestFirst(size_t begin) {
    constexpr size_t kInsertionMax = 32;
    if (candidates_.size() - begin <= kInsertionMax) {
      for (size_t i = begin + 1; i < candidates_.size(); ++i) {
        const int32_t f = candidates_[i];
        size_t j = i;
        for (; j > begin && pool_[candidates_[j - 1]].size < pool_[f].size;
             --j) {
          candidates_[j] = candidates_[j - 1];
        }
        candidates_[j] = f;
      }
      return;
    }
    // Keyed by (complemented size, position): equal sizes keep discovery
    // order.
    keyed_.clear();
    for (size_t i = begin; i < candidates_.size(); ++i) {
      keyed_.push_back({~static_cast<uint64_t>(pool_[candidates_[i]].size),
                        i});
    }
    std::sort(keyed_.begin(), keyed_.end());
    for (auto& [key, pos] : keyed_) {
      key = static_cast<uint64_t>(candidates_[pos]);
    }
    for (size_t t = 0; t < keyed_.size(); ++t) {
      candidates_[begin + t] = static_cast<int32_t>(keyed_[t].first);
    }
  }

  /// Appends the labels common to the proper descendants of x (in q1) and
  /// of y (in q2), ascending, as descendant-filter candidates ".//l".
  void AddCommonDescendantLabels(QNodeId x, QNodeId y) {
    const std::span<const SymbolId> labels1 =
        DescendantLabels(q1_, x, &labels1_);
    const std::span<const SymbolId> labels2 =
        DescendantLabels(q2_, y, &labels2_);
    auto it = labels2.begin();
    for (SymbolId l : labels1) {
      it = std::lower_bound(it, labels2.end(), l);
      if (it == labels2.end()) break;
      if (*it == l) AddCandidate(Leaf(Axis::kDescendant, l));
    }
  }

 private:
  static constexpr int32_t kUnset = -2;

  int32_t Leaf(Axis axis, SymbolId label) {
    int32_t& cached =
        leaves_[(static_cast<size_t>(label) * 2 + static_cast<size_t>(axis)) %
                leaves_.size()];
    if (cached != kNone && pool_[cached].label == label &&
        pool_[cached].axis == axis) {
      return cached;
    }
    pool_.push_back(
        FilterNode{FilterHash(axis, label, 0), 1, label, axis, 0, 0});
    cached = static_cast<int32_t>(pool_.size() - 1);
    return cached;
  }

  int32_t Compute(QNodeId x, QNodeId y) {
    const Axis axis =
        (q1_.axis(x) == Axis::kChild && q2_.axis(y) == Axis::kChild)
            ? Axis::kChild
            : Axis::kDescendant;
    const bool wildcard = q1_.label(x) == twig::kWildcard ||
                          q1_.label(x) != q2_.label(y);
    if (wildcard && !(options_.use_wildcards && axis == Axis::kChild)) {
      return kNone;  // labels disagree; a wildcard would break anchors
    }
    const SymbolId label = wildcard ? twig::kWildcard : q1_.label(x);

    // Kid pairs recurse first; each nested Compute appends above this
    // pair's candidates and truncates back before returning.
    const size_t begin = candidates_.size();
    for (QNodeId xc : q1_.children(x)) {
      // Below a wildcard only child-child pairs keep the pattern anchored.
      if (wildcard && q1_.axis(xc) != Axis::kChild) continue;
      for (QNodeId yc : q2_.children(y)) {
        if (wildcard && q2_.axis(yc) != Axis::kChild) continue;
        const int32_t kid = Lgg(xc, yc);
        if (kid != kNone) candidates_.push_back(kid);
      }
    }
    if (candidates_.size() == begin) return Leaf(axis, label);
    const std::span<const int32_t> kept = SelectFilters(begin);
    const uint32_t kids_begin = static_cast<uint32_t>(kids_.size());
    size_t size = 1;
    uint64_t kid_mix = 0;
    for (int32_t kid : kept) {
      kids_.push_back(kid);
      size += pool_[kid].size;
      kid_mix += KidMix(pool_[kid].hash);
    }
    DropCandidates(begin);
    pool_.push_back(FilterNode{FilterHash(axis, label, kid_mix), size, label,
                               axis, kids_begin,
                               static_cast<uint32_t>(kept.size())});
    return static_cast<int32_t>(pool_.size() - 1);
  }

  static constexpr uint32_t kUnsetSpan = ~uint32_t{0};

  /// Per-node descendant-label sets of one query: node n's set is
  /// pool[begin, begin + size) of span[n], filled on first use and kept
  /// for the memo's lifetime.
  struct LabelSets {
    struct Span {
      uint32_t begin = kUnsetSpan;
      uint32_t size = 0;
    };
    explicit LabelSets(size_t nodes) : span(nodes) {}
    std::vector<Span> span;
    std::vector<SymbolId> pool;
  };

  /// Sorted distinct labels of proper descendants of `n` in `q`, wildcards
  /// excluded. The missing sets of n's subtree are filled bottom-up: a
  /// node's set is the union of its children's labels and sets.
  std::span<const SymbolId> DescendantLabels(const TwigQuery& q, QNodeId n,
                                             LabelSets* sets) {
    if (sets->span[n].begin == kUnsetSpan) {
      order_.assign(1, n);  // pre-order over the nodes still unset
      for (size_t i = 0; i < order_.size(); ++i) {
        for (QNodeId c : q.children(order_[i])) {
          if (sets->span[c].begin == kUnsetSpan) order_.push_back(c);
        }
      }
      for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
        merged_.clear();
        for (QNodeId c : q.children(*it)) {
          if (q.label(c) != twig::kWildcard) merged_.push_back(q.label(c));
          const auto kid = sets->pool.begin() + sets->span[c].begin;
          merged_.insert(merged_.end(), kid, kid + sets->span[c].size);
        }
        std::sort(merged_.begin(), merged_.end());
        merged_.erase(std::unique(merged_.begin(), merged_.end()),
                      merged_.end());
        sets->span[*it] = {static_cast<uint32_t>(sets->pool.size()),
                           static_cast<uint32_t>(merged_.size())};
        sets->pool.insert(sets->pool.end(), merged_.begin(), merged_.end());
      }
    }
    return {sets->pool.data() + sets->span[n].begin, sets->span[n].size};
  }

  const TwigQuery& q1_;
  const TwigQuery& q2_;
  const TwigLearnerOptions& options_;
  std::vector<int32_t> slots_;
  std::vector<FilterNode> pool_;
  std::vector<int32_t> kids_;  // kid spans of the pool's nodes
  // Scratch reused across pairs.
  std::vector<int32_t> candidates_;
  std::vector<std::pair<uint64_t, size_t>> keyed_;
  std::vector<int32_t> seen_;  // SelectFilters' dedup set
  std::vector<QNodeId> order_;
  std::vector<SymbolId> merged_;
  LabelSets labels1_;
  LabelSets labels2_;
  /// Direct-mapped cache of childless filter nodes by (label, axis): most
  /// pairs of two documents are leaf pairs, and equal leaves share one
  /// pool node.
  std::array<int32_t, 256> leaves_;
};

void AttachFilter(TwigQuery* q, QNodeId parent, const FilterLggMemo& memo,
                  int32_t f) {
  const FilterNode& node = memo.node(f);
  const QNodeId id = q->AddNode(parent, node.axis, node.label);
  for (int32_t kid : memo.kids(node)) AttachFilter(q, id, memo, kid);
}

/// BuildAlignedPattern over the precomputed selection paths `a` (in the
/// memo's q1) and `b` (in its q2), with filters from `memo`.
Result<TwigQuery> BuildPattern(FilterLggMemo* memo,
                               const std::vector<PathStep>& a,
                               const std::vector<PathStep>& b,
                               const std::vector<AlignmentStep>& steps,
                               const TwigLearnerOptions& options) {
  const TwigQuery& q1 = memo->q1();
  const TwigQuery& q2 = memo->q2();
  const int m = static_cast<int>(a.size());
  const int n = static_cast<int>(b.size());
  if (m == 0 || n == 0) {
    return Status::InvalidArgument(
        "a selection path is empty (no selection below the virtual root)");
  }
  if (steps.empty() || steps.back().i != m - 1 || steps.back().j != n - 1) {
    return Status::InvalidArgument("alignment must end at both selections");
  }

  // Derive axes and validate label compatibility and anchoring.
  std::vector<Axis> axes(steps.size());
  for (size_t t = 0; t < steps.size(); ++t) {
    const AlignmentStep& s = steps[t];
    if (s.i < 0 || s.i >= m || s.j < 0 || s.j >= n) {
      return Status::InvalidArgument("alignment step out of range");
    }
    if (t > 0 &&
        (steps[t - 1].i >= s.i || steps[t - 1].j >= s.j)) {
      return Status::InvalidArgument("alignment must be strictly increasing");
    }
    if (!s.wildcard) {
      if (a[s.i].label == twig::kWildcard || a[s.i].label != b[s.j].label) {
        return Status::InvalidArgument("labels disagree on concrete step");
      }
    } else if (!options.use_wildcards) {
      return Status::InvalidArgument("wildcards disabled");
    }
    const bool consecutive =
        t == 0 ? (s.i == 0 && s.j == 0)
               : (s.i == steps[t - 1].i + 1 && s.j == steps[t - 1].j + 1);
    axes[t] = (consecutive && a[s.i].axis == Axis::kChild &&
               b[s.j].axis == Axis::kChild)
                  ? Axis::kChild
                  : Axis::kDescendant;
  }
  for (size_t t = 0; t < steps.size(); ++t) {
    if (!steps[t].wildcard) continue;
    if (axes[t] != Axis::kChild) {
      return Status::InvalidArgument("wildcard entered via descendant axis");
    }
    if (t + 1 < steps.size() && axes[t + 1] != Axis::kChild) {
      return Status::InvalidArgument("wildcard exited via descendant axis");
    }
  }

  // Assemble the pattern: main path plus per-step filters. One memo table
  // serves every step (pairs repeat across steps and inside subtrees).
  TwigQuery out;
  QNodeId cur = 0;
  for (size_t t = 0; t < steps.size(); ++t) {
    const AlignmentStep& s = steps[t];
    const SymbolId label = s.wildcard ? twig::kWildcard : a[s.i].label;
    cur = out.AddNode(cur, axes[t], label);
    const QNodeId u = a[s.i].node;
    const QNodeId v = b[s.j].node;
    // The q1/q2 children that continue toward the selection are the main
    // path, excluded from filter generation: on a root-to-selection path
    // that is the next path node.
    const bool last = t + 1 == steps.size();
    const QNodeId u_path = last ? twig::kInvalidQNode : a[s.i + 1].node;
    const QNodeId v_path = last ? twig::kInvalidQNode : b[s.j + 1].node;

    const size_t begin = memo->candidates_size();
    for (QNodeId xc : q1.children(u)) {
      if (xc == u_path) continue;
      if (s.wildcard && q1.axis(xc) != Axis::kChild) continue;
      for (QNodeId yc : q2.children(v)) {
        if (yc == v_path) continue;
        if (s.wildcard && q2.axis(yc) != Axis::kChild) continue;
        const int32_t f = memo->Lgg(xc, yc);
        if (f != FilterLggMemo::kNone) memo->AddCandidate(f);
      }
    }
    // Descendant filters: labels occurring strictly below both aligned nodes
    // (outside a wildcard step, which cannot carry descendant edges).
    if (options.descendant_filters && !s.wildcard) {
      memo->AddCommonDescendantLabels(u, v);
    }
    for (int32_t f : memo->SelectFilters(begin)) {
      AttachFilter(&out, cur, *memo, f);
    }
    memo->DropCandidates(begin);
  }
  out.set_selection(cur);
  return out;
}

/// The whole document as a query with child axes and no selection;
/// `(*map)[n]` is document node n's query node.
TwigQuery DocumentQuery(const xml::XmlTree& doc, std::vector<QNodeId>* map) {
  TwigQuery q;
  map->assign(doc.NumNodes(), twig::kInvalidQNode);
  for (xml::NodeId n : doc.PreOrder()) {
    const QNodeId parent = n == doc.root() ? 0 : (*map)[doc.parent(n)];
    (*map)[n] = q.AddNode(parent, Axis::kChild, doc.label(n));
  }
  return q;
}

/// The generalization of the memo's two queries whose selection paths are
/// `a` and `b`: the alignment DP over the two paths, then the pattern
/// assembly with filters from `memo`. GeneralizePair runs it with a
/// call-local memo, DocumentGeneralizer with one memo shared by every node.
Result<TwigQuery> GeneralizePaths(FilterLggMemo* memo,
                                  const std::vector<PathStep>& a,
                                  const std::vector<PathStep>& b,
                                  const TwigLearnerOptions& options) {
  const int m = static_cast<int>(a.size());
  const int n = static_cast<int>(b.size());
  if (m == 0 || n == 0) {
    return Status::InvalidArgument(
        "GeneralizePair needs selections below the virtual root");
  }

  // dp[(i * n + j) * 2 + w]: best alignment of prefixes with (i,j) aligned
  // as the current pattern step, which is a wildcard iff w.
  std::vector<Cell> dp(static_cast<size_t>(m) * n * 2);
  auto cell = [&dp, n](int i, int j, int w) -> Cell& {
    return dp[(static_cast<size_t>(i) * n + j) * 2 + w];
  };

  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      // A concrete step needs equal concrete labels; a wildcard step needs
      // wildcards enabled.
      for (int w = 0; w < 2; ++w) {
        const bool wild = w != 0;
        if (wild ? !options.use_wildcards
                 : (a[i].label == twig::kWildcard ||
                    a[i].label != b[j].label)) {
          continue;
        }
        Cell best;
        // Option 1: (i,j) is the first pattern step.
        {
          const bool consecutive = i == 0 && j == 0;
          const Axis axis = (consecutive && a[0].axis == Axis::kChild &&
                             b[0].axis == Axis::kChild)
                                ? Axis::kChild
                                : Axis::kDescendant;
          if (!(wild && axis != Axis::kChild)) {
            best.valid = true;
            best.score = {1, wild ? 0 : 1, axis == Axis::kChild ? 1 : 0};
            best.in_axis = axis;
          }
        }
        // Option 2: extend a previous aligned pair (pi, pj).
        for (int pi = 0; pi < i; ++pi) {
          for (int pj = 0; pj < j; ++pj) {
            for (int pw = 0; pw < 2; ++pw) {
              const Cell& prev = cell(pi, pj, pw);
              if (!prev.valid) continue;
              const bool consecutive = pi == i - 1 && pj == j - 1;
              const Axis axis = (consecutive && a[i].axis == Axis::kChild &&
                                 b[j].axis == Axis::kChild)
                                    ? Axis::kChild
                                    : Axis::kDescendant;
              // Anchoring: wildcard endpoints demand child axes.
              if ((wild || pw) && axis != Axis::kChild) continue;
              Cell cand;
              cand.valid = true;
              cand.score = {prev.score[0] + 1,
                            prev.score[1] + (wild ? 0 : 1),
                            prev.score[2] + (axis == Axis::kChild ? 1 : 0)};
              cand.prev_i = pi;
              cand.prev_j = pj;
              cand.prev_wild = pw != 0;
              cand.in_axis = axis;
              if (!best.valid || cand.score > best.score) best = cand;
            }
          }
        }
        cell(i, j, w) = best;
      }
    }
  }

  // The alignment must end at the two selection nodes.
  const Cell* end = nullptr;
  bool end_wild = false;
  for (int w = 0; w < 2; ++w) {
    const Cell& c = cell(m - 1, n - 1, w);
    if (!c.valid) continue;
    if (end == nullptr || c.score > end->score) {
      end = &c;
      end_wild = w != 0;
    }
  }
  if (end == nullptr) {
    return Status::NotFound(
        "no anchored generalization of the selection paths exists");
  }

  // Reconstruct the best alignment in root-to-selection order and assemble.
  std::vector<AlignmentStep> steps;
  {
    int ci = m - 1;
    int cj = n - 1;
    bool cw = end_wild;
    while (ci >= 0) {
      const Cell& c = cell(ci, cj, cw ? 1 : 0);
      steps.push_back(AlignmentStep{ci, cj, cw});
      if (c.prev_i < 0) break;
      const int ni = c.prev_i;
      const int nj = c.prev_j;
      cw = c.prev_wild;
      ci = ni;
      cj = nj;
    }
    std::reverse(steps.begin(), steps.end());
  }
  return BuildPattern(memo, a, b, steps, options);
}

}  // namespace

TwigQuery ExampleToQuery(const TreeExample& example) {
  std::vector<QNodeId> map;
  TwigQuery q = DocumentQuery(*example.doc, &map);
  q.set_selection(map[example.node]);
  return q;
}

Result<TwigQuery> GeneralizePair(const TwigQuery& q1, const TwigQuery& q2,
                                 const TwigLearnerOptions& options) {
  if (q1.selection() == twig::kInvalidQNode ||
      q2.selection() == twig::kInvalidQNode) {
    return Status::InvalidArgument("GeneralizePair needs selection nodes");
  }
  std::vector<PathStep> a;
  std::vector<PathStep> b;
  SelectionPath(q1, &a);
  SelectionPath(q2, &b);
  FilterLggMemo memo(q1, q2, options);
  return GeneralizePaths(&memo, a, b, options);
}

/// The memo over (hypothesis, document) and the two selection paths.
struct DocumentGeneralizer::Memo {
  Memo(const TwigQuery& hypothesis, const TwigQuery& document,
       const TwigLearnerOptions& options)
      : filters(hypothesis, document, options) {
    SelectionPath(hypothesis, &hypothesis_path);
  }

  FilterLggMemo filters;
  std::vector<PathStep> hypothesis_path;
  std::vector<PathStep> node_path;  // scratch, one node at a time
};

DocumentGeneralizer::DocumentGeneralizer(const xml::XmlTree& doc,
                                         const TwigLearnerOptions& options)
    : options_(options) {
  auto document = std::make_shared<DocumentTwig>();
  document->query = DocumentQuery(doc, &document->query_node);
  document_ = std::move(document);
}

DocumentGeneralizer::~DocumentGeneralizer() = default;

DocumentGeneralizer::DocumentGeneralizer(const DocumentGeneralizer& other)
    : document_(other.document_), options_(other.options_) {}

DocumentGeneralizer& DocumentGeneralizer::operator=(
    const DocumentGeneralizer& other) {
  Release();
  document_ = other.document_;
  options_ = other.options_;
  return *this;
}

DocumentGeneralizer::DocumentGeneralizer(DocumentGeneralizer&& other) noexcept
    : document_(std::move(other.document_)), options_(other.options_) {
  other.Release();
}

DocumentGeneralizer& DocumentGeneralizer::operator=(
    DocumentGeneralizer&& other) noexcept {
  Release();
  other.Release();
  document_ = std::move(other.document_);
  options_ = other.options_;
  return *this;
}

void DocumentGeneralizer::Reset(const TwigQuery& hypothesis) {
  memo_.reset();  // free the old table before allocating the new one
  memo_ = std::make_unique<Memo>(hypothesis, document_->query, options_);
}

void DocumentGeneralizer::Release() { memo_.reset(); }

Result<TwigQuery> DocumentGeneralizer::Generalize(xml::NodeId node) {
  assert(memo_ != nullptr && "Generalize needs a Reset first");
  if (memo_->filters.q1().selection() == twig::kInvalidQNode) {
    return Status::InvalidArgument("GeneralizePair needs selection nodes");
  }
  PathTo(document_->query, document_->query_node[node], &memo_->node_path);
  return GeneralizePaths(&memo_->filters, memo_->hypothesis_path,
                         memo_->node_path, options_);
}

Result<TwigQuery> BuildAlignedPattern(const TwigQuery& q1,
                                      const TwigQuery& q2,
                                      const std::vector<AlignmentStep>& steps,
                                      const TwigLearnerOptions& options) {
  std::vector<PathStep> a;
  std::vector<PathStep> b;
  SelectionPath(q1, &a);
  SelectionPath(q2, &b);
  FilterLggMemo memo(q1, q2, options);
  return BuildPattern(&memo, a, b, steps, options);
}

Result<TwigQuery> LearnTwig(const std::vector<TreeExample>& examples,
                            const TwigLearnerOptions& options) {
  if (examples.empty()) {
    return Status::InvalidArgument("LearnTwig needs at least one example");
  }
  TwigQuery hypothesis = ExampleToQuery(examples[0]);
  for (size_t i = 1; i < examples.size(); ++i) {
    auto next = GeneralizePair(hypothesis, ExampleToQuery(examples[i]),
                               options);
    if (!next.ok()) return next.status();
    hypothesis = std::move(next).value();
  }
  if (options.minimize) hypothesis = twig::Minimize(hypothesis);
  return hypothesis;
}

}  // namespace learn
}  // namespace qlearn
