#include "twig/twig_eval.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <set>

namespace qlearn {
namespace twig {

using xml::NodeId;

namespace {

bool TestBit(const uint64_t* row, NodeId v) {
  return (row[v / 64] >> (v % 64)) & 1;
}

void SetBit(uint64_t* row, NodeId v) {
  row[v / 64] |= uint64_t{1} << (v % 64);
}

template <typename Fn>
void ForEachBit(const uint64_t* row, size_t words, Fn&& fn) {
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t m = row[w]; m != 0; m &= m - 1) {
      fn(static_cast<NodeId>(w * 64 + std::countr_zero(m)));
    }
  }
}

/// Sets the first `n` bits of `row` and clears the rest of its last word.
void FillAll(uint64_t* row, size_t n) {
  std::fill_n(row, (n + 63) / 64, ~uint64_t{0});
  if (n % 64 != 0) row[n / 64] = (uint64_t{1} << (n % 64)) - 1;
}

void AndRow(uint64_t* row, const uint64_t* other, size_t words) {
  for (size_t w = 0; w < words; ++w) row[w] &= other[w];
}

}  // namespace

TwigEvaluator::TwigEvaluator(const TwigQuery& query, const xml::XmlTree& doc)
    : query_(query),
      doc_(doc),
      m_(query.NumNodes()),
      words_((doc.NumNodes() + 63) / 64),
      // down and req per query node, the selection and two scratch rows.
      rows_((2 * m_ + 3) * words_, 0) {
  ComputeDown();
  ComputeSelection();
}

void TwigEvaluator::LabelRow(QNodeId q, uint64_t* row) const {
  const size_t n = doc_.NumNodes();
  const common::SymbolId label = query_.label(q);
  if (label == kWildcard) {
    FillAll(row, n);
    return;
  }
  for (size_t w = 0; w < words_; ++w) {
    const size_t end = std::min(n, (w + 1) * 64);
    uint64_t bits = 0;
    for (size_t v = w * 64; v < end; ++v) {
      bits |= static_cast<uint64_t>(doc_.label(static_cast<NodeId>(v)) ==
                                    label)
              << (v % 64);
    }
    row[w] = bits;
  }
}

void TwigEvaluator::ComputeDown() {
  // Child query ids are always larger than their parent's, so descending
  // ids visit every child before its parent.
  for (QNodeId q = static_cast<QNodeId>(m_); q-- > 1;) {
    uint64_t* down = Down(q);
    LabelRow(q, down);
    for (QNodeId c : query_.children(q)) AndRow(down, Req(c), words_);
    uint64_t* req = Req(q);
    if (query_.axis(q) == Axis::kChild) {
      ForEachBit(down, words_, [&](NodeId v) {
        const NodeId u = doc_.parent(v);
        if (u != xml::kInvalidNode) SetBit(req, u);
      });
    } else {
      // Every proper ancestor. A set bit's ancestors are already set, so
      // each climb stops at the first one it meets: O(n) per row.
      ForEachBit(down, words_, [&](NodeId v) {
        for (NodeId u = doc_.parent(v);
             u != xml::kInvalidNode && !TestBit(req, u); u = doc_.parent(u)) {
          SetBit(req, u);
        }
      });
    }
  }

  // Overall match: every root child embeds below the virtual parent of the
  // document root, at the root itself for a child axis, anywhere for a
  // descendant axis.
  matches_ = true;
  for (QNodeId c : query_.children(0)) {
    const uint64_t* down = Down(c);
    const bool sat =
        query_.axis(c) == Axis::kChild
            ? words_ > 0 && TestBit(down, doc_.root())
            : std::any_of(down, down + words_, [](uint64_t w) { return w; });
    if (!sat) {
      matches_ = false;
      break;
    }
  }
}

void TwigEvaluator::ComputeSelection() {
  const QNodeId s = query_.selection();
  if (s == kInvalidQNode || s == 0 || !matches_) return;
  uint64_t* const selection = Down(0) + 2 * m_ * words_;
  uint64_t* const up = selection + words_;
  uint64_t* const good = up + words_;
  const size_t n = doc_.NumNodes();

  // The ancestor of s at `depth` (1 = a root child).
  auto ancestor_at = [&](uint32_t depth) {
    QNodeId q = s;
    for (uint32_t d = query_.depth(s); d > depth; --d) q = query_.parent(q);
    return q;
  };
  // A root child's context is the other root children, all satisfied
  // since the query matches.
  QNodeId q = ancestor_at(1);
  if (query_.axis(q) == Axis::kChild) {
    SetBit(up, doc_.root());
  } else {
    FillAll(up, n);
  }
  for (uint32_t depth = 2; depth <= query_.depth(s); ++depth) {
    const QNodeId p = q;
    q = ancestor_at(depth);
    // good: p maps to u with its context, and every sibling of q embeds
    // under u.
    LabelRow(p, good);
    AndRow(good, up, words_);
    for (QNodeId c : query_.children(p)) {
      if (c != q) AndRow(good, Req(c), words_);
    }
    std::fill_n(up, words_, 0);
    if (query_.axis(q) == Axis::kChild) {
      ForEachBit(good, words_, [&](NodeId u) {
        for (NodeId w : doc_.children(u)) SetBit(up, w);
      });
    } else {
      // Proper descendants of good nodes. A node's id is larger than its
      // parent's, so ascending ids visit parents first.
      for (NodeId v = 0; v < n; ++v) {
        const NodeId u = doc_.parent(v);
        if (u != xml::kInvalidNode && (TestBit(good, u) || TestBit(up, u))) {
          SetBit(up, v);
        }
      }
    }
  }
  const uint64_t* down = Down(s);
  for (size_t w = 0; w < words_; ++w) selection[w] = down[w] & up[w];
}

std::vector<NodeId> TwigEvaluator::SelectedNodes() const {
  std::vector<NodeId> out;
  ForEachBit(Selection(), words_, [&](NodeId v) { out.push_back(v); });
  return out;
}

std::vector<std::vector<NodeId>> TwigEvaluator::MarkedTuples(
    size_t limit) const {
  std::vector<std::vector<NodeId>> out;
  if (!matches_ || query_.marked().empty()) return out;

  // Pre-order list of real query nodes; parents precede children.
  std::vector<QNodeId> qnodes;
  for (QNodeId q : query_.PreOrder()) {
    if (q != 0) qnodes.push_back(q);
  }
  std::vector<NodeId> assignment(query_.NumNodes(), xml::kInvalidNode);
  std::set<std::vector<NodeId>> projections;

  std::function<bool(size_t)> assign = [&](size_t idx) {
    if (projections.size() >= limit) return true;  // stop
    if (idx == qnodes.size()) {
      std::vector<NodeId> tuple;
      tuple.reserve(query_.marked().size());
      for (QNodeId mq : query_.marked()) tuple.push_back(assignment[mq]);
      projections.insert(std::move(tuple));
      return projections.size() >= limit;
    }
    const QNodeId q = qnodes[idx];
    const QNodeId p = query_.parent(q);
    std::vector<NodeId> candidates;
    if (p == 0) {
      if (query_.axis(q) == Axis::kChild) {
        candidates.push_back(doc_.root());
      } else {
        for (NodeId v = 0; v < doc_.NumNodes(); ++v) candidates.push_back(v);
      }
    } else {
      const NodeId u = assignment[p];
      if (query_.axis(q) == Axis::kChild) {
        candidates = doc_.children(u);
      } else {
        candidates = doc_.Descendants(u);
      }
    }
    for (NodeId v : candidates) {
      if (!DownBit(q, v)) continue;
      assignment[q] = v;
      if (assign(idx + 1)) return true;
    }
    assignment[q] = xml::kInvalidNode;
    return false;
  };
  assign(0);
  return std::vector<std::vector<NodeId>>(projections.begin(),
                                          projections.end());
}

bool Matches(const TwigQuery& query, const xml::XmlTree& doc) {
  return TwigEvaluator(query, doc).Matches();
}

std::vector<NodeId> Evaluate(const TwigQuery& query, const xml::XmlTree& doc) {
  return TwigEvaluator(query, doc).SelectedNodes();
}

bool Selects(const TwigQuery& query, const xml::XmlTree& doc,
             xml::NodeId node) {
  return TwigEvaluator(query, doc).Selects(node);
}

}  // namespace twig
}  // namespace qlearn
