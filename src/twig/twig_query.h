// Twig queries: the tree-shaped XPath fragment XP{/,//,[],*} with a selection
// node, following DESIGN.md §2.2 and Staworko & Wieczorek's class. A query is
// a rooted tree whose node 0 is a *virtual root* matched to the (virtual)
// parent of the document root; every other node carries a label or wildcard
// and the axis (child '/' or descendant '//') of its incoming edge.
#ifndef QLEARN_TWIG_TWIG_QUERY_H_
#define QLEARN_TWIG_TWIG_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"

namespace qlearn {
namespace twig {

/// Index of a query node; 0 is always the virtual root.
using QNodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr QNodeId kInvalidQNode = static_cast<QNodeId>(-1);

/// Wildcard label '*': matches any document label.
inline constexpr common::SymbolId kWildcard = common::kNoSymbol;

/// Edge axis from a node's parent.
enum class Axis : uint8_t {
  kChild,       ///< '/': parent-child in the document.
  kDescendant,  ///< '//': proper ancestor-descendant (one or more steps).
};

/// A twig query. Immutable-after-build value type; copying is cheap enough
/// for the learners, which manipulate many candidate queries.
class TwigQuery {
 public:
  /// Creates a query containing only the virtual root.
  TwigQuery();

  /// Adds a node under `parent` (0 for the virtual root) reached via `axis`,
  /// labeled `label` (kWildcard for '*'). Returns its id.
  QNodeId AddNode(QNodeId parent, Axis axis, common::SymbolId label);

  /// Number of real (non-virtual) nodes: the paper's "query size".
  size_t Size() const { return labels_.size() - 1; }

  /// Total nodes including the virtual root.
  size_t NumNodes() const { return labels_.size(); }

  common::SymbolId label(QNodeId q) const { return labels_[q]; }
  Axis axis(QNodeId q) const { return axes_[q]; }
  QNodeId parent(QNodeId q) const { return parents_[q]; }
  const std::vector<QNodeId>& children(QNodeId q) const {
    return children_[q];
  }

  /// The selection (output) node. kInvalidQNode for boolean queries.
  QNodeId selection() const { return selection_; }
  void set_selection(QNodeId q) { selection_ = q; }

  /// Additional marked output nodes for n-ary extraction (shredding);
  /// by convention includes the selection node first when set.
  const std::vector<QNodeId>& marked() const { return marked_; }
  void AddMarked(QNodeId q) { marked_.push_back(q); }

  /// True iff the query tree is a single path (each node <= 1 child).
  bool IsPath() const;

  /// Anchored per DESIGN.md §2.2: every wildcard node has only child-typed
  /// incident edges (its own incoming edge and all its children's edges).
  bool IsAnchored() const;

  /// Nodes in pre-order (virtual root first).
  std::vector<QNodeId> PreOrder() const;

  /// Depth of `q` (virtual root = 0).
  uint32_t depth(QNodeId q) const { return depths_[q]; }

  /// Rebuilds the query without the subtree rooted at `q` (q != 0). The
  /// selection and marked nodes must not be inside the removed subtree.
  TwigQuery RemoveSubtree(QNodeId q) const;

  /// Deep structural equality (same shape, labels, axes, selection), up to
  /// child order.
  bool StructurallyEquals(const TwigQuery& other) const;

  /// Exact equality: the same nodes in the same id order, the same
  /// selection and marked nodes.
  friend bool operator==(const TwigQuery&, const TwigQuery&) = default;

  /// XPath-like rendering, e.g. "/site//person[profile/age]/name"; the
  /// selection node terminates the main path.
  std::string ToString(const common::Interner& interner) const;

 private:
  bool SubtreeEquals(const TwigQuery& other, QNodeId a, QNodeId b) const;

  std::vector<common::SymbolId> labels_;
  std::vector<Axis> axes_;
  std::vector<QNodeId> parents_;
  std::vector<uint32_t> depths_;
  std::vector<std::vector<QNodeId>> children_;
  QNodeId selection_ = kInvalidQNode;
  std::vector<QNodeId> marked_;
};

}  // namespace twig
}  // namespace qlearn

#endif  // QLEARN_TWIG_TWIG_QUERY_H_
