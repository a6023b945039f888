// Arena-based unordered labeled trees: the document model for twig queries
// and multiplicity schemas. Node labels are interned symbols; attributes are
// modeled as children labeled "@name".
#ifndef QLEARN_XML_XML_TREE_H_
#define QLEARN_XML_XML_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/interner.h"

namespace qlearn {
namespace xml {

/// Index of a node within its XmlTree arena.
using NodeId = uint32_t;

/// Sentinel for "no node" (e.g. parent of the root).
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// A rooted, node-labeled tree stored in struct-of-arrays form. Child order
/// is preserved for serialization but carries no semantics for queries or
/// schemas (both are order-oblivious per DESIGN.md §2). Ids are assigned in
/// insertion order, so a node's id is always larger than its parent's
/// (ids need not be in pre-order).
class XmlTree {
 public:
  XmlTree() = default;

  /// Creates the root node. Must be called exactly once, first.
  NodeId AddRoot(common::SymbolId label);

  /// Appends a child to `parent` and returns its id.
  NodeId AddChild(NodeId parent, common::SymbolId label);

  /// Grafts a deep copy of `other`'s subtree rooted at `other_node` under
  /// `parent`. Returns the id of the copied root.
  NodeId GraftSubtree(NodeId parent, const XmlTree& other, NodeId other_node);

  size_t NumNodes() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  NodeId root() const { return 0; }

  common::SymbolId label(NodeId n) const { return labels_[n]; }
  NodeId parent(NodeId n) const { return parents_[n]; }
  const std::vector<NodeId>& children(NodeId n) const { return children_[n]; }
  uint32_t depth(NodeId n) const { return depths_[n]; }

  /// True iff `a` is a proper ancestor of `d`.
  bool IsProperAncestor(NodeId a, NodeId d) const;

  /// All node ids in pre-order (root first).
  std::vector<NodeId> PreOrder() const;

  /// All proper descendants of `n` in pre-order.
  std::vector<NodeId> Descendants(NodeId n) const;

  /// Bag of child labels of `n` (sorted, with duplicates).
  std::vector<common::SymbolId> ChildLabelBag(NodeId n) const;

  /// Serializes the subtree at `n` as indented XML-like text.
  std::string ToXml(const common::Interner& interner,
                    NodeId n = 0, int indent = 0) const;

  /// Height of the subtree at `n` (single node = 1).
  uint32_t Height(NodeId n = 0) const;

 private:
  std::vector<common::SymbolId> labels_;
  std::vector<NodeId> parents_;
  std::vector<uint32_t> depths_;
  std::vector<std::vector<NodeId>> children_;
};

}  // namespace xml
}  // namespace qlearn

#endif  // QLEARN_XML_XML_TREE_H_
