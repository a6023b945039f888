// Embedding-based evaluation of twig queries over XML trees: boolean
// matching, unary node selection, and bounded n-ary embedding enumeration
// (used by the XML shredding pipelines).
#ifndef QLEARN_TWIG_TWIG_EVAL_H_
#define QLEARN_TWIG_TWIG_EVAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "twig/twig_query.h"
#include "xml/xml_tree.h"

namespace qlearn {
namespace twig {

/// Evaluates twig queries against one document. Every table is a bitset
/// over document node ids (bit v of word v / 64), so the passes run a word
/// at a time; build one evaluator per (query, document) pair.
class TwigEvaluator {
 public:
  /// Binds `query` and `doc`; neither is owned and both must outlive this.
  TwigEvaluator(const TwigQuery& query, const xml::XmlTree& doc);

  /// True iff some embedding of the whole query into the document exists.
  bool Matches() const { return matches_; }

  /// All document nodes selected by the query (sorted by node id).
  /// Empty when the query has no selection node or does not match.
  std::vector<xml::NodeId> SelectedNodes() const;

  /// True iff the query selects `node`.
  bool Selects(xml::NodeId node) const {
    return (Selection()[node / 64] >> (node % 64)) & 1;
  }

  /// The selected nodes as a bitset: bit v of word v / 64, one word per 64
  /// document nodes.
  std::span<const uint64_t> SelectedBits() const {
    return {Selection(), words_};
  }

  /// Enumerates embeddings projected onto the query's marked nodes, up to
  /// `limit` distinct projections. Tuples follow the order of
  /// query.marked(). Used for n-ary extraction.
  std::vector<std::vector<xml::NodeId>> MarkedTuples(size_t limit) const;

 private:
  // One flat buffer of rows of words_ words each: down(q) for q in [0, m),
  // req(q) in [m, 2m), then the selection row and two scratch rows.
  uint64_t* Down(QNodeId q) { return rows_.data() + q * words_; }
  const uint64_t* Down(QNodeId q) const { return rows_.data() + q * words_; }
  uint64_t* Req(QNodeId q) { return Down(static_cast<QNodeId>(m_ + q)); }
  const uint64_t* Req(QNodeId q) const {
    return Down(static_cast<QNodeId>(m_ + q));
  }
  const uint64_t* Selection() const { return Down(0) + 2 * m_ * words_; }
  bool DownBit(QNodeId q, xml::NodeId v) const {
    return (Down(q)[v / 64] >> (v % 64)) & 1;
  }
  /// Sets `row` to the document nodes whose label q accepts.
  void LabelRow(QNodeId q, uint64_t* row) const;
  /// down(q) = label(q) ∧ req(c) for every child c; req(q) = the parents
  /// (child axis) or proper ancestors (descendant axis) of down(q). Query
  /// nodes are visited children first.
  void ComputeDown();
  /// up(q) for the nodes on the selection path, root first: the parent's
  /// up row ∧ its label ∧ every sibling's req, expanded to children or to
  /// descendants. The selection is down(s) ∧ up(s).
  void ComputeSelection();

  const TwigQuery& query_;
  const xml::XmlTree& doc_;
  size_t m_;      // query nodes, the virtual root included
  size_t words_;  // words per row
  /// down(q): q's subtree embeds with q -> v. req(q): q's parent may map
  /// to v as far as q's subtree is concerned.
  std::vector<uint64_t> rows_;
  bool matches_ = false;
};

/// Convenience wrappers.
bool Matches(const TwigQuery& query, const xml::XmlTree& doc);
std::vector<xml::NodeId> Evaluate(const TwigQuery& query,
                                  const xml::XmlTree& doc);
bool Selects(const TwigQuery& query, const xml::XmlTree& doc,
             xml::NodeId node);

}  // namespace twig
}  // namespace qlearn

#endif  // QLEARN_TWIG_TWIG_EVAL_H_
