// Learning anchored twig queries from positive examples, after Staworko &
// Wieczorek's algorithm class [36 in the paper]: the hypothesis is the
// canonical most-specific anchored generalization of the examples, computed
// by (1) aligning selection paths with a dynamic program that prefers longer,
// more concrete, more child-anchored patterns, and (2) attaching the common
// filters of aligned nodes (pairwise subtree generalizations).
//
// The paper's reported behaviour reproduced here: convergence to the goal
// query from very few examples (experiment E1), and overspecialized outputs
// containing schema-implied filters (addressed by SchemaAwareLearner).
#ifndef QLEARN_LEARN_TWIG_LEARNER_H_
#define QLEARN_LEARN_TWIG_LEARNER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "twig/twig_query.h"
#include "xml/xml_tree.h"

namespace qlearn {
namespace learn {

/// One annotated node: the user asserts `query selects node in *doc`.
struct TreeExample {
  const xml::XmlTree* doc;
  xml::NodeId node;
};

/// Tuning knobs of the positive-only learner.
struct TwigLearnerOptions {
  /// Allow '*' steps on the selection path when labels disagree at equal
  /// offsets (kept anchored: wildcards only with child edges).
  bool use_wildcards = true;
  /// Also emit descendant filters ".//l" for labels common to the aligned
  /// nodes' subtrees.
  bool descendant_filters = true;
  /// Run homomorphism-based minimization on the result.
  bool minimize = true;
  /// Cap on filters kept per query node (most specific first).
  size_t max_filters_per_node = 16;
  /// Cap on the total node count of any one filter subtree (and of the
  /// filters kept on one selection-path step). Without it the pairwise LGG
  /// of document-sized queries can grow as max_filters_per_node^depth;
  /// dropping filters only generalizes, so the learner stays sound (it
  /// still selects every example). The memo shares generalized subtrees
  /// between the pairs that produce them, so the cap bounds the output
  /// query, not the memo, which holds one node per reachable node pair.
  size_t max_filter_size = 96;
};

/// Converts one example into its most specific query: the whole document
/// with child axes and the example node selected.
twig::TwigQuery ExampleToQuery(const TreeExample& example);

/// One aligned pair of selection-path offsets (0-based, root-to-selection)
/// in the two queries being generalized; `wildcard` marks a '*' step.
struct AlignmentStep {
  int i;
  int j;
  bool wildcard;
};

/// Builds the generalization pattern induced by an explicit selection-path
/// alignment (axes are derived; filters are attached deterministically).
/// Fails if the alignment violates anchoring or label compatibility, or if
/// either query selects no node below the virtual root.
/// Exposed for the consistency checker's alignment enumeration.
common::Result<twig::TwigQuery> BuildAlignedPattern(
    const twig::TwigQuery& q1, const twig::TwigQuery& q2,
    const std::vector<AlignmentStep>& steps,
    const TwigLearnerOptions& options);

/// Canonical most-specific anchored generalization of two queries (both must
/// select a node below the virtual root; InvalidArgument otherwise). Fails
/// with NotFound when no anchored generalization exists (e.g. selection
/// labels differ and depths make wildcards impossible).
common::Result<twig::TwigQuery> GeneralizePair(
    const twig::TwigQuery& q1, const twig::TwigQuery& q2,
    const TwigLearnerOptions& options = {});

/// Generalizes one hypothesis against the nodes of one document:
/// Generalize(v) returns GeneralizePair(hypothesis, ExampleToQuery({doc, v}))
/// byte for byte, node order and status included.
///
/// Why one memo serves every node: ExampleToQuery builds the same tree for
/// every v (only the selection differs), the filter memo's Lgg(x, y) never
/// reads either selection, and the pattern assembly drops the on-path
/// child at each step itself, outside the memo. So the generalizer builds
/// the document twig once, and Reset builds one memo over (hypothesis,
/// document twig) that every Generalize call shares, each node pair's
/// filter generalized once and each node's descendant-label set collected
/// once for all of them.
///
/// Lifetime: the memo's slot table is |hypothesis| x |document| entries,
/// so a caller that idles between bursts of calls should Release it.
/// Reset binds `hypothesis` by reference until the next Reset or Release;
/// the hypothesis must not change in between. The document twig never
/// changes after construction, so copies share it. Copying or moving a
/// generalizer drops its memo (the memo is bound to a hypothesis the copy
/// does not own).
class DocumentGeneralizer {
 public:
  DocumentGeneralizer(const xml::XmlTree& doc,
                      const TwigLearnerOptions& options);
  ~DocumentGeneralizer();
  DocumentGeneralizer(const DocumentGeneralizer& other);
  DocumentGeneralizer& operator=(const DocumentGeneralizer& other);
  DocumentGeneralizer(DocumentGeneralizer&& other) noexcept;
  DocumentGeneralizer& operator=(DocumentGeneralizer&& other) noexcept;

  /// Starts a fresh memo over (`hypothesis`, document twig).
  void Reset(const twig::TwigQuery& hypothesis);
  /// Drops the memo.
  void Release();
  bool has_memo() const { return memo_ != nullptr; }
  /// The hypothesis joined with document node `node`; requires a memo.
  common::Result<twig::TwigQuery> Generalize(xml::NodeId node);

 private:
  struct Memo;
  /// ExampleToQuery's tree with the selection unset, and where each
  /// document node landed in it.
  struct DocumentTwig {
    std::vector<twig::QNodeId> query_node;  // document node -> query node
    twig::TwigQuery query;
  };

  std::shared_ptr<const DocumentTwig> document_;
  TwigLearnerOptions options_;
  std::unique_ptr<Memo> memo_;
};

/// Learns from positive examples by folding GeneralizePair over them.
/// The result selects every example node (soundness invariant, tested).
common::Result<twig::TwigQuery> LearnTwig(
    const std::vector<TreeExample>& examples,
    const TwigLearnerOptions& options = {});

}  // namespace learn
}  // namespace qlearn

#endif  // QLEARN_LEARN_TWIG_LEARNER_H_
