// Parameterized property sweeps for the twig engine: random queries against
// random documents checking (1) parser/printer round-trips, (2) selection
// vs boolean-match coherence, (3) minimization preserving semantics,
// (4) homomorphism containment soundness, and (5) evaluation agreement with
// a brute-force embedding enumerator, also for queries with many and nested
// filters over documents of several words and with non-pre-order ids.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/rng.h"
#include "twig/twig_containment.h"
#include "twig/twig_eval.h"
#include "twig/twig_parser.h"
#include "xml/random_tree.h"

namespace qlearn {
namespace twig {
namespace {

using common::Interner;
using common::SymbolId;

/// Builds a random anchored-ish twig query over labels l0..l{k-1}.
TwigQuery RandomQuery(common::Rng* rng, Interner* interner, int alphabet) {
  TwigQuery q;
  std::vector<SymbolId> labels;
  for (int i = 0; i < alphabet; ++i) {
    std::string name = "l";
    name += std::to_string(i);
    labels.push_back(interner->Intern(name));
  }
  labels.push_back(interner->Intern("root"));

  const int path_len = 1 + static_cast<int>(rng->Uniform(4));
  QNodeId cur = 0;
  for (int i = 0; i < path_len; ++i) {
    const Axis axis =
        rng->Bernoulli(0.35) ? Axis::kDescendant : Axis::kChild;
    const SymbolId label = rng->Bernoulli(0.15) && axis == Axis::kChild
                               ? kWildcard
                               : labels[rng->Index(labels.size())];
    cur = q.AddNode(cur, axis, label);
    // Occasionally add a filter branch.
    if (rng->Bernoulli(0.4)) {
      const QNodeId f = q.AddNode(
          cur, rng->Bernoulli(0.3) ? Axis::kDescendant : Axis::kChild,
          labels[rng->Index(labels.size())]);
      if (rng->Bernoulli(0.3)) {
        q.AddNode(f, Axis::kChild, labels[rng->Index(labels.size())]);
      }
    }
  }
  q.set_selection(cur);
  return q;
}

/// Brute force: calls `fn(assignment)` for every embedding of `q` into
/// `doc`, enumerated recursively (no DP), until `fn` returns false;
/// assignment[x] is x's image.
void ForEachEmbedding(
    const TwigQuery& q, const xml::XmlTree& doc,
    const std::function<bool(const std::vector<xml::NodeId>&)>& fn) {
  std::vector<xml::NodeId> assignment(q.NumNodes(), xml::kInvalidNode);
  std::vector<QNodeId> order;
  for (QNodeId n : q.PreOrder()) {
    if (n != 0) order.push_back(n);
  }
  std::function<bool(size_t)> rec = [&](size_t idx) {
    if (idx == order.size()) return fn(assignment);
    const QNodeId x = order[idx];
    const QNodeId p = q.parent(x);
    std::vector<xml::NodeId> candidates;
    if (p == 0) {
      if (q.axis(x) == Axis::kChild) {
        candidates.push_back(doc.root());
      } else {
        for (xml::NodeId v = 0; v < doc.NumNodes(); ++v) {
          candidates.push_back(v);
        }
      }
    } else {
      const xml::NodeId u = assignment[p];
      candidates = q.axis(x) == Axis::kChild ? doc.children(u)
                                             : doc.Descendants(u);
    }
    for (xml::NodeId v : candidates) {
      if (q.label(x) != kWildcard && q.label(x) != doc.label(v)) continue;
      assignment[x] = v;
      if (!rec(idx + 1)) return false;
    }
    assignment[x] = xml::kInvalidNode;
    return true;
  };
  rec(0);
}

/// Brute force: the set of nodes selected by some embedding.
std::vector<xml::NodeId> BruteForceEvaluate(const TwigQuery& q,
                                            const xml::XmlTree& doc) {
  std::vector<bool> selected(doc.NumNodes(), false);
  ForEachEmbedding(q, doc, [&](const std::vector<xml::NodeId>& assignment) {
    if (q.selection() != kInvalidQNode) {
      selected[assignment[q.selection()]] = true;
    }
    return true;
  });
  std::vector<xml::NodeId> out;
  for (xml::NodeId v = 0; v < doc.NumNodes(); ++v) {
    if (selected[v]) out.push_back(v);
  }
  return out;
}

class TwigProperty : public ::testing::TestWithParam<int> {};

TEST_P(TwigProperty, EngineInvariants) {
  Interner interner;
  common::Rng rng(GetParam() * 2654435761u + 17);
  xml::RandomTreeOptions tree_options;
  tree_options.alphabet_size = 3;
  tree_options.max_depth = 4;
  tree_options.max_children = 3;

  for (int iter = 0; iter < 10; ++iter) {
    const xml::XmlTree doc =
        xml::GenerateRandomTree(tree_options, &rng, &interner);
    const TwigQuery q = RandomQuery(&rng, &interner, 3);

    // (1) Print -> parse round trip preserves structure.
    auto reparsed = ParseTwig(q.ToString(interner), &interner);
    ASSERT_TRUE(reparsed.ok()) << q.ToString(interner);
    EXPECT_TRUE(q.StructurallyEquals(reparsed.value()))
        << q.ToString(interner) << " vs "
        << reparsed.value().ToString(interner);

    // (2) Selection implies boolean match; empty selection of a matching
    // query can only happen without a selection node.
    TwigEvaluator eval(q, doc);
    const auto selected = eval.SelectedNodes();
    if (!selected.empty()) {
      EXPECT_TRUE(eval.Matches());
    }
    for (xml::NodeId v : selected) EXPECT_TRUE(eval.Selects(v));

    // (3) Evaluation agrees with brute-force embedding enumeration.
    EXPECT_EQ(selected, BruteForceEvaluate(q, doc)) << q.ToString(interner);

    // (4) Minimization preserves the selected set.
    const TwigQuery minimized = Minimize(q);
    EXPECT_LE(minimized.Size(), q.Size());
    EXPECT_EQ(Evaluate(minimized, doc), selected) << q.ToString(interner);
  }
}

TEST_P(TwigProperty, HomContainmentSoundness) {
  Interner interner;
  common::Rng rng(GetParam() * 40503 + 11);
  xml::RandomTreeOptions tree_options;
  tree_options.alphabet_size = 3;
  tree_options.max_depth = 4;

  const TwigQuery q1 = RandomQuery(&rng, &interner, 3);
  const TwigQuery q2 = RandomQuery(&rng, &interner, 3);
  if (!ContainedInByHom(q1, q2)) return;
  for (int iter = 0; iter < 10; ++iter) {
    const xml::XmlTree doc =
        xml::GenerateRandomTree(tree_options, &rng, &interner);
    const auto s1 = Evaluate(q1, doc);
    const auto s2 = Evaluate(q2, doc);
    for (xml::NodeId v : s1) {
      EXPECT_TRUE(std::find(s2.begin(), s2.end(), v) != s2.end())
          << q1.ToString(interner) << " should be contained in "
          << q2.ToString(interner);
    }
  }
}

/// Adds a filter under query node `parent`, whose image is the inner
/// document node `image`: a real node below the image, reached by a child
/// axis (now and then a descendant axis) from a child, by a descendant
/// axis from a deeper node (not below the document root, which would
/// multiply the brute force's embeddings), labeled with its label, a
/// wildcard, or now and then a random label, with up to two nested filters
/// of its own.
void AddFilter(const xml::XmlTree& doc, xml::NodeId image, TwigQuery* q,
               QNodeId parent, int nesting, common::Rng* rng,
               const std::vector<SymbolId>& labels) {
  const std::vector<xml::NodeId>& kids = doc.children(image);
  xml::NodeId node = kids[rng->Index(kids.size())];
  Axis axis = rng->Bernoulli(0.8) ? Axis::kChild : Axis::kDescendant;
  if (image != doc.root() && rng->Bernoulli(0.4)) {
    const std::vector<xml::NodeId> below = doc.Descendants(image);
    node = below[rng->Index(below.size())];
    axis = doc.parent(node) == image && rng->Bernoulli(0.8)
               ? Axis::kChild
               : Axis::kDescendant;
  }
  SymbolId label = doc.label(node);
  if (axis == Axis::kChild && rng->Bernoulli(0.25)) {
    label = kWildcard;
  } else if (rng->Bernoulli(0.03)) {
    label = labels[rng->Index(labels.size())];
  }
  const QNodeId filter = q->AddNode(parent, axis, label);
  if (nesting < 2 && !doc.children(node).empty() && rng->Bernoulli(0.35)) {
    const int nested = 1 + static_cast<int>(rng->Uniform(2));
    for (int k = 0; k < nested; ++k) {
      AddFilter(doc, node, q, filter, nesting + 1, rng, labels);
    }
  }
}

/// A query around the inner document node `target`: a selection path
/// through some of its ancestors (child axes between consecutive ones,
/// descendant axes over gaps, wildcards on child axes) whose inner steps
/// carry 2 to 5 filters drawn from the document (always the selection
/// step), so sibling requirements interact.
TwigQuery WideFilterQuery(const xml::XmlTree& doc, xml::NodeId target,
                          common::Rng* rng,
                          const std::vector<SymbolId>& labels) {
  std::vector<xml::NodeId> path;
  for (xml::NodeId v = target; v != xml::kInvalidNode; v = doc.parent(v)) {
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  TwigQuery q;
  QNodeId cur = 0;
  bool consecutive = true;  // the virtual root is the root's parent
  for (size_t i = 0; i < path.size(); ++i) {
    const bool last = i + 1 == path.size();
    if (!last && rng->Bernoulli(0.4)) {
      consecutive = false;
      continue;
    }
    const Axis axis = consecutive && rng->Bernoulli(0.8) ? Axis::kChild
                                                         : Axis::kDescendant;
    const SymbolId label = axis == Axis::kChild && rng->Bernoulli(0.25)
                               ? kWildcard
                               : doc.label(path[i]);
    cur = q.AddNode(cur, axis, label);
    consecutive = true;
    if (last || (!doc.children(path[i]).empty() && rng->Bernoulli(0.5))) {
      const int filters = 2 + static_cast<int>(rng->Uniform(4));
      for (int f = 0; f < filters; ++f) {
        AddFilter(doc, path[i], &q, cur, 0, rng, labels);
      }
    }
  }
  q.set_selection(cur);
  return q;
}

/// `doc` rebuilt breadth first, so its ids are not in pre-order.
xml::XmlTree BreadthFirstCopy(const xml::XmlTree& doc) {
  xml::XmlTree out;
  out.AddRoot(doc.label(doc.root()));
  std::vector<std::pair<xml::NodeId, xml::NodeId>> queue{{doc.root(), 0}};
  for (size_t i = 0; i < queue.size(); ++i) {
    for (xml::NodeId c : doc.children(queue[i].first)) {
      queue.emplace_back(c, out.AddChild(queue[i].second, doc.label(c)));
    }
  }
  return out;
}

TEST_P(TwigProperty, WideFiltersMatchBruteForce) {
  Interner interner;
  common::Rng rng(GetParam() * 7919u + 3);
  xml::RandomTreeOptions tree_options;
  tree_options.alphabet_size = 4;
  tree_options.max_depth = 3;
  tree_options.max_children = 7;
  std::vector<SymbolId> labels;
  for (int i = 0; i < tree_options.alphabet_size; ++i) {
    labels.push_back(interner.Intern("l" + std::to_string(i)));
  }

  for (int iter = 0; iter < 4; ++iter) {
    // More than 64 nodes, so every row spans several words.
    xml::XmlTree doc;
    do {
      doc = xml::GenerateRandomTree(tree_options, &rng, &interner);
    } while (doc.NumNodes() <= 64);
    std::vector<xml::NodeId> inner;
    for (xml::NodeId v = 0; v < doc.NumNodes(); ++v) {
      if (!doc.children(v).empty()) inner.push_back(v);
    }
    // Filters multiply embeddings; a query past the budget is redrawn so
    // the brute force stays fast.
    constexpr size_t kMaxEmbeddings = 20000;
    TwigQuery q;
    size_t embeddings = 0;
    do {
      q = WideFilterQuery(doc, inner[rng.Index(inner.size())], &rng, labels);
      embeddings = 0;
      ForEachEmbedding(q, doc, [&](const std::vector<xml::NodeId>&) {
        return ++embeddings <= kMaxEmbeddings;
      });
    } while (embeddings > kMaxEmbeddings);
    for (const xml::XmlTree& d : {doc, BreadthFirstCopy(doc)}) {
      const std::vector<xml::NodeId> selected =
          TwigEvaluator(q, d).SelectedNodes();
      EXPECT_EQ(selected, BruteForceEvaluate(q, d)) << q.ToString(interner);

      // Every query node as the selection: the selection path then runs
      // through filters, whose siblings constrain each other.
      std::vector<std::set<xml::NodeId>> images(q.NumNodes());
      ForEachEmbedding(q, d, [&](const std::vector<xml::NodeId>& a) {
        for (QNodeId x = 1; x < q.NumNodes(); ++x) images[x].insert(a[x]);
        return true;
      });
      for (QNodeId x = 1; x < q.NumNodes(); ++x) {
        TwigQuery reselected = q;
        reselected.set_selection(x);
        EXPECT_EQ(TwigEvaluator(reselected, d).SelectedNodes(),
                  std::vector<xml::NodeId>(images[x].begin(), images[x].end()))
            << reselected.ToString(interner);
      }

      // MarkedTuples: the (selection, first filter) images of every
      // embedding.
      TwigQuery marked = q;
      marked.AddMarked(q.selection());
      marked.AddMarked(q.children(q.selection()).front());
      std::set<std::vector<xml::NodeId>> expected;
      ForEachEmbedding(marked, d, [&](const std::vector<xml::NodeId>& a) {
        expected.insert({a[marked.marked()[0]], a[marked.marked()[1]]});
        return true;
      });
      EXPECT_EQ(TwigEvaluator(marked, d).MarkedTuples(SIZE_MAX),
                std::vector<std::vector<xml::NodeId>>(expected.begin(),
                                                      expected.end()))
          << q.ToString(interner);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwigProperty, ::testing::Range(0, 25));

}  // namespace
}  // namespace twig
}  // namespace qlearn
