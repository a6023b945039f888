// Tests for twig learning: positive-only generalization (soundness and
// convergence), consistency checking with negatives, schema-aware filter
// pruning, the interactive protocol, and approximate learning.
#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "common/interner.h"
#include "common/rng.h"
#include "learn/approximate.h"
#include "learn/consistency.h"
#include "learn/interactive.h"
#include "learn/schema_aware.h"
#include "learn/twig_learner.h"
#include "twig/twig_containment.h"
#include "twig/twig_eval.h"
#include "twig/twig_parser.h"
#include "xml/xml_parser.h"

namespace qlearn {
namespace learn {
namespace {

using twig::TwigQuery;
using xml::NodeId;
using xml::XmlTree;

class LearnFixture : public ::testing::Test {
 protected:
  XmlTree Doc(const std::string& text) {
    auto t = xml::ParseXml(text, &interner_);
    EXPECT_TRUE(t.ok()) << text << ": " << t.status().ToString();
    return t.ok() ? std::move(t).value() : XmlTree();
  }

  TwigQuery Q(const std::string& text) {
    auto q = twig::ParseTwig(text, &interner_);
    EXPECT_TRUE(q.ok()) << text;
    return q.ok() ? std::move(q).value() : TwigQuery();
  }

  /// First node of `doc` with the given label (must exist).
  NodeId FindNode(const XmlTree& doc, const std::string& label,
                  int occurrence = 0) {
    int seen = 0;
    for (NodeId n : doc.PreOrder()) {
      if (interner_.Name(doc.label(n)) == label) {
        if (seen == occurrence) return n;
        ++seen;
      }
    }
    ADD_FAILURE() << "no node labeled " << label;
    return 0;
  }

  common::Interner interner_;
};

TEST_F(LearnFixture, ExampleToQuerySelectsTheExample) {
  const XmlTree doc = Doc("<a><b><c/></b><d/></a>");
  const NodeId c = FindNode(doc, "c");
  const TwigQuery q = ExampleToQuery(TreeExample{&doc, c});
  EXPECT_EQ(q.Size(), doc.NumNodes());
  EXPECT_TRUE(twig::Selects(q, doc, c));
  EXPECT_TRUE(q.IsAnchored());
}

TEST_F(LearnFixture, SingleExampleLearnsTheDocument) {
  const XmlTree doc = Doc("<a><b/></a>");
  auto learned = LearnTwig({TreeExample{&doc, FindNode(doc, "b")}});
  ASSERT_TRUE(learned.ok());
  EXPECT_TRUE(twig::Selects(learned.value(), doc, FindNode(doc, "b")));
}

TEST_F(LearnFixture, EqualDepthMismatchYieldsWildcard) {
  const XmlTree d1 = Doc("<r><x><n/></x></r>");
  const XmlTree d2 = Doc("<r><y><n/></y></r>");
  auto learned = LearnTwig({TreeExample{&d1, FindNode(d1, "n")},
                            TreeExample{&d2, FindNode(d2, "n")}});
  ASSERT_TRUE(learned.ok());
  EXPECT_EQ(learned.value().ToString(interner_), "/r/*/n");
}

TEST_F(LearnFixture, DepthMismatchYieldsDescendant) {
  const XmlTree d1 = Doc("<r><m><x><n/></x></m></r>");
  const XmlTree d2 = Doc("<r><m><n/></m></r>");
  auto learned = LearnTwig({TreeExample{&d1, FindNode(d1, "n")},
                            TreeExample{&d2, FindNode(d2, "n")}});
  ASSERT_TRUE(learned.ok());
  EXPECT_EQ(learned.value().ToString(interner_), "/r/m//n");
}

TEST_F(LearnFixture, CommonFiltersAreKept) {
  const XmlTree d1 = Doc("<r><p><age/><name/></p><p><name/></p></r>");
  const XmlTree d2 = Doc("<r><p><age/><name/><extra/></p></r>");
  // Select the name under the p that has an age, in both documents.
  const NodeId n1 = FindNode(d1, "name", 0);
  const NodeId n2 = FindNode(d2, "name", 0);
  auto learned = LearnTwig({TreeExample{&d1, n1}, TreeExample{&d2, n2}});
  ASSERT_TRUE(learned.ok());
  // The [age] filter distinguishes the two p's in d1.
  const auto selected = twig::Evaluate(learned.value(), d1);
  EXPECT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0], n1);
  EXPECT_TRUE(twig::Selects(learned.value(), d2, n2));
}

TEST_F(LearnFixture, LearnerIsSoundOnRandomCorpora) {
  // Whatever the examples, the learned query must select every one of them.
  common::Rng rng(77);
  const char* labels[] = {"a", "b", "c"};
  for (int iter = 0; iter < 40; ++iter) {
    // Random documents sharing the root label.
    std::vector<XmlTree> docs(3);
    std::vector<TreeExample> examples;
    for (auto& doc : docs) {
      doc.AddRoot(interner_.Intern("root"));
      std::vector<NodeId> pool{doc.root()};
      const int grow = 3 + static_cast<int>(rng.Uniform(10));
      for (int i = 0; i < grow; ++i) {
        const NodeId parent = pool[rng.Index(pool.size())];
        pool.push_back(
            doc.AddChild(parent, interner_.Intern(labels[rng.Index(3)])));
      }
    }
    // Use nodes with a common label as examples (fall back to root's child).
    for (auto& doc : docs) {
      std::vector<NodeId> as;
      for (NodeId n : doc.PreOrder()) {
        if (interner_.Name(doc.label(n)) == "a") as.push_back(n);
      }
      if (as.empty()) break;
      examples.push_back(TreeExample{&doc, as[rng.Index(as.size())]});
    }
    if (examples.size() != docs.size()) continue;
    auto learned = LearnTwig(examples);
    if (!learned.ok()) continue;  // no anchored generalization: acceptable
    for (const TreeExample& e : examples) {
      EXPECT_TRUE(twig::Selects(learned.value(), *e.doc, e.node))
          << learned.value().ToString(interner_);
    }
    EXPECT_TRUE(learned.value().IsAnchored());
  }
}

TEST_F(LearnFixture, ConvergesToGoalOnCharacteristicExamples) {
  // Goal: //person[age]/name over person-registry documents.
  const TwigQuery goal = Q("/site/people/person[age]/name");
  const XmlTree d1 = Doc(
      "<site><people>"
      "<person><age/><name/></person>"
      "<person><name/></person>"
      "</people></site>");
  const XmlTree d2 = Doc(
      "<site><people>"
      "<person><age/><name/><phone/></person>"
      "</people></site>");
  const NodeId n1 = FindNode(d1, "name", 0);
  const NodeId n2 = FindNode(d2, "name", 0);
  ASSERT_TRUE(twig::Selects(goal, d1, n1));
  ASSERT_TRUE(twig::Selects(goal, d2, n2));
  auto learned = LearnTwig({TreeExample{&d1, n1}, TreeExample{&d2, n2}});
  ASSERT_TRUE(learned.ok());
  EXPECT_TRUE(twig::EquivalentExact(learned.value(), goal, &interner_))
      << learned.value().ToString(interner_);
}

TEST_F(LearnFixture, GeneralizePairFailsOutsideAnchoredClass) {
  // Different selection labels at different depths admit no anchored
  // generalization.
  const XmlTree d1 = Doc("<r><a/></r>");
  const XmlTree d2 = Doc("<r><m><b/></m></r>");
  auto learned = LearnTwig({TreeExample{&d1, FindNode(d1, "a")},
                            TreeExample{&d2, FindNode(d2, "b")}});
  EXPECT_FALSE(learned.ok());
}

TEST_F(LearnFixture, SelectionAtVirtualRootIsInvalidArgument) {
  // A query selecting the virtual root has an empty selection path: there
  // is nothing to align, so every entry point refuses it instead of
  // reading past the alignment table.
  const XmlTree d = Doc("<r><a/><b/></r>");
  const TwigQuery example = ExampleToQuery(TreeExample{&d, FindNode(d, "a")});
  TwigQuery root_selected = ExampleToQuery(TreeExample{&d, FindNode(d, "b")});
  root_selected.set_selection(0);
  const TwigQuery& at_root = root_selected;
  for (const auto& [q1, q2] : {std::pair{&at_root, &example},
                               std::pair{&example, &at_root},
                               std::pair{&at_root, &at_root}}) {
    auto g = GeneralizePair(*q1, *q2);
    EXPECT_EQ(g.status().code(), common::StatusCode::kInvalidArgument)
        << g.status().ToString();
    auto built = BuildAlignedPattern(*q1, *q2, {AlignmentStep{0, 0, false}},
                                     TwigLearnerOptions{});
    EXPECT_EQ(built.status().code(), common::StatusCode::kInvalidArgument)
        << built.status().ToString();
    EXPECT_TRUE(
        EnumerateGeneralizations(*q1, *q2, TwigLearnerOptions{}, 4).empty());
  }
}

TEST_F(LearnFixture, ConsistencyConsistentCase) {
  const XmlTree d = Doc(
      "<r><p><a/><n/></p><p><n/></p></r>");
  // Positive: the n with an a-sibling; negative: the other n.
  const NodeId pos = FindNode(d, "n", 0);
  const NodeId neg = FindNode(d, "n", 1);
  const auto report =
      CheckTwigConsistency({TreeExample{&d, pos}}, {TreeExample{&d, neg}});
  ASSERT_EQ(report.verdict, Consistency::kConsistent);
  ASSERT_TRUE(report.witness.has_value());
  EXPECT_TRUE(twig::Selects(*report.witness, d, pos));
  EXPECT_FALSE(twig::Selects(*report.witness, d, neg));
}

TEST_F(LearnFixture, ConsistencyInconsistentCase) {
  // Positive and negative are indistinguishable (same node context).
  const XmlTree d = Doc("<r><n/><n/></r>");
  const auto report = CheckTwigConsistency({TreeExample{&d, FindNode(d, "n", 0)}},
                                           {TreeExample{&d, FindNode(d, "n", 1)}});
  EXPECT_EQ(report.verdict, Consistency::kInconsistent);
}

TEST_F(LearnFixture, ConsistencyMultiplePositives) {
  const XmlTree d = Doc(
      "<r><p><a/><n/></p><p><a/><n/></p><p><n/></p></r>");
  const NodeId p0 = FindNode(d, "n", 0);
  const NodeId p1 = FindNode(d, "n", 1);
  const NodeId neg = FindNode(d, "n", 2);
  const auto report = CheckTwigConsistency(
      {TreeExample{&d, p0}, TreeExample{&d, p1}}, {TreeExample{&d, neg}});
  ASSERT_EQ(report.verdict, Consistency::kConsistent);
  EXPECT_TRUE(twig::Selects(*report.witness, d, p0));
  EXPECT_TRUE(twig::Selects(*report.witness, d, p1));
  EXPECT_FALSE(twig::Selects(*report.witness, d, neg));
}

TEST_F(LearnFixture, ConsistencyEmptyPositives) {
  const XmlTree d = Doc("<r><n/></r>");
  const auto report =
      CheckTwigConsistency({}, {TreeExample{&d, FindNode(d, "n")}});
  EXPECT_EQ(report.verdict, Consistency::kConsistent);
}

TEST_F(LearnFixture, ConsistencyFastPathAndEnumerationAgree) {
  // The PTIME canonical certificate and the exhaustive enumeration must
  // reach the same verdict on both a consistent and an inconsistent sample.
  const XmlTree d = Doc("<r><p><a/><n/></p><p><n/></p></r>");
  const std::vector<TreeExample> pos = {{&d, FindNode(d, "n", 0)}};
  const std::vector<TreeExample> neg = {{&d, FindNode(d, "n", 1)}};
  ConsistencyOptions with_fast;
  ConsistencyOptions without_fast;
  without_fast.canonical_fast_path = false;
  EXPECT_EQ(CheckTwigConsistency(pos, neg, with_fast).verdict,
            CheckTwigConsistency(pos, neg, without_fast).verdict);

  const XmlTree twin = Doc("<r><n/><n/></r>");
  const std::vector<TreeExample> tp = {{&twin, FindNode(twin, "n", 0)}};
  const std::vector<TreeExample> tn = {{&twin, FindNode(twin, "n", 1)}};
  EXPECT_EQ(CheckTwigConsistency(tp, tn, with_fast).verdict,
            CheckTwigConsistency(tp, tn, without_fast).verdict);
}

TEST_F(LearnFixture, ConsistencyDfsBudgetReportsUnknown) {
  // Two long same-label chains have exponentially many alignments; with a
  // starved DFS budget (and no fast path) the checker must answer kUnknown
  // rather than silently claiming inconsistency.
  std::string text;
  for (int i = 0; i < 12; ++i) text += "<a>";
  text += "<m/>";
  for (int i = 0; i < 12; ++i) text += "</a>";
  const XmlTree d1 = Doc(text);
  const XmlTree d2 = Doc(text);
  ConsistencyOptions options;
  options.canonical_fast_path = false;
  options.max_dfs_steps = 2;
  options.max_candidates = 1;
  const auto report = CheckTwigConsistency(
      {TreeExample{&d1, FindNode(d1, "a", 5)},
       TreeExample{&d2, FindNode(d2, "a", 7)}},
      {TreeExample{&d1, FindNode(d1, "a", 0)}}, options);
  EXPECT_EQ(report.verdict, Consistency::kUnknown);
}

TEST_F(LearnFixture, SchemaAwarePruningRemovesImpliedFilters) {
  // Schema: every person has a name; age is optional.
  schema::Ms ms(interner_.Intern("site"));
  auto S = [&](const char* s) { return interner_.Intern(s); };
  ms.SetMultiplicity(S("site"), S("people"), schema::Multiplicity::kOne);
  ms.SetMultiplicity(S("people"), S("person"), schema::Multiplicity::kStar);
  ms.SetMultiplicity(S("person"), S("name"), schema::Multiplicity::kOne);
  ms.SetMultiplicity(S("person"), S("age"), schema::Multiplicity::kOpt);

  const TwigQuery overspecialized = Q("/site/people/person[name][age]");
  const TwigQuery pruned = PruneImpliedFilters(overspecialized, ms);
  // [name] is implied by the schema, [age] is not.
  EXPECT_EQ(pruned.ToString(interner_), "/site/people/person[age]");
}

TEST_F(LearnFixture, SchemaAwarePruningKeepsSemanticsOnValidDocs) {
  schema::Ms ms(interner_.Intern("r"));
  auto S = [&](const char* s) { return interner_.Intern(s); };
  ms.SetMultiplicity(S("r"), S("p"), schema::Multiplicity::kPlus);
  ms.SetMultiplicity(S("p"), S("n"), schema::Multiplicity::kOne);
  ms.SetMultiplicity(S("p"), S("x"), schema::Multiplicity::kOpt);

  const TwigQuery q = Q("/r/p[n][x]");
  const TwigQuery pruned = PruneImpliedFilters(q, ms);
  EXPECT_LT(pruned.Size(), q.Size());
  // On valid documents the two queries agree.
  for (const char* text :
       {"<r><p><n/></p></r>", "<r><p><n/><x/></p><p><n/></p></r>"}) {
    const XmlTree doc = Doc(text);
    ASSERT_TRUE(ms.Validates(doc));
    EXPECT_EQ(twig::Evaluate(q, doc), twig::Evaluate(pruned, doc)) << text;
  }
}

TEST_F(LearnFixture, LearnTwigWithSchemaReportsSizes) {
  schema::Ms ms(interner_.Intern("site"));
  auto S = [&](const char* s) { return interner_.Intern(s); };
  ms.SetMultiplicity(S("site"), S("people"), schema::Multiplicity::kOne);
  ms.SetMultiplicity(S("people"), S("person"), schema::Multiplicity::kStar);
  ms.SetMultiplicity(S("person"), S("name"), schema::Multiplicity::kOne);
  ms.SetMultiplicity(S("person"), S("age"), schema::Multiplicity::kOpt);

  const XmlTree d1 = Doc(
      "<site><people><person><name/><age/></person>"
      "<person><name/></person></people></site>");
  const XmlTree d2 = Doc(
      "<site><people><person><name/><age/></person></people></site>");
  const NodeId a1 = FindNode(d1, "age");
  const NodeId a2 = FindNode(d2, "age");
  auto result = LearnTwigWithSchema(
      {TreeExample{&d1, a1}, TreeExample{&d2, a2}}, ms);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().size_after, result.value().size_before);
  EXPECT_TRUE(twig::Selects(result.value().after, d1, a1));
}

TEST_F(LearnFixture, InteractiveSessionRecoversGoal) {
  const XmlTree doc = Doc(
      "<site><people>"
      "<person><age/><name/></person>"
      "<person><name/></person>"
      "<person><age/><name/></person>"
      "</people></site>");
  GoalTwigOracle oracle(Q("/site/people/person[age]/name"));
  const NodeId seed = FindNode(doc, "name", 0);
  ASSERT_TRUE(oracle.IsPositive(doc, seed));

  InteractiveTwigOptions options;
  auto result = RunInteractiveTwigSession(doc, seed, &oracle, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().conflicts, 0u);
  // The learned query agrees with the goal on the document.
  const TwigQuery goal = Q("/site/people/person[age]/name");
  EXPECT_EQ(twig::Evaluate(result.value().query, doc),
            twig::Evaluate(goal, doc));
  // Uninformative nodes were inferred, not asked: far fewer questions than
  // nodes.
  EXPECT_LT(result.value().questions, doc.NumNodes() - 1);
  EXPECT_GT(result.value().forced_positive + result.value().forced_negative,
            0u);
}

TEST_F(LearnFixture, InteractiveRandomStrategyAlsoTerminates) {
  const XmlTree doc = Doc(
      "<r><p><a/><n/></p><p><n/></p><p><a/><n/></p></r>");
  GoalTwigOracle oracle(Q("/r/p[a]/n"));
  InteractiveTwigOptions options;
  options.strategy = TwigStrategy::kRandom;
  options.seed = 3;
  auto result =
      RunInteractiveTwigSession(doc, FindNode(doc, "n", 0), &oracle, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().conflicts, 0u);
}

TEST_F(LearnFixture, InteractiveRejectsNegativeSeed) {
  const XmlTree doc = Doc("<r><n/></r>");
  GoalTwigOracle oracle(Q("/r/missing"));
  EXPECT_FALSE(
      RunInteractiveTwigSession(doc, FindNode(doc, "n"), &oracle, {}).ok());
}

TEST_F(LearnFixture, InteractiveSessionRejectsNullOracle) {
  const XmlTree doc = Doc("<r><n/></r>");
  EXPECT_FALSE(
      RunInteractiveTwigSession(doc, FindNode(doc, "n"), nullptr, {}).ok());
}

TEST_F(LearnFixture, ApproximateConsistentWhenPossible) {
  const XmlTree d = Doc("<r><p><a/><n/></p><p><n/></p></r>");
  auto result = LearnTwigApproximate({TreeExample{&d, FindNode(d, "n", 0)}},
                                     {TreeExample{&d, FindNode(d, "n", 1)}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().false_positives, 0u);
  EXPECT_EQ(result.value().false_negatives, 0u);
}

TEST_F(LearnFixture, ApproximateMinimizesErrorWhenInconsistent) {
  // Two identical n's labeled oppositely: any query errs at least once.
  const XmlTree d = Doc("<r><n/><n/></r>");
  auto result = LearnTwigApproximate({TreeExample{&d, FindNode(d, "n", 0)}},
                                     {TreeExample{&d, FindNode(d, "n", 1)}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().false_positives + result.value().false_negatives,
            1u);
}

TEST_F(LearnFixture, ApproximateToleratesOutlierPositive) {
  // Two clean positives under p[a], one outlier elsewhere; the best
  // hypothesis sacrifices the outlier rather than over-generalize into the
  // negatives.
  const XmlTree d = Doc(
      "<r><p><a/><n/></p><p><a/><n/></p><q><n/></q>"
      "<p><n/></p></r>");
  const NodeId clean1 = FindNode(d, "n", 0);
  const NodeId clean2 = FindNode(d, "n", 1);
  const NodeId outlier = FindNode(d, "n", 2);
  const NodeId neg = FindNode(d, "n", 3);
  auto result = LearnTwigApproximate(
      {TreeExample{&d, clean1}, TreeExample{&d, clean2},
       TreeExample{&d, outlier}},
      {TreeExample{&d, neg}});
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().false_positives + result.value().false_negatives,
            1u);
}

}  // namespace
}  // namespace learn
}  // namespace qlearn
