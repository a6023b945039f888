// Delta-propagation layer tests (session/propagation.h and the four
// engines' per-answer Propagate flushes):
//   * PropagationIndex unit tests — the delta queue and full-pass flags;
//   * witness-plane lifecycle on the engines — lazy twig build on the first
//     negative delta, invalidation on hypothesis change, eager agreement
//     planes over mask classes for the relational engines;
//   * the PathEngine conflict-check regression (a negative answer tests
//     only the new word; only a hypothesis change sweeps all negatives),
//     pinning conflict counts;
//   * parity property tests: random documents / relations / graphs driven
//     by goal and adversarial oracles, asserting delta propagation
//     produces identical question sequences, frontier states, stats, and
//     hypotheses to the reference full-rescan implementation, across all
//     four engines and both single-question and batched flows.
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/interner.h"
#include "common/rng.h"
#include "glearn/interactive_path.h"
#include "graph/geo_generator.h"
#include "graph/graph.h"
#include "graph/path_query.h"
#include "learn/interactive.h"
#include "relational/generator.h"
#include "rlearn/interactive_chain.h"
#include "rlearn/interactive_join.h"
#include "session/candidate_store.h"
#include "session/propagation.h"
#include "session/session.h"
#include "twig/twig_parser.h"
#include "xml/random_tree.h"
#include "xml/xml_parser.h"

namespace qlearn {
namespace {

using session::PropagationIndex;

// ---------------------------------------------------------------------------
// PropagationIndex unit tests.

TEST(PropagationIndexTest, DeltaQueueLifecycle) {
  PropagationIndex<uint64_t> index;
  // Fresh index: the baseline full pass is owed.
  EXPECT_TRUE(index.NeedsFullPass());
  index.MarkFullPassDone();
  EXPECT_FALSE(index.NeedsFullPass());

  index.RecordNegative(42);
  index.RecordNegative(7);
  EXPECT_TRUE(index.HasPendingDeltas());
  EXPECT_FALSE(index.NeedsFullPass());  // negatives alone stay incremental
  const std::vector<uint64_t>* batch = &index.DrainDeltas();
  EXPECT_EQ(*batch, (std::vector<uint64_t>{42, 7}));
  EXPECT_FALSE(index.HasPendingDeltas());
  // The queue and the drained batch trade buffers instead of reallocating:
  // after two more drains the first batch's buffer is back in use.
  const uint64_t* first_buffer = batch->data();
  index.RecordNegative(5);
  batch = &index.DrainDeltas();
  EXPECT_EQ(*batch, (std::vector<uint64_t>{5}));
  index.RecordNegative(6);
  index.RecordNegative(8);
  batch = &index.DrainDeltas();
  EXPECT_EQ(*batch, (std::vector<uint64_t>{6, 8}));
  EXPECT_EQ(batch->data(), first_buffer);

  index.RecordHypothesisChange();
  EXPECT_TRUE(index.NeedsFullPass());
  index.RecordNegative(3);
  index.MarkFullPassDone();  // full pass subsumes the queued negative
  EXPECT_FALSE(index.NeedsFullPass());
  EXPECT_FALSE(index.HasPendingDeltas());
}

// ---------------------------------------------------------------------------
// Witness-index lifecycle on the engines.

/// People-directory document shared by the twig tests (bench shape).
xml::XmlTree PeopleDoc(common::Interner* interner, int persons) {
  std::string text = "<site><people>";
  for (int i = 0; i < persons; ++i) {
    switch (i % 4) {
      case 0: text += "<person><name/><age/><phone/></person>"; break;
      case 1: text += "<person><name/></person>"; break;
      case 2: text += "<person><name/><age/></person>"; break;
      default: text += "<person><name/><homepage/></person>"; break;
    }
  }
  text += "</people></site>";
  return xml::ParseXml(text, interner).value();
}

/// First node the goal selects (the session seed).
xml::NodeId GoalSeed(const twig::TwigQuery& goal, const xml::XmlTree& doc) {
  for (xml::NodeId v = 0; v < doc.NumNodes(); ++v) {
    if (twig::Selects(goal, doc, v)) return v;
  }
  return xml::kInvalidNode;
}

TEST(WitnessIndexLifecycleTest, TwigBuildsLazilyAndInvalidatesOnChange) {
  common::Interner interner;
  const xml::XmlTree doc = PeopleDoc(&interner, 8);
  auto goal = twig::ParseTwig("/site/people/person[age]/name", &interner);
  ASSERT_TRUE(goal.ok());
  const xml::NodeId seed = GoalSeed(goal.value(), doc);
  ASSERT_NE(seed, xml::kInvalidNode);

  learn::TwigEngine engine(&doc, seed);
  session::SessionStats stats;
  engine.Propagate(&stats);  // baseline full pass
  // Lazy: the baseline does not build node buckets — only a negative
  // delta demands them.
  EXPECT_FALSE(engine.WitnessIndexValidForTest());

  auto open = [&](xml::NodeId v) {
    return v != seed && !engine.WasAsked(v) && !engine.HasForcedLabel(v);
  };
  // Answer one open goal-negative node negatively.
  xml::NodeId negative = xml::kInvalidNode;
  for (xml::NodeId v = 0; v < doc.NumNodes(); ++v) {
    if (open(v) && !twig::Selects(goal.value(), doc, v)) {
      negative = v;
      break;
    }
  }
  ASSERT_NE(negative, xml::kInvalidNode);
  engine.MarkAsked(negative);
  engine.Observe(negative, false, &stats);
  engine.OnNegative(negative);
  engine.Propagate(&stats);
  EXPECT_TRUE(engine.WitnessIndexValidForTest());
  EXPECT_GT(engine.WitnessBucketsForTest(), 0u);

  // A positive that generalizes the hypothesis invalidates the index; the
  // next negative delta rebuilds it.
  xml::NodeId positive = xml::kInvalidNode;
  for (xml::NodeId v = 0; v < doc.NumNodes(); ++v) {
    if (open(v) && twig::Selects(goal.value(), doc, v)) {
      positive = v;
      break;
    }
  }
  ASSERT_NE(positive, xml::kInvalidNode);
  engine.MarkAsked(positive);
  engine.Observe(positive, true, &stats);
  engine.OnPositive(positive);
  ASSERT_EQ(stats.conflicts, 0u);  // in-class generalization
  engine.Propagate(&stats);
  EXPECT_FALSE(engine.WitnessIndexValidForTest());

  xml::NodeId second_negative = xml::kInvalidNode;
  for (xml::NodeId v = 0; v < doc.NumNodes(); ++v) {
    if (open(v) && !twig::Selects(goal.value(), doc, v)) {
      second_negative = v;
      break;
    }
  }
  ASSERT_NE(second_negative, xml::kInvalidNode);
  engine.MarkAsked(second_negative);
  engine.Observe(second_negative, false, &stats);
  engine.OnNegative(second_negative);
  engine.Propagate(&stats);
  EXPECT_TRUE(engine.WitnessIndexValidForTest());
}

TEST(WitnessIndexLifecycleTest, JoinBucketsEagerlyOnBaseline) {
  relational::JoinInstanceOptions options;
  options.seed = 77;
  options.left_rows = 8;
  options.right_rows = 8;
  options.left_arity = 3;
  options.right_arity = 3;
  options.domain_size = 4;
  const relational::JoinInstance inst =
      relational::GenerateJoinInstance(options, 2);
  auto universe = rlearn::PairUniverse::AllCompatible(inst.left.schema(),
                                                      inst.right.schema());
  ASSERT_TRUE(universe.ok());

  rlearn::JoinEngine engine(&universe.value(), &inst.left, &inst.right);
  session::SessionStats stats;
  engine.Propagate(&stats);  // baseline classification pass
  // The SoA store holds one slot per agreement-mask class: its capacity is
  // the number of distinct masks among the pairs, and pairs share a class
  // iff they share a mask.
  const session::CandidateStore& store = engine.StoreForTest();
  EXPECT_EQ(store.num_planes(), universe.value().size());
  std::map<rlearn::PairMask, size_t> class_of_mask;
  const size_t right_rows = inst.right.size();
  for (size_t k = 0; k < engine.candidate_pairs(); ++k) {
    const rlearn::PairMask mask = universe.value().AgreeMask(
        inst.left.row(k / right_rows), inst.right.row(k % right_rows));
    const auto [it, inserted] =
        class_of_mask.try_emplace(mask, engine.ClassOfForTest(k));
    EXPECT_EQ(it->second, engine.ClassOfForTest(k)) << "pair " << k;
  }
  EXPECT_EQ(store.capacity(), class_of_mask.size());
  EXPECT_LT(store.capacity(), engine.candidate_pairs());

  // Nothing was asked yet, so a pair is open iff it has no forced label.
  // A class's bit in the frontier's open words is set iff it has an open
  // member, and the words span the store's slot axis.
  const std::vector<uint64_t>& open_words = engine.OpenClassWordsForTest();
  EXPECT_EQ(open_words.size(), store.words());
  std::vector<size_t> open_members(store.capacity(), 0);
  size_t open = 0;
  for (size_t k = 0; k < engine.candidate_pairs(); ++k) {
    const rlearn::PairExample pair{k / right_rows, k % right_rows};
    if (engine.HasForcedLabel(pair)) continue;
    ++open;
    ++open_members[engine.ClassOfForTest(k)];
  }
  EXPECT_GT(open, 0u);
  size_t open_classes = 0;
  for (size_t c = 0; c < store.capacity(); ++c) {
    const bool open_bit = ((open_words[c / 64] >> (c % 64)) & 1) != 0;
    EXPECT_EQ(open_bit, open_members[c] > 0) << "class " << c;
    if (open_members[c] > 0) ++open_classes;
  }
  size_t open_bits = 0;
  for (const uint64_t w : open_words) open_bits += static_cast<size_t>(std::popcount(w));
  EXPECT_EQ(open_classes, open_bits);  // no bit beyond the last class
  // The baseline pass settles the uninformative pairs (forced either way):
  // open members plus forced labels cover every pair.
  EXPECT_LT(open, engine.candidate_pairs());
  EXPECT_EQ(open + stats.forced_positive + stats.forced_negative,
            engine.candidate_pairs());
}

// ---------------------------------------------------------------------------
// PathEngine conflict-check regression (satellite of the delta refactor):
// a negative answer must test only the new word against the hypothesis;
// a hypothesis change must sweep all accumulated negatives. Conflict
// counts are pinned.

/// Two vertices, four parallel edges: two labeled "a" (e0, e1), two
/// labeled "b" (e2, e3). Single-edge candidates give duplicate words,
/// which is exactly what the mid-batch conflict scenarios need.
struct ParallelEdgeGraph {
  ParallelEdgeGraph() {
    const graph::VertexId v0 = g.AddVertex("v0");
    const graph::VertexId v1 = g.AddVertex("v1");
    const common::SymbolId a = interner.Intern("a");
    const common::SymbolId b = interner.Intern("b");
    e0 = g.AddEdge(v0, v1, a);
    e1 = g.AddEdge(v0, v1, a);
    e2 = g.AddEdge(v0, v1, b);
    e3 = g.AddEdge(v0, v1, b);
  }

  /// Candidate index of the single-edge path over `edge` (the engine
  /// enumerates via graph::EnumeratePaths, replicated here).
  size_t CandidateOf(graph::EdgeId edge) {
    if (paths.empty()) paths = graph::EnumeratePaths(g, 1, 4000);
    for (size_t k = 0; k < paths.size(); ++k) {
      if (paths[k].edges.size() == 1 && paths[k].edges[0] == edge) return k;
    }
    ADD_FAILURE() << "no single-edge candidate over edge " << edge;
    return 0;
  }

  glearn::PathEngine::Question QuestionOf(graph::EdgeId edge) {
    const size_t k = CandidateOf(edge);
    words.push_back(graph::PathWord(g, paths[k]));
    return glearn::PathEngine::Question{k, &paths[k], &words.back()};
  }

  common::Interner interner;
  graph::Graph g;
  graph::EdgeId e0, e1, e2, e3;
  std::vector<graph::Path> paths;
  std::deque<std::vector<common::SymbolId>> words;
};

TEST(PathConflictRegressionTest, NegativeAnswerTestsOnlyTheNewWord) {
  // Mid-batch shape: the pending question's word is already covered by the
  // hypothesis when its negative answer arrives. The new-word check alone
  // must catch it — one conflict, aborted.
  ParallelEdgeGraph fixture;
  glearn::InteractivePathOptions options;
  options.max_path_edges = 1;
  glearn::PathEngine engine(&fixture.g, graph::Path{0, {fixture.e0}}, options);

  session::SessionStats stats;
  const auto q = fixture.QuestionOf(fixture.e1);  // word [a] == seed word
  engine.MarkAsked(q);
  engine.Observe(q, false, &stats);
  EXPECT_EQ(stats.conflicts, 1u);
  EXPECT_TRUE(engine.Aborted());
}

TEST(PathConflictRegressionTest, HypothesisChangeSweepsAccumulatedNegatives) {
  // Batch of two [b]-word questions: the first is answered negative (no
  // conflict — the hypothesis "a" rejects [b]), the second positive. The
  // generalization must absorb [b], so the full sweep over accumulated
  // negatives now fires — one conflict, aborted.
  ParallelEdgeGraph fixture;
  glearn::InteractivePathOptions options;
  options.max_path_edges = 1;
  glearn::PathEngine engine(&fixture.g, graph::Path{0, {fixture.e0}}, options);

  session::SessionStats stats;
  engine.Propagate(&stats);  // baseline: forces both [a] paths positive
  EXPECT_EQ(stats.forced_positive, 2u);

  const auto q_neg = fixture.QuestionOf(fixture.e2);
  const auto q_pos = fixture.QuestionOf(fixture.e3);
  engine.MarkAsked(q_neg);
  engine.MarkAsked(q_pos);
  engine.Observe(q_neg, false, &stats);
  engine.OnNegative(q_neg);
  EXPECT_EQ(stats.conflicts, 0u);  // only the new word is tested: rejected
  EXPECT_FALSE(engine.Aborted());
  engine.Observe(q_pos, true, &stats);
  engine.OnPositive(q_pos);
  EXPECT_EQ(stats.conflicts, 1u);  // full sweep after the hypothesis grew
  EXPECT_TRUE(engine.Aborted());
}

// ---------------------------------------------------------------------------
// Parity property tests: delta propagation vs the reference full rescan.

/// Deterministic adversarial labeler: a hash of the item's wire ids. Not
/// expressible in any of the hypothesis classes, so it exercises the
/// conflict / abort paths too.
template <typename Engine>
bool HashLabel(const typename Engine::Item& item, uint64_t salt) {
  uint64_t h = salt * 0x9e3779b97f4a7c15ULL + 0x100000001b3ULL;
  for (uint64_t id : Engine::ItemIds(item)) {
    h = (h ^ (id + 0x9e3779b97f4a7c15ULL)) * 0x100000001b3ULL;
  }
  return ((h >> 33) & 1) != 0;
}

/// Drives two identically-configured engines in lockstep — one on delta
/// propagation, one replaying the historical full rescan — and asserts
/// identical question sequences, stats, and per-candidate frontier states
/// after every answered batch.
template <typename Engine, typename OracleFn, typename CompareFn>
void RunLockstep(Engine delta_engine, Engine reference_engine, OracleFn oracle,
                 CompareFn compare_engines, size_t batch) {
  reference_engine.set_reference_propagation(true);
  session::LearningSession<Engine> delta(std::move(delta_engine));
  session::LearningSession<Engine> reference(std::move(reference_engine));
  for (int round = 0; round < 100000; ++round) {
    const auto questions = delta.NextQuestions(batch);
    const auto expected = reference.NextQuestions(batch);
    ASSERT_EQ(questions.size(), expected.size()) << "batch size diverged";
    for (size_t i = 0; i < questions.size(); ++i) {
      ASSERT_EQ(Engine::ItemIds(questions[i]), Engine::ItemIds(expected[i]))
          << "question " << i << " of batch " << round << " diverged";
    }
    if (questions.empty()) break;
    std::vector<bool> labels;
    labels.reserve(questions.size());
    for (const auto& question : questions) labels.push_back(oracle(question));
    delta.AnswerAll(labels);
    reference.AnswerAll(labels);

    const session::SessionStats& got = delta.stats();
    const session::SessionStats& want = reference.stats();
    ASSERT_EQ(got.questions, want.questions);
    ASSERT_EQ(got.forced_positive, want.forced_positive) << "batch " << round;
    ASSERT_EQ(got.forced_negative, want.forced_negative) << "batch " << round;
    ASSERT_EQ(got.conflicts, want.conflicts) << "batch " << round;
    compare_engines(delta.engine(), reference.engine());
    if (::testing::Test::HasFatalFailure()) return;
  }
  delta.Finish();
  reference.Finish();
  ASSERT_EQ(delta.stats().forced_positive, reference.stats().forced_positive);
  ASSERT_EQ(delta.stats().forced_negative, reference.stats().forced_negative);
  ASSERT_EQ(delta.stats().conflicts, reference.stats().conflicts);
}

TEST(PropagationParityTest, TwigGoalAndAdversarialOracles) {
  common::Interner interner;
  const xml::XmlTree people = PeopleDoc(&interner, 10);
  auto goal = twig::ParseTwig("/site/people/person[age]/name", &interner);
  ASSERT_TRUE(goal.ok());
  const xml::NodeId people_seed = GoalSeed(goal.value(), people);
  ASSERT_NE(people_seed, xml::kInvalidNode);

  auto compare = [&](const learn::TwigEngine& a, const learn::TwigEngine& b) {
    for (xml::NodeId v = 0; v < people.NumNodes(); ++v) {
      ASSERT_EQ(a.WasAsked(v), b.WasAsked(v)) << "node " << v;
      ASSERT_EQ(a.HasForcedLabel(v), b.HasForcedLabel(v)) << "node " << v;
    }
  };
  for (size_t batch : {size_t{1}, size_t{3}}) {
    RunLockstep(
        learn::TwigEngine(&people, people_seed),
        learn::TwigEngine(&people, people_seed),
        [&](xml::NodeId v) { return twig::Selects(goal.value(), people, v); },
        compare, batch);
    RunLockstep(
        learn::TwigEngine(&people, people_seed),
        learn::TwigEngine(&people, people_seed),
        [&](xml::NodeId v) {
          return HashLabel<learn::TwigEngine>(v, 11 + batch);
        },
        compare, batch);
  }
}

TEST(PropagationParityTest, TwigRandomDocuments) {
  // Random trees under the adversarial oracle: conflicts, out-of-class
  // candidates, and forced-negative → forced-positive upgrades all occur.
  for (uint64_t seed : {4u, 9u, 23u}) {
    common::Interner interner;
    common::Rng rng(seed);
    xml::RandomTreeOptions tree_options;
    tree_options.max_depth = 3;
    tree_options.max_children = 3;
    const xml::XmlTree doc =
        xml::GenerateRandomTree(tree_options, &rng, &interner);
    if (doc.NumNodes() < 4) continue;
    const xml::NodeId seed_node = static_cast<xml::NodeId>(doc.NumNodes() / 2);
    auto compare = [&](const learn::TwigEngine& a, const learn::TwigEngine& b) {
      for (xml::NodeId v = 0; v < doc.NumNodes(); ++v) {
        ASSERT_EQ(a.WasAsked(v), b.WasAsked(v)) << "node " << v;
        ASSERT_EQ(a.HasForcedLabel(v), b.HasForcedLabel(v)) << "node " << v;
      }
    };
    RunLockstep(
        learn::TwigEngine(&doc, seed_node), learn::TwigEngine(&doc, seed_node),
        [&](xml::NodeId v) { return HashLabel<learn::TwigEngine>(v, seed); },
        compare, seed % 3 + 1);
  }
}

TEST(PropagationParityTest, JoinGoalAndAdversarialOracles) {
  for (uint64_t seed : {5u, 31u, 77u}) {
    relational::JoinInstanceOptions options;
    options.seed = seed;
    options.left_rows = 9;
    options.right_rows = 9;
    options.left_arity = 3;
    options.right_arity = 3;
    options.domain_size = 4;
    const relational::JoinInstance inst =
        relational::GenerateJoinInstance(options, 2);
    auto universe = rlearn::PairUniverse::AllCompatible(inst.left.schema(),
                                                        inst.right.schema());
    ASSERT_TRUE(universe.ok());
    rlearn::PairMask goal = 0;
    for (size_t i = 0; i < universe.value().size(); ++i) {
      for (const relational::AttributePair& g : inst.goal) {
        if (universe.value().pairs()[i] == g) goal |= (1ULL << i);
      }
    }
    auto compare = [&](const rlearn::JoinEngine& a,
                       const rlearn::JoinEngine& b) {
      for (size_t i = 0; i < inst.left.size(); ++i) {
        for (size_t j = 0; j < inst.right.size(); ++j) {
          const rlearn::PairExample pair{i, j};
          ASSERT_EQ(a.WasAsked(pair), b.WasAsked(pair)) << i << "," << j;
          ASSERT_EQ(a.HasForcedLabel(pair), b.HasForcedLabel(pair))
              << i << "," << j;
        }
      }
    };
    auto make = [&] {
      return rlearn::JoinEngine(&universe.value(), &inst.left, &inst.right);
    };
    for (size_t batch : {size_t{1}, size_t{4}}) {
      RunLockstep(
          make(), make(),
          [&](const rlearn::PairExample& pair) {
            return rlearn::MaskSatisfied(
                goal, universe.value().AgreeMask(inst.left.row(pair.left_row),
                                                 inst.right.row(pair.right_row)));
          },
          compare, batch);
      RunLockstep(
          make(), make(),
          [&](const rlearn::PairExample& pair) {
            return HashLabel<rlearn::JoinEngine>(pair, seed + batch);
          },
          compare, batch);
    }
  }
}

TEST(PropagationParityTest, ChainGoalAndAdversarialOracles) {
  for (int rows : {4, 6}) {
    relational::ChainInstanceOptions options;
    options.seed = 1300 + static_cast<uint64_t>(rows);
    options.rows = rows;
    const relational::ChainInstance inst =
        relational::GenerateChainInstance(options);
    auto chain = rlearn::JoinChain::Create(inst.pointers);
    ASSERT_TRUE(chain.ok());
    const rlearn::ChainMask goal =
        rlearn::NamePairChainGoal(chain.value(), "fk", "key");
    auto compare = [&](const rlearn::ChainEngine& a,
                       const rlearn::ChainEngine& b) {
      ASSERT_EQ(a.candidate_paths(), b.candidate_paths());
      for (size_t k = 0; k < a.candidate_paths(); ++k) {
        const rlearn::ChainExample& item = a.candidate(k);
        ASSERT_EQ(a.WasAsked(item), b.WasAsked(item)) << "path " << k;
        ASSERT_EQ(a.HasForcedLabel(item), b.HasForcedLabel(item))
            << "path " << k;
      }
    };
    for (size_t batch : {size_t{1}, size_t{4}}) {
      RunLockstep(
          rlearn::ChainEngine(&chain.value()),
          rlearn::ChainEngine(&chain.value()),
          [&](const rlearn::ChainExample& example) {
            return rlearn::ChainSatisfied(chain.value(), goal, example);
          },
          compare, batch);
      RunLockstep(
          rlearn::ChainEngine(&chain.value()),
          rlearn::ChainEngine(&chain.value()),
          [&](const rlearn::ChainExample& example) {
            return HashLabel<rlearn::ChainEngine>(example,
                                                  static_cast<uint64_t>(rows));
          },
          compare, batch);
    }
  }
}

TEST(PropagationParityTest, PathGoalAndAdversarialOracles) {
  common::Interner interner;
  graph::GeoOptions geo;
  geo.grid_width = 3;
  geo.grid_height = 3;
  const graph::Graph g = graph::GenerateGeoGraph(geo, &interner);
  auto regex = automata::ParseRegex("highway+", &interner);
  ASSERT_TRUE(regex.ok());
  const graph::PathQuery goal{regex.value(), std::nullopt};
  glearn::GoalPathOracle oracle(goal, g);
  graph::Path seed;
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (interner.Name(g.edge(e).label) == "highway") {
      seed.start = g.edge(e).src;
      seed.edges = {e};
      break;
    }
  }
  ASSERT_FALSE(seed.empty());

  glearn::InteractivePathOptions options;
  options.max_path_edges = 3;
  options.max_candidates = 300;
  auto compare = [&](const glearn::PathEngine& a, const glearn::PathEngine& b) {
    ASSERT_EQ(a.candidate_paths(), b.candidate_paths());
    for (size_t k = 0; k < a.candidate_paths(); ++k) {
      ASSERT_EQ(a.WasAsked(k), b.WasAsked(k)) << "candidate " << k;
      ASSERT_EQ(a.HasForcedLabel(k), b.HasForcedLabel(k)) << "candidate " << k;
    }
  };
  for (size_t batch : {size_t{1}, size_t{3}}) {
    RunLockstep(
        glearn::PathEngine(&g, seed, options),
        glearn::PathEngine(&g, seed, options),
        [&](const glearn::PathEngine::Question& question) {
          return oracle.IsPositive(*question.path);
        },
        compare, batch);
    RunLockstep(
        glearn::PathEngine(&g, seed, options),
        glearn::PathEngine(&g, seed, options),
        [&](const glearn::PathEngine::Question& question) {
          return HashLabel<glearn::PathEngine>(question, 5 + batch);
        },
        compare, batch);
  }
}

}  // namespace
}  // namespace qlearn
