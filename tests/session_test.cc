// Tests for the unified interactive learning-session layer: cross-model
// conformance of the incremental LearningSession driver against the legacy
// one-shot Run*Session wrappers (identical question counts under fixed
// seeds), propagation invariants (a forced-label item is never asked),
// batched questioning, the generic Oracle<Item> interface, and the
// string-keyed ScenarioRegistry.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "common/interner.h"
#include "glearn/interactive_path.h"
#include "graph/graph.h"
#include "learn/interactive.h"
#include "relational/generator.h"
#include "relational/relation.h"
#include "rlearn/interactive_chain.h"
#include "rlearn/interactive_join.h"
#include "session/registry.h"
#include "session/session.h"
#include "twig/twig_eval.h"
#include "twig/twig_parser.h"
#include "xml/xml_parser.h"

namespace qlearn {
namespace session {
namespace {

using common::Interner;

// ---------------------------------------------------------------------------
// Default centralization: the legacy options structs draw their seeds from
// SessionDefaults (previously the constants 7/11/13 were scattered).

static_assert(learn::InteractiveTwigOptions{}.seed ==
              SessionDefaults::kLegacyTwigSeed);
static_assert(rlearn::InteractiveJoinOptions{}.seed ==
              SessionDefaults::kLegacyJoinSeed);
static_assert(rlearn::InteractiveChainOptions{}.seed ==
              SessionDefaults::kLegacyChainSeed);
static_assert(glearn::InteractivePathOptions{}.seed ==
              SessionDefaults::kLegacyPathSeed);
static_assert(SessionOptions{}.seed == SessionDefaults::kSeed);
static_assert(SessionOptions{}.max_questions ==
              SessionDefaults::kMaxQuestions);

// ---------------------------------------------------------------------------
// Twig scenario fixture.

class TwigSessionFixture : public ::testing::Test {
 protected:
  TwigSessionFixture() {
    auto doc = xml::ParseXml(
        "<site><people>"
        "<person><age/><name/></person>"
        "<person><name/></person>"
        "<person><age/><name/></person>"
        "</people></site>",
        &interner_);
    EXPECT_TRUE(doc.ok());
    doc_ = std::move(doc).value();
    auto goal = twig::ParseTwig("/site/people/person[age]/name", &interner_);
    EXPECT_TRUE(goal.ok());
    goal_ = std::move(goal).value();
    for (xml::NodeId v = 0; v < doc_.NumNodes(); ++v) {
      if (twig::Selects(goal_, doc_, v)) {
        seed_ = v;
        break;
      }
    }
    EXPECT_NE(seed_, xml::kInvalidNode);
  }

  Interner interner_;
  xml::XmlTree doc_;
  twig::TwigQuery goal_;
  xml::NodeId seed_ = xml::kInvalidNode;
};

TEST_F(TwigSessionFixture, IncrementalDriverMatchesLegacyWrapper) {
  for (learn::TwigStrategy strategy :
       {learn::TwigStrategy::kGreedyImpact, learn::TwigStrategy::kRandom}) {
    learn::InteractiveTwigOptions options;
    options.strategy = strategy;
    options.seed = 42;

    learn::GoalTwigOracle oracle(goal_);
    auto legacy = learn::RunInteractiveTwigSession(doc_, seed_, &oracle,
                                                   options);
    ASSERT_TRUE(legacy.ok());

    SessionOptions session_options;
    session_options.seed = options.seed;
    session_options.max_questions = options.max_questions;
    LearningSession<learn::TwigEngine> session(
        learn::TwigEngine(&doc_, seed_, options), session_options);
    size_t asked = 0;
    while (auto q = session.NextQuestion()) {
      ++asked;
      session.Answer(twig::Selects(goal_, doc_, *q));
    }
    const twig::TwigQuery query = session.Finish();

    EXPECT_EQ(session.stats().questions, legacy.value().questions);
    EXPECT_EQ(asked, legacy.value().questions);
    EXPECT_EQ(session.stats().forced_positive, legacy.value().forced_positive);
    EXPECT_EQ(session.stats().forced_negative, legacy.value().forced_negative);
    EXPECT_EQ(session.stats().conflicts, legacy.value().conflicts);
    EXPECT_EQ(twig::Evaluate(query, doc_),
              twig::Evaluate(legacy.value().query, doc_));
  }
}

TEST_F(TwigSessionFixture, ForcedNodesAreNeverAsked) {
  learn::InteractiveTwigOptions options;
  LearningSession<learn::TwigEngine> session(
      learn::TwigEngine(&doc_, seed_, options));
  session.Run([&](xml::NodeId v) { return twig::Selects(goal_, doc_, v); });
  EXPECT_GT(session.stats().forced_positive + session.stats().forced_negative,
            0u);
  for (xml::NodeId v = 0; v < doc_.NumNodes(); ++v) {
    EXPECT_FALSE(session.engine().WasAsked(v) &&
                 session.engine().HasForcedLabel(v))
        << "node " << v << " was forced and still asked";
  }
}

TEST_F(TwigSessionFixture, OracleInterfaceDrivesSession) {
  // The generic session::Oracle<Item> interface, as a server front end
  // would implement it.
  class NodeOracle : public Oracle<xml::NodeId> {
   public:
    NodeOracle(const twig::TwigQuery* goal, const xml::XmlTree* doc)
        : goal_(goal), doc_(doc) {}
    bool IsPositive(const xml::NodeId& node) override {
      return twig::Selects(*goal_, *doc_, node);
    }

   private:
    const twig::TwigQuery* goal_;
    const xml::XmlTree* doc_;
  };

  NodeOracle oracle(&goal_, &doc_);
  LearningSession<learn::TwigEngine> session(
      learn::TwigEngine(&doc_, seed_, {}));
  const twig::TwigQuery query = session.Run(&oracle);
  EXPECT_EQ(session.stats().conflicts, 0u);
  EXPECT_EQ(twig::Evaluate(query, doc_), twig::Evaluate(goal_, doc_));
}

TEST_F(TwigSessionFixture, HypothesisIsReadableMidSession) {
  LearningSession<learn::TwigEngine> session(
      learn::TwigEngine(&doc_, seed_, {}));
  // Before any question: the seed's most-specific query selects the seed.
  EXPECT_TRUE(twig::Selects(session.Hypothesis(), doc_, seed_));
  while (auto q = session.NextQuestion()) {
    session.Answer(twig::Selects(goal_, doc_, *q));
    EXPECT_TRUE(twig::Selects(session.Hypothesis(), doc_, seed_));
  }
  session.Finish();
  EXPECT_TRUE(session.Finished());
}

TEST_F(TwigSessionFixture, AbandonedQuestionsCanBeDiscarded) {
  LearningSession<learn::TwigEngine> session(
      learn::TwigEngine(&doc_, seed_, {}));
  // The user walks away mid-question: the session still finishes cleanly
  // and the abandoned question stays counted.
  auto q = session.NextQuestion();
  ASSERT_TRUE(q.has_value());
  session.DiscardPending();
  EXPECT_TRUE(session.pending().empty());
  // A fresh question can follow a discard; Finish() with one still pending
  // implicitly discards it.
  auto q2 = session.NextQuestion();
  ASSERT_TRUE(q2.has_value());
  session.Finish();
  EXPECT_TRUE(session.Finished());
  EXPECT_EQ(session.stats().questions, 2u);
}

TEST_F(TwigSessionFixture, MaxQuestionsBudgetIsRespected) {
  SessionOptions options;
  options.max_questions = 2;
  LearningSession<learn::TwigEngine> session(
      learn::TwigEngine(&doc_, seed_, {}), options);
  size_t asked = 0;
  while (auto q = session.NextQuestion()) {
    ++asked;
    session.Answer(twig::Selects(goal_, doc_, *q));
  }
  EXPECT_LE(asked, 2u);
  EXPECT_EQ(session.stats().questions, asked);
}

// ---------------------------------------------------------------------------
// Join scenario fixture.

class JoinSessionFixture : public ::testing::Test {
 protected:
  JoinSessionFixture() {
    relational::JoinInstanceOptions opts;
    opts.seed = 5;
    opts.left_rows = 20;
    opts.right_rows = 20;
    opts.left_arity = 3;
    opts.right_arity = 3;
    opts.domain_size = 4;
    instance_ = relational::GenerateJoinInstance(opts, 2);
    auto u = rlearn::PairUniverse::AllCompatible(instance_.left.schema(),
                                                 instance_.right.schema());
    EXPECT_TRUE(u.ok());
    universe_ = std::move(u).value();
    for (size_t i = 0; i < universe_.size(); ++i) {
      for (const relational::AttributePair& g : instance_.goal) {
        if (universe_.pairs()[i] == g) goal_ |= (1ULL << i);
      }
    }
  }

  bool OracleAnswer(const rlearn::PairExample& pair) const {
    return rlearn::MaskSatisfied(
        goal_, universe_.AgreeMask(instance_.left.row(pair.left_row),
                                   instance_.right.row(pair.right_row)));
  }

  relational::JoinInstance instance_;
  rlearn::PairUniverse universe_;
  rlearn::PairMask goal_ = 0;
};

TEST_F(JoinSessionFixture, IncrementalDriverMatchesLegacyWrapper) {
  for (rlearn::JoinStrategy strategy :
       {rlearn::JoinStrategy::kRandom, rlearn::JoinStrategy::kSplitHalf,
        rlearn::JoinStrategy::kLattice}) {
    rlearn::InteractiveJoinOptions options;
    options.strategy = strategy;
    options.seed = 123;

    rlearn::GoalJoinOracle oracle(&universe_, goal_);
    auto legacy = rlearn::RunInteractiveJoinSession(
        universe_, instance_.left, instance_.right, &oracle, options);
    ASSERT_TRUE(legacy.ok());

    SessionOptions session_options;
    session_options.seed = options.seed;
    LearningSession<rlearn::JoinEngine> session(
        rlearn::JoinEngine(&universe_, &instance_.left, &instance_.right,
                           options),
        session_options);
    const rlearn::PairMask learned = session.Run(
        [&](const rlearn::PairExample& pair) { return OracleAnswer(pair); });

    EXPECT_EQ(session.stats().questions, legacy.value().questions);
    EXPECT_EQ(session.stats().forced_positive, legacy.value().forced_positive);
    EXPECT_EQ(session.stats().forced_negative, legacy.value().forced_negative);
    EXPECT_EQ(session.stats().conflicts, legacy.value().conflicts);
    EXPECT_EQ(learned, legacy.value().learned);
    // Every candidate pair is asked or forced, never both.
    EXPECT_EQ(session.stats().questions + session.stats().forced_positive +
                  session.stats().forced_negative,
              session.engine().candidate_pairs());
  }
}

TEST_F(JoinSessionFixture, ForcedPairsAreNeverAsked) {
  LearningSession<rlearn::JoinEngine> session(
      rlearn::JoinEngine(&universe_, &instance_.left, &instance_.right));
  session.Run(
      [&](const rlearn::PairExample& pair) { return OracleAnswer(pair); });
  for (size_t i = 0; i < instance_.left.size(); ++i) {
    for (size_t j = 0; j < instance_.right.size(); ++j) {
      const rlearn::PairExample pair{i, j};
      EXPECT_FALSE(session.engine().WasAsked(pair) &&
                   session.engine().HasForcedLabel(pair))
          << "pair (" << i << "," << j << ") was forced and still asked";
    }
  }
}

TEST_F(JoinSessionFixture, BatchedQuestionsConverge) {
  LearningSession<rlearn::JoinEngine> session(
      rlearn::JoinEngine(&universe_, &instance_.left, &instance_.right));
  size_t batches = 0;
  for (;;) {
    const auto batch = session.NextQuestions(4);
    if (batch.empty()) break;
    EXPECT_LE(batch.size(), 4u);
    EXPECT_EQ(batch.size(), session.pending().size());
    std::vector<bool> labels;
    labels.reserve(batch.size());
    for (const rlearn::PairExample& pair : batch) {
      labels.push_back(OracleAnswer(pair));
    }
    session.AnswerAll(labels);
    ++batches;
  }
  const rlearn::PairMask learned = session.Finish();
  EXPECT_EQ(session.stats().conflicts, 0u);
  EXPECT_GT(batches, 0u);
  // Batched mode still learns an instance-equivalent predicate.
  for (size_t i = 0; i < instance_.left.size(); ++i) {
    for (size_t j = 0; j < instance_.right.size(); ++j) {
      const rlearn::PairMask agree = universe_.AgreeMask(
          instance_.left.row(i), instance_.right.row(j));
      EXPECT_EQ(rlearn::MaskSatisfied(learned, agree),
                rlearn::MaskSatisfied(goal_, agree));
    }
  }
}

// ---------------------------------------------------------------------------
// Chain scenario fixture: a 3-relation FK-style chain r0 -- r1 -- r2 with
// r_i.fk joining r_{i+1}.key (the E12 setup at test scale).

class ChainSessionFixture : public ::testing::Test {
 protected:
  ChainSessionFixture() {
    relational::ChainInstanceOptions options;
    options.seed = 1303;
    instance_ = relational::GenerateChainInstance(options);
    auto chain = rlearn::JoinChain::Create(instance_.pointers);
    EXPECT_TRUE(chain.ok());
    chain_ = std::move(chain).value();
    goal_ = rlearn::NamePairChainGoal(*chain_, "fk", "key");
    for (const rlearn::PairMask mask : goal_) EXPECT_NE(mask, 0u);
  }

  bool OracleAnswer(const rlearn::ChainExample& example) const {
    return rlearn::ChainSatisfied(*chain_, goal_, example);
  }

  relational::ChainInstance instance_;
  std::optional<rlearn::JoinChain> chain_;
  rlearn::ChainMask goal_;
};

TEST_F(ChainSessionFixture, IncrementalDriverMatchesLegacyWrapper) {
  for (rlearn::ChainStrategy strategy :
       {rlearn::ChainStrategy::kRandom,
        rlearn::ChainStrategy::kHuntThenSplit}) {
    rlearn::InteractiveChainOptions options;
    options.strategy = strategy;
    options.seed = 77;

    rlearn::GoalChainOracle oracle(goal_);
    auto legacy = rlearn::RunInteractiveChainSession(*chain_, &oracle,
                                                     options);
    ASSERT_TRUE(legacy.ok());

    SessionOptions session_options;
    session_options.seed = options.seed;
    LearningSession<rlearn::ChainEngine> session(
        rlearn::ChainEngine(&*chain_, options), session_options);
    const rlearn::ChainMask learned = session.Run(
        [&](const rlearn::ChainExample& example) {
          return OracleAnswer(example);
        });

    EXPECT_EQ(session.stats().questions, legacy.value().questions);
    EXPECT_EQ(session.stats().forced_positive, legacy.value().forced_positive);
    EXPECT_EQ(session.stats().forced_negative, legacy.value().forced_negative);
    EXPECT_EQ(session.stats().conflicts, legacy.value().conflicts);
    EXPECT_EQ(learned, legacy.value().learned);
    // Every candidate path is asked or forced, never both.
    EXPECT_EQ(session.stats().questions + session.stats().forced_positive +
                  session.stats().forced_negative,
              session.engine().candidate_paths());
  }
}

TEST_F(ChainSessionFixture, ForcedPathsAreNeverAsked) {
  LearningSession<rlearn::ChainEngine> session(
      rlearn::ChainEngine(&*chain_, {}));
  session.Run([&](const rlearn::ChainExample& example) {
    return OracleAnswer(example);
  });
  EXPECT_GT(session.stats().forced_positive + session.stats().forced_negative,
            0u);
  for (size_t k = 0; k < session.engine().candidate_paths(); ++k) {
    const rlearn::ChainExample& example = session.engine().candidate(k);
    EXPECT_FALSE(session.engine().WasAsked(example) &&
                 session.engine().HasForcedLabel(example))
        << "candidate path " << k << " was forced and still asked";
  }
}

TEST_F(ChainSessionFixture, BatchedQuestionsConverge) {
  LearningSession<rlearn::ChainEngine> session(
      rlearn::ChainEngine(&*chain_, {}));
  size_t batches = 0;
  for (;;) {
    const auto batch = session.NextQuestions(4);
    if (batch.empty()) break;
    EXPECT_LE(batch.size(), 4u);
    std::vector<bool> labels;
    labels.reserve(batch.size());
    for (const rlearn::ChainExample& example : batch) {
      labels.push_back(OracleAnswer(example));
    }
    session.AnswerAll(labels);
    ++batches;
  }
  const rlearn::ChainMask learned = session.Finish();
  EXPECT_EQ(session.stats().conflicts, 0u);
  EXPECT_GT(batches, 0u);
  // Batched mode still learns an instance-equivalent chain predicate.
  for (size_t k = 0; k < session.engine().candidate_paths(); ++k) {
    const rlearn::ChainExample& example = session.engine().candidate(k);
    EXPECT_EQ(rlearn::ChainSatisfied(*chain_, learned, example),
              OracleAnswer(example));
  }
}

TEST_F(ChainSessionFixture, BatchDiscardAllowsFreshQuestions) {
  LearningSession<rlearn::ChainEngine> session(
      rlearn::ChainEngine(&*chain_, {}));
  const auto batch = session.NextQuestions(3);
  ASSERT_EQ(batch.size(), 3u);
  session.DiscardPending();
  EXPECT_TRUE(session.pending().empty());
  // Discarded questions stay counted and are not re-asked; a fresh
  // question (and a full session) can follow the discard.
  auto question = session.NextQuestion();
  ASSERT_TRUE(question.has_value());
  EXPECT_EQ(session.stats().questions, 4u);
  for (const rlearn::ChainExample& discarded : batch) {
    EXPECT_TRUE(session.engine().WasAsked(discarded));
    EXPECT_NE(discarded.rows, question->rows);
  }
  session.Answer(OracleAnswer(*question));
  while (auto q = session.NextQuestion()) {
    session.Answer(OracleAnswer(*q));
  }
  session.Finish();
  EXPECT_EQ(session.stats().conflicts, 0u);
}

// The shared tiny FK instance (customers -- orders -- products) with known
// goal paths (0,0,0), (1,1,1), (2,2,0); used to provoke a deterministic
// mid-batch conflict: once one FK path is answered positive, the remaining
// FK paths are forced positive, so answering one of them negative
// contradicts the version space.
struct TinyChain {
  TinyChain() : relations(relational::TinyStoreChainRelations()) {
    auto chain_or = rlearn::JoinChain::Create(
        {&relations[0], &relations[1], &relations[2]});
    EXPECT_TRUE(chain_or.ok());
    chain = std::move(chain_or).value();
    goal = rlearn::NaturalChainGoal(*chain);
  }

  bool IsFkPath(const rlearn::ChainExample& example) const {
    return rlearn::ChainSatisfied(*chain, goal, example);
  }

  std::vector<relational::Relation> relations;
  std::optional<rlearn::JoinChain> chain;
  rlearn::ChainMask goal;
};

TEST(ChainSessionConflictTest, MidBatchAbortDropsRemainingLabels) {
  TinyChain tiny;
  LearningSession<rlearn::ChainEngine> session(
      rlearn::ChainEngine(&*tiny.chain, {}));
  // Grab every informative path in one batch, then answer truthfully
  // except for the last FK path, which we flip to negative. By the time it
  // is observed, an earlier FK positive has forced it positive — the flip
  // contradicts the version space mid-batch and the labels after it must
  // be dropped.
  const auto batch = session.NextQuestions(1000);
  ASSERT_FALSE(batch.empty());
  size_t last_fk = batch.size();
  size_t fk_count = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (tiny.IsFkPath(batch[i])) {
      last_fk = i;
      ++fk_count;
    }
  }
  ASSERT_GE(fk_count, 2u) << "batch must contain at least two FK paths";
  std::vector<bool> labels;
  labels.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    labels.push_back(i == last_fk ? false : tiny.IsFkPath(batch[i]));
  }
  session.AnswerAll(labels);

  EXPECT_EQ(session.stats().conflicts, 1u);
  EXPECT_EQ(session.stats().questions, batch.size());
  // The session is over; the hypothesis is the last consistent θ* and
  // keeps the one-non-empty-mask-per-edge invariant.
  EXPECT_FALSE(session.NextQuestion().has_value());
  const rlearn::ChainMask learned = session.Finish();
  ASSERT_EQ(learned.size(), tiny.chain->num_edges());
  for (const rlearn::PairMask mask : learned) EXPECT_NE(mask, 0u);
}

#ifdef NDEBUG
TEST(ChainSessionClampTest, ShortLabelBatchIsClampedInRelease) {
  // The asserts in AnswerAll/ObserveAll are compiled out in release
  // builds; a mismatched label count must clamp (answer the prefix, drop
  // the rest) instead of indexing out of bounds.
  TinyChain tiny;
  LearningSession<rlearn::ChainEngine> session(
      rlearn::ChainEngine(&*tiny.chain, {}));
  const auto batch = session.NextQuestions(3);
  ASSERT_EQ(batch.size(), 3u);
  session.AnswerAll({tiny.IsFkPath(batch[0])});
  EXPECT_TRUE(session.pending().empty());
  EXPECT_EQ(session.stats().conflicts, 0u);
  // The clamped session continues to a clean finish.
  while (auto q = session.NextQuestion()) {
    session.Answer(tiny.IsFkPath(*q));
  }
  session.Finish();
  EXPECT_EQ(session.stats().conflicts, 0u);
}
#else
TEST(ChainSessionClampDeathTest, MismatchedLabelCountAssertsInDebug) {
  TinyChain tiny;
  LearningSession<rlearn::ChainEngine> session(
      rlearn::ChainEngine(&*tiny.chain, {}));
  ASSERT_FALSE(session.NextQuestions(2).empty());
  EXPECT_DEATH(session.AnswerAll({}), "one label per pending item");
}
#endif

// ---------------------------------------------------------------------------
// Path scenario fixture (same network as the glearn tests).

class PathSessionFixture : public ::testing::Test {
 protected:
  PathSessionFixture() {
    local_ = interner_.Intern("local");
    highway_ = interner_.Intern("highway");
    std::vector<graph::VertexId> v;
    for (int i = 0; i < 8; ++i) {
      v.push_back(g_.AddVertex("c" + std::to_string(i)));
    }
    g_.AddEdge(v[0], v[1], highway_, 10);
    g_.AddEdge(v[1], v[2], highway_, 10);
    g_.AddEdge(v[2], v[3], highway_, 10);
    g_.AddEdge(v[0], v[4], local_, 3);
    g_.AddEdge(v[4], v[5], local_, 3);
    g_.AddEdge(v[5], v[3], local_, 3);
    g_.AddEdge(v[1], v[6], local_, 4);
    g_.AddEdge(v[6], v[7], highway_, 9);
  }

  graph::PathQuery Goal(const std::string& regex) {
    auto r = automata::ParseRegex(regex, &interner_);
    EXPECT_TRUE(r.ok());
    return graph::PathQuery{r.value(), std::nullopt};
  }

  Interner interner_;
  common::SymbolId local_ = 0, highway_ = 0;
  graph::Graph g_;
};

TEST_F(PathSessionFixture, IncrementalDriverMatchesLegacyWrapper) {
  const graph::PathQuery goal = Goal("highway+");
  graph::Path seed;
  seed.start = 0;
  seed.edges = {0};

  for (glearn::PathStrategy strategy :
       {glearn::PathStrategy::kRandom, glearn::PathStrategy::kFrontier}) {
    glearn::InteractivePathOptions options;
    options.strategy = strategy;
    options.seed = 17;

    glearn::GoalPathOracle legacy_oracle(goal, g_);
    auto legacy =
        glearn::RunInteractivePathSession(g_, seed, &legacy_oracle, options);
    ASSERT_TRUE(legacy.ok());

    glearn::GoalPathOracle oracle(goal, g_);
    SessionOptions session_options;
    session_options.seed = options.seed;
    LearningSession<glearn::PathEngine> session(
        glearn::PathEngine(&g_, seed, options), session_options);
    const glearn::ConcatPattern learned =
        session.Run([&](const glearn::PathEngine::Question& question) {
          return oracle.IsPositive(*question.path);
        });

    EXPECT_EQ(session.stats().questions, legacy.value().questions);
    EXPECT_EQ(session.stats().forced_positive, legacy.value().forced_positive);
    EXPECT_EQ(session.stats().forced_negative, legacy.value().forced_negative);
    EXPECT_EQ(session.stats().conflicts, legacy.value().conflicts);
    EXPECT_TRUE(learned == legacy.value().hypothesis);
    EXPECT_EQ(session.engine().max_positive_weight(),
              legacy.value().max_positive_weight);
    EXPECT_EQ(session.engine().candidate_paths(),
              legacy.value().candidate_paths);
  }
}

TEST_F(PathSessionFixture, ForcedPathsAreNeverAsked) {
  const graph::PathQuery goal = Goal("highway+");
  glearn::GoalPathOracle oracle(goal, g_);
  graph::Path seed;
  seed.start = 0;
  seed.edges = {0};
  LearningSession<glearn::PathEngine> session(
      glearn::PathEngine(&g_, seed, {}));
  session.Run([&](const glearn::PathEngine::Question& question) {
    return oracle.IsPositive(*question.path);
  });
  for (size_t k = 0; k < session.engine().candidate_paths(); ++k) {
    EXPECT_FALSE(session.engine().WasAsked(k) &&
                 session.engine().HasForcedLabel(k))
        << "candidate path " << k << " was forced and still asked";
  }
}

// ---------------------------------------------------------------------------
// ScenarioRegistry.

TEST(ScenarioRegistryTest, BuiltinScenariosAreRegistered) {
  RegisterBuiltinScenarios();
  RegisterBuiltinScenarios();  // idempotent
  ScenarioRegistry* registry = ScenarioRegistry::Global();
  EXPECT_TRUE(registry->Has("twig"));
  EXPECT_TRUE(registry->Has("twig-ambiguity"));
  EXPECT_TRUE(registry->Has("join"));
  EXPECT_TRUE(registry->Has("chain"));
  EXPECT_TRUE(registry->Has("path"));
  EXPECT_GE(registry->List().size(), 5u);
}

TEST(ScenarioRegistryTest, ChainScenarioLearnsTheForeignKeyGoal) {
  RegisterBuiltinScenarios();
  auto created = ScenarioRegistry::Global()->Create("chain");
  ASSERT_TRUE(created.ok());
  ScenarioSession& session = *created.value();
  while (auto question = session.NextQuestion()) {
    EXPECT_NE(question->find("customers#"), std::string::npos);
    session.Answer(session.OracleLabels()[0]);
  }
  session.Finish();
  EXPECT_EQ(session.stats().conflicts, 0u);
  // The learned chain must pin down both foreign-key hops.
  const std::string hypothesis = session.Hypothesis();
  EXPECT_NE(hypothesis.find("customers.cid=orders.cid"), std::string::npos)
      << hypothesis;
  EXPECT_NE(hypothesis.find("orders.pid=products.pid"), std::string::npos)
      << hypothesis;
}

TEST(ScenarioRegistryTest, UnknownScenarioIsNotFound) {
  // Regression: every registry lookup of an unknown key must come back as
  // a NotFound status naming the key and listing what IS registered —
  // never a crash, and never a bare miss a caller could misread.
  RegisterBuiltinScenarios();
  auto session = ScenarioRegistry::Global()->Create("no-such-scenario");
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), common::StatusCode::kNotFound);
  EXPECT_NE(session.status().message().find("no-such-scenario"),
            std::string::npos);
  EXPECT_NE(session.status().message().find("available:"), std::string::npos)
      << session.status().message();
  EXPECT_NE(session.status().message().find("twig"), std::string::npos);

  auto info = ScenarioRegistry::Global()->Describe("no-such-scenario");
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), common::StatusCode::kNotFound);
}

TEST(ScenarioRegistryTest, DescribeReturnsRegisteredInfo) {
  RegisterBuiltinScenarios();
  auto info = ScenarioRegistry::Global()->Describe("chain");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().name, "chain");
  EXPECT_FALSE(info.value().description.empty());
}

TEST(ScenarioRegistryTest, ScenarioSessionsExposeWirePayloadHooks) {
  RegisterBuiltinScenarios();
  for (const ScenarioInfo& info : ScenarioRegistry::Global()->List()) {
    auto created = ScenarioRegistry::Global()->Create(info.name);
    ASSERT_TRUE(created.ok()) << info.name;
    ScenarioSession& session = *created.value();
    EXPECT_FALSE(session.PayloadKind().empty()) << info.name;
    EXPECT_TRUE(session.PendingIds().empty()) << info.name;
    const std::vector<std::string> batch = session.NextQuestions(3);
    ASSERT_FALSE(batch.empty()) << info.name;
    const std::vector<std::vector<uint64_t>> ids = session.PendingIds();
    ASSERT_EQ(ids.size(), batch.size()) << info.name;
    for (const std::vector<uint64_t>& item : ids) {
      EXPECT_FALSE(item.empty()) << info.name;
    }
    session.AnswerAll(session.OracleLabels());
    EXPECT_TRUE(session.PendingIds().empty()) << info.name;
    session.Finish();
  }
}

TEST(ScenarioRegistryTest, DuplicateRegistrationFails) {
  RegisterBuiltinScenarios();
  auto status = ScenarioRegistry::Global()->Register(
      {"twig", "dup"}, [](const SessionOptions&) {
        return common::Result<std::unique_ptr<ScenarioSession>>(
            common::Status::Internal("unused"));
      });
  EXPECT_FALSE(status.ok());
}

TEST(ScenarioRegistryTest, AllBuiltinsRunToCompletionWithBuiltinOracle) {
  RegisterBuiltinScenarios();
  for (const ScenarioInfo& info : ScenarioRegistry::Global()->List()) {
    auto created = ScenarioRegistry::Global()->Create(info.name);
    ASSERT_TRUE(created.ok()) << info.name;
    ScenarioSession& session = *created.value();
    size_t asked = 0;
    while (auto question = session.NextQuestion()) {
      EXPECT_FALSE(question->empty()) << info.name;
      const std::vector<bool> labels = session.OracleLabels();
      ASSERT_EQ(labels.size(), 1u) << info.name;
      session.Answer(labels[0]);
      ++asked;
    }
    session.Finish();
    EXPECT_EQ(session.stats().questions, asked) << info.name;
    EXPECT_EQ(session.stats().conflicts, 0u) << info.name;
    EXPECT_GT(session.stats().forced_positive + session.stats().forced_negative,
              0u)
        << info.name;
    EXPECT_FALSE(session.Hypothesis().empty()) << info.name;
  }
}

TEST(ScenarioRegistryTest, BatchedScenarioSessionConverges) {
  RegisterBuiltinScenarios();
  auto created = ScenarioRegistry::Global()->Create("join");
  ASSERT_TRUE(created.ok());
  ScenarioSession& session = *created.value();
  for (;;) {
    const std::vector<std::string> batch = session.NextQuestions(8);
    if (batch.empty()) break;
    session.AnswerAll(session.OracleLabels());
  }
  session.Finish();
  EXPECT_EQ(session.stats().conflicts, 0u);
  EXPECT_GT(session.stats().questions, 0u);
}

}  // namespace
}  // namespace session
}  // namespace qlearn
