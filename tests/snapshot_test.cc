// Session hibernation tests: a LearningSession serialized mid-run and
// restored into a freshly constructed session over the same inputs must
// produce the exact remaining question/answer sequence — same questions in
// the same order (including RNG-driven choices), same final hypothesis,
// same stats. Plus the quiescence preconditions and malformed-image
// rejection paths.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "glearn/interactive_path.h"
#include "graph/geo_generator.h"
#include "learn/interactive.h"
#include "relational/generator.h"
#include "relational/relation.h"
#include "rlearn/chain_learner.h"
#include "rlearn/interactive_chain.h"
#include "rlearn/interactive_join.h"
#include "session/session.h"
#include "twig/twig_parser.h"
#include "xml/xml_parser.h"

namespace qlearn {
namespace session {
namespace {

// ---------------------------------------------------------------------------
// Join scenario.

class JoinSnapshotFixture : public ::testing::Test {
 protected:
  JoinSnapshotFixture() {
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

  LearningSession<rlearn::JoinEngine> MakeSession(
      rlearn::JoinStrategy strategy) const {
    rlearn::InteractiveJoinOptions options;
    options.strategy = strategy;
    SessionOptions session_options;
    session_options.seed = 123;
    return LearningSession<rlearn::JoinEngine>(
        rlearn::JoinEngine(&universe_, &instance_.left, &instance_.right,
                           options),
        session_options);
  }

  /// Drives `session` to completion, appending each (question, answer) to
  /// `transcript`; returns the final hypothesis.
  rlearn::PairMask Drive(
      LearningSession<rlearn::JoinEngine>* session,
      std::vector<std::pair<rlearn::PairExample, bool>>* transcript) const {
    while (auto q = session->NextQuestion()) {
      const bool answer = OracleAnswer(*q);
      transcript->push_back({*q, answer});
      session->Answer(answer);
    }
    return session->Finish();
  }

  relational::JoinInstance instance_;
  rlearn::PairUniverse universe_;
  rlearn::PairMask goal_ = 0;
};

TEST_F(JoinSnapshotFixture, MidRunRestoreReplaysRemainingSequence) {
  // kRandom makes the remaining sequence depend on the RNG stream, so this
  // also proves the xoshiro lanes round-trip; kSplitHalf and kLattice cover
  // the scored selection paths over the restored store.
  for (rlearn::JoinStrategy strategy :
       {rlearn::JoinStrategy::kRandom, rlearn::JoinStrategy::kSplitHalf,
        rlearn::JoinStrategy::kLattice}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    // Reference: one uninterrupted session.
    auto reference = MakeSession(strategy);
    std::vector<std::pair<rlearn::PairExample, bool>> want;
    const rlearn::PairMask want_learned = Drive(&reference, &want);
    ASSERT_GT(want.size(), 4u) << "fixture too easy to split mid-run";

    // Hibernating session: answer the first 3 questions, then snapshot.
    auto original = MakeSession(strategy);
    std::vector<std::pair<rlearn::PairExample, bool>> head;
    for (int i = 0; i < 3; ++i) {
      auto q = original.NextQuestion();
      ASSERT_TRUE(q.has_value());
      const bool answer = OracleAnswer(*q);
      head.push_back({*q, answer});
      original.Answer(answer);
    }
    std::string image;
    ASSERT_TRUE(original.SerializeSnapshot(&image).ok());

    // Restore into a freshly constructed session and drive it to the end.
    auto restored = MakeSession(strategy);
    ASSERT_TRUE(restored.RestoreSnapshot(image).ok());
    std::vector<std::pair<rlearn::PairExample, bool>> tail;
    const rlearn::PairMask learned = Drive(&restored, &tail);

    ASSERT_EQ(head.size() + tail.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      const auto& got = i < head.size() ? head[i] : tail[i - head.size()];
      EXPECT_EQ(got.first.left_row, want[i].first.left_row) << "question " << i;
      EXPECT_EQ(got.first.right_row, want[i].first.right_row)
          << "question " << i;
      EXPECT_EQ(got.second, want[i].second) << "answer " << i;
    }
    EXPECT_EQ(learned, want_learned);
    EXPECT_EQ(restored.stats().questions, reference.stats().questions);
    EXPECT_EQ(restored.stats().forced_positive,
              reference.stats().forced_positive);
    EXPECT_EQ(restored.stats().forced_negative,
              reference.stats().forced_negative);
    EXPECT_EQ(restored.stats().conflicts, reference.stats().conflicts);
  }
}

TEST_F(JoinSnapshotFixture, SnapshotRequiresQuiescence) {
  auto session = MakeSession(rlearn::JoinStrategy::kSplitHalf);
  auto q = session.NextQuestion();
  ASSERT_TRUE(q.has_value());
  std::string image;
  // Pending question: the in-flight item is not serializable.
  EXPECT_EQ(session.SerializeSnapshot(&image).code(),
            common::StatusCode::kFailedPrecondition);
  session.Answer(OracleAnswer(*q));
  EXPECT_TRUE(session.SerializeSnapshot(&image).ok());
  session.Finish();
  // Finished: nothing left to resume.
  EXPECT_EQ(session.SerializeSnapshot(&image).code(),
            common::StatusCode::kFailedPrecondition);
}

TEST_F(JoinSnapshotFixture, RestoreRejectsMalformedImages) {
  auto session = MakeSession(rlearn::JoinStrategy::kSplitHalf);
  std::string image;
  ASSERT_TRUE(session.SerializeSnapshot(&image).ok());

  {
    // Foreign magic.
    std::string bad = image;
    bad[0] = 'X';
    auto fresh = MakeSession(rlearn::JoinStrategy::kSplitHalf);
    EXPECT_EQ(fresh.RestoreSnapshot(bad).code(),
              common::StatusCode::kInvalidArgument);
  }
  {
    // Unsupported version.
    std::string bad = image;
    bad[4] = static_cast<char>(0x7f);
    auto fresh = MakeSession(rlearn::JoinStrategy::kSplitHalf);
    EXPECT_EQ(fresh.RestoreSnapshot(bad).code(),
              common::StatusCode::kInvalidArgument);
  }
  {
    // Truncation anywhere in the image.
    for (size_t len : {size_t{0}, size_t{7}, size_t{40}, image.size() - 1}) {
      auto fresh = MakeSession(rlearn::JoinStrategy::kSplitHalf);
      EXPECT_EQ(fresh.RestoreSnapshot(std::string_view(image.data(), len))
                    .code(),
                common::StatusCode::kInvalidArgument)
          << "prefix length " << len;
    }
  }
  {
    // Trailing garbage.
    std::string bad = image + "!";
    auto fresh = MakeSession(rlearn::JoinStrategy::kSplitHalf);
    EXPECT_EQ(fresh.RestoreSnapshot(bad).code(),
              common::StatusCode::kInvalidArgument);
  }
  {
    // Strategy mismatch: the image records the engine configuration.
    auto fresh = MakeSession(rlearn::JoinStrategy::kRandom);
    EXPECT_EQ(fresh.RestoreSnapshot(image).code(),
              common::StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Chain scenario.

class ChainSnapshotFixture : public ::testing::Test {
 protected:
  ChainSnapshotFixture() {
    relational::ChainInstanceOptions options;
    options.seed = 1303;
    instance_ = relational::GenerateChainInstance(options);
    auto chain = rlearn::JoinChain::Create(instance_.pointers);
    EXPECT_TRUE(chain.ok());
    chain_ = std::move(chain).value();
    goal_ = rlearn::NamePairChainGoal(*chain_, "fk", "key");
  }

  bool OracleAnswer(const rlearn::ChainExample& example) const {
    return rlearn::ChainSatisfied(*chain_, goal_, example);
  }

  LearningSession<rlearn::ChainEngine> MakeSession() const {
    rlearn::InteractiveChainOptions options;
    options.strategy = rlearn::ChainStrategy::kHuntThenSplit;
    SessionOptions session_options;
    session_options.seed = 77;
    return LearningSession<rlearn::ChainEngine>(
        rlearn::ChainEngine(&*chain_, options), session_options);
  }

  relational::ChainInstance instance_;
  std::optional<rlearn::JoinChain> chain_;
  rlearn::ChainMask goal_;
};

TEST_F(ChainSnapshotFixture, MidRunRestoreReplaysRemainingSequence) {
  auto reference = MakeSession();
  std::vector<std::pair<rlearn::ChainExample, bool>> want;
  while (auto q = reference.NextQuestion()) {
    const bool answer = OracleAnswer(*q);
    want.push_back({*q, answer});
    reference.Answer(answer);
  }
  const rlearn::ChainMask want_learned = reference.Finish();
  ASSERT_GT(want.size(), 4u) << "fixture too easy to split mid-run";

  // Snapshot after every prefix length, not just one: the engine image
  // covers the version space, accumulated negatives, frontier, and store
  // in every mid-run shape this fixture reaches.
  for (size_t split = 1; split + 1 < want.size(); ++split) {
    SCOPED_TRACE(split);
    auto original = MakeSession();
    for (size_t i = 0; i < split; ++i) {
      auto q = original.NextQuestion();
      ASSERT_TRUE(q.has_value());
      ASSERT_EQ(q->rows, want[i].first.rows) << "diverged before snapshot";
      original.Answer(OracleAnswer(*q));
    }
    std::string image;
    ASSERT_TRUE(original.SerializeSnapshot(&image).ok());

    auto restored = MakeSession();
    ASSERT_TRUE(restored.RestoreSnapshot(image).ok());
    size_t i = split;
    while (auto q = restored.NextQuestion()) {
      ASSERT_LT(i, want.size());
      EXPECT_EQ(q->rows, want[i].first.rows) << "question " << i;
      const bool answer = OracleAnswer(*q);
      EXPECT_EQ(answer, want[i].second) << "answer " << i;
      restored.Answer(answer);
      ++i;
    }
    EXPECT_EQ(i, want.size());
    EXPECT_EQ(restored.Finish(), want_learned);
    EXPECT_EQ(restored.stats().questions, reference.stats().questions);
    EXPECT_EQ(restored.stats().forced_positive,
              reference.stats().forced_positive);
    EXPECT_EQ(restored.stats().forced_negative,
              reference.stats().forced_negative);
  }
}

// ---------------------------------------------------------------------------
// Twig scenario.

class TwigSnapshotFixture : public ::testing::Test {
 protected:
  TwigSnapshotFixture() {
    // A people directory with enough structural variety that both
    // strategies ask several questions before converging.
    auto doc = xml::ParseXml(
        "<site><people>"
        "<person><name/><age/><phone/></person>"
        "<person><name/></person>"
        "<person><name/><age/></person>"
        "<person><name/><homepage/></person>"
        "<person><age/><phone/></person>"
        "<person><name/><age/><homepage/></person>"
        "</people></site>",
        &interner_);
    EXPECT_TRUE(doc.ok());
    doc_ = std::move(doc).value();
    auto goal = twig::ParseTwig("/site/people/person[age]/name", &interner_);
    EXPECT_TRUE(goal.ok());
    goal_ = std::move(goal).value();
    seed_ = xml::kInvalidNode;
    for (xml::NodeId v = 0; v < doc_.NumNodes(); ++v) {
      if (twig::Selects(goal_, doc_, v)) {
        seed_ = v;
        break;
      }
    }
    EXPECT_NE(seed_, xml::kInvalidNode);
  }

  bool OracleAnswer(xml::NodeId node) const {
    return twig::Selects(goal_, doc_, node);
  }

  LearningSession<learn::TwigEngine> MakeSession(
      learn::TwigStrategy strategy) const {
    learn::InteractiveTwigOptions options;
    options.strategy = strategy;
    SessionOptions session_options;
    session_options.seed = 41;
    return LearningSession<learn::TwigEngine>(
        learn::TwigEngine(&doc_, seed_, options), session_options);
  }

  common::Interner interner_;
  xml::XmlTree doc_;
  twig::TwigQuery goal_;
  xml::NodeId seed_ = xml::kInvalidNode;
};

TEST_F(TwigSnapshotFixture, MidRunRestoreReplaysRemainingSequence) {
  // kRandom exercises the RNG lanes through the round trip; kGreedyImpact
  // the scored selection over the restored consistency state.
  for (learn::TwigStrategy strategy :
       {learn::TwigStrategy::kRandom, learn::TwigStrategy::kGreedyImpact}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    auto reference = MakeSession(strategy);
    std::vector<std::pair<xml::NodeId, bool>> want;
    while (auto q = reference.NextQuestion()) {
      const bool answer = OracleAnswer(*q);
      want.push_back({*q, answer});
      reference.Answer(answer);
    }
    const twig::TwigQuery want_learned = reference.Finish();
    ASSERT_GT(want.size(), 2u) << "fixture too easy to split mid-run";

    for (size_t split = 1; split < want.size(); ++split) {
      SCOPED_TRACE(split);
      auto original = MakeSession(strategy);
      for (size_t i = 0; i < split; ++i) {
        auto q = original.NextQuestion();
        ASSERT_TRUE(q.has_value());
        ASSERT_EQ(*q, want[i].first) << "diverged before snapshot";
        original.Answer(OracleAnswer(*q));
      }
      std::string image;
      ASSERT_TRUE(original.SerializeSnapshot(&image).ok());

      auto restored = MakeSession(strategy);
      ASSERT_TRUE(restored.RestoreSnapshot(image).ok());
      size_t i = split;
      while (auto q = restored.NextQuestion()) {
        ASSERT_LT(i, want.size());
        EXPECT_EQ(*q, want[i].first) << "question " << i;
        const bool answer = OracleAnswer(*q);
        EXPECT_EQ(answer, want[i].second) << "answer " << i;
        restored.Answer(answer);
        ++i;
      }
      EXPECT_EQ(i, want.size());
      EXPECT_EQ(restored.Finish().ToString(interner_),
                want_learned.ToString(interner_));
      EXPECT_EQ(restored.stats().questions, reference.stats().questions);
      EXPECT_EQ(restored.stats().forced_positive,
                reference.stats().forced_positive);
      EXPECT_EQ(restored.stats().forced_negative,
                reference.stats().forced_negative);
    }
  }
}

TEST_F(TwigSnapshotFixture, RestoreRejectsMalformedImages) {
  auto session = MakeSession(learn::TwigStrategy::kGreedyImpact);
  std::string image;
  ASSERT_TRUE(session.SerializeSnapshot(&image).ok());

  {
    // Foreign magic.
    std::string bad = image;
    bad[0] = 'X';
    auto fresh = MakeSession(learn::TwigStrategy::kGreedyImpact);
    EXPECT_EQ(fresh.RestoreSnapshot(bad).code(),
              common::StatusCode::kInvalidArgument);
  }
  {
    // Unsupported version.
    std::string bad = image;
    bad[4] = static_cast<char>(0x7f);
    auto fresh = MakeSession(learn::TwigStrategy::kGreedyImpact);
    EXPECT_EQ(fresh.RestoreSnapshot(bad).code(),
              common::StatusCode::kInvalidArgument);
  }
  {
    // Truncation anywhere in the image.
    for (size_t len : {size_t{0}, size_t{7}, size_t{40}, image.size() - 1}) {
      auto fresh = MakeSession(learn::TwigStrategy::kGreedyImpact);
      EXPECT_EQ(
          fresh.RestoreSnapshot(std::string_view(image.data(), len)).code(),
          common::StatusCode::kInvalidArgument)
          << "prefix length " << len;
    }
  }
  {
    // Trailing garbage.
    std::string bad = image + "!";
    auto fresh = MakeSession(learn::TwigStrategy::kGreedyImpact);
    EXPECT_EQ(fresh.RestoreSnapshot(bad).code(),
              common::StatusCode::kInvalidArgument);
  }
  {
    // Strategy mismatch: the image records the engine configuration.
    auto fresh = MakeSession(learn::TwigStrategy::kRandom);
    EXPECT_EQ(fresh.RestoreSnapshot(image).code(),
              common::StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Path scenario.

class PathSnapshotFixture : public ::testing::Test {
 protected:
  PathSnapshotFixture() {
    graph::GeoOptions geo;
    geo.grid_width = 4;
    geo.grid_height = 3;
    g_ = graph::GenerateGeoGraph(geo, &interner_);
    auto regex = automata::ParseRegex("highway+", &interner_);
    EXPECT_TRUE(regex.ok());
    goal_ = graph::PathQuery{regex.value(), std::nullopt};
    oracle_ = std::make_unique<glearn::GoalPathOracle>(goal_, g_);
    for (graph::EdgeId e = 0; e < g_.NumEdges(); ++e) {
      if (interner_.Name(g_.edge(e).label) == "highway") {
        seed_.start = g_.edge(e).src;
        seed_.edges = {e};
        break;
      }
    }
    EXPECT_FALSE(seed_.edges.empty());
  }

  bool OracleAnswer(const glearn::PathEngine::Question& question) const {
    return oracle_->IsPositive(*question.path);
  }

  LearningSession<glearn::PathEngine> MakeSession(
      glearn::PathStrategy strategy) const {
    glearn::InteractivePathOptions options;
    options.strategy = strategy;
    options.max_path_edges = 3;
    options.max_candidates = 800;
    SessionOptions session_options;
    session_options.seed = 19;
    return LearningSession<glearn::PathEngine>(
        glearn::PathEngine(&g_, seed_, options), session_options);
  }

  common::Interner interner_;
  graph::Graph g_;
  graph::PathQuery goal_;
  std::unique_ptr<glearn::GoalPathOracle> oracle_;
  graph::Path seed_;
};

TEST_F(PathSnapshotFixture, MidRunRestoreReplaysRemainingSequence) {
  // kRandom exercises the RNG lanes; kFrontier the generalization-cost
  // ordering over the restored candidate pool.
  for (glearn::PathStrategy strategy :
       {glearn::PathStrategy::kRandom, glearn::PathStrategy::kFrontier}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    auto reference = MakeSession(strategy);
    std::vector<std::pair<std::vector<common::SymbolId>, bool>> want;
    while (auto q = reference.NextQuestion()) {
      const bool answer = OracleAnswer(*q);
      want.push_back({*q->word, answer});
      reference.Answer(answer);
    }
    const glearn::ConcatPattern want_learned = reference.Finish();
    ASSERT_GT(want.size(), 4u) << "fixture too easy to split mid-run";

    for (size_t split = 1; split + 1 < want.size(); ++split) {
      SCOPED_TRACE(split);
      auto original = MakeSession(strategy);
      for (size_t i = 0; i < split; ++i) {
        auto q = original.NextQuestion();
        ASSERT_TRUE(q.has_value());
        ASSERT_EQ(*q->word, want[i].first) << "diverged before snapshot";
        original.Answer(OracleAnswer(*q));
      }
      std::string image;
      ASSERT_TRUE(original.SerializeSnapshot(&image).ok());

      auto restored = MakeSession(strategy);
      ASSERT_TRUE(restored.RestoreSnapshot(image).ok());
      size_t i = split;
      while (auto q = restored.NextQuestion()) {
        ASSERT_LT(i, want.size());
        EXPECT_EQ(*q->word, want[i].first) << "question " << i;
        const bool answer = OracleAnswer(*q);
        EXPECT_EQ(answer, want[i].second) << "answer " << i;
        restored.Answer(answer);
        ++i;
      }
      EXPECT_EQ(i, want.size());
      EXPECT_EQ(restored.Finish().ToString(interner_),
                want_learned.ToString(interner_));
      EXPECT_EQ(restored.stats().questions, reference.stats().questions);
      EXPECT_EQ(restored.stats().forced_positive,
                reference.stats().forced_positive);
      EXPECT_EQ(restored.stats().forced_negative,
                reference.stats().forced_negative);
    }
  }
}

TEST_F(PathSnapshotFixture, RestoreRejectsMalformedImages) {
  auto session = MakeSession(glearn::PathStrategy::kFrontier);
  std::string image;
  ASSERT_TRUE(session.SerializeSnapshot(&image).ok());

  {
    // Foreign magic.
    std::string bad = image;
    bad[0] = 'X';
    auto fresh = MakeSession(glearn::PathStrategy::kFrontier);
    EXPECT_EQ(fresh.RestoreSnapshot(bad).code(),
              common::StatusCode::kInvalidArgument);
  }
  {
    // Unsupported version.
    std::string bad = image;
    bad[4] = static_cast<char>(0x7f);
    auto fresh = MakeSession(glearn::PathStrategy::kFrontier);
    EXPECT_EQ(fresh.RestoreSnapshot(bad).code(),
              common::StatusCode::kInvalidArgument);
  }
  {
    // Truncation anywhere in the image.
    for (size_t len : {size_t{0}, size_t{7}, size_t{40}, image.size() - 1}) {
      auto fresh = MakeSession(glearn::PathStrategy::kFrontier);
      EXPECT_EQ(
          fresh.RestoreSnapshot(std::string_view(image.data(), len)).code(),
          common::StatusCode::kInvalidArgument)
          << "prefix length " << len;
    }
  }
  {
    // Trailing garbage.
    std::string bad = image + "!";
    auto fresh = MakeSession(glearn::PathStrategy::kFrontier);
    EXPECT_EQ(fresh.RestoreSnapshot(bad).code(),
              common::StatusCode::kInvalidArgument);
  }
  {
    // Strategy mismatch: the image records the engine configuration.
    auto fresh = MakeSession(glearn::PathStrategy::kRandom);
    EXPECT_EQ(fresh.RestoreSnapshot(image).code(),
              common::StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace session
}  // namespace qlearn
