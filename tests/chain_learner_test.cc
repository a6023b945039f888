// Tests for chains of joins: hypothesis semantics, the PTIME consistency
// check (lifting the single-join tractability result), version-space path
// classification, chain materialization, the interactive protocol with
// uninformative-path propagation, and the chain's interned agreement masks
// against PairUniverse::AgreeMask.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "relational/generator.h"
#include "relational/relation.h"
#include "rlearn/chain_learner.h"
#include "rlearn/interactive_chain.h"
#include "session/session.h"
#include "session/snapshot.h"

namespace qlearn {
namespace rlearn {
namespace {

using relational::Attribute;
using relational::Relation;
using relational::RelationSchema;
using relational::Value;
using relational::ValueType;

/// Three tiny relations forming a classic FK chain (the shared
/// relational::TinyStoreChainRelations instance):
///   customers(cid, city): (1,10), (2,20), (3,10)
///   orders(cid, pid):     (1,7), (2,8), (3,7), (9,9) — the last dangles
///   products(pid, cat):   (7,100), (8,200), (9,100)
class ChainFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<Relation> rels = relational::TinyStoreChainRelations();
    customers_ = std::move(rels[0]);
    orders_ = std::move(rels[1]);
    products_ = std::move(rels[2]);
  }

  static void Ins(Relation* r, const std::vector<int64_t>& vals) {
    relational::Tuple t;
    t.reserve(vals.size());
    for (int64_t v : vals) t.emplace_back(v);
    ASSERT_TRUE(r->Insert(std::move(t)).ok());
  }

  JoinChain Chain() {
    auto chain = JoinChain::Create({&customers_, &orders_, &products_});
    EXPECT_TRUE(chain.ok()) << chain.status().ToString();
    return std::move(chain).value();
  }

  /// Mask selecting exactly the pair (left_attr == right_attr) by name.
  static PairMask MaskFor(const PairUniverse& u, const std::string& left,
                          const std::string& right,
                          const RelationSchema& ls,
                          const RelationSchema& rs) {
    PairMask m = 0;
    for (size_t i = 0; i < u.size(); ++i) {
      const auto& p = u.pairs()[i];
      if (ls.attributes()[p.left].name == left &&
          rs.attributes()[p.right].name == right) {
        m |= (1ULL << i);
      }
    }
    EXPECT_NE(m, 0u) << left << "=" << right;
    return m;
  }

  /// The natural FK goal: customers.cid = orders.cid, orders.pid =
  /// products.pid.
  ChainMask FkGoal(const JoinChain& chain) {
    return {MaskFor(chain.universe(0), "cid", "cid", customers_.schema(),
                    orders_.schema()),
            MaskFor(chain.universe(1), "pid", "pid", orders_.schema(),
                    products_.schema())};
  }

  Relation customers_;
  Relation orders_;
  Relation products_;
};

// --- Construction ---

TEST_F(ChainFixture, CreateRequiresTwoRelations) {
  auto chain = JoinChain::Create({&customers_});
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), common::StatusCode::kInvalidArgument);
}

TEST_F(ChainFixture, CreateBuildsOneUniversePerEdge) {
  const JoinChain chain = Chain();
  EXPECT_EQ(chain.length(), 3u);
  EXPECT_EQ(chain.num_edges(), 2u);
  // All attributes are ints, so every cross pair is compatible: 2x2 each.
  EXPECT_EQ(chain.universe(0).size(), 4u);
  EXPECT_EQ(chain.universe(1).size(), 4u);
}

// --- Semantics ---

TEST_F(ChainFixture, ChainSatisfiedFollowsForeignKeys) {
  const JoinChain chain = Chain();
  const ChainMask goal = FkGoal(chain);
  // (cid=1, order (1,7), product (7,100)) is a real path.
  EXPECT_TRUE(ChainSatisfied(chain, goal, {{0, 0, 0}}));
  // Break the second hop: product (8,200) does not match order (1,7).
  EXPECT_FALSE(ChainSatisfied(chain, goal, {{0, 0, 1}}));
  // Break the first hop: customer 2 did not place order (1,7).
  EXPECT_FALSE(ChainSatisfied(chain, goal, {{1, 0, 0}}));
}

TEST_F(ChainFixture, EvaluateChainMaterializesTheJoin) {
  const JoinChain chain = Chain();
  const std::vector<ChainExample> result = EvaluateChain(chain, FkGoal(chain));
  // FK paths: c1-o(1,7)-p7, c2-o(2,8)-p8, c3-o(3,7)-p7 (order (9,9) dangles).
  ASSERT_EQ(result.size(), 3u);
  std::set<std::vector<size_t>> rows;
  for (const ChainExample& e : result) rows.insert(e.rows);
  EXPECT_TRUE(rows.count({0, 0, 0}));
  EXPECT_TRUE(rows.count({1, 1, 1}));
  EXPECT_TRUE(rows.count({2, 2, 0}));
}

TEST_F(ChainFixture, EvaluateChainHonorsLimit) {
  const JoinChain chain = Chain();
  EXPECT_EQ(EvaluateChain(chain, FkGoal(chain), 2).size(), 2u);
}

// --- Consistency (PTIME, generalizing the single-join result) ---

TEST_F(ChainFixture, ConsistentWithFkExamples) {
  const JoinChain chain = Chain();
  const ChainConsistency c = CheckChainConsistency(
      chain, {{{0, 0, 0}}, {{1, 1, 1}}}, {{{0, 1, 1}}});
  ASSERT_TRUE(c.consistent);
  // θ* on each edge must include the FK pair.
  const ChainMask goal = FkGoal(chain);
  EXPECT_EQ(c.most_specific[0] & goal[0], goal[0]);
  EXPECT_EQ(c.most_specific[1] & goal[1], goal[1]);
}

TEST_F(ChainFixture, InconsistentWhenPositivesShareNothingOnAnEdge) {
  const JoinChain chain = Chain();
  // (0,0,*) agrees on cid=cid at edge 0; (1,0,*) agrees nowhere at edge 0
  // (customer 2 vs order (1,7): 2≠1, 2≠7, 20≠1, 20≠7) — θ*_0 becomes empty.
  const ChainConsistency c =
      CheckChainConsistency(chain, {{{0, 0, 0}}, {{1, 0, 0}}}, {});
  EXPECT_FALSE(c.consistent);
}

TEST_F(ChainFixture, InconsistentWhenNegativeMatchesMostSpecific) {
  const JoinChain chain = Chain();
  // The same path labeled both ways.
  const ChainConsistency c =
      CheckChainConsistency(chain, {{{0, 0, 0}}}, {{{0, 0, 0}}});
  EXPECT_FALSE(c.consistent);
}

TEST_F(ChainFixture, NegativeOnOneEdgeOnlyStillConsistent) {
  const JoinChain chain = Chain();
  // Negative (0,0,1): first hop is the true FK edge, second hop broken.
  // Consistent: hypothesis needs pid=pid on edge 1 which the negative lacks.
  const ChainConsistency c =
      CheckChainConsistency(chain, {{{0, 0, 0}}}, {{{0, 0, 1}}});
  EXPECT_TRUE(c.consistent);
}

// --- Version space classification ---

TEST_F(ChainFixture, ClassifyForcedPositive) {
  const JoinChain chain = Chain();
  ChainVersionSpace vs(&chain);
  vs.AddPositive({{0, 0, 0}});
  vs.AddPositive({{1, 1, 1}});
  // After two FK positives θ* = FK pairs only; path (2,2,0) satisfies both
  // hops (c3-o(3,7)-p7), so every hypothesis in the space selects it.
  EXPECT_EQ(vs.Classify({{2, 2, 0}}),
            ChainVersionSpace::PathStatus::kForcedPositive);
}

TEST_F(ChainFixture, ClassifyForcedNegativeOnEmptyEdgeCandidate) {
  const JoinChain chain = Chain();
  ChainVersionSpace vs(&chain);
  vs.AddPositive({{0, 0, 0}});
  vs.AddPositive({{1, 1, 1}});
  // Path (1,0,0): customer 2 agrees with order (1,7) on no pair at all, so
  // A_0 = 0 — no hypothesis can select it.
  EXPECT_EQ(vs.Classify({{1, 0, 0}}),
            ChainVersionSpace::PathStatus::kForcedNegative);
}

TEST_F(ChainFixture, ClassifyInformativeBeforeAnyExamples) {
  const JoinChain chain = Chain();
  ChainVersionSpace vs(&chain);
  // With no examples every full-agreement subset is alive; a true FK path
  // is forced positive only once θ* shrinks to it... initially the full
  // mask is NOT satisfied by (0,0,0) (cid=pid pairs disagree), and no
  // negative blocks the candidate, so the path is informative.
  EXPECT_EQ(vs.Classify({{0, 0, 0}}),
            ChainVersionSpace::PathStatus::kInformative);
}

TEST_F(ChainFixture, ClassifyForcedNegativeViaRecordedNegative) {
  const JoinChain chain = Chain();
  ChainVersionSpace vs(&chain);
  vs.AddPositive({{0, 0, 0}});
  vs.AddNegative({{2, 0, 0}});  // c3 vs order(1,7): agrees cid? 3≠1... none
  // Wait: c3=(3,10) vs o=(1,7): no agreement — the negative is trivially
  // excluded. Use a negative that shares the surviving agreement instead:
  // (0,2,0): c1=(1,10) vs o3=(3,7): 1≠3 & 1≠7 — also empty on edge 0.
  // Both are fine for this test: any path whose maximal candidate is
  // included in a negative's agreement must be forced negative. Path
  // (2,0,0) itself: A_0 = θ*_0 ∩ agree = 0 → forced negative.
  EXPECT_EQ(vs.Classify({{2, 0, 0}}),
            ChainVersionSpace::PathStatus::kForcedNegative);
}

// --- Interactive session ---

TEST_F(ChainFixture, InteractiveSessionLearnsTheFkChain) {
  const JoinChain chain = Chain();
  const ChainMask goal = FkGoal(chain);
  GoalChainOracle oracle(goal);
  for (ChainStrategy strategy :
       {ChainStrategy::kHuntThenSplit, ChainStrategy::kRandom}) {
    InteractiveChainOptions options;
    options.strategy = strategy;
    auto result = RunInteractiveChainSession(chain, &oracle, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().conflicts, 0u);
    // The learned hypothesis must agree with the goal on every candidate
    // path (answer-equivalence over the instance).
    for (const ChainExample& e :
         EvaluateChain(chain, result.value().learned)) {
      EXPECT_TRUE(ChainSatisfied(chain, goal, e));
    }
    for (const ChainExample& e : EvaluateChain(chain, goal)) {
      EXPECT_TRUE(ChainSatisfied(chain, result.value().learned, e));
    }
    // And it must have asked far fewer questions than there are paths.
    EXPECT_LT(result.value().questions, result.value().candidate_paths);
    EXPECT_EQ(result.value().questions + result.value().forced_positive +
                  result.value().forced_negative,
              result.value().candidate_paths);
  }
}

TEST_F(ChainFixture, InteractiveSessionRejectsNullOracle) {
  const JoinChain chain = Chain();
  EXPECT_FALSE(RunInteractiveChainSession(chain, nullptr).ok());
}

TEST_F(ChainFixture, CandidateCapRespected) {
  const JoinChain chain = Chain();
  GoalChainOracle oracle(FkGoal(chain));
  InteractiveChainOptions options;
  options.max_candidates = 5;
  auto result = RunInteractiveChainSession(chain, &oracle, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().candidate_paths, 5u);
}

TEST_F(ChainFixture, IntrospectionBeyondCandidateCapReportsNoLabel) {
  const JoinChain chain = Chain();
  InteractiveChainOptions options;
  options.max_candidates = 5;
  ChainEngine engine(&chain, options);
  // The last path of the 3x4x3 product is far past the 5-candidate cap; it
  // was never considered, so it carries no asked/forced state (and must not
  // index past the candidate vectors).
  const ChainExample beyond{{2, 3, 2}};
  EXPECT_FALSE(engine.WasAsked(beyond));
  EXPECT_FALSE(engine.HasForcedLabel(beyond));
  // Malformed paths have no candidate slot either: an out-of-range row
  // must not alias another candidate via mixed-radix wraparound, and a
  // wrong-arity row vector must not be indexed at all.
  const ChainExample out_of_range{{0, 5, 0}};
  EXPECT_FALSE(engine.WasAsked(out_of_range));
  EXPECT_FALSE(engine.HasForcedLabel(out_of_range));
  const ChainExample wrong_arity{{0, 0}};
  EXPECT_FALSE(engine.WasAsked(wrong_arity));
  EXPECT_FALSE(engine.HasForcedLabel(wrong_arity));
}

// --- Bug regressions ---

TEST_F(ChainFixture, EvaluateChainLimitIsOrderPreserving) {
  const JoinChain chain = Chain();
  // The capped result is the row-major prefix of the uncapped one.
  const std::vector<ChainExample> all = EvaluateChain(chain, FkGoal(chain));
  const std::vector<ChainExample> capped =
      EvaluateChain(chain, FkGoal(chain), 2);
  ASSERT_EQ(capped.size(), 2u);
  EXPECT_EQ(capped[0].rows, all[0].rows);
  EXPECT_EQ(capped[1].rows, all[1].rows);
}

TEST(ChainEvaluate, LimitBoundsWorkOnAllAgreePermissiveChains) {
  // Four relations whose single attribute is constant: every edge mask is
  // satisfied by every path, so a layered (frontier-per-edge) expansion
  // materializes rows^3 partial paths before the final edge can apply the
  // limit. The depth-first expansion must return the capped result without
  // visiting more than a handful of paths.
  constexpr int kRows = 30;
  std::vector<Relation> rels;
  rels.reserve(4);
  for (int i = 0; i < 4; ++i) {
    Relation r(RelationSchema("r" + std::to_string(i),
                              {{"a", ValueType::kInt}}));
    for (int row = 0; row < kRows; ++row) {
      relational::Tuple t;
      t.push_back(Value(static_cast<int64_t>(1)));
      ASSERT_TRUE(r.Insert(std::move(t)).ok());
    }
    rels.push_back(std::move(r));
  }
  auto chain_or =
      JoinChain::Create({&rels[0], &rels[1], &rels[2], &rels[3]});
  ASSERT_TRUE(chain_or.ok());
  const JoinChain& chain = chain_or.value();
  ChainMask all_agree;
  for (size_t e = 0; e < chain.num_edges(); ++e) {
    all_agree.push_back(chain.universe(e).FullMask());
  }
  const std::vector<ChainExample> capped = EvaluateChain(chain, all_agree, 5);
  ASSERT_EQ(capped.size(), 5u);
  // Row-major order: the cap returns the lexicographically first paths.
  EXPECT_EQ(capped[0].rows, (std::vector<size_t>{0, 0, 0, 0}));
  EXPECT_EQ(capped[4].rows, (std::vector<size_t>{0, 0, 0, 4}));
}

TEST_F(ChainFixture, ConflictKeepsLastConsistentHypothesis) {
  // Two positives that share no agreement on edge 0 empty θ*_0 out. The
  // engine must abort and keep reporting the last consistent θ* — the raw
  // post-conflict vector would violate the one-non-empty-mask-per-edge
  // ChainMask invariant.
  const JoinChain chain = Chain();
  ChainEngine engine(&chain, {});
  session::SessionStats stats;
  const ChainExample first{{0, 0, 0}};
  engine.MarkAsked(first);
  engine.Observe(first, true, &stats);
  ASSERT_FALSE(engine.Aborted());
  const ChainMask before_conflict = engine.Current();

  // Customer 2's row agrees with order (1,7) on nothing.
  const ChainExample contradiction{{1, 0, 0}};
  engine.MarkAsked(contradiction);
  engine.Observe(contradiction, true, &stats);
  EXPECT_TRUE(engine.Aborted());
  EXPECT_EQ(stats.conflicts, 1u);
  EXPECT_EQ(engine.Current(), before_conflict);
  EXPECT_EQ(engine.Finish(&stats), before_conflict);
  ASSERT_EQ(before_conflict.size(), chain.num_edges());
  for (const PairMask mask : before_conflict) EXPECT_NE(mask, 0u);
}

TEST(ChainSplitHalf, ScorerSurvivesAllNegativeSplitScores) {
  // Five relations, universes of size 1/1/1/3. After one positive, θ* is a
  // single pair on the first three edges, so every informative path keeps
  // all of those odd-sized masks and scores -1 per edge: all split scores
  // are below the old `best_primary = -1` sentinel, which silently degraded
  // selection to informative[0]. The fixed scorer must pick the argmax.
  std::vector<Relation> rels;
  rels.reserve(5);
  for (int i = 0; i < 4; ++i) {
    Relation r(RelationSchema("r" + std::to_string(i),
                              {{"a", ValueType::kInt}}));
    relational::Tuple t;
    t.push_back(Value(static_cast<int64_t>(1)));
    ASSERT_TRUE(r.Insert(std::move(t)).ok());
    rels.push_back(std::move(r));
  }
  Relation last(RelationSchema("r4", {{"x", ValueType::kInt},
                                      {"y", ValueType::kInt},
                                      {"z", ValueType::kInt}}));
  for (auto [x, y, z] : {std::tuple<int64_t, int64_t, int64_t>{1, 1, 1},
                         {1, 1, 9},
                         {1, 8, 9}}) {
    relational::Tuple t;
    t.push_back(Value(x));
    t.push_back(Value(y));
    t.push_back(Value(z));
    ASSERT_TRUE(last.Insert(std::move(t)).ok());
  }
  rels.push_back(std::move(last));
  auto chain_or = JoinChain::Create(
      {&rels[0], &rels[1], &rels[2], &rels[3], &rels[4]});
  ASSERT_TRUE(chain_or.ok());
  const JoinChain& chain = chain_or.value();
  ASSERT_EQ(chain.num_edges(), 4u);
  ASSERT_EQ(chain.universe(3).size(), 3u);

  ChainEngine engine(&chain, {});  // kHuntThenSplit
  session::SessionStats stats;
  common::Rng rng(1);
  const ChainExample positive{{0, 0, 0, 0, 0}};  // agrees on all pairs
  engine.MarkAsked(positive);
  engine.Observe(positive, true, &stats);
  engine.OnPositive(positive);
  ASSERT_FALSE(engine.Aborted());
  engine.Propagate(&stats);

  // Remaining informative paths: (...,1) keeps 2 of θ*_3 (split -3) and
  // (...,2) keeps 1 of θ*_3 (split -2, the even split of 3 — the argmax).
  const auto question = engine.SelectQuestion(&rng);
  ASSERT_TRUE(question.has_value());
  EXPECT_EQ(question->rows, (std::vector<size_t>{0, 0, 0, 0, 2}));
}

// --- Hibernation ---

TEST_F(ChainFixture, RestoreRejectsMaskBitsOutsideAnEdgesUniverse) {
  // Each edge of this chain has a 4-pair universe and so 4 planes. A mask
  // bit past that names no plane; restore must refuse it rather than let
  // the next sweep read past the store.
  const JoinChain chain = Chain();
  ChainEngine engine(&chain);
  session::SessionStats stats;
  const ChainExample negative{{1, 0, 0}};
  engine.MarkAsked(negative);
  engine.Observe(negative, /*positive=*/false, &stats);
  engine.OnNegative(negative);
  engine.Propagate(&stats);
  session::SnapshotWriter writer;
  engine.SerializeSnapshot(&writer);
  const std::string image = writer.bytes();
  // Magic, version, strategy and aborted bytes, then the edge, class and
  // plane counts; then θ* and the last consistent θ* (one word per edge),
  // the positive and negative counts, and the negatives' masks.
  const size_t theta = 4 + 4 + 1 + 1 + 3 * 8;
  const size_t last = theta + 2 * 8;
  const size_t negatives = last + 2 * 8 + 2 * 8;
  ASSERT_GT(image.size(), negatives + 2 * 8);
  {
    ChainEngine fresh(&chain);
    session::SnapshotReader reader(image);
    ASSERT_TRUE(fresh.RestoreSnapshot(&reader).ok());
  }
  for (const auto& [offset, bit] :
       {std::pair{theta + 8, 63}, std::pair{last, 4},
        std::pair{negatives + 8, 7}}) {
    SCOPED_TRACE("byte " + std::to_string(offset) + " bit " +
                 std::to_string(bit));
    std::string bad = image;
    bad[offset + bit / 8] = static_cast<char>(
        static_cast<unsigned char>(bad[offset + bit / 8]) | 1u << (bit % 8));
    ChainEngine fresh(&chain);
    session::SnapshotReader reader(bad);
    const common::Status status = fresh.RestoreSnapshot(&reader);
    EXPECT_EQ(status.code(), common::StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("outside edge"), std::string::npos)
        << status.message();
  }
}

// --- Longer chains ---

TEST_F(ChainFixture, FourRelationChain) {
  // Extend with a categories relation keyed by the product category.
  Relation categories(RelationSchema(
      "categories", {{"cat", ValueType::kInt}, {"tax", ValueType::kInt}}));
  Ins(&categories, {100, 1});
  Ins(&categories, {200, 2});
  auto chain_or = JoinChain::Create(
      {&customers_, &orders_, &products_, &categories});
  ASSERT_TRUE(chain_or.ok());
  const JoinChain& chain = chain_or.value();
  EXPECT_EQ(chain.num_edges(), 3u);

  ChainMask goal = FkGoal(chain);
  goal.push_back(MaskFor(chain.universe(2), "cat", "cat",
                         products_.schema(), categories.schema()));
  const std::vector<ChainExample> paths = EvaluateChain(chain, goal);
  // Every FK path extends uniquely through its category.
  EXPECT_EQ(paths.size(), 3u);

  GoalChainOracle oracle(goal);
  auto result = RunInteractiveChainSession(chain, &oracle, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().conflicts, 0u);
  EXPECT_LT(result.value().questions, result.value().candidate_paths / 2);
}

// --- Interned agreement ---

/// A cell drawn from a pool that hits every EqualsSql corner: NULL, int 1
/// against double 1.0 (different types, never equal), NaN (equal to
/// nothing, not even itself), -0.0 against 0.0 (equal), and strings.
Value RandomCell(common::Rng* rng) {
  switch (rng->Index(11)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(static_cast<int64_t>(1));
    case 2:
      return Value(1.0);
    case 3:
      return Value(std::numeric_limits<double>::quiet_NaN());
    case 4:
      return Value(-0.0);
    case 5:
      return Value(0.0);
    case 6:
      return Value(static_cast<int64_t>(0));
    case 7:
      return Value(std::string("a"));
    case 8:
      return Value(std::string("1"));
    case 9:
      return Value(std::string());
    default:
      return Value(static_cast<int64_t>(rng->Index(3)));
  }
}

/// `rows` rows of `arity` random cells. Every attribute is declared
/// double, so all pairs of two such schemas are type-compatible; the cells
/// ignore the declaration on purpose.
Relation RandomRelation(const std::string& name, size_t arity, size_t rows,
                        common::Rng* rng) {
  std::vector<Attribute> attributes;
  for (size_t a = 0; a < arity; ++a) {
    attributes.push_back({"c" + std::to_string(a), ValueType::kDouble});
  }
  Relation relation(RelationSchema(name, std::move(attributes)));
  for (size_t r = 0; r < rows; ++r) {
    relational::Tuple t;
    for (size_t a = 0; a < arity; ++a) t.push_back(RandomCell(rng));
    relation.InsertUnchecked(std::move(t));
  }
  return relation;
}

TEST(InternedAgreement, MatchesPairUniverseAgreeMaskOnRandomRelations) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    common::Rng rng(seed);
    std::vector<Relation> rels;
    rels.reserve(3);
    for (size_t i = 0; i < 3; ++i) {
      rels.push_back(RandomRelation("r" + std::to_string(i), 2 + rng.Index(3),
                                    1 + rng.Index(12), &rng));
    }
    auto chain = JoinChain::Create({&rels[0], &rels[1], &rels[2]});
    ASSERT_TRUE(chain.ok()) << chain.status().ToString();
    ASSERT_EQ(chain.value().num_edges(), 2u);
    for (size_t e = 0; e < 2; ++e) {
      const PairUniverse& universe = chain.value().universe(e);
      std::vector<PairMask> row_masks(rels[e + 1].size());
      for (size_t l = 0; l < rels[e].size(); ++l) {
        chain.value().AgreeRow(e, l, row_masks.data());
        for (size_t r = 0; r < rels[e + 1].size(); ++r) {
          std::vector<size_t> rows(3, 0);
          rows[e] = l;
          rows[e + 1] = r;
          const PairMask want =
              universe.AgreeMask(rels[e].row(l), rels[e + 1].row(r));
          EXPECT_EQ(chain.value().AgreeOn(e, rows), want)
              << "seed " << seed << " edge " << e << " rows " << l << ","
              << r;
          EXPECT_EQ(row_masks[r], want)
              << "seed " << seed << " edge " << e << " rows " << l << ","
              << r;
        }
      }
    }
    // The one-edge chain over a caller's universe (the join engine's
    // shape), including pairs the schemas would not call compatible.
    std::vector<relational::AttributePair> pairs;
    for (size_t a = 0; a < rels[0].schema().arity(); ++a) {
      for (size_t b = 0; b < rels[2].schema().arity(); ++b) {
        pairs.push_back({a, b});
      }
    }
    auto universe = PairUniverse::Create(std::move(pairs));
    ASSERT_TRUE(universe.ok());
    const JoinChain join =
        JoinChain::ForJoin(universe.value(), &rels[0], &rels[2]);
    std::vector<PairMask> row_masks(rels[2].size());
    for (size_t l = 0; l < rels[0].size(); ++l) {
      join.AgreeRow(0, l, row_masks.data());
      for (size_t r = 0; r < rels[2].size(); ++r) {
        const PairMask want =
            universe.value().AgreeMask(rels[0].row(l), rels[2].row(r));
        EXPECT_EQ(join.AgreeOn(0, {l, r}), want)
            << "seed " << seed << " rows " << l << "," << r;
        EXPECT_EQ(row_masks[r], want)
            << "seed " << seed << " rows " << l << "," << r;
      }
    }
  }
}

TEST(InternedAgreement, MatchesAgreeMaskOnWideValueDomains) {
  // Besides the corner cells, many distinct ints, doubles (each int's
  // double twin among them) and strings, so every typed dictionary grows
  // several times and probes across collisions.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    common::Rng rng(seed);
    auto cell = [&rng]() -> Value {
      const int64_t k = static_cast<int64_t>(rng.Index(81)) - 40;
      switch (rng.Index(4)) {
        case 0:
          return RandomCell(&rng);
        case 1:
          return Value(k);
        case 2:
          return Value(static_cast<double>(k) * 0.5);
        default:
          return Value("s" + std::to_string(k));
      }
    };
    std::vector<Relation> rels;
    for (const char* name : {"L", "R"}) {
      std::vector<Attribute> attributes;
      for (size_t a = 0; a < 4; ++a) {
        attributes.push_back({"c" + std::to_string(a), ValueType::kDouble});
      }
      Relation relation(RelationSchema(name, std::move(attributes)));
      for (size_t r = 0; r < 60; ++r) {
        relational::Tuple t;
        for (size_t a = 0; a < 4; ++a) t.push_back(cell());
        relation.InsertUnchecked(std::move(t));
      }
      rels.push_back(std::move(relation));
    }
    auto universe = PairUniverse::AllCompatible(rels[0].schema(),
                                                rels[1].schema());
    ASSERT_TRUE(universe.ok());
    const JoinChain join = JoinChain::ForJoin(universe.value(), &rels[0],
                                              &rels[1]);
    std::vector<PairMask> row_masks(rels[1].size());
    for (size_t l = 0; l < rels[0].size(); ++l) {
      join.AgreeRow(0, l, row_masks.data());
      for (size_t r = 0; r < rels[1].size(); ++r) {
        EXPECT_EQ(row_masks[r],
                  universe.value().AgreeMask(rels[0].row(l), rels[1].row(r)))
            << "seed " << seed << " rows " << l << "," << r;
      }
    }
  }
}

TEST(InternedAgreement, SqlEqualityCorners) {
  // Column pairs (i, i) of one row each: bit i says whether the two cells
  // are EqualsSql-equal.
  const std::vector<std::pair<Value, Value>> cells = {
      {Value::Null(), Value::Null()},                  // 0: never equal
      {Value(static_cast<int64_t>(1)), Value(1.0)},    // 1: int vs double
      {Value(std::numeric_limits<double>::quiet_NaN()),
       Value(std::numeric_limits<double>::quiet_NaN())},  // 2: NaN
      {Value(-0.0), Value(0.0)},                       // 3: equal
      {Value(std::string("a")), Value(std::string("a"))},  // 4: equal
      {Value(std::string("a")), Value(std::string("b"))},  // 5: differ
      {Value(static_cast<int64_t>(7)),
       Value(static_cast<int64_t>(7))},                // 6: equal
  };
  std::vector<Attribute> attributes;
  std::vector<relational::AttributePair> pairs;
  relational::Tuple left_row, right_row;
  for (size_t i = 0; i < cells.size(); ++i) {
    attributes.push_back({"c" + std::to_string(i), ValueType::kDouble});
    pairs.push_back({i, i});
    left_row.push_back(cells[i].first);
    right_row.push_back(cells[i].second);
  }
  Relation left(RelationSchema("L", attributes));
  Relation right(RelationSchema("R", attributes));
  // Each row goes into both relations, so identical rows meet too.
  left.InsertUnchecked(left_row);
  left.InsertUnchecked(right_row);
  right.InsertUnchecked(right_row);
  right.InsertUnchecked(left_row);
  auto universe = PairUniverse::Create(pairs);
  ASSERT_TRUE(universe.ok());
  const JoinChain join = JoinChain::ForJoin(universe.value(), &left, &right);
  const PairMask equal = (1u << 3) | (1u << 4) | (1u << 6);
  EXPECT_EQ(join.AgreeOn(0, {0, 0}), equal);
  EXPECT_EQ(join.AgreeOn(0, {1, 1}), equal);
  // Identical rows: NULL and NaN still agree with nothing.
  const PairMask identical = equal | (1u << 1) | (1u << 5);
  EXPECT_EQ(join.AgreeOn(0, {0, 1}), identical);
  EXPECT_EQ(join.AgreeOn(0, {1, 0}), identical);
  PairMask row_masks[2];
  for (size_t l = 0; l < 2; ++l) {
    join.AgreeRow(0, l, row_masks);
    for (size_t r = 0; r < 2; ++r) {
      EXPECT_EQ(join.AgreeOn(0, {l, r}),
                universe.value().AgreeMask(left.row(l), right.row(r)));
      EXPECT_EQ(row_masks[r], join.AgreeOn(0, {l, r}));
    }
  }
}

// --- Mask classes ---

/// The definition of ChainEngine's mask classes: every path of the full
/// row-major product, keyed by its tuple of per-edge AgreeOn masks, with
/// class ids in order of first appearance. A capped engine enumerates a
/// prefix of the same walk, so its classes are this numbering restricted
/// to the prefix.
struct PerPathClasses {
  std::vector<uint32_t> class_of;             // per path, row-major
  std::vector<std::vector<PairMask>> tuples;  // per class, one mask per edge
};

PerPathClasses InternPerPathTuples(const JoinChain& chain) {
  PerPathClasses out;
  size_t paths = 1;
  for (size_t i = 0; i < chain.length(); ++i) paths *= chain.relation(i).size();
  std::map<std::vector<PairMask>, uint32_t> ids;
  std::vector<size_t> rows(chain.length(), 0);
  std::vector<PairMask> tuple(chain.num_edges());
  for (size_t k = 0; k < paths; ++k) {
    for (size_t i = chain.length(), rest = k; i-- > 0;) {
      rows[i] = rest % chain.relation(i).size();
      rest /= chain.relation(i).size();
    }
    for (size_t e = 0; e < chain.num_edges(); ++e) {
      tuple[e] = chain.AgreeOn(e, rows);
    }
    const auto [it, inserted] =
        ids.try_emplace(tuple, static_cast<uint32_t>(out.tuples.size()));
    if (inserted) out.tuples.push_back(tuple);
    out.class_of.push_back(it->second);
  }
  return out;
}

/// Builds a ChainEngine over `chain` at every cap in `caps` and compares
/// its classes, class count and store planes with the per-path reference.
void ExpectClassesMatchReference(const JoinChain& chain,
                                 const std::vector<size_t>& caps) {
  const PerPathClasses reference = InternPerPathTuples(chain);
  std::vector<size_t> plane_base;
  size_t planes = 0;
  for (size_t e = 0; e < chain.num_edges(); ++e) {
    plane_base.push_back(planes);
    planes += chain.universe(e).size();
  }
  for (size_t cap : caps) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    InteractiveChainOptions options;
    options.max_candidates = cap;
    const ChainEngine engine(&chain, options);
    const size_t n = std::min(cap, reference.class_of.size());
    ASSERT_EQ(engine.candidate_paths(), n);
    size_t classes = 0;
    for (size_t k = 0; k < n; ++k) {
      classes = std::max<size_t>(classes, reference.class_of[k] + 1);
      if (engine.ClassOfForTest(k) != reference.class_of[k]) {
        ADD_FAILURE() << "path " << k << ": class "
                      << engine.ClassOfForTest(k) << ", reference "
                      << reference.class_of[k];
        break;
      }
    }
    const session::CandidateStore& store = engine.StoreForTest();
    ASSERT_EQ(store.capacity(), classes);
    ASSERT_EQ(store.num_planes(), planes);
    for (size_t c = 0; c < classes; ++c) {
      for (size_t e = 0; e < chain.num_edges(); ++e) {
        for (size_t b = 0; b < chain.universe(e).size(); ++b) {
          const bool agrees = (reference.tuples[c][e] >> b & 1) != 0;
          ASSERT_EQ(store.PlaneBitForTest(plane_base[e] + b, c), agrees)
              << "class " << c << ", edge " << e << ", pair " << b;
        }
      }
    }
  }
}

/// The caps every shape is checked at: the full product, 1, one short of
/// the last relation's row count, one ending inside a prefix's run of
/// last-relation rows, and one short of the full product.
std::vector<size_t> CapsFor(const JoinChain& chain) {
  size_t paths = 1;
  for (size_t i = 0; i < chain.length(); ++i) paths *= chain.relation(i).size();
  const size_t last = chain.relation(chain.length() - 1).size();
  return {paths, 1, last - 1, paths / (3 * last) * last + last / 2,
          paths - 1};
}

TEST(ChainEngineClasses, MatchPerPathTupleInterning) {
  // Joins: learn-large's 200 x 200 instance (arity 4, domain 6) and a
  // small one; each is the one-edge chain.
  for (const auto& [left, right, arity, domain] :
       {std::tuple{200, 200, 4, 6}, std::tuple{7, 5, 3, 3}}) {
    SCOPED_TRACE("join of " + std::to_string(left) + " x " +
                 std::to_string(right) + " rows");
    relational::JoinInstanceOptions opts;
    opts.seed = 1;
    opts.left_rows = left;
    opts.right_rows = right;
    opts.left_arity = arity;
    opts.right_arity = arity;
    opts.domain_size = domain;
    const relational::JoinInstance inst =
        relational::GenerateJoinInstance(opts, 2);
    auto universe =
        PairUniverse::AllCompatible(inst.left.schema(), inst.right.schema());
    ASSERT_TRUE(universe.ok());
    const JoinChain join =
        JoinChain::ForJoin(universe.value(), &inst.left, &inst.right);
    std::vector<size_t> caps = CapsFor(join);
    caps.push_back(InteractiveChainOptions{}.max_candidates);
    ExpectClassesMatchReference(join, caps);
  }
  // FK chains of 3 and 4 relations x 24 rows and 5 relations x 6 rows:
  // every edge after the first folds onto a prefix.
  for (const auto& [relations, rows] :
       {std::pair{3, 24}, std::pair{4, 24}, std::pair{5, 6}}) {
    SCOPED_TRACE(std::to_string(relations) + " relations of " +
                 std::to_string(rows) + " rows");
    relational::ChainInstanceOptions opts;
    opts.seed = 3;
    opts.num_relations = relations;
    opts.rows = rows;
    const relational::ChainInstance inst =
        relational::GenerateChainInstance(opts);
    auto chain = JoinChain::Create(inst.pointers);
    ASSERT_TRUE(chain.ok());
    std::vector<size_t> caps = CapsFor(chain.value());
    caps.push_back(InteractiveChainOptions{}.max_candidates);
    ExpectClassesMatchReference(chain.value(), caps);
  }
  // A chain through an empty relation has no paths and no classes.
  relational::ChainInstanceOptions opts;
  opts.num_relations = 3;
  opts.rows = 5;
  const relational::ChainInstance inst =
      relational::GenerateChainInstance(opts);
  const Relation empty(inst.relations[1].schema());
  auto chain =
      JoinChain::Create({inst.pointers[0], &empty, inst.pointers[2]});
  ASSERT_TRUE(chain.ok());
  ExpectClassesMatchReference(chain.value(), {1, 4, 20000});
}

}  // namespace
}  // namespace rlearn
}  // namespace qlearn
