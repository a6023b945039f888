// Tests for join learning: the PTIME equi-join consistency check and version
// space, the NP semijoin solver (exact vs greedy, cross-validated against
// brute force), the interactive protocol with uninformative-pair
// propagation, and digest pins of join and chain question sequences.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "relational/generator.h"
#include "rlearn/chain_learner.h"
#include "rlearn/interactive_chain.h"
#include "rlearn/interactive_join.h"
#include "rlearn/join_hypothesis.h"
#include "rlearn/semijoin_learner.h"
#include "session/session.h"

namespace qlearn {
namespace rlearn {
namespace {

using relational::Attribute;
using relational::AttributePair;
using relational::JoinInstance;
using relational::JoinInstanceOptions;
using relational::Relation;
using relational::RelationSchema;
using relational::Tuple;
using relational::Value;
using relational::ValueType;

Value I(int64_t v) { return Value(v); }

/// Two small int relations with controllable values.
class RlearnFixture : public ::testing::Test {
 protected:
  RlearnFixture()
      : left_(RelationSchema("R", {Attribute{"a0", ValueType::kInt},
                                   Attribute{"a1", ValueType::kInt}})),
        right_(RelationSchema("S", {Attribute{"b0", ValueType::kInt},
                                    Attribute{"b1", ValueType::kInt}})) {}

  PairUniverse Universe() {
    auto u = PairUniverse::AllCompatible(left_.schema(), right_.schema());
    EXPECT_TRUE(u.ok());
    return std::move(u).value();
  }

  Relation left_;
  Relation right_;
};

TEST_F(RlearnFixture, UniverseBasics) {
  const PairUniverse u = Universe();
  EXPECT_EQ(u.size(), 4u);  // 2x2 int pairs
  EXPECT_EQ(u.FullMask(), 0xFULL);
  left_.InsertUnchecked({I(1), I(2)});
  right_.InsertUnchecked({I(1), I(9)});
  // Agreements: a0=b0 only.
  const PairMask agree = u.AgreeMask(left_.row(0), right_.row(0));
  EXPECT_EQ(std::popcount(agree), 1);
  EXPECT_EQ(u.Decode(agree)[0], (AttributePair{0, 0}));
}

TEST_F(RlearnFixture, UniverseCapAt64) {
  std::vector<Attribute> many;
  for (int i = 0; i < 9; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    many.push_back(Attribute{name, ValueType::kInt});
  }
  RelationSchema wide("W", many);
  EXPECT_FALSE(PairUniverse::AllCompatible(wide, wide).ok());  // 81 > 64
}

TEST_F(RlearnFixture, EquiJoinConsistencyPositiveOnly) {
  left_.InsertUnchecked({I(1), I(2)});
  right_.InsertUnchecked({I(1), I(2)});
  right_.InsertUnchecked({I(1), I(7)});
  const PairUniverse u = Universe();
  // Two positives: (0,0) agrees on a0=b0, a1=b1; (0,1) only on a0=b0.
  const auto res = CheckEquiJoinConsistency(
      u, left_, right_, {PairExample{0, 0}, PairExample{0, 1}}, {});
  ASSERT_TRUE(res.consistent);
  EXPECT_EQ(u.Decode(res.most_specific),
            (std::vector<AttributePair>{{0, 0}}));
}

TEST_F(RlearnFixture, EquiJoinConsistencyDetectsConflict) {
  left_.InsertUnchecked({I(1), I(2)});
  right_.InsertUnchecked({I(1), I(2)});
  const PairUniverse u = Universe();
  // The same pair labeled positive and negative is inconsistent.
  const auto res = CheckEquiJoinConsistency(
      u, left_, right_, {PairExample{0, 0}}, {PairExample{0, 0}});
  EXPECT_FALSE(res.consistent);
}

TEST_F(RlearnFixture, EquiJoinEmptyIntersectionInconsistent) {
  left_.InsertUnchecked({I(1), I(2)});
  right_.InsertUnchecked({I(1), I(9)});   // agrees only on a0=b0
  right_.InsertUnchecked({I(8), I(2)});   // agrees only on a1=b1
  const PairUniverse u = Universe();
  const auto res = CheckEquiJoinConsistency(
      u, left_, right_, {PairExample{0, 0}, PairExample{0, 1}}, {});
  EXPECT_FALSE(res.consistent);
}

TEST_F(RlearnFixture, VersionSpaceClassification) {
  left_.InsertUnchecked({I(1), I(2)});   // r0
  left_.InsertUnchecked({I(1), I(5)});   // r1
  right_.InsertUnchecked({I(1), I(2)});  // s0
  right_.InsertUnchecked({I(1), I(5)});  // s1
  right_.InsertUnchecked({I(7), I(7)});  // s2
  const PairUniverse u = Universe();
  // A join's version space is the one-edge chain's; a pair is the path
  // {left row, right row}.
  const JoinChain chain = JoinChain::ForJoin(u, &left_, &right_);
  ChainVersionSpace vs(&chain);
  vs.AddPositive(ChainExample{{0, 0}});  // agrees on a0=b0, a1=b1
  // (r1, s1) also agrees on both: forced positive.
  EXPECT_EQ(vs.Classify(ChainExample{{1, 1}}),
            ChainVersionSpace::PathStatus::kForcedPositive);
  // (r0, s2) agrees on nothing: forced negative.
  EXPECT_EQ(vs.Classify(ChainExample{{0, 2}}),
            ChainVersionSpace::PathStatus::kForcedNegative);
  // (r0, s1) agrees on a0=b0 only: informative (θ could be {a0=b0} or both).
  EXPECT_EQ(vs.Classify(ChainExample{{0, 1}}),
            ChainVersionSpace::PathStatus::kInformative);
}

TEST_F(RlearnFixture, SemijoinConsistentSimple) {
  left_.InsertUnchecked({I(1), I(2)});   // positive: matches s0 on a0=b0
  left_.InsertUnchecked({I(9), I(9)});   // negative: matches nothing
  right_.InsertUnchecked({I(1), I(7)});
  const PairUniverse u = Universe();
  const auto res = CheckSemijoinConsistency(u, left_, right_,
                                            {RowExample{0}}, {RowExample{1}});
  ASSERT_TRUE(res.consistent);
  EXPECT_NE(res.witness, 0u);
}

TEST_F(RlearnFixture, SemijoinInconsistentWhenNegativeMatchesEverything) {
  left_.InsertUnchecked({I(1), I(1)});
  left_.InsertUnchecked({I(1), I(1)});   // identical rows, opposite labels
  right_.InsertUnchecked({I(1), I(1)});
  const PairUniverse u = Universe();
  const auto res = CheckSemijoinConsistency(u, left_, right_,
                                            {RowExample{0}}, {RowExample{1}});
  EXPECT_FALSE(res.consistent);
}

TEST_F(RlearnFixture, SemijoinPositiveWithoutWitness) {
  left_.InsertUnchecked({I(5), I(5)});
  right_.InsertUnchecked({I(1), I(2)});
  const PairUniverse u = Universe();
  const auto res =
      CheckSemijoinConsistency(u, left_, right_, {RowExample{0}}, {});
  EXPECT_FALSE(res.consistent);
}

TEST_F(RlearnFixture, SemijoinNeedsWitnessCoordination) {
  // Positive rows each match S on different single pairs; the hypothesis
  // must fit within some witness per positive simultaneously.
  left_.InsertUnchecked({I(1), I(9)});   // matches s0 only via a0=b0
  left_.InsertUnchecked({I(9), I(2)});   // matches s1 only via a1=b1
  right_.InsertUnchecked({I(1), I(8)});  // s0
  right_.InsertUnchecked({I(8), I(2)});  // s1
  const PairUniverse u = Universe();
  const auto res = CheckSemijoinConsistency(
      u, left_, right_, {RowExample{0}, RowExample{1}}, {});
  // No single non-empty θ fits both witnesses ({a0=b0} vs {a1=b1}).
  EXPECT_FALSE(res.consistent);
}

// Brute-force cross-check on random instances: the exact solver agrees with
// enumerating all non-empty hypotheses; the greedy solver is sound.
class SemijoinProperty : public ::testing::TestWithParam<int> {};

TEST_P(SemijoinProperty, ExactMatchesBruteForce) {
  common::Rng rng(GetParam() * 104729 + 7);
  JoinInstanceOptions opts;
  opts.seed = rng.Fork();
  opts.left_rows = 6;
  opts.right_rows = 5;
  opts.left_arity = 3;
  opts.right_arity = 2;
  opts.domain_size = 3;
  const JoinInstance inst = relational::GenerateJoinInstance(opts, 2);
  auto u = PairUniverse::AllCompatible(inst.left.schema(),
                                       inst.right.schema());
  ASSERT_TRUE(u.ok());
  const PairUniverse& universe = u.value();

  // Random labels over left rows.
  std::vector<RowExample> positives;
  std::vector<RowExample> negatives;
  for (size_t i = 0; i < inst.left.size(); ++i) {
    if (rng.Bernoulli(0.4)) {
      positives.push_back(RowExample{i});
    } else if (rng.Bernoulli(0.5)) {
      negatives.push_back(RowExample{i});
    }
  }

  // Brute force over all non-empty hypotheses.
  auto selects = [&](PairMask theta, size_t row) {
    for (size_t s = 0; s < inst.right.size(); ++s) {
      if (MaskSatisfied(theta, universe.AgreeMask(inst.left.row(row),
                                                  inst.right.row(s)))) {
        return true;
      }
    }
    return false;
  };
  bool brute = false;
  for (PairMask theta = 1; theta <= universe.FullMask() && !brute; ++theta) {
    bool ok = true;
    for (const RowExample& p : positives) ok = ok && selects(theta, p.left_row);
    for (const RowExample& n : negatives) ok = ok && !selects(theta, n.left_row);
    brute = ok;
  }

  const auto exact = CheckSemijoinConsistency(universe, inst.left, inst.right,
                                              positives, negatives);
  EXPECT_EQ(exact.consistent, brute);
  if (exact.consistent) {
    // Verify the witness.
    for (const RowExample& p : positives) {
      EXPECT_TRUE(selects(exact.witness, p.left_row));
    }
    for (const RowExample& n : negatives) {
      EXPECT_FALSE(selects(exact.witness, n.left_row));
    }
  }

  const auto greedy = GreedySemijoinConsistency(
      universe, inst.left, inst.right, positives, negatives);
  if (greedy.consistent) {
    EXPECT_TRUE(brute);  // greedy is sound
    for (const RowExample& p : positives) {
      EXPECT_TRUE(selects(greedy.witness, p.left_row));
    }
    for (const RowExample& n : negatives) {
      EXPECT_FALSE(selects(greedy.witness, n.left_row));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SemijoinProperty, ::testing::Range(0, 40));

TEST_F(RlearnFixture, InteractiveSessionIdentifiesGoalOnInstance) {
  JoinInstanceOptions opts;
  opts.seed = 5;
  opts.left_rows = 20;
  opts.right_rows = 20;
  opts.left_arity = 3;
  opts.right_arity = 3;
  opts.domain_size = 4;
  const JoinInstance inst = relational::GenerateJoinInstance(opts, 2);
  auto u = PairUniverse::AllCompatible(inst.left.schema(),
                                       inst.right.schema());
  ASSERT_TRUE(u.ok());
  const PairUniverse& universe = u.value();

  PairMask goal = 0;
  for (size_t i = 0; i < universe.size(); ++i) {
    for (const AttributePair& g : inst.goal) {
      if (universe.pairs()[i] == g) goal |= (1ULL << i);
    }
  }
  GoalJoinOracle oracle(&universe, goal);

  InteractiveJoinOptions options;
  options.strategy = JoinStrategy::kSplitHalf;
  auto result = RunInteractiveJoinSession(universe, inst.left, inst.right,
                                          &oracle, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().conflicts, 0u);
  // The learned hypothesis labels every candidate pair exactly like the
  // goal (instance-equivalence).
  for (size_t i = 0; i < inst.left.size(); ++i) {
    for (size_t j = 0; j < inst.right.size(); ++j) {
      const PairMask agree =
          universe.AgreeMask(inst.left.row(i), inst.right.row(j));
      EXPECT_EQ(MaskSatisfied(result.value().learned, agree),
                MaskSatisfied(goal, agree));
    }
  }
  // Far fewer questions than candidate pairs.
  EXPECT_LT(result.value().questions, result.value().candidate_pairs / 4);
  EXPECT_EQ(result.value().questions + result.value().forced_positive +
                result.value().forced_negative,
            result.value().candidate_pairs);
}

TEST_F(RlearnFixture, InteractiveStrategiesAllTerminate) {
  JoinInstanceOptions opts;
  opts.seed = 9;
  opts.left_rows = 10;
  opts.right_rows = 10;
  const JoinInstance inst = relational::GenerateJoinInstance(opts, 1);
  auto u = PairUniverse::AllCompatible(inst.left.schema(),
                                       inst.right.schema());
  ASSERT_TRUE(u.ok());
  PairMask goal = 0;
  for (size_t i = 0; i < u.value().size(); ++i) {
    if (u.value().pairs()[i] == inst.goal[0]) goal |= (1ULL << i);
  }
  GoalJoinOracle oracle(&u.value(), goal);
  for (JoinStrategy strategy : {JoinStrategy::kRandom, JoinStrategy::kSplitHalf,
                                JoinStrategy::kLattice}) {
    InteractiveJoinOptions options;
    options.strategy = strategy;
    auto result = RunInteractiveJoinSession(u.value(), inst.left, inst.right,
                                            &oracle, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().conflicts, 0u);
    EXPECT_EQ(result.value().questions + result.value().forced_positive +
                  result.value().forced_negative,
              result.value().candidate_pairs);
  }
}

TEST_F(RlearnFixture, InteractiveRejectsEmptyUniverse) {
  auto u = PairUniverse::Create({});
  ASSERT_TRUE(u.ok());
  GoalJoinOracle oracle(&u.value(), 0);
  EXPECT_FALSE(
      RunInteractiveJoinSession(u.value(), left_, right_, &oracle, {}).ok());
}

TEST_F(RlearnFixture, InteractiveSessionRejectsNullOracle) {
  left_.InsertUnchecked({I(1), I(2)});
  right_.InsertUnchecked({I(1), I(9)});
  const PairUniverse u = Universe();
  EXPECT_EQ(
      RunInteractiveJoinSession(u, left_, right_, nullptr).status().code(),
      common::StatusCode::kInvalidArgument);
}

TEST_F(RlearnFixture, IntrospectionOutsideThePairGridReportsNoLabel) {
  // 2 x 3 grid: a row-major index would alias (0, 3) onto (1, 0) and read
  // (2, 0) past the candidate vectors. Pairs outside the grid were never
  // candidates, so they carry no asked/forced state.
  left_.InsertUnchecked({I(1), I(2)});
  left_.InsertUnchecked({I(7), I(8)});
  right_.InsertUnchecked({I(1), I(2)});
  right_.InsertUnchecked({I(1), I(3)});
  right_.InsertUnchecked({I(4), I(5)});
  const PairUniverse u = Universe();
  JoinEngine engine(&u, &left_, &right_);
  session::SessionStats stats;
  engine.Propagate(&stats);
  // Left row 1 agrees with no right row: the baseline forces its pairs
  // negative, including (1, 0), the alias of (0, 3).
  ASSERT_TRUE(engine.HasForcedLabel(PairExample{1, 0}));
  for (const PairExample& outside :
       {PairExample{left_.size(), 0}, PairExample{0, right_.size()},
        PairExample{left_.size(), right_.size()}}) {
    EXPECT_FALSE(engine.WasAsked(outside));
    EXPECT_FALSE(engine.HasForcedLabel(outside));
  }
}

TEST_F(RlearnFixture, BatchedNonEquiJoinOracleConflicts) {
  // A one-at-a-time session cannot conflict: every asked pair is
  // informative, so either answer leaves the version space consistent. A
  // batch answers several pairs against one stale propagation, which lets a
  // disjunctive oracle (a0 = b0 OR a1 = b1, outside the equi-join class)
  // empty θ*. The a-values and b-values of the two columns are disjoint, so
  // the cross pairs never agree and every open pair agrees on exactly one
  // of a0=b0 / a1=b1.
  left_.InsertUnchecked({I(1), I(10)});
  left_.InsertUnchecked({I(2), I(20)});
  right_.InsertUnchecked({I(1), I(30)});
  right_.InsertUnchecked({I(3), I(20)});
  right_.InsertUnchecked({I(2), I(10)});
  const PairUniverse u = Universe();
  session::LearningSession<JoinEngine> session(
      JoinEngine(&u, &left_, &right_));
  const std::vector<PairExample> batch = session.NextQuestions(4);
  ASSERT_EQ(batch.size(), 4u);
  std::vector<bool> labels;
  for (const PairExample& pair : batch) {
    const Tuple& l = left_.row(pair.left_row);
    const Tuple& r = right_.row(pair.right_row);
    labels.push_back(l[0] == r[0] || l[1] == r[1]);
  }
  session.AnswerAll(labels);
  EXPECT_EQ(session.stats().conflicts, 1u);
  EXPECT_TRUE(session.engine().Aborted());
  EXPECT_EQ(session.Hypothesis(), 0u);
  EXPECT_FALSE(session.NextQuestion().has_value());
  const PairMask learned = session.Finish();
  EXPECT_EQ(learned, 0u);
}

// --- Question-sequence pins ---
//
// FNV-1a digests of whole relational sessions: every question's ids in
// order, the forced and conflict counts, and the final hypothesis. They pin
// strategy tie-breaks over generated instances the goldens do not reach; a
// changed digest means a session asks different questions or learns
// something else.

uint64_t FoldDigest(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFu;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Drives `engine` to completion in batches of `batch` questions, labeling
/// by `label` with the very first answer flipped when `flip_first`, and
/// digests the run.
template <typename Engine, typename LabelFn>
uint64_t SessionDigest(Engine engine, uint64_t seed, size_t batch,
                       bool flip_first, LabelFn label) {
  session::SessionOptions options;
  options.seed = seed;
  session::LearningSession<Engine> session(std::move(engine), options);
  uint64_t hash = 14695981039346656037ULL;
  bool flip = flip_first;
  while (true) {
    const std::vector<typename Engine::Item> questions =
        session.NextQuestions(batch);
    if (questions.empty()) break;
    std::vector<bool> labels;
    for (const auto& question : questions) {
      for (uint64_t id : Engine::ItemIds(question)) hash = FoldDigest(hash, id);
      labels.push_back(label(question) != flip);
      flip = false;
    }
    session.AnswerAll(labels);
  }
  const auto learned = session.Finish();
  const session::SessionStats& stats = session.stats();
  for (uint64_t v : {uint64_t{stats.questions}, uint64_t{stats.forced_positive},
                     uint64_t{stats.forced_negative},
                     uint64_t{stats.conflicts}}) {
    hash = FoldDigest(hash, v);
  }
  if constexpr (std::is_same_v<std::decay_t<decltype(learned)>, PairMask>) {
    hash = FoldDigest(hash, learned);
  } else {
    for (PairMask mask : learned) hash = FoldDigest(hash, mask);
  }
  return hash;
}

std::string DigestList(const std::vector<uint64_t>& digests) {
  std::string out;
  char buf[32];
  for (uint64_t d : digests) {
    std::snprintf(buf, sizeof(buf), "0x%016llxULL,\n",
                  static_cast<unsigned long long>(d));
    out += buf;
  }
  return out;
}

TEST(RelationalQuestionPins, JoinSessionsReplayRecordedDigests) {
  // 16 instances x {kRandom, kSplitHalf, kLattice}, varying the seed,
  // arity, domain and row counts, answered one at a time and in batches of
  // 2 and 3 (every fourth instance flips its first answer).
  static constexpr uint64_t kExpected[48] = {
      0xebb3ac58e83cc94eULL, 0xd81b65d864472169ULL, 0xd81b65d864472169ULL,
      0x32fce47f253d3797ULL, 0xa2ae957556567a5aULL, 0xccfa8d2264c40c94ULL,
      0x35b7c12bbdcf2ba2ULL, 0x0be6863662d4cf29ULL, 0x0be6863662d4cf29ULL,
      0xfbc461b36e679152ULL, 0x405045736ffd4da8ULL, 0x2c68151238de79c6ULL,
      0x2eaa6f05ac352b20ULL, 0x5095a05d960e99ecULL, 0x1d9d04bee8f4edf4ULL,
      0x6efd15606c78a187ULL, 0x42969b6b7a4beda6ULL, 0x42969b6b7a4beda6ULL,
      0xa3a41b3a6cca69d4ULL, 0xb3fbfb5d0ea49088ULL, 0xb3fbfb5d0ea49088ULL,
      0x19d49aa621554c45ULL, 0xb1332e948dbfcee0ULL, 0xb1332e948dbfcee0ULL,
      0xcbe725f645383244ULL, 0x93e56c1dbb5bc61bULL, 0xb9e1dbea568f4a7aULL,
      0xaae8cdf4ddb76b8aULL, 0xc219ef43b58183e8ULL, 0xc219ef43b58183e8ULL,
      0xf2308b703687b31fULL, 0xe4d3fcebd21c7d5eULL, 0x3265aa05e0b6ce1fULL,
      0x877828d45c8bfac0ULL, 0x475c6ece624a0a8dULL, 0x475c6ece624a0a8dULL,
      0x3f376ea50efb91b0ULL, 0xdbaab61890d881feULL, 0xefe35cc62ab8035aULL,
      0x728a98072d56c317ULL, 0x1b1c697100976ea4ULL, 0x1b1c697100976ea4ULL,
      0xb6c0c60de6a5e351ULL, 0xa4b651555a3cb7deULL, 0x22a805ac79a5254fULL,
      0x36e524664591e87eULL, 0x9af80e7e8d2590c9ULL, 0xd55937f840c8c283ULL,
  };
  std::vector<uint64_t> actual;
  for (int i = 0; i < 16; ++i) {
    JoinInstanceOptions opts;
    opts.seed = 500 + static_cast<uint64_t>(i);
    opts.left_rows = 10 + (i % 5) * 3;
    opts.right_rows = 12 + (i % 4) * 2;
    opts.left_arity = 2 + i % 3;
    opts.right_arity = 2 + (i / 3) % 3;
    opts.domain_size = 3 + i % 4;
    const JoinInstance inst =
        relational::GenerateJoinInstance(opts, 1 + i % 2);
    auto u = PairUniverse::AllCompatible(inst.left.schema(),
                                         inst.right.schema());
    ASSERT_TRUE(u.ok());
    const PairUniverse& universe = u.value();
    PairMask goal = 0;
    for (size_t b = 0; b < universe.size(); ++b) {
      for (const AttributePair& g : inst.goal) {
        if (universe.pairs()[b] == g) goal |= (1ULL << b);
      }
    }
    for (JoinStrategy strategy : {JoinStrategy::kRandom,
                                  JoinStrategy::kSplitHalf,
                                  JoinStrategy::kLattice}) {
      InteractiveJoinOptions options;
      options.strategy = strategy;
      actual.push_back(SessionDigest(
          JoinEngine(&universe, &inst.left, &inst.right, options),
          /*seed=*/40 + static_cast<uint64_t>(i), /*batch=*/1 + i % 3,
          /*flip_first=*/i % 4 == 3, [&](const PairExample& pair) {
            return MaskSatisfied(
                goal, universe.AgreeMask(inst.left.row(pair.left_row),
                                         inst.right.row(pair.right_row)));
          }));
    }
  }
  EXPECT_EQ(actual, std::vector<uint64_t>(std::begin(kExpected),
                                          std::end(kExpected)))
      << "actual digests:\n"
      << DigestList(actual);
}

TEST(RelationalQuestionPins, ChainSessionsReplayRecordedDigests) {
  // 8 generated FK chains of 3 and 4 relations x {kRandom, split}.
  static constexpr uint64_t kExpected[16] = {
      0xc67a783a33e8651aULL, 0x3fcf580a4188115bULL, 0x846cc3330abc3cb6ULL,
      0x8f2b4c524c45debbULL, 0x3fd6e7143c3e0fb7ULL, 0x8813a2ff1071e866ULL,
      0x260e99b799fa6ff9ULL, 0x4ca5ccf26c6b74d6ULL, 0x9b5da8c019a0f6afULL,
      0xed6390f4bdc2f9d9ULL, 0xa51016a8e177c3e8ULL, 0x7dce1680ef5468ddULL,
      0x723404e462e27058ULL, 0x059cfc10f26f7839ULL, 0x7bd30796f4f73f32ULL,
      0x1b9300ecf8f89295ULL,
  };
  std::vector<uint64_t> actual;
  for (int i = 0; i < 8; ++i) {
    relational::ChainInstanceOptions opts;
    opts.seed = 900 + static_cast<uint64_t>(i);
    opts.num_relations = 3 + i % 2;
    opts.rows = 4 + i % 3;
    const relational::ChainInstance inst =
        relational::GenerateChainInstance(opts);
    auto chain = JoinChain::Create(inst.pointers);
    ASSERT_TRUE(chain.ok());
    const ChainMask goal = NamePairChainGoal(chain.value(), "fk", "key");
    for (ChainStrategy strategy :
         {ChainStrategy::kRandom, ChainStrategy::kHuntThenSplit}) {
      InteractiveChainOptions options;
      options.strategy = strategy;
      actual.push_back(SessionDigest(
          ChainEngine(&chain.value(), options),
          /*seed=*/70 + static_cast<uint64_t>(i), /*batch=*/1 + i % 3,
          /*flip_first=*/i % 4 == 3, [&](const ChainExample& example) {
            return ChainSatisfied(chain.value(), goal, example);
          }));
    }
  }
  EXPECT_EQ(actual, std::vector<uint64_t>(std::begin(kExpected),
                                          std::end(kExpected)))
      << "actual digests:\n"
      << DigestList(actual);
}

TEST(RelationalQuestionPins, LargeJoinSessionsReplayRecordedDigests) {
  // The small-instance pins above give almost every agreement mask a single
  // pair. These 200 x 200 joins (arity 4, domain 6: learn-large's shape)
  // give most masks many pairs, so they pin the tie-breaks among equal-mask
  // pairs: 4 instances x {kRandom, kSplitHalf, kLattice}, in batches of 1-3,
  // with the first answer flipped on instance 3.
  static constexpr uint64_t kExpected[12] = {
      0x708ccf2b7c2391e8ULL, 0x30f1ca7d00f98722ULL, 0x8be1515c2cb005d8ULL,
      0xa723e27950d56201ULL, 0x673654a8130e0d81ULL, 0x673654a8130e0d81ULL,
      0x67894d98a7526b8cULL, 0x1021fd77834d8387ULL, 0x19cda2d21e2821a2ULL,
      0x425d56aedb1525a3ULL, 0xd7789e12de29000aULL, 0xd7789e12de29000aULL,
  };
  std::vector<uint64_t> actual;
  for (int i = 0; i < 4; ++i) {
    JoinInstanceOptions opts;
    opts.seed = 1 + 4 * static_cast<uint64_t>(i);
    opts.left_rows = 200;
    opts.right_rows = 200;
    opts.left_arity = 4;
    opts.right_arity = 4;
    opts.domain_size = 6;
    const JoinInstance inst = relational::GenerateJoinInstance(opts, 2);
    auto u = PairUniverse::AllCompatible(inst.left.schema(),
                                         inst.right.schema());
    ASSERT_TRUE(u.ok());
    const PairUniverse& universe = u.value();
    PairMask goal = 0;
    for (size_t b = 0; b < universe.size(); ++b) {
      for (const AttributePair& g : inst.goal) {
        if (universe.pairs()[b] == g) goal |= (1ULL << b);
      }
    }
    for (JoinStrategy strategy : {JoinStrategy::kRandom,
                                  JoinStrategy::kSplitHalf,
                                  JoinStrategy::kLattice}) {
      InteractiveJoinOptions options;
      options.strategy = strategy;
      actual.push_back(SessionDigest(
          JoinEngine(&universe, &inst.left, &inst.right, options),
          /*seed=*/90 + static_cast<uint64_t>(i), /*batch=*/1 + i % 3,
          /*flip_first=*/i == 3, [&](const PairExample& pair) {
            return MaskSatisfied(
                goal, universe.AgreeMask(inst.left.row(pair.left_row),
                                         inst.right.row(pair.right_row)));
          }));
    }
  }
  EXPECT_EQ(actual, std::vector<uint64_t>(std::begin(kExpected),
                                          std::end(kExpected)))
      << "actual digests:\n"
      << DigestList(actual);
}

TEST(RelationalQuestionPins, LargeChainSessionsReplayRecordedDigests) {
  // 3 x 24-row FK chains (learn-large's shape: 13,824 paths over a few
  // hundred mask tuples) x {kRandom, kHuntThenSplit}, in batches of 1-3,
  // with the first answer flipped on instance 3.
  static constexpr uint64_t kExpected[8] = {
      0x7b927ecc07916070ULL, 0x4a0f20e4570ed923ULL, 0x327847ff29969f77ULL,
      0x06e525e2fb1704d8ULL, 0x9dca0f9cf04035e4ULL, 0xe9818389b324125cULL,
      0x125e614cb6395222ULL, 0x2b51806352e53946ULL,
  };
  std::vector<uint64_t> actual;
  for (int i = 0; i < 4; ++i) {
    relational::ChainInstanceOptions opts;
    opts.seed = 1 + 4 * static_cast<uint64_t>(i);
    opts.num_relations = 3;
    opts.rows = 24;
    const relational::ChainInstance inst =
        relational::GenerateChainInstance(opts);
    auto chain = JoinChain::Create(inst.pointers);
    ASSERT_TRUE(chain.ok());
    const ChainMask goal = NamePairChainGoal(chain.value(), "fk", "key");
    for (ChainStrategy strategy :
         {ChainStrategy::kRandom, ChainStrategy::kHuntThenSplit}) {
      InteractiveChainOptions options;
      options.strategy = strategy;
      actual.push_back(SessionDigest(
          ChainEngine(&chain.value(), options),
          /*seed=*/110 + static_cast<uint64_t>(i), /*batch=*/1 + i % 3,
          /*flip_first=*/i == 3, [&](const ChainExample& example) {
            return ChainSatisfied(chain.value(), goal, example);
          }));
    }
  }
  EXPECT_EQ(actual, std::vector<uint64_t>(std::begin(kExpected),
                                          std::end(kExpected)))
      << "actual digests:\n"
      << DigestList(actual);
}

}  // namespace
}  // namespace rlearn
}  // namespace qlearn
