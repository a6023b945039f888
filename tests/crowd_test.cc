// Tests for the crowdsourcing module: the HIT cost ledger, majority-vote
// noise reduction, feature selection, and the crowd join session's
// cost/accuracy behaviour under reliable and unreliable workers.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "crowd/crowd_join.h"
#include "relational/generator.h"
#include "relational/relation.h"

namespace qlearn {
namespace crowd {
namespace {

using relational::Relation;
using relational::RelationSchema;
using relational::Value;
using relational::ValueType;

class CrowdFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    left_ = Relation(RelationSchema(
        "photos_a",
        {{"subject", ValueType::kInt}, {"place", ValueType::kInt}}));
    right_ = Relation(RelationSchema(
        "photos_b",
        {{"subject", ValueType::kInt}, {"place", ValueType::kInt}}));
    // subjects 1..4; places mostly shared (a weak filter), subjects strong.
    Ins(&left_, {1, 100});
    Ins(&left_, {2, 100});
    Ins(&left_, {3, 100});
    Ins(&left_, {4, 200});
    Ins(&right_, {1, 100});
    Ins(&right_, {2, 100});
    Ins(&right_, {3, 200});
    Ins(&right_, {5, 200});
    auto u = rlearn::PairUniverse::AllCompatible(left_.schema(),
                                                 right_.schema());
    ASSERT_TRUE(u.ok());
    universe_ = std::move(u).value();
    // Goal: same subject.
    goal_ = 0;
    for (size_t i = 0; i < universe_.size(); ++i) {
      const auto& p = universe_.pairs()[i];
      if (left_.schema().attributes()[p.left].name == "subject" &&
          right_.schema().attributes()[p.right].name == "subject") {
        goal_ |= (1ULL << i);
      }
    }
    ASSERT_NE(goal_, 0u);
  }

  static void Ins(Relation* r, const std::vector<int64_t>& vals) {
    relational::Tuple t;
    t.reserve(vals.size());
    for (int64_t v : vals) t.emplace_back(v);
    ASSERT_TRUE(r->Insert(std::move(t)).ok());
  }

  Relation left_;
  Relation right_;
  rlearn::PairUniverse universe_;
  rlearn::PairMask goal_ = 0;
};

// --- Cost model ---

TEST(CostLedgerTest, TotalsSumBothHitKinds) {
  CostLedger ledger;
  ledger.pair_hits = 10;
  ledger.feature_hits = 4;
  HitCost cost;
  cost.pair_comparison = 0.02;
  cost.feature_extraction = 0.005;
  EXPECT_DOUBLE_EQ(ledger.Total(cost), 10 * 0.02 + 4 * 0.005);
}

TEST(CostLedgerTest, EmptyLedgerCostsNothing) {
  EXPECT_DOUBLE_EQ(CostLedger{}.Total(HitCost{}), 0.0);
}

// --- Noisy oracle ---

TEST_F(CrowdFixture, NoiselessOracleMatchesTruth) {
  rlearn::GoalJoinOracle truth(&universe_, goal_);
  NoisyMajorityOracle crowd(&truth, 0.0, 1, 42);
  CostLedger ledger;
  EXPECT_TRUE(crowd.Ask(left_.row(0), right_.row(0), &ledger));   // 1 vs 1
  EXPECT_FALSE(crowd.Ask(left_.row(0), right_.row(1), &ledger));  // 1 vs 2
  EXPECT_EQ(ledger.pair_hits, 2u);
}

TEST_F(CrowdFixture, ReplicationChargesPerAnswer) {
  rlearn::GoalJoinOracle truth(&universe_, goal_);
  NoisyMajorityOracle crowd(&truth, 0.0, 5, 42);
  CostLedger ledger;
  crowd.Ask(left_.row(0), right_.row(0), &ledger);
  EXPECT_EQ(ledger.pair_hits, 5u);
}

TEST_F(CrowdFixture, MajorityVoteSuppressesNoise) {
  rlearn::GoalJoinOracle truth(&universe_, goal_);
  // With 20% worker error, 9-way majority is wrong with prob < 1%; over 50
  // trials on a positive pair we expect overwhelmingly correct answers.
  NoisyMajorityOracle crowd(&truth, 0.2, 9, 42);
  CostLedger ledger;
  int correct = 0;
  for (int i = 0; i < 50; ++i) {
    if (crowd.Ask(left_.row(0), right_.row(0), &ledger)) ++correct;
  }
  EXPECT_GE(correct, 45);
  // And a single noisy worker must be measurably worse.
  NoisyMajorityOracle lone(&truth, 0.2, 1, 43);
  int lone_correct = 0;
  for (int i = 0; i < 50; ++i) {
    if (lone.Ask(left_.row(0), right_.row(0), &ledger)) ++lone_correct;
  }
  EXPECT_GT(correct, lone_correct);
}

// --- Feature selection ---

TEST_F(CrowdFixture, MostSelectiveFeaturePrefersSubject) {
  auto feature = MostSelectiveFeature(universe_, left_, right_);
  ASSERT_TRUE(feature.has_value());
  const auto& p = universe_.pairs()[*feature];
  // subject=subject agrees on 3 of 16 pairs; place=place agrees on 8;
  // the cross pairs (subject=place etc.) agree on none... except none do.
  // The minimum is a cross pair with zero agreements or subject=subject;
  // verify the chosen feature agrees on at most 3 pairs.
  size_t agree = 0;
  for (size_t l = 0; l < left_.size(); ++l) {
    for (size_t r = 0; r < right_.size(); ++r) {
      if (universe_.AgreeMask(left_.row(l), right_.row(r)) &
          (1ULL << *feature)) {
        ++agree;
      }
    }
  }
  EXPECT_LE(agree, 3u);
  (void)p;
}

TEST(MostSelectiveFeatureTest, EmptyUniverseHasNoFeature) {
  Relation a(RelationSchema("a", {{"x", ValueType::kInt}}));
  Relation b(RelationSchema("b", {{"y", ValueType::kString}}));
  auto u = rlearn::PairUniverse::AllCompatible(a.schema(), b.schema());
  ASSERT_TRUE(u.ok());
  EXPECT_EQ(u.value().size(), 0u);
  EXPECT_FALSE(MostSelectiveFeature(u.value(), a, b).has_value());
}

// The join engine needs at least one universe pair to learn over.
TEST(CrowdSessionTest, LearningRejectsEmptyUniverse) {
  Relation a(RelationSchema("a", {{"x", ValueType::kInt}}));
  Relation b(RelationSchema("b", {{"y", ValueType::kString}}));
  a.InsertUnchecked({Value(int64_t{1})});
  b.InsertUnchecked({Value(std::string("1"))});
  auto u = rlearn::PairUniverse::AllCompatible(a.schema(), b.schema());
  ASSERT_TRUE(u.ok());
  rlearn::GoalJoinOracle truth(&u.value(), 0);
  auto result = RunCrowdJoinSession(u.value(), a, b, &truth);
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
}

// --- Crowd join sessions ---

TEST_F(CrowdFixture, ReliableCrowdLearnsTheGoalExactly) {
  rlearn::GoalJoinOracle truth(&universe_, goal_);
  CrowdJoinOptions options;
  options.worker_error_rate = 0.0;
  options.replication = 1;
  auto result = RunCrowdJoinSession(universe_, left_, right_, &truth,
                                    options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().accuracy_errors, 0u);
  // Interaction economy: far fewer questions than the 16 candidate pairs.
  EXPECT_LT(result.value().questions, 16u);
  EXPECT_GT(result.value().total_cost, 0.0);
}

TEST_F(CrowdFixture, PilotCalibratedFilterIsRecallSafe) {
  rlearn::GoalJoinOracle truth(&universe_, goal_);
  CrowdJoinOptions options;
  options.worker_error_rate = 0.0;
  options.replication = 1;
  options.feature_filtering = true;
  options.pilot_budget = 16;  // enough to hit a positive on 4x4
  auto result = RunCrowdBruteJoinSession(universe_, left_, right_, &truth,
                                         options);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().feature_pair.has_value());
  // The calibrated feature must be a goal component here (subject=subject
  // is the most selective pair agreeing on every true match), so filtering
  // never discards a real match and the brute outcome stays exact.
  EXPECT_GT(result.value().filtered_out, 0u);
  EXPECT_EQ(result.value().accuracy_errors, 0u);
}

TEST_F(CrowdFixture, BruteBaselineAsksEverySurvivingPair) {
  rlearn::GoalJoinOracle truth(&universe_, goal_);
  CrowdJoinOptions options;
  options.worker_error_rate = 0.0;
  options.replication = 1;
  auto brute = RunCrowdBruteJoinSession(universe_, left_, right_, &truth,
                                        options);
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(brute.value().asked, left_.size() * right_.size());
  EXPECT_EQ(brute.value().accuracy_errors, 0u);
  EXPECT_EQ(brute.value().filtered_out, 0u);

  options.feature_filtering = true;
  options.pilot_budget = 16;
  auto filtered = RunCrowdBruteJoinSession(universe_, left_, right_, &truth,
                                           options);
  ASSERT_TRUE(filtered.ok());
  EXPECT_GT(filtered.value().filtered_out, 0u);
  EXPECT_LT(filtered.value().asked, brute.value().asked);
  EXPECT_EQ(filtered.value().accuracy_errors, 0u);
}

TEST_F(CrowdFixture, LearningBeatsBruteOnPairHits) {
  rlearn::GoalJoinOracle truth(&universe_, goal_);
  CrowdJoinOptions options;
  options.worker_error_rate = 0.0;
  options.replication = 1;
  auto brute = RunCrowdBruteJoinSession(universe_, left_, right_, &truth,
                                        options);
  auto learn = RunCrowdJoinSession(universe_, left_, right_, &truth,
                                   options);
  ASSERT_TRUE(brute.ok());
  ASSERT_TRUE(learn.ok());
  // The paper's pitch: version-space inference labels almost everything for
  // free, so it spends strictly less than asking all pairs.
  EXPECT_LT(learn.value().ledger.pair_hits, brute.value().ledger.pair_hits);
  EXPECT_EQ(learn.value().accuracy_errors, 0u);
}

TEST_F(CrowdFixture, NoisyCrowdStillConvergesWithReplication) {
  rlearn::GoalJoinOracle truth(&universe_, goal_);
  CrowdJoinOptions options;
  options.worker_error_rate = 0.1;
  options.replication = 7;
  options.seed = 1;
  auto result = RunCrowdJoinSession(universe_, left_, right_, &truth,
                                    options);
  ASSERT_TRUE(result.ok());
  // 7-way majority at 10% error: per-question error ~0.2%; a session of
  // ~a dozen questions is overwhelmingly clean.
  EXPECT_LE(result.value().accuracy_errors, 2u);
}

TEST_F(CrowdFixture, RejectsHopelessErrorRate) {
  rlearn::GoalJoinOracle truth(&universe_, goal_);
  CrowdJoinOptions options;
  options.worker_error_rate = 0.5;
  EXPECT_FALSE(
      RunCrowdJoinSession(universe_, left_, right_, &truth, options).ok());
}

TEST_F(CrowdFixture, RejectsNullOracle) {
  EXPECT_FALSE(RunCrowdJoinSession(universe_, left_, right_, nullptr, {}).ok());
}

TEST_F(CrowdFixture, RejectsNanErrorRate) {
  rlearn::GoalJoinOracle truth(&universe_, goal_);
  CrowdJoinOptions options;
  options.worker_error_rate = std::nan("");
  auto learn = RunCrowdJoinSession(universe_, left_, right_, &truth, options);
  EXPECT_EQ(learn.status().code(), common::StatusCode::kInvalidArgument);
  auto brute =
      RunCrowdBruteJoinSession(universe_, left_, right_, &truth, options);
  EXPECT_EQ(brute.status().code(), common::StatusCode::kInvalidArgument);
}

TEST_F(CrowdFixture, RejectsReplicationBelowOne) {
  rlearn::GoalJoinOracle truth(&universe_, goal_);
  CrowdJoinOptions options;
  options.replication = 0;
  auto learn = RunCrowdJoinSession(universe_, left_, right_, &truth, options);
  EXPECT_EQ(learn.status().code(), common::StatusCode::kInvalidArgument);
  auto brute =
      RunCrowdBruteJoinSession(universe_, left_, right_, &truth, options);
  EXPECT_EQ(brute.status().code(), common::StatusCode::kInvalidArgument);
}

// The learner infers the labels a filter would assume, so the filter is the
// brute baseline's alone.
TEST_F(CrowdFixture, LearningRejectsFeatureFiltering) {
  rlearn::GoalJoinOracle truth(&universe_, goal_);
  CrowdJoinOptions options;
  options.feature_filtering = true;
  auto result = RunCrowdJoinSession(universe_, left_, right_, &truth, options);
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
}

TEST_F(CrowdFixture, LedgerChargesFeatureHitsPerRecord) {
  rlearn::GoalJoinOracle truth(&universe_, goal_);
  CrowdJoinOptions options;
  options.worker_error_rate = 0.0;
  options.replication = 1;
  options.feature_filtering = true;
  options.pilot_budget = 16;
  auto result = RunCrowdBruteJoinSession(universe_, left_, right_, &truth,
                                         options);
  ASSERT_TRUE(result.ok());
  if (result.value().feature_pair.has_value()) {
    EXPECT_EQ(result.value().ledger.feature_hits,
              left_.size() + right_.size());
    // The pilot HITs are accounted as pair comparisons.
    EXPECT_GE(result.value().ledger.pair_hits, options.pilot_budget);
  }
}

TEST_F(CrowdFixture, PilotWithoutPositivesSkipsTheFilter) {
  // A goal no pair satisfies: require agreement on every universe pair.
  rlearn::GoalJoinOracle truth(&universe_, universe_.FullMask());
  CrowdJoinOptions options;
  options.worker_error_rate = 0.0;
  options.replication = 1;
  options.feature_filtering = true;
  auto result = RunCrowdBruteJoinSession(universe_, left_, right_, &truth,
                                         options);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().feature_pair.has_value());
  EXPECT_EQ(result.value().filtered_out, 0u);
  EXPECT_EQ(result.value().ledger.feature_hits, 0u);
}

// --- Replication sweep (parameterized): more replicas, fewer errors ---

class ReplicationSweep : public CrowdFixture,
                         public ::testing::WithParamInterface<int> {};

TEST_P(ReplicationSweep, AccuracyErrorsStayBounded) {
  rlearn::GoalJoinOracle truth(&universe_, goal_);
  CrowdJoinOptions options;
  options.worker_error_rate = 0.15;
  options.replication = GetParam();
  options.seed = 7;
  auto result = RunCrowdJoinSession(universe_, left_, right_, &truth,
                                    options);
  ASSERT_TRUE(result.ok());
  // A corrupted answer steers the session to a wrong but consistent
  // join (see NoisyCrowdNeverConflicts); with 9+ replicas the outcome is
  // almost always exact. Every question buys exactly `replication` HITs.
  if (GetParam() >= 9) {
    EXPECT_LE(result.value().accuracy_errors, 1u);
  }
  EXPECT_EQ(result.value().ledger.pair_hits,
            result.value().questions * static_cast<size_t>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Replicas, ReplicationSweep,
                         ::testing::Values(1, 3, 9, 15));

// The session asks only informative pairs, and either label of an
// informative pair leaves some equi-join consistent with every answer. So
// however noisy the crowd, an answer never contradicts the earlier ones:
// noise can make the learned join wrong, never the version space empty.
TEST(CrowdSessionTest, NoisyCrowdNeverConflicts) {
  size_t sessions = 0;
  size_t questions = 0;
  for (int rows : {10, 25, 40}) {
    for (uint64_t seed = 0; seed < 25; ++seed) {
      relational::JoinInstanceOptions instance_options;
      instance_options.seed = 500 + seed;
      instance_options.left_rows = rows;
      instance_options.right_rows = rows;
      instance_options.left_arity = 3;
      instance_options.right_arity = 3;
      instance_options.domain_size = 5;
      const relational::JoinInstance inst =
          relational::GenerateJoinInstance(instance_options, 1);
      auto universe = rlearn::PairUniverse::AllCompatible(inst.left.schema(),
                                                          inst.right.schema());
      ASSERT_TRUE(universe.ok());
      rlearn::PairMask goal = 0;
      for (size_t i = 0; i < universe.value().size(); ++i) {
        for (const auto& g : inst.goal) {
          if (universe.value().pairs()[i] == g) goal |= (1ULL << i);
        }
      }
      rlearn::GoalJoinOracle truth(&universe.value(), goal);
      for (double error_rate : {0.05, 0.15, 0.3, 0.45}) {
        for (int replication : {1, 3}) {
          NoisyMajorityOracle crowd(&truth, error_rate, replication, seed);
          CostLedger ledger;
          session::LearningSession<rlearn::JoinEngine> session(
              rlearn::JoinEngine(&universe.value(), &inst.left, &inst.right));
          session.Run([&](const rlearn::PairExample& pair) {
            return crowd.Ask(inst.left.row(pair.left_row),
                             inst.right.row(pair.right_row), &ledger);
          });
          ASSERT_EQ(session.stats().conflicts, 0u)
              << rows << " rows, seed " << seed << ", error " << error_rate
              << ", replication " << replication;
          ++sessions;
          questions += session.stats().questions;
        }
      }
    }
  }
  EXPECT_EQ(sessions, 600u);
  EXPECT_GT(questions, sessions);  // the sweep did ask, not just settle
}

}  // namespace
}  // namespace crowd
}  // namespace qlearn
