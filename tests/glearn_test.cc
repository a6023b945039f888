// Tests for path-query learning: the concat-pattern class (membership,
// generalization soundness, convergence), RPNI (recovers regular languages,
// consistency with samples), and the interactive path session including the
// workload strategy.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "common/interner.h"
#include "common/rng.h"
#include "glearn/concat_pattern.h"
#include "glearn/interactive_path.h"
#include "glearn/rpni.h"
#include "graph/geo_generator.h"
#include "graph/path_query.h"
#include "session/session.h"

namespace qlearn {
namespace glearn {
namespace {

using common::Interner;
using common::SymbolId;

class GlearnFixture : public ::testing::Test {
 protected:
  std::vector<SymbolId> W(const std::string& letters) {
    std::vector<SymbolId> out;
    for (char c : letters) out.push_back(interner_.Intern(std::string(1, c)));
    return out;
  }

  Interner interner_;
};

TEST_F(GlearnFixture, FromWordAcceptsExactlyTheWord) {
  const ConcatPattern p = ConcatPattern::FromWord(W("abc"));
  EXPECT_TRUE(p.Accepts(W("abc")));
  EXPECT_FALSE(p.Accepts(W("ab")));
  EXPECT_FALSE(p.Accepts(W("abcc")));
  EXPECT_FALSE(p.Accepts(W("")));
}

TEST_F(GlearnFixture, AcceptsHandlesFlags) {
  // a.b?.c+
  ConcatPattern p({PathUnit{interner_.Intern("a"), false, false},
                   PathUnit{interner_.Intern("b"), true, false},
                   PathUnit{interner_.Intern("c"), false, true}});
  EXPECT_TRUE(p.Accepts(W("abc")));
  EXPECT_TRUE(p.Accepts(W("ac")));
  EXPECT_TRUE(p.Accepts(W("accc")));
  EXPECT_FALSE(p.Accepts(W("abbc")));
  EXPECT_FALSE(p.Accepts(W("a")));
}

TEST_F(GlearnFixture, GeneralizeCoversOldAndNew) {
  common::Rng rng(3);
  const char* corpus[] = {"ab", "aab", "abb", "b", "abab", "aa", ""};
  for (const char* w1 : corpus) {
    for (const char* w2 : corpus) {
      ConcatPattern p = ConcatPattern::FromWord(W(w1));
      int cost = -1;
      const ConcatPattern g = p.Generalize(W(w2), &cost);
      EXPECT_TRUE(g.Accepts(W(w1))) << w1 << " + " << w2;
      EXPECT_TRUE(g.Accepts(W(w2))) << w1 << " + " << w2;
      if (std::string(w1) == w2) {
        EXPECT_EQ(cost, 0);
      }
    }
  }
}

TEST_F(GlearnFixture, GeneralizeZeroCostWhenAccepted) {
  ConcatPattern p = ConcatPattern::FromWord(W("ab"));
  p = p.Generalize(W("aab"));  // a+ upgrade
  int cost = -1;
  p.Generalize(W("aaab"), &cost);
  EXPECT_EQ(cost, 0);
}

TEST_F(GlearnFixture, LearnConcatConvergesToRepeats) {
  auto learned = LearnConcatPattern({W("ab"), W("aab"), W("aaab")});
  ASSERT_TRUE(learned.ok());
  EXPECT_EQ(learned.value().ToString(interner_), "a+.b");
}

TEST_F(GlearnFixture, LearnConcatConvergesToOptionals) {
  auto learned = LearnConcatPattern({W("abc"), W("ac")});
  ASSERT_TRUE(learned.ok());
  EXPECT_EQ(learned.value().ToString(interner_), "a.b?.c");
}

TEST_F(GlearnFixture, ToRegexMatchesPatternSemantics) {
  auto learned = LearnConcatPattern({W("ab"), W("aab"), W("a")});
  ASSERT_TRUE(learned.ok());
  const ConcatPattern& p = learned.value();
  const automata::Dfa dfa = automata::Dfa::FromRegex(*p.ToRegex());
  common::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    std::string s;
    const int len = static_cast<int>(rng.Uniform(5));
    for (int k = 0; k < len; ++k) s += rng.Bernoulli(0.5) ? 'a' : 'b';
    EXPECT_EQ(p.Accepts(W(s)), dfa.Accepts(W(s))) << s;
  }
}

TEST_F(GlearnFixture, LearnConcatRejectsEmptyInput) {
  EXPECT_FALSE(LearnConcatPattern({}).ok());
}

TEST_F(GlearnFixture, RpniRecoversSimpleLanguage) {
  // Target: a+ over alphabet {a, b}, with a characteristic sample (shortest
  // prefixes of the 3 minimal-DFA states, kernel extensions, and separating
  // suffixes per Oncina & García).
  auto dfa = LearnRpniDfa(
      {W("a"), W("aa")},
      {W(""), W("b"), W("ab"), W("ba"), W("bb"), W("aba"), W("baa"),
       W("bba")});
  ASSERT_TRUE(dfa.ok());
  auto target = automata::ParseRegex("a+", &interner_);
  ASSERT_TRUE(target.ok());
  EXPECT_TRUE(automata::Dfa::Equivalent(
      dfa.value(),
      automata::Dfa::FromRegex(*target.value(),
                               {interner_.Intern("b")})));
}

TEST_F(GlearnFixture, RpniConsistentWithSample) {
  common::Rng rng(11);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<std::vector<SymbolId>> pos;
    std::vector<std::vector<SymbolId>> neg;
    // Random target: words with even number of a's.
    for (int i = 0; i < 25; ++i) {
      std::string s;
      const int len = static_cast<int>(rng.Uniform(6));
      int as = 0;
      for (int k = 0; k < len; ++k) {
        const char c = rng.Bernoulli(0.5) ? 'a' : 'b';
        if (c == 'a') ++as;
        s += c;
      }
      if (as % 2 == 0) {
        pos.push_back(W(s));
      } else {
        neg.push_back(W(s));
      }
    }
    auto dfa = LearnRpniDfa(pos, neg);
    ASSERT_TRUE(dfa.ok());
    for (const auto& w : pos) EXPECT_TRUE(dfa.value().Accepts(w));
    for (const auto& w : neg) EXPECT_FALSE(dfa.value().Accepts(w));
  }
}

TEST_F(GlearnFixture, RpniDetectsContradiction) {
  EXPECT_FALSE(LearnRpniDfa({W("ab")}, {W("ab")}).ok());
}

TEST_F(GlearnFixture, RpniRegexExtraction) {
  auto regex = LearnRpniRegex({W("ab"), W("aab"), W("aaab")},
                              {W(""), W("a"), W("b"), W("bb"), W("abb")});
  ASSERT_TRUE(regex.ok());
  for (const char* good : {"ab", "aab", "aaaab"}) {
    EXPECT_TRUE(
        automata::Dfa::FromRegex(*regex.value()).Accepts(W(good)))
        << good;
  }
}

class PathSessionFixture : public ::testing::Test {
 protected:
  PathSessionFixture() : g_(BuildGraph()) {}

  graph::Graph BuildGraph() {
    graph::Graph g;
    local_ = interner_.Intern("local");
    highway_ = interner_.Intern("highway");
    // A chain with mixed labels plus side roads.
    std::vector<graph::VertexId> v;
    for (int i = 0; i < 8; ++i) {
      v.push_back(g.AddVertex("c" + std::to_string(i)));
    }
    g.AddEdge(v[0], v[1], highway_, 10);
    g.AddEdge(v[1], v[2], highway_, 10);
    g.AddEdge(v[2], v[3], highway_, 10);
    g.AddEdge(v[0], v[4], local_, 3);
    g.AddEdge(v[4], v[5], local_, 3);
    g.AddEdge(v[5], v[3], local_, 3);
    g.AddEdge(v[1], v[6], local_, 4);
    g.AddEdge(v[6], v[7], highway_, 9);
    return g;
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

TEST_F(PathSessionFixture, SessionLearnsHighwayPlus) {
  const graph::PathQuery goal = Goal("highway+");
  GoalPathOracle oracle(goal, g_);
  // Seed: one highway edge.
  graph::Path seed;
  seed.start = 0;
  seed.edges = {0};
  InteractivePathOptions options;
  auto result = RunInteractivePathSession(g_, seed, &oracle, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().conflicts, 0u);
  // Learned language equals the goal language.
  EXPECT_TRUE(automata::Dfa::Equivalent(
      automata::Dfa::FromRegex(*result.value().hypothesis.ToRegex(), {local_}),
      automata::Dfa::FromRegex(*goal.regex, {local_})));
  // Interaction cost far below labeling every candidate path.
  EXPECT_LT(result.value().questions, result.value().candidate_paths / 2);
}

TEST_F(PathSessionFixture, WorkloadStrategyUsesPrior) {
  const graph::PathQuery goal = Goal("highway+");
  GoalPathOracle oracle_a(goal, g_);
  GoalPathOracle oracle_b(goal, g_);
  graph::Path seed;
  seed.start = 0;
  seed.edges = {0};

  InteractivePathOptions with;
  with.strategy = PathStrategy::kWorkload;
  auto wr = automata::ParseRegex("highway.highway*", &interner_);
  ASSERT_TRUE(wr.ok());
  with.workload.push_back(wr.value());
  auto with_result = RunInteractivePathSession(g_, seed, &oracle_a, with);
  ASSERT_TRUE(with_result.ok());

  InteractivePathOptions random;
  random.strategy = PathStrategy::kRandom;
  random.seed = 17;
  auto random_result =
      RunInteractivePathSession(g_, seed, &oracle_b, random);
  ASSERT_TRUE(random_result.ok());

  // Both converge; the workload-guided session should not ask more often
  // than random (on this instance it asks fewer or equal questions).
  EXPECT_EQ(with_result.value().conflicts, 0u);
  EXPECT_LE(with_result.value().questions, random_result.value().questions);
}

TEST_F(PathSessionFixture, SessionRejectsNegativeSeed) {
  GoalPathOracle oracle(Goal("local"), g_);
  graph::Path seed;
  seed.start = 0;
  seed.edges = {0};  // a highway edge
  EXPECT_FALSE(RunInteractivePathSession(g_, seed, &oracle, {}).ok());
}

TEST_F(PathSessionFixture, SessionRejectsNullOracle) {
  graph::Path seed;
  seed.start = 0;
  seed.edges = {0};
  EXPECT_FALSE(RunInteractivePathSession(g_, seed, nullptr, {}).ok());
}

TEST_F(PathSessionFixture, SessionTracksMaxPositiveWeight) {
  GoalPathOracle oracle(Goal("highway+"), g_);
  graph::Path seed;
  seed.start = 0;
  seed.edges = {0};
  auto result = RunInteractivePathSession(g_, seed, &oracle, {});
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.value().max_positive_weight, 10.0);
}

TEST(GeoSessionTest, LearnsOnGeneratedNetwork) {
  Interner interner;
  graph::GeoOptions gopts;
  gopts.grid_width = 4;
  gopts.grid_height = 3;
  const graph::Graph g = GenerateGeoGraph(gopts, &interner);

  auto r = automata::ParseRegex("highway+", &interner);
  ASSERT_TRUE(r.ok());
  const graph::PathQuery goal{r.value(), std::nullopt};
  GoalPathOracle oracle(goal, g);

  // Find a positive seed path (a single highway edge).
  graph::Path seed;
  for (graph::EdgeId e = 0; e < g.NumEdges(); ++e) {
    if (interner.Name(g.edge(e).label) == "highway") {
      seed.start = g.edge(e).src;
      seed.edges = {e};
      break;
    }
  }
  if (seed.edges.empty()) GTEST_SKIP() << "no highway edge in this seed";

  InteractivePathOptions options;
  options.max_path_edges = 3;
  options.max_candidates = 800;
  auto result = RunInteractivePathSession(g, seed, &oracle, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().conflicts, 0u);
  // The hypothesis agrees with the goal on every candidate path: audit.
  graph::PathQueryEvaluator goal_eval(goal, g);
  for (const graph::Path& p :
       graph::EnumeratePaths(g, options.max_path_edges,
                             options.max_candidates)) {
    EXPECT_EQ(result.value().hypothesis.Accepts(graph::PathWord(g, p)),
              goal_eval.MatchesPath(p));
  }
}

// --- Candidate pool ---
//
// The engine builds its pool in one DFS and keys word classes on a label
// trie walked alongside it. The reference is EnumeratePaths plus PathWord,
// numbering each word on its first appearance.

TEST(PathEnginePool, MatchesEnumeratePathsAndFirstAppearanceClasses) {
  for (int grid : {6, 8}) {
    Interner interner;
    graph::GeoOptions geo;
    geo.seed = 40 + static_cast<uint64_t>(grid);
    geo.grid_width = grid;
    geo.grid_height = grid;
    const graph::Graph g = GenerateGeoGraph(geo, &interner);
    for (size_t max_edges : {size_t{3}, size_t{4}}) {
      const std::vector<graph::Path> all =
          graph::EnumeratePaths(g, max_edges, SIZE_MAX);
      // A cap that cuts a DFS short: its last path has several edges.
      size_t cut = all.size() / 2;
      while (all[cut - 1].edges.size() < 2) ++cut;
      for (size_t cap : {all.size(), cut}) {
        const std::vector<graph::Path> paths =
            graph::EnumeratePaths(g, max_edges, cap);
        ASSERT_EQ(paths.size(), cap);
        InteractivePathOptions options;
        options.max_path_edges = max_edges;
        options.max_candidates = cap;
        const PathEngine engine(&g, paths.front(), options);
        ASSERT_EQ(engine.candidate_paths(), paths.size());
        std::map<std::vector<SymbolId>, size_t> class_of;
        for (size_t k = 0; k < paths.size(); ++k) {
          const std::vector<SymbolId> word = graph::PathWord(g, paths[k]);
          const size_t expected_class =
              class_of.try_emplace(word, class_of.size()).first->second;
          const PathEngine::Question& question = engine.candidate(k);
          ASSERT_EQ(question.index, k);
          ASSERT_EQ(question.path->start, paths[k].start) << "path " << k;
          ASSERT_EQ(question.path->edges, paths[k].edges) << "path " << k;
          ASSERT_EQ(*question.word, word) << "path " << k;
          ASSERT_EQ(engine.word_class(k), expected_class) << "path " << k;
        }
      }
    }
  }
}

// --- Question-sequence pins ---
//
// FNV-1a digests of whole path sessions: every question's candidate id in
// order, the forced and conflict counts, and the final pattern. They pin
// strategy tie-breaks over generated road networks the goldens do not
// reach; a changed digest means a session asks different questions or
// learns something else.

uint64_t FoldDigest(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFu;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Drives `engine` to completion in batches of `batch` questions, labeling
/// by `oracle` with the very first answer flipped when `flip_first`, and
/// digests the run.
uint64_t PathSessionDigest(PathEngine engine, uint64_t seed, size_t batch,
                           bool flip_first, PathOracle* oracle) {
  session::SessionOptions options;
  options.seed = seed;
  session::LearningSession<PathEngine> session(std::move(engine), options);
  uint64_t hash = 14695981039346656037ULL;
  bool flip = flip_first;
  while (true) {
    const std::vector<PathEngine::Question> questions =
        session.NextQuestions(batch);
    if (questions.empty()) break;
    std::vector<bool> labels;
    for (const PathEngine::Question& question : questions) {
      for (uint64_t id : PathEngine::ItemIds(question)) {
        hash = FoldDigest(hash, id);
      }
      labels.push_back(oracle->IsPositive(*question.path) != flip);
      flip = false;
    }
    session.AnswerAll(labels);
  }
  const ConcatPattern learned = session.Finish();
  const session::SessionStats& stats = session.stats();
  for (uint64_t v : {uint64_t{stats.questions}, uint64_t{stats.forced_positive},
                     uint64_t{stats.forced_negative},
                     uint64_t{stats.conflicts}}) {
    hash = FoldDigest(hash, v);
  }
  for (const PathUnit& unit : learned.units()) {
    hash = FoldDigest(hash, unit.symbol);
    hash = FoldDigest(hash,
                      (unit.optional ? 1u : 0u) | (unit.repeat ? 2u : 0u));
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

TEST(PathQuestionPins, PathSessionsReplayRecordedDigests) {
  // 10 generated road networks from 4x4 to 8x8, paths of 2 to 4 edges, x
  // {kRandom, kFrontier, kWorkload}, answered one at a time and in batches
  // of 2 and 3 (every fourth network flips its first answer).
  static constexpr uint64_t kExpected[30] = {
      0xd1ea8b6a9c710e24ULL, 0x038c27e241bcbf55ULL, 0x038c27e241bcbf55ULL,
      0xa6ec1456fba689ecULL, 0x9267387077e7d3a5ULL, 0x219594bf55c936a5ULL,
      0x22a7169f6d9af4ffULL, 0x304fa5ee2887ccd3ULL, 0x304fa5ee2887ccd3ULL,
      0x297458c443250c8fULL, 0x4f2f2db2eadde5efULL, 0x4f2f2db2eadde5efULL,
      0xde2e3e3b75b66162ULL, 0x8cdb5420ed869c1fULL, 0x6a2084eec839aad7ULL,
      0xdb1139d2f17fa339ULL, 0x61315efe1523858dULL, 0x61315efe1523858dULL,
      0xa8bd2f177d1c4f36ULL, 0x548a2b98f6c6bcd7ULL, 0x548a2b98f6c6bcd7ULL,
      0xdab96dc8a73921c5ULL, 0x51fb947310117caeULL, 0x827407df4ed3cbc2ULL,
      0xf30f43fc9798f82dULL, 0x6aac3827f6e14e1aULL, 0x6aac3827f6e14e1aULL,
      0x66c34526daef5c99ULL, 0xf51147666a7cf1ccULL, 0xf51147666a7cf1ccULL,
  };
  const char* goals[] = {"highway+", "local.highway*", "highway.local?"};
  std::vector<uint64_t> actual;
  for (int i = 0; i < 10; ++i) {
    Interner interner;
    graph::GeoOptions geo;
    geo.seed = 300 + static_cast<uint64_t>(i);
    geo.grid_width = 4 + i % 5;
    geo.grid_height = 4 + (i / 2) % 5;
    const graph::Graph g = GenerateGeoGraph(geo, &interner);
    auto goal_regex = automata::ParseRegex(goals[i % 3], &interner);
    ASSERT_TRUE(goal_regex.ok());
    GoalPathOracle oracle(graph::PathQuery{goal_regex.value(), std::nullopt},
                          g);
    auto workload = automata::ParseRegex("highway.highway*", &interner);
    ASSERT_TRUE(workload.ok());

    InteractivePathOptions options;
    options.max_path_edges = 2 + static_cast<size_t>(i % 3);
    options.max_candidates = 1500;
    options.workload.push_back(workload.value());
    // Seed: the first enumerated path the goal accepts.
    std::optional<graph::Path> seed;
    for (graph::Path& p : graph::EnumeratePaths(g, options.max_path_edges,
                                                options.max_candidates)) {
      if (oracle.IsPositive(p)) {
        seed = std::move(p);
        break;
      }
    }
    ASSERT_TRUE(seed.has_value()) << "network " << i << " has no positive";
    for (PathStrategy strategy : {PathStrategy::kRandom,
                                  PathStrategy::kFrontier,
                                  PathStrategy::kWorkload}) {
      options.strategy = strategy;
      actual.push_back(PathSessionDigest(
          PathEngine(&g, *seed, options),
          /*seed=*/60 + static_cast<uint64_t>(i), /*batch=*/1 + i % 3,
          /*flip_first=*/i % 4 == 3, &oracle));
    }
  }
  EXPECT_EQ(actual, std::vector<uint64_t>(std::begin(kExpected),
                                          std::end(kExpected)))
      << "actual digests:\n"
      << DigestList(actual);
}

}  // namespace
}  // namespace glearn
}  // namespace qlearn
