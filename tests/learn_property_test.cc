// Parameterized property sweeps for the learners:
//  * twig learner soundness: the hypothesis always selects every example;
//  * interactive join sessions: every inferred (never-asked) label agrees
//    with the oracle, for every strategy and random hidden goal;
//  * path-pattern generalization: language growth is monotone.
// Beside them, two pin suites fix the twig learner's exact behaviour:
//  * output pins: FNV-1a digests of GeneralizePair, BuildAlignedPattern
//    (through EnumerateGeneralizations) and LearnTwig over a corpus of
//    generated and scenario documents;
//  * question pins: digests of whole interactive twig sessions, one of
//    them on a >=1,000-node document (the scale gate).
// The shared-memo suite checks DocumentGeneralizer against GeneralizePair
// on every node of the output pins' corpus.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "common/interner.h"
#include "common/rng.h"
#include "glearn/concat_pattern.h"
#include "learn/consistency.h"
#include "learn/interactive.h"
#include "learn/twig_learner.h"
#include "relational/generator.h"
#include "rlearn/interactive_join.h"
#include "session/session.h"
#include "twig/twig_eval.h"
#include "twig/twig_parser.h"
#include "xml/xmark.h"
#include "xml/xml_parser.h"

namespace qlearn {
namespace {

/// The two XMark documents and same-label node pairs one soundness seed
/// draws (shared by the soundness sweep and the output pins).
struct TwigSeedCase {
  common::Interner interner;
  xml::XmlTree d1;
  xml::XmlTree d2;
  std::vector<std::pair<xml::NodeId, xml::NodeId>> pairs;

  explicit TwigSeedCase(int seed) {
    common::Rng rng(seed * 7001 + 3);
    xml::XMarkOptions options;
    options.seed = rng.Fork();
    options.num_people = 8;
    options.num_open_auctions = 4;
    options.num_closed_auctions = 3;
    d1 = xml::GenerateXMark(options, &interner);
    options.seed = rng.Fork();
    d2 = xml::GenerateXMark(options, &interner);

    // Pick random same-label nodes from the two documents.
    const std::vector<xml::NodeId> order1 = d1.PreOrder();
    for (int attempt = 0; attempt < 5; ++attempt) {
      const xml::NodeId n1 = order1[rng.Index(order1.size())];
      std::vector<xml::NodeId> same;
      for (xml::NodeId n : d2.PreOrder()) {
        if (d2.label(n) == d1.label(n1)) same.push_back(n);
      }
      if (same.empty()) continue;
      pairs.emplace_back(n1, same[rng.Index(same.size())]);
    }
  }
};

class LearnerSoundness : public ::testing::TestWithParam<int> {};

TEST_P(LearnerSoundness, TwigLearnerSelectsAllExamples) {
  const TwigSeedCase c(GetParam());
  const common::Interner& interner = c.interner;
  const xml::XmlTree& d1 = c.d1;
  const xml::XmlTree& d2 = c.d2;
  for (const auto& [n1, n2] : c.pairs) {
    auto learned = learn::LearnTwig(
        {learn::TreeExample{&d1, n1}, learn::TreeExample{&d2, n2}});
    if (!learned.ok()) continue;  // outside the anchored class
    EXPECT_TRUE(twig::Selects(learned.value(), d1, n1))
        << learned.value().ToString(interner);
    EXPECT_TRUE(twig::Selects(learned.value(), d2, n2))
        << learned.value().ToString(interner);
    EXPECT_TRUE(learned.value().IsAnchored());
  }
}

TEST_P(LearnerSoundness, InteractiveJoinForcedLabelsMatchOracle) {
  common::Rng rng(GetParam() * 7919 + 1);
  relational::JoinInstanceOptions options;
  options.seed = rng.Fork();
  options.left_rows = 12;
  options.right_rows = 12;
  options.left_arity = 3;
  options.right_arity = 3;
  options.domain_size = 3;
  const relational::JoinInstance inst =
      relational::GenerateJoinInstance(options, 1 + GetParam() % 3);
  auto universe = rlearn::PairUniverse::AllCompatible(inst.left.schema(),
                                                      inst.right.schema());
  ASSERT_TRUE(universe.ok());
  rlearn::PairMask goal = 0;
  for (size_t i = 0; i < universe.value().size(); ++i) {
    for (const auto& g : inst.goal) {
      if (universe.value().pairs()[i] == g) goal |= (1ULL << i);
    }
  }
  ASSERT_NE(goal, 0u);

  for (rlearn::JoinStrategy strategy :
       {rlearn::JoinStrategy::kRandom, rlearn::JoinStrategy::kSplitHalf,
        rlearn::JoinStrategy::kLattice}) {
    rlearn::GoalJoinOracle oracle(&universe.value(), goal);
    rlearn::InteractiveJoinOptions session;
    session.strategy = strategy;
    session.seed = rng.Fork();
    auto result = rlearn::RunInteractiveJoinSession(
        universe.value(), inst.left, inst.right, &oracle, session);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.value().conflicts, 0u);
    // Every pair (asked or forced) must end up labeled as the oracle would.
    for (size_t i = 0; i < inst.left.size(); ++i) {
      for (size_t j = 0; j < inst.right.size(); ++j) {
        const rlearn::PairMask agree = universe.value().AgreeMask(
            inst.left.row(i), inst.right.row(j));
        EXPECT_EQ(rlearn::MaskSatisfied(result.value().learned, agree),
                  rlearn::MaskSatisfied(goal, agree));
      }
    }
  }
}

TEST_P(LearnerSoundness, ConcatGeneralizationIsMonotone) {
  common::Interner interner;
  common::Rng rng(GetParam() * 31 + 7);
  const common::SymbolId syms[] = {interner.Intern("x"),
                                   interner.Intern("y")};
  auto random_word = [&]() {
    std::vector<common::SymbolId> w;
    const int len = static_cast<int>(rng.Uniform(5));
    for (int i = 0; i < len; ++i) w.push_back(syms[rng.Index(2)]);
    return w;
  };

  glearn::ConcatPattern pattern =
      glearn::ConcatPattern::FromWord(random_word());
  std::vector<std::vector<common::SymbolId>> accepted_so_far;
  for (int step = 0; step < 6; ++step) {
    const auto word = random_word();
    const glearn::ConcatPattern next = pattern.Generalize(word);
    EXPECT_TRUE(next.Accepts(word));
    // Monotonicity: everything accepted before stays accepted.
    for (const auto& old : accepted_so_far) {
      EXPECT_TRUE(next.Accepts(old));
    }
    accepted_so_far.push_back(word);
    pattern = next;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LearnerSoundness, ::testing::Range(0, 20));

// --- Twig learner output pins ---
//
// FNV-1a digests of the serialized learner output: the node count, each
// node's parent, axis and label in id order, then the selection (a failed
// call folds its status code). They pin the exact TwigQuery that
// GeneralizePair, BuildAlignedPattern and LearnTwig return — node order
// included — so a rewrite of the filter kernel must reproduce it byte for
// byte. A changed digest means some input now learns a different query.

uint64_t FoldDigest(uint64_t hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFu;
    hash *= 1099511628211ULL;
  }
  return hash;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

uint64_t FoldQuery(uint64_t hash, const twig::TwigQuery& q) {
  hash = FoldDigest(hash, q.NumNodes());
  for (twig::QNodeId n = 1; n < q.NumNodes(); ++n) {
    hash = FoldDigest(hash, q.parent(n));
    hash = FoldDigest(hash, static_cast<uint64_t>(q.axis(n)));
    hash = FoldDigest(hash, q.label(n));
  }
  return FoldDigest(hash, q.selection());
}

uint64_t FoldResult(uint64_t hash,
                    const common::Result<twig::TwigQuery>& result) {
  if (!result.ok()) {
    return FoldDigest(hash, 0xFA11000000000000ULL +
                                static_cast<uint64_t>(result.status().code()));
  }
  return FoldQuery(hash, result.value());
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

/// Folds EnumerateGeneralizations (every alignment through
/// BuildAlignedPattern) under a small candidate cap and step budget.
uint64_t FoldEnumeration(uint64_t hash, const twig::TwigQuery& q1,
                         const twig::TwigQuery& q2, size_t cap,
                         size_t max_steps) {
  bool capped = false;
  const std::vector<twig::TwigQuery> out = learn::EnumerateGeneralizations(
      q1, q2, learn::TwigLearnerOptions{}, cap, max_steps, &capped);
  hash = FoldDigest(hash, out.size() * 2 + (capped ? 1 : 0));
  for (const twig::TwigQuery& q : out) hash = FoldQuery(hash, q);
  return hash;
}

/// Counts the inputs whose default-option output the per-node filter cap
/// and the filter size cap each changed (raising the cap changes it).
struct TrimCounts {
  size_t by_count = 0;
  size_t by_size = 0;

  void Check(const twig::TwigQuery& q1, const twig::TwigQuery& q2,
             const common::Result<twig::TwigQuery>& with_defaults) {
    if (!with_defaults.ok()) return;
    const uint64_t base = FoldQuery(kFnvBasis, with_defaults.value());
    learn::TwigLearnerOptions more_filters;
    more_filters.max_filters_per_node = 1024;
    if (FoldResult(kFnvBasis, learn::GeneralizePair(q1, q2, more_filters)) !=
        base) {
      ++by_count;
    }
    learn::TwigLearnerOptions larger_filters;
    larger_filters.max_filter_size = 1024;
    if (FoldResult(kFnvBasis,
                   learn::GeneralizePair(q1, q2, larger_filters)) != base) {
      ++by_size;
    }
  }
};

/// The learn-large workload's people directory: `persons` entries of four
/// shapes drawn by `seed` (the first matches every goal).
std::string DirectoryXml(int persons, uint64_t seed) {
  common::Rng rng(seed);
  std::string text = "<site><people>";
  for (int i = 0; i < persons; ++i) {
    switch (i == 0 ? 0 : rng.Index(4)) {
      case 0: text += "<person><name/><age/><phone/></person>"; break;
      case 1: text += "<person><name/></person>"; break;
      case 2: text += "<person><name/><age/></person>"; break;
      default: text += "<person><name/><phone/><homepage/></person>"; break;
    }
  }
  return text + "</people></site>";
}

/// XMark options with every default count scaled by `scale` (at least 1).
xml::XMarkOptions ScaledXMark(double scale, uint64_t seed) {
  auto scaled = [scale](int count) {
    const int r = static_cast<int>(count * scale + 0.5);
    return r < 1 ? 1 : r;
  };
  xml::XMarkOptions options;
  options.seed = seed;
  options.num_people = scaled(options.num_people);
  options.num_open_auctions = scaled(options.num_open_auctions);
  options.num_closed_auctions = scaled(options.num_closed_auctions);
  options.num_items_per_region = scaled(options.num_items_per_region);
  options.num_categories = scaled(options.num_categories);
  return options;
}

/// A document with its hidden goal's answers (document order).
struct GoalDoc {
  common::Interner interner;
  xml::XmlTree doc;
  std::vector<xml::NodeId> answers;

  void SetGoal(const std::string& goal) {
    auto q = twig::ParseTwig(goal, &interner);
    ASSERT_TRUE(q.ok()) << goal;
    answers = twig::Evaluate(q.value(), doc);
    ASSERT_GE(answers.size(), 2u) << goal;
  }
};

std::unique_ptr<GoalDoc> XmlGoalDoc(const std::string& xml,
                                    const std::string& goal) {
  auto d = std::make_unique<GoalDoc>();
  auto doc = xml::ParseXml(xml, &d->interner);
  EXPECT_TRUE(doc.ok()) << xml;
  if (doc.ok()) d->doc = std::move(doc).value();
  d->SetGoal(goal);
  return d;
}

std::unique_ptr<GoalDoc> XMarkGoalDoc(double scale, uint64_t seed,
                                      const std::string& goal) {
  auto d = std::make_unique<GoalDoc>();
  d->doc = xml::GenerateXMark(ScaledXMark(scale, seed), &d->interner);
  d->SetGoal(goal);
  return d;
}

/// Digest of one document: the seed hypothesis (the first answer as a
/// whole-document query) against every node, then the hypothesis after
/// the second answer against every node — the two GeneralizePair shapes
/// the interactive engine computes — plus LearnTwig on the seed with each
/// answer and, when `enumerate_cap` is nonzero, EnumerateGeneralizations
/// of the seed with every answer.
uint64_t DocumentDigest(const GoalDoc& d, size_t enumerate_cap,
                        TrimCounts* trims) {
  uint64_t hash = kFnvBasis;
  const xml::NodeId seed = d.answers[0];
  const twig::TwigQuery seed_query =
      learn::ExampleToQuery(learn::TreeExample{&d.doc, seed});
  auto second = learn::GeneralizePair(
      seed_query,
      learn::ExampleToQuery(learn::TreeExample{&d.doc, d.answers[1]}));
  EXPECT_TRUE(second.ok());
  if (!second.ok()) return hash;
  const twig::TwigQuery* const hypotheses[] = {&seed_query, &second.value()};
  for (const twig::TwigQuery* hypothesis : hypotheses) {
    for (xml::NodeId v = 0; v < d.doc.NumNodes(); ++v) {
      const twig::TwigQuery example =
          learn::ExampleToQuery(learn::TreeExample{&d.doc, v});
      auto g = learn::GeneralizePair(*hypothesis, example);
      if (trims != nullptr && hypothesis == &seed_query) {
        trims->Check(*hypothesis, example, g);
      }
      hash = FoldResult(hash, g);
    }
  }
  for (xml::NodeId answer : d.answers) {
    hash = FoldResult(hash, learn::LearnTwig(
                                {learn::TreeExample{&d.doc, seed},
                                 learn::TreeExample{&d.doc, answer}}));
    if (enumerate_cap > 0) {
      hash = FoldEnumeration(
          hash, seed_query,
          learn::ExampleToQuery(learn::TreeExample{&d.doc, answer}),
          enumerate_cap, /*max_steps=*/0);
    }
  }
  return hash;
}

TEST(TwigOutputPins, SoundnessSeedsReplayRecordedDigests) {
  // The 20 LearnerSoundness seeds: every same-label XMark node pair they
  // draw, through GeneralizePair, LearnTwig and a budgeted enumeration.
  static constexpr uint64_t kExpected[20] = {
      0x635c246e0bb96143ULL, 0xda899d4027cf5a71ULL, 0x20136b869059c823ULL,
      0x6f049d6a84eb71afULL, 0x8eb68e821c9873daULL, 0x9fbf588eea0470feULL,
      0x4dee944441477175ULL, 0x75eb615466d0ea50ULL, 0x5976ac8c06e11099ULL,
      0xff065d83f284922fULL, 0xdf468e00b9f82643ULL, 0x4fb93ea76dbc27b4ULL,
      0xe2475558e951154fULL, 0x15ba86b9503f681aULL, 0x37dddb39f692d9ddULL,
      0x6c513ac7c9702093ULL, 0x94d2928ef670ce12ULL, 0x18f540e36d5a3250ULL,
      0x06c08815fad1eda7ULL, 0xb2b8779ae949f732ULL,
  };
  std::vector<uint64_t> actual;
  for (int seed = 0; seed < 20; ++seed) {
    const TwigSeedCase c(seed);
    uint64_t hash = kFnvBasis;
    for (const auto& [n1, n2] : c.pairs) {
      const twig::TwigQuery q1 =
          learn::ExampleToQuery(learn::TreeExample{&c.d1, n1});
      const twig::TwigQuery q2 =
          learn::ExampleToQuery(learn::TreeExample{&c.d2, n2});
      hash = FoldResult(hash, learn::GeneralizePair(q1, q2));
      hash = FoldEnumeration(hash, q1, q2, /*cap=*/2, /*max_steps=*/4);
    }
    actual.push_back(hash);
  }
  EXPECT_EQ(actual, std::vector<uint64_t>(std::begin(kExpected),
                                          std::end(kExpected)))
      << "actual digests:\n"
      << DigestList(actual);
}

TEST(TwigOutputPins, ScenarioDocumentsReplayRecordedDigests) {
  // The twig scenario documents with their goals and seeds: the people
  // directory of e1 (s_twig_random opens the same document and seed) and
  // e4's all-"a" tree, whose repeated labels align many ways.
  static constexpr uint64_t kExpected[2] = {
      0x41c62c039997591cULL, 0x2718fee6252d6ae5ULL,
  };
  std::vector<uint64_t> actual;
  actual.push_back(DocumentDigest(
      *XmlGoalDoc("<site><people>"
                  "<person><name/><age/><phone/></person>"
                  "<person><name/></person>"
                  "<person><name/><age/></person>"
                  "<person><name/><homepage/></person>"
                  "</people></site>",
                  "/site/people/person[age]/name"),
      /*enumerate_cap=*/8, nullptr));
  actual.push_back(DocumentDigest(
      *XmlGoalDoc("<a><a><a><a/><a/></a><a/></a><a><a/></a></a>", "/a/a/a/a"),
      /*enumerate_cap=*/8, nullptr));
  EXPECT_EQ(actual, std::vector<uint64_t>(std::begin(kExpected),
                                          std::end(kExpected)))
      << "actual digests:\n"
      << DigestList(actual);
}

TEST(TwigOutputPins, DirectoriesAndXMarkReplayRecordedDigests) {
  // learn-large's directory at 16 and 32 persons, and XMark documents at
  // x0.1 and x0.2 scale (~220 and ~330 nodes). Together they trim filters
  // at both caps.
  static constexpr uint64_t kExpected[4] = {
      0x054272b0cb7bc2baULL, 0xce431129f39a5fa3ULL, 0xc6a9392035c2fa2bULL,
      0x4eaac0a4f23ef56cULL,
  };
  TrimCounts trims;
  std::vector<uint64_t> actual;
  actual.push_back(DocumentDigest(
      *XmlGoalDoc(DirectoryXml(16, 1), "/site/people/person[age]/name"),
      /*enumerate_cap=*/2, &trims));
  actual.push_back(DocumentDigest(
      *XmlGoalDoc(DirectoryXml(32, 2), "/site/people/person[phone]/name"),
      /*enumerate_cap=*/2, &trims));
  actual.push_back(DocumentDigest(
      *XMarkGoalDoc(0.1, 11, "/site/people/person/name"),
      /*enumerate_cap=*/0, &trims));
  actual.push_back(DocumentDigest(
      *XMarkGoalDoc(0.2, 12, "/site/people/person/name"),
      /*enumerate_cap=*/0, &trims));
  EXPECT_EQ(actual, std::vector<uint64_t>(std::begin(kExpected),
                                          std::end(kExpected)))
      << "actual digests:\n"
      << DigestList(actual);
  EXPECT_GE(trims.by_count, 1u);
  EXPECT_GE(trims.by_size, 1u);
}

// --- Shared document memo ---
//
// DocumentGeneralizer::Generalize(v) must return GeneralizePair(h,
// ExampleToQuery({doc, v})) exactly, node order and selection included, for
// every node v, with one generalizer (and so one document twig) reused
// across every node and across a Reset from the seed hypothesis to the
// hypothesis after the second answer.

/// Runs the comparison on `d` under `options`. When `raised` (the same
/// options with a cap lifted) is set, returns the number of outputs it
/// changes, so a case can show that it trims at that cap.
size_t ExpectSharedMemoMatchesPairs(
    const GoalDoc& d, const learn::TwigLearnerOptions& options,
    const learn::TwigLearnerOptions* raised = nullptr) {
  const twig::TwigQuery seed =
      learn::ExampleToQuery(learn::TreeExample{&d.doc, d.answers[0]});
  auto second = learn::GeneralizePair(
      seed, learn::ExampleToQuery(learn::TreeExample{&d.doc, d.answers[1]}),
      options);
  EXPECT_TRUE(second.ok());
  if (!second.ok()) return 0;
  size_t trimmed = 0;
  learn::DocumentGeneralizer shared(d.doc, options);
  const twig::TwigQuery* const hypotheses[] = {&seed, &second.value()};
  for (const twig::TwigQuery* hypothesis : hypotheses) {
    shared.Reset(*hypothesis);
    for (xml::NodeId v = 0; v < d.doc.NumNodes(); ++v) {
      const twig::TwigQuery example =
          learn::ExampleToQuery(learn::TreeExample{&d.doc, v});
      const auto expected =
          learn::GeneralizePair(*hypothesis, example, options);
      const auto actual = shared.Generalize(v);
      EXPECT_EQ(FoldResult(kFnvBasis, actual), FoldResult(kFnvBasis, expected))
          << "node " << v;
      if (expected.ok() && actual.ok()) {
        EXPECT_TRUE(actual.value() == expected.value()) << "node " << v;
      }
      if (raised != nullptr &&
          FoldResult(kFnvBasis,
                     learn::GeneralizePair(*hypothesis, example, *raised)) !=
              FoldResult(kFnvBasis, expected)) {
        ++trimmed;
      }
    }
  }
  return trimmed;
}

TEST(TwigSharedMemo, MatchesGeneralizePairOnEveryNode) {
  // The TwigOutputPins corpus under the default options.
  std::vector<std::unique_ptr<GoalDoc>> docs;
  docs.push_back(
      XmlGoalDoc(DirectoryXml(16, 1), "/site/people/person[age]/name"));
  docs.push_back(
      XmlGoalDoc(DirectoryXml(32, 2), "/site/people/person[phone]/name"));
  docs.push_back(XMarkGoalDoc(0.1, 11, "/site/people/person/name"));
  docs.push_back(XMarkGoalDoc(0.2, 12, "/site/people/person/name"));
  docs.push_back(XmlGoalDoc("<site><people>"
                            "<person><name/><age/><phone/></person>"
                            "<person><name/></person>"
                            "<person><name/><age/></person>"
                            "<person><name/><homepage/></person>"
                            "</people></site>",
                            "/site/people/person[age]/name"));
  docs.push_back(XmlGoalDoc("<a><a><a><a/><a/></a><a/></a><a><a/></a></a>",
                            "/a/a/a/a"));
  for (const auto& d : docs) {
    ExpectSharedMemoMatchesPairs(*d, learn::TwigLearnerOptions{});
  }
}

TEST(TwigSharedMemo, MatchesGeneralizePairWhenCapsTrim) {
  // One case trimmed by the per-node filter count, one by the filter size.
  learn::TwigLearnerOptions few_filters;
  few_filters.max_filters_per_node = 2;
  learn::TwigLearnerOptions more_filters;
  more_filters.max_filters_per_node = 1024;
  EXPECT_GE(ExpectSharedMemoMatchesPairs(
                *XmlGoalDoc(DirectoryXml(32, 2),
                            "/site/people/person[phone]/name"),
                few_filters, &more_filters),
            1u);
  learn::TwigLearnerOptions small_filters;
  small_filters.max_filter_size = 12;
  learn::TwigLearnerOptions large_filters;
  large_filters.max_filter_size = 1024;
  EXPECT_GE(ExpectSharedMemoMatchesPairs(
                *XMarkGoalDoc(0.1, 11, "/site/people/person/name"),
                small_filters, &large_filters),
            1u);
}

// --- Twig question pins ---
//
// FNV-1a digests of whole interactive twig sessions, in the style of the
// path and relational question pins: every question's node id in order,
// the question, forced and conflict counts, and the final query. A changed
// digest means a session asks different questions or learns something
// else.

/// Drives a twig session on `d` (seeded with its first answer) in batches
/// of `batch` questions, labeling by the goal's answers with the very first
/// label flipped when `flip_first`, and digests the run. When
/// `first_question_s` is set it receives the wall time from constructing
/// the engine to the first batch of questions.
uint64_t TwigSessionDigest(const GoalDoc& d, learn::TwigStrategy strategy,
                           uint64_t seed, size_t batch, bool flip_first,
                           double* first_question_s = nullptr) {
  std::vector<char> positive(d.doc.NumNodes(), 0);
  for (xml::NodeId v : d.answers) positive[v] = 1;
  learn::InteractiveTwigOptions engine_options;
  engine_options.strategy = strategy;
  session::SessionOptions options;
  options.seed = seed;
  const auto start = std::chrono::steady_clock::now();
  session::LearningSession<learn::TwigEngine> session(
      learn::TwigEngine(&d.doc, d.answers[0], engine_options), options);
  uint64_t hash = kFnvBasis;
  bool flip = flip_first;
  while (true) {
    const std::vector<xml::NodeId> questions = session.NextQuestions(batch);
    if (first_question_s != nullptr) {
      *first_question_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      first_question_s = nullptr;
    }
    if (questions.empty()) break;
    std::vector<bool> labels;
    for (xml::NodeId v : questions) {
      hash = FoldDigest(hash, v);
      labels.push_back((positive[v] != 0) != flip);
      flip = false;
    }
    session.AnswerAll(labels);
  }
  const twig::TwigQuery learned = session.Finish();
  const session::SessionStats& stats = session.stats();
  for (uint64_t v : {uint64_t{stats.questions}, uint64_t{stats.forced_positive},
                     uint64_t{stats.forced_negative},
                     uint64_t{stats.conflicts}}) {
    hash = FoldDigest(hash, v);
  }
  return FoldQuery(hash, learned);
}

TEST(TwigQuestionPins, TwigSessionsReplayRecordedDigests) {
  // learn-large's directory at 16 and 32 persons and a x0.1 XMark document
  // x {kGreedyImpact, kRandom}, answered in batches of 1, 2 and 3 (the
  // 32-person directory flips its first answer).
  static constexpr uint64_t kExpected[6] = {
      0x1b51d9fb582b1739ULL, 0xdb72d984d1e06cacULL, 0x38afe976eae5f41fULL,
      0xdc848f6ad230b2d0ULL, 0x17138a5ec61c7ee6ULL, 0xcc933f558d212da8ULL,
  };
  std::vector<std::unique_ptr<GoalDoc>> docs;
  docs.push_back(
      XmlGoalDoc(DirectoryXml(16, 3), "/site/people/person[age]/name"));
  docs.push_back(
      XmlGoalDoc(DirectoryXml(32, 4), "/site/people/person[phone]/name"));
  docs.push_back(XMarkGoalDoc(0.1, 13, "/site/people/person/name"));
  std::vector<uint64_t> actual;
  for (size_t i = 0; i < docs.size(); ++i) {
    for (learn::TwigStrategy strategy :
         {learn::TwigStrategy::kGreedyImpact, learn::TwigStrategy::kRandom}) {
      actual.push_back(TwigSessionDigest(*docs[i], strategy,
                                         /*seed=*/70 + i, /*batch=*/1 + i,
                                         /*flip_first=*/i == 1));
    }
  }
  EXPECT_EQ(actual, std::vector<uint64_t>(std::begin(kExpected),
                                          std::end(kExpected)))
      << "actual digests:\n"
      << DigestList(actual);
}

// --- Twig scale gate ---
//
// ROADMAP F's document-size gate: a greedy-impact session on a
// >=1,000-node XMark document (x0.8, 1,017 nodes) reaches its first
// question in under a second, and its question sequence is pinned. The
// full-size session runs only in optimized builds without sanitizers, where
// the time means something; every build runs the same session on a x0.2
// document.

#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

TEST(TwigScaleGate, XMarkSessionsReplayRecordedDigests) {
  const std::string goal = "/site/people/person/name";
  const auto fifth = XMarkGoalDoc(0.2, 15, goal);
  EXPECT_EQ(TwigSessionDigest(*fifth, learn::TwigStrategy::kGreedyImpact,
                              /*seed=*/90, /*batch=*/1, /*flip_first=*/false),
            0x2ed32597ab683b02ULL);
  if (!kOptimizedBuild) return;
  const auto full = XMarkGoalDoc(0.8, 15, goal);
  ASSERT_GE(full->doc.NumNodes(), 1000u);
  double first_question_s = 0;
  EXPECT_EQ(TwigSessionDigest(*full, learn::TwigStrategy::kGreedyImpact,
                              /*seed=*/91, /*batch=*/1, /*flip_first=*/false,
                              &first_question_s),
            0xd6ee7e2bd2347411ULL);
  EXPECT_LT(first_question_s, 1.0) << full->doc.NumNodes() << " nodes";
}

}  // namespace
}  // namespace qlearn
