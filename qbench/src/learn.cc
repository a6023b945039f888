#include "learn.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "automata/regex.h"
#include "common/alloc_probe.h"
#include "common/interner.h"
#include "common/rng.h"
#include "glearn/interactive_path.h"
#include "graph/geo_generator.h"
#include "graph/path_query.h"
#include "learn/interactive.h"
#include "relational/generator.h"
#include "rlearn/chain_learner.h"
#include "rlearn/interactive_chain.h"
#include "rlearn/interactive_join.h"
#include "session/session.h"
#include "twig/twig_eval.h"
#include "twig/twig_parser.h"
#include "xml/xml_parser.h"

namespace qbench {

const char* const kEngines[4] = {"learn.twig", "rlearn.join", "rlearn.chain",
                                 "glearn.path"};

namespace {

namespace q = qlearn;
using q::common::AllocProbeNewCount;

// Instance sizes: the micro-benchmark scale of bench_micro_operators
// (BM_SelectQuestion/BM_Classify), where selection, propagation and the
// candidate-store plane sweeps dominate.
constexpr int kTwigPersons = 16;     // ~55 document nodes
constexpr int kJoinRows = 200;       // 200 x 200 = 40k candidate pairs
constexpr int kChainRows = 24;       // 24^3 = 13.8k candidate paths
constexpr int kGeoGrid = 8;          // 8 x 8 cities
constexpr size_t kPathEdges = 3;
constexpr size_t kPathCandidates = 100000;

// Goals the twig learner reaches exactly on every generated directory.
const char* const kTwigGoals[] = {
    "/site/people/person[age]/name",
    "/site/people/person[phone]/name",
};

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t InstanceSeed(uint64_t seed, uint64_t index) {
  return Mix(Mix(seed) + index);
}

uint64_t HashIds(uint64_t hash, const std::vector<uint64_t>& ids) {
  for (uint64_t id : ids) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (id >> (8 * b)) & 0xff;
      hash *= 0x100000001B3ULL;
    }
  }
  return hash ^ 0xff;  // item separator
}
constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

struct TwigInst {
  using Engine = q::learn::TwigEngine;
  q::common::Interner interner;
  q::xml::XmlTree doc;
  std::optional<q::twig::TwigQuery> goal;
  q::xml::NodeId seed_node = q::xml::kInvalidNode;
  std::vector<char> positive;             // per node
  std::vector<q::xml::NodeId> answers;    // sorted

  Engine MakeEngine() const { return Engine(&doc, seed_node); }
  bool Label(q::xml::NodeId node) const { return positive[node] != 0; }
  bool Check(const q::twig::TwigQuery& learned) const {
    std::vector<q::xml::NodeId> got = q::twig::Evaluate(learned, doc);
    std::sort(got.begin(), got.end());
    return got == answers;
  }
  size_t Candidates(const Engine&) const { return doc.NumNodes(); }
};

std::unique_ptr<TwigInst> MakeTwig(uint64_t seed) {
  auto inst = std::make_unique<TwigInst>();
  q::common::Rng rng(seed);
  std::string text = "<site><people>";
  for (int i = 0; i < kTwigPersons; ++i) {
    // The first person matches every goal, so each instance has a positive
    // seed node.
    switch (i == 0 ? 0 : rng.Index(4)) {
      case 0: text += "<person><name/><age/><phone/></person>"; break;
      case 1: text += "<person><name/></person>"; break;
      case 2: text += "<person><name/><age/></person>"; break;
      default: text += "<person><name/><phone/><homepage/></person>"; break;
    }
  }
  text += "</people></site>";
  inst->doc = q::xml::ParseXml(text, &inst->interner).value();
  const char* goal = kTwigGoals[rng.Index(std::size(kTwigGoals))];
  inst->goal = q::twig::ParseTwig(goal, &inst->interner).value();
  inst->answers = q::twig::Evaluate(*inst->goal, inst->doc);
  std::sort(inst->answers.begin(), inst->answers.end());
  inst->positive.assign(inst->doc.NumNodes(), 0);
  for (q::xml::NodeId node : inst->answers) inst->positive[node] = 1;
  if (!inst->answers.empty()) inst->seed_node = inst->answers.front();
  return inst;
}

struct JoinInst {
  using Engine = q::rlearn::JoinEngine;
  q::relational::JoinInstance data;
  q::rlearn::PairUniverse universe;
  q::rlearn::PairMask goal = 0;

  Engine MakeEngine() const {
    return Engine(&universe, &data.left, &data.right);
  }
  bool Label(const q::rlearn::PairExample& pair) const {
    return q::rlearn::MaskSatisfied(
        goal, universe.AgreeMask(data.left.row(pair.left_row),
                                 data.right.row(pair.right_row)));
  }
  bool Check(q::rlearn::PairMask learned) const {
    for (size_t l = 0; l < data.left.size(); ++l) {
      for (size_t r = 0; r < data.right.size(); ++r) {
        const q::rlearn::PairMask agree =
            universe.AgreeMask(data.left.row(l), data.right.row(r));
        if (q::rlearn::MaskSatisfied(learned, agree) !=
            q::rlearn::MaskSatisfied(goal, agree)) {
          return false;
        }
      }
    }
    return true;
  }
  size_t Candidates(const Engine& engine) const {
    return engine.candidate_pairs();
  }
};

std::unique_ptr<JoinInst> MakeJoin(uint64_t seed) {
  auto inst = std::make_unique<JoinInst>();
  q::relational::JoinInstanceOptions options;
  options.seed = seed;
  options.left_rows = kJoinRows;
  options.right_rows = kJoinRows;
  options.left_arity = 4;
  options.right_arity = 4;
  options.domain_size = 6;
  inst->data = q::relational::GenerateJoinInstance(options, 2);
  inst->universe = q::rlearn::PairUniverse::AllCompatible(
                       inst->data.left.schema(), inst->data.right.schema())
                       .value();
  for (size_t i = 0; i < inst->universe.size(); ++i) {
    for (const auto& pair : inst->data.goal) {
      if (inst->universe.pairs()[i] == pair) inst->goal |= (1ULL << i);
    }
  }
  return inst;
}

struct ChainInst {
  using Engine = q::rlearn::ChainEngine;
  q::relational::ChainInstance data;
  std::optional<q::rlearn::JoinChain> chain;
  q::rlearn::ChainMask goal;
  std::vector<std::vector<size_t>> answers;

  Engine MakeEngine() const { return Engine(&*chain); }
  bool Label(const q::rlearn::ChainExample& example) const {
    return q::rlearn::ChainSatisfied(*chain, goal, example);
  }
  bool Check(const q::rlearn::ChainMask& learned) const {
    const auto got = q::rlearn::EvaluateChain(*chain, learned);
    if (got.size() != answers.size()) return false;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].rows != answers[i]) return false;
    }
    return true;
  }
  size_t Candidates(const Engine& engine) const {
    return engine.candidate_paths();
  }
};

std::unique_ptr<ChainInst> MakeChain(uint64_t seed) {
  auto inst = std::make_unique<ChainInst>();
  q::relational::ChainInstanceOptions options;
  options.seed = seed;
  options.num_relations = 3;
  options.rows = kChainRows;
  inst->data = q::relational::GenerateChainInstance(options);
  inst->chain = q::rlearn::JoinChain::Create(inst->data.pointers).value();
  inst->goal = q::rlearn::NamePairChainGoal(*inst->chain, "fk", "key");
  for (auto& example : q::rlearn::EvaluateChain(*inst->chain, inst->goal)) {
    inst->answers.push_back(std::move(example.rows));
  }
  return inst;
}

struct PathInst {
  using Engine = q::glearn::PathEngine;
  q::common::Interner interner;
  q::graph::Graph g;
  q::graph::PathQuery goal;
  std::optional<q::graph::PathQueryEvaluator> evaluator;
  q::graph::Path seed_path;
  q::glearn::InteractivePathOptions options;

  Engine MakeEngine() const { return Engine(&g, seed_path, options); }
  bool Label(const Engine::Question& question) const {
    return evaluator->MatchesPath(*question.path);
  }
  bool Check(const q::glearn::ConcatPattern& learned) const {
    for (const q::graph::Path& path :
         q::graph::EnumeratePaths(g, kPathEdges, kPathCandidates)) {
      if (learned.Accepts(q::graph::PathWord(g, path)) !=
          evaluator->MatchesPath(path)) {
        return false;
      }
    }
    return true;
  }
  size_t Candidates(const Engine& engine) const {
    return engine.candidate_paths();
  }
};

std::unique_ptr<PathInst> MakePath(uint64_t seed) {
  auto inst = std::make_unique<PathInst>();
  q::graph::GeoOptions geo;
  geo.seed = seed;
  geo.grid_width = kGeoGrid;
  geo.grid_height = kGeoGrid;
  inst->g = q::graph::GenerateGeoGraph(geo, &inst->interner);
  inst->goal = {q::automata::ParseRegex("highway+", &inst->interner).value(),
                std::nullopt};
  inst->evaluator.emplace(inst->goal, inst->g);
  for (q::graph::EdgeId e = 0; e < inst->g.NumEdges(); ++e) {
    if (inst->interner.Name(inst->g.edge(e).label) == "highway") {
      inst->seed_path.start = inst->g.edge(e).src;
      inst->seed_path.edges = {e};
      break;
    }
  }
  inst->options.max_path_edges = kPathEdges;
  inst->options.max_candidates = kPathCandidates;
  return inst;
}

/// Calls `fn(instance)` with session `index`'s freshly generated instance.
template <typename Fn>
void WithInstance(uint64_t seed, uint64_t index, Fn&& fn) {
  const uint64_t s = InstanceSeed(seed, index);
  switch (index % 4) {
    case 0: fn(*MakeTwig(s)); break;
    case 1: fn(*MakeJoin(s)); break;
    case 2: fn(*MakeChain(s)); break;
    default: fn(*MakePath(s)); break;
  }
}

/// What one session asked: the hash of its question sequence and the
/// question count.
struct Asked {
  uint64_t hash = 0;
  uint64_t questions = 0;
};

/// One untraced session through LearningSession: open (construct + first
/// select), then ask/tell until the session is over, then Finish.
template <typename Inst>
Asked RunSession(const Inst& inst, size_t engine, uint64_t session_seed,
                 bool flip_first, LoadResult* r) {
  using Engine = typename Inst::Engine;
  q::session::SessionOptions options;
  options.seed = session_seed;
  const Clock::time_point opened = Clock::now();
  q::session::LearningSession<Engine> session(inst.MakeEngine(), options);
  auto question = session.NextQuestion();
  Window& group = r->Group(engine);
  group.first_question_us.push_back(MicrosBetween(opened, Clock::now()));
  group.validated += 2;
  r->attempted += 2;  // open + first ask
  uint64_t hash = kFnvBasis;
  bool flip = flip_first;
  while (question.has_value()) {
    hash = HashIds(hash, Engine::ItemIds(*question));
    bool label = inst.Label(*question);
    if (flip) label = !label;
    flip = false;
    const Clock::time_point begin = Clock::now();
    session.Answer(label);
    const Clock::time_point told = Clock::now();
    question = session.NextQuestion();
    group.ask_us.push_back(MicrosBetween(told, Clock::now()));
    group.tell_us.push_back(MicrosBetween(begin, told));
    group.validated += 2;
    r->attempted += 2;
  }
  const auto learned = session.Finish();
  ++r->attempted;  // close
  if (session.stats().conflicts == 0 && inst.Check(learned)) {
    ++group.validated;
    ++group.sessions;
    r->questions_per_session += static_cast<double>(session.stats().questions);
  } else {
    ++r->mismatches;
    r->Note("learned query does not select the goal's answers (conflicts=" +
            std::to_string(session.stats().conflicts) + ")");
  }
  return {hash, session.stats().questions};
}

/// The same session stepped through the engine-concept calls (the order
/// LearningSession uses for one-question asks). With `spans`, one span per
/// call and allocation counts; without, the same loop bare, for the
/// tracing overhead.
template <typename Inst>
uint64_t TraceSession(const Inst& inst, uint64_t session_seed, bool spans,
                      EngineTrace* t, uint64_t* failures, double* loop_s) {
  using Engine = typename Inst::Engine;
  q::session::SessionStats stats;
  auto now = [spans] { return spans ? Clock::now() : Clock::time_point(); };
  auto allocs_now = [spans] { return spans ? AllocProbeNewCount() : 0; };
  const Clock::time_point opened = Clock::now();
  Clock::time_point begin = opened;
  Engine engine = inst.MakeEngine();
  engine.Propagate(&stats);
  Clock::time_point end = now();
  if (spans) t->construct_us.push_back(MicrosBetween(begin, end));
  q::common::Rng rng(session_seed);
  uint64_t hash = kFnvBasis;
  while (!engine.Aborted()) {
    uint64_t allocs = allocs_now();
    begin = now();
    auto item = engine.SelectQuestion(&rng);
    const Clock::time_point picked = now();
    if (item.has_value()) {
      ++stats.questions;
      engine.MarkAsked(*item);
    }
    end = now();
    if (spans) {
      t->loop_allocs += AllocProbeNewCount() - allocs;
      t->select_us.push_back(MicrosBetween(begin, end));
      t->pick_us.push_back(MicrosBetween(begin, picked));
    }
    if (!item.has_value()) break;
    hash = HashIds(hash, Engine::ItemIds(*item));
    const bool label = inst.Label(*item);
    allocs = allocs_now();
    begin = now();
    engine.Observe(*item, label, &stats);
    if (label) {
      engine.OnPositive(*item);
    } else {
      engine.OnNegative(*item);
    }
    end = now();
    if (spans) t->observe_us.push_back(MicrosBetween(begin, end));
    begin = end;
    if (!engine.Aborted()) engine.Propagate(&stats);
    end = now();
    if (spans) {
      t->loop_allocs += AllocProbeNewCount() - allocs;
      t->propagate_us.push_back(MicrosBetween(begin, end));
    }
  }
  begin = now();
  const auto learned = engine.Finish(&stats);
  end = Clock::now();
  if (spans) t->finish_us.push_back(MicrosBetween(begin, end));
  *loop_s += SecondsBetween(opened, end);
  ++t->sessions;
  t->questions += stats.questions;
  t->forced += stats.forced_positive + stats.forced_negative;
  t->candidates += inst.Candidates(engine);
  if (stats.conflicts != 0 || !inst.Check(learned)) ++*failures;
  return hash;
}

constexpr uint64_t kWarmupIndexBase = uint64_t{1} << 40;
constexpr uint64_t kWarmupSessions = 8;  // per worker thread
// questions_per_session is the mean over the first kExactLearnSessions
// sessions of the stream.
constexpr uint64_t kExactLearnSessions = 400;
constexpr size_t kLearnThreads = 2;

}  // namespace

LoadResult SetupLearn(uint64_t seed) {
  // Two sessions per engine on each worker thread, outside the measured
  // stream: fills the allocator and instruction caches.
  LoadResult warm[kLearnThreads];
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kLearnThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t k = 0; k < kWarmupSessions; ++k) {
        const uint64_t index = kWarmupIndexBase + kWarmupSessions * t + k;
        WithInstance(seed, index, [&](const auto& inst) {
          RunSession(inst, index % 4, Mix(index), false, &warm[t]);
        });
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 1; t < kLearnThreads; ++t) warm[0].Merge(std::move(warm[t]));
  return std::move(warm[0]);
}

LearnRun RunLearn(uint64_t seed, double seconds, bool flip_first_label) {
  LearnRun run;
  run.sequence_hash.assign(kTracedLearnSessions, 0);
  std::vector<uint64_t> questions(kExactLearnSessions, 0);
  std::atomic<uint64_t> next_index{0};
  LoadResult results[kLearnThreads];
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (LoadResult& result : results) result.by_engine = true;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kLearnThreads; ++t) {
    threads.emplace_back([&, t] {
      while (Clock::now() < deadline) {
        const uint64_t index = next_index.fetch_add(1);
        WithInstance(seed, index, [&](const auto& inst) {
          const Asked asked = RunSession(
              inst, index % 4, Mix(index), flip_first_label && index == 0,
              &results[t]);
          if (index < kTracedLearnSessions) {
            run.sequence_hash[index] = asked.hash;
          }
          if (index < kExactLearnSessions) questions[index] = asked.questions;
        });
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  run.result = std::move(results[0]);
  for (size_t t = 1; t < kLearnThreads; ++t) {
    run.result.Merge(std::move(results[t]));
  }
  run.result.seconds = SecondsBetween(start, Clock::now());
  // Over the fixed first sessions of the stream, so the figure is exact for
  // a seed; a run too short to finish them averages what it finished.
  const uint64_t sessions = run.result.sessions();
  if (next_index.load() >= kExactLearnSessions) {
    uint64_t total = 0;
    for (uint64_t q : questions) total += q;
    run.result.questions_per_session =
        static_cast<double>(total) / static_cast<double>(kExactLearnSessions);
  } else if (sessions > 0) {
    run.result.questions_per_session /= static_cast<double>(sessions);
  }
  return run;
}

LearnTrace TraceLearn(uint64_t seed,
                      const std::vector<uint64_t>& expected_hash) {
  // A warm pass, then two traced passes whose exact counts must agree, with
  // the bare pass between them so drift over the run cancels in the
  // overhead.
  LearnTrace warm, trace, bare, second;
  for (LearnTrace* pass : {&warm, &trace, &bare, &second}) {
    pass->sequence_hash.assign(kTracedLearnSessions, 0);
    for (uint64_t index = 0; index < kTracedLearnSessions; ++index) {
      WithInstance(seed, index, [&](const auto& inst) {
        pass->sequence_hash[index] =
            TraceSession(inst, Mix(index), pass != &bare,
                         &pass->engines[index % 4], &pass->failures,
                         &pass->traced_loop_s);
      });
    }
  }
  trace.failures += warm.failures + bare.failures + second.failures;
  trace.traced_loop_s = (trace.traced_loop_s + second.traced_loop_s) / 2;
  trace.untraced_loop_s = bare.traced_loop_s;
  for (int k = 0; k < 4; ++k) {
    const EngineTrace& a = trace.engines[k];
    const EngineTrace& b = second.engines[k];
    if (a.questions != b.questions || a.forced != b.forced ||
        a.loop_allocs != b.loop_allocs || a.candidates != b.candidates) {
      ++trace.failures;
      trace.notes.push_back(std::string(kEngines[k]) +
                            ": exact counts differ between traced passes "
                            "(allocs " + std::to_string(a.loop_allocs) +
                            " vs " + std::to_string(b.loop_allocs) + ")");
    }
  }
  // Every pass must ask the same questions, and those the untraced loaded
  // run asked where it reached the session (a very short run may not).
  for (uint64_t index = 0; index < kTracedLearnSessions; ++index) {
    const uint64_t want = expected_hash[index] != 0
                              ? expected_hash[index]
                              : trace.sequence_hash[index];
    if (trace.sequence_hash[index] == want &&
        second.sequence_hash[index] == want &&
        bare.sequence_hash[index] == want) {
      continue;
    }
    ++trace.failures;
    if (trace.notes.size() < 8) {
      trace.notes.push_back("session " + std::to_string(index) +
                            ": traced question sequence differs from the "
                            "untraced run");
    }
  }
  return trace;
}

}  // namespace qbench
