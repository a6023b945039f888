// Built-in demo scenarios for the ScenarioRegistry: one per paper scenario,
// each carrying a small synthetic dataset and a hidden goal query so the
// session can be driven by a human (Answer) or self-answered
// (OracleLabels). These mirror the setups of the E1/E6/E7/E12 experiments
// at demo scale.
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "glearn/interactive_path.h"
#include "graph/geo_generator.h"
#include "learn/interactive.h"
#include "relational/generator.h"
#include "rlearn/interactive_chain.h"
#include "rlearn/interactive_join.h"
#include "session/registry.h"
#include "session/session.h"
#include "twig/twig_parser.h"
#include "xml/xml_parser.h"

namespace qlearn {
namespace session {

namespace {

using common::Result;
using common::Status;

/// ScenarioSession over a typed engine: the shared glue of every built-in
/// scenario, whatever its engine. `context` keeps the scenario's dataset (documents,
/// relations, graph, interner, goal) alive for the session's lifetime.
template <typename Engine>
class TypedScenarioSession : public ScenarioSession {
 public:
  using Item = typename Engine::Item;
  using OracleFn = std::function<bool(const Item&)>;
  using RenderFn = std::function<std::string(const Item&)>;
  using HypothesisFn =
      std::function<std::string(const typename Engine::HypothesisT&)>;

  TypedScenarioSession(std::shared_ptr<void> context,
                       LearningSession<Engine> session, OracleFn oracle,
                       RenderFn render, HypothesisFn render_hypothesis)
      : context_(std::move(context)),
        session_(std::move(session)),
        oracle_(std::move(oracle)),
        render_(std::move(render)),
        render_hypothesis_(std::move(render_hypothesis)) {}

  std::optional<std::string> NextQuestion() override {
    auto item = session_.NextQuestion();
    if (!item.has_value()) return std::nullopt;
    return render_(*item);
  }

  std::vector<std::string> NextQuestions(size_t k) override {
    std::vector<std::string> rendered;
    for (const Item& item : session_.NextQuestions(k)) {
      rendered.push_back(render_(item));
    }
    return rendered;
  }

  void Answer(bool positive) override { session_.Answer(positive); }

  void AnswerAll(const std::vector<bool>& labels) override {
    session_.AnswerAll(labels);
  }

  std::vector<bool> OracleLabels() override {
    std::vector<bool> labels;
    labels.reserve(session_.pending().size());
    for (const Item& item : session_.pending()) {
      labels.push_back(oracle_(item));
    }
    return labels;
  }

  void Finish() override { session_.Finish(); }

  std::string PayloadKind() const override { return Engine::kPayloadKind; }

  std::vector<std::vector<uint64_t>> PendingIds() const override {
    std::vector<std::vector<uint64_t>> ids;
    ids.reserve(session_.pending().size());
    for (const Item& item : session_.pending()) {
      ids.push_back(Engine::ItemIds(item));
    }
    return ids;
  }

  const SessionStats& stats() const override { return session_.stats(); }

  std::string Hypothesis() const override {
    return render_hypothesis_(session_.Hypothesis());
  }

  common::Status SerializeSnapshot(std::string* out) const override {
    return session_.SerializeSnapshot(out);
  }

  common::Status RestoreSnapshot(std::string_view image) override {
    return session_.RestoreSnapshot(image);
  }

 private:
  std::shared_ptr<void> context_;
  LearningSession<Engine> session_;
  OracleFn oracle_;
  RenderFn render_;
  HypothesisFn render_hypothesis_;
};

// ---------------------------------------------------------------------------
// "twig": XML people directory, hidden goal /site/people/person[age]/name.

struct TwigContext {
  common::Interner interner;
  xml::XmlTree doc;
  twig::TwigQuery goal;
};

Result<std::unique_ptr<ScenarioSession>> MakeTwigScenario(
    const SessionOptions& options,
    learn::TwigStrategy strategy = learn::TwigStrategy::kGreedyImpact) {
  auto context = std::make_shared<TwigContext>();
  auto doc = xml::ParseXml(
      "<site><people>"
      "<person><name/><age/><phone/></person>"
      "<person><name/></person>"
      "<person><name/><age/></person>"
      "<person><name/><homepage/></person>"
      "</people></site>",
      &context->interner);
  if (!doc.ok()) return doc.status();
  context->doc = std::move(doc).value();
  auto goal =
      twig::ParseTwig("/site/people/person[age]/name", &context->interner);
  if (!goal.ok()) return goal.status();
  context->goal = std::move(goal).value();

  xml::NodeId seed = xml::kInvalidNode;
  for (xml::NodeId v = 0; v < context->doc.NumNodes(); ++v) {
    if (twig::Selects(context->goal, context->doc, v)) {
      seed = v;
      break;
    }
  }
  if (seed == xml::kInvalidNode) {
    return Status::Internal("twig scenario has no positive seed node");
  }

  learn::InteractiveTwigOptions engine_options;
  engine_options.strategy = strategy;
  SessionOptions session_options = options;
  LearningSession<learn::TwigEngine> session(
      learn::TwigEngine(&context->doc, seed, engine_options),
      session_options);
  TwigContext* ctx = context.get();
  return std::unique_ptr<ScenarioSession>(
      new TypedScenarioSession<learn::TwigEngine>(
          context, std::move(session),
          [ctx](const xml::NodeId& node) {
            return twig::Selects(ctx->goal, ctx->doc, node);
          },
          [ctx](const xml::NodeId& node) {
            // Render the root-to-node label path, e.g.
            // "is site/people/person/name (node 4) what you want?".
            std::vector<xml::NodeId> chain;
            for (xml::NodeId v = node; v != xml::kInvalidNode;
                 v = ctx->doc.parent(v)) {
              chain.push_back(v);
            }
            std::string path;
            for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
              if (!path.empty()) path += "/";
              path += ctx->interner.Name(ctx->doc.label(*it));
            }
            return "is " + path + " (node " + std::to_string(node) +
                   ") what you want?";
          },
          [ctx](const twig::TwigQuery& query) {
            return query.ToString(ctx->interner);
          }));
}

// ---------------------------------------------------------------------------
// "twig-ambiguity": repeated-label document (the E4 ambiguity fuel — every
// node is an "a", so twig embeddings align many ways), hidden goal
// /a/a/a/a. The oracle's negative answers at the other depths drive the
// consistency machinery that experiment E4 stresses with positive AND
// negative examples.

Result<std::unique_ptr<ScenarioSession>> MakeTwigAmbiguityScenario(
    const SessionOptions& options) {
  auto context = std::make_shared<TwigContext>();
  auto doc = xml::ParseXml(
      "<a><a><a><a/><a/></a><a/></a><a><a/></a></a>", &context->interner);
  if (!doc.ok()) return doc.status();
  context->doc = std::move(doc).value();
  auto goal = twig::ParseTwig("/a/a/a/a", &context->interner);
  if (!goal.ok()) return goal.status();
  context->goal = std::move(goal).value();

  xml::NodeId seed = xml::kInvalidNode;
  for (xml::NodeId v = 0; v < context->doc.NumNodes(); ++v) {
    if (twig::Selects(context->goal, context->doc, v)) {
      seed = v;
      break;
    }
  }
  if (seed == xml::kInvalidNode) {
    return Status::Internal("twig-ambiguity scenario has no positive seed");
  }

  LearningSession<learn::TwigEngine> session(
      learn::TwigEngine(&context->doc, seed), options);
  TwigContext* ctx = context.get();
  return std::unique_ptr<ScenarioSession>(
      new TypedScenarioSession<learn::TwigEngine>(
          context, std::move(session),
          [ctx](const xml::NodeId& node) {
            return twig::Selects(ctx->goal, ctx->doc, node);
          },
          [ctx](const xml::NodeId& node) {
            return "is node " + std::to_string(node) + " (depth " +
                   std::to_string(ctx->doc.depth(node)) +
                   " in the all-a document) what you want?";
          },
          [ctx](const twig::TwigQuery& query) {
            return query.ToString(ctx->interner);
          }));
}

// ---------------------------------------------------------------------------
// "join": generated instance, hidden 2-attribute equi-join goal.

std::string TupleText(const relational::Tuple& tuple) {
  std::string text = "(";
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (i > 0) text += ", ";
    text += tuple[i].ToString();
  }
  return text + ")";
}

struct JoinContext {
  relational::JoinInstance instance;
  rlearn::PairUniverse universe;
  rlearn::PairMask goal = 0;
};

Result<std::unique_ptr<ScenarioSession>> MakeJoinScenario(
    const SessionOptions& options,
    rlearn::JoinStrategy strategy = rlearn::JoinStrategy::kSplitHalf) {
  relational::JoinInstanceOptions instance_options;
  instance_options.seed = 5;
  instance_options.left_rows = 20;
  instance_options.right_rows = 20;
  instance_options.left_arity = 3;
  instance_options.right_arity = 3;
  instance_options.domain_size = 4;
  relational::JoinInstance instance =
      relational::GenerateJoinInstance(instance_options, 2);
  auto universe = rlearn::PairUniverse::AllCompatible(
      instance.left.schema(), instance.right.schema());
  if (!universe.ok()) return universe.status();

  auto context = std::make_shared<JoinContext>(
      JoinContext{std::move(instance), std::move(universe).value(), 0});
  for (size_t i = 0; i < context->universe.size(); ++i) {
    for (const relational::AttributePair& g : context->instance.goal) {
      if (context->universe.pairs()[i] == g) context->goal |= (1ULL << i);
    }
  }

  rlearn::InteractiveJoinOptions engine_options;
  engine_options.strategy = strategy;
  LearningSession<rlearn::JoinEngine> session(
      rlearn::JoinEngine(&context->universe, &context->instance.left,
                         &context->instance.right, engine_options),
      options);
  JoinContext* ctx = context.get();
  return std::unique_ptr<ScenarioSession>(
      new TypedScenarioSession<rlearn::JoinEngine>(
          context, std::move(session),
          [ctx](const rlearn::PairExample& pair) {
            return rlearn::MaskSatisfied(
                ctx->goal,
                ctx->universe.AgreeMask(
                    ctx->instance.left.row(pair.left_row),
                    ctx->instance.right.row(pair.right_row)));
          },
          [ctx](const rlearn::PairExample& pair) {
            return "do these tuples join? left#" +
                   std::to_string(pair.left_row) + " " +
                   TupleText(ctx->instance.left.row(pair.left_row)) +
                   "  right#" + std::to_string(pair.right_row) + " " +
                   TupleText(ctx->instance.right.row(pair.right_row));
          },
          [ctx](const rlearn::PairMask& mask) {
            return ctx->universe.MaskToString(mask,
                                              ctx->instance.left.schema(),
                                              ctx->instance.right.schema());
          }));
}

// ---------------------------------------------------------------------------
// "chain": customers ⋈ orders ⋈ products, hidden foreign-key goal
// customers.cid = orders.cid AND orders.pid = products.pid.

struct ChainContext {
  std::vector<relational::Relation> relations;
  std::optional<rlearn::JoinChain> chain;
  rlearn::ChainMask goal;
};

Result<std::unique_ptr<ScenarioSession>> MakeChainScenario(
    const SessionOptions& options,
    rlearn::ChainStrategy strategy = rlearn::ChainStrategy::kHuntThenSplit) {
  auto context = std::make_shared<ChainContext>();
  context->relations = relational::TinyStoreChainRelations();

  std::vector<const relational::Relation*> pointers;
  for (const relational::Relation& r : context->relations) {
    pointers.push_back(&r);
  }
  auto chain = rlearn::JoinChain::Create(std::move(pointers));
  if (!chain.ok()) return chain.status();
  context->chain = std::move(chain).value();

  // Goal: on each edge the name-equal attribute pair (cid=cid, pid=pid).
  context->goal = rlearn::NaturalChainGoal(*context->chain);
  for (const rlearn::PairMask mask : context->goal) {
    if (mask == 0) {
      return Status::Internal("chain scenario edge has no name-equal pair");
    }
  }

  rlearn::InteractiveChainOptions engine_options;
  engine_options.strategy = strategy;
  LearningSession<rlearn::ChainEngine> session(
      rlearn::ChainEngine(&*context->chain, engine_options), options);
  ChainContext* ctx = context.get();
  return std::unique_ptr<ScenarioSession>(
      new TypedScenarioSession<rlearn::ChainEngine>(
          context, std::move(session),
          [ctx](const rlearn::ChainExample& example) {
            return rlearn::ChainSatisfied(*ctx->chain, ctx->goal, example);
          },
          [ctx](const rlearn::ChainExample& example) {
            std::string text = "is this tuple path in the chain join?";
            for (size_t i = 0; i < ctx->chain->length(); ++i) {
              const relational::Relation& r = ctx->chain->relation(i);
              text += " " + r.schema().name() + "#" +
                      std::to_string(example.rows[i]) + " " +
                      TupleText(r.row(example.rows[i]));
            }
            return text;
          },
          [ctx](const rlearn::ChainMask& hypothesis) {
            std::string text;
            for (size_t e = 0; e < hypothesis.size(); ++e) {
              if (!text.empty()) text += " AND ";
              text += ctx->chain->universe(e).MaskToString(
                  hypothesis[e], ctx->chain->relation(e).schema(),
                  ctx->chain->relation(e + 1).schema());
            }
            return text;
          }));
}

// ---------------------------------------------------------------------------
// "path": generated road network, hidden goal highway+.

struct PathContext {
  common::Interner interner;
  graph::Graph g;
  graph::PathQuery goal;
  std::unique_ptr<glearn::GoalPathOracle> oracle;
};

Result<std::unique_ptr<ScenarioSession>> MakePathScenario(
    const SessionOptions& options,
    glearn::PathStrategy strategy = glearn::PathStrategy::kFrontier) {
  auto context = std::make_shared<PathContext>();
  graph::GeoOptions geo;
  geo.grid_width = 4;
  geo.grid_height = 3;
  context->g = graph::GenerateGeoGraph(geo, &context->interner);
  auto regex = automata::ParseRegex("highway+", &context->interner);
  if (!regex.ok()) return regex.status();
  context->goal = graph::PathQuery{regex.value(), std::nullopt};
  context->oracle =
      std::make_unique<glearn::GoalPathOracle>(context->goal, context->g);

  graph::Path seed;
  for (graph::EdgeId e = 0; e < context->g.NumEdges(); ++e) {
    if (context->interner.Name(context->g.edge(e).label) == "highway") {
      seed.start = context->g.edge(e).src;
      seed.edges = {e};
      break;
    }
  }
  if (seed.edges.empty()) {
    return Status::Internal("path scenario network has no highway edge");
  }

  glearn::InteractivePathOptions path_options;
  path_options.strategy = strategy;
  path_options.max_path_edges = 3;
  path_options.max_candidates = 800;
  if (strategy == glearn::PathStrategy::kWorkload) {
    // Historical workload: previous users wanted highway-only routes.
    auto workload = automata::ParseRegex("highway+", &context->interner);
    if (!workload.ok()) return workload.status();
    path_options.workload.push_back(workload.value());
  }
  LearningSession<glearn::PathEngine> session(
      glearn::PathEngine(&context->g, seed, path_options), options);
  PathContext* ctx = context.get();
  return std::unique_ptr<ScenarioSession>(
      new TypedScenarioSession<glearn::PathEngine>(
          context, std::move(session),
          [ctx](const glearn::PathEngine::Question& question) {
            return ctx->oracle->IsPositive(*question.path);
          },
          [ctx](const glearn::PathEngine::Question& question) {
            std::string labels;
            for (common::SymbolId s : *question.word) {
              if (!labels.empty()) labels += ".";
              labels += ctx->interner.Name(s);
            }
            return "is the route " + labels + " (from city " +
                   std::to_string(question.path->start) +
                   ") a path you want?";
          },
          [ctx](const glearn::ConcatPattern& pattern) {
            return pattern.ToString(ctx->interner);
          }));
}

}  // namespace

void RegisterBuiltinScenarios() {
  static const bool registered = [] {
    ScenarioRegistry* registry = ScenarioRegistry::Global();
    (void)registry->Register(
        {"twig", "XML twig query over a people directory (Section 2)"},
        [](const SessionOptions& options) { return MakeTwigScenario(options); });
    (void)registry->Register(
        {"twig-ambiguity",
         "twig consistency over a repeated-label document (Section 2, E4)"},
        MakeTwigAmbiguityScenario);
    (void)registry->Register(
        {"join", "relational equi-join predicate over tuple pairs "
                 "(Section 3, E6)"},
        [](const SessionOptions& options) { return MakeJoinScenario(options); });
    (void)registry->Register(
        {"chain", "chain of equi-joins along a foreign-key path "
                  "(Section 3, E12)"},
        [](const SessionOptions& options) {
          return MakeChainScenario(options);
        });
    (void)registry->Register(
        {"path", "graph path query on a road network (Section 3, E7)"},
        [](const SessionOptions& options) { return MakePathScenario(options); });
    // Strategy variants of the four datasets, so every selection strategy
    // the shared frontier drives is reachable by name — and pinned by a
    // golden transcript (the plain names above pin the default strategies:
    // twig kGreedyImpact, join kSplitHalf, chain kHuntThenSplit, path
    // kFrontier).
    (void)registry->Register(
        {"twig-random", "the twig scenario under uniform-random selection"},
        [](const SessionOptions& options) {
          return MakeTwigScenario(options, learn::TwigStrategy::kRandom);
        });
    (void)registry->Register(
        {"join-random", "the join scenario under uniform-random selection"},
        [](const SessionOptions& options) {
          return MakeJoinScenario(options, rlearn::JoinStrategy::kRandom);
        });
    (void)registry->Register(
        {"join-lattice",
         "the join scenario probing one candidate pair's necessity per "
         "question"},
        [](const SessionOptions& options) {
          return MakeJoinScenario(options, rlearn::JoinStrategy::kLattice);
        });
    (void)registry->Register(
        {"chain-random", "the chain scenario under uniform-random selection"},
        [](const SessionOptions& options) {
          return MakeChainScenario(options, rlearn::ChainStrategy::kRandom);
        });
    (void)registry->Register(
        {"path-random", "the path scenario under uniform-random selection"},
        [](const SessionOptions& options) {
          return MakePathScenario(options, glearn::PathStrategy::kRandom);
        });
    (void)registry->Register(
        {"path-workload",
         "the path scenario preferring paths that match a historical "
         "workload"},
        [](const SessionOptions& options) {
          return MakePathScenario(options, glearn::PathStrategy::kWorkload);
        });
    return true;
  }();
  (void)registered;
}

}  // namespace session
}  // namespace qlearn
