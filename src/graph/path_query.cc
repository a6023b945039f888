#include "graph/path_query.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace qlearn {
namespace graph {

using automata::StateId;

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

PathQueryEvaluator::PathQueryEvaluator(const PathQuery& query,
                                       const Graph& graph)
    : graph_(graph),
      nfa_(automata::Nfa::FromRegex(*query.regex)),
      max_weight_(query.max_weight) {}

std::vector<std::vector<double>> PathQueryEvaluator::Explore(
    VertexId src, std::vector<std::vector<EdgeId>>* pred_edge,
    std::vector<std::vector<ProductState>>* pred_state) const {
  const size_t nv = graph_.NumVertices();
  const size_t ns = nfa_.NumStates();
  std::vector<std::vector<double>> best(nv, std::vector<double>(ns, kInf));
  if (pred_edge != nullptr) {
    pred_edge->assign(nv, std::vector<EdgeId>(ns, static_cast<EdgeId>(-1)));
    pred_state->assign(
        nv, std::vector<ProductState>(ns, ProductState{kInvalidVertex, 0}));
  }

  using QueueEntry = std::pair<double, std::pair<VertexId, StateId>>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  best[src][nfa_.start()] = 0;
  queue.push({0, {src, nfa_.start()}});
  while (!queue.empty()) {
    const auto [dist, vs] = queue.top();
    queue.pop();
    const auto [v, s] = vs;
    if (dist > best[v][s]) continue;
    if (max_weight_.has_value() && dist > *max_weight_) continue;
    for (EdgeId eid : graph_.OutEdges(v)) {
      const Edge& e = graph_.edge(eid);
      for (const auto& [label, target] : nfa_.Transitions(s)) {
        if (label != e.label) continue;
        const double next = dist + e.weight;
        if (next < best[e.dst][target]) {
          best[e.dst][target] = next;
          if (pred_edge != nullptr) {
            (*pred_edge)[e.dst][target] = eid;
            (*pred_state)[e.dst][target] = ProductState{v, s};
          }
          queue.push({next, {e.dst, target}});
        }
      }
    }
  }
  return best;
}

std::vector<VertexId> PathQueryEvaluator::EvalFrom(VertexId src) const {
  const auto best = Explore(src, nullptr, nullptr);
  std::vector<VertexId> out;
  for (VertexId v = 0; v < graph_.NumVertices(); ++v) {
    for (StateId s = 0; s < nfa_.NumStates(); ++s) {
      if (!nfa_.IsAccepting(s) || best[v][s] == kInf) continue;
      if (max_weight_.has_value() && best[v][s] > *max_weight_) continue;
      out.push_back(v);
      break;
    }
  }
  return out;
}

bool PathQueryEvaluator::Matches(VertexId src, VertexId dst) const {
  const auto best = Explore(src, nullptr, nullptr);
  for (StateId s = 0; s < nfa_.NumStates(); ++s) {
    if (!nfa_.IsAccepting(s) || best[dst][s] == kInf) continue;
    if (max_weight_.has_value() && best[dst][s] > *max_weight_) continue;
    return true;
  }
  return false;
}

std::vector<std::pair<VertexId, VertexId>> PathQueryEvaluator::EvalAllPairs()
    const {
  std::vector<std::pair<VertexId, VertexId>> out;
  for (VertexId src = 0; src < graph_.NumVertices(); ++src) {
    for (VertexId dst : EvalFrom(src)) out.emplace_back(src, dst);
  }
  return out;
}

std::optional<Path> PathQueryEvaluator::Witness(VertexId src,
                                                VertexId dst) const {
  std::vector<std::vector<EdgeId>> pred_edge;
  std::vector<std::vector<ProductState>> pred_state;
  const auto best = Explore(src, &pred_edge, &pred_state);
  StateId accept = nfa_.NumStates();
  double best_weight = kInf;
  for (StateId s = 0; s < nfa_.NumStates(); ++s) {
    if (!nfa_.IsAccepting(s) || best[dst][s] == kInf) continue;
    if (max_weight_.has_value() && best[dst][s] > *max_weight_) continue;
    if (best[dst][s] < best_weight) {
      best_weight = best[dst][s];
      accept = s;
    }
  }
  if (accept == nfa_.NumStates()) return std::nullopt;

  Path path;
  path.start = src;
  VertexId v = dst;
  StateId s = accept;
  while (!(v == src && s == nfa_.start())) {
    const EdgeId e = pred_edge[v][s];
    if (e == static_cast<EdgeId>(-1)) break;  // src==dst accepting epsilon
    path.edges.push_back(e);
    const ProductState ps = pred_state[v][s];
    v = ps.vertex;
    s = ps.state;
  }
  std::reverse(path.edges.begin(), path.edges.end());
  return path;
}

bool PathQueryEvaluator::MatchesPath(const Path& path) const {
  if (max_weight_.has_value() && PathWeight(graph_, path) > *max_weight_) {
    return false;
  }
  return nfa_.Accepts(PathWord(graph_, path));
}

std::vector<Path> EnumeratePaths(const Graph& graph, size_t max_edges,
                                 size_t limit) {
  std::vector<Path> out;
  ForEachPath(graph, max_edges, limit,
              [&out](const Path& path) { out.push_back(path); });
  return out;
}

}  // namespace graph
}  // namespace qlearn
