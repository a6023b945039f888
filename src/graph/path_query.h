// Path queries over labeled graphs: a regular expression over edge labels
// plus an optional total-weight bound — exactly the restrictions of the
// paper's geographical use case (road type, total distance). Evaluation runs
// a BFS/Dijkstra over the product of the graph with the query's Glushkov
// automaton.
#ifndef QLEARN_GRAPH_PATH_QUERY_H_
#define QLEARN_GRAPH_PATH_QUERY_H_

#include <optional>
#include <utility>
#include <vector>

#include "automata/nfa.h"
#include "automata/regex.h"
#include "graph/graph.h"

namespace qlearn {
namespace graph {

/// A regular path query with an optional weight bound.
struct PathQuery {
  automata::RegexPtr regex;
  /// When set, a pair matches only via a path of total weight <= bound.
  std::optional<double> max_weight;
};

/// Evaluates path queries on one graph. Construct once per (query, graph).
class PathQueryEvaluator {
 public:
  PathQueryEvaluator(const PathQuery& query, const Graph& graph);

  /// Vertices reachable from `src` via a matching path.
  std::vector<VertexId> EvalFrom(VertexId src) const;

  /// True iff some matching path connects `src` to `dst`.
  bool Matches(VertexId src, VertexId dst) const;

  /// All matching (src, dst) pairs (sorted).
  std::vector<std::pair<VertexId, VertexId>> EvalAllPairs() const;

  /// A minimum-weight matching path from src to dst, if any.
  std::optional<Path> Witness(VertexId src, VertexId dst) const;

  /// True iff the label word of `path` is in the regex language and the
  /// path respects the weight bound.
  bool MatchesPath(const Path& path) const;

 private:
  struct ProductState {
    VertexId vertex;
    automata::StateId state;
  };
  /// Runs Dijkstra on the product from (src, start); returns per-(vertex,
  /// state) best weights, and predecessor edges when `pred` is non-null.
  std::vector<std::vector<double>> Explore(
      VertexId src, std::vector<std::vector<EdgeId>>* pred_edge,
      std::vector<std::vector<ProductState>>* pred_state) const;

  const Graph& graph_;
  automata::Nfa nfa_;
  std::optional<double> max_weight_;
};

/// Visits candidate paths: from each vertex in id order, every path of 1 to
/// `max_edges` edges without repeated vertices, depth-first with out-edges
/// in adjacency order, each path before its extensions. Stops after
/// `limit` paths. `visit(const Path&)` sees the one path buffer, which
/// changes after it returns. This is the order the interactive path
/// sessions' question pools and their `limit` cap follow.
template <typename Visit>
void ForEachPath(const Graph& graph, size_t max_edges, size_t limit,
                 Visit&& visit) {
  if (max_edges == 0 || limit == 0) return;
  std::vector<char> on_path(graph.NumVertices(), 0);
  // next[d]: the next out-edge to try from the path's vertex at depth d.
  std::vector<size_t> next;
  Path path;
  size_t visited = 0;
  for (VertexId start = 0; start < graph.NumVertices(); ++start) {
    path.start = start;
    on_path[start] = 1;
    next.assign(1, 0);
    while (!next.empty()) {
      const VertexId at =
          path.edges.empty() ? start : graph.edge(path.edges.back()).dst;
      const std::vector<EdgeId>& out = graph.OutEdges(at);
      if (path.edges.size() < max_edges && next.back() < out.size()) {
        const EdgeId e = out[next.back()++];
        const VertexId dst = graph.edge(e).dst;
        if (on_path[dst]) continue;
        on_path[dst] = 1;
        path.edges.push_back(e);
        visit(static_cast<const Path&>(path));
        if (++visited == limit) return;
        next.push_back(0);
      } else {
        next.pop_back();
        on_path[at] = 0;
        if (!path.edges.empty()) path.edges.pop_back();
      }
    }
  }
}

/// Every path ForEachPath visits, in its order. Used to build the
/// interactive sessions' question pools.
std::vector<Path> EnumeratePaths(const Graph& graph, size_t max_edges,
                                 size_t limit);

}  // namespace graph
}  // namespace qlearn

#endif  // QLEARN_GRAPH_PATH_QUERY_H_
