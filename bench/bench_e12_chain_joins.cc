// E12 — chains of joins (§3: "extend our approach to other operators and
// also to chains of joins between many relations"). Two measurements:
//  (a) consistency stays PTIME as the chain grows: runtime of the edge-wise
//      most-specific check vs chain length and sample size;
//  (b) the interactive protocol still pays: questions vs candidate paths for
//      chains of length 2..4, random vs split-half strategies.
#include <cstdio>
#include <string>

#include "benchlib/experiment_util.h"
#include "common/table_printer.h"
#include "relational/generator.h"
#include "rlearn/chain_learner.h"
#include "rlearn/interactive_chain.h"

using namespace qlearn;  // NOLINT: experiment driver

namespace {

/// Builds a chain of `k` relations r_i(key, fk, noise) where fk joins the
/// next relation's key; the FK goal is r_i.fk = r_{i+1}.key on every edge.
relational::ChainInstance MakeChain(int k, int rows, uint64_t seed) {
  relational::ChainInstanceOptions options;
  options.seed = seed;
  options.num_relations = k;
  options.rows = rows;
  return relational::GenerateChainInstance(options);
}

rlearn::ChainMask FkGoal(const rlearn::JoinChain& chain) {
  return rlearn::NamePairChainGoal(chain, "fk", "key");
}

}  // namespace

int main() {
  std::printf("E12: chains of joins — PTIME consistency and interactive "
              "learning\n\n");

  std::printf("(a) consistency runtime vs chain length (500 labeled paths)\n");
  common::TablePrinter ta(
      {"chain length", "edges", "examples", "ms", "consistent"});
  for (int k : {2, 3, 4, 5, 6}) {
    relational::ChainInstance ci =
        MakeChain(k, 40, 1200 + static_cast<uint64_t>(k));
    auto chain_or = rlearn::JoinChain::Create(ci.pointers);
    if (!chain_or.ok()) continue;
    const rlearn::JoinChain& chain = chain_or.value();
    const rlearn::ChainMask goal = FkGoal(chain);

    // Positives come from the materialized goal join (random sampling would
    // almost never hit a k-hop FK path); negatives are random paths.
    common::Rng rng(99);
    std::vector<rlearn::ChainExample> pos =
        rlearn::EvaluateChain(chain, goal, 50);
    std::vector<rlearn::ChainExample> neg;
    while (pos.size() + neg.size() < 500) {
      rlearn::ChainExample e;
      for (int i = 0; i < k; ++i) {
        e.rows.push_back(rng.Uniform(chain.relation(static_cast<size_t>(i))
                                         .size()));
      }
      if (!rlearn::ChainSatisfied(chain, goal, e)) neg.push_back(std::move(e));
    }
    benchlib::WallTimer timer;
    const rlearn::ChainConsistency c =
        rlearn::CheckChainConsistency(chain, pos, neg);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", timer.ElapsedMs());
    ta.AddRow({std::to_string(k), std::to_string(chain.num_edges()),
               std::to_string(pos.size()) + "+/" + std::to_string(neg.size()) +
                   "-",
               buf, c.consistent ? "yes" : "no"});
  }
  std::printf("%s\n", ta.ToString().c_str());

  std::printf("(b) interactive chain sessions (8 rows per relation)\n");
  common::TablePrinter tb({"chain length", "candidates", "strategy",
                           "questions", "forced + / -", "verified"});
  for (int k : {2, 3, 4}) {
    relational::ChainInstance ci =
        MakeChain(k, 8, 1300 + static_cast<uint64_t>(k));
    auto chain_or = rlearn::JoinChain::Create(ci.pointers);
    if (!chain_or.ok()) continue;
    const rlearn::JoinChain& chain = chain_or.value();
    const rlearn::ChainMask goal = FkGoal(chain);

    for (rlearn::ChainStrategy strategy :
         {rlearn::ChainStrategy::kRandom,
          rlearn::ChainStrategy::kHuntThenSplit}) {
      // Random is seed-sensitive; average both strategies over 5 seeds.
      const int kSeeds = 5;
      double questions = 0;
      double forced_pos = 0;
      double forced_neg = 0;
      size_t candidates = 0;
      bool verified = true;
      for (int seed = 0; seed < kSeeds; ++seed) {
        rlearn::GoalChainOracle oracle(goal);
        rlearn::InteractiveChainOptions options;
        options.strategy = strategy;
        options.max_candidates = 100000;
        options.seed = 40 + static_cast<uint64_t>(seed);
        auto r = rlearn::RunInteractiveChainSession(chain, &oracle, options);
        if (!r.ok()) continue;
        questions += static_cast<double>(r.value().questions);
        forced_pos += static_cast<double>(r.value().forced_positive);
        forced_neg += static_cast<double>(r.value().forced_negative);
        candidates = r.value().candidate_paths;
        if (r.value().conflicts != 0) verified = false;
        for (const rlearn::ChainExample& e :
             rlearn::EvaluateChain(chain, r.value().learned)) {
          if (!rlearn::ChainSatisfied(chain, goal, e)) verified = false;
        }
        for (const rlearn::ChainExample& e :
             rlearn::EvaluateChain(chain, goal)) {
          if (!rlearn::ChainSatisfied(chain, r.value().learned, e)) {
            verified = false;
          }
        }
      }
      char qb[32], fb[48];
      std::snprintf(qb, sizeof(qb), "%.1f", questions / kSeeds);
      std::snprintf(fb, sizeof(fb), "%.0f / %.0f", forced_pos / kSeeds,
                    forced_neg / kSeeds);
      tb.AddRow({std::to_string(k), std::to_string(candidates),
                 strategy == rlearn::ChainStrategy::kRandom ? "random"
                                                            : "split-half",
                 qb, fb, verified ? "yes" : "NO"});
    }
  }
  std::printf("%s\n", tb.ToString().c_str());

  std::printf(
      "shape check: (a) consistency scales linearly in chain length and "
      "examples; (b) questions stay far below the candidate-path count and "
      "split-half beats random.\n");
  return 0;
}
