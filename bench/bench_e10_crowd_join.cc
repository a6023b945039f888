// E10 — the paper's crowdsourcing application (§3, after Marcus et al.):
// interactions are paid HITs, so minimizing questions minimizes dollars.
// Three sweeps:
//  (a) total spend vs instance size for three modes: the label-everything
//      brute baseline (Marcus et al.'s join task), the pilot-calibrated
//      feature filter on top of it, and the paper's version-space learning
//      session — which infers almost all labels for free;
//  (b) worker error rate vs replication: money buys accuracy (averaged over
//      seeds);
//  (c) the price ratio at which feature filtering pays off over brute.
#include <cstdio>
#include <string>

#include "common/table_printer.h"
#include "crowd/crowd_join.h"
#include "relational/generator.h"

using namespace qlearn;  // NOLINT: experiment driver

namespace {

struct Instance {
  relational::JoinInstance inst;
  rlearn::PairUniverse universe;
  rlearn::PairMask goal = 0;
};

Instance MakeInstance(int rows, uint64_t seed) {
  relational::JoinInstanceOptions options;
  options.seed = seed;
  options.left_rows = rows;
  options.right_rows = rows;
  options.left_arity = 3;
  options.right_arity = 3;
  options.domain_size = 5;
  Instance out{relational::GenerateJoinInstance(options, 1), {}, 0};
  auto universe = rlearn::PairUniverse::AllCompatible(
      out.inst.left.schema(), out.inst.right.schema());
  out.universe = std::move(universe).value();
  for (size_t i = 0; i < out.universe.size(); ++i) {
    for (const auto& g : out.inst.goal) {
      if (out.universe.pairs()[i] == g) out.goal |= (1ULL << i);
    }
  }
  return out;
}

std::string Money(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "$%.3f", value);
  return buf;
}

}  // namespace

int main() {
  std::printf(
      "E10: crowdsourced join — HIT spend and accuracy\n"
      "(prices: pair comparison $0.010, feature read $0.001; noiseless "
      "except sweep (b))\n\n");

  crowd::HitCost prices;
  prices.pair_comparison = 0.01;
  prices.feature_extraction = 0.001;

  std::printf("(a) spend by mode and instance size\n");
  common::TablePrinter ta({"rows/side", "mode", "pair HITs", "feature HITs",
                           "total cost", "errors"});
  for (int rows : {10, 20, 40, 80}) {
    Instance ins = MakeInstance(rows, 900 + static_cast<uint64_t>(rows));
    rlearn::GoalJoinOracle truth(&ins.universe, ins.goal);
    crowd::CrowdJoinOptions base;
    base.worker_error_rate = 0;
    base.replication = 1;
    base.cost = prices;

    auto brute = crowd::RunCrowdBruteJoinSession(ins.universe, ins.inst.left,
                                                 ins.inst.right, &truth, base);
    crowd::CrowdJoinOptions filtered = base;
    filtered.feature_filtering = true;
    auto fbrute = crowd::RunCrowdBruteJoinSession(
        ins.universe, ins.inst.left, ins.inst.right, &truth, filtered);
    auto learn = crowd::RunCrowdJoinSession(ins.universe, ins.inst.left,
                                            ins.inst.right, &truth, base);
    if (!brute.ok() || !fbrute.ok() || !learn.ok()) continue;
    ta.AddRow({std::to_string(rows), "brute (ask all)",
               std::to_string(brute.value().ledger.pair_hits), "0",
               Money(brute.value().total_cost),
               std::to_string(brute.value().accuracy_errors)});
    ta.AddRow({std::to_string(rows), "feature+brute",
               std::to_string(fbrute.value().ledger.pair_hits),
               std::to_string(fbrute.value().ledger.feature_hits),
               Money(fbrute.value().total_cost),
               std::to_string(fbrute.value().accuracy_errors)});
    ta.AddRow({std::to_string(rows), "learning (ours)",
               std::to_string(learn.value().ledger.pair_hits), "0",
               Money(learn.value().total_cost),
               std::to_string(learn.value().accuracy_errors)});
  }
  std::printf("%s\n", ta.ToString().c_str());

  std::printf("(b) replication vs accuracy at 15%% worker error "
              "(40x40 learning sessions, mean of 10 seeds)\n");
  common::TablePrinter tb({"replication", "mean questions", "mean cost",
                           "mean errors"});
  for (int replication : {1, 3, 5, 9}) {
    double questions = 0;
    double cost = 0;
    double errors = 0;
    const int kSeeds = 10;
    for (int seed = 0; seed < kSeeds; ++seed) {
      Instance ins = MakeInstance(40, 901);
      rlearn::GoalJoinOracle truth(&ins.universe, ins.goal);
      crowd::CrowdJoinOptions options;
      options.worker_error_rate = 0.15;
      options.replication = replication;
      options.cost = prices;
      options.seed = 7000 + static_cast<uint64_t>(seed);
      auto r = crowd::RunCrowdJoinSession(ins.universe, ins.inst.left,
                                          ins.inst.right, &truth, options);
      if (!r.ok()) continue;
      questions += static_cast<double>(r.value().questions);
      cost += r.value().total_cost;
      errors += static_cast<double>(r.value().accuracy_errors);
    }
    char qb[32], cb[32], eb[32];
    std::snprintf(qb, sizeof(qb), "%.1f", questions / kSeeds);
    std::snprintf(cb, sizeof(cb), "$%.3f", cost / kSeeds);
    std::snprintf(eb, sizeof(eb), "%.1f", errors / kSeeds);
    tb.AddRow({std::to_string(replication), qb, cb, eb});
  }
  std::printf("%s\n", tb.ToString().c_str());

  std::printf("(c) price-ratio sweep (40x40): when does the feature filter "
              "beat brute?\n");
  common::TablePrinter tc({"comparison : feature", "brute cost",
                           "feature+brute cost", "winner"});
  for (double ratio : {1.0, 2.0, 5.0, 10.0, 20.0}) {
    Instance ins = MakeInstance(40, 902);
    rlearn::GoalJoinOracle truth(&ins.universe, ins.goal);
    crowd::CrowdJoinOptions options;
    options.worker_error_rate = 0;
    options.replication = 1;
    options.cost.pair_comparison = 0.01;
    options.cost.feature_extraction = 0.01 / ratio;
    auto brute = crowd::RunCrowdBruteJoinSession(
        ins.universe, ins.inst.left, ins.inst.right, &truth, options);
    options.feature_filtering = true;
    auto fbrute = crowd::RunCrowdBruteJoinSession(
        ins.universe, ins.inst.left, ins.inst.right, &truth, options);
    if (!brute.ok() || !fbrute.ok()) continue;
    char label[32];
    std::snprintf(label, sizeof(label), "%.0f : 1", ratio);
    tc.AddRow({label, Money(brute.value().total_cost),
               Money(fbrute.value().total_cost),
               fbrute.value().total_cost < brute.value().total_cost
                   ? "feature"
                   : "brute"});
  }
  std::printf("%s\n", tc.ToString().c_str());

  std::printf(
      "shape check: (a) learning ≪ feature+brute < brute, errors ~0 "
      "throughout; (b) errors fall as replication rises, cost grows "
      "linearly; (c) the filter wins at realistic price ratios on n² "
      "workloads.\n");
  return 0;
}
