// E5 — paper claims (§3): consistency of labeled examples is tractable for
// natural/equi-joins (most-specific-hypothesis argument) but intractable
// for semijoins. We time the PTIME equi-join checker and the exponential
// exact semijoin solver (plus its greedy polynomial approximation) while
// scaling the number of examples and the attribute-pair universe.
#include <cstdio>

#include "benchlib/experiment_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "relational/generator.h"
#include "rlearn/chain_learner.h"
#include "rlearn/semijoin_learner.h"

using namespace qlearn;  // NOLINT: experiment driver

int main() {
  std::printf("E5: join-consistency checking — PTIME equi-join vs "
              "NP-complete semijoin\n\n");

  // (a) Equi-join: time vs #examples (expected: flat/linear, microseconds).
  common::TablePrinter equi({"#examples", "universe pairs", "time ms",
                             "consistent"});
  for (int k : {10, 100, 1000, 10000}) {
    relational::JoinInstanceOptions options;
    options.seed = 21;
    options.left_rows = 200;
    options.right_rows = 200;
    options.left_arity = 6;
    options.right_arity = 6;
    options.domain_size = 6;
    const relational::JoinInstance inst =
        relational::GenerateJoinInstance(options, 2);
    auto universe = rlearn::PairUniverse::AllCompatible(inst.left.schema(),
                                                        inst.right.schema());
    if (!universe.ok()) continue;
    rlearn::PairMask goal = 0;
    for (size_t i = 0; i < universe.value().size(); ++i) {
      for (const auto& g : inst.goal) {
        if (universe.value().pairs()[i] == g) goal |= (1ULL << i);
      }
    }
    // Label k random pairs with the hidden goal.
    common::Rng rng(5);
    std::vector<rlearn::PairExample> positives;
    std::vector<rlearn::PairExample> negatives;
    for (int i = 0; i < k; ++i) {
      const rlearn::PairExample e{rng.Index(inst.left.size()),
                                  rng.Index(inst.right.size())};
      const rlearn::PairMask agree = universe.value().AgreeMask(
          inst.left.row(e.left_row), inst.right.row(e.right_row));
      if (rlearn::MaskSatisfied(goal, agree)) {
        positives.push_back(e);
      } else {
        negatives.push_back(e);
      }
    }
    benchlib::WallTimer timer;
    const auto result = rlearn::CheckEquiJoinConsistency(
        universe.value(), inst.left, inst.right, positives, negatives);
    equi.AddRow({std::to_string(k), std::to_string(universe.value().size()),
                 common::FormatDouble(timer.ElapsedMs(), 3),
                 result.consistent ? "yes" : "no"});
  }
  std::printf("(a) equi-join consistency (PTIME)\n%s\n",
              equi.ToString().c_str());

  // (b) Semijoin: exact search nodes vs #positives on adversarial labels.
  common::TablePrinter semi({"#positives", "#negatives", "exact nodes",
                             "exact ms", "exact verdict", "greedy verdict",
                             "greedy ms"});
  for (int k : {2, 4, 6, 8, 10, 12}) {
    relational::JoinInstanceOptions options;
    options.seed = 31;
    options.left_rows = 40;
    options.right_rows = 24;
    options.left_arity = 6;
    options.right_arity = 6;
    options.domain_size = 2;  // tiny domain: many ambiguous witnesses
    options.planted_match_fraction = 0;
    const relational::JoinInstance inst =
        relational::GenerateJoinInstance(options, 2);
    auto universe = rlearn::PairUniverse::AllCompatible(inst.left.schema(),
                                                        inst.right.schema());
    if (!universe.ok()) continue;

    std::vector<rlearn::RowExample> positives;
    std::vector<rlearn::RowExample> negatives;
    for (int i = 0; i < k; ++i) positives.push_back(rlearn::RowExample{
        static_cast<size_t>(i)});
    for (int i = 0; i < k / 2; ++i) {
      negatives.push_back(
          rlearn::RowExample{static_cast<size_t>(39 - i)});
    }

    benchlib::WallTimer exact_timer;
    const auto exact = rlearn::CheckSemijoinConsistency(
        universe.value(), inst.left, inst.right, positives, negatives);
    const double exact_ms = exact_timer.ElapsedMs();

    benchlib::WallTimer greedy_timer;
    const auto greedy = rlearn::GreedySemijoinConsistency(
        universe.value(), inst.left, inst.right, positives, negatives);
    const double greedy_ms = greedy_timer.ElapsedMs();

    semi.AddRow({std::to_string(k), std::to_string(k / 2),
                 std::to_string(exact.nodes_explored),
                 common::FormatDouble(exact_ms, 3),
                 exact.consistent ? "consistent" : "inconsistent",
                 greedy.consistent ? "consistent" : "gave up",
                 common::FormatDouble(greedy_ms, 3)});
  }
  std::printf("(b) semijoin consistency (exact branch-and-bound vs greedy)\n"
              "%s\n",
              semi.ToString().c_str());
  std::printf("shape check: equi-join time stays flat as examples grow; the "
              "exact semijoin search tree grows with #positives while greedy "
              "stays polynomial (and may miss consistent hypotheses).\n");
  return 0;
}
