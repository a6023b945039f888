// E6 — paper claims (§3): the interactive framework minimizes the number of
// user interactions; tuples whose label is implied by previous answers are
// *uninformative* and never asked. We scale the instance (candidate tuple
// pairs) and compare question counts across strategies against the "label
// everything" baseline.
#include <cstdio>

#include "benchlib/experiment_util.h"
#include "common/strings.h"
#include "common/table_printer.h"
#include "relational/generator.h"
#include "rlearn/interactive_join.h"

using namespace qlearn;  // NOLINT: experiment driver

namespace {

const char* StrategyName(rlearn::JoinStrategy s) {
  switch (s) {
    case rlearn::JoinStrategy::kRandom:
      return "random";
    case rlearn::JoinStrategy::kSplitHalf:
      return "split-half";
    case rlearn::JoinStrategy::kLattice:
      return "lattice";
    case rlearn::JoinStrategy::kHuntThenSplit:
      return "hunt-then-split";
  }
  return "?";
}

}  // namespace

int main() {
  std::printf("E6: interactive join learning — questions vs instance size\n"
              "(goal: 2 hidden attribute pairs; universe 16 pairs)\n\n");
  common::TablePrinter table({"rows/side", "candidate pairs", "strategy",
                              "questions", "forced + / -", "verified"});
  for (int rows : {20, 50, 100, 200, 320}) {
    relational::JoinInstanceOptions options;
    options.seed = 70 + rows;
    options.left_rows = rows;
    options.right_rows = rows;
    options.left_arity = 4;
    options.right_arity = 4;
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

    for (rlearn::JoinStrategy strategy :
         {rlearn::JoinStrategy::kRandom, rlearn::JoinStrategy::kSplitHalf,
          rlearn::JoinStrategy::kLattice}) {
      rlearn::GoalJoinOracle oracle(&universe.value(), goal);
      rlearn::InteractiveJoinOptions session;
      session.strategy = strategy;
      session.seed = 123;
      auto result = rlearn::RunInteractiveJoinSession(
          universe.value(), inst.left, inst.right, &oracle, session);
      if (!result.ok()) continue;
      // Verify instance-equivalence of the learned predicate.
      bool verified = result.value().conflicts == 0;
      for (size_t i = 0; i < inst.left.size() && verified; ++i) {
        for (size_t j = 0; j < inst.right.size() && verified; ++j) {
          const rlearn::PairMask agree = universe.value().AgreeMask(
              inst.left.row(i), inst.right.row(j));
          verified = rlearn::MaskSatisfied(result.value().learned, agree) ==
                     rlearn::MaskSatisfied(goal, agree);
        }
      }
      table.AddRow(
          {std::to_string(rows), std::to_string(result.value().candidate_pairs),
           StrategyName(strategy), std::to_string(result.value().questions),
           std::to_string(result.value().forced_positive) + " / " +
               std::to_string(result.value().forced_negative),
           verified ? "yes" : "NO"});
    }
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\nshape check: questions stay orders of magnitude below the "
              "candidate-pair count (the 'label everything' baseline), and "
              "informed strategies beat random.\n");
  return 0;
}
