#include "crowd/noisy_oracle.h"

namespace qlearn {
namespace crowd {

bool NoisyMajorityOracle::Ask(const relational::Tuple& left,
                              const relational::Tuple& right,
                              CostLedger* ledger) {
  const bool truth = truth_->IsPositive(left, right);
  int yes = 0;
  for (int i = 0; i < replication_; ++i) {
    const bool answer = rng_.Bernoulli(error_rate_) ? !truth : truth;
    if (answer) ++yes;
  }
  ledger->pair_hits += static_cast<size_t>(replication_);
  return yes * 2 > replication_;  // ties resolve to "no match"
}

}  // namespace crowd
}  // namespace qlearn
