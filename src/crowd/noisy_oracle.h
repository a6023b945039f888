// Simulated crowd workers: a ground-truth join oracle wrapped with
// per-answer Bernoulli noise and majority voting over replicated HITs. The
// replication factor trades money for reliability — the knob the crowd-join
// experiment sweeps.
#ifndef QLEARN_CROWD_NOISY_ORACLE_H_
#define QLEARN_CROWD_NOISY_ORACLE_H_

#include <cstdint>

#include "common/rng.h"
#include "crowd/cost_model.h"
#include "rlearn/interactive_join.h"

namespace qlearn {
namespace crowd {

/// Majority vote of `replication` noisy copies of a ground-truth answer.
/// Each copy is flipped independently with probability `error_rate`.
class NoisyMajorityOracle {
 public:
  /// `truth` is not owned and must outlive the oracle.
  NoisyMajorityOracle(rlearn::JoinOracle* truth, double error_rate,
                      int replication, uint64_t seed)
      : truth_(truth),
        error_rate_(error_rate),
        replication_(replication < 1 ? 1 : replication),
        rng_(seed) {}

  /// Asks the crowd once: `replication` paid answers, majority wins (ties
  /// break toward negative, the marketplace default of rejecting a match).
  /// Adds the spend to `ledger`.
  bool Ask(const relational::Tuple& left, const relational::Tuple& right,
           CostLedger* ledger);

  int replication() const { return replication_; }

 private:
  rlearn::JoinOracle* truth_;
  double error_rate_;
  int replication_;
  common::Rng rng_;
};

}  // namespace crowd
}  // namespace qlearn

#endif  // QLEARN_CROWD_NOISY_ORACLE_H_
