#include "rlearn/interactive_join.h"

namespace qlearn {
namespace rlearn {

using common::Result;
using common::Status;

JoinEngine::JoinEngine(const PairUniverse* universe,
                       const relational::Relation* left,
                       const relational::Relation* right,
                       const InteractiveJoinOptions& options)
    : chain_(std::make_shared<const JoinChain>(
          JoinChain::ForJoin(*universe, left, right))),
      // Every pair is a candidate: the cap is the whole grid.
      engine_(chain_.get(),
              InteractiveChainOptions{
                  .strategy = options.strategy,
                  .max_candidates = left->size() * right->size()}) {}

std::optional<PairExample> JoinEngine::SelectQuestion(common::Rng* rng) {
  const std::optional<size_t> k = engine_.SelectCandidate(rng);
  if (!k.has_value()) return std::nullopt;
  const size_t right = chain_->relation(1).size();
  return PairExample{*k / right, *k % right};
}

Result<InteractiveJoinResult> RunInteractiveJoinSession(
    const PairUniverse& universe, const relational::Relation& left,
    const relational::Relation& right, JoinOracle* oracle,
    const InteractiveJoinOptions& options) {
  if (oracle == nullptr) {
    return Status::InvalidArgument("oracle must not be null");
  }
  if (universe.size() == 0) {
    return Status::InvalidArgument("empty candidate pair universe");
  }
  session::SessionOptions session_options;
  session_options.seed = options.seed;
  session_options.max_questions = options.max_questions;
  session::LearningSession<JoinEngine> session(
      JoinEngine(&universe, &left, &right, options), session_options);

  InteractiveJoinResult result;
  result.learned = session.Run([&](const PairExample& pair) {
    return oracle->IsPositive(left.row(pair.left_row),
                              right.row(pair.right_row));
  });
  result.candidate_pairs = session.engine().candidate_pairs();
  const session::SessionStats& stats = session.stats();
  result.questions = stats.questions;
  result.forced_positive = stats.forced_positive;
  result.forced_negative = stats.forced_negative;
  result.conflicts = stats.conflicts;
  return result;
}

}  // namespace rlearn
}  // namespace qlearn
