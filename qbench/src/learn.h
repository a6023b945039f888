// The learn-large workload: the four interactive engines at micro-benchmark
// scale, driven in process through session::LearningSession, one question
// per ask, answered by each instance's hidden goal. Session i runs engine
// i % 4 on an instance generated from (seed, i), so no two sessions share an
// instance. A session succeeds only with zero conflicts and a learned query
// that selects exactly the goal's answers on its instance.
#ifndef QBENCH_LEARN_H_
#define QBENCH_LEARN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace qbench {

/// Engine layer names; session i runs kEngines[i % 4].
extern const char* const kEngines[4];

/// Sessions the traced run steps (and whose question sequences the loaded
/// run records for comparison): the first kTracedLearnSessions of the stream.
constexpr uint64_t kTracedLearnSessions = 32;

struct LearnRun {
  LoadResult result;
  /// Hash of the question sequence of sessions 0..kTracedLearnSessions-1
  /// (0 where the run did not reach a session).
  std::vector<uint64_t> sequence_hash;
};

/// Warms up (two sessions per engine per worker thread, outside the
/// measured stream) and returns its tallies.
LoadResult SetupLearn(uint64_t seed);

/// The measured closed loop: 2 worker threads, each running one session at
/// a time, for `seconds`. `flip_first_label` answers the first question of
/// session 0 wrongly (the benchmark's self-test).
LearnRun RunLearn(uint64_t seed, double seconds, bool flip_first_label);

/// Per-engine layer numbers of the traced run. An ask is SelectQuestion
/// then MarkAsked: select_us spans both, pick_us SelectQuestion alone.
struct EngineTrace {
  std::vector<double> construct_us, select_us, pick_us, observe_us,
      propagate_us, finish_us;
  uint64_t sessions = 0;
  uint64_t questions = 0;
  uint64_t forced = 0;  ///< forced_positive + forced_negative
  uint64_t candidates = 0;
  uint64_t loop_allocs = 0;  ///< allocations in select/observe/propagate
};

struct LearnTrace {
  EngineTrace engines[4];
  std::vector<uint64_t> sequence_hash;
  uint64_t failures = 0;
  std::vector<std::string> notes;
  /// Wall time of the stepped sessions with spans (mean of the two
  /// measured passes) and of the same stepped loop without spans.
  double traced_loop_s = 0;
  double untraced_loop_s = 0;
};

/// Steps the engine-concept calls of sessions 0..kTracedLearnSessions-1
/// in a warm pass, two measured passes and one pass without spans,
/// checking that exact counts repeat and that every pass asks the same
/// questions as the untraced loaded run (`expected_hash`; 0 entries, for
/// sessions the run did not reach, are compared across passes only).
LearnTrace TraceLearn(uint64_t seed,
                      const std::vector<uint64_t>& expected_hash);

}  // namespace qbench

#endif  // QBENCH_LEARN_H_
