// Golden-transcript conformance harness.
//
// A transcript is the full wire record of one service-driven session:
// open, every ask/tell exchange, close (see service/wire.h). The harness
//
//   * records a transcript by driving a scenario through SessionService
//     with its built-in oracle, and
//   * replays a transcript against any endpoint with the session surface
//     (SessionService in process, net::Client over a socket), asserting
//     bit-identical question sequences and final hypotheses/stats, either
//     one session at a time or as a multiplexed load over N connections.
//
// Golden transcripts for the paper experiments' scenarios (E1 twig, E4
// twig-ambiguity, E6 join, E7 path, E12 chain) and for every non-default
// selection strategy (the "s_*" cases: twig/join/chain/path kRandom, join
// kLattice, path kWorkload) are checked in under tests/golden/. Any
// refactor of the learners, the session layer, or the wire format diffs
// against the paper-faithful behavior instead of re-deriving it: a diff in
// a golden file is a behavior change that must be either fixed or
// consciously re-golden-ed.
//
// Environment knobs (read by transcript_harness_test):
//   QLEARN_TRANSCRIPT_REGEN=1   rewrite the goldens from the current build
//   QLEARN_TRANSCRIPT_OUT=DIR   on mismatch, write the regenerated
//                               transcript to DIR (CI uploads it as an
//                               artifact so diffs are inspectable)
#ifndef QLEARN_TESTS_TRANSCRIPT_HARNESS_H_
#define QLEARN_TESTS_TRANSCRIPT_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/session_service.h"
#include "service/wire.h"

namespace qlearn {
namespace testing {

/// One conformance case: a scenario driven to completion under fixed knobs.
struct TranscriptCase {
  std::string name;      ///< golden file stem, e.g. "e6_join"
  std::string scenario;  ///< ScenarioRegistry key
  uint64_t seed;         ///< session seed (fixed for reproducibility)
  size_t batch;          ///< k passed to every Ask
};

/// The checked-in conformance cases, mirroring experiments E1/E4/E6/E7/E12.
const std::vector<TranscriptCase>& ConformanceCases();

/// Drives `c.scenario` to completion through `service`, answering with the
/// built-in oracle, and returns the recorded transcript.
common::Result<std::vector<service::wire::TranscriptEvent>> RecordTranscript(
    service::SessionService* service, const TranscriptCase& c);

/// Called with the session id at every question boundary of a replay:
/// right after the open and after every answered batch. A non-OK status is
/// reported as a mismatch.
using BoundaryHook = std::function<common::Status(const std::string& id)>;

/// Requests a replay has issued, by op.
struct RequestCounts {
  uint64_t opens = 0;
  uint64_t asks = 0;
  uint64_t tells = 0;
  uint64_t closes = 0;
};

/// Replays `events` against `endpoint` (SessionService or net::Client) one
/// request at a time: re-opens the session with the
/// recorded knobs, re-asks with the recorded batch sizes, feeds the
/// recorded labels, and compares every served question and the final
/// hypothesis/stats byte-for-byte. The first failed or mismatched event
/// ends the replay, closing the session so no handle leaks. Returns
/// human-readable mismatch descriptions; empty means conformant.
/// InvalidArgument if the transcript is not exactly one open followed by
/// its session's events.
template <typename Endpoint>
common::Result<std::vector<std::string>> ReplayTranscript(
    Endpoint* endpoint,
    const std::vector<service::wire::TranscriptEvent>& events,
    BoundaryHook on_boundary = {});

/// Shape of the multiplexed golden load: every connection thread owns one
/// client and round-robins its sessions over it, one request in flight.
inline constexpr size_t kLoadConnections = 4;
inline constexpr size_t kLoadSessionsPerConnection = 32;
inline constexpr size_t kLoadSessions =
    kLoadConnections * kLoadSessionsPerConnection;

/// Handle of load session `session` on connection `connection`; the load
/// opens its sessions under these ids so their placement is known upfront.
std::string LoadSessionId(size_t connection, size_t session);

struct LoadReport {
  uint64_t sessions_closed = 0;  ///< sessions replayed through their close
  RequestCounts sent;
  std::vector<std::string> mismatches;  ///< errors and byte mismatches
};

/// Replays the goldens as a multiplexed load against the framed-TCP
/// endpoint on 127.0.0.1:`port`: kLoadConnections threads each replay
/// kLoadSessionsPerConnection sessions, session k of connection c
/// replaying golden (c * kLoadSessionsPerConnection + k) mod 11, and every
/// response is byte-compared with the golden. Each thread first opens all
/// its sessions; the thread whose opens complete the set runs
/// `on_all_opened` before it continues, so at that moment every session
/// is open and that thread's own sessions are all quiescent.
LoadReport ReplayGoldenLoad(uint16_t port,
                            const std::function<void()>& on_all_opened = {});

/// Absolute path of a golden transcript file ("<name>.jsonl" under the
/// checked-in golden directory).
std::string GoldenPath(const std::string& name);

/// The parsed golden transcripts of ConformanceCases(), in case order.
common::Result<std::vector<std::vector<service::wire::TranscriptEvent>>>
LoadGoldens();

common::Result<std::string> ReadFileToString(const std::string& path);
common::Status WriteStringToFile(const std::string& path,
                                 const std::string& content);

}  // namespace testing
}  // namespace qlearn

#endif  // QLEARN_TESTS_TRANSCRIPT_HARNESS_H_
