// The traced run of serve-direct: single-threaded, it replays the first
// kTracedGoldenSessions sessions of the seeded golden stream once at each
// layer's public entry point, with one span per call:
//
//   session        ScenarioRegistry::Create, ScenarioSession::NextQuestions
//                  + PendingIds, AnswerAll, Finish + Hypothesis
//   service        SessionService::Open / Ask / Tell / Close
//   net.protocol   net::HandleFrameInto on net::Serialize(Request) frames,
//                  with a recycled arena
//   net.transport  a net::Client call against a 1-reactor net::Server
//   net.router     a net::Client call through net::Router to 2 backends
//   park path      SessionService with the session parked at every
//                  question boundary, images in a timed store
//
// A layer's self time is the median over requests of its span minus the
// next-inner layer's span for the same request. The loaded run goes
// through neither the router nor the park path; their rows measure those
// layers on the same stream, and no end-to-end metric follows them.
#ifndef QBENCH_TRACE_H_
#define QBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "golden.h"
#include "service/session_service.h"

namespace qbench {

constexpr uint64_t kTracedGoldenSessions = 110;  // 10 decks

/// Layer self times and counts; index 0/1/2/3 = open/ask/tell/close where
/// four ops are kept, 0/1 = ask/tell where two are.
struct GoldenTrace {
  double session_self_us[4] = {};
  double service_self_us[4] = {};
  double protocol_self_us[2] = {};
  double transport_self_us[2] = {};
  double router_self_us[2] = {};
  /// Whole-call medians (ask, tell) at the loaded run's outer entry point,
  /// net.transport.
  double outer_span_us[2] = {};
  /// Whole SessionService::Ask median, for the histogram check.
  double service_ask_span_us = 0;
  size_t ask_samples = 0;
  size_t tell_samples = 0;

  /// Allocations per call that the layer itself adds (mean).
  double session_allocs[2] = {};
  double service_allocs[2] = {};
  double protocol_allocs[2] = {};
  double response_bytes[2] = {};  ///< protocol response frame size (mean)

  uint64_t frames_forwarded = 0;  ///< per pass
  uint64_t local_answers = 0;
  double backend_conn_reuse = 0;  ///< (forwarded - connects) / forwarded

  std::vector<double> park_us;
  double rehydrate_ask_us = 0;  ///< park-path ask minus resident ask
  double put_us = 0, get_us = 0, bytes_per_put = 0;
  uint64_t parks = 0, rehydrates = 0, hibernate_errors = 0;  ///< per pass

  uint64_t questions_served = 0, labels_accepted = 0;  ///< per pass
  /// The service replay's own histograms (same stream as the spans).
  qlearn::service::LatencySnapshot hist_open, hist_ask;

  /// Whole-replay wall time at net.transport, with and without spans.
  double traced_wall_s = 0;
  double untraced_wall_s = 0;

  uint64_t failures = 0;
  std::vector<std::string> notes;
};

GoldenTrace TraceGolden(const std::vector<Golden>& goldens, uint64_t seed);

}  // namespace qbench

#endif  // QBENCH_TRACE_H_
