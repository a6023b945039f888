// Request/response protocol of the framed-TCP front end.
//
// Every frame payload is one canonical-JSON object (service/json.h subset).
// A request names one SessionService operation:
//
//   {"op":"open","scenario":"join","seed":7,"max_questions":1000000,
//    "max_pending":64,"max_wall_micros":0}
//   {"op":"ask","id":"s-...","k":4}
//   {"op":"tell","id":"s-...","labels":[true,false]}
//   {"op":"oracle","id":"s-..."}
//   {"op":"status","id":"s-..."}
//   {"op":"close","id":"s-..."}
//   {"op":"counters"}
//   {"op":"sessions"}
//   {"op":"export","id":"s-..."}
//   {"op":"import","id":"s-...","scenario":"join","image":"<hex>"}
//
// `open` also accepts an optional `id` so a routing front tier can mint
// handles itself (consistent-hash placement is then decided before the
// backend is picked). `sessions`/`export`/`import` are the administrative
// surface horizontal sharding is built on: export parks a quiescent
// session and ships its checksummed QLSV hibernation image (hex-encoded —
// the canonical JSON subset has no binary strings); import adopts it on
// the new owner. The shared frame cap (net/frame.h) bounds the image at
// every hop, so an oversized handoff is rejected consistently.
//
// A response is either an ok frame or an error frame — the connection is
// never dropped on a bad request:
//
//   {"ok":{...op-specific body...}}
//   {"error":{"code":"NotFound","message":"unknown session: s-42"}}
//
// Error codes are common::StatusCodeName strings, so a client round-trips
// the server-side common::Status losslessly. Embedded questions,
// hypotheses, and stats reuse the wire-format serializations byte-for-byte
// (service/wire.h), which is what lets a load generator compare served
// responses against golden transcripts by byte equality.
//
// Every frame — request, response, peek — is decoded by the one arena
// parser (service/json.h ParseInto); the server's dispatch is
// HandleFrameInto, writing each response into a caller-owned buffer.
#ifndef QLEARN_NET_PROTOCOL_H_
#define QLEARN_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "service/json.h"
#include "service/session_service.h"
#include "service/wire.h"

namespace qlearn {
namespace net {

/// One decoded request frame. Open's knob fields default like
/// service::OpenOptions, so a request may omit them.
struct Request {
  enum class Op {
    kOpen,
    kAsk,
    kTell,
    kOracle,
    kStatus,
    kClose,
    kCounters,
    kSessions,
    kExport,
    kImport,
  };

  Op op = Op::kCounters;

  // kOpen/kImport
  std::string scenario;

  // kOpen
  uint64_t seed = session::SessionDefaults::kSeed;
  uint64_t max_questions = service::SessionBudget{}.max_questions;
  uint64_t max_pending = service::SessionBudget{}.max_pending;
  uint64_t max_wall_micros = 0;  ///< 0 = unlimited (wire carries micros;
                                 ///< the JSON subset has no floats)

  // kAsk/kTell/kOracle/kStatus/kClose/kExport/kImport; optional for kOpen
  // (empty = the service mints a handle).
  std::string id;

  // kAsk
  uint64_t k = 1;

  // kTell
  std::vector<bool> labels;

  // kImport: raw image bytes (hex on the wire).
  std::string image;
};

/// The session gauges a `counters` frame carries after the op counters, in
/// wire order: open sessions, those resident in memory, those hibernated.
#define QLEARN_SESSION_GAUGES(X) \
  X(open_sessions)               \
  X(resident_sessions)           \
  X(parked_sessions)

/// One decoded response frame. `status` is the server-reported outcome:
/// OK for an ok frame, the round-tripped error for an error frame. The
/// other fields are meaningful per op (and only when status.ok()).
struct Response {
  common::Status status;

  std::string id;                                 // open
  std::vector<service::wire::QuestionPayload> questions;  // ask
  std::vector<bool> labels;                       // oracle
  service::SessionStatus session;                 // status
  service::wire::HypothesisPayload hypothesis;    // close
  session::SessionStats stats;                    // close
  service::ServiceCounters counters;              // counters
  QLEARN_SESSION_GAUGES(QLEARN_COUNTER_MEMBER)    // counters
  std::vector<std::string> session_ids;           // sessions
  std::string scenario;                           // export
  std::string image;                              // export (raw bytes)
};

inline constexpr common::CounterField<Response> kSessionGaugeFields[] = {
#define QLEARN_FIELD(name) {#name, &Response::name},
    QLEARN_SESSION_GAUGES(QLEARN_FIELD)
#undef QLEARN_FIELD
};

/// Canonical serialization of a request (fixed key order, no whitespace).
std::string Serialize(const Request& request);

/// The error-frame payload for a failed operation.
std::string SerializeError(const common::Status& status);

/// Parses a response frame for the given op. A Result error means the
/// frame itself was malformed; a parsed Response with !status.ok() means
/// the server reported a structured error.
common::Result<Response> ParseResponse(Request::Op op, std::string_view text);

/// Decoded request: field strings are views into the frame
/// buffer (or the arena), labels are an arena-allocated span. Valid while
/// both the frame bytes and the arena live.
struct RequestView {
  Request::Op op = Request::Op::kCounters;

  // kOpen/kImport
  std::string_view scenario;

  // kOpen
  uint64_t seed = session::SessionDefaults::kSeed;
  uint64_t max_questions = service::SessionBudget{}.max_questions;
  uint64_t max_pending = service::SessionBudget{}.max_pending;
  uint64_t max_wall_micros = 0;

  // kAsk/kTell/kOracle/kStatus/kClose/kExport/kImport; optional for kOpen
  std::string_view id;

  // kAsk
  uint64_t k = 1;

  // kTell
  const bool* labels = nullptr;
  uint32_t label_count = 0;

  // kImport: raw image bytes, hex-decoded into the arena.
  std::string_view image;
};

/// Strict parse of a request frame into arena storage; unknown ops,
/// unknown keys, and shape violations are ParseError. With a recycled arena
/// a steady-state parse performs zero heap allocations.
common::Result<RequestView> ParseRequestView(std::string_view text,
                                             service::json::Arena* arena);

/// Executes one request frame against `service`: parses via `arena`
/// (caller Resets it between frames) and appends the response frame to
/// `*out` (a recycled buffer the caller owns). Malformed request JSON
/// yields an error frame (never throws, never asserts). This is the whole
/// server-side dispatch, kept transport-free so tests can drive it without
/// sockets, and the request hot path of net::Server.
void HandleFrameInto(service::SessionService* service,
                     std::string_view request_json,
                     service::json::Arena* arena, std::string* out);

/// What a routing front tier needs from a request frame, and nothing more:
/// the op string and the session id if one is present. `root` is the
/// parsed view tree (for the open-frame rebuild). The peek does NOT run
/// the full strict validation — the owning backend does that — so a frame
/// that peeks fine can still earn a structured error downstream.
struct RequestPeek {
  std::string_view op;
  std::string_view id;  ///< empty unless has_id
  bool has_id = false;
  const service::json::View* root = nullptr;
};

/// Arena view-mode peek of `frame` (no heap tree, no copies): object
/// shape, string "op", and string "id" when present. Shape violations use
/// the protocol's error wording so router-answered errors read like
/// backend-answered ones.
common::Result<RequestPeek> PeekRequest(std::string_view frame,
                                        service::json::Arena* arena);

/// Rebuilds an id-less open request with the router-minted `id` appended
/// (original member order preserved, canonical bytes). The caller verified
/// via PeekRequest that `root` is an object without an "id" member.
void AppendOpenWithId(const service::json::View& root, std::string_view id,
                      std::string* out);

/// Merges N `counters` response frames into one: op counts, session
/// gauges, and log2 latency histograms are summed bucket-wise and
/// re-serialized canonically. Any error frame among the inputs wins and is
/// returned verbatim; a Result error means an input frame was malformed.
common::Result<std::string> MergeCountersFrames(
    const std::vector<std::string>& frames);

}  // namespace net
}  // namespace qlearn

#endif  // QLEARN_NET_PROTOCOL_H_
