#include "net/protocol.h"

#include <array>
#include <utility>

#include "service/json.h"

namespace qlearn {
namespace net {

namespace {

using common::Result;
using common::Status;
using service::wire::QuestionPayload;
using service::json::AppendEscaped;
using service::json::CheckAllKeysKnown;
using service::json::Find;
using service::json::ToBool;
using service::json::ToStringView;
using service::json::ToUInt;
using service::json::Type;
using View = service::json::View;

const char* OpName(Request::Op op) {
  switch (op) {
    case Request::Op::kOpen:
      return "open";
    case Request::Op::kAsk:
      return "ask";
    case Request::Op::kTell:
      return "tell";
    case Request::Op::kOracle:
      return "oracle";
    case Request::Op::kStatus:
      return "status";
    case Request::Op::kClose:
      return "close";
    case Request::Op::kCounters:
      return "counters";
    case Request::Op::kSessions:
      return "sessions";
    case Request::Op::kExport:
      return "export";
    case Request::Op::kImport:
      return "import";
  }
  return "unknown";
}

Status ShapeError(const std::string& message) {
  return Status::ParseError("protocol: " + message);
}

void AppendLabels(const std::vector<bool>& labels, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out->push_back(',');
    *out += labels[i] ? "true" : "false";
  }
  out->push_back(']');
}

/// Checks that `labels` is an array of booleans (the tell request and the
/// oracle response).
Status CheckLabels(const View* labels) {
  if (labels == nullptr || labels->type != Type::kArray) {
    return ShapeError("missing or non-array \"labels\"");
  }
  for (uint32_t i = 0; i < labels->element_count; ++i) {
    if (labels->elements[i].type != Type::kBool) {
      return ShapeError("non-boolean entry in \"labels\"");
    }
  }
  return Status::OK();
}

// Hex codec for the snapshot-handoff image: the canonical JSON subset has
// no binary strings, so export/import carry the QLSV bytes as lowercase hex.

void AppendHexQuoted(std::string_view bytes, std::string* out) {
  static constexpr char kDigits[] = "0123456789abcdef";
  out->push_back('"');
  for (const char byte : bytes) {
    const unsigned char c = static_cast<unsigned char>(byte);
    out->push_back(kDigits[c >> 4]);
    out->push_back(kDigits[c & 0xf]);
  }
  out->push_back('"');
}

int HexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;  // uppercase rejected: canonical bytes are lowercase
}

/// Decodes the lowercase-hex `image` field into the arena.
Result<std::string_view> HexDecodeIntoArena(std::string_view hex,
                                            service::json::Arena* arena) {
  if (hex.size() % 2 != 0) {
    return ShapeError("\"image\" hex has odd length " +
                      std::to_string(hex.size()));
  }
  char* out = static_cast<char*>(
      arena->Allocate(hex.size() / 2 + 1, alignof(char)));
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = HexNibble(hex[i]);
    const int lo = HexNibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return ShapeError("\"image\" is not lowercase hex");
    out[i / 2] = static_cast<char>((hi << 4) | lo);
  }
  return std::string_view(out, hex.size() / 2);
}

// ---------------------------------------------------------------------------
// Ok-frame writers, one appender per op. All reuse the canonical wire
// serializations for embedded payloads and append into the caller's
// (pooled, on the server) buffer.

void AppendUInt(uint64_t value, std::string* out) {
  service::json::AppendUInt(value, out);
}

void AppendOkOpen(std::string_view id, std::string* out) {
  *out += "{\"ok\":{\"id\":";
  AppendEscaped(id, out);
  *out += "}}";
}

void AppendOkAsk(const std::vector<QuestionPayload>& questions,
                 std::string* out) {
  *out += "{\"ok\":{\"questions\":[";
  for (size_t i = 0; i < questions.size(); ++i) {
    if (i > 0) out->push_back(',');
    service::wire::SerializeTo(questions[i], out);
  }
  *out += "]}}";
}

void AppendOkTell(std::string* out) { *out += "{\"ok\":{}}"; }

void AppendOkOracle(const std::vector<bool>& labels, std::string* out) {
  *out += "{\"ok\":{\"labels\":";
  AppendLabels(labels, out);
  *out += "}}";
}

void AppendOkStatus(const service::SessionStatus& status, std::string* out) {
  *out += "{\"ok\":{\"id\":";
  AppendEscaped(status.id, out);
  *out += ",\"scenario\":";
  AppendEscaped(status.scenario, out);
  *out += ",\"stats\":";
  service::wire::SerializeTo(status.stats, out);
  *out += ",\"pending\":";
  AppendUInt(status.pending, out);
  *out += ",\"budget_exhausted\":";
  *out += status.budget_exhausted ? "true" : "false";
  *out += ",\"hypothesis\":";
  AppendEscaped(status.hypothesis, out);
  *out += "}}";
}

void AppendOkClose(const service::CloseResult& result, std::string* out) {
  *out += "{\"ok\":{\"hypothesis\":";
  service::wire::SerializeTo(result.hypothesis, out);
  *out += ",\"stats\":";
  service::wire::SerializeTo(result.stats, out);
  *out += "}}";
}

/// Log2 bucket counts as a JSON array, trimmed after the last nonzero
/// bucket (so idle histograms serialize as `[]`, and trailing-zero
/// trimming keeps the writer deterministic for the round-trip property).
void AppendLatencyArray(const service::LatencySnapshot& snapshot,
                        std::string* out) {
  size_t limit = 0;
  for (size_t i = 0; i < service::LatencySnapshot::kBuckets; ++i) {
    if (snapshot.buckets[i] != 0) limit = i + 1;
  }
  out->push_back('[');
  for (size_t i = 0; i < limit; ++i) {
    if (i > 0) out->push_back(',');
    AppendUInt(snapshot.buckets[i], out);
  }
  out->push_back(']');
}

/// The `counters` frame's session gauges, in kSessionGaugeFields order.
using SessionGauges = std::array<uint64_t, std::size(kSessionGaugeFields)>;

/// Appends `"key":`, after a ',' unless it opens its object.
void AppendKey(std::string_view key, std::string* out) {
  if (out->back() != '{') out->push_back(',');
  out->push_back('"');
  out->append(key);
  *out += "\":";
}

void AppendOkCounters(const service::ServiceCounters& counters,
                      const SessionGauges& gauges, std::string* out) {
  *out += "{\"ok\":{";
  for (const auto& field : service::kServiceCounterFields) {
    AppendKey(field.name, out);
    AppendUInt(counters.*field.member, out);
  }
  for (size_t i = 0; i < gauges.size(); ++i) {
    AppendKey(kSessionGaugeFields[i].name, out);
    AppendUInt(gauges[i], out);
  }
  *out += ",\"latency_us\":{";
  for (const auto& field : service::kServiceLatencyFields) {
    AppendKey(field.name, out);
    AppendLatencyArray(counters.*field.member, out);
  }
  *out += "}}}";
}

void AppendOkSessions(const std::vector<std::string>& ids, std::string* out) {
  *out += "{\"ok\":{\"ids\":[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendEscaped(ids[i], out);
  }
  *out += "]}}";
}

void AppendOkExport(const service::ExportedSession& exported,
                    std::string* out) {
  *out += "{\"ok\":{\"scenario\":";
  AppendEscaped(exported.scenario, out);
  *out += ",\"image\":";
  AppendHexQuoted(exported.image, out);
  *out += "}}";
}

void AppendErrorFrame(const common::Status& status, std::string* out) {
  *out += "{\"error\":{\"code\":\"";
  *out += common::StatusCodeName(status.code());
  *out += "\",\"message\":";
  AppendEscaped(status.message(), out);
  *out += "}}";
}

// ---------------------------------------------------------------------------
// Ok-frame body parsing, one reader per op (strict, like the wire parsers).

Status LatencyFromJson(const View* value, std::string_view key,
                       service::LatencySnapshot* out) {
  const std::string what(key);
  if (value == nullptr || value->type != Type::kArray) {
    return ShapeError("missing or non-array \"" + what +
                      "\" latency histogram");
  }
  if (value->element_count > service::LatencySnapshot::kBuckets) {
    return ShapeError(
        "\"" + what + "\" latency histogram has more than " +
        std::to_string(service::LatencySnapshot::kBuckets) + " buckets");
  }
  for (uint32_t i = 0; i < value->element_count; ++i) {
    if (value->elements[i].type != Type::kUInt) {
      return ShapeError("non-integer bucket in \"" + what +
                        "\" latency histogram");
    }
    out->buckets[i] = value->elements[i].uint_value;
  }
  return Status::OK();
}

Status ParseOkBody(Request::Op op, const View& body,
                   service::json::Arena* arena, Response* response) {
  if (body.type != Type::kObject) {
    return ShapeError("\"ok\" body must be an object");
  }
  uint64_t seen = 0;
  switch (op) {
    case Request::Op::kOpen: {
      QLEARN_ASSIGN_OR_RETURN(response->id,
                              ToStringView(Find(body, "id", &seen), "id"));
      break;
    }
    case Request::Op::kAsk: {
      const View* questions = Find(body, "questions", &seen);
      if (questions == nullptr || questions->type != Type::kArray) {
        return ShapeError("missing or non-array \"questions\"");
      }
      for (uint32_t i = 0; i < questions->element_count; ++i) {
        QLEARN_ASSIGN_OR_RETURN(
            QuestionPayload payload,
            service::wire::QuestionFromJson(questions->elements[i]));
        response->questions.push_back(std::move(payload));
      }
      break;
    }
    case Request::Op::kTell:
      break;  // empty body
    case Request::Op::kOracle: {
      const View* labels = Find(body, "labels", &seen);
      QLEARN_RETURN_IF_ERROR(CheckLabels(labels));
      for (uint32_t i = 0; i < labels->element_count; ++i) {
        response->labels.push_back(labels->elements[i].bool_value);
      }
      break;
    }
    case Request::Op::kStatus: {
      QLEARN_ASSIGN_OR_RETURN(response->session.id,
                              ToStringView(Find(body, "id", &seen), "id"));
      QLEARN_ASSIGN_OR_RETURN(
          response->session.scenario,
          ToStringView(Find(body, "scenario", &seen), "scenario"));
      const View* stats = Find(body, "stats", &seen);
      if (stats == nullptr) return ShapeError("missing \"stats\"");
      QLEARN_ASSIGN_OR_RETURN(response->session.stats,
                              service::wire::StatsFromJson(*stats));
      QLEARN_ASSIGN_OR_RETURN(const uint64_t pending,
                              ToUInt(Find(body, "pending", &seen), "pending"));
      response->session.pending = static_cast<size_t>(pending);
      QLEARN_ASSIGN_OR_RETURN(response->session.budget_exhausted,
                              ToBool(Find(body, "budget_exhausted", &seen),
                                     "budget_exhausted"));
      QLEARN_ASSIGN_OR_RETURN(
          response->session.hypothesis,
          ToStringView(Find(body, "hypothesis", &seen), "hypothesis"));
      break;
    }
    case Request::Op::kClose: {
      const View* hypothesis = Find(body, "hypothesis", &seen);
      if (hypothesis == nullptr) return ShapeError("missing \"hypothesis\"");
      QLEARN_ASSIGN_OR_RETURN(response->hypothesis,
                              service::wire::HypothesisFromJson(*hypothesis));
      const View* stats = Find(body, "stats", &seen);
      if (stats == nullptr) return ShapeError("missing \"stats\"");
      QLEARN_ASSIGN_OR_RETURN(response->stats,
                              service::wire::StatsFromJson(*stats));
      break;
    }
    case Request::Op::kCounters: {
      for (const auto& field : service::kServiceCounterFields) {
        QLEARN_ASSIGN_OR_RETURN(response->counters.*field.member,
                                ToUInt(Find(body, field.name, &seen),
                                       field.name));
      }
      for (const auto& field : kSessionGaugeFields) {
        QLEARN_ASSIGN_OR_RETURN(response->*field.member,
                                ToUInt(Find(body, field.name, &seen),
                                       field.name));
      }
      const View* latency = Find(body, "latency_us", &seen);
      if (latency == nullptr || latency->type != Type::kObject) {
        return ShapeError("missing or non-object \"latency_us\"");
      }
      uint64_t latency_seen = 0;
      for (const auto& field : service::kServiceLatencyFields) {
        QLEARN_RETURN_IF_ERROR(
            LatencyFromJson(Find(*latency, field.name, &latency_seen),
                            field.name, &(response->counters.*field.member)));
      }
      QLEARN_RETURN_IF_ERROR(
          CheckAllKeysKnown(*latency, latency_seen, "\"latency_us\""));
      break;
    }
    case Request::Op::kSessions: {
      const View* ids = Find(body, "ids", &seen);
      if (ids == nullptr || ids->type != Type::kArray) {
        return ShapeError("missing or non-array \"ids\"");
      }
      for (uint32_t i = 0; i < ids->element_count; ++i) {
        if (ids->elements[i].type != Type::kString) {
          return ShapeError("non-string entry in \"ids\"");
        }
        response->session_ids.emplace_back(ids->elements[i].string_value);
      }
      break;
    }
    case Request::Op::kExport: {
      QLEARN_ASSIGN_OR_RETURN(
          response->scenario,
          ToStringView(Find(body, "scenario", &seen), "scenario"));
      QLEARN_ASSIGN_OR_RETURN(
          const std::string_view hex,
          ToStringView(Find(body, "image", &seen), "image"));
      QLEARN_ASSIGN_OR_RETURN(response->image, HexDecodeIntoArena(hex, arena));
      break;
    }
    case Request::Op::kImport:
      break;  // empty body
  }
  return CheckAllKeysKnown(body, seen, std::string("\"") + OpName(op) +
                                           "\" ok body");
}

}  // namespace

std::string Serialize(const Request& request) {
  std::string out = "{\"op\":\"";
  out += OpName(request.op);
  out += '"';
  switch (request.op) {
    case Request::Op::kOpen:
      out += ",\"scenario\":";
      AppendEscaped(request.scenario, &out);
      out += ",\"seed\":" + std::to_string(request.seed);
      out += ",\"max_questions\":" + std::to_string(request.max_questions);
      out += ",\"max_pending\":" + std::to_string(request.max_pending);
      out += ",\"max_wall_micros\":" + std::to_string(request.max_wall_micros);
      if (!request.id.empty()) {
        out += ",\"id\":";
        AppendEscaped(request.id, &out);
      }
      break;
    case Request::Op::kAsk:
      out += ",\"id\":";
      AppendEscaped(request.id, &out);
      out += ",\"k\":" + std::to_string(request.k);
      break;
    case Request::Op::kTell:
      out += ",\"id\":";
      AppendEscaped(request.id, &out);
      out += ",\"labels\":";
      AppendLabels(request.labels, &out);
      break;
    case Request::Op::kOracle:
    case Request::Op::kStatus:
    case Request::Op::kClose:
    case Request::Op::kExport:
      out += ",\"id\":";
      AppendEscaped(request.id, &out);
      break;
    case Request::Op::kImport:
      out += ",\"id\":";
      AppendEscaped(request.id, &out);
      out += ",\"scenario\":";
      AppendEscaped(request.scenario, &out);
      out += ",\"image\":";
      AppendHexQuoted(request.image, &out);
      break;
    case Request::Op::kCounters:
    case Request::Op::kSessions:
      break;
  }
  out.push_back('}');
  return out;
}

std::string SerializeError(const common::Status& status) {
  std::string out;
  AppendErrorFrame(status, &out);
  return out;
}

common::Result<Response> ParseResponse(Request::Op op, std::string_view text) {
  service::json::Arena arena;
  QLEARN_ASSIGN_OR_RETURN(const View* value,
                          service::json::ParseInto(text, &arena));
  if (value->type != Type::kObject || value->member_count != 1) {
    return ShapeError("response must be an object with one key");
  }
  const std::string_view tag = value->members[0].key;
  const View& body = value->members[0].value;
  Response response;
  if (tag == "error") {
    if (body.type != Type::kObject) {
      return ShapeError("\"error\" body must be an object");
    }
    uint64_t seen = 0;
    QLEARN_ASSIGN_OR_RETURN(const std::string_view code_view,
                            ToStringView(Find(body, "code", &seen), "code"));
    const std::string code_name(code_view);
    QLEARN_ASSIGN_OR_RETURN(
        const std::string_view message,
        ToStringView(Find(body, "message", &seen), "message"));
    QLEARN_RETURN_IF_ERROR(CheckAllKeysKnown(body, seen, "error body"));
    common::StatusCode code;
    if (!common::StatusCodeFromName(code_name, &code) ||
        code == common::StatusCode::kOk) {
      return ShapeError("unknown error code \"" + code_name + "\"");
    }
    response.status = common::Status(code, std::string(message));
    return response;
  }
  if (tag != "ok") {
    return ShapeError("expected \"ok\" or \"error\", got \"" +
                      std::string(tag) + "\"");
  }
  QLEARN_RETURN_IF_ERROR(ParseOkBody(op, body, &arena, &response));
  return response;
}

common::Result<RequestView> ParseRequestView(std::string_view text,
                                             service::json::Arena* arena) {
  QLEARN_ASSIGN_OR_RETURN(const View* value,
                          service::json::ParseInto(text, arena));
  if (value->type != Type::kObject) {
    return ShapeError("request must be an object");
  }
  uint64_t seen = 0;
  QLEARN_ASSIGN_OR_RETURN(const std::string_view op,
                          ToStringView(Find(*value, "op", &seen), "op"));
  RequestView request;
  if (op == "open") {
    request.op = Request::Op::kOpen;
    QLEARN_ASSIGN_OR_RETURN(
        request.scenario,
        ToStringView(Find(*value, "scenario", &seen), "scenario"));
    const auto optional_uint = [&](std::string_view key,
                                   uint64_t* out) -> Status {
      const View* field = Find(*value, key, &seen);
      if (field == nullptr) return Status::OK();
      QLEARN_ASSIGN_OR_RETURN(*out, ToUInt(field, key));
      return Status::OK();
    };
    QLEARN_RETURN_IF_ERROR(optional_uint("seed", &request.seed));
    QLEARN_RETURN_IF_ERROR(
        optional_uint("max_questions", &request.max_questions));
    QLEARN_RETURN_IF_ERROR(optional_uint("max_pending", &request.max_pending));
    QLEARN_RETURN_IF_ERROR(
        optional_uint("max_wall_micros", &request.max_wall_micros));
    const View* id = Find(*value, "id", &seen);
    if (id != nullptr) {
      QLEARN_ASSIGN_OR_RETURN(request.id, ToStringView(id, "id"));
    }
  } else if (op == "ask") {
    request.op = Request::Op::kAsk;
    QLEARN_ASSIGN_OR_RETURN(request.id,
                            ToStringView(Find(*value, "id", &seen), "id"));
    QLEARN_ASSIGN_OR_RETURN(request.k, ToUInt(Find(*value, "k", &seen), "k"));
  } else if (op == "tell") {
    request.op = Request::Op::kTell;
    QLEARN_ASSIGN_OR_RETURN(request.id,
                            ToStringView(Find(*value, "id", &seen), "id"));
    const View* labels = Find(*value, "labels", &seen);
    QLEARN_RETURN_IF_ERROR(CheckLabels(labels));
    bool* decoded = static_cast<bool*>(
        arena->Allocate(labels->element_count * sizeof(bool), alignof(bool)));
    for (uint32_t i = 0; i < labels->element_count; ++i) {
      decoded[i] = labels->elements[i].bool_value;
    }
    request.labels = decoded;
    request.label_count = labels->element_count;
  } else if (op == "oracle" || op == "status" || op == "close" ||
             op == "export") {
    request.op = op == "oracle"   ? Request::Op::kOracle
                 : op == "status" ? Request::Op::kStatus
                 : op == "close"  ? Request::Op::kClose
                                  : Request::Op::kExport;
    QLEARN_ASSIGN_OR_RETURN(request.id,
                            ToStringView(Find(*value, "id", &seen), "id"));
  } else if (op == "import") {
    request.op = Request::Op::kImport;
    QLEARN_ASSIGN_OR_RETURN(request.id,
                            ToStringView(Find(*value, "id", &seen), "id"));
    QLEARN_ASSIGN_OR_RETURN(
        request.scenario,
        ToStringView(Find(*value, "scenario", &seen), "scenario"));
    QLEARN_ASSIGN_OR_RETURN(
        const std::string_view hex,
        ToStringView(Find(*value, "image", &seen), "image"));
    QLEARN_ASSIGN_OR_RETURN(request.image, HexDecodeIntoArena(hex, arena));
  } else if (op == "counters") {
    request.op = Request::Op::kCounters;
  } else if (op == "sessions") {
    request.op = Request::Op::kSessions;
  } else {
    return ShapeError("unknown op \"" + std::string(op) + "\"");
  }
  QLEARN_RETURN_IF_ERROR(CheckAllKeysKnown(
      *value, seen, "\"" + std::string(op) + "\" request"));
  return request;
}

void HandleFrameInto(service::SessionService* service,
                     std::string_view request_json,
                     service::json::Arena* arena, std::string* out) {
  auto request_or = ParseRequestView(request_json, arena);
  if (!request_or.ok()) {
    AppendErrorFrame(request_or.status(), out);
    return;
  }
  const RequestView& request = request_or.value();
  switch (request.op) {
    case Request::Op::kOpen: {
      service::OpenOptions options;
      options.seed = request.seed;
      options.budget.max_questions = request.max_questions;
      options.budget.max_pending = static_cast<size_t>(request.max_pending);
      options.budget.max_wall_seconds =
          static_cast<double>(request.max_wall_micros) / 1e6;
      options.id = std::string(request.id);
      auto id = service->Open(std::string(request.scenario), options);
      if (!id.ok()) {
        AppendErrorFrame(id.status(), out);
      } else {
        AppendOkOpen(id.value(), out);
      }
      return;
    }
    case Request::Op::kAsk: {
      auto questions =
          service->Ask(request.id, static_cast<size_t>(request.k));
      if (!questions.ok()) {
        AppendErrorFrame(questions.status(), out);
      } else {
        AppendOkAsk(questions.value(), out);
      }
      return;
    }
    case Request::Op::kTell: {
      const common::Status status =
          service->Tell(request.id, request.labels, request.label_count);
      if (!status.ok()) {
        AppendErrorFrame(status, out);
      } else {
        AppendOkTell(out);
      }
      return;
    }
    case Request::Op::kOracle: {
      auto labels = service->OracleLabels(request.id);
      if (!labels.ok()) {
        AppendErrorFrame(labels.status(), out);
      } else {
        AppendOkOracle(labels.value(), out);
      }
      return;
    }
    case Request::Op::kStatus: {
      auto status = service->Status(request.id);
      if (!status.ok()) {
        AppendErrorFrame(status.status(), out);
      } else {
        AppendOkStatus(status.value(), out);
      }
      return;
    }
    case Request::Op::kClose: {
      auto closed = service->Close(request.id);
      if (!closed.ok()) {
        AppendErrorFrame(closed.status(), out);
      } else {
        AppendOkClose(closed.value(), out);
      }
      return;
    }
    case Request::Op::kCounters:
      // The gauges go in kSessionGaugeFields order.
      AppendOkCounters(service->Counters(),
                       {service->OpenCount(), service->ResidentCount(),
                        service->ParkedCount()},
                       out);
      return;
    case Request::Op::kSessions:
      AppendOkSessions(service->ListOpen(), out);
      return;
    case Request::Op::kExport: {
      auto exported = service->ExportSession(request.id);
      if (!exported.ok()) {
        AppendErrorFrame(exported.status(), out);
      } else {
        AppendOkExport(exported.value(), out);
      }
      return;
    }
    case Request::Op::kImport: {
      const common::Status status = service->ImportSession(
          request.id, std::string(request.scenario), request.image);
      if (!status.ok()) {
        AppendErrorFrame(status, out);
      } else {
        AppendOkTell(out);  // {"ok":{}}
      }
      return;
    }
  }
  AppendErrorFrame(common::Status::Internal("unhandled op in HandleFrame"),
                   out);
}

common::Result<RequestPeek> PeekRequest(std::string_view frame,
                                        service::json::Arena* arena) {
  QLEARN_ASSIGN_OR_RETURN(const View* value,
                          service::json::ParseInto(frame, arena));
  if (value->type != Type::kObject) {
    return ShapeError("request must be an object");
  }
  uint64_t seen = 0;
  RequestPeek peek;
  peek.root = value;
  QLEARN_ASSIGN_OR_RETURN(peek.op,
                          ToStringView(Find(*value, "op", &seen), "op"));
  const View* id = Find(*value, "id", &seen);
  if (id != nullptr) {
    QLEARN_ASSIGN_OR_RETURN(peek.id, ToStringView(id, "id"));
    peek.has_id = true;
  }
  return peek;
}

void AppendOpenWithId(const service::json::View& root, std::string_view id,
                      std::string* out) {
  out->push_back('{');
  for (uint32_t i = 0; i < root.member_count; ++i) {
    AppendEscaped(root.members[i].key, out);
    out->push_back(':');
    service::json::AppendView(root.members[i].value, out);
    out->push_back(',');
  }
  *out += "\"id\":";
  AppendEscaped(id, out);
  out->push_back('}');
}

common::Result<std::string> MergeCountersFrames(
    const std::vector<std::string>& frames) {
  if (frames.empty()) {
    return ShapeError("counters merge needs at least one frame");
  }
  service::ServiceCounters total;
  SessionGauges gauges{};
  for (const std::string& frame : frames) {
    QLEARN_ASSIGN_OR_RETURN(const Response response,
                            ParseResponse(Request::Op::kCounters, frame));
    if (!response.status.ok()) return frame;  // error frame wins, verbatim
    for (const auto& field : service::kServiceCounterFields) {
      total.*field.member += response.counters.*field.member;
    }
    for (size_t i = 0; i < gauges.size(); ++i) {
      gauges[i] += response.*kSessionGaugeFields[i].member;
    }
    for (const auto& field : service::kServiceLatencyFields) {
      for (size_t i = 0; i < service::LatencySnapshot::kBuckets; ++i) {
        (total.*field.member).buckets[i] +=
            (response.counters.*field.member).buckets[i];
      }
    }
  }
  std::string out;
  AppendOkCounters(total, gauges, &out);
  return out;
}

}  // namespace net
}  // namespace qlearn
