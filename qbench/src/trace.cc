#include "trace.h"

#include <memory>

#include "bench.h"
#include "common/alloc_probe.h"
#include "net/client.h"
#include "net/protocol.h"
#include "serve.h"
#include "service/json.h"
#include "session/registry.h"

namespace qbench {
namespace {

namespace q = qlearn;
using Op = GoldenStep::Op;

/// Spans and counts of one replay of the stream at one entry point, one
/// entry per request in stream order.
struct Record {
  std::vector<double> us;
  std::vector<uint64_t> allocs;
  std::vector<size_t> bytes;
  std::vector<double> park_us;  ///< park path only
  uint64_t failures = 0;
  double wall_s = 0;
  std::string first_failure;
};

/// Replays `stream` through `caller`. A caller has Prepare (build the
/// request, outside the span), Call (the entry point, inside the span),
/// Validate (outside the span) and Boundary (the park path's Park).
template <typename Caller>
Record Replay(const std::vector<Golden>& goldens,
              const std::vector<size_t>& stream, Caller* caller, bool spans) {
  Record record;
  std::string id;
  const Clock::time_point start = Clock::now();
  for (size_t g : stream) {
    const Golden& golden = goldens[g];
    id.clear();
    for (const GoldenStep& step : golden.steps) {
      caller->Prepare(golden, step, id);
      if (spans) {
        const uint64_t allocs = q::common::AllocProbeNewCount();
        const Clock::time_point begin = Clock::now();
        caller->Call(golden, step, id);
        const Clock::time_point end = Clock::now();
        record.allocs.push_back(q::common::AllocProbeNewCount() - allocs);
        record.us.push_back(MicrosBetween(begin, end));
      } else {
        caller->Call(golden, step, id);
      }
      record.bytes.push_back(caller->ResponseBytes());
      std::string note;
      if (!caller->Validate(step, &id, &note)) {
        if (record.failures++ == 0) {
          record.first_failure = golden.name + ": " + note;
        }
      }
      if (step.op == Op::kOpen || step.op == Op::kTell) {
        const Clock::time_point begin = Clock::now();
        const bool parked = caller->Boundary(id);
        if (spans && caller->parks()) {
          record.park_us.push_back(MicrosBetween(begin, Clock::now()));
        }
        if (!parked) ++record.failures;
      }
    }
  }
  record.wall_s = SecondsBetween(start, Clock::now());
  return record;
}

/// Shared validation of a response frame (protocol and client callers).
bool ValidateFrame(const GoldenStep& step, const std::string& frame,
                   std::string* id, std::string* note) {
  if (step.op == Op::kOpen) {
    if (ParseOpenId(frame, id)) return true;
  } else if (frame == step.expect) {
    return true;
  }
  *note = "served " + frame.substr(0, 160);
  return false;
}

class SessionCaller {
 public:
  SessionCaller() : registry_(q::session::ScenarioRegistry::Global()) {
    q::session::RegisterBuiltinScenarios();
  }
  bool parks() const { return false; }
  void Prepare(const Golden&, const GoldenStep&, const std::string&) {}
  void Call(const Golden& golden, const GoldenStep& step, const std::string&) {
    switch (step.op) {
      case Op::kOpen: {
        q::session::SessionOptions options;
        options.seed = golden.open.seed;
        options.max_questions = golden.open.budget.max_questions;
        auto created = registry_->Create(golden.scenario, options);
        session_ = created.ok() ? std::move(created).value() : nullptr;
        break;
      }
      case Op::kAsk:
        if (!session_) return;
        texts_ = session_->NextQuestions(std::min<uint64_t>(
            step.k, q::service::SessionBudget{}.max_pending));
        ids_ = session_->PendingIds();
        kind_ = session_->PayloadKind();
        break;
      case Op::kTell:
        if (session_) session_->AnswerAll(step.labels);
        break;
      case Op::kClose:
        if (!session_) return;
        session_->Finish();
        closed_.hypothesis.kind = session_->PayloadKind();
        closed_.hypothesis.text = session_->Hypothesis();
        closed_.stats = session_->stats();
        break;
    }
  }
  size_t ResponseBytes() const { return 0; }
  bool Validate(const GoldenStep& step, std::string* id, std::string* note) {
    if (!session_) {
      *note = "scenario did not open";
      return false;
    }
    body_.clear();
    if (step.op == Op::kOpen) {
      *id = "local";
      return true;
    }
    if (step.op == Op::kTell) return true;
    if (step.op == Op::kAsk) {
      std::vector<q::service::wire::QuestionPayload> payloads(texts_.size());
      for (size_t i = 0; i < texts_.size(); ++i) {
        payloads[i].kind = kind_;
        if (i < ids_.size()) payloads[i].ids = ids_[i];
        payloads[i].text = texts_[i];
      }
      AppendQuestionsArray(payloads, &body_);
    } else {
      AppendCloseBody(closed_, &body_);
      session_.reset();
    }
    if (body_ == step.expect_body) return true;
    *note = "served " + body_.substr(0, 160);
    return false;
  }
  bool Boundary(const std::string&) { return true; }

 private:
  q::session::ScenarioRegistry* registry_;
  std::unique_ptr<q::session::ScenarioSession> session_;
  std::vector<std::string> texts_;
  std::vector<std::vector<uint64_t>> ids_;
  std::string kind_;
  q::service::CloseResult closed_;
  std::string body_;
};

/// SessionService calls; with `park`, the session is parked at every
/// question boundary so each later ask and close rehydrates.
class ServiceCaller {
 public:
  ServiceCaller(q::service::SessionService* svc, bool park)
      : service_(svc), park_(park) {}
  bool parks() const { return park_; }
  void Prepare(const Golden&, const GoldenStep&, const std::string&) {}
  void Call(const Golden& golden, const GoldenStep& step,
            const std::string& id) {
    switch (step.op) {
      case Op::kOpen:
        opened_ = service_->Open(golden.scenario, golden.open);
        break;
      case Op::kAsk:
        asked_ = service_->Ask(id, step.k);
        break;
      case Op::kTell:
        told_ = service_->Tell(id, step.labels);
        break;
      case Op::kClose:
        closed_ = service_->Close(id);
        break;
    }
  }
  size_t ResponseBytes() const { return 0; }
  bool Validate(const GoldenStep& step, std::string* id, std::string* note) {
    body_.clear();
    switch (step.op) {
      case Op::kOpen:
        if (!opened_.ok()) break;
        *id = opened_.value();
        return true;
      case Op::kAsk:
        if (!asked_.ok()) break;
        AppendQuestionsArray(asked_.value(), &body_);
        if (body_ == step.expect_body) return true;
        *note = "served " + body_.substr(0, 160);
        return false;
      case Op::kTell:
        if (told_.ok()) return true;
        *note = told_.ToString();
        return false;
      case Op::kClose:
        if (!closed_.ok()) break;
        AppendCloseBody(closed_.value(), &body_);
        if (body_ == step.expect_body) return true;
        *note = "served " + body_.substr(0, 160);
        return false;
    }
    *note = "call failed";
    return false;
  }
  bool Boundary(const std::string& id) {
    return !park_ || service_->Park(id).ok();
  }

 private:
  q::service::SessionService* service_;
  bool park_;
  q::common::Result<std::string> opened_ = std::string();
  q::common::Result<std::vector<q::service::wire::QuestionPayload>> asked_ =
      std::vector<q::service::wire::QuestionPayload>();
  q::common::Status told_;
  q::common::Result<q::service::CloseResult> closed_ =
      q::service::CloseResult();
  std::string body_;
};

/// net::HandleFrameInto with one recycled arena and response buffer.
class ProtocolCaller {
 public:
  explicit ProtocolCaller(q::service::SessionService* svc) : service_(svc) {}
  bool parks() const { return false; }
  void Prepare(const Golden&, const GoldenStep& step, const std::string& id) {
    frame_ = step.prefix;
    if (step.op != Op::kOpen) {
      frame_ += id;
      frame_ += step.suffix;
    }
  }
  void Call(const Golden&, const GoldenStep&, const std::string&) {
    arena_.Reset();
    out_.clear();
    q::net::HandleFrameInto(service_, frame_, &arena_, &out_);
  }
  size_t ResponseBytes() const { return out_.size(); }
  bool Validate(const GoldenStep& step, std::string* id, std::string* note) {
    return ValidateFrame(step, out_, id, note);
  }
  bool Boundary(const std::string&) { return true; }

 private:
  q::service::SessionService* service_;
  q::service::json::Arena arena_;
  std::string frame_;
  std::string out_;
};

/// One net::Client call (to a server or through a router).
class ClientCaller {
 public:
  explicit ClientCaller(q::net::Client* client) : client_(client) {}
  bool parks() const { return false; }
  void Prepare(const Golden&, const GoldenStep& step, const std::string& id) {
    frame_ = step.prefix;
    if (step.op != Op::kOpen) {
      frame_ += id;
      frame_ += step.suffix;
    }
  }
  void Call(const Golden&, const GoldenStep&, const std::string&) {
    response_ = client_->CallRaw(frame_);
  }
  size_t ResponseBytes() const {
    return response_.ok() ? response_.value().size() : 0;
  }
  bool Validate(const GoldenStep& step, std::string* id, std::string* note) {
    if (!response_.ok()) {
      *note = response_.status().ToString();
      return false;
    }
    return ValidateFrame(step, response_.value(), id, note);
  }
  bool Boundary(const std::string&) { return true; }

 private:
  q::net::Client* client_;
  std::string frame_;
  q::common::Result<std::string> response_ = std::string();
};

/// Which requests of the stream are asks / tells / opens / closes.
std::vector<Op> StreamOps(const std::vector<Golden>& goldens,
                          const std::vector<size_t>& stream) {
  std::vector<Op> ops;
  for (size_t g : stream) {
    for (const GoldenStep& step : goldens[g].steps) ops.push_back(step.op);
  }
  return ops;
}

/// Per-request `outer - inner` for requests of `op`, over both passes.
std::vector<double> SelfOf(const std::vector<Op>& ops, Op op,
                           const std::vector<const Record*>& outer,
                           const std::vector<const Record*>& inner) {
  std::vector<double> self;
  for (size_t p = 0; p < outer.size(); ++p) {
    for (size_t r = 0; r < ops.size(); ++r) {
      if (ops[r] != op) continue;
      self.push_back(outer[p]->us[r] - (inner.empty() ? 0 : inner[p]->us[r]));
    }
  }
  return self;
}

std::vector<double> SpansOf(const std::vector<Op>& ops, Op op,
                            const std::vector<const Record*>& records) {
  return SelfOf(ops, op, records, {});
}

/// Mean over requests of `op` of the allocations `outer` adds over `inner`.
double AllocsOf(const std::vector<Op>& ops, Op op, const Record& outer,
                const Record* inner) {
  double total = 0;
  size_t count = 0;
  for (size_t r = 0; r < ops.size(); ++r) {
    if (ops[r] != op) continue;
    total += static_cast<double>(outer.allocs[r]) -
             (inner ? static_cast<double>(inner->allocs[r]) : 0.0);
    ++count;
  }
  return count == 0 ? 0 : total / static_cast<double>(count);
}

double MeanBytes(const std::vector<Op>& ops, Op op, const Record& record) {
  double total = 0;
  size_t count = 0;
  for (size_t r = 0; r < ops.size(); ++r) {
    if (ops[r] != op) continue;
    total += static_cast<double>(record.bytes[r]);
    ++count;
  }
  return count == 0 ? 0 : total / static_cast<double>(count);
}

/// Everything one pass over the stream records.
struct Pass {
  Record session, service, protocol, transport, router, park;
  Record untraced_transport;  ///< net.transport again, without spans
  q::service::ServiceCounters service_counters, park_counters;
  CountingStore::Totals store;
  q::net::RouterStats router_stats;
};

}  // namespace

GoldenTrace TraceGolden(const std::vector<Golden>& goldens, uint64_t seed) {
  GoldenTrace trace;
  std::vector<size_t> stream;
  for (uint64_t i = 0; i < kTracedGoldenSessions; ++i) {
    stream.push_back(GoldenFor(seed, i, goldens.size()));
  }
  const std::vector<Op> ops = StreamOps(goldens, stream);
  auto fail = [&](const std::string& note) {
    ++trace.failures;
    if (trace.notes.size() < 8) trace.notes.push_back(note);
  };

  // The systems under trace live across the passes, so pools, arenas and
  // connections are warm after the first (discarded) pass.
  q::service::SessionService service;
  q::service::SessionService protocol_service;
  q::service::SessionService transport_service;
  std::unique_ptr<q::net::Server> server;
  Fleet fleet;
  auto store = std::make_shared<CountingStore>();
  q::service::ServiceOptions park_options;
  park_options.snapshot_store = store;
  q::service::SessionService park_service(park_options);
  q::common::Status started = StartServer(&transport_service, 1, &server);
  if (started.ok()) started = StartFleet(2, &fleet);
  if (!started.ok()) {
    fail("trace set-up: " + started.ToString());
    return trace;
  }
  auto direct = q::net::Client::Connect("127.0.0.1", server->port());
  auto routed = q::net::Client::Connect("127.0.0.1", fleet.router->port());
  if (!direct.ok() || !routed.ok()) {
    fail("trace connect failed");
    return trace;
  }

  SessionCaller session_caller;
  ServiceCaller service_caller(&service, /*park=*/false);
  ProtocolCaller protocol_caller(&protocol_service);
  ClientCaller transport_caller(&direct.value());
  ClientCaller router_caller(&routed.value());
  ServiceCaller park_caller(&park_service, /*park=*/true);

  auto run_pass = [&](Pass* pass) {
    const auto service_before = service.Counters();
    const auto park_before = park_service.Counters();
    const auto router_before = fleet.router->stats();
    pass->session = Replay(goldens, stream, &session_caller, true);
    pass->service = Replay(goldens, stream, &service_caller, true);
    pass->service_counters = DiffCounters(service.Counters(), service_before);
    pass->protocol = Replay(goldens, stream, &protocol_caller, true);
    pass->transport = Replay(goldens, stream, &transport_caller, true);
    pass->untraced_transport =
        Replay(goldens, stream, &transport_caller, false);
    pass->router = Replay(goldens, stream, &router_caller, true);
    pass->router_stats = fleet.router->stats();
    pass->router_stats.frames_forwarded -= router_before.frames_forwarded;
    pass->router_stats.local_answers -= router_before.local_answers;
    pass->router_stats.backend_reconnects -= router_before.backend_reconnects;
    store->Take();
    pass->park = Replay(goldens, stream, &park_caller, true);
    pass->store = store->Take();
    pass->park_counters = DiffCounters(park_service.Counters(), park_before);
  };

  Pass warm, a, b;
  run_pass(&warm);
  run_pass(&a);
  run_pass(&b);

  for (const Pass* pass : {&warm, &a, &b}) {
    for (const Record* record :
         {&pass->session, &pass->service, &pass->protocol, &pass->transport,
          &pass->router, &pass->park, &pass->untraced_transport}) {
      if (record->failures > 0) {
        fail("traced replay: " + std::to_string(record->failures) +
             " failed request(s), first " + record->first_failure);
      }
    }
  }
  // Exact counts must repeat between the two measured passes.
  auto exact = [&](const char* what, auto x, auto y) {
    if (x != y) {
      fail(std::string("exact count differs between passes: ") + what);
    }
  };
  exact("alloc.session", a.session.allocs, b.session.allocs);
  exact("alloc.service", a.service.allocs, b.service.allocs);
  exact("alloc.protocol", a.protocol.allocs, b.protocol.allocs);
  exact("service.counters.questions_served",
        a.service_counters.questions_served,
        b.service_counters.questions_served);
  exact("service.counters.labels_accepted", a.service_counters.labels_accepted,
        b.service_counters.labels_accepted);
  exact("service.parks", a.park_counters.hibernates,
        b.park_counters.hibernates);
  exact("service.rehydrates", a.park_counters.rehydrates,
        b.park_counters.rehydrates);
  exact("net.router.frames_forwarded", a.router_stats.frames_forwarded,
        b.router_stats.frames_forwarded);

  const std::vector<const Record*> session{&a.session, &b.session};
  const std::vector<const Record*> service_r{&a.service, &b.service};
  const std::vector<const Record*> protocol{&a.protocol, &b.protocol};
  const std::vector<const Record*> transport{&a.transport, &b.transport};
  const std::vector<const Record*> router{&a.router, &b.router};
  const std::vector<const Record*> park{&a.park, &b.park};
  const Op four[4] = {Op::kOpen, Op::kAsk, Op::kTell, Op::kClose};
  for (int i = 0; i < 4; ++i) {
    trace.session_self_us[i] = Median(SpansOf(ops, four[i], session));
    trace.service_self_us[i] =
        Median(SelfOf(ops, four[i], service_r, session));
  }
  const Op two[2] = {Op::kAsk, Op::kTell};
  for (int i = 0; i < 2; ++i) {
    const Op op = two[i];
    trace.outer_span_us[i] = Median(SpansOf(ops, op, transport));
    trace.protocol_self_us[i] = Median(SelfOf(ops, op, protocol, service_r));
    trace.transport_self_us[i] = Median(SelfOf(ops, op, transport, protocol));
    trace.router_self_us[i] = Median(SelfOf(ops, op, router, transport));
    trace.session_allocs[i] = AllocsOf(ops, op, a.session, nullptr);
    trace.service_allocs[i] = AllocsOf(ops, op, a.service, &a.session);
    trace.protocol_allocs[i] = AllocsOf(ops, op, a.protocol, &a.service);
    trace.response_bytes[i] = MeanBytes(ops, op, a.protocol);
  }
  trace.ask_samples = SpansOf(ops, Op::kAsk, session).size();
  trace.tell_samples = SpansOf(ops, Op::kTell, session).size();
  trace.service_ask_span_us = Median(SpansOf(ops, Op::kAsk, service_r));

  trace.frames_forwarded = a.router_stats.frames_forwarded;
  trace.local_answers = a.router_stats.local_answers;
  if (trace.frames_forwarded > 0) {
    trace.backend_conn_reuse =
        static_cast<double>(a.router_stats.frames_forwarded -
                            a.router_stats.backend_reconnects) /
        static_cast<double>(a.router_stats.frames_forwarded);
  }

  trace.rehydrate_ask_us = Median(SelfOf(ops, Op::kAsk, park, service_r));
  trace.park_us = a.park.park_us;
  trace.park_us.insert(trace.park_us.end(), b.park.park_us.begin(),
                       b.park.park_us.end());
  std::vector<double> put_us = a.store.put_us, get_us = a.store.get_us;
  put_us.insert(put_us.end(), b.store.put_us.begin(), b.store.put_us.end());
  get_us.insert(get_us.end(), b.store.get_us.begin(), b.store.get_us.end());
  trace.put_us = Median(put_us);
  trace.get_us = Median(get_us);
  trace.bytes_per_put =
      a.store.put_us.empty()
          ? 0
          : static_cast<double>(a.store.put_bytes) /
                static_cast<double>(a.store.put_us.size());
  trace.parks = a.park_counters.hibernates;
  trace.rehydrates = a.park_counters.rehydrates;
  trace.hibernate_errors =
      a.park_counters.hibernate_errors + b.park_counters.hibernate_errors;
  if (trace.hibernate_errors > 0) fail("hibernate errors in the park replay");

  trace.questions_served = a.service_counters.questions_served;
  trace.labels_accepted = a.service_counters.labels_accepted;
  trace.hist_open = a.service_counters.open_latency_us;
  trace.hist_ask = a.service_counters.ask_latency_us;
  for (size_t i = 0; i < q::service::LatencySnapshot::kBuckets; ++i) {
    trace.hist_open.buckets[i] += b.service_counters.open_latency_us.buckets[i];
    trace.hist_ask.buckets[i] += b.service_counters.ask_latency_us.buckets[i];
  }

  trace.traced_wall_s = a.transport.wall_s + b.transport.wall_s;
  trace.untraced_wall_s =
      a.untraced_transport.wall_s + b.untraced_transport.wall_s;

  direct.value().Disconnect();
  routed.value().Disconnect();
  fleet.Stop();
  server->Stop();
  return trace;
}

}  // namespace qbench
