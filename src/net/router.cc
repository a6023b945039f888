#include "net/router.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "net/reactor.h"
#include "service/json.h"

namespace qlearn {
namespace net {

namespace {

using common::Status;

/// One response slot in a client connection's FIFO. Slots complete out of
/// order (different backends answer at different speeds) but leave in
/// order: only a ready front slot moves to the output queue.
struct Pending {
  enum class Kind { kSingle, kCounters, kSessions };

  uint64_t seq = 0;
  Kind kind = Kind::kSingle;
  bool ready = false;
  std::string body;  ///< the response frame payload, once ready

  // Fan-out bookkeeping (kCounters/kSessions).
  uint32_t awaiting = 0;
  std::vector<std::string> parts;
};

/// A client connection. Its pending slots are the frames the router holds
/// for it (Conn::held).
struct ClientConn : Conn {
  using Conn::Conn;
  std::deque<Pending> pending;
  uint64_t next_seq = 1;
};

/// One request forwarded to a backend and not yet answered. The client is
/// referenced by id + slot seq, never by pointer: it may be gone by the
/// time the backend answers, and a stale lookup just drops the response.
struct Forwarded {
  uint64_t client_id = 0;
  uint64_t seq = 0;
  /// Non-empty when this is a `close` whose id has a routing override: an
  /// ok response retires the override (the parked-behind session is gone).
  std::string close_id;
};

/// A pooled connection to one backend, registered with the shard's
/// reactor. Responses come back in request order per connection (the
/// backend answers FIFO), so in_flight is the whole correlation state.
struct BackendConn : Conn {
  explicit BackendConn(size_t max_frame_bytes) : Conn(max_frame_bytes) {
    accepted = false;
  }
  std::string address;  ///< "host:port", the connection-table key
  std::deque<Forwarded> in_flight;
};

/// The error frame a backend would send for a request missing its id
/// (json.cc ToStringView wording), so router-answered errors are
/// byte-identical to backend-answered ones.
std::string MissingIdError() {
  return SerializeError(
      Status::ParseError("json: missing or non-string \"id\""));
}

std::string UnknownOpError(std::string_view op) {
  return SerializeError(
      Status::ParseError("protocol: unknown op \"" + std::string(op) + "\""));
}

/// Merges `sessions` fan-out parts: ids concatenate and sort (each backend
/// lists its own; the union is the fleet's). Any error frame wins.
std::string MergeSessionsFrames(const std::vector<std::string>& parts) {
  std::vector<std::string> ids;
  for (const std::string& part : parts) {
    auto response = ParseResponse(Request::Op::kSessions, part);
    if (!response.ok()) return SerializeError(response.status());
    if (!response.value().status.ok()) return part;
    for (std::string& id : response.value().session_ids) {
      ids.push_back(std::move(id));
    }
  }
  std::sort(ids.begin(), ids.end());
  std::string out = "{\"ok\":{\"ids\":[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out.push_back(',');
    service::json::AppendEscaped(ids[i], &out);
  }
  out += "]}}";
  return out;
}

}  // namespace

struct Router::Impl {
  class Shard;

  Impl(ShardMap initial, RouterOptions router_options)
      : options(std::move(router_options)),
        reactor(options),
        map(std::make_shared<const ShardMap>(std::move(initial))) {}

  const RouterOptions options;
  Reactor reactor;

  std::atomic<bool> paused{false};
  std::atomic<uint64_t> next_minted{1};  ///< re-seeded with a nonce at Start

  /// The live map, copy-on-write: dispatch grabs the shared_ptr under the
  /// mutex (cheap), Rebalance installs a fresh one.
  mutable std::mutex map_mutex;
  std::shared_ptr<const ShardMap> map;

  /// Sessions pinned off their jump-hash home: non-quiescent at rebalance
  /// time, still living on their old backend until they close. Checked on
  /// the hot path only when non-empty (override_count guards the lock).
  std::mutex override_mutex;
  std::unordered_map<std::string, BackendAddress> overrides;
  std::atomic<uint64_t> override_count{0};

  /// One rebalance at a time.
  std::mutex rebalance_mutex;

  /// The live routing counters (the reactor keeps the base's, so those
  /// stay 0 here); lifetime totals across restarts.
  RouterStats counters;

  std::shared_ptr<const ShardMap> Map() const {
    std::lock_guard<std::mutex> lock(map_mutex);
    return map;
  }

  void InstallMap(ShardMap next) {
    std::lock_guard<std::mutex> lock(map_mutex);
    map = std::make_shared<const ShardMap>(std::move(next));
  }

  void AddOverride(const std::string& id, const BackendAddress& address) {
    std::lock_guard<std::mutex> lock(override_mutex);
    if (overrides.emplace(id, address).second) {
      override_count.fetch_add(1, std::memory_order_release);
    }
  }

  void EraseOverride(const std::string& id) {
    std::lock_guard<std::mutex> lock(override_mutex);
    if (overrides.erase(id) > 0) {
      override_count.fetch_sub(1, std::memory_order_release);
    }
  }

  /// `backends` plus the override targets they do not list: backends off
  /// the map where sessions stranded by a failed rebalance still live.
  std::vector<BackendAddress> WithOverrideTargets(
      std::vector<BackendAddress> backends) {
    std::lock_guard<std::mutex> lock(override_mutex);
    for (const auto& [id, address] : overrides) {
      if (std::find(backends.begin(), backends.end(), address) ==
          backends.end()) {
        backends.push_back(address);
      }
    }
    return backends;
  }

  /// The routing handler of reactor shard `index`.
  Shard* RoutingShard(size_t index);
  void WakeAll() {
    for (size_t i = 0; i < reactor.shard_count(); ++i) {
      reactor.shard(i)->Wake();
    }
  }
};

/// The router's per-shard handler: peeks each client frame, forwards it to
/// the owning backend over a pooled connection registered with the same
/// reactor (or fans it out, or answers it locally), and releases the
/// answers in request order.
class Router::Impl::Shard : public Reactor::Handler {
 public:
  Shard(Impl* impl, Reactor::Shard* shard) : impl_(impl), shard_(shard) {}

  /// Requests forwarded and not yet answered, for the rebalance drain.
  std::atomic<uint64_t> in_flight_count{0};
  /// Set once the shard has observed `paused` and finished the loop
  /// iteration — after this, no new dispatch until the pause lifts.
  std::atomic<bool> pause_ack{false};

  std::unique_ptr<Conn> NewConn(size_t max_frame_bytes) override {
    return std::make_unique<ClientConn>(max_frame_bytes);
  }

  bool CanDispatch(const Conn& /*conn*/) const override {
    return !impl_->paused.load(std::memory_order_acquire);
  }

  void Dispatch(Conn* conn, FrameReader::Event&& event) override {
    auto* client = static_cast<ClientConn*>(conn);
    Route(client, std::move(event));
    Pump(client);
  }

  /// Backend response frames: each fills the slot it answers.
  void OnPeerFrames(Conn* conn) override {
    auto* backend = static_cast<BackendConn*>(conn);
    const uint64_t id = backend->id;
    while (backend->reader.HasEvent()) {
      FrameReader::Event event = backend->reader.Next();
      if (event.kind == FrameReader::Event::Kind::kBadFrame) {
        shard_->Close(backend, "bad response frame: " + event.error);
        return;
      }
      OnBackendResponse(backend, std::move(event.payload));
      // A frame nobody asked for closes the connection.
      if (shard_->Find(id) == nullptr) return;
    }
  }

  /// A dying backend connection fails every request in flight on it with
  /// Unavailable; the next request routed there re-dials.
  void OnClose(Conn* conn, std::string_view reason) override {
    if (conn->accepted) return;
    auto* backend = static_cast<BackendConn*>(conn);
    std::deque<Forwarded> orphans;
    orphans.swap(backend->in_flight);
    in_flight_count.fetch_sub(orphans.size(), std::memory_order_relaxed);
    common::BumpCounter(impl_->counters.backend_errors, orphans.size());
    backends_.erase(backend->address);
    const std::string error = SerializeError(Status::Unavailable(
        "backend " + backend->address + ": " + std::string(reason)));
    for (Forwarded& entry : orphans) {
      auto* client = static_cast<ClientConn*>(shard_->Find(entry.client_id));
      if (client == nullptr) continue;
      for (Pending& slot : client->pending) {
        if (slot.seq != entry.seq) continue;
        if (!slot.ready) {
          slot.ready = true;
          slot.kind = Pending::Kind::kSingle;
          slot.body = error;
        }
        break;
      }
      Touch(client);
    }
  }

  void AfterPoll() override {
    const bool paused_now = impl_->paused.load(std::memory_order_acquire);
    // Dispatch resumed: requests queued while paused generate no new
    // socket events, so every client is stepped by hand.
    if (was_paused_ && !paused_now) shard_->StepAll();
    was_paused_ = paused_now;
    // Clients whose slots filled while handling backend I/O: send what is
    // ready and dispatch inputs the pending-slot cap had parked. Stepping
    // can touch more clients (a dispatch hitting a dead backend), hence
    // the loop.
    while (!touched_.empty()) {
      std::vector<uint64_t> touched;
      touched.swap(touched_);
      for (const uint64_t id : touched) {
        if (Conn* client = shard_->Find(id)) shard_->Step(client);
      }
    }
    // With the pause observed and this iteration's dispatches counted in
    // in_flight_count, acking is what lets Rebalance trust a zero
    // in-flight sum: no dispatch can follow the ack until unpause.
    pause_ack.store(paused_now, std::memory_order_release);
  }

 private:
  /// Moves every ready front slot to the output queue; the reactor flushes
  /// it when it steps the connection.
  void Pump(ClientConn* client) {
    while (!client->pending.empty() && client->pending.front().ready) {
      shard_->Enqueue(client, std::move(client->pending.front().body));
      client->pending.pop_front();
      --client->held;
    }
  }

  void Touch(ClientConn* client) {
    Pump(client);
    touched_.push_back(client->id);
  }

  Pending& PushSlot(ClientConn* client) {
    client->pending.emplace_back();
    client->pending.back().seq = client->next_seq++;
    ++client->held;
    return client->pending.back();
  }

  /// Answers a request locally (no backend round trip).
  void PushLocal(ClientConn* client, std::string&& body) {
    Pending& slot = PushSlot(client);
    slot.ready = true;
    slot.body = std::move(body);
    common::BumpCounter(impl_->counters.local_answers);
  }

  /// The live connection to `address`, dialing if necessary. Null on
  /// connect failure, with `*error` set.
  BackendConn* EnsureBackend(const BackendAddress& address,
                             std::string* error) {
    const std::string key = ToString(address);
    auto it = backends_.find(key);
    if (it != backends_.end()) return it->second;
    auto failed = dial_failures_.find(key);
    if (failed != dial_failures_.end()) {
      if (std::chrono::steady_clock::now() < failed->second.until) {
        *error = failed->second.error;
        common::BumpCounter(impl_->counters.dial_backoffs);
        return nullptr;
      }
      dial_failures_.erase(failed);
    }
    auto fd = DialTcp(address.host, address.port,
                      impl_->options.admin_deadline_millis);
    if (!fd.ok()) {
      *error = fd.status().message();
      dial_failures_[key] = {
          std::chrono::steady_clock::now() +
              std::chrono::milliseconds(impl_->options.connect_backoff_millis),
          *error};
      return nullptr;
    }
    auto conn = std::make_unique<BackendConn>(impl_->options.max_frame_bytes);
    conn->fd = fd.value();
    conn->address = key;
    auto* backend =
        static_cast<BackendConn*>(shard_->Register(std::move(conn)));
    backends_.emplace(key, backend);
    common::BumpCounter(impl_->counters.backend_reconnects);
    return backend;
  }

  /// Queues `payload` on the backend owning it and records the slot to
  /// fill when the response comes back.
  void Forward(ClientConn* client, const BackendAddress& address,
               std::string&& payload, std::string close_id) {
    std::string error;
    BackendConn* backend = EnsureBackend(address, &error);
    if (backend == nullptr) {
      shard_->pool().Release(std::move(payload));
      common::BumpCounter(impl_->counters.backend_errors);
      PushLocal(client, SerializeError(Status::Unavailable(
                            "backend " + ToString(address) + ": " + error)));
      return;
    }
    Pending& slot = PushSlot(client);
    backend->in_flight.push_back({client->id, slot.seq, std::move(close_id)});
    in_flight_count.fetch_add(1, std::memory_order_relaxed);
    shard_->Enqueue(backend, std::move(payload));
    common::BumpCounter(impl_->counters.frames_forwarded);
    shard_->Flush(backend);  // a dead socket fails the slot via OnClose
  }

  /// Broadcasts `payload` to every backend in the map — plus any override
  /// targets the map no longer lists, where sessions stranded by a failed
  /// rebalance still live — and merges the responses into one slot.
  void FanOut(ClientConn* client, Pending::Kind kind, std::string&& payload) {
    const std::shared_ptr<const ShardMap> map = impl_->Map();
    const std::vector<BackendAddress> targets =
        impl_->override_count.load(std::memory_order_acquire) > 0
            ? impl_->WithOverrideTargets(map->backends)
            : map->backends;
    Pending& slot = PushSlot(client);
    slot.kind = kind;
    slot.awaiting = static_cast<uint32_t>(targets.size());
    slot.parts.reserve(targets.size());
    const uint64_t seq = slot.seq;
    common::BumpCounter(impl_->counters.fanouts);
    for (const BackendAddress& address : targets) {
      std::string error;
      BackendConn* backend = EnsureBackend(address, &error);
      if (backend == nullptr) {
        // One unreachable backend fails the whole merge: a partial sum
        // would silently under-report. (`slot` stays valid: deque
        // references survive push_backs at the ends.)
        common::BumpCounter(impl_->counters.backend_errors);
        slot.ready = true;
        slot.kind = Pending::Kind::kSingle;
        slot.awaiting = 0;
        slot.parts.clear();
        slot.body = SerializeError(Status::Unavailable(
            "backend " + ToString(address) + ": " + error));
        break;
      }
      std::string copy = shard_->pool().Acquire();
      copy.assign(payload);
      backend->in_flight.push_back({client->id, seq, std::string()});
      in_flight_count.fetch_add(1, std::memory_order_relaxed);
      shard_->Enqueue(backend, std::move(copy));
      common::BumpCounter(impl_->counters.frames_forwarded);
      if (!shard_->Flush(backend)) break;  // OnClose completed the slot
    }
    shard_->pool().Release(std::move(payload));
  }

  /// One response frame from a backend: fill the slot it answers.
  void OnBackendResponse(BackendConn* backend, std::string&& payload) {
    if (backend->in_flight.empty()) {
      // A response nobody asked for: protocol corruption.
      shard_->pool().Release(std::move(payload));
      shard_->Close(backend, "unsolicited response");
      return;
    }
    Forwarded entry = std::move(backend->in_flight.front());
    backend->in_flight.pop_front();
    in_flight_count.fetch_sub(1, std::memory_order_relaxed);
    if (!entry.close_id.empty() && payload.rfind("{\"ok\"", 0) == 0) {
      impl_->EraseOverride(entry.close_id);
    }
    auto* client = static_cast<ClientConn*>(shard_->Find(entry.client_id));
    if (client == nullptr) {
      shard_->pool().Release(std::move(payload));  // client died mid-request
      return;
    }
    for (Pending& slot : client->pending) {
      if (slot.seq != entry.seq) continue;
      if (slot.ready) break;  // already failed (backend death, fan-out)
      if (slot.kind == Pending::Kind::kSingle) {
        slot.ready = true;
        slot.body = std::move(payload);
      } else {
        slot.parts.push_back(std::move(payload));
        if (--slot.awaiting == 0) {
          if (slot.kind == Pending::Kind::kCounters) {
            auto merged = MergeCountersFrames(slot.parts);
            slot.body = merged.ok() ? std::move(merged.value())
                                    : SerializeError(merged.status());
          } else {
            slot.body = MergeSessionsFrames(slot.parts);
          }
          slot.parts.clear();
          slot.ready = true;
        }
      }
      break;
    }
    Touch(client);
  }

  /// The backend owning `id`: the override table first (non-quiescent
  /// sessions pinned to their pre-rebalance home), then jump hash.
  BackendAddress Owner(std::string_view id,
                       const std::shared_ptr<const ShardMap>& map) {
    if (impl_->override_count.load(std::memory_order_acquire) > 0) {
      std::lock_guard<std::mutex> lock(impl_->override_mutex);
      auto it = impl_->overrides.find(std::string(id));
      if (it != impl_->overrides.end()) return it->second;
    }
    return map->backends[ShardFor(id, map->backends.size())];
  }

  void Route(ClientConn* client, FrameReader::Event&& event) {
    BufferPool& pool = shard_->pool();
    if (event.kind == FrameReader::Event::Kind::kBadFrame) {
      PushLocal(client, BadFrameError(event));
      return;
    }
    arena_.Reset();
    auto peeked = PeekRequest(event.payload, &arena_);
    if (!peeked.ok()) {
      pool.Release(std::move(event.payload));
      PushLocal(client, SerializeError(peeked.status()));
      return;
    }
    const RequestPeek& peek = peeked.value();
    const std::string_view op = peek.op;
    if (op == "counters" || op == "sessions") {
      FanOut(client,
             op == "counters" ? Pending::Kind::kCounters
                              : Pending::Kind::kSessions,
             std::move(event.payload));
      return;
    }
    const std::shared_ptr<const ShardMap> map = impl_->Map();
    if (op == "open") {
      if (peek.has_id) {
        Forward(client, Owner(peek.id, map), std::move(event.payload),
                std::string());
        return;
      }
      // Mint the handle here so placement is decided before any backend
      // sees the open.
      char minted[2 + 16 + 1];
      std::snprintf(minted, sizeof(minted), "r-%016llx",
                    static_cast<unsigned long long>(
                        impl_->next_minted.fetch_add(
                            1, std::memory_order_relaxed)));
      std::string rebuilt = pool.Acquire();
      AppendOpenWithId(*peek.root, minted, &rebuilt);
      pool.Release(std::move(event.payload));
      if (rebuilt.size() > impl_->options.max_frame_bytes) {
        // The minted id pushed the open past the frame cap; no backend
        // could read it, so answer here.
        const size_t size = rebuilt.size();
        pool.Release(std::move(rebuilt));
        PushLocal(client, SerializeError(Status::InvalidArgument(
                              "open of " + std::to_string(size) +
                              " bytes with a minted id exceeds the frame "
                              "limit")));
        return;
      }
      common::BumpCounter(impl_->counters.ids_minted);
      Forward(client, Owner(minted, map), std::move(rebuilt), std::string());
      return;
    }
    const bool needs_id = op == "ask" || op == "tell" || op == "oracle" ||
                          op == "status" || op == "close" ||
                          op == "export" || op == "import";
    if (!needs_id) {
      std::string body = UnknownOpError(op);  // `op` views the payload
      pool.Release(std::move(event.payload));
      PushLocal(client, std::move(body));
      return;
    }
    if (!peek.has_id) {
      pool.Release(std::move(event.payload));
      PushLocal(client, MissingIdError());
      return;
    }
    std::string close_id;
    if (op == "close" &&
        impl_->override_count.load(std::memory_order_acquire) > 0) {
      close_id = std::string(peek.id);
    }
    Forward(client, Owner(peek.id, map), std::move(event.payload),
            std::move(close_id));
  }

  Impl* const impl_;
  Reactor::Shard* const shard_;
  service::json::Arena arena_;  // reset per peeked frame
  bool was_paused_ = false;
  std::vector<uint64_t> touched_;

  /// This shard's backend connections by "host:port"; each is also a
  /// registered reactor connection, removed here in OnClose.
  std::map<std::string, BackendConn*> backends_;

  /// Recent dial failures: until the entry expires, requests routed to
  /// that backend fail fast with the cached error instead of burning
  /// another admin_deadline_millis blocking the whole reactor.
  struct DialFailure {
    std::chrono::steady_clock::time_point until;
    std::string error;
  };
  std::map<std::string, DialFailure> dial_failures_;
};

Router::Impl::Shard* Router::Impl::RoutingShard(size_t index) {
  return static_cast<Shard*>(reactor.shard(index)->handler());
}

Router::Router(ShardMap map, RouterOptions options) {
  if (map.generation == 0) map.generation = 1;
  impl_ = std::make_unique<Impl>(std::move(map), std::move(options));
}

Router::~Router() { Stop(); }

common::Status Router::Start() {
  Impl* impl = impl_.get();
  if (impl->reactor.running()) {
    return Status::FailedPrecondition("router already running");
  }
  if (impl->Map()->empty()) {
    return Status::InvalidArgument("shard map has no backends");
  }
  // Minted ids keep their "r-" + 16 hex digit shape, but the counter's
  // high 32 bits are a per-Start nonce: a restarted router (or a second
  // instance) mints from a different range instead of replaying 1, 2, 3
  // into backends that may still hold those handles.
  {
    std::random_device entropy;
    const uint64_t nonce =
        (static_cast<uint64_t>(entropy()) ^
         static_cast<uint64_t>(std::chrono::steady_clock::now()
                                   .time_since_epoch()
                                   .count())) &
        0xffffffffull;
    impl->next_minted.store((nonce << 32) | 1, std::memory_order_relaxed);
  }
  impl->paused.store(false, std::memory_order_release);
  return impl->reactor.Start([impl](Reactor::Shard* shard) {
    return std::make_unique<Impl::Shard>(impl, shard);
  });
}

void Router::Stop() { impl_->reactor.Stop(); }

uint16_t Router::port() const { return impl_->reactor.port(); }

ShardMap Router::shard_map() const { return *impl_->Map(); }

common::Status Router::Rebalance(std::vector<BackendAddress> backends) {
  Impl* impl = impl_.get();
  if (backends.empty()) {
    return Status::InvalidArgument("rebalance needs at least one backend");
  }
  if (!impl->reactor.running()) {
    return Status::FailedPrecondition("router not running");
  }
  std::lock_guard<std::mutex> rebalance_lock(impl->rebalance_mutex);
  const ShardMap old = *impl->Map();

  // Pause dispatch and drain: once every shard acks the pause, the
  // in-flight sum can only fall; zero means the fleet is request-silent
  // and sessions can quiesce.
  impl->paused.store(true, std::memory_order_release);
  // A shard's ack can still be true from the previous rebalance (it is
  // only rewritten at the end of a loop iteration). Clear them all so the
  // drain below trusts only acks that observed *this* pause.
  const size_t shards = impl->reactor.shard_count();
  for (size_t i = 0; i < shards; ++i) {
    impl->RoutingShard(i)->pause_ack.store(false, std::memory_order_release);
  }
  impl->WakeAll();
  auto resume = [impl] {
    impl->paused.store(false, std::memory_order_release);
    impl->WakeAll();
  };
  const auto drain_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(impl->options.drain_deadline_millis);
  for (;;) {
    bool acked = true;
    uint64_t in_flight = 0;
    for (size_t i = 0; i < shards; ++i) {
      Impl::Shard* shard = impl->RoutingShard(i);
      if (!shard->pause_ack.load(std::memory_order_acquire)) acked = false;
      in_flight += shard->in_flight_count.load(std::memory_order_relaxed);
    }
    if (acked && in_flight == 0) break;
    if (std::chrono::steady_clock::now() >= drain_deadline) {
      resume();
      return Status::DeadlineExceeded(
          "rebalance: in-flight requests did not drain");
    }
    impl->WakeAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Migrate every session whose owner changes, over fresh control-plane
  // connections (deadline-bounded so a wedged backend fails the rebalance
  // instead of hanging it). Sessions pinned by an override live on their
  // pinned backend, which is where ListSessions finds them.
  std::map<std::string, Client> admin;
  auto admin_client = [&](const BackendAddress& address) -> Client* {
    const std::string key = ToString(address);
    auto it = admin.find(key);
    if (it != admin.end()) return &it->second;
    auto connected =
        Client::Connect(address.host, address.port,
                        impl->options.max_frame_bytes,
                        impl->options.admin_deadline_millis);
    if (!connected.ok()) return nullptr;
    return &admin.emplace(key, std::move(connected.value())).first->second;
  };
  // Sessions already moved when a later step fails: pinned to their new
  // home so the old map still routes them, then the rebalance aborts.
  std::vector<std::pair<std::string, BackendAddress>> moved;
  auto abort_rebalance = [&](Status status) {
    for (const auto& [id, address] : moved) impl->AddOverride(id, address);
    resume();
    return status;
  };

  // The sources to sweep: every backend of the old map, plus any override
  // targets that are off-map (sessions stranded by an earlier rebalance).
  const std::vector<BackendAddress> sources =
      impl->WithOverrideTargets(old.backends);

  for (const BackendAddress& source : sources) {
    Client* from = admin_client(source);
    if (from == nullptr) {
      return abort_rebalance(Status::Unavailable(
          "rebalance: cannot reach backend " + ToString(source)));
    }
    auto listed = from->ListSessions();
    if (!listed.ok()) return abort_rebalance(listed.status());
    for (const std::string& id : listed.value()) {
      const BackendAddress target =
          backends[ShardFor(id, backends.size())];
      if (target == source) {
        impl->EraseOverride(id);  // the new map's home is where it lives
        continue;
      }
      auto exported = from->ExportSession(id);
      if (!exported.ok()) {
        if (exported.status().code() ==
            common::StatusCode::kFailedPrecondition) {
          // Labels pending: the session cannot park. Pin it where it is
          // and migrate it on a later rebalance (or let close retire it).
          impl->AddOverride(id, source);
          common::BumpCounter(impl->counters.handoff_skipped);
          continue;
        }
        return abort_rebalance(exported.status());
      }
      Client* to = admin_client(target);
      Status imported =
          to == nullptr ? Status::Unavailable("rebalance: cannot reach " +
                                              ToString(target))
                        : to->ImportSession(id, exported.value().scenario,
                                            exported.value().image);
      if (!imported.ok()) {
        // Put the session back where it came from; if even that fails the
        // image is lost and the error says so.
        const Status restored = from->ImportSession(
            id, exported.value().scenario, exported.value().image);
        if (!restored.ok()) {
          return abort_rebalance(Status::DataLoss(
              "rebalance: import failed (" + imported.message() +
              ") and restore failed (" + restored.message() +
              ") for session " + id));
        }
        return abort_rebalance(imported);
      }
      impl->EraseOverride(id);
      moved.emplace_back(id, target);
      common::BumpCounter(impl->counters.handoffs);
    }
  }

  ShardMap next;
  next.generation = old.generation + 1;
  next.backends = std::move(backends);
  impl->InstallMap(std::move(next));
  common::BumpCounter(impl->counters.rebalances);
  resume();
  return Status::OK();
}

RouterStats Router::stats() const {
  RouterStats snapshot;
  common::LoadCounters(impl_->counters, kRouterStatsFields, &snapshot);
  static_cast<ReactorStats&>(snapshot) = impl_->reactor.stats();
  return snapshot;
}

}  // namespace net
}  // namespace qlearn
