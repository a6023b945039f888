// Consistent-hash routing front tier: one process that looks like a
// net::Server to clients and like a client to N backend servers.
//
// The router is one Reactor (net/reactor.h) — the same sharded poll loop,
// framing, output queues and backpressure rule as net::Server — with a
// routing handler. For each client frame the handler *peeks* the session
// id with the arena view-mode parser (net::PeekRequest — no heap tree, no
// copies, no full validation), picks the owning backend by jump
// consistent hash over the shard map (net/shard_map.h), and forwards the
// frame bytes verbatim over a pooled backend connection that the shard
// dials (net::DialTcp) and registers with its own reactor. Responses come
// back as opaque bytes — the router never re-serializes a payload it
// routed, which is what keeps golden replays byte-identical through it.
//
// Ordering: responses to one client go out strictly in request-arrival
// order, even when consecutive requests land on different backends. Each
// client connection keeps a FIFO of pending slots; a slot filled out of
// order waits for the slots ahead of it. Pending slots count toward
// max_queued_frames together with unsent responses, so a client that
// pipelines but never reads stalls in TCP flow control.
//
// Special cases handled router-side:
//   - `open` without an id gets one minted here ("r-" + 16 hex digits),
//     injected with net::AppendOpenWithId, so placement is decided before
//     any backend sees the request. An open the minted id pushes past
//     max_frame_bytes is answered here with InvalidArgument.
//   - `counters` and `sessions` fan out to every backend in the map —
//     plus any override-pinned backends the map no longer lists — and
//     the responses are merged (op counts and log2 latency histograms sum
//     bucket-wise; id lists concatenate).
//   - A request whose id is missing or malformed is answered with the
//     same structured error frame the backend would send — without a
//     backend round trip.
//   - A backend dying mid-call fails its in-flight requests with
//     Unavailable; other shards keep serving, and the connection is
//     re-established on next use.
//
// Rebalance is snapshot handoff (Rebalance()): dispatch pauses, in-flight
// requests drain to zero, every session whose jump-hash owner changes is
// exported from its old backend (park + checksummed QLSV image) and
// imported on the new one, then the new map installs with generation+1
// and dispatch resumes. A session that cannot quiesce (labels still
// pending) stays where it is behind a routing override that is retired
// when the session closes.
#ifndef QLEARN_NET_ROUTER_H_
#define QLEARN_NET_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/counters.h"
#include "common/status.h"
#include "net/frame.h"
#include "net/reactor.h"
#include "net/shard_map.h"

namespace qlearn {
namespace net {

/// The reactor's listener and sizing fields (net/reactor.h; each shard
/// also owns its own pooled connections to every backend), plus:
struct RouterOptions : ReactorOptions {
  /// Deadline for control-plane work: backend connects on the hot path and
  /// the export/import/sessions calls a rebalance makes.
  int64_t admin_deadline_millis = 5000;
  /// After a backend dial fails, further dials to it fail fast (with the
  /// cached error) for this long, so one unreachable backend can't stall
  /// the reactor for admin_deadline_millis on every request routed to it.
  int64_t connect_backoff_millis = 1000;
  /// How long Rebalance() waits for in-flight requests to drain before
  /// giving up and resuming with the old map.
  int64_t drain_deadline_millis = 10000;
};

/// The routing counters, lifetime totals across restarts.
#define QLEARN_ROUTER_STATS(X)                                            \
  X(frames_forwarded)   /* frames dispatched to a backend */              \
  X(local_answers)      /* answered without a backend round trip */       \
  X(fanouts)            /* counters/sessions broadcasts */                \
  X(ids_minted)         /* router-minted open ids */                      \
  X(backend_reconnects) /* backend connections established */             \
  X(backend_errors)     /* in-flight requests failed Unavailable */       \
  X(dial_backoffs)      /* dials skipped by the failure cache */          \
  X(handoffs)           /* sessions migrated by rebalances */             \
  X(handoff_skipped)    /* non-quiescent sessions left behind */          \
  X(rebalances)         /* successful map installs */

/// Lifetime statistics of one router: the reactor's counters over client
/// connections, plus the routing counters.
struct RouterStats : ReactorStats {
  QLEARN_ROUTER_STATS(QLEARN_COUNTER_MEMBER)
};

/// Every field: the reactor's, then the routing counters.
inline constexpr common::CounterField<RouterStats> kRouterStatsFields[] = {
#define QLEARN_FIELD(name) {#name, &RouterStats::name},
    QLEARN_REACTOR_STATS(QLEARN_FIELD) QLEARN_ROUTER_STATS(QLEARN_FIELD)
#undef QLEARN_FIELD
};

class Router {
 public:
  /// Routes over `map.backends`; the map's generation is bumped to 1 if 0.
  Router(ShardMap map, RouterOptions options = {});
  ~Router();  ///< calls Stop()

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds, listens, and starts the reactor shards. Fails without leaking
  /// resources; safe to retry.
  common::Status Start();

  /// Shuts down: closes every client and backend connection, joins all
  /// threads. Idempotent; also called by the destructor.
  void Stop();

  /// The bound port; valid after a successful Start().
  uint16_t port() const;

  /// The current shard map (a copy, with its generation).
  ShardMap shard_map() const;

  /// Installs a new backend list via snapshot handoff: pause, drain,
  /// migrate every session whose owner changes, install generation+1,
  /// resume. Serialized (one rebalance at a time); on failure the old map
  /// stays installed and any sessions already moved are reachable through
  /// routing overrides, so a failed rebalance degrades, never corrupts.
  common::Status Rebalance(std::vector<BackendAddress> backends);

  RouterStats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace net
}  // namespace qlearn

#endif  // QLEARN_NET_ROUTER_H_
