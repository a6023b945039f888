// The serve-direct workload: the golden stream over loopback TCP to one
// in-process net::Server. A closed loop of 2 client threads; every thread
// owns one connection and multiplexes a fixed number of open sessions over
// it, replacing each finished session at once with the next one of the
// seeded stream.
#ifndef QBENCH_SERVE_H_
#define QBENCH_SERVE_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "golden.h"
#include "net/router.h"
#include "net/server.h"
#include "service/session_service.h"
#include "service/snapshot_store.h"

namespace qbench {

/// The traced park path's snapshot store: an InMemorySnapshotStore whose
/// Put and Get are timed and counted, so the trace sees the store layer's
/// cost.
class CountingStore : public qlearn::service::SnapshotStore {
 public:
  struct Totals {
    std::vector<double> put_us;
    std::vector<double> get_us;
    uint64_t put_bytes = 0;
  };

  qlearn::common::Status Put(const std::string& key,
                             std::string_view image) override;
  qlearn::common::Result<std::string> Get(const std::string& key) override;
  qlearn::common::Status Delete(const std::string& key) override {
    return inner_.Delete(key);
  }
  size_t Count() const override { return inner_.Count(); }

  /// Returns the tallies since the last call and starts new ones.
  Totals Take();

 private:
  qlearn::service::InMemorySnapshotStore inner_;
  std::mutex mutex_;  // guards totals_
  Totals totals_;
};

/// A routed fleet for the traced run: `backends` in-process servers
/// (1 reactor each, inline dispatch) behind one net::Router (1 reactor), no
/// rebalance.
struct Fleet {
  std::vector<std::unique_ptr<qlearn::service::SessionService>> services;
  std::vector<std::unique_ptr<qlearn::net::Server>> servers;
  std::unique_ptr<qlearn::net::Router> router;

  Fleet() = default;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() { Stop(); }
  void Stop();
};
qlearn::common::Status StartFleet(size_t backends, Fleet* fleet);

/// Starts an inline-dispatch server with `reactors` shards over `service`.
qlearn::common::Status StartServer(
    qlearn::service::SessionService* service, size_t reactors,
    std::unique_ptr<qlearn::net::Server>* server);

/// Field- and bucket-wise `after - before`.
qlearn::service::ServiceCounters DiffCounters(
    const qlearn::service::ServiceCounters& after,
    const qlearn::service::ServiceCounters& before);

/// Client shape of serve-direct.
constexpr size_t kClientThreads = 2;
constexpr size_t kSessionsPerThread = 4;

/// The workload's running system: goldens, service, server and client
/// connections, warmed up. Destroying it stops everything.
class ServeEnv;

struct ServeEnvDeleter {
  void operator()(ServeEnv* env) const;
};
using ServeEnvPtr = std::unique_ptr<ServeEnv, ServeEnvDeleter>;

/// Builds and warms up the workload's system. On error returns null and
/// sets `*error`.
ServeEnvPtr SetupServe(const std::string& golden_dir, bool corrupt_golden,
                       uint64_t seed, std::string* error);

/// The server-side view of a loaded run, for per-layer cross-checks.
struct ServerView {
  qlearn::service::ServiceCounters counters;  ///< differenced over the run
  bool have_counters = false;
  uint64_t client_questions = 0;  ///< questions the clients received
  uint64_t client_labels = 0;     ///< labels the clients sent and had accepted
};

/// Runs the measured closed loop for `seconds`.
LoadResult RunServe(ServeEnv* env, double seconds, ServerView* view);

const std::vector<Golden>& GoldensOf(const ServeEnv* env);
/// The warmup replay's tallies (validated like the measured run).
const LoadResult& WarmupOf(const ServeEnv* env);

}  // namespace qbench

#endif  // QBENCH_SERVE_H_
