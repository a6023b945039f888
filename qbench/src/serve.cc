#include "serve.h"

#include <atomic>
#include <thread>

#include "net/client.h"
#include "net/shard_map.h"

namespace qbench {

using qlearn::common::Status;
namespace net = qlearn::net;
namespace service = qlearn::service;

Status CountingStore::Put(const std::string& key, std::string_view image) {
  const Clock::time_point begin = Clock::now();
  Status stored = inner_.Put(key, image);
  const double us = MicrosBetween(begin, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.put_us.push_back(us);
  totals_.put_bytes += image.size();
  return stored;
}

qlearn::common::Result<std::string> CountingStore::Get(const std::string& key) {
  const Clock::time_point begin = Clock::now();
  auto image = inner_.Get(key);
  const double us = MicrosBetween(begin, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.get_us.push_back(us);
  return image;
}

CountingStore::Totals CountingStore::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  Totals taken = std::move(totals_);
  totals_ = Totals{};
  return taken;
}

void Fleet::Stop() {
  if (router) router->Stop();  // before its backends go away
  for (auto& server : servers) server->Stop();
}

Status StartServer(service::SessionService* svc, size_t reactors,
                   std::unique_ptr<net::Server>* server) {
  net::ServerOptions options;
  options.workers = 0;  // inline dispatch on the reactor thread
  options.reactors = reactors;
  *server = std::make_unique<net::Server>(svc, options);
  return (*server)->Start();
}

Status StartFleet(size_t backends, Fleet* fleet) {
  net::ShardMap map;
  for (size_t i = 0; i < backends; ++i) {
    fleet->services.push_back(std::make_unique<service::SessionService>());
    std::unique_ptr<net::Server> server;
    QLEARN_RETURN_IF_ERROR(
        StartServer(fleet->services.back().get(), 1, &server));
    map.backends.push_back({"127.0.0.1", server->port()});
    fleet->servers.push_back(std::move(server));
  }
  net::RouterOptions options;
  options.reactors = 1;
  fleet->router = std::make_unique<net::Router>(std::move(map), options);
  return fleet->router->Start();
}

service::ServiceCounters DiffCounters(const service::ServiceCounters& after,
                                      const service::ServiceCounters& b) {
  service::ServiceCounters d = after;
  d.opens -= b.opens;
  d.asks -= b.asks;
  d.tells -= b.tells;
  d.oracles -= b.oracles;
  d.statuses -= b.statuses;
  d.closes -= b.closes;
  d.errors -= b.errors;
  d.questions_served -= b.questions_served;
  d.labels_accepted -= b.labels_accepted;
  d.hibernates -= b.hibernates;
  d.rehydrates -= b.rehydrates;
  d.hibernate_errors -= b.hibernate_errors;
  d.exports -= b.exports;
  d.imports -= b.imports;
  auto diff = [](service::LatencySnapshot* x,
                 const service::LatencySnapshot& y) {
    for (size_t i = 0; i < service::LatencySnapshot::kBuckets; ++i) {
      x->buckets[i] -= y.buckets[i];
    }
  };
  diff(&d.open_latency_us, b.open_latency_us);
  diff(&d.ask_latency_us, b.ask_latency_us);
  diff(&d.tell_latency_us, b.tell_latency_us);
  diff(&d.oracle_latency_us, b.oracle_latency_us);
  diff(&d.status_latency_us, b.status_latency_us);
  diff(&d.close_latency_us, b.close_latency_us);
  return d;
}

namespace {

enum class Outcome { kOk, kError, kMismatch };

/// Speaks the framed protocol over one connection and byte-compares every
/// response with the golden.
class SocketClient {
 public:
  explicit SocketClient(net::Client* client) : client_(client) {}

  Outcome Open(const Golden& golden, std::string* id, std::string* note) {
    auto response = client_->CallRaw(golden.steps.front().prefix);
    if (!response.ok()) {
      *note = response.status().ToString();
      return Outcome::kError;
    }
    if (!ParseOpenId(response.value(), id)) {
      *note = "open answered " + response.value();
      return Outcome::kError;
    }
    return Outcome::kOk;
  }

  Outcome Step(const GoldenStep& step, const std::string& id,
               std::string* note) {
    frame_ = step.prefix;
    frame_ += id;
    frame_ += step.suffix;
    auto response = client_->CallRaw(frame_);
    if (!response.ok()) {
      *note = response.status().ToString();
      return Outcome::kError;
    }
    if (response.value() == step.expect) {
      if (step.op == GoldenStep::Op::kClose &&
          !ParseCloseQuestions(response.value(), &closed_questions)) {
        *note = "close answered without stats.questions";
        return Outcome::kMismatch;
      }
      return Outcome::kOk;
    }
    *note = "served " + response.value().substr(0, 160);
    return response.value().rfind("{\"error\"", 0) == 0 ? Outcome::kError
                                                         : Outcome::kMismatch;
  }

  /// SessionStats::questions of the last validated close.
  uint64_t closed_questions = 0;

  void Abandon(const std::string& id) {
    qlearn::net::Request close;
    close.op = qlearn::net::Request::Op::kClose;
    close.id = id;
    (void)client_->CallRaw(qlearn::net::Serialize(close));
  }

 private:
  net::Client* client_;
  std::string frame_;
};

/// One client thread's tallies.
struct ThreadTally {
  LoadResult result;
  uint64_t questions = 0;  ///< questions received in validated asks
  uint64_t labels = 0;     ///< labels in validated tells
  /// Sum of SessionStats::questions over the validated closes.
  uint64_t closed_questions = 0;
};

/// The closed loop of one client thread: `slots` sessions multiplexed
/// round-robin, one request in flight. Stops at `deadline` or once
/// `session_limit` sessions were started.
void Drive(SocketClient* client, const std::vector<Golden>& goldens,
           uint64_t seed, std::atomic<uint64_t>* next_index,
           uint64_t index_base, Clock::time_point deadline,
           uint64_t session_limit, ThreadTally* tally) {
  struct Slot {
    const Golden* golden = nullptr;
    size_t step = 0;
    std::string id;
    bool asked = false;
    Clock::time_point opened;
    Clock::time_point ready;
  };
  LoadResult& r = tally->result;
  uint64_t started = 0;
  auto start_session = [&](Slot* slot) {
    if (started >= session_limit) {
      slot->golden = nullptr;
      return;
    }
    ++started;
    const uint64_t index = index_base + next_index->fetch_add(1);
    slot->golden = &goldens[GoldenFor(seed, index, goldens.size())];
    slot->step = 0;
    slot->id.clear();
    slot->asked = false;
    slot->ready = Clock::now();
  };
  std::vector<Slot> slots(kSessionsPerThread);
  for (Slot& slot : slots) start_session(&slot);
  std::string note;
  for (size_t cursor = 0;; cursor = (cursor + 1) % slots.size()) {
    Slot& slot = slots[cursor];
    if (slot.golden == nullptr) {
      bool any = false;
      for (const Slot& other : slots) any = any || other.golden != nullptr;
      if (!any) break;
      continue;
    }
    const GoldenStep& step = slot.golden->steps[slot.step];
    const Clock::time_point sent = Clock::now();
    if (sent >= deadline) break;
    const Outcome outcome =
        step.op == GoldenStep::Op::kOpen
            ? client->Open(*slot.golden, &slot.id, &note)
            : client->Step(step, slot.id, &note);
    const Clock::time_point received = Clock::now();
    ++r.attempted;
    if (outcome != Outcome::kOk) {
      if (outcome == Outcome::kError) {
        ++r.errors;
      } else {
        ++r.mismatches;
      }
      r.Note(slot.golden->name + " step " + std::to_string(slot.step) + ": " +
             note);
      if (!slot.id.empty() && step.op != GoldenStep::Op::kClose) {
        client->Abandon(slot.id);
      }
      start_session(&slot);
      continue;
    }
    Window& window = r.At(received);
    ++window.validated;
    switch (step.op) {
      case GoldenStep::Op::kOpen:
        slot.opened = sent;
        break;
      case GoldenStep::Op::kAsk:
        if (slot.asked) {
          window.ask_us.push_back(MicrosBetween(slot.ready, received));
        } else {
          window.first_question_us.push_back(
              MicrosBetween(slot.opened, received));
          slot.asked = true;
        }
        tally->questions += step.questions;
        break;
      case GoldenStep::Op::kTell:
        window.tell_us.push_back(MicrosBetween(slot.ready, received));
        tally->labels += step.labels.size();
        break;
      case GoldenStep::Op::kClose:
        ++window.sessions;
        tally->closed_questions += client->closed_questions;
        break;
    }
    if (++slot.step == slot.golden->steps.size()) {
      start_session(&slot);
    } else {
      slot.ready = Clock::now();
    }
  }
}

}  // namespace

class ServeEnv {
 public:
  uint64_t seed = 0;
  std::vector<Golden> goldens;
  std::unique_ptr<service::SessionService> service;
  std::unique_ptr<net::Server> server;
  uint16_t port = 0;
  std::vector<net::Client> clients;  // one per client thread
  LoadResult warmup;

  ~ServeEnv() {
    clients.clear();
    if (server) server->Stop();
  }

  /// Runs kClientThreads closed loops and merges their tallies.
  ThreadTally RunThreads(uint64_t index_base, Clock::time_point deadline,
                         uint64_t session_limit, double window_seconds = 0) {
    std::atomic<uint64_t> next_index{0};
    std::vector<ThreadTally> tallies(kClientThreads);
    if (window_seconds > 0) {
      const Clock::time_point start = Clock::now();
      for (ThreadTally& tally : tallies) {
        tally.result.StartWindows(start, window_seconds, kWindows);
      }
    }
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kClientThreads; ++t) {
      threads.emplace_back([&, t] {
        SocketClient client(&clients[t]);
        Drive(&client, goldens, seed, &next_index, index_base, deadline,
              session_limit, &tallies[t]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    ThreadTally merged = std::move(tallies[0]);
    for (size_t t = 1; t < tallies.size(); ++t) {
      merged.result.Merge(std::move(tallies[t].result));
      merged.questions += tallies[t].questions;
      merged.labels += tallies[t].labels;
      merged.closed_questions += tallies[t].closed_questions;
    }
    return merged;
  }

  bool FetchCounters(service::ServiceCounters* counters) {
    auto probe = net::Client::Connect("127.0.0.1", port);
    if (!probe.ok()) return false;
    auto fetched = probe.value().Counters();
    if (!fetched.ok()) return false;
    *counters = fetched.value().first;
    return true;
  }
};

void ServeEnvDeleter::operator()(ServeEnv* env) const { delete env; }

const std::vector<Golden>& GoldensOf(const ServeEnv* env) {
  return env->goldens;
}

const LoadResult& WarmupOf(const ServeEnv* env) { return env->warmup; }

namespace {

// Warmup sessions per client thread: enough to fill buffer pools, arenas
// and allocator caches, and a fixed amount of work so set-up time is a
// steady number.
constexpr uint64_t kWarmupSessions = 300;
// Warmup sessions come from a different part of the seeded stream than the
// measured run, which (like the traced run) starts at index 0.
constexpr uint64_t kWarmupIndexBase = uint64_t{1} << 40;

}  // namespace

ServeEnvPtr SetupServe(const std::string& golden_dir, bool corrupt_golden,
                       uint64_t seed, std::string* error) {
  ServeEnvPtr env(new ServeEnv);
  env->seed = seed;
  Status status = LoadGoldens(golden_dir, corrupt_golden, &env->goldens);
  if (status.ok()) {
    env->service = std::make_unique<service::SessionService>();
    status = StartServer(env->service.get(), 2, &env->server);
    if (status.ok()) env->port = env->server->port();
  }
  if (status.ok()) {
    for (size_t t = 0; t < kClientThreads && status.ok(); ++t) {
      auto client = net::Client::Connect("127.0.0.1", env->port);
      if (client.ok()) {
        env->clients.push_back(std::move(client).value());
      } else {
        status = client.status();
      }
    }
  }
  if (!status.ok()) {
    *error = status.ToString();
    return nullptr;
  }
  // Warmup replays are validated like measured ones; the caller folds
  // their failures into the run's result.
  env->warmup = env->RunThreads(kWarmupIndexBase, Clock::time_point::max(),
                                kWarmupSessions)
                    .result;
  return env;
}

LoadResult RunServe(ServeEnv* env, double seconds, ServerView* view) {
  service::ServiceCounters before;
  const bool have_before = env->FetchCounters(&before);
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  ThreadTally tally =
      env->RunThreads(0, deadline, UINT64_MAX, seconds / kWindows);
  LoadResult result = std::move(tally.result);
  result.seconds = SecondsBetween(start, Clock::now());

  const uint64_t sessions = result.sessions();
  result.questions_per_session =
      sessions == 0 ? 0
                    : static_cast<double>(tally.closed_questions) /
                          static_cast<double>(sessions);

  service::ServiceCounters after;
  view->have_counters = have_before && env->FetchCounters(&after);
  if (view->have_counters) {
    view->counters = DiffCounters(after, before);
    result.hibernate_errors = view->counters.hibernate_errors;
  }
  view->client_questions = tally.questions;
  view->client_labels = tally.labels;
  return result;
}

}  // namespace qbench
