#include "net/server.h"

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "net/reactor.h"
#include "service/json.h"

namespace qlearn {
namespace net {

namespace {

/// One request handed to a shard's worker pool. Connections are referenced
/// by id, not pointer: the connection may be gone by the time the worker
/// finishes, and a stale id simply fails the lookup (the response is
/// dropped).
struct Job {
  uint64_t conn_id = 0;
  std::string payload;
};

struct Completion {
  uint64_t conn_id = 0;
  std::string response;
};

/// The server's per-shard handler: answers each request frame with
/// HandleFrameInto, inline on the shard thread or through the shard's
/// worker pool, whose completions come back through the shard's wake.
class ServerShard : public Reactor::Handler {
 public:
  ServerShard(Reactor::Shard* shard, service::SessionService* service,
              size_t workers)
      : shard_(shard), service_(service) {
    workers_.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ServerShard() override { OnStop(); }

  /// Worker mode parks one request per connection at a time, which keeps
  /// its answers in arrival order.
  bool CanDispatch(const Conn& conn) const override {
    return workers_.empty() || conn.held == 0;
  }

  void Dispatch(Conn* conn, FrameReader::Event&& event) override {
    BufferPool& pool = shard_->pool();
    if (event.kind == FrameReader::Event::Kind::kBadFrame) {
      shard_->Enqueue(conn, BadFrameError(event));
      return;
    }
    if (workers_.empty()) {
      arena_.Reset();
      std::string response = pool.Acquire();
      HandleFrameInto(service_, event.payload, &arena_, &response);
      pool.Release(std::move(event.payload));
      shard_->Enqueue(conn, std::move(response));
      return;
    }
    ++conn->held;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      jobs_.push_back({conn->id, std::move(event.payload)});
    }
    jobs_cv_.notify_one();
  }

  /// Queues finished worker responses on their connections.
  void AfterPoll() override {
    std::deque<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(done_mutex_);
      batch.swap(done_);
    }
    for (Completion& completion : batch) {
      Conn* conn = shard_->Find(completion.conn_id);
      if (conn == nullptr) {
        // Connection died mid-request; recycle the orphaned response.
        shard_->pool().Release(std::move(completion.response));
        continue;
      }
      --conn->held;
      shard_->Enqueue(conn, std::move(completion.response));
      shard_->Step(conn);
    }
  }

  void OnStop() override {
    {
      std::lock_guard<std::mutex> lock(jobs_mutex_);
      stopping_ = true;
      jobs_.clear();
    }
    jobs_cv_.notify_all();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    std::lock_guard<std::mutex> lock(done_mutex_);
    done_.clear();
  }

 private:
  void WorkerLoop() {
    service::json::Arena arena;
    BufferPool& pool = shard_->pool();
    for (;;) {
      Job job;
      {
        std::unique_lock<std::mutex> lock(jobs_mutex_);
        jobs_cv_.wait(lock, [&] { return stopping_ || !jobs_.empty(); });
        if (stopping_) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      arena.Reset();
      std::string response = pool.Acquire();
      HandleFrameInto(service_, job.payload, &arena, &response);
      pool.Release(std::move(job.payload));
      {
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_.push_back({job.conn_id, std::move(response)});
      }
      shard_->Wake();
    }
  }

  Reactor::Shard* const shard_;
  service::SessionService* const service_;
  service::json::Arena arena_;  // inline mode: reset per request

  std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::deque<Job> jobs_;
  bool stopping_ = false;  // guarded by jobs_mutex_

  std::mutex done_mutex_;
  std::deque<Completion> done_;

  std::vector<std::thread> workers_;
};

}  // namespace

Server::Server(service::SessionService* service, ServerOptions options)
    : service_(service), workers_(options.workers), reactor_(options) {}

Server::~Server() { Stop(); }

common::Status Server::Start() {
  if (reactor_.running()) {
    return common::Status::FailedPrecondition("server already running");
  }
  return reactor_.Start([this](Reactor::Shard* shard) {
    return std::make_unique<ServerShard>(shard, service_, workers_);
  });
}

void Server::Stop() { reactor_.Stop(); }

uint16_t Server::port() const { return reactor_.port(); }

ServerStats Server::stats() const { return reactor_.stats(); }

}  // namespace net
}  // namespace qlearn
