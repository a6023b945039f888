#include "net/server.h"

#include <memory>
#include <string>
#include <utility>

#include "net/protocol.h"
#include "net/reactor.h"
#include "service/json.h"

namespace qlearn {
namespace net {

namespace {

/// The server's per-shard handler: answers each request frame with
/// HandleFrameInto, inline on the shard thread.
class ServerShard : public Reactor::Handler {
 public:
  ServerShard(Reactor::Shard* shard, service::SessionService* service)
      : shard_(shard), service_(service) {}

  void Dispatch(Conn* conn, FrameReader::Event&& event) override {
    if (event.kind == FrameReader::Event::Kind::kBadFrame) {
      shard_->Enqueue(conn, BadFrameError(event));
      return;
    }
    BufferPool& pool = shard_->pool();
    arena_.Reset();
    std::string response = pool.Acquire();
    HandleFrameInto(service_, event.payload, &arena_, &response);
    pool.Release(std::move(event.payload));
    shard_->Enqueue(conn, std::move(response));
  }

 private:
  Reactor::Shard* const shard_;
  service::SessionService* const service_;
  service::json::Arena arena_;  // reset per request
};

}  // namespace

Server::Server(service::SessionService* service, ServerOptions options)
    : service_(service), workers_(options.workers), reactor_(options) {}

Server::~Server() { Stop(); }

common::Status Server::Start() {
  if (workers_ != 0) {
    return common::Status::InvalidArgument(
        "ServerOptions::workers is retired and must be 0");
  }
  if (reactor_.running()) {
    return common::Status::FailedPrecondition("server already running");
  }
  return reactor_.Start([this](Reactor::Shard* shard) {
    return std::make_unique<ServerShard>(shard, service_);
  });
}

void Server::Stop() { reactor_.Stop(); }

uint16_t Server::port() const { return reactor_.port(); }

ServerStats Server::stats() const { return reactor_.stats(); }

}  // namespace net
}  // namespace qlearn
