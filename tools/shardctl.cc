// shardctl: stand up and drive a sharded serving fleet from one terminal.
//
// Starts N in-process backend servers (each its own SessionService) and a
// net::Router in front of them, prints the router and backend ports, then
// reads commands from stdin until EOF:
//
//   add            start one more backend and live-rebalance onto it
//                  (snapshot handoff: only sessions whose jump-hash owner
//                  changed migrate)
//   remove         rebalance back onto one fewer backend, then retire the
//                  drained backend
//   map            print the shard map (generation + backend addresses)
//   stats          print every router stat as JSON, then the
//                  fleet-merged `counters` frame
//   quit           shut down (EOF does the same)
//
// Clients point at the router port with the ordinary framed-TCP protocol
// (e.g. a net::Client connected to it); sharding is invisible to them.
//
// Usage:
//   shardctl [--backends=2] [--port=0] [--reactors=1] [--server_workers=0]
//
// --port is the router's port (0 = ephemeral, printed on startup); backend
// ports are always ephemeral and printed too.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/client.h"
#include "net/router.h"
#include "net/server.h"
#include "net/shard_map.h"
#include "service/session_service.h"

namespace qlearn {
namespace {

struct Options {
  size_t backends = 2;
  uint16_t port = 0;
  size_t reactors = 1;
  size_t server_workers = 0;
};

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "backends", &value)) {
      options->backends = std::stoul(value);
    } else if (ParseFlag(arg, "port", &value)) {
      options->port = static_cast<uint16_t>(std::stoul(value));
    } else if (ParseFlag(arg, "reactors", &value)) {
      options->reactors = std::stoul(value);
    } else if (ParseFlag(arg, "server_workers", &value)) {
      options->server_workers = std::stoul(value);
    } else {
      std::fprintf(stderr, "shardctl: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  if (options->backends == 0 || options->reactors == 0) {
    std::fprintf(stderr,
                 "shardctl: --backends and --reactors must be > 0\n");
    return false;
  }
  return true;
}

struct BackendProc {
  service::SessionService service;
  std::unique_ptr<net::Server> server;
};

struct Fleet {
  Options options;
  std::vector<std::unique_ptr<BackendProc>> backends;
  std::unique_ptr<net::Router> router;

  bool AddBackend() {
    auto backend = std::make_unique<BackendProc>();
    net::ServerOptions server_options;
    server_options.workers = options.server_workers;
    backend->server =
        std::make_unique<net::Server>(&backend->service, server_options);
    const common::Status started = backend->server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "shardctl: backend: %s\n",
                   started.ToString().c_str());
      return false;
    }
    std::printf("backend %zu on 127.0.0.1:%u\n", backends.size(),
                static_cast<unsigned>(backend->server->port()));
    backends.push_back(std::move(backend));
    return true;
  }

  std::vector<net::BackendAddress> Addresses(size_t count) const {
    std::vector<net::BackendAddress> addresses;
    for (size_t i = 0; i < count && i < backends.size(); ++i) {
      addresses.push_back({"127.0.0.1", backends[i]->server->port()});
    }
    return addresses;
  }
};

void PrintMap(const net::ShardMap& map) {
  std::printf("generation %llu, %zu backend%s:\n",
              static_cast<unsigned long long>(map.generation), map.size(),
              map.size() == 1 ? "" : "s");
  for (size_t i = 0; i < map.backends.size(); ++i) {
    std::printf("  [%zu] %s\n", i, ToString(map.backends[i]).c_str());
  }
}

void PrintStats(const Fleet& fleet) {
  const net::RouterStats stats = fleet.router->stats();
  const char* separator = "{";
  for (const auto& field : net::kRouterStatsFields) {
    std::printf("%s\"%.*s\":%llu", separator,
                static_cast<int>(field.name.size()), field.name.data(),
                static_cast<unsigned long long>(stats.*field.member));
    separator = ",";
  }
  std::printf("}\n");
  auto probe =
      net::Client::Connect("127.0.0.1", fleet.router->port(),
                           net::kDefaultMaxFrameBytes, /*deadline=*/5000);
  if (!probe.ok()) return;
  // The fleet-merged `counters` frame, as the router answers it.
  auto frame = probe.value().CallRaw("{\"op\":\"counters\"}");
  std::printf("%s\n", frame.ok() ? frame.value().c_str()
                                 : frame.status().ToString().c_str());
}

int Run(const Options& options) {
  Fleet fleet;
  fleet.options = options;
  for (size_t i = 0; i < options.backends; ++i) {
    if (!fleet.AddBackend()) return 2;
  }
  net::ShardMap map;
  map.backends = fleet.Addresses(fleet.backends.size());
  net::RouterOptions router_options;
  router_options.port = options.port;
  router_options.reactors = options.reactors;
  fleet.router =
      std::make_unique<net::Router>(std::move(map), router_options);
  const common::Status started = fleet.router->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "shardctl: router: %s\n",
                 started.ToString().c_str());
    return 2;
  }
  std::printf("router on 127.0.0.1:%u\n",
              static_cast<unsigned>(fleet.router->port()));
  PrintMap(fleet.router->shard_map());
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream words(line);
    std::string command;
    words >> command;
    if (command.empty()) continue;
    if (command == "quit" || command == "exit") break;
    if (command == "map") {
      PrintMap(fleet.router->shard_map());
    } else if (command == "stats") {
      PrintStats(fleet);
    } else if (command == "add") {
      if (!fleet.AddBackend()) continue;
      const common::Status rebalanced =
          fleet.router->Rebalance(fleet.Addresses(fleet.backends.size()));
      if (!rebalanced.ok()) {
        std::printf("rebalance failed: %s\n",
                    rebalanced.ToString().c_str());
        // The new backend stays up but off-map; a later `add` retries.
      } else {
        PrintMap(fleet.router->shard_map());
      }
    } else if (command == "remove") {
      if (fleet.backends.size() <= 1) {
        std::printf("cannot remove the last backend\n");
      } else {
        const common::Status rebalanced = fleet.router->Rebalance(
            fleet.Addresses(fleet.backends.size() - 1));
        if (!rebalanced.ok()) {
          std::printf("rebalance failed: %s\n",
                      rebalanced.ToString().c_str());
        } else {
          fleet.backends.back()->server->Stop();
          fleet.backends.pop_back();
          PrintMap(fleet.router->shard_map());
        }
      }
    } else {
      std::printf("commands: add | remove | map | stats | quit\n");
    }
    std::fflush(stdout);
  }

  fleet.router->Stop();
  for (auto& backend : fleet.backends) backend->server->Stop();
  return 0;
}

}  // namespace
}  // namespace qlearn

int main(int argc, char** argv) {
  qlearn::Options options;
  if (!qlearn::ParseOptions(argc, argv, &options)) return 2;
  return qlearn::Run(options);
}
