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
//   shardctl [--backends=2] [--port=0] [--reactors=1]
//
// --port is the router's port (0 = ephemeral, printed on startup); backend
// ports are always ephemeral and printed too. --backends and --reactors
// take 1..256. A value that is not a plain decimal number in range is a
// usage error (exit 2).
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
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
};

constexpr char kUsage[] =
    "usage: shardctl [--backends=2] [--port=0] [--reactors=1]\n";

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// Parses `--name=value` as a decimal number in [min, max] into `out`: no
/// sign, no surrounding or trailing characters. Prints a usage error and
/// returns false otherwise.
template <typename T>
bool ParseNumber(const std::string& arg, const std::string& value,
                 uint64_t min, uint64_t max, T* out) {
  const char* const end = value.data() + value.size();
  uint64_t parsed = 0;
  const auto [stop, error] = std::from_chars(value.data(), end, parsed);
  if (error != std::errc() || stop != end || parsed < min || parsed > max) {
    std::fprintf(stderr, "shardctl: %s: expected a number in [%llu, %llu]\n%s",
                 arg.c_str(), static_cast<unsigned long long>(min),
                 static_cast<unsigned long long>(max), kUsage);
    return false;
  }
  *out = static_cast<T>(parsed);
  return true;
}

bool ParseOptions(int argc, char** argv, Options* options) {
  constexpr uint64_t kMaxCount = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    bool parsed = false;
    if (ParseFlag(arg, "backends", &value)) {
      parsed = ParseNumber(arg, value, 1, kMaxCount, &options->backends);
    } else if (ParseFlag(arg, "port", &value)) {
      parsed = ParseNumber(arg, value, 0, 65535, &options->port);
    } else if (ParseFlag(arg, "reactors", &value)) {
      parsed = ParseNumber(arg, value, 1, kMaxCount, &options->reactors);
    } else {
      std::fprintf(stderr, "shardctl: unknown argument %s\n%s", arg.c_str(),
                   kUsage);
    }
    if (!parsed) return false;
  }
  return true;
}

struct BackendProc {
  service::SessionService service;
  std::unique_ptr<net::Server> server;
};

struct Fleet {
  std::vector<std::unique_ptr<BackendProc>> backends;
  std::unique_ptr<net::Router> router;

  bool AddBackend() {
    auto backend = std::make_unique<BackendProc>();
    backend->server = std::make_unique<net::Server>(&backend->service);
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
