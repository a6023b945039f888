// The session service behind a real socket: a net::Server (a framed-TCP
// front end whose two reactor shards answer each request inline) serves a
// SessionService on an ephemeral loopback port, and everything below goes
// through net::Client — string handles, questions and answers as wire
// payloads, budgets enforced server-side — exactly the path a remote crowd
// dispatcher or web UI would take. Two sessions of different scenarios run interleaved over one
// connection, the way two remote users multiplexed by a gateway would, and
// every exchange is printed as the wire-format lines a transcript records.
//
// Build & run:  cmake -B build && cmake --build build -j
//               ./build/examples/example_serve_sessions
#include <cstdio>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "service/session_service.h"
#include "service/wire.h"

using qlearn::net::Client;
using qlearn::net::Server;
using qlearn::net::ServerOptions;
using qlearn::service::OpenOptions;
using qlearn::service::SessionService;

namespace {

/// One protocol step of a session: ask a batch over the socket, print the
/// wire payloads, answer with the server-side oracle. False once the
/// session converged.
bool Step(Client* client, const std::string& id, uint64_t k) {
  auto batch = client->Ask(id, k);
  if (!batch.ok()) {
    std::fprintf(stderr, "Ask(%s) failed: %s\n", id.c_str(),
                 batch.status().ToString().c_str());
    return false;
  }
  if (batch.value().empty()) return false;
  for (const auto& payload : batch.value()) {
    std::printf("  %s <- %s\n", id.c_str(),
                qlearn::service::wire::Serialize(payload).c_str());
  }
  auto labels = client->OracleLabels(id);
  if (!labels.ok() || !client->Tell(id, labels.value()).ok()) return false;
  return true;
}

}  // namespace

int main() {
  // The server owns the service; port 0 picks an ephemeral loopback port.
  SessionService service;
  ServerOptions server_options;
  server_options.reactors = 2;
  Server server(&service, server_options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u\n\n", server.port());

  auto client_or = Client::Connect("127.0.0.1", server.port());
  if (!client_or.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client_or.status().ToString().c_str());
    return 1;
  }
  Client client = std::move(client_or).value();

  // Open two sessions with different budgets; handles are plain strings
  // minted by the server, valid from any connection.
  OpenOptions join_options;
  join_options.budget.max_pending = 4;
  auto join_id = client.Open("join", join_options);
  OpenOptions chain_options;
  chain_options.budget.max_questions = 100;
  auto chain_id = client.Open("chain", chain_options);
  if (!join_id.ok() || !chain_id.ok()) {
    std::fprintf(stderr, "Open failed\n");
    return 1;
  }
  std::printf("open sessions: %s %s\n\n", join_id.value().c_str(),
              chain_id.value().c_str());

  // Interleave the two sessions the way two concurrent users would.
  bool join_live = true;
  bool chain_live = true;
  while (join_live || chain_live) {
    if (join_live) join_live = Step(&client, join_id.value(), 4);
    if (chain_live) chain_live = Step(&client, chain_id.value(), 1);
  }

  for (const std::string& id : {join_id.value(), chain_id.value()}) {
    auto status = client.Status(id);
    if (!status.ok()) return 1;
    auto closed = client.Close(id);
    if (!closed.ok()) return 1;
    std::printf("\n%s (%s) learned %s\n", id.c_str(),
                status.value().scenario.c_str(),
                qlearn::service::wire::Serialize(closed.value().hypothesis)
                    .c_str());
    std::printf("  final stats %s\n",
                qlearn::service::wire::Serialize(closed.value().stats)
                    .c_str());
  }

  // Budgets are enforced by the service, not by well-behaved callers: a
  // two-question budget clamps the first batch and refuses the next one —
  // and the refusal arrives as a structured error frame, not a hangup.
  OpenOptions capped;
  capped.budget.max_questions = 2;
  auto capped_id = client.Open("twig", capped);
  if (!capped_id.ok()) return 1;
  auto clamped = client.Ask(capped_id.value(), 10);
  if (!clamped.ok()) return 1;
  std::printf("\nbudget demo: asked for 10, served %zu (budget 2)\n",
              clamped.value().size());
  auto labels = client.OracleLabels(capped_id.value());
  if (!labels.ok()) return 1;
  (void)client.Tell(capped_id.value(), labels.value());
  auto refused = client.Ask(capped_id.value(), 1);
  std::printf("next Ask: %s\n", refused.ok()
                                    ? "unexpectedly succeeded"
                                    : refused.status().ToString().c_str());
  (void)client.Close(capped_id.value());

  // The connection survived every error above; the service-wide counters
  // arrive over the same socket.
  auto counters = client.Counters();
  if (!counters.ok()) return 1;
  std::printf("\nserved: %llu opens, %llu asks, %llu tells, %llu errors\n",
              static_cast<unsigned long long>(counters.value().first.opens),
              static_cast<unsigned long long>(counters.value().first.asks),
              static_cast<unsigned long long>(counters.value().first.tells),
              static_cast<unsigned long long>(counters.value().first.errors));

  server.Stop();
  return refused.ok() ? 1 : 0;
}
