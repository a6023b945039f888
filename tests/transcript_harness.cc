#include "transcript_harness.h"

#include <atomic>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "net/client.h"

namespace qlearn {
namespace testing {

namespace {

using common::Result;
using common::Status;
using service::CloseResult;
using service::OpenOptions;
using service::SessionService;
using service::wire::QuestionPayload;
using service::wire::Serialize;
using service::wire::TranscriptEvent;

/// Replays one transcript a request at a time against an endpoint with
/// Open/Ask/Tell/Close: each Step issues the next event's request and
/// compares the response with the recorded bytes. The first event that
/// fails or mismatches ends the replay, and a still-open session is closed
/// on the spot so no handle leaks.
class TranscriptReplayer {
 public:
  /// `events` must outlive the replayer. An empty `id` lets the endpoint
  /// mint the session handle.
  TranscriptReplayer(const std::vector<TranscriptEvent>& events,
                     BoundaryHook on_boundary, std::string id)
      : events_(&events),
        on_boundary_(std::move(on_boundary)),
        id_(std::move(id)) {}

  /// Issues the next request; returns whether events remain.
  template <typename Endpoint>
  bool Step(Endpoint& endpoint) {
    if (done()) return false;
    const TranscriptEvent& event = (*events_)[next_++];
    switch (event.kind) {
      case TranscriptEvent::Kind::kOpen: {
        if (session_open_) {
          Mismatch("is a second open event");
          break;
        }
        OpenOptions options;
        options.seed = event.seed;
        options.budget.max_questions = event.max_questions;
        options.id = id_;
        ++sent_.opens;
        auto opened = endpoint.Open(event.scenario, options);
        if (!opened.ok()) {
          Mismatch("Open failed: " + opened.status().ToString());
          break;
        }
        id_ = opened.value();
        session_open_ = true;
        AtBoundary();
        break;
      }
      case TranscriptEvent::Kind::kAsk: {
        ++sent_.asks;
        auto served = endpoint.Ask(id_, event.requested);
        if (!served.ok()) {
          Mismatch("Ask failed: " + served.status().ToString());
          break;
        }
        if (served.value().size() != event.questions.size()) {
          Mismatch("served " + std::to_string(served.value().size()) +
                   " question(s), transcript has " +
                   std::to_string(event.questions.size()));
          break;
        }
        for (size_t j = 0; j < served.value().size(); ++j) {
          Compare("question " + std::to_string(j), Serialize(served.value()[j]),
                  Serialize(event.questions[j]));
        }
        break;
      }
      case TranscriptEvent::Kind::kTell: {
        ++sent_.tells;
        const Status told = endpoint.Tell(id_, event.labels);
        if (!told.ok()) {
          Mismatch("Tell failed: " + told.ToString());
          break;
        }
        AtBoundary();  // the batch is answered
        break;
      }
      case TranscriptEvent::Kind::kClose: {
        ++sent_.closes;
        session_open_ = false;
        auto closed = endpoint.Close(id_);
        if (!closed.ok()) {
          Mismatch("Close failed: " + closed.status().ToString());
          break;
        }
        Compare("hypothesis", Serialize(closed.value().hypothesis),
                Serialize(event.hypothesis));
        Compare("stats", Serialize(closed.value().stats),
                Serialize(event.stats));
        break;
      }
    }
    if (!ok() && session_open_) {
      ++sent_.closes;
      (void)endpoint.Close(id_);  // release the handle on bail-out
      session_open_ = false;
    }
    return !done();
  }

  bool done() const { return next_ == events_->size() || !ok(); }
  bool ok() const { return mismatches_.empty(); }
  const std::vector<std::string>& mismatches() const { return mismatches_; }
  const RequestCounts& sent() const { return sent_; }

 private:
  void Mismatch(const std::string& what) {
    mismatches_.push_back("event #" + std::to_string(next_ - 1) + " " + what);
  }
  void Compare(const std::string& what, const std::string& got,
               const std::string& want) {
    if (got != want) Mismatch(what + ": got " + got + ", want " + want);
  }
  /// A question boundary: the session is open with no batch pending.
  void AtBoundary() {
    if (!on_boundary_) return;
    const Status status = on_boundary_(id_);
    if (!status.ok()) Mismatch("boundary hook failed: " + status.ToString());
  }

  const std::vector<TranscriptEvent>* events_;
  BoundaryHook on_boundary_;
  std::string id_;
  size_t next_ = 0;
  bool session_open_ = false;
  std::vector<std::string> mismatches_;
  RequestCounts sent_;
};

}  // namespace

const std::vector<TranscriptCase>& ConformanceCases() {
  // One case per paper experiment with an interactive-session analogue,
  // plus one per non-default selection strategy ("s_" cases) so every
  // strategy the shared frontier drives is replay-checked, not only the
  // defaults the experiment cases exercise (twig kGreedyImpact, join
  // kSplitHalf, chain kHuntThenSplit, path kFrontier).
  // Batch sizes differ on purpose: 1 pins the ask/answer ping-pong flow,
  // >1 pins the batched flow (whose question sequences legitimately differ
  // from one-at-a-time — propagation runs once per batch).
  static const std::vector<TranscriptCase>* cases =
      new std::vector<TranscriptCase>{
          {"e1_twig", "twig", 7, 1},
          {"e4_twig_ambiguity", "twig-ambiguity", 7, 1},
          {"e6_join", "join", 7, 4},
          {"e7_path", "path", 7, 1},
          {"e12_chain", "chain", 7, 2},
          {"s_twig_random", "twig-random", 7, 1},
          {"s_join_random", "join-random", 7, 4},
          {"s_join_lattice", "join-lattice", 7, 1},
          {"s_chain_random", "chain-random", 7, 2},
          {"s_path_random", "path-random", 7, 1},
          {"s_path_workload", "path-workload", 7, 1},
      };
  return *cases;
}

Result<std::vector<TranscriptEvent>> RecordTranscript(SessionService* service,
                                                      const TranscriptCase& c) {
  OpenOptions options;
  options.seed = c.seed;

  std::vector<TranscriptEvent> events;
  TranscriptEvent open;
  open.kind = TranscriptEvent::Kind::kOpen;
  open.scenario = c.scenario;
  open.seed = c.seed;
  open.max_questions = options.budget.max_questions;
  events.push_back(std::move(open));

  QLEARN_ASSIGN_OR_RETURN(const std::string id,
                          service->Open(c.scenario, options));
  for (;;) {
    QLEARN_ASSIGN_OR_RETURN(const std::vector<QuestionPayload> batch,
                            service->Ask(id, c.batch));
    if (batch.empty()) break;
    TranscriptEvent ask;
    ask.kind = TranscriptEvent::Kind::kAsk;
    ask.requested = c.batch;
    ask.questions = batch;
    events.push_back(std::move(ask));

    QLEARN_ASSIGN_OR_RETURN(const std::vector<bool> labels,
                            service->OracleLabels(id));
    TranscriptEvent tell;
    tell.kind = TranscriptEvent::Kind::kTell;
    tell.labels = labels;
    events.push_back(std::move(tell));
    QLEARN_RETURN_IF_ERROR(service->Tell(id, labels));
  }
  QLEARN_ASSIGN_OR_RETURN(const CloseResult closed, service->Close(id));
  TranscriptEvent close;
  close.kind = TranscriptEvent::Kind::kClose;
  close.hypothesis = closed.hypothesis;
  close.stats = closed.stats;
  events.push_back(std::move(close));
  return events;
}

template <typename Endpoint>
Result<std::vector<std::string>> ReplayTranscript(
    Endpoint* endpoint, const std::vector<TranscriptEvent>& events,
    BoundaryHook on_boundary) {
  size_t opens = 0;
  for (const TranscriptEvent& event : events) {
    opens += event.kind == TranscriptEvent::Kind::kOpen;
  }
  if (events.empty() || events[0].kind != TranscriptEvent::Kind::kOpen ||
      opens != 1) {
    return Status::InvalidArgument(
        "transcript must be one open event followed by its session");
  }
  TranscriptReplayer replayer(events, std::move(on_boundary), "");
  while (replayer.Step(*endpoint)) {
  }
  return replayer.mismatches();
}

template Result<std::vector<std::string>> ReplayTranscript(
    SessionService* endpoint, const std::vector<TranscriptEvent>& events,
    BoundaryHook on_boundary);
template Result<std::vector<std::string>> ReplayTranscript(
    net::Client* endpoint, const std::vector<TranscriptEvent>& events,
    BoundaryHook on_boundary);

std::string LoadSessionId(size_t connection, size_t session) {
  return "load-" + std::to_string(connection) + "-" + std::to_string(session);
}

LoadReport ReplayGoldenLoad(uint16_t port,
                            const std::function<void()>& on_all_opened) {
  LoadReport report;
  auto goldens = LoadGoldens();
  if (!goldens.ok()) {
    report.mismatches.push_back(goldens.status().ToString());
    return report;
  }
  const std::vector<TranscriptCase>& cases = ConformanceCases();

  std::mutex mu;  // guards report
  std::atomic<size_t> opened{0};
  auto connection = [&](size_t c) {
    auto golden_of = [&](size_t k) {
      return (c * kLoadSessionsPerConnection + k) % cases.size();
    };
    std::vector<TranscriptReplayer> sessions;
    for (size_t k = 0; k < kLoadSessionsPerConnection; ++k) {
      sessions.emplace_back(goldens.value()[golden_of(k)], BoundaryHook(),
                            LoadSessionId(c, k));
    }
    auto client = net::Client::Connect("127.0.0.1", port);
    if (client.ok()) {
      // Every session's first step is its open.
      for (TranscriptReplayer& session : sessions) session.Step(client.value());
    }
    if (opened.fetch_add(1) + 1 == kLoadConnections && on_all_opened) {
      on_all_opened();
    }
    for (bool active = client.ok(); active;) {
      active = false;
      for (TranscriptReplayer& session : sessions) {
        if (session.Step(client.value())) active = true;
      }
    }

    std::lock_guard<std::mutex> lock(mu);
    if (!client.ok()) {
      report.mismatches.push_back("connection " + std::to_string(c) + ": " +
                                  client.status().ToString());
    }
    for (size_t k = 0; k < sessions.size(); ++k) {
      const TranscriptReplayer& session = sessions[k];
      if (session.done() && session.ok()) ++report.sessions_closed;
      report.sent.opens += session.sent().opens;
      report.sent.asks += session.sent().asks;
      report.sent.tells += session.sent().tells;
      report.sent.closes += session.sent().closes;
      for (const std::string& m : session.mismatches()) {
        report.mismatches.push_back(LoadSessionId(c, k) + " (" +
                                    cases[golden_of(k)].name + "): " + m);
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kLoadConnections; ++c) {
    threads.emplace_back(connection, c);
  }
  for (std::thread& thread : threads) thread.join();
  return report;
}

std::string GoldenPath(const std::string& name) {
  return std::string(QLEARN_GOLDEN_DIR) + "/" + name + ".jsonl";
}

Result<std::vector<std::vector<TranscriptEvent>>> LoadGoldens() {
  std::vector<std::vector<TranscriptEvent>> goldens;
  for (const TranscriptCase& c : ConformanceCases()) {
    QLEARN_ASSIGN_OR_RETURN(const std::string text,
                            ReadFileToString(GoldenPath(c.name)));
    QLEARN_ASSIGN_OR_RETURN(std::vector<TranscriptEvent> events,
                            service::wire::ParseTranscript(text));
    goldens.push_back(std::move(events));
  }
  return goldens;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

Status WriteStringToFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out << content;
  out.close();
  if (!out) return Status::Internal("failed writing " + path);
  return Status::OK();
}

}  // namespace testing
}  // namespace qlearn
