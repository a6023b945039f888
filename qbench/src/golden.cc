#include "golden.h"

#include <fstream>
#include <numeric>
#include <sstream>

#include "common/rng.h"
#include "net/protocol.h"

namespace qbench {
namespace {

using qlearn::common::Status;
using qlearn::service::wire::TranscriptEvent;

// The conformance suite's golden stems (the same list tools/loadgen
// replays): five paper-experiment scenarios plus every non-default
// selection strategy.
const char* const kGoldenNames[] = {
    "e1_twig",        "e4_twig_ambiguity", "e6_join",         "e7_path",
    "e12_chain",      "s_twig_random",     "s_join_random",   "s_join_lattice",
    "s_chain_random", "s_path_random",     "s_path_workload",
};

constexpr std::string_view kIdPlaceholder = "QBENCH-ID";

/// Splits the canonical request frame around the session id.
void SetFrame(qlearn::net::Request request, GoldenStep* step) {
  request.id = std::string(kIdPlaceholder);
  const std::string frame = qlearn::net::Serialize(request);
  const size_t at = frame.find(kIdPlaceholder);
  step->prefix = frame.substr(0, at);
  step->suffix = frame.substr(at + kIdPlaceholder.size());
}

Status ParseGolden(const std::string& name, const std::string& content,
                   Golden* golden) {
  golden->name = name;
  std::istringstream lines(content);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    auto parsed = qlearn::service::wire::ParseEvent(line);
    if (!parsed.ok()) return parsed.status();
    const TranscriptEvent& event = parsed.value();
    GoldenStep step;
    qlearn::net::Request request;
    switch (event.kind) {
      case TranscriptEvent::Kind::kOpen:
        step.op = GoldenStep::Op::kOpen;
        golden->scenario = event.scenario;
        golden->open.seed = event.seed;
        golden->open.budget.max_questions = event.max_questions;
        request.op = qlearn::net::Request::Op::kOpen;
        request.scenario = event.scenario;
        request.seed = event.seed;
        request.max_questions = event.max_questions;
        step.prefix = qlearn::net::Serialize(request);
        break;
      case TranscriptEvent::Kind::kAsk: {
        step.op = GoldenStep::Op::kAsk;
        step.k = event.requested;
        step.questions = event.questions.size();
        request.op = qlearn::net::Request::Op::kAsk;
        request.k = event.requested;
        SetFrame(request, &step);
        constexpr std::string_view kKey = "\"questions\":";
        const size_t at = line.find(kKey);
        if (at == std::string::npos || line.back() != '}') {
          return Status::InvalidArgument(name + ": unexpected ask line");
        }
        const size_t begin = at + kKey.size();
        step.expect_body = line.substr(begin, line.size() - begin - 1);
        step.expect = "{\"ok\":{\"questions\":" + step.expect_body + "}}";
        break;
      }
      case TranscriptEvent::Kind::kTell:
        step.op = GoldenStep::Op::kTell;
        step.labels = event.labels;
        request.op = qlearn::net::Request::Op::kTell;
        request.labels = event.labels;
        SetFrame(request, &step);
        step.expect = "{\"ok\":{}}";
        break;
      case TranscriptEvent::Kind::kClose: {
        step.op = GoldenStep::Op::kClose;
        request.op = qlearn::net::Request::Op::kClose;
        SetFrame(request, &step);
        constexpr std::string_view kPrefix = "{\"event\":\"close\",";
        if (line.compare(0, kPrefix.size(), kPrefix) != 0 ||
            line.back() != '}') {
          return Status::InvalidArgument(name + ": unexpected close line");
        }
        step.expect_body = line.substr(kPrefix.size(),
                                       line.size() - kPrefix.size() - 1);
        step.expect = "{\"ok\":{" + step.expect_body + "}}";
        break;
      }
    }
    golden->steps.push_back(std::move(step));
  }
  if (golden->steps.size() < 2 ||
      golden->steps.front().op != GoldenStep::Op::kOpen ||
      golden->steps.back().op != GoldenStep::Op::kClose) {
    return Status::InvalidArgument(name + ": not an open..close transcript");
  }
  return Status::OK();
}

}  // namespace

Status LoadGoldens(const std::string& dir, bool corrupt_byte,
                   std::vector<Golden>* goldens) {
  goldens->clear();
  for (const char* name : kGoldenNames) {
    const std::string path = dir + "/" + name + ".jsonl";
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::NotFound("cannot read " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string content = buffer.str();
    if (corrupt_byte && goldens->empty()) {
      const size_t at = content.find("\"text\":\"");
      if (at == std::string::npos) {
        return Status::InvalidArgument(path + ": no question text to corrupt");
      }
      char& byte = content[at + 8];
      byte = byte == 'x' ? 'y' : 'x';
    }
    Golden golden;
    QLEARN_RETURN_IF_ERROR(ParseGolden(name, content, &golden));
    goldens->push_back(std::move(golden));
  }
  return Status::OK();
}

size_t GoldenFor(uint64_t seed, uint64_t index, size_t goldens) {
  const uint64_t deck = index / goldens;
  qlearn::common::Rng rng(seed * 0x9E3779B97F4A7C15ULL + deck + 1);
  std::vector<size_t> order(goldens);
  std::iota(order.begin(), order.end(), size_t{0});
  rng.Shuffle(&order);
  return order[index % goldens];
}

void AppendQuestionsArray(
    const std::vector<qlearn::service::wire::QuestionPayload>& questions,
    std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < questions.size(); ++i) {
    if (i > 0) out->push_back(',');
    qlearn::service::wire::SerializeTo(questions[i], out);
  }
  out->push_back(']');
}

void AppendCloseBody(const qlearn::service::CloseResult& closed,
                     std::string* out) {
  *out += "\"hypothesis\":";
  qlearn::service::wire::SerializeTo(closed.hypothesis, out);
  *out += ",\"stats\":";
  qlearn::service::wire::SerializeTo(closed.stats, out);
}

bool ParseOpenId(std::string_view frame, std::string* id) {
  constexpr std::string_view kPrefix = "{\"ok\":{\"id\":\"";
  constexpr std::string_view kSuffix = "\"}}";
  if (frame.size() <= kPrefix.size() + kSuffix.size() ||
      frame.substr(0, kPrefix.size()) != kPrefix ||
      frame.substr(frame.size() - kSuffix.size()) != kSuffix) {
    return false;
  }
  id->assign(frame.substr(kPrefix.size(),
                          frame.size() - kPrefix.size() - kSuffix.size()));
  return true;
}

bool ParseCloseQuestions(std::string_view frame, uint64_t* questions) {
  // The stats object is flat: it ends at the first '}' after its key.
  constexpr std::string_view kKey = "\"stats\":";
  const size_t begin = frame.find(kKey);
  if (begin == std::string_view::npos) return false;
  const size_t end = frame.find('}', begin);
  if (end == std::string_view::npos) return false;
  auto stats = qlearn::service::wire::ParseStats(std::string(
      frame.substr(begin + kKey.size(), end + 1 - begin - kKey.size())));
  if (!stats.ok()) return false;
  *questions = stats.value().questions;
  return true;
}

}  // namespace qbench
