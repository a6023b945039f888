// The golden request stream: the 11 conformance transcripts under
// tests/golden, turned into request frames and the exact response bytes a
// correct server must send back.
#ifndef QBENCH_GOLDEN_H_
#define QBENCH_GOLDEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "service/session_service.h"
#include "service/wire.h"

namespace qbench {

struct GoldenStep {
  enum class Op { kOpen, kAsk, kTell, kClose };
  Op op = Op::kOpen;
  /// Request frame = prefix + session id + suffix (open: prefix alone).
  std::string prefix;
  std::string suffix;
  /// Expected response frame, byte for byte (empty for open: the id varies).
  std::string expect;
  /// The golden's own bytes inside that frame: the questions array of an
  /// ask, the `"hypothesis":...,"stats":...` members of a close.
  std::string expect_body;
  uint64_t k = 0;              ///< ask: batch size requested
  size_t questions = 0;        ///< ask: questions served
  std::vector<bool> labels;    ///< tell
};

struct Golden {
  std::string name;
  std::string scenario;
  qlearn::service::OpenOptions open;
  std::vector<GoldenStep> steps;
};

/// Loads the 11 goldens from `dir`. With `corrupt_byte`, one byte of the
/// first question text of the first golden is changed before parsing, so a
/// correct server no longer matches it (the benchmark's self-test).
qlearn::common::Status LoadGoldens(const std::string& dir, bool corrupt_byte,
                                   std::vector<Golden>* goldens);

/// Which golden session `index` of the stream replays under `seed`: the
/// stream is a sequence of decks, each a seeded shuffle of all goldens.
size_t GoldenFor(uint64_t seed, uint64_t index, size_t goldens);

/// Canonical bytes of served payloads, comparable with expect_body.
void AppendQuestionsArray(
    const std::vector<qlearn::service::wire::QuestionPayload>& questions,
    std::string* out);
void AppendCloseBody(const qlearn::service::CloseResult& closed,
                     std::string* out);

/// The id out of an `open` response frame; false if it is not one.
bool ParseOpenId(std::string_view frame, std::string* id);

/// SessionStats::questions out of a `close` response frame; false if the
/// frame has no parsable stats object.
bool ParseCloseQuestions(std::string_view frame, uint64_t* questions);

}  // namespace qbench

#endif  // QBENCH_GOLDEN_H_
