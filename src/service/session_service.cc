#include "service/session_service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "session/snapshot.h"

namespace qlearn {
namespace service {

namespace {

using common::Result;
using common::Status;

// Hibernation image: "QLSV" wrapper (service-level header around the
// session's own "QLSS" image), followed by an FNV-1a-64 trailer over every
// preceding byte. Layout (little-endian):
//   u32 magic, u32 version, scenario name (u64 length + bytes),
//   u64 budget.max_questions, u64 budget.max_pending,
//   u64 bit_cast(budget.max_wall_seconds),
//   u64 bit_cast(wall seconds consumed at park),
//   session image (u64 length + bytes), u64 checksum.
constexpr uint32_t kHibernationMagic = 0x56534C51u;  // "QLSV"
constexpr uint32_t kHibernationVersion = 1;
constexpr size_t kChecksumBytes = 8;

std::string HexU64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

uint64_t ReadTrailerU64(std::string_view image, size_t at) {
  uint64_t out = 0;
  for (size_t i = 0; i < kChecksumBytes; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(image[at + i]))
           << (8 * i);
  }
  return out;
}

/// A caller-supplied handle becomes a snapshot-store key (and, in the
/// file-backed store, a file name), so it must be a plain path component.
Status ValidateHandle(std::string_view id) {
  if (id.empty() || id.size() > 64) {
    return Status::InvalidArgument(
        "session id must be 1..64 bytes, got " + std::to_string(id.size()));
  }
  for (const char c : id) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) {
      return Status::InvalidArgument(
          "session id may only contain [A-Za-z0-9._-]");
    }
  }
  return Status::OK();
}

/// Records wall time from construction to scope exit into a live histogram.
/// Deliberately on the raw steady clock (not the injectable service clock):
/// the histograms report observed latency, not simulated time.
class LatencyTimer {
 public:
  explicit LatencyTimer(LatencySnapshot* histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ~LatencyTimer() {
    histogram_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }
  LatencyTimer(const LatencyTimer&) = delete;
  LatencyTimer& operator=(const LatencyTimer&) = delete;

 private:
  LatencySnapshot* histogram_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

uint64_t LatencySnapshot::Count() const {
  uint64_t total = 0;
  for (const uint64_t bucket : buckets) total += bucket;
  return total;
}

uint64_t LatencySnapshot::QuantileUpperBoundMicros(double q) const {
  const uint64_t total = Count();
  if (total == 0) return 0;
  q = std::isnan(q) ? 0 : std::clamp(q, 0.0, 1.0);
  // 0-based rank of the sample; q = 1 names the last one, not one past it.
  const uint64_t rank = std::min(
      static_cast<uint64_t>(q * static_cast<double>(total)), total - 1);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative > rank) return i == 0 ? 0 : (uint64_t{1} << i) - 1;
  }
  return 0;  // unreachable: rank < total
}

SessionService::SessionService(session::ScenarioRegistry* registry)
    : SessionService(ServiceOptions{registry, 0, nullptr, nullptr}) {}

SessionService::SessionService(const ServiceOptions& options)
    : registry_(options.registry),
      hibernate_after_seconds_(options.hibernate_after_seconds),
      snapshot_store_(options.snapshot_store),
      clock_(options.clock) {
  if (registry_ == nullptr) {
    session::RegisterBuiltinScenarios();
    registry_ = session::ScenarioRegistry::Global();
  }
  if (snapshot_store_ == nullptr) {
    snapshot_store_ = std::make_shared<InMemorySnapshotStore>();
  }
  if (!clock_) {
    clock_ = [] { return std::chrono::steady_clock::now(); };
  }
}

common::Status SessionService::Fail(common::Status status) const {
  common::BumpCounter(counters_.errors);
  return status;
}

double SessionService::ElapsedSeconds(
    std::chrono::steady_clock::time_point since) const {
  return std::chrono::duration<double>(clock_() - since).count();
}

Result<std::string> SessionService::Open(const std::string& scenario,
                                         const OpenOptions& options) {
  const LatencyTimer timer(&counters_.open_latency_us);
  common::BumpCounter(counters_.opens);
  if (options.budget.max_pending == 0) {
    // A session that may never serve a question would look converged on
    // the first Ask; refuse the budget up front instead.
    return Fail(
        common::Status::InvalidArgument("budget.max_pending must be > 0"));
  }
  session::SessionOptions session_options;
  session_options.seed = options.seed;
  // The underlying session enforces the same cap, so even a caller that
  // bypasses this service's accounting cannot overrun the budget.
  session_options.max_questions =
      static_cast<size_t>(std::min<uint64_t>(options.budget.max_questions,
                                             SIZE_MAX));
  auto created_or = registry_->Create(scenario, session_options);
  if (!created_or.ok()) return Fail(created_or.status());
  std::unique_ptr<session::ScenarioSession> created =
      std::move(created_or).value();

  auto entry = std::make_shared<Entry>();
  entry->session = std::move(created);
  entry->scenario = scenario;
  entry->budget = options.budget;
  entry->opened_at = clock_();
  entry->last_touch = entry->opened_at;

  std::lock_guard<std::mutex> lock(mutex_);
  if (!options.id.empty()) {
    const common::Status valid = ValidateHandle(options.id);
    if (!valid.ok()) return Fail(valid);
    if (sessions_.count(options.id) != 0) {
      return Fail(common::Status::AlreadyExists("session id already open: " +
                                                options.id));
    }
    sessions_.emplace(options.id, std::move(entry));
    return options.id;
  }
  // Zero-padded to the full uint64 width so the lexicographic map order
  // (and thus ListOpen) is open order for every possible counter value.
  char id[32];
  std::snprintf(id, sizeof(id), "s-%020llu",
                static_cast<unsigned long long>(next_id_++));
  sessions_.emplace(id, std::move(entry));
  return std::string(id);
}

std::shared_ptr<SessionService::Entry> SessionService::Find(
    std::string_view id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);  // transparent lookup, no key temporary
  return it == sessions_.end() ? nullptr : it->second;
}

common::Status SessionService::ParkLocked(const std::string& id,
                                          Entry* entry) {
  common::Status status = [&]() -> common::Status {
    std::string session_image;
    QLEARN_RETURN_IF_ERROR(entry->session->SerializeSnapshot(&session_image));
    const auto now = clock_();
    session::SnapshotWriter writer;
    writer.WriteU32(kHibernationMagic);
    writer.WriteU32(kHibernationVersion);
    writer.WriteBytes(entry->scenario);
    writer.WriteU64(entry->budget.max_questions);
    writer.WriteU64(static_cast<uint64_t>(entry->budget.max_pending));
    writer.WriteU64(std::bit_cast<uint64_t>(entry->budget.max_wall_seconds));
    writer.WriteU64(std::bit_cast<uint64_t>(
        std::chrono::duration<double>(now - entry->opened_at).count()));
    writer.WriteBytes(session_image);
    std::string image = writer.TakeBytes();
    const uint64_t checksum = Fnv1a64(image);
    for (size_t i = 0; i < kChecksumBytes; ++i) {
      image.push_back(static_cast<char>((checksum >> (8 * i)) & 0xff));
    }
    QLEARN_RETURN_IF_ERROR(snapshot_store_->Put(id, image));
    entry->session.reset();
    entry->parked_at = now;
    entry->parked.store(true, std::memory_order_relaxed);
    common::BumpCounter(counters_.hibernates);
    return Status::OK();
  }();
  if (!status.ok()) common::BumpCounter(counters_.hibernate_errors);
  return status;
}

common::Status SessionService::RehydrateLocked(const std::string& id,
                                               Entry* entry) const {
  // common:: is spelled out below: inside a member function a bare
  // `Status` names the Status() method, not the error type.
  common::Status status = [&]() -> common::Status {
    auto image_or = snapshot_store_->Get(id);
    if (!image_or.ok()) {
      if (image_or.status().code() == common::StatusCode::kNotFound) {
        // The handle promises a session; a vanished image is lost data,
        // not a bad argument.
        return common::Status::DataLoss("snapshot image for parked session " + id +
                                " is missing: " + image_or.status().message());
      }
      return image_or.status();
    }
    const std::string image = std::move(image_or).value();
    if (image.size() < kChecksumBytes) {
      return common::Status::DataLoss(
          "snapshot image for session " + id + " is " +
          std::to_string(image.size()) +
          " byte(s), too small to carry its 8-byte checksum trailer");
    }
    const size_t body_size = image.size() - kChecksumBytes;
    const uint64_t stored = ReadTrailerU64(image, body_size);
    const uint64_t computed =
        Fnv1a64(std::string_view(image).substr(0, body_size));
    if (stored != computed) {
      return common::Status::DataLoss("snapshot image for session " + id +
                              " fails its checksum over bytes [0, " +
                              std::to_string(body_size) + "): stored " +
                              HexU64(stored) + ", computed " +
                              HexU64(computed));
    }

    session::SnapshotReader reader(
        std::string_view(image).substr(0, body_size));
    uint32_t magic = 0;
    QLEARN_RETURN_IF_ERROR(reader.ReadU32(&magic));
    if (magic != kHibernationMagic) {
      return common::Status::InvalidArgument("session " + id +
                                     ": not a hibernation image (magic " +
                                     HexU64(magic) + " at byte 0)");
    }
    uint32_t version = 0;
    QLEARN_RETURN_IF_ERROR(reader.ReadU32(&version));
    if (version != kHibernationVersion) {
      return common::Status::InvalidArgument(
          "session " + id + ": unsupported hibernation image version " +
          std::to_string(version) + " at byte 4 (this build reads version " +
          std::to_string(kHibernationVersion) + ")");
    }
    std::string scenario;
    QLEARN_RETURN_IF_ERROR(reader.ReadBytes(&scenario));
    if (scenario != entry->scenario) {
      return common::Status::InvalidArgument("hibernation image for session " + id +
                                     " was taken for scenario \"" + scenario +
                                     "\", but the handle is scenario \"" +
                                     entry->scenario + "\"");
    }
    uint64_t max_questions = 0;
    uint64_t max_pending = 0;
    uint64_t max_wall_bits = 0;
    uint64_t wall_consumed_bits = 0;
    QLEARN_RETURN_IF_ERROR(reader.ReadU64(&max_questions));
    QLEARN_RETURN_IF_ERROR(reader.ReadU64(&max_pending));
    QLEARN_RETURN_IF_ERROR(reader.ReadU64(&max_wall_bits));
    QLEARN_RETURN_IF_ERROR(reader.ReadU64(&wall_consumed_bits));
    std::string payload;
    QLEARN_RETURN_IF_ERROR(reader.ReadBytes(&payload));
    if (!reader.AtEnd()) {
      return common::Status::InvalidArgument(
          "hibernation image for session " + id + " has " +
          std::to_string(reader.remaining()) +
          " trailing byte(s) before its checksum");
    }

    auto created_or = registry_->Create(scenario, session::SessionOptions{});
    if (!created_or.ok()) return created_or.status();
    std::unique_ptr<session::ScenarioSession> restored =
        std::move(created_or).value();
    QLEARN_RETURN_IF_ERROR(restored->RestoreSnapshot(payload));

    // Commit. Time spent parked counts against the wall-clock allowance:
    // reconstruct opened_at so elapsed = consumed-at-park + parked
    // interval, no matter how long the image sat in the store.
    entry->session = std::move(restored);
    entry->budget.max_questions = max_questions;
    entry->budget.max_pending = static_cast<size_t>(max_pending);
    entry->budget.max_wall_seconds = std::bit_cast<double>(max_wall_bits);
    const auto now = clock_();
    const double total =
        std::bit_cast<double>(wall_consumed_bits) +
        std::chrono::duration<double>(now - entry->parked_at).count();
    entry->opened_at =
        now - std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(total));
    entry->parked.store(false, std::memory_order_relaxed);
    common::BumpCounter(counters_.rehydrates);
    snapshot_store_->Delete(id);
    return common::Status::OK();
  }();
  if (!status.ok()) {
    common::BumpCounter(counters_.hibernate_errors);
  }
  return status;
}

common::Status SessionService::Park(std::string_view id_view) {
  const std::string id(id_view);  // parking is cold; materialize once
  auto entry = Find(id);
  if (entry == nullptr) {
    return Fail(common::Status::NotFound("unknown session: " + id));
  }
  std::lock_guard<std::mutex> lock(entry->mutex);
  if (entry->closed) {
    return Fail(common::Status::NotFound("session already closed: " + id));
  }
  if (entry->parked.load(std::memory_order_relaxed)) {
    return common::Status::OK();  // already hibernated
  }
  if (entry->pending > 0) {
    return Fail(common::Status::FailedPrecondition(
        "session " + id + " has " + std::to_string(entry->pending) +
        " unanswered question(s); only quiescent sessions park"));
  }
  common::Status status = ParkLocked(id, entry.get());
  if (!status.ok()) return Fail(std::move(status));
  return common::Status::OK();
}

common::Result<ExportedSession> SessionService::ExportSession(
    std::string_view id_view) {
  const std::string id(id_view);  // handoff is cold; materialize once
  auto entry = Find(id);
  if (entry == nullptr) {
    return Fail(common::Status::NotFound("unknown session: " + id));
  }
  ExportedSession out;
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->closed) {
      return Fail(common::Status::NotFound("session already closed: " + id));
    }
    if (!entry->parked.load(std::memory_order_relaxed)) {
      if (entry->pending > 0) {
        return Fail(common::Status::FailedPrecondition(
            "session " + id + " has " + std::to_string(entry->pending) +
            " unanswered question(s); only quiescent sessions export"));
      }
      common::Status parked = ParkLocked(id, entry.get());
      if (!parked.ok()) return Fail(std::move(parked));
    }
    auto image_or = snapshot_store_->Get(id);
    if (!image_or.ok()) {
      // The entry stays parked: the handle still exists here, and the next
      // call on it will surface the same missing-image DataLoss.
      return Fail(common::Status::DataLoss(
          "snapshot image for exported session " + id +
          " is missing: " + image_or.status().message()));
    }
    out.scenario = entry->scenario;
    out.image = std::move(image_or).value();
    entry->closed = true;
    entry->parked.store(false, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.erase(id);
  }
  snapshot_store_->Delete(id);
  common::BumpCounter(counters_.exports);
  return out;
}

common::Status SessionService::ImportSession(std::string_view id_view,
                                             const std::string& scenario,
                                             std::string_view image) {
  const std::string id(id_view);
  {
    const common::Status valid = ValidateHandle(id);
    if (!valid.ok()) return Fail(valid);
  }
  // Verify the image before installing anything: checksum trailer first
  // (like rehydrate), then the header fields the import call can check
  // without deserializing the learner.
  if (image.size() < kChecksumBytes) {
    return Fail(common::Status::DataLoss(
        "import image for session " + id + " is " +
        std::to_string(image.size()) +
        " byte(s), too small to carry its 8-byte checksum trailer"));
  }
  const size_t body_size = image.size() - kChecksumBytes;
  const uint64_t stored = ReadTrailerU64(image, body_size);
  const uint64_t computed = Fnv1a64(image.substr(0, body_size));
  if (stored != computed) {
    return Fail(common::Status::DataLoss(
        "import image for session " + id + " fails its checksum over bytes "
        "[0, " + std::to_string(body_size) + "): stored " + HexU64(stored) +
        ", computed " + HexU64(computed)));
  }
  session::SnapshotReader reader(image.substr(0, body_size));
  uint32_t magic = 0;
  QLEARN_RETURN_IF_ERROR(reader.ReadU32(&magic));
  if (magic != kHibernationMagic) {
    return Fail(common::Status::InvalidArgument(
        "import for session " + id + ": not a hibernation image (magic " +
        HexU64(magic) + " at byte 0)"));
  }
  uint32_t version = 0;
  QLEARN_RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != kHibernationVersion) {
    return Fail(common::Status::InvalidArgument(
        "import for session " + id + ": unsupported hibernation image "
        "version " + std::to_string(version) + " (this build reads version " +
        std::to_string(kHibernationVersion) + ")"));
  }
  std::string image_scenario;
  QLEARN_RETURN_IF_ERROR(reader.ReadBytes(&image_scenario));
  if (image_scenario != scenario) {
    return Fail(common::Status::InvalidArgument(
        "import image for session " + id + " was taken for scenario \"" +
        image_scenario + "\", but the import names scenario \"" + scenario +
        "\""));
  }

  auto entry = std::make_shared<Entry>();
  entry->scenario = scenario;
  const auto now = clock_();
  entry->opened_at = now;  // rehydrate reconstructs it from the image
  entry->last_touch = now;
  entry->parked_at = now;  // time parked elsewhere was folded in at export
  entry->parked.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (sessions_.count(id) != 0) {
      return Fail(
          common::Status::AlreadyExists("session id already open: " + id));
    }
    sessions_.emplace(id, entry);
  }
  const common::Status put = snapshot_store_->Put(id, image);
  if (!put.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.erase(id);
    return Fail(put);
  }
  common::BumpCounter(counters_.imports);
  return common::Status::OK();
}

size_t SessionService::ParkIdleSessions() {
  if (hibernate_after_seconds_ <= 0) return 0;
  std::vector<std::pair<std::string, std::shared_ptr<Entry>>> entries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entries.assign(sessions_.begin(), sessions_.end());
  }
  size_t parked = 0;
  const auto now = clock_();
  for (auto& [id, entry] : entries) {
    // try_lock: an in-flight call on the session means it is not idle —
    // skip it rather than stall the sweep behind learner work.
    std::unique_lock<std::mutex> lock(entry->mutex, std::try_to_lock);
    if (!lock.owns_lock()) continue;
    if (entry->closed || entry->parked.load(std::memory_order_relaxed) ||
        entry->pending > 0) {
      continue;
    }
    const double idle =
        std::chrono::duration<double>(now - entry->last_touch).count();
    if (idle < hibernate_after_seconds_) continue;
    if (ParkLocked(id, entry.get()).ok()) ++parked;
  }
  return parked;
}

Result<std::vector<wire::QuestionPayload>> SessionService::Ask(
    std::string_view id, size_t k) {
  const LatencyTimer timer(&counters_.ask_latency_us);
  common::BumpCounter(counters_.asks);
  auto entry = Find(id);
  if (entry == nullptr) {
    return Fail(
        common::Status::NotFound("unknown session: " + std::string(id)));
  }
  std::lock_guard<std::mutex> lock(entry->mutex);
  if (entry->closed) {
    return Fail(common::Status::NotFound("session already closed: " +
                                         std::string(id)));
  }
  if (entry->parked.load(std::memory_order_relaxed)) {
    common::Status restored = RehydrateLocked(std::string(id), entry.get());
    if (!restored.ok()) return Fail(std::move(restored));
  }
  entry->last_touch = clock_();
  if (entry->pending > 0) {
    return Fail(common::Status::FailedPrecondition(
        "session " + std::string(id) + " has " +
        std::to_string(entry->pending) + " unanswered question(s); Tell first"));
  }
  if (k == 0) {
    return Fail(common::Status::InvalidArgument("Ask needs k > 0"));
  }
  const SessionBudget& budget = entry->budget;
  if (budget.max_wall_seconds > 0 &&
      ElapsedSeconds(entry->opened_at) > budget.max_wall_seconds) {
    entry->budget_exhausted = true;
    return Fail(common::Status::ResourceExhausted(
        "session " + std::string(id) + " exceeded its wall-clock budget of " +
        std::to_string(budget.max_wall_seconds) + "s"));
  }
  const uint64_t asked = entry->session->stats().questions;
  if (asked >= budget.max_questions) {
    entry->budget_exhausted = true;
    return Fail(common::Status::ResourceExhausted(
        "session " + std::string(id) + " exhausted its question budget of " +
        std::to_string(budget.max_questions)));
  }
  // Clamp the batch to both budgets; a batch truncated mid-Ask by the
  // question budget is still served (the refusal comes on the next Ask).
  k = std::min<uint64_t>(k, budget.max_questions - asked);
  k = std::min(k, budget.max_pending);

  const std::vector<std::string> texts = entry->session->NextQuestions(k);
  const std::vector<std::vector<uint64_t>> ids = entry->session->PendingIds();
  const std::string kind = entry->session->PayloadKind();
  std::vector<wire::QuestionPayload> payloads;
  payloads.reserve(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    wire::QuestionPayload payload;
    payload.kind = kind;
    if (i < ids.size()) payload.ids = ids[i];
    payload.text = texts[i];
    payloads.push_back(std::move(payload));
  }
  entry->pending = payloads.size();
  common::BumpCounter(counters_.questions_served, payloads.size());
  return payloads;
}

template <typename MakeLabels>
common::Status SessionService::TellImpl(std::string_view id, size_t count,
                                        MakeLabels&& make_labels) {
  const LatencyTimer timer(&counters_.tell_latency_us);
  common::BumpCounter(counters_.tells);
  auto entry = Find(id);
  if (entry == nullptr) {
    return Fail(
        common::Status::NotFound("unknown session: " + std::string(id)));
  }
  std::lock_guard<std::mutex> lock(entry->mutex);
  if (entry->closed) {
    return Fail(common::Status::NotFound("session already closed: " +
                                         std::string(id)));
  }
  if (entry->parked.load(std::memory_order_relaxed)) {
    common::Status restored = RehydrateLocked(std::string(id), entry.get());
    if (!restored.ok()) return Fail(std::move(restored));
  }
  entry->last_touch = clock_();
  if (entry->pending == 0) {
    return Fail(common::Status::FailedPrecondition(
        "session " + std::string(id) + " has no pending questions to answer"));
  }
  if (count != entry->pending) {
    return Fail(common::Status::InvalidArgument(
        "session " + std::string(id) + " expects " +
        std::to_string(entry->pending) + " label(s), got " +
        std::to_string(count)));
  }
  entry->session->AnswerAll(make_labels());
  entry->pending = 0;
  common::BumpCounter(counters_.labels_accepted, count);
  return common::Status::OK();
}

common::Status SessionService::Tell(std::string_view id,
                                    const std::vector<bool>& labels) {
  return TellImpl(id, labels.size(),
                  [&]() -> const std::vector<bool>& { return labels; });
}

common::Status SessionService::Tell(std::string_view id, const bool* labels,
                                    size_t count) {
  // AnswerAll takes vector<bool>, so the span path still materializes one —
  // a single small allocation, the fixed per-tell cost the debug-build
  // allocation budget in tests/protocol_alloc_test.cc accounts for.
  return TellImpl(id, count, [&] {
    std::vector<bool> copied(count);
    for (size_t i = 0; i < count; ++i) copied[i] = labels[i];
    return copied;
  });
}

Result<std::vector<bool>> SessionService::OracleLabels(std::string_view id) {
  const LatencyTimer timer(&counters_.oracle_latency_us);
  common::BumpCounter(counters_.oracles);
  auto entry = Find(id);
  if (entry == nullptr) {
    return Fail(
        common::Status::NotFound("unknown session: " + std::string(id)));
  }
  std::lock_guard<std::mutex> lock(entry->mutex);
  if (entry->closed) {
    return Fail(common::Status::NotFound("session already closed: " +
                                         std::string(id)));
  }
  if (entry->parked.load(std::memory_order_relaxed)) {
    common::Status restored = RehydrateLocked(std::string(id), entry.get());
    if (!restored.ok()) return Fail(std::move(restored));
  }
  entry->last_touch = clock_();
  if (entry->pending == 0) {
    return Fail(common::Status::FailedPrecondition(
        "session " + std::string(id) + " has no pending questions to label"));
  }
  return entry->session->OracleLabels();
}

Result<SessionStatus> SessionService::Status(std::string_view id) const {
  const LatencyTimer timer(&counters_.status_latency_us);
  common::BumpCounter(counters_.statuses);
  auto entry = Find(id);
  if (entry == nullptr) {
    return Fail(
        common::Status::NotFound("unknown session: " + std::string(id)));
  }
  std::lock_guard<std::mutex> lock(entry->mutex);
  if (entry->closed) {
    return Fail(common::Status::NotFound("session already closed: " +
                                         std::string(id)));
  }
  if (entry->parked.load(std::memory_order_relaxed)) {
    common::Status restored = RehydrateLocked(std::string(id), entry.get());
    if (!restored.ok()) return Fail(std::move(restored));
  }
  entry->last_touch = clock_();
  SessionStatus status;
  status.id = std::string(id);
  status.scenario = entry->scenario;
  status.stats = entry->session->stats();
  status.pending = entry->pending;
  status.budget_exhausted = entry->budget_exhausted;
  status.hypothesis = entry->session->Hypothesis();
  return status;
}

Result<CloseResult> SessionService::Close(std::string_view id_view) {
  const LatencyTimer timer(&counters_.close_latency_us);
  const std::string id(id_view);  // closes are once per session; keep simple
  common::BumpCounter(counters_.closes);
  auto entry = Find(id);
  if (entry == nullptr) {
    return Fail(common::Status::NotFound("unknown session: " + id));
  }
  CloseResult result;
  common::Status rehydrate_error;  // OK unless a parked image was bad
  {
    std::lock_guard<std::mutex> lock(entry->mutex);
    if (entry->closed) {
      return Fail(common::Status::NotFound("session already closed: " + id));
    }
    if (entry->parked.load(std::memory_order_relaxed)) {
      rehydrate_error = RehydrateLocked(id, entry.get());
    }
    entry->pending = 0;
    entry->closed = true;
    if (rehydrate_error.ok()) {
      entry->session->Finish();
      result.hypothesis.kind = entry->session->PayloadKind();
      result.hypothesis.text = entry->session->Hypothesis();
      result.stats = entry->session->stats();
    } else {
      // Unrecoverable image: the handle is still released (the caller is
      // done with the session) and the dead image dropped — the error
      // travels back so the loss is visible.
      entry->parked.store(false, std::memory_order_relaxed);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.erase(id);
  }
  if (!rehydrate_error.ok()) {
    snapshot_store_->Delete(id);
    return Fail(std::move(rehydrate_error));
  }
  return result;
}

std::vector<std::string> SessionService::ListOpen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> ids;
  ids.reserve(sessions_.size());
  for (const auto& [id, unused] : sessions_) ids.push_back(id);
  return ids;
}

size_t SessionService::OpenCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

size_t SessionService::ResidentCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t resident = 0;
  for (const auto& [id, entry] : sessions_) {
    if (!entry->parked.load(std::memory_order_relaxed)) ++resident;
  }
  return resident;
}

size_t SessionService::ParkedCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t parked = 0;
  for (const auto& [id, entry] : sessions_) {
    if (entry->parked.load(std::memory_order_relaxed)) ++parked;
  }
  return parked;
}

ServiceCounters SessionService::Counters() const {
  ServiceCounters snapshot;
  common::LoadCounters(counters_, kServiceCounterFields, &snapshot);
  for (const auto& field : kServiceLatencyFields) {
    for (size_t i = 0; i < LatencySnapshot::kBuckets; ++i) {
      (snapshot.*field.member).buckets[i] =
          common::LoadCounter((counters_.*field.member).buckets[i]);
    }
  }
  return snapshot;
}

}  // namespace service
}  // namespace qlearn
