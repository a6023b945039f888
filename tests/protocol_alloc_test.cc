// Allocation budget of the serving hot path, measured with the counting
// operator-new hooks (common/alloc_probe.h; this binary links
// alloc_probe_hooks.cc). The flattened request path — arena JSON parse,
// string_view session lookup, append-mode response writers into a recycled
// buffer — must handle a steady-state request in a small fixed number of
// heap allocations (the learner's answer itself may allocate a few
// vectors; the protocol layer proper contributes none).
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/alloc_probe.h"
#include "net/protocol.h"
#include "service/json.h"
#include "service/session_service.h"

namespace qlearn {
namespace net {
namespace {

/// Allocations across one HandleFrameInto call with a warm arena/buffer.
uint64_t CountArenaFrame(service::SessionService* service,
                         const std::string& request,
                         service::json::Arena* arena, std::string* out) {
  arena->Reset();
  out->clear();
  const uint64_t before = common::AllocProbeNewCount();
  HandleFrameInto(service, request, arena, out);
  return common::AllocProbeNewCount() - before;
}

/// Extracts the session id from an {"ok":{"id":"..."}} open response.
std::string OpenSession(service::SessionService* service,
                        const std::string& scenario) {
  service::json::Arena arena;
  std::string response;
  HandleFrameInto(service,
                  "{\"op\":\"open\",\"scenario\":\"" + scenario +
                      "\",\"seed\":7}",
                  &arena, &response);
  const std::string marker = "\"id\":\"";
  const size_t begin = response.find(marker);
  EXPECT_NE(begin, std::string::npos) << response;
  const size_t start = begin + marker.size();
  const size_t end = response.find('"', start);
  return response.substr(start, end - start);
}

class ProtocolAllocTest : public ::testing::Test {
 protected:
  service::SessionService service_;
  service::json::Arena arena_;
  std::string out_;
};

TEST_F(ProtocolAllocTest, SteadyStateAskStaysWithinFixedBudget) {
  // Fresh session per round so the learner never converges mid-measurement;
  // one warmup ask/tell per session puts its lazy state in place, then one
  // measured ask. The arena, response buffer, and service maps are shared
  // across rounds, so the protocol layer itself is at steady state.
  constexpr int kRounds = 16;
  constexpr uint64_t kAskBudget = 16;  // small fixed constant per request
  uint64_t worst_ask = 0;
  for (int round = 0; round < kRounds; ++round) {
    // "join" has 400 candidate pairs, so three k=1 asks per session never
    // exhaust it.
    const std::string id = OpenSession(&service_, "join");
    const std::string ask =
        "{\"op\":\"ask\",\"id\":\"" + id + "\",\"k\":1}";
    const std::string tell =
        "{\"op\":\"tell\",\"id\":\"" + id + "\",\"labels\":[true]}";
    // Warmup round: first ask on a session builds learner state.
    CountArenaFrame(&service_, ask, &arena_, &out_);
    ASSERT_EQ(out_.rfind("{\"ok\"", 0), 0u) << out_;
    CountArenaFrame(&service_, tell, &arena_, &out_);
    ASSERT_EQ(out_.rfind("{\"ok\"", 0), 0u) << out_;
    // Measured round.
    const uint64_t ask_allocs =
        CountArenaFrame(&service_, ask, &arena_, &out_);
    ASSERT_EQ(out_.rfind("{\"ok\"", 0), 0u) << out_;
    worst_ask = std::max(worst_ask, ask_allocs);
    // Answer the served question (default budget allows one pending).
    CountArenaFrame(&service_, tell, &arena_, &out_);
    ASSERT_EQ(out_.rfind("{\"ok\"", 0), 0u) << out_;
    CountArenaFrame(&service_, "{\"op\":\"close\",\"id\":\"" + id + "\"}",
                    &arena_, &out_);
  }
  EXPECT_LE(worst_ask, kAskBudget)
      << "steady-state ask allocated " << worst_ask
      << " times (budget " << kAskBudget << ")";
}

TEST_F(ProtocolAllocTest, SteadyStateTellAndStatusAreNearZero) {
  const std::string id = OpenSession(&service_, "join");
  const std::string ask = "{\"op\":\"ask\",\"id\":\"" + id + "\",\"k\":1}";
  const std::string tell =
      "{\"op\":\"tell\",\"id\":\"" + id + "\",\"labels\":[true]}";
  const std::string status = "{\"op\":\"status\",\"id\":\"" + id + "\"}";
  // Warm everything: one full round plus a status probe.
  CountArenaFrame(&service_, ask, &arena_, &out_);
  ASSERT_EQ(out_.rfind("{\"ok\"", 0), 0u) << out_;
  CountArenaFrame(&service_, tell, &arena_, &out_);
  ASSERT_EQ(out_.rfind("{\"ok\"", 0), 0u) << out_;
  CountArenaFrame(&service_, status, &arena_, &out_);

  // Tell's only allocation is the labels vector handed to the session
  // interface (plus whatever the learner's update does); status should be
  // allocation-free outside the first capacity growth.
  CountArenaFrame(&service_, ask, &arena_, &out_);
  ASSERT_EQ(out_.rfind("{\"ok\"", 0), 0u) << out_;
  const uint64_t tell_allocs =
      CountArenaFrame(&service_, tell, &arena_, &out_);
  ASSERT_EQ(out_.rfind("{\"ok\"", 0), 0u) << out_;
  EXPECT_LE(tell_allocs, 12u) << "steady-state tell allocated "
                              << tell_allocs << " times";

  const uint64_t status_allocs =
      CountArenaFrame(&service_, status, &arena_, &out_);
  ASSERT_EQ(out_.rfind("{\"ok\"", 0), 0u) << out_;
  EXPECT_LE(status_allocs, 4u)
      << "steady-state status allocated " << status_allocs << " times";
}

TEST_F(ProtocolAllocTest, CountersOpIsAllocationFreeAtSteadyState) {
  const std::string counters = "{\"op\":\"counters\"}";
  CountArenaFrame(&service_, counters, &arena_, &out_);
  const uint64_t allocs =
      CountArenaFrame(&service_, counters, &arena_, &out_);
  ASSERT_EQ(out_.rfind("{\"ok\"", 0), 0u) << out_;
  EXPECT_LE(allocs, 2u)
      << "steady-state counters allocated " << allocs << " times";
}

TEST_F(ProtocolAllocTest, ProbeCountersActuallyTick) {
  // Sanity check on the hooks themselves, so a silent link change that
  // drops the counting TU fails loudly instead of making every budget
  // trivially pass at zero.
  const uint64_t before = common::AllocProbeNewCount();
  std::string* leaked_then_freed = new std::string(1024, 'x');
  const uint64_t after_new = common::AllocProbeNewCount();
  EXPECT_GT(after_new, before);
  const uint64_t deletes_before = common::AllocProbeDeleteCount();
  delete leaked_then_freed;
  EXPECT_GT(common::AllocProbeDeleteCount(), deletes_before);
}

}  // namespace
}  // namespace net
}  // namespace qlearn
