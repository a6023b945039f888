// Unit tests for the arena-backed JSON parse mode (json::Arena +
// ParseInto + View): allocation mechanics (alignment, slab growth,
// oversized requests, Reset recycling to a capacity plateau), zero-copy
// string leaves, and View-tree structure for every value type. The
// parser's round-trip property and pinned error strings live in
// wire_property_test.cc; this file covers the arena itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "service/json.h"

namespace qlearn {
namespace service {
namespace json {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(64);
  char* a = static_cast<char*>(arena.Allocate(3, 1));
  char* b = static_cast<char*>(arena.Allocate(8, 8));
  char* c = static_cast<char*>(arena.Allocate(16, 8));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 8, 0u);
  // Writing each block must not clobber the others.
  std::memset(a, 0xaa, 3);
  std::memset(b, 0xbb, 8);
  std::memset(c, 0xcc, 16);
  EXPECT_EQ(static_cast<unsigned char>(a[2]), 0xaa);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0xbb);
  EXPECT_EQ(static_cast<unsigned char>(c[15]), 0xcc);
}

TEST(ArenaTest, GrowsBeyondOneSlabAndOversizedRequestsGetOwnSlab) {
  Arena arena(64);
  // Many small blocks force additional slabs.
  for (int i = 0; i < 100; ++i) {
    ASSERT_NE(arena.Allocate(16, 8), nullptr);
  }
  const size_t grown = arena.CapacityBytes();
  EXPECT_GE(grown, 100 * 16u);
  // A request bigger than the slab size still succeeds (dedicated slab).
  char* big = static_cast<char*>(arena.Allocate(1000, 8));
  ASSERT_NE(big, nullptr);
  std::memset(big, 0x5a, 1000);
  EXPECT_GT(arena.CapacityBytes(), grown);
}

TEST(ArenaTest, ResetRecyclesSlabsToACapacityPlateau) {
  Arena arena(256);
  auto churn = [&arena] {
    for (int i = 0; i < 64; ++i) {
      ASSERT_NE(arena.Allocate(24, 8), nullptr);
    }
  };
  churn();
  arena.Reset();
  churn();
  arena.Reset();
  const size_t plateau = arena.CapacityBytes();
  // Steady state: the same workload after Reset allocates no new slabs.
  for (int round = 0; round < 10; ++round) {
    arena.Reset();
    churn();
    EXPECT_EQ(arena.CapacityBytes(), plateau) << "round " << round;
  }
}

TEST(ArenaTest, ParseReachesSteadyStateAcrossResets) {
  const std::string document =
      "{\"op\":\"ask\",\"id\":\"session-123\",\"k\":4,"
      "\"nested\":{\"ids\":[1,2,3,4,5],\"ok\":true},"
      "\"text\":\"needs \\\"escaping\\\" here\"}";
  Arena arena;
  for (int i = 0; i < 3; ++i) {
    arena.Reset();
    ASSERT_TRUE(ParseInto(document, &arena).ok());
  }
  const size_t plateau = arena.CapacityBytes();
  for (int i = 0; i < 20; ++i) {
    arena.Reset();
    ASSERT_TRUE(ParseInto(document, &arena).ok());
    EXPECT_EQ(arena.CapacityBytes(), plateau);
  }
}

TEST(ViewTest, EscapeFreeStringsAreViewsIntoTheInput) {
  const std::string document = "{\"key\":\"plain value\"}";
  Arena arena;
  auto parsed = ParseInto(document, &arena);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const View& root = *parsed.value();
  ASSERT_EQ(root.type, Type::kObject);
  ASSERT_EQ(root.member_count, 1u);
  const std::string_view key = root.members[0].key;
  const std::string_view value = root.members[0].value.string_value;
  EXPECT_EQ(key, "key");
  EXPECT_EQ(value, "plain value");
  // Zero-copy: both views point into the original document's buffer.
  const char* begin = document.data();
  const char* end = document.data() + document.size();
  EXPECT_TRUE(key.data() >= begin && key.data() < end);
  EXPECT_TRUE(value.data() >= begin && value.data() < end);
}

TEST(ViewTest, EscapedStringsAreDecodedCopies) {
  const std::string document = "{\"key\":\"line\\nbreak\"}";
  Arena arena;
  auto parsed = ParseInto(document, &arena);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const View& root = *parsed.value();
  const std::string_view value = root.members[0].value.string_value;
  EXPECT_EQ(value, "line\nbreak");
  // The decoded bytes cannot live in the document (it has no raw newline),
  // so the view must point at an arena copy.
  const char* begin = document.data();
  const char* end = document.data() + document.size();
  EXPECT_FALSE(value.data() >= begin && value.data() < end);
}

TEST(ViewTest, AllValueTypesParseIntoTheExpectedShapes) {
  const std::string document =
      "{\"b\":true,\"n\":18446744073709551615,\"s\":\"x\","
      "\"a\":[false,0,\"\",[]],\"o\":{\"inner\":1}}";
  Arena arena;
  auto parsed = ParseInto(document, &arena);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const View& root = *parsed.value();
  ASSERT_EQ(root.type, Type::kObject);
  ASSERT_EQ(root.member_count, 5u);

  EXPECT_EQ(root.members[0].value.type, Type::kBool);
  EXPECT_TRUE(root.members[0].value.bool_value);

  EXPECT_EQ(root.members[1].value.type, Type::kUInt);
  EXPECT_EQ(root.members[1].value.uint_value, UINT64_MAX);

  EXPECT_EQ(root.members[2].value.type, Type::kString);
  EXPECT_EQ(root.members[2].value.string_value, "x");

  const View& array = root.members[3].value;
  ASSERT_EQ(array.type, Type::kArray);
  ASSERT_EQ(array.element_count, 4u);
  EXPECT_EQ(array.elements[0].type, Type::kBool);
  EXPECT_FALSE(array.elements[0].bool_value);
  EXPECT_EQ(array.elements[1].type, Type::kUInt);
  EXPECT_EQ(array.elements[2].type, Type::kString);
  EXPECT_EQ(array.elements[3].type, Type::kArray);
  EXPECT_EQ(array.elements[3].element_count, 0u);

  const View& object = root.members[4].value;
  ASSERT_EQ(object.type, Type::kObject);
  ASSERT_EQ(object.member_count, 1u);
  EXPECT_EQ(object.members[0].key, "inner");
  EXPECT_EQ(object.members[0].value.uint_value, 1u);

  // And the whole tree serializes back to the input bytes.
  std::string serialized;
  AppendView(root, &serialized);
  EXPECT_EQ(serialized, document);
}

TEST(ViewTest, ShapeHelpersFindConvertAndRejectUnknownKeys) {
  const std::string document = "{\"kind\":\"twig\",\"count\":7,\"ok\":true}";
  Arena arena;
  auto parsed = ParseInto(document, &arena);
  ASSERT_TRUE(parsed.ok());
  const View& root = *parsed.value();

  uint64_t seen = 0;
  const View* kind = Find(root, "kind", &seen);
  const View* count = Find(root, "count", &seen);
  const View* ok = Find(root, "ok", &seen);
  ASSERT_NE(kind, nullptr);
  ASSERT_NE(count, nullptr);
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(Find(root, "missing", &seen), nullptr);

  auto kind_text = ToStringView(kind, "\"kind\"");
  ASSERT_TRUE(kind_text.ok());
  EXPECT_EQ(kind_text.value(), "twig");
  auto count_value = ToUInt(count, "\"count\"");
  ASSERT_TRUE(count_value.ok());
  EXPECT_EQ(count_value.value(), 7u);
  auto ok_value = ToBool(ok, "\"ok\"");
  ASSERT_TRUE(ok_value.ok());
  EXPECT_TRUE(ok_value.value());

  // Every key was looked up, so the strict check passes...
  EXPECT_TRUE(CheckAllKeysKnown(root, seen, "test object").ok());
  // ...and with one lookup missing it names the unknown key.
  uint64_t partial = 0;
  Find(root, "kind", &partial);
  Find(root, "count", &partial);
  const common::Status status =
      CheckAllKeysKnown(root, partial, "test object");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("ok"), std::string::npos);
}

TEST(ViewTest, LookupBeyondTheSeenMaskIsSafeAndStillRejected) {
  // 65 members with the looked-up key at index 64: the seen bitmask only
  // covers 64 members, so marking this hit would shift by >= 64 (UB).
  // Find must skip the bookkeeping and CheckAllKeysKnown must still
  // reject the oversized object.
  std::string document = "{";
  for (int i = 0; i < 64; ++i) {
    document += "\"k" + std::to_string(i) + "\":1,";
  }
  document += "\"op\":\"counters\"}";
  Arena arena;
  auto parsed = ParseInto(document, &arena);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const View& root = *parsed.value();
  ASSERT_EQ(root.member_count, 65u);

  uint64_t seen = 0;
  const View* op = Find(root, "op", &seen);
  ASSERT_NE(op, nullptr);
  auto op_text = ToStringView(op, "\"op\"");
  ASSERT_TRUE(op_text.ok());
  EXPECT_EQ(op_text.value(), "counters");
  EXPECT_EQ(seen, 0u);  // index 64 has no bit to set
  EXPECT_FALSE(CheckAllKeysKnown(root, seen, "test object").ok());
}

TEST(ViewTest, AppendUIntMatchesToString) {
  const uint64_t values[] = {0, 1, 9, 10, 4096, UINT64_MAX};
  for (uint64_t value : values) {
    std::string out;
    AppendUInt(value, &out);
    EXPECT_EQ(out, std::to_string(value));
  }
}

}  // namespace
}  // namespace json
}  // namespace service
}  // namespace qlearn
