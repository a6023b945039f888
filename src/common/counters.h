// One counter mechanism for every stats struct in the stack
// (service::ServiceCounters, net::ReactorStats, net::RouterStats).
//
// A stats struct is a plain struct of named uint64_t fields that is both
// the live storage and the snapshot type. Its fields are declared once, in
// an X-macro list that expands to the members and to a field table (wire
// name + member pointer, in wire order); serializing, parsing, merging,
// printing and snapshotting are loops over the table. Writers bump a live
// field with a relaxed std::atomic_ref add and a snapshot loads each field
// relaxed, so a snapshot taken under load may be torn by one event across
// fields, while each field on its own is exact.
#ifndef QLEARN_COMMON_COUNTERS_H_
#define QLEARN_COMMON_COUNTERS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace qlearn {
namespace common {

/// One entry of a stats struct's field table.
template <typename Struct, typename Value = uint64_t>
struct CounterField {
  std::string_view name;  ///< the field's key on the wire and in print
  Value Struct::*member;
};

/// Adds `n` to a live field.
inline void BumpCounter(uint64_t& field, uint64_t n = 1) {
  std::atomic_ref<uint64_t>(field).fetch_add(n, std::memory_order_relaxed);
}

/// Subtracts `n` from a live gauge.
inline void DropCounter(uint64_t& field, uint64_t n = 1) {
  std::atomic_ref<uint64_t>(field).fetch_sub(n, std::memory_order_relaxed);
}

/// Reads a live field that writers may be bumping concurrently.
inline uint64_t LoadCounter(const uint64_t& field) {
  // atomic_ref needs a non-const referent; a load does not write through it.
  return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(field))
      .load(std::memory_order_relaxed);
}

/// Snapshots the `fields` of a live block into `out`, one load per field.
template <typename Struct, typename Base, size_t N>
void LoadCounters(const Struct& live, const CounterField<Base> (&fields)[N],
                  Struct* out) {
  // An aligned struct of uint64_t fields has every field aligned.
  static_assert(alignof(Base) >= std::atomic_ref<uint64_t>::required_alignment);
  for (const CounterField<Base>& field : fields) {
    out->*field.member = LoadCounter(live.*field.member);
  }
}

}  // namespace common
}  // namespace qlearn

/// Expands one entry of a counter X-macro list to its member declaration.
#define QLEARN_COUNTER_MEMBER(name) uint64_t name = 0;

#endif  // QLEARN_COMMON_COUNTERS_H_
