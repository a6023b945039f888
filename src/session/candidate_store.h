// Arena-backed structure-of-arrays candidate store: the bit-parallel data
// layout under the interactive engines' propagation and scoring hot paths.
//
// The store indexes slots: whatever unit its engine classifies at once.
// For the relational (join/chain) engine a slot is an agreement-mask class,
// the set of tuple paths with one per-edge mask tuple, which every
// propagation predicate and greedy score treats alike; for the twig engine
// a slot is a candidate node. The layout is bit-transposed relative to
// slot-major mask vectors: plane p is one contiguous run of uint64_t words
// in which bit d says "the slot in dense position d agrees on pair p" (for
// the relational engine, one plane per pair bit of each edge's universe;
// for the twig engine, one witness plane per document node).
// Classification then stops being a per-slot loop and becomes a handful of
// word-at-a-time sweeps:
//
//   forced positive   open ∧ AND_{b∈θ*} plane_b          (A == θ*)
//   forced negative   open ∧ ¬(OR_{b∈θ*∧¬m} plane_b)     (negative m covers A;
//                                                         m = 0 gives A == 0)
//   split scoring     popcount per candidate over the θ* planes, bit-sliced
//
// Alongside the planes the store mirrors two frontier bit-vectors — `open`
// (a slot propagation may still force: for the relational engine, a class
// with at least one member in state kUnknown) and `active` (kUnknown |
// kAsked: the twig engine's conviction eligibility) — and a dense↔slot-id
// mapping that compacts the dense axis as slots settle, so sweep cost
// tracks the live set, not the historical universe. The API below says
// "candidate" for a slot. The twig engine additionally keeps its
// memoized selected-sets as bitset rows here and derives the node→candidate
// witness index by transposing those rows into the planes (64×64 bit-block
// transpose).
//
// SerializeSnapshot/RestoreSnapshot produce a versioned binary image of the
// planes, bit-vectors, and dense mapping (header: magic "QLCS", version,
// word width, plane count, capacity) — the hibernation groundwork. Restore
// validates the header against the configured geometry and rejects
// mismatches with common::Status (never an assert), so a format bump or a
// foreign image degrades gracefully.
#ifndef QLEARN_SESSION_CANDIDATE_STORE_H_
#define QLEARN_SESSION_CANDIDATE_STORE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "session/snapshot.h"

namespace qlearn {
namespace session {

/// Calls `fn(dense_index)` for every set bit of `words[0..count)`,
/// ascending. The word loop is the sweep-to-frontier bridge: kernels
/// produce conviction bit-vectors, this materializes them as candidates.
template <typename Fn>
inline void ForEachSetBit(const uint64_t* words, size_t count, Fn&& fn) {
  for (size_t w = 0; w < count; ++w) {
    uint64_t m = words[w];
    while (m != 0) {
      const int b = std::countr_zero(m);
      fn(w * 64 + static_cast<size_t>(b));
      m &= m - 1;
    }
  }
}

/// Transposes a 64×64 bit matrix in place: bit j of a[i] moves to bit i of
/// a[j]. Hacker's Delight 7-3; the building block of the witness-plane
/// rebuild.
void Transpose64x64(uint64_t a[64]);

class CandidateStore {
 public:
  /// Dense slot of a candidate that was compacted away.
  static constexpr size_t kNoDense = std::numeric_limits<size_t>::max();

  /// (Re)configures the store: `num_planes` bit-planes over `capacity`
  /// candidates. All candidates start open and active, with dense slot d ==
  /// candidate id d; planes start empty (SetPlaneBit fills them).
  void Reset(size_t num_planes, size_t capacity);

  /// Enables the row facility: one `cols`-bit row per candidate (the twig
  /// engine's memoized selected-sets). Rows are per-epoch caches — see
  /// InvalidateRows — and pin the dense axis: a store with rows never
  /// compacts (row index == candidate id == dense slot).
  void ConfigureRows(size_t cols);

  size_t num_planes() const { return num_planes_; }
  size_t capacity() const { return capacity_; }
  size_t dense_size() const { return dense_size_; }
  /// Words per plane covering the current dense axis (sweep extent).
  size_t words() const { return WordsFor(dense_size_); }
  size_t open_count() const { return open_count_; }
  bool has_rows() const { return row_cols_ != 0; }
  size_t row_cols() const { return row_cols_; }
  size_t row_words() const { return WordsFor(row_cols_); }

  // --- dense ↔ candidate-id mapping -------------------------------------

  /// Dense slot of candidate `id`, or kNoDense once compacted away.
  size_t DenseOf(size_t id) const { return dense_of_[id]; }
  /// Candidate id in dense slot `d` (d < dense_size()).
  size_t IdOf(size_t d) const { return id_of_[d]; }

  // --- build-time plane population --------------------------------------

  /// Sets "candidate `id` agrees on plane `p`". Build-time: ids still map
  /// to their identity dense slot.
  void SetPlaneBit(size_t p, size_t id);
  bool PlaneBitForTest(size_t p, size_t id) const;

  // --- frontier mirror ---------------------------------------------------

  /// kUnknown → kAsked: leaves the active set, only the open bit clears.
  void OnAsked(size_t id);
  /// Terminal label (answered or forced): clears open and active. No-op for
  /// a candidate already compacted away (a discarded question can settle
  /// after compaction dropped it).
  void OnSettled(size_t id);
  bool IsOpen(size_t id) const;
  bool IsActive(size_t id) const;
  const uint64_t* open_words() const { return open_.data(); }
  const uint64_t* active_words() const { return active_.data(); }

  // --- word-at-a-time sweep kernels (dense axis) ------------------------

  /// out = copy of the open (resp. active) bit-vector, sized words().
  void CopyOpen(std::vector<uint64_t>* out) const;
  void CopyActive(std::vector<uint64_t>* out) const;

  /// acc[w] &= AND over b∈mask of plane(base+b)[w]. An empty mask leaves
  /// acc unchanged (AND over nothing is all-ones).
  void AndPlanes(size_t base, uint64_t mask, uint64_t* acc) const;

  /// acc[w] &= ¬(OR over b∈mask of plane(base+b)[w]): keeps exactly the
  /// candidates agreeing on *none* of the masked planes. An empty mask
  /// clears acc (OR over nothing is empty, its complement keeps everything
  /// — but an empty surviving-pair set means every candidate is covered, so
  /// the caller-facing contract is "mask == 0 ⇒ all of acc survives");
  /// see the engines: they special-case mask == 0 before calling.
  void AndNotOrPlanes(size_t base, uint64_t mask, uint64_t* acc) const;

  /// counts[d] = number of set planes among {base+b : b∈mask} for the
  /// candidate in dense slot d. Bit-sliced ripple-carry popcount: one pass
  /// over the masked planes' words, no per-candidate loop until the final
  /// 7-slice extraction. `counts` is resized to words()*64 (≥ dense_size).
  void PlanePopcounts(size_t base, uint64_t mask,
                      std::vector<uint8_t>* counts) const;

  // --- rows (twig selected-set memos) -----------------------------------

  /// Marks every row stale (the hypothesis changed). O(1) epoch bump.
  void InvalidateRows();
  /// True when row `id` was written (or marked absent) this epoch.
  bool RowFresh(size_t id) const;
  /// True when row `id` is fresh and holds a selected-set (not absent).
  bool RowPresent(size_t id) const;
  /// Marks row `id` fresh+present and returns its zeroed words.
  uint64_t* BeginRow(size_t id);
  /// Marks row `id` fresh but value-less (no anchored generalization).
  void MarkRowAbsent(size_t id);
  const uint64_t* RowWords(size_t id) const;
  /// popcount(row(id) ∧ other[0..row_words())) — the greedy-impact kernel.
  size_t PopcountRowAnd(size_t id, const uint64_t* other) const;
  /// True iff row(id) ∧ other is non-empty — the forced-negative test.
  bool RowIntersects(size_t id, const uint64_t* other) const;

  /// Rebuilds all planes as the transpose of the active candidates' rows:
  /// plane u gets bit d iff candidate d is active and its row holds u.
  /// Requires rows configured with row_cols() == num_planes() and every
  /// active row present (the engine materializes them first).
  void TransposeActiveRowsToPlanes();

  // --- compaction --------------------------------------------------------

  /// Drops every settled (non-open) candidate from the dense axis,
  /// remapping planes and bit-vectors; dropped ids report kNoDense. Keeps
  /// ascending id order, so sweep iteration order over survivors is
  /// unchanged. Not available once rows are configured.
  void Compact();
  /// Compacts when at least half the dense axis has settled and the axis
  /// spans more than one word (within one word a sweep costs the same);
  /// returns true if compaction ran. The policy keeps amortized cost O(1)
  /// per settle while sweeps track the live set within 2×.
  bool MaybeCompact();

  // --- snapshot ----------------------------------------------------------

  /// Appends the versioned binary image: "QLCS" header (version, word
  /// width, plane count, capacity, dense extent, row geometry) followed by
  /// the dense map, the open/active bit-vectors, and the plane words. Rows
  /// are per-epoch caches and are not serialized; a restored store starts
  /// with all rows stale.
  void SerializeSnapshot(SnapshotWriter* writer) const;
  /// Restores from an image produced by SerializeSnapshot into a store
  /// already configured (Reset/ConfigureRows) with the same geometry.
  /// Rejects foreign or mismatched images — wrong magic, version, word
  /// width, plane count, capacity, or row geometry — with InvalidArgument.
  common::Status RestoreSnapshot(SnapshotReader* reader);

 private:
  static size_t WordsFor(size_t bits) { return (bits + 63) / 64; }
  /// Plane p's words (capacity-words apart in the arena).
  uint64_t* Plane(size_t p) { return planes_.data() + p * words_cap_; }
  const uint64_t* Plane(size_t p) const {
    return planes_.data() + p * words_cap_;
  }
  void ClearBit(std::vector<uint64_t>& bits, size_t d) {
    bits[d / 64] &= ~(1ULL << (d % 64));
  }

  size_t num_planes_ = 0;
  size_t capacity_ = 0;
  size_t dense_size_ = 0;
  size_t words_cap_ = 0;  ///< allocated words per plane (capacity extent)
  size_t open_count_ = 0;

  /// The arena: all planes in one contiguous allocation, plane p at word
  /// offset p * words_cap_. Bits ≥ dense_size_ are zero everywhere
  /// (planes, open_, active_) so sweeps read whole words unguarded.
  std::vector<uint64_t> planes_;
  std::vector<uint64_t> open_;
  std::vector<uint64_t> active_;
  std::vector<size_t> id_of_;     ///< dense slot → candidate id (ascending)
  std::vector<size_t> dense_of_;  ///< candidate id → dense slot or kNoDense

  // Row facility (twig). rows_ is a second arena: row id at offset
  // id * row_words. Freshness is epoch-tagged like the frontier's memos
  // (epoch 0 reserved as never-valid).
  size_t row_cols_ = 0;
  std::vector<uint64_t> rows_;
  std::vector<uint64_t> row_epoch_;
  std::vector<uint8_t> row_present_;
  uint64_t rows_epoch_ = 1;
};

}  // namespace session
}  // namespace qlearn

#endif  // QLEARN_SESSION_CANDIDATE_STORE_H_
