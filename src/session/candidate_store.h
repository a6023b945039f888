// Arena-backed structure-of-arrays candidate store: the bit-parallel data
// layout under the interactive engines' propagation and scoring hot paths.
//
// The store indexes slots: whatever unit its engine classifies at once.
// For the relational (join/chain) engine a slot is an agreement-mask class,
// the set of tuple paths with one per-edge mask tuple, which every
// propagation predicate and greedy score treats alike; for the twig engine
// a slot is a candidate node. Either way slot c is the engine frontier's
// class c. The layout is bit-transposed relative to slot-major mask
// vectors: plane p is one contiguous run of uint64_t words in which bit c
// says "slot c agrees on pair p" (for the relational engine, one plane per
// pair bit of each edge's universe; for the twig engine, one witness plane
// per document node). Classification then stops being a per-slot loop and
// becomes a handful of word-at-a-time sweeps:
//
//   forced positive   open ∧ AND_{b∈θ*} plane_b          (A == θ*)
//   forced negative   open ∧ ¬(OR_{b∈θ*∧¬m} plane_b)     (negative m covers A;
//                                                         m = 0 gives A == 0)
//   split scoring     popcount per candidate over the θ* planes, bit-sliced
//
// The store holds no lifecycle state: `open` and `active` are the
// frontier's class words (session/frontier.h), which a sweep copies as its
// seed, and the slot axis is the frontier's class axis, never renumbered.
// The API below says "candidate" for a slot. The twig engine additionally
// keeps its memoized selected-sets as bitset rows here and derives the
// node→candidate witness index by transposing the active rows into the
// planes (64×64 bit-block transpose).
//
// Nothing here is serialized: the relational planes are a function of the
// engine's inputs (its constructor rebuilds them), and the twig rows and
// witness planes are per-hypothesis caches that a restored engine rebuilds
// lazily.
#ifndef QLEARN_SESSION_CANDIDATE_STORE_H_
#define QLEARN_SESSION_CANDIDATE_STORE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace qlearn {
namespace session {

/// Calls `fn(index)` for every set bit of `words[0..count)`, ascending.
/// The word loop is the sweep-to-frontier bridge: kernels
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
  /// (Re)configures the store: `num_planes` bit-planes over `capacity`
  /// candidates, all empty (SetPlaneBit fills them).
  void Reset(size_t num_planes, size_t capacity);

  /// Enables the row facility: one `cols`-bit row per candidate (the twig
  /// engine's memoized selected-sets). Rows are per-epoch caches — see
  /// InvalidateRows.
  void ConfigureRows(size_t cols);

  size_t num_planes() const { return num_planes_; }
  size_t capacity() const { return capacity_; }
  /// Words per plane: every sweep covers WordsFor(capacity()) words, the
  /// extent of the frontier's class words it is seeded from.
  size_t words() const { return words_; }
  bool has_rows() const { return row_cols_ != 0; }
  size_t row_cols() const { return row_cols_; }
  size_t row_words() const { return WordsFor(row_cols_); }

  // --- planes ------------------------------------------------------------

  /// Sets "candidate `id` agrees on plane `p`".
  void SetPlaneBit(size_t p, size_t id);
  bool PlaneBitForTest(size_t p, size_t id) const;

  // --- word-at-a-time sweep kernels (words() words of `acc`) --------------

  /// acc[w] &= AND over b∈mask of plane(base+b)[w]. An empty mask leaves
  /// acc unchanged (AND over nothing is all-ones).
  void AndPlanes(size_t base, uint64_t mask, uint64_t* acc) const;

  /// acc[w] &= ¬(OR over b∈mask of plane(base+b)[w]): keeps exactly the
  /// candidates agreeing on *none* of the masked planes. An empty mask
  /// leaves acc unchanged (OR over nothing is empty; its complement keeps
  /// everything).
  void AndNotOrPlanes(size_t base, uint64_t mask, uint64_t* acc) const;

  /// counts[c] = number of set planes among {base+b : b∈mask} for
  /// candidate c. Bit-sliced ripple-carry popcount: one pass over the
  /// masked planes' words, no per-candidate loop until the final 7-slice
  /// extraction. `counts` is resized to words()*64 (≥ capacity).
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
  /// plane u gets bit c iff bit c of `active` (words() words) is set and
  /// row c holds u. Requires rows configured with row_cols() ==
  /// num_planes() and every active row present (the engine materializes
  /// them first).
  void TransposeActiveRowsToPlanes(const uint64_t* active);

 private:
  static size_t WordsFor(size_t bits) { return (bits + 63) / 64; }
  /// Plane p's words (words_ apart in the arena).
  uint64_t* Plane(size_t p) { return planes_.data() + p * words_; }
  const uint64_t* Plane(size_t p) const { return planes_.data() + p * words_; }

  size_t num_planes_ = 0;
  size_t capacity_ = 0;
  size_t words_ = 0;

  /// The arena: all planes in one contiguous allocation, plane p at word
  /// offset p * words_. Bits ≥ capacity_ are zero, so sweeps read whole
  /// words unguarded.
  std::vector<uint64_t> planes_;

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
