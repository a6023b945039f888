#include "session/candidate_store.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace qlearn {
namespace session {

void Transpose64x64(uint64_t a[64]) {
  // Hacker's Delight 7-3 block swap (32→16→…→1), adjusted for LSB-first
  // bit numbering: element (i, j) is bit j of a[i], and the swap exchanges
  // the high-column half of the low rows with the low-column half of the
  // high rows (the classic MSB-first code swaps the mirror blocks, which
  // under this convention computes the anti-diagonal transpose instead).
  // Bit j of a[i] ends in bit i of a[j].
  uint64_t m = 0x00000000FFFFFFFFULL;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

void CandidateStore::Reset(size_t num_planes, size_t capacity) {
  num_planes_ = num_planes;
  capacity_ = capacity;
  words_ = WordsFor(capacity);
  planes_.assign(num_planes_ * words_, 0);

  row_cols_ = 0;
  rows_.clear();
  row_epoch_.clear();
  row_present_.clear();
  rows_epoch_ = 1;
}

void CandidateStore::ConfigureRows(size_t cols) {
  assert(cols > 0);
  row_cols_ = cols;
  rows_.assign(capacity_ * WordsFor(cols), 0);
  row_epoch_.assign(capacity_, 0);  // epoch 0: never valid
  row_present_.assign(capacity_, 0);
  rows_epoch_ = 1;
}

void CandidateStore::SetPlaneBit(size_t p, size_t id) {
  assert(id < capacity_);
  Plane(p)[id / 64] |= 1ULL << (id % 64);
}

bool CandidateStore::PlaneBitForTest(size_t p, size_t id) const {
  return (Plane(p)[id / 64] >> (id % 64)) & 1;
}

void CandidateStore::AndPlanes(size_t base, uint64_t mask,
                               uint64_t* acc) const {
  const size_t n = words_;
  for (uint64_t m = mask; m != 0; m &= m - 1) {
    const uint64_t* plane =
        Plane(base + static_cast<size_t>(std::countr_zero(m)));
    for (size_t w = 0; w < n; ++w) acc[w] &= plane[w];
  }
}

void CandidateStore::AndNotOrPlanes(size_t base, uint64_t mask,
                                    uint64_t* acc) const {
  const size_t n = words_;
  for (uint64_t m = mask; m != 0; m &= m - 1) {
    const uint64_t* plane =
        Plane(base + static_cast<size_t>(std::countr_zero(m)));
    for (size_t w = 0; w < n; ++w) acc[w] &= ~plane[w];
  }
}

void CandidateStore::PlanePopcounts(size_t base, uint64_t mask,
                                    std::vector<uint8_t>* counts) const {
  const size_t n = words_;
  counts->assign(n * 64, 0);
  for (size_t w = 0; w < n; ++w) {
    // Bit-sliced ripple-carry accumulator: slice i holds bit i of every
    // candidate's running count (≤ 64 planes ⇒ 7 slices suffice).
    uint64_t slice[7] = {0, 0, 0, 0, 0, 0, 0};
    for (uint64_t m = mask; m != 0; m &= m - 1) {
      uint64_t carry = Plane(base + static_cast<size_t>(std::countr_zero(m)))[w];
      for (int i = 0; i < 7 && carry != 0; ++i) {
        const uint64_t t = slice[i] & carry;
        slice[i] ^= carry;
        carry = t;
      }
    }
    uint8_t* out = counts->data() + w * 64;
    for (int i = 0; i < 7; ++i) {
      uint64_t s = slice[i];
      while (s != 0) {
        const int j = std::countr_zero(s);
        out[j] = static_cast<uint8_t>(out[j] | (1u << i));
        s &= s - 1;
      }
    }
  }
}

void CandidateStore::InvalidateRows() { ++rows_epoch_; }

bool CandidateStore::RowFresh(size_t id) const {
  return row_epoch_[id] == rows_epoch_;
}

bool CandidateStore::RowPresent(size_t id) const {
  return RowFresh(id) && row_present_[id] != 0;
}

uint64_t* CandidateStore::BeginRow(size_t id) {
  uint64_t* row = rows_.data() + id * row_words();
  for (size_t w = 0; w < row_words(); ++w) row[w] = 0;
  row_epoch_[id] = rows_epoch_;
  row_present_[id] = 1;
  return row;
}

void CandidateStore::MarkRowAbsent(size_t id) {
  row_epoch_[id] = rows_epoch_;
  row_present_[id] = 0;
}

const uint64_t* CandidateStore::RowWords(size_t id) const {
  return rows_.data() + id * row_words();
}

size_t CandidateStore::PopcountRowAnd(size_t id, const uint64_t* other) const {
  const uint64_t* row = RowWords(id);
  size_t total = 0;
  for (size_t w = 0; w < row_words(); ++w) {
    total += static_cast<size_t>(std::popcount(row[w] & other[w]));
  }
  return total;
}

bool CandidateStore::RowIntersects(size_t id, const uint64_t* other) const {
  const uint64_t* row = RowWords(id);
  for (size_t w = 0; w < row_words(); ++w) {
    if ((row[w] & other[w]) != 0) return true;
  }
  return false;
}

void CandidateStore::TransposeActiveRowsToPlanes(const uint64_t* active) {
  assert(has_rows() && row_cols_ == num_planes_);
  std::fill(planes_.begin(), planes_.end(), 0);
  uint64_t block[64];
  // 64 candidates × 64 columns at a time: gather the active rows' words
  // for one column block, bit-transpose, scatter into the planes.
  for (size_t c0 = 0; c0 < capacity_; c0 += 64) {
    const uint64_t active_word = active[c0 / 64];
    if (active_word == 0) continue;
    for (size_t u0 = 0; u0 < row_cols_; u0 += 64) {
      bool any = false;
      for (size_t i = 0; i < 64; ++i) {
        uint64_t word = 0;
        if (((active_word >> i) & 1) != 0) {
          assert(RowPresent(c0 + i) && "active candidate without a fresh row");
          word = RowWords(c0 + i)[u0 / 64];
        }
        block[i] = word;
        any = any || word != 0;
      }
      if (!any) continue;
      Transpose64x64(block);
      // After the transpose, block[j] holds column u0+j over candidates
      // c0..c0+63.
      const size_t limit = row_cols_ - u0 < 64 ? row_cols_ - u0 : 64;
      for (size_t j = 0; j < limit; ++j) {
        if (block[j] != 0) Plane(u0 + j)[c0 / 64] = block[j];
      }
    }
  }
}

}  // namespace session
}  // namespace qlearn
