#include "session/candidate_store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

namespace qlearn {
namespace session {

namespace {

/// "QLCS" little-endian.
constexpr uint32_t kMagic = 0x53434C51u;
constexpr uint32_t kVersion = 1;
constexpr uint32_t kWordBits = 64;

common::Status HeaderMismatch(const char* field, uint64_t image,
                              uint64_t configured) {
  return common::Status::InvalidArgument(
      std::string("candidate-store snapshot ") + field + " mismatch: image " +
      std::to_string(image) + ", store " + std::to_string(configured));
}

}  // namespace

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
  dense_size_ = capacity;
  words_cap_ = WordsFor(capacity);
  open_count_ = capacity;

  planes_.assign(num_planes_ * words_cap_, 0);
  open_.assign(words_cap_, 0);
  active_.assign(words_cap_, 0);
  id_of_.resize(capacity);
  dense_of_.resize(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    id_of_[i] = i;
    dense_of_[i] = i;
  }
  for (size_t i = 0; i < capacity; ++i) {
    open_[i / 64] |= 1ULL << (i % 64);
  }
  active_ = open_;

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
  const size_t d = dense_of_[id];
  assert(d != kNoDense);
  Plane(p)[d / 64] |= 1ULL << (d % 64);
}

bool CandidateStore::PlaneBitForTest(size_t p, size_t id) const {
  const size_t d = dense_of_[id];
  if (d == kNoDense) return false;
  return (Plane(p)[d / 64] >> (d % 64)) & 1;
}

void CandidateStore::OnAsked(size_t id) {
  const size_t d = dense_of_[id];
  if (d == kNoDense) return;
  if ((open_[d / 64] >> (d % 64)) & 1) {
    ClearBit(open_, d);
    --open_count_;
  }
}

void CandidateStore::OnSettled(size_t id) {
  const size_t d = dense_of_[id];
  if (d == kNoDense) return;
  if ((open_[d / 64] >> (d % 64)) & 1) {
    ClearBit(open_, d);
    --open_count_;
  }
  ClearBit(active_, d);
}

bool CandidateStore::IsOpen(size_t id) const {
  const size_t d = dense_of_[id];
  if (d == kNoDense) return false;
  return (open_[d / 64] >> (d % 64)) & 1;
}

bool CandidateStore::IsActive(size_t id) const {
  const size_t d = dense_of_[id];
  if (d == kNoDense) return false;
  return (active_[d / 64] >> (d % 64)) & 1;
}

void CandidateStore::CopyOpen(std::vector<uint64_t>* out) const {
  out->assign(open_.begin(), open_.begin() + words());
}

void CandidateStore::CopyActive(std::vector<uint64_t>* out) const {
  out->assign(active_.begin(), active_.begin() + words());
}

void CandidateStore::AndPlanes(size_t base, uint64_t mask,
                               uint64_t* acc) const {
  const size_t n = words();
  for (uint64_t m = mask; m != 0; m &= m - 1) {
    const uint64_t* plane =
        Plane(base + static_cast<size_t>(std::countr_zero(m)));
    for (size_t w = 0; w < n; ++w) acc[w] &= plane[w];
  }
}

void CandidateStore::AndNotOrPlanes(size_t base, uint64_t mask,
                                    uint64_t* acc) const {
  const size_t n = words();
  for (uint64_t m = mask; m != 0; m &= m - 1) {
    const uint64_t* plane =
        Plane(base + static_cast<size_t>(std::countr_zero(m)));
    for (size_t w = 0; w < n; ++w) acc[w] &= ~plane[w];
  }
}

void CandidateStore::PlanePopcounts(size_t base, uint64_t mask,
                                    std::vector<uint8_t>* counts) const {
  const size_t n = words();
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

void CandidateStore::TransposeActiveRowsToPlanes() {
  assert(has_rows() && row_cols_ == num_planes_);
  std::fill(planes_.begin(), planes_.end(), 0);
  uint64_t block[64];
  // 64 candidates × 64 columns at a time: gather the active rows' words
  // for one column block, bit-transpose, scatter into the planes.
  for (size_t d0 = 0; d0 < dense_size_; d0 += 64) {
    const uint64_t active_word = active_[d0 / 64];
    if (active_word == 0) continue;
    for (size_t c0 = 0; c0 < row_cols_; c0 += 64) {
      bool any = false;
      for (size_t i = 0; i < 64; ++i) {
        const size_t d = d0 + i;
        uint64_t word = 0;
        if (d < dense_size_ && ((active_word >> i) & 1) != 0) {
          // Rows pin dense == id, so dense slot d is row d.
          assert(RowPresent(d) && "active candidate without a fresh row");
          word = RowWords(d)[c0 / 64];
        }
        block[i] = word;
        any = any || word != 0;
      }
      if (!any) continue;
      Transpose64x64(block);
      // After the transpose, block[j] holds column c0+j over candidates
      // d0..d0+63.
      const size_t limit = row_cols_ - c0 < 64 ? row_cols_ - c0 : 64;
      for (size_t j = 0; j < limit; ++j) {
        if (block[j] != 0) Plane(c0 + j)[d0 / 64] = block[j];
      }
    }
  }
}

void CandidateStore::Compact() {
  assert(!has_rows() && "row stores pin the dense axis");
  // Survivors are the open candidates, in ascending dense (hence id)
  // order — sweep iteration order over them is unchanged, which keeps
  // compaction timing invisible to the engines' replay behavior.
  std::vector<size_t> survivors;
  survivors.reserve(open_count_);
  ForEachSetBit(open_.data(), words(), [&](size_t d) {
    survivors.push_back(d);
  });
  const size_t new_size = survivors.size();
  std::vector<uint64_t> buffer(WordsFor(new_size), 0);
  for (size_t p = 0; p < num_planes_; ++p) {
    uint64_t* plane = Plane(p);
    std::fill(buffer.begin(), buffer.end(), 0);
    for (size_t j = 0; j < new_size; ++j) {
      const size_t o = survivors[j];
      if (((plane[o / 64] >> (o % 64)) & 1) != 0) {
        buffer[j / 64] |= 1ULL << (j % 64);
      }
    }
    for (size_t w = 0; w < buffer.size(); ++w) plane[w] = buffer[w];
    for (size_t w = buffer.size(); w < words_cap_; ++w) plane[w] = 0;
  }

  // Bit-vectors: every survivor is open and active by definition.
  std::fill(open_.begin(), open_.end(), 0);
  for (size_t j = 0; j < new_size; ++j) open_[j / 64] |= 1ULL << (j % 64);
  active_ = open_;

  // Remap ids. Dropped candidates keep no dense slot.
  std::vector<size_t> new_ids(new_size);
  for (size_t j = 0; j < new_size; ++j) new_ids[j] = id_of_[survivors[j]];
  std::fill(dense_of_.begin(), dense_of_.end(), kNoDense);
  for (size_t j = 0; j < new_size; ++j) dense_of_[new_ids[j]] = j;
  id_of_ = std::move(new_ids);
  dense_size_ = new_size;
  open_count_ = new_size;
}

bool CandidateStore::MaybeCompact() {
  if (has_rows()) return false;
  if (dense_size_ <= 64 || open_count_ * 2 >= dense_size_) return false;
  Compact();
  return true;
}

void CandidateStore::SerializeSnapshot(SnapshotWriter* writer) const {
  writer->WriteU32(kMagic);
  writer->WriteU32(kVersion);
  writer->WriteU32(kWordBits);
  writer->WriteU64(num_planes_);
  writer->WriteU64(capacity_);
  writer->WriteU64(dense_size_);
  writer->WriteU64(row_cols_);
  const size_t n = words();
  for (size_t d = 0; d < dense_size_; ++d) writer->WriteU64(id_of_[d]);
  writer->WriteWords(open_.data(), n);
  writer->WriteWords(active_.data(), n);
  for (size_t p = 0; p < num_planes_; ++p) writer->WriteWords(Plane(p), n);
}

common::Status CandidateStore::RestoreSnapshot(SnapshotReader* reader) {
  uint32_t magic = 0, version = 0, word_bits = 0;
  uint64_t planes = 0, capacity = 0, dense = 0, row_cols = 0;
  common::Status s = reader->ReadU32(&magic);
  if (s.ok()) s = reader->ReadU32(&version);
  if (s.ok()) s = reader->ReadU32(&word_bits);
  if (s.ok()) s = reader->ReadU64(&planes);
  if (s.ok()) s = reader->ReadU64(&capacity);
  if (s.ok()) s = reader->ReadU64(&dense);
  if (s.ok()) s = reader->ReadU64(&row_cols);
  if (!s.ok()) return s;
  if (magic != kMagic) return HeaderMismatch("magic", magic, kMagic);
  if (version != kVersion) return HeaderMismatch("version", version, kVersion);
  if (word_bits != kWordBits) {
    return HeaderMismatch("word width", word_bits, kWordBits);
  }
  if (planes != num_planes_) {
    return HeaderMismatch("plane count", planes, num_planes_);
  }
  if (capacity != capacity_) {
    return HeaderMismatch("capacity", capacity, capacity_);
  }
  if (dense > capacity) {
    return HeaderMismatch("dense extent", dense, capacity);
  }
  if (row_cols != row_cols_) {
    return HeaderMismatch("row columns", row_cols, row_cols_);
  }

  dense_size_ = static_cast<size_t>(dense);
  const size_t n = words();
  id_of_.assign(dense_size_, 0);
  for (size_t d = 0; d < dense_size_; ++d) {
    uint64_t id = 0;
    s = reader->ReadU64(&id);
    if (!s.ok()) return s;
    if (id >= capacity_) {
      return common::Status::InvalidArgument(
          "candidate-store snapshot dense map references id " +
          std::to_string(id) + " beyond capacity " +
          std::to_string(capacity_));
    }
    id_of_[d] = static_cast<size_t>(id);
  }
  open_.assign(words_cap_, 0);
  active_.assign(words_cap_, 0);
  s = reader->ReadWords(open_.data(), n);
  if (s.ok()) s = reader->ReadWords(active_.data(), n);
  if (!s.ok()) return s;
  std::fill(planes_.begin(), planes_.end(), 0);
  for (size_t p = 0; p < num_planes_; ++p) {
    s = reader->ReadWords(Plane(p), n);
    if (!s.ok()) return s;
  }

  std::fill(dense_of_.begin(), dense_of_.end(), kNoDense);
  for (size_t d = 0; d < dense_size_; ++d) dense_of_[id_of_[d]] = d;
  open_count_ = 0;
  for (size_t w = 0; w < n; ++w) {
    open_count_ += static_cast<size_t>(std::popcount(open_[w]));
  }
  // Rows are derived caches: a restored store starts with every row stale.
  if (has_rows()) {
    std::fill(rows_.begin(), rows_.end(), 0);
    std::fill(row_epoch_.begin(), row_epoch_.end(), 0);
    std::fill(row_present_.begin(), row_present_.end(), 0);
    rows_epoch_ = 1;
  }
  return common::Status::OK();
}

}  // namespace session
}  // namespace qlearn
