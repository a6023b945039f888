// Unit tests for the structure-of-arrays candidate store
// (session/candidate_store.h): the 64×64 bit-block transpose against a
// naive per-bit reference, the word-at-a-time sweep kernels against
// per-candidate loops, and the row facility with its transpose into the
// planes.
#include "session/candidate_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace qlearn {
namespace session {
namespace {

TEST(TransposeTest, MatchesNaivePerBitTranspose) {
  // The canonical Hacker's Delight 7-3 loop assumes MSB-first element
  // numbering; under this codebase's LSB-first convention the unadapted
  // form computes the anti-diagonal transpose (i,j) → (63-j,63-i). This
  // test pins the convention: bit j of a[i] must land at bit i of a[j].
  common::Rng rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    uint64_t a[64];
    for (uint64_t& w : a) w = rng.Next();
    uint64_t expected[64] = {};
    for (int i = 0; i < 64; ++i) {
      for (int j = 0; j < 64; ++j) {
        if (a[i] & (1ULL << j)) expected[j] |= 1ULL << i;
      }
    }
    Transpose64x64(a);
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(a[i], expected[i]) << "trial " << trial << " row " << i;
    }
  }
}

TEST(TransposeTest, InvolutionAndIdentity) {
  common::Rng rng(7);
  uint64_t a[64], original[64];
  for (int i = 0; i < 64; ++i) original[i] = a[i] = rng.Next();
  Transpose64x64(a);
  Transpose64x64(a);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a[i], original[i]);

  uint64_t identity[64];
  for (int i = 0; i < 64; ++i) identity[i] = 1ULL << i;
  Transpose64x64(identity);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(identity[i], 1ULL << i);
}

TEST(ForEachSetBitTest, VisitsAscendingAcrossWords) {
  const uint64_t words[3] = {(1ULL << 0) | (1ULL << 63), 0, (1ULL << 5)};
  std::vector<size_t> seen;
  ForEachSetBit(words, 3, [&](size_t d) { seen.push_back(d); });
  EXPECT_EQ(seen, (std::vector<size_t>{0, 63, 128 + 5}));

  seen.clear();
  ForEachSetBit(words, 1, [&](size_t d) { seen.push_back(d); });
  EXPECT_EQ(seen, (std::vector<size_t>{0, 63}));
}

/// Word vector over `n` candidates with every candidate's bit set: the
/// seed an engine copies from the frontier while nothing is settled.
std::vector<uint64_t> AllCandidates(size_t n) {
  std::vector<uint64_t> words((n + 63) / 64, 0);
  for (size_t id = 0; id < n; ++id) words[id / 64] |= 1ULL << (id % 64);
  return words;
}

/// A store over `n` candidates and `planes` planes with pseudorandom plane
/// bits (density ~1/2), mirrored into a candidate-major reference.
struct RandomStore {
  CandidateStore store;
  std::vector<std::vector<bool>> bits;  // bits[p][id]

  RandomStore(size_t planes, size_t n, uint64_t seed) {
    common::Rng rng(seed);
    store.Reset(planes, n);
    bits.assign(planes, std::vector<bool>(n, false));
    for (size_t p = 0; p < planes; ++p) {
      for (size_t id = 0; id < n; ++id) {
        if (rng.Next() & 1) {
          store.SetPlaneBit(p, id);
          bits[p][id] = true;
        }
      }
    }
  }
};

TEST(CandidateStoreTest, AndPlanesMatchesPerCandidateLoop) {
  const size_t kPlanes = 7, kN = 130;
  RandomStore rs(kPlanes, kN, 11);
  const uint64_t mask = 0b1011001;

  std::vector<uint64_t> acc = AllCandidates(kN);
  ASSERT_EQ(acc.size(), rs.store.words());
  rs.store.AndPlanes(0, mask, acc.data());

  for (size_t id = 0; id < kN; ++id) {
    bool expect = true;  // AND of the masked planes
    for (size_t p = 0; p < kPlanes; ++p) {
      if ((mask >> p) & 1) expect = expect && rs.bits[p][id];
    }
    const bool got = (acc[id / 64] >> (id % 64)) & 1;
    ASSERT_EQ(got, expect) << "candidate " << id;
  }
  // Empty mask: AND over nothing leaves acc unchanged.
  std::vector<uint64_t> all = AllCandidates(kN);
  rs.store.AndPlanes(0, 0, all.data());
  EXPECT_EQ(all, AllCandidates(kN));
}

TEST(CandidateStoreTest, AndNotOrPlanesMatchesPerCandidateLoop) {
  const size_t kPlanes = 9, kN = 100;
  RandomStore rs(kPlanes, kN, 13);
  // Mask 0 is the empty OR: nothing is excluded, acc stays unchanged.
  for (const uint64_t mask : {uint64_t{0b101010101}, uint64_t{0}}) {
    SCOPED_TRACE(mask);
    std::vector<uint64_t> acc = AllCandidates(kN);
    rs.store.AndNotOrPlanes(0, mask, acc.data());

    for (size_t id = 0; id < kN; ++id) {
      bool any = false;  // survives iff it agrees on none of the masked planes
      for (size_t p = 0; p < kPlanes; ++p) {
        if (((mask >> p) & 1) && rs.bits[p][id]) any = true;
      }
      const bool got = (acc[id / 64] >> (id % 64)) & 1;
      ASSERT_EQ(got, !any) << "candidate " << id;
    }
  }
}

TEST(CandidateStoreTest, PlanePopcountsMatchesPerCandidateLoop) {
  // 70 planes exercises all 7 ripple-carry slices (counts up to 64+).
  const size_t kPlanes = 70, kN = 200;
  RandomStore rs(kPlanes, kN, 17);
  // Mask covering planes [base, base+64) with base 3.
  const size_t base = 3;
  const uint64_t mask = ~0ULL >> 7;  // 57 planes

  std::vector<uint8_t> counts;
  rs.store.PlanePopcounts(base, mask, &counts);
  ASSERT_GE(counts.size(), kN);

  for (size_t id = 0; id < kN; ++id) {
    unsigned expect = 0;
    for (size_t b = 0; b < 64; ++b) {
      if (((mask >> b) & 1) && rs.bits[base + b][id]) ++expect;
    }
    ASSERT_EQ(counts[id], expect) << "candidate " << id;
  }
}

TEST(CandidateStoreTest, RowsLifecycleAndKernels) {
  CandidateStore store;
  store.Reset(130, 5);
  store.ConfigureRows(130);
  EXPECT_TRUE(store.has_rows());
  EXPECT_EQ(store.row_words(), 3u);
  EXPECT_FALSE(store.RowFresh(2));

  uint64_t* row = store.BeginRow(2);
  row[0] = (1ULL << 3) | (1ULL << 40);
  row[2] = 1ULL << 1;  // node 129
  EXPECT_TRUE(store.RowFresh(2));
  EXPECT_TRUE(store.RowPresent(2));

  store.MarkRowAbsent(3);
  EXPECT_TRUE(store.RowFresh(3));
  EXPECT_FALSE(store.RowPresent(3));

  std::vector<uint64_t> other(store.row_words(), 0);
  other[0] = 1ULL << 40;
  other[2] = 1ULL << 1;
  EXPECT_EQ(store.PopcountRowAnd(2, other.data()), 2u);
  EXPECT_TRUE(store.RowIntersects(2, other.data()));
  other[0] = 0;
  other[2] = 0;
  EXPECT_FALSE(store.RowIntersects(2, other.data()));

  store.InvalidateRows();  // O(1) epoch bump stales everything
  EXPECT_FALSE(store.RowFresh(2));
  EXPECT_FALSE(store.RowFresh(3));
}

TEST(CandidateStoreTest, TransposeActiveRowsToPlanesMatchesRows) {
  const size_t kNodes = 130, kN = 70;
  CandidateStore store;
  store.Reset(kNodes, kN);
  store.ConfigureRows(kNodes);
  common::Rng rng(23);
  std::vector<std::vector<bool>> selected(kN, std::vector<bool>(kNodes));
  for (size_t id = 0; id < kN; ++id) {
    uint64_t* row = store.BeginRow(id);
    for (size_t u = 0; u < kNodes; ++u) {
      if (rng.Next() & 1) {
        row[u / 64] |= 1ULL << (u % 64);
        selected[id][u] = true;
      }
    }
  }
  // Deactivate a few candidates; their bits must not reach the planes.
  std::vector<uint64_t> active = AllCandidates(kN);
  for (const size_t id : {size_t{10}, size_t{64}}) {
    active[id / 64] &= ~(1ULL << (id % 64));
  }

  store.TransposeActiveRowsToPlanes(active.data());

  for (size_t u = 0; u < kNodes; ++u) {
    for (size_t id = 0; id < kN; ++id) {
      const bool expect = id != 10 && id != 64 && selected[id][u];
      ASSERT_EQ(store.PlaneBitForTest(u, id), expect)
          << "plane " << u << " candidate " << id;
    }
  }
}

}  // namespace
}  // namespace session
}  // namespace qlearn
