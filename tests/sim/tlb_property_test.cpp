// Tlb index-vs-scan equivalence property test.
//
// The production Tlb accelerates lookups with a flat array of bucket
// heads plus a free-slot bitmap; this test drives it against NaiveTlb — a
// verbatim copy of the original full-scan implementation — through
// randomized interleavings of insert / lookup / flush_va / flush_asid /
// flush_all, asserting the two agree on every lookup outcome and on
// occupancy after every mutation.  Covers both index modes (the reference
// scan mode must be equivalent too), several capacities (including one
// that exercises the bitmap's partial tail word), global and non-global
// entries, ASID collisions, same-vpage multi-entry chains, and distinct
// vpages sharing a bucket.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sim/tlb.h"

namespace hn::sim {
namespace {

/// The original Tlb, kept as the executable specification.
class NaiveTlb {
 public:
  explicit NaiveTlb(unsigned entries) : entries_(entries) {}

  const TlbEntry* lookup(VirtAddr va, u16 asid) const {
    const VirtAddr vpage = page_align_down(va);
    for (const TlbEntry& e : entries_) {
      if (e.valid && e.vpage == vpage && (e.attrs.global || e.asid == asid)) {
        return &e;
      }
    }
    return nullptr;
  }

  void insert(const TlbEntry& entry) {
    for (TlbEntry& e : entries_) {
      if (e.valid && e.vpage == entry.vpage &&
          (e.attrs.global || e.asid == entry.asid)) {
        e = entry;
        e.valid = true;
        return;
      }
    }
    for (TlbEntry& e : entries_) {
      if (!e.valid) {
        e = entry;
        e.valid = true;
        return;
      }
    }
    entries_[next_victim_] = entry;
    entries_[next_victim_].valid = true;
    next_victim_ = (next_victim_ + 1) % entries_.size();
  }

  void flush_all() {
    for (TlbEntry& e : entries_) e.valid = false;
  }

  void flush_va(VirtAddr va) {
    const VirtAddr vpage = page_align_down(va);
    for (TlbEntry& e : entries_) {
      if (e.valid && e.vpage == vpage) e.valid = false;
    }
  }

  void flush_asid(u16 asid) {
    for (TlbEntry& e : entries_) {
      if (e.valid && !e.attrs.global && e.asid == asid) e.valid = false;
    }
  }

  [[nodiscard]] unsigned occupancy() const {
    unsigned n = 0;
    for (const TlbEntry& e : entries_) n += e.valid ? 1 : 0;
    return n;
  }

 private:
  std::vector<TlbEntry> entries_;
  u64 next_victim_ = 0;
};

bool same_entry(const TlbEntry* a, const TlbEntry* b) {
  if ((a == nullptr) != (b == nullptr)) return false;
  if (a == nullptr) return true;
  return a->vpage == b->vpage && a->asid == b->asid && a->ppage == b->ppage &&
         a->attrs == b->attrs && a->s2_write_ok == b->s2_write_ok;
}

/// Small universes force collisions: few ASIDs, frequent same-vpage
/// reinsertions with different attributes, and two to four times as many
/// pages as the index has buckets, so distinct vpages share bucket chains.
void run_property(unsigned capacity, bool index_enabled, u64 seed, int ops) {
  Tlb tlb(capacity);
  tlb.set_index_enabled(index_enabled);
  NaiveTlb naive(capacity);
  SplitMix64 rng(seed);

  const unsigned kPages = capacity * 8;
  const unsigned kAsids = 4;

  auto random_va = [&] {
    return static_cast<VirtAddr>(rng.next_below(kPages)) * kPageSize +
           rng.next_below(kPageSize);
  };

  for (int i = 0; i < ops; ++i) {
    switch (rng.next_below(10)) {
      case 0:  // flush_va
        if (rng.chance(1, 2)) {
          const VirtAddr va = random_va();
          tlb.flush_va(va);
          naive.flush_va(va);
          break;
        }
        [[fallthrough]];
      case 1: {  // flush_asid
        const u16 asid = static_cast<u16>(rng.next_below(kAsids));
        tlb.flush_asid(asid);
        naive.flush_asid(asid);
        break;
      }
      case 2:  // flush_all (rare)
        if (rng.chance(1, 4)) {
          tlb.flush_all();
          naive.flush_all();
          break;
        }
        [[fallthrough]];
      default: {  // insert
        TlbEntry e;
        e.vpage = static_cast<VirtAddr>(rng.next_below(kPages)) * kPageSize;
        e.asid = static_cast<u16>(rng.next_below(kAsids));
        e.ppage = rng.next_below(1u << 20) * kPageSize;
        e.attrs.global = rng.chance(1, 3);
        e.attrs.write = rng.chance(1, 2);
        e.attrs.user = rng.chance(1, 2);
        e.s2_write_ok = rng.chance(3, 4);
        tlb.insert(e);
        naive.insert(e);
      }
    }
    ASSERT_EQ(tlb.occupancy(), naive.occupancy()) << "op " << i;
    // Probe a handful of random (va, asid) pairs plus the hot set.
    for (int probe = 0; probe < 8; ++probe) {
      const VirtAddr va = random_va();
      const u16 asid = static_cast<u16>(rng.next_below(kAsids));
      ASSERT_TRUE(same_entry(tlb.lookup(va, asid), naive.lookup(va, asid)))
          << "op " << i << " va " << va << " asid " << asid;
    }
  }
}

TEST(TlbProperty, IndexMatchesNaiveDefaultCapacity) {
  run_property(/*capacity=*/48, /*index_enabled=*/true, /*seed=*/1, 4000);
  run_property(48, true, 2, 4000);
}

TEST(TlbProperty, IndexMatchesNaiveTinyCapacity) {
  // Heavy eviction pressure: every insert beyond 4 entries evicts.
  run_property(/*capacity=*/4, true, 3, 4000);
}

TEST(TlbProperty, IndexMatchesNaivePartialBitmapWord) {
  // 65 slots: the free bitmap's second word has a single live bit.
  run_property(/*capacity=*/65, true, 4, 4000);
}

TEST(TlbProperty, ScanModeMatchesNaive) {
  // Reference mode (index disabled) must be equivalent too — it shares
  // mutation bookkeeping with the indexed mode.
  run_property(48, /*index_enabled=*/false, 5, 4000);
  run_property(4, false, 6, 4000);
}

TEST(TlbProperty, ModeFlipMidstream) {
  // The index is maintained even while disabled, so flipping modes
  // mid-run must not desynchronize.
  Tlb tlb(16);
  NaiveTlb naive(16);
  SplitMix64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    tlb.set_index_enabled(i % 128 < 64);
    TlbEntry e;
    e.vpage = static_cast<VirtAddr>(rng.next_below(128)) * kPageSize;
    e.asid = static_cast<u16>(rng.next_below(3));
    e.ppage = rng.next_below(1u << 16) * kPageSize;
    e.attrs.global = rng.chance(1, 4);
    tlb.insert(e);
    naive.insert(e);
    if (rng.chance(1, 10)) {
      const u16 asid = static_cast<u16>(rng.next_below(3));
      tlb.flush_asid(asid);
      naive.flush_asid(asid);
    }
    const VirtAddr va = rng.next_below(128) * kPageSize;
    const u16 asid = static_cast<u16>(rng.next_below(3));
    ASSERT_TRUE(same_entry(tlb.lookup(va, asid), naive.lookup(va, asid)))
        << "op " << i;
    ASSERT_EQ(tlb.occupancy(), naive.occupancy()) << "op " << i;
  }
}

TEST(TlbProperty, BucketSharersStayApart) {
  // Page numbers 2^20 apart share a bucket at every capacity below 2^19
  // (the bucket is the page number modulo a power of two).  `a` is
  // non-global in ASID 1, `b` global: a chain walk that skipped the vpage
  // compare would answer one page's lookup with the other's entry, and a
  // flush_va that dropped the whole bucket would lose the bystander.
  constexpr VirtAddr kA = 3 * kPageSize;
  constexpr VirtAddr kB = kA + (VirtAddr{1} << 20) * kPageSize;
  for (const bool index_enabled : {true, false}) {
    SCOPED_TRACE(index_enabled ? "indexed" : "scan");
    Tlb tlb(8);
    tlb.set_index_enabled(index_enabled);
    TlbEntry a;
    a.vpage = kA;
    a.asid = 1;
    a.ppage = 0x10 * kPageSize;
    a.attrs.global = false;
    TlbEntry b;
    b.vpage = kB;
    b.asid = 2;
    b.ppage = 0x20 * kPageSize;
    b.attrs.global = true;
    tlb.insert(a);
    tlb.insert(b);
    // ppage of the entry translating (va, asid); 0 when none does.
    auto ppage = [&tlb](VirtAddr va, u16 asid) {
      const TlbEntry* e = tlb.lookup(va, asid);
      return e != nullptr ? e->ppage : PhysAddr{0};
    };

    EXPECT_EQ(ppage(kA + 8, 1), a.ppage);
    EXPECT_EQ(ppage(kA, 2), 0u);
    EXPECT_EQ(ppage(kB, 1), b.ppage);

    // Re-inserting `a` replaces `a`, never its bucket neighbour.
    TlbEntry a2 = a;
    a2.ppage = 0x30 * kPageSize;
    tlb.insert(a2);
    EXPECT_EQ(tlb.occupancy(), 2u);
    EXPECT_EQ(ppage(kA, 1), a2.ppage);
    EXPECT_EQ(ppage(kB, 1), b.ppage);

    tlb.flush_va(kA);
    EXPECT_EQ(ppage(kA, 1), 0u);
    EXPECT_EQ(ppage(kB, 1), b.ppage);
    EXPECT_EQ(tlb.occupancy(), 1u);

    tlb.insert(a);
    tlb.flush_va(kB);
    EXPECT_EQ(ppage(kB, 2), 0u);
    EXPECT_EQ(ppage(kA, 1), a.ppage);
    EXPECT_EQ(tlb.occupancy(), 1u);
  }
}

}  // namespace
}  // namespace hn::sim
