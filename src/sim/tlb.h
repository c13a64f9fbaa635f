// Translation lookaside buffer.
//
// Fully associative, round-robin replacement, caching *combined* stage-1
// (+stage-2) results like a real ARM TLB: an entry carries final PA, the
// stage-1 attributes, and whether stage 2 permits writes — so a write to a
// stage-2 write-protected page faults even on a TLB hit, which is exactly
// how KVM's page-granularity write-protection keeps trapping (Table 2's
// baseline behaviour).
//
// Host-side representation: lookups go through a flat power-of-two array
// of bucket heads (twice the capacity, rounded up) instead of scanning the
// whole array, so a hit costs one short chain walk regardless of capacity.
// It is the simulator's one host cache in front of translation.  The index
// is invisible: hit/miss results, replacement order and flush behaviour
// are bit-identical to the naive full scan (the tlb_property_test pins
// this against a reference implementation).  Three invariants keep it
// exact:
//
//   * every valid slot sits on its bucket's chain, sorted by slot index,
//     and every chain walk compares the vpage, so "first match in array
//     order" is preserved even when distinct vpages share a bucket;
//   * free slots are taken lowest-index-first (a bitmap find-first-set),
//     matching the scan's "first invalid entry" choice;
//   * round-robin eviction is untouched: the victim cursor advances over
//     slot numbers exactly as before.
#pragma once

#include <bit>
#include <vector>

#include "common/types.h"
#include "sim/pagetable.h"
#include "sim/snapshot.h"

namespace hn::sim {

struct TlbEntry {
  bool valid = false;
  VirtAddr vpage = 0;  // page-aligned VA
  u16 asid = 0;        // ignored when global
  PhysAddr ppage = 0;  // page-aligned PA
  PageAttrs attrs;
  bool s2_write_ok = true;  // stage-2 write permission (true when no stage 2)
};

class Tlb {
 public:
  explicit Tlb(unsigned entries = 48)
      : entries_(entries),
        chain_next_(entries, kNil),
        head_(std::bit_ceil(2 * entries)),
        free_((entries + 63) / 64) {
    clear_index();
  }

  /// Returns the matching entry or nullptr.
  const TlbEntry* lookup(VirtAddr va, u16 asid) const {
    const VirtAddr vpage = page_align_down(va);
    if (!index_enabled_) return scan(vpage, asid);
    for (u32 slot = head_[bucket(vpage)]; slot != kNil;
         slot = chain_next_[slot]) {
      const TlbEntry& e = entries_[slot];
      if (e.vpage == vpage && (e.attrs.global || e.asid == asid)) return &e;
    }
    return nullptr;
  }

  void insert(const TlbEntry& entry) {
    // Replace an existing mapping for the same page first.  The index is
    // maintained even in reference mode (so the mode can flip at runtime);
    // only the *search* above changes, and both searches visit matching
    // slots in ascending array order, so the replaced slot is identical.
    for (u32 slot = head_[bucket(entry.vpage)]; slot != kNil;
         slot = chain_next_[slot]) {
      TlbEntry& e = entries_[slot];
      if (e.vpage == entry.vpage && (e.attrs.global || e.asid == entry.asid)) {
        e = entry;
        e.valid = true;
        return;
      }
    }
    u32 slot = first_free_slot();
    if (slot == kNil) {
      slot = static_cast<u32>(next_victim_);
      unlink(slot);
      next_victim_ = (next_victim_ + 1) % entries_.size();
    }
    entries_[slot] = entry;
    entries_[slot].valid = true;
    mark_used(slot);
    link(slot);
  }

  void flush_all() {
    for (TlbEntry& e : entries_) e.valid = false;
    clear_index();
  }

  /// TLBI VAE1-style: drop any entry translating `va` (any ASID).
  void flush_va(VirtAddr va) {
    const VirtAddr vpage = page_align_down(va);
    u32* at = &head_[bucket(vpage)];
    while (*at != kNil) {
      const u32 slot = *at;
      if (entries_[slot].vpage != vpage) {
        at = &chain_next_[slot];
        continue;
      }
      *at = chain_next_[slot];
      entries_[slot].valid = false;
      mark_free(slot);
    }
  }

  /// TLBI ASIDE1-style: drop all non-global entries for `asid`.
  void flush_asid(u16 asid) {
    for (u32 slot = 0; slot < entries_.size(); ++slot) {
      TlbEntry& e = entries_[slot];
      if (e.valid && !e.attrs.global && e.asid == asid) {
        e.valid = false;
        unlink(slot);
        mark_free(slot);
      }
    }
  }

  [[nodiscard]] unsigned capacity() const {
    return static_cast<unsigned>(entries_.size());
  }
  [[nodiscard]] unsigned occupancy() const {
    unsigned n = 0;
    for (const TlbEntry& e : entries_) n += e.valid ? 1 : 0;
    return n;
  }

  /// Host fast path switch: off = reference mode, lookups scan the array
  /// like the original implementation.  Hit/miss results are identical
  /// either way; only host wall-clock changes.
  void set_index_enabled(bool on) { index_enabled_ = on; }
  [[nodiscard]] bool index_enabled() const { return index_enabled_; }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  // Only the authoritative state (entry array, victim cursor) is
  // serialized; the bucket heads, chains and free bitmap are derived
  // host-side structures and are rebuilt on restore.

  void save_state(SnapWriter& w) const {
    w.put_u64(entries_.size());
    for (const TlbEntry& e : entries_) {
      w.put_bool(e.valid);
      w.put_u64(e.vpage);
      w.put_u16(e.asid);
      w.put_u64(e.ppage);
      w.put_bool(e.attrs.write);
      w.put_bool(e.attrs.exec);
      w.put_bool(e.attrs.user);
      w.put_bool(e.attrs.global);
      w.put_u8(static_cast<u8>(e.attrs.attr));
      w.put_bool(e.s2_write_ok);
    }
    w.put_u64(next_victim_);
  }

  /// Every valid entry must map a page below `dram_size`: a hit hands its
  /// frame straight to physical memory.
  void restore_state(SnapReader& r, u64 dram_size) {
    r.section("tlb");
    const u64 n = r.get_u64();
    if (r.ok() && n != entries_.size()) {
      r.fail("entry count " + std::to_string(n) +
             " does not match configured capacity " +
             std::to_string(entries_.size()));
      return;
    }
    for (TlbEntry& e : entries_) {
      e.valid = r.get_bool();
      e.vpage = r.get_u64();
      e.asid = r.get_u16();
      e.ppage = r.get_u64();
      e.attrs.write = r.get_bool();
      e.attrs.exec = r.get_bool();
      e.attrs.user = r.get_bool();
      e.attrs.global = r.get_bool();
      e.attrs.attr = static_cast<MemAttr>(r.get_u8());
      e.s2_write_ok = r.get_bool();
    }
    next_victim_ = r.get_u64();
    if (r.ok() && next_victim_ >= entries_.size()) {
      r.fail("victim cursor " + std::to_string(next_victim_) +
             " beyond the entry array");
    }
    if (!r.ok()) return;
    for (const TlbEntry& e : entries_) {
      if (e.valid && (!is_page_aligned(e.ppage) || e.ppage >= dram_size)) {
        r.fail("entry for va " + std::to_string(e.vpage) + " maps frame " +
               std::to_string(e.ppage) + " outside DRAM");
        return;
      }
    }
    // Ascending slot order links each valid slot at its chain's tail,
    // reproducing the sorted chains insert() maintains incrementally.
    clear_index();
    for (u32 slot = 0; slot < entries_.size(); ++slot) {
      if (!entries_[slot].valid) continue;
      mark_used(slot);
      link(slot);
    }
  }

 private:
  static constexpr u32 kNil = ~u32{0};

  /// Reference mode: the original fully-associative scan.  Kept out of
  /// line, so the inline hit section that calls lookup() stays small and
  /// the scan's code is the same wherever a lookup sits.
  [[gnu::noinline]] const TlbEntry* scan(VirtAddr vpage, u16 asid) const {
    for (const TlbEntry& e : entries_) {
      if (e.valid && e.vpage == vpage && (e.attrs.global || e.asid == asid)) {
        return &e;
      }
    }
    return nullptr;
  }

  [[nodiscard]] size_t bucket(VirtAddr vpage) const {
    return (vpage >> kPageShift) & (head_.size() - 1);
  }

  /// Empty every chain and mark every slot free.  Bits beyond capacity
  /// stay clear so find-first-free never returns an out-of-range slot.
  void clear_index() {
    for (u32& head : head_) head = kNil;
    for (u64& word : free_) word = ~0ull;
    const unsigned tail = entries_.size() % 64;
    if (tail != 0) free_.back() = (u64{1} << tail) - 1;
  }

  /// Lowest-index free slot, or kNil when the TLB is full.
  [[nodiscard]] u32 first_free_slot() const {
    for (size_t w = 0; w < free_.size(); ++w) {
      if (free_[w] != 0) {
        return static_cast<u32>(w * 64 + std::countr_zero(free_[w]));
      }
    }
    return kNil;
  }

  void mark_free(u32 slot) { free_[slot / 64] |= u64{1} << (slot % 64); }
  void mark_used(u32 slot) { free_[slot / 64] &= ~(u64{1} << (slot % 64)); }

  /// Link `slot` into its bucket's chain, keeping the chain sorted by
  /// slot index (array-order equivalence).
  void link(u32 slot) {
    u32* at = &head_[bucket(entries_[slot].vpage)];
    while (*at != kNil && *at < slot) at = &chain_next_[*at];
    chain_next_[slot] = *at;
    *at = slot;
  }

  /// Remove `slot` (still carrying its vpage) from its bucket's chain.
  void unlink(u32 slot) {
    u32* at = &head_[bucket(entries_[slot].vpage)];
    while (*at != slot) at = &chain_next_[*at];
    *at = chain_next_[slot];
  }

  std::vector<TlbEntry> entries_;
  /// Valid slots chain through chain_next_ in ascending slot order, one
  /// chain per bucket; head_[b] is the lowest slot in bucket b, or kNil.
  std::vector<u32> chain_next_;
  std::vector<u32> head_;
  std::vector<u64> free_;  // bit set = slot invalid/free
  u64 next_victim_ = 0;
  bool index_enabled_ = true;
};

}  // namespace hn::sim
