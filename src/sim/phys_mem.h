// Simulated physical memory: byte-addressable RAM organised as 4 KiB
// pages.
//
// Functional state only.  *Visibility* of accesses (what reaches the memory
// bus, and hence the MBM) is modelled by sim::Cache and sim::MemoryBus, not
// here; see DESIGN.md §3.3.
//
// Page representation (DESIGN.md §12):
//
//   * a page slot holds either an owned Page or nullptr — the all-zero
//     sentinel.  Fresh machines allocate *no* pages at all, so constructing
//     a 64 MiB machine costs a pointer vector, not a 64 MiB memset;
//   * the first write to a zero page materialises it;
//   * `zero_range` over a whole page frees it back to the sentinel
//     instead, so zero-filling a fresh frame allocates nothing;
//   * `save_pages`/`restore_pages` write and read the populated-page table
//     of a machine snapshot (sim/snapshot.h).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sim/snapshot.h"

namespace hn::sim {

class PhysicalMemory {
 public:
  /// One 4 KiB physical page.
  struct Page {
    u8 bytes[kPageSize];
  };

  explicit PhysicalMemory(u64 size_bytes)
      : size_(size_bytes),
        pages_(size_bytes >> kPageShift),
        watched_(size_bytes >> kPageShift, 0) {
    assert(is_page_aligned(size_bytes));
  }
  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  [[nodiscard]] u64 size() const { return size_; }
  [[nodiscard]] bool contains(PhysAddr pa, u64 len = 1) const {
    return pa < size_ && len <= size_ - pa;
  }

  [[nodiscard]] u64 read64(PhysAddr pa) const {
    assert(contains(pa, 8));
    const u64 off = pa & kPageMask;
    if (off <= kPageSize - 8) [[likely]] {
      const Page* p = pages_[pa >> kPageShift].get();
      if (p == nullptr) return 0;
      u64 v;
      std::memcpy(&v, &p->bytes[off], 8);
      return v;
    }
    u64 v = 0;
    read_block(pa, &v, 8);
    return v;
  }
  void write64(PhysAddr pa, u64 v) {
    assert(contains(pa, 8));
    const u64 off = pa & kPageMask;
    if (off <= kPageSize - 8) [[likely]] {
      std::memcpy(&writable_page(pa >> kPageShift)->bytes[off], &v, 8);
      return;
    }
    write_block(pa, &v, 8);
  }

  void read_block(PhysAddr pa, void* out, u64 len) const {
    assert(contains(pa, len));
    u8* dst = static_cast<u8*>(out);
    while (len > 0) {
      const u64 off = pa & kPageMask;
      const u64 n = len < kPageSize - off ? len : kPageSize - off;
      const Page* p = pages_[pa >> kPageShift].get();
      if (p == nullptr) {
        std::memset(dst, 0, n);
      } else {
        std::memcpy(dst, &p->bytes[off], n);
      }
      pa += n;
      dst += n;
      len -= n;
    }
  }
  void write_block(PhysAddr pa, const void* in, u64 len) {
    assert(contains(pa, len));
    const u8* src = static_cast<const u8*>(in);
    while (len > 0) {
      const u64 off = pa & kPageMask;
      const u64 n = len < kPageSize - off ? len : kPageSize - off;
      std::memcpy(&writable_page(pa >> kPageShift)->bytes[off], src, n);
      pa += n;
      src += n;
      len -= n;
    }
  }

  /// Zero [pa, pa+len): whole pages return to the zero sentinel, partial
  /// pages are zeroed in place.
  void zero_range(PhysAddr pa, u64 len) {
    assert(contains(pa, len));
    while (len > 0) {
      const u64 off = pa & kPageMask;
      const u64 n = len < kPageSize - off ? len : kPageSize - off;
      const u64 index = pa >> kPageShift;
      if (off == 0 && n == kPageSize) {
        // Whole page: free it back to the zero sentinel.  This bypasses
        // writable_page(), so touch the watch epoch here.
        touch_watched(index);
        pages_[index].reset();
      } else if (pages_[index] != nullptr) {
        std::memset(&writable_page(index)->bytes[off], 0, n);
      }
      pa += n;
      len -= n;
    }
  }

  // --- Snapshot support (sim/snapshot.h) ----------------------------------

  /// Append the populated-page table of a snapshot: the page size, the
  /// page count, the number of populated pages, then each populated
  /// page's index and bytes in ascending index order.  Zero pages stay
  /// implicit.
  void save_pages(SnapWriter& w) const;
  /// Replace every page with the table `r` holds, which must run to the
  /// end of `r`.  The whole table is checked before the first page
  /// changes: page size, length, index order and range, trailing bytes,
  /// then the page count against this memory.
  Status restore_pages(SnapReader& r);

  // --- Page-watch epochs ------------------------------------------------------
  //
  // A host-side change detector for consumers that cache derived views of
  // specific pages (the EL2 page-table audit memoizes per-table scans).
  // Watched pages get a fresh epoch from a global counter whenever their
  // contents may have changed: any write, a whole-page zero, or a snapshot
  // restore replacing the page.  Purely host
  // bookkeeping — no simulated cost, no bus traffic, no counters.  A dense
  // byte per frame filters the write path; epochs exist only for the few
  // watched frames.

  /// Start watching page `index`.  Always assigns a fresh epoch, so a
  /// cache entry recorded before the watch began can never appear valid.
  void watch_page(u64 index) {
    assert(index < pages_.size());
    watched_[index] = 1;
    page_epoch_[index] = ++watch_epoch_;
  }
  void unwatch_page(u64 index) {
    assert(index < pages_.size());
    watched_[index] = 0;
    page_epoch_.erase(index);
  }
  [[nodiscard]] bool page_watched(u64 index) const {
    assert(index < pages_.size());
    return watched_[index] != 0;
  }
  /// Epoch of the last potential mutation of watched page `index`.
  [[nodiscard]] u64 page_epoch(u64 index) const {
    assert(page_watched(index));
    return page_epoch_.find(index)->second;
  }
  /// True when a watched page intersects [pa, pa+len); no page past the
  /// end of DRAM is watched.
  [[nodiscard]] bool any_watched(PhysAddr pa, u64 len) const {
    const u64 first = pa >> kPageShift;
    const u64 end = std::min<u64>((pa + len + kPageMask) >> kPageShift,
                                  pages_.size());
    return first < end &&
           std::memchr(&watched_[first], 1, end - first) != nullptr;
  }

  [[nodiscard]] u64 page_count() const { return pages_.size(); }
  /// Raw bytes of page `index`, or nullptr for an all-zero page.
  [[nodiscard]] const u8* page_data(u64 index) const {
    assert(index < pages_.size());
    return pages_[index] != nullptr ? pages_[index]->bytes : nullptr;
  }

 private:
  /// Watched-page epoch bump; see the page-watch section above.
  void touch_watched(u64 index) {
    if (watched_[index] != 0) [[unlikely]] {
      page_epoch_[index] = ++watch_epoch_;
    }
  }

  /// The write path: returns the page, materialising the zero sentinel
  /// first.
  Page* writable_page(u64 index) {
    touch_watched(index);
    std::unique_ptr<Page>& p = pages_[index];
    if (p == nullptr) p = std::make_unique<Page>();  // value-initialised: zero
    return p.get();
  }

  u64 size_;
  std::vector<std::unique_ptr<Page>> pages_;
  // 1 = page participates in epoch tracking.
  std::vector<u8> watched_;
  // Last-mutation epoch of each watched page.
  std::unordered_map<u64, u64> page_epoch_;
  // Global monotone epoch source.
  u64 watch_epoch_ = 0;
};

}  // namespace hn::sim
