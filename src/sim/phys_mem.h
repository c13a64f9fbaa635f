// Simulated physical memory: byte-addressable RAM organised as 4 KiB
// copy-on-write pages.
//
// Functional state only.  *Visibility* of accesses (what reaches the memory
// bus, and hence the MBM) is modelled by sim::Cache and sim::MemoryBus, not
// here; see DESIGN.md §3.3.
//
// Page representation (DESIGN.md §12):
//
//   * a page slot holds either a refcounted Page or nullptr — the all-zero
//     sentinel.  Fresh machines allocate *no* pages at all, so constructing
//     a 64 MiB machine costs a pointer vector, not a 64 MiB memset;
//   * `capture()` shares every current page into a PageSet (refcount bump,
//     no copying) — the machine-snapshot fork path;
//   * writes materialise zero pages and copy shared ones (refcount > 1)
//     before mutating, so a captured PageSet is immutable: concurrent
//     machines forked from one snapshot only ever *read* shared pages,
//     which keeps the fork path clean under TSan;
//   * `zero_range` over a whole page drops it back to the sentinel
//     instead, so zero-filling a fresh frame allocates nothing.
//
// Refcount discipline is the shared_ptr classic: increments are relaxed,
// the owner-drop decrement is acq_rel, and the exclusivity check in the
// write path is an acquire load — a reader that observes refs == 1 is the
// sole owner and may write in place.
#pragma once

#include <atomic>
#include <cassert>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace hn::sim {

class PhysicalMemory {
 public:
  /// One 4 KiB physical page plus its sharing count.
  struct Page {
    std::atomic<u32> refs{1};
    u8 bytes[kPageSize];
  };

  /// A copy-on-write page snapshot: shares pages with the memory it was
  /// captured from (nullptr slots are all-zero pages).  Copying a PageSet
  /// is cheap (refcount bumps); destroying one releases its references.
  class PageSet {
   public:
    PageSet() = default;
    PageSet(const PageSet& other) : pages_(other.pages_) {
      for (Page* p : pages_) ref(p);
    }
    PageSet& operator=(const PageSet& other) {
      if (this == &other) return *this;
      PageSet copy(other);
      std::swap(pages_, copy.pages_);
      return *this;
    }
    PageSet(PageSet&& other) noexcept : pages_(std::move(other.pages_)) {
      other.pages_.clear();
    }
    PageSet& operator=(PageSet&& other) noexcept {
      if (this == &other) return *this;
      release();
      pages_ = std::move(other.pages_);
      other.pages_.clear();
      return *this;
    }
    ~PageSet() { release(); }

    [[nodiscard]] bool empty() const { return pages_.empty(); }
    [[nodiscard]] u64 page_count() const { return pages_.size(); }
    /// Pages actually backed by storage (non-zero content at capture time).
    [[nodiscard]] u64 populated_count() const {
      u64 n = 0;
      for (const Page* p : pages_) n += (p != nullptr);
      return n;
    }
    /// Raw bytes of page `index`, or nullptr for an all-zero page.
    [[nodiscard]] const u8* page_data(u64 index) const {
      assert(index < pages_.size());
      return pages_[index] != nullptr ? pages_[index]->bytes : nullptr;
    }

    /// Rebuild-from-file support: reset to `page_count` all-zero pages,
    /// then populate individual pages with private (refcount 1) copies.
    void reset(u64 page_count) {
      release();
      pages_.assign(page_count, nullptr);
    }
    void set_page(u64 index, const u8* bytes) {
      assert(index < pages_.size());
      unref(pages_[index]);
      Page* p = new Page;
      std::memcpy(p->bytes, bytes, kPageSize);
      pages_[index] = p;
    }

   private:
    friend class PhysicalMemory;
    void release() {
      for (Page* p : pages_) unref(p);
      pages_.clear();
    }

    std::vector<Page*> pages_;
  };

  explicit PhysicalMemory(u64 size_bytes)
      : size_(size_bytes),
        pages_(size_bytes >> kPageShift, nullptr),
        watched_(size_bytes >> kPageShift, 0) {
    assert(is_page_aligned(size_bytes));
  }
  ~PhysicalMemory() {
    for (Page* p : pages_) unref(p);
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
      const Page* p = pages_[pa >> kPageShift];
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

  [[nodiscard]] u32 read32(PhysAddr pa) const {
    assert(contains(pa, 4));
    const u64 off = pa & kPageMask;
    if (off <= kPageSize - 4) [[likely]] {
      const Page* p = pages_[pa >> kPageShift];
      if (p == nullptr) return 0;
      u32 v;
      std::memcpy(&v, &p->bytes[off], 4);
      return v;
    }
    u32 v = 0;
    read_block(pa, &v, 4);
    return v;
  }
  void write32(PhysAddr pa, u32 v) {
    assert(contains(pa, 4));
    const u64 off = pa & kPageMask;
    if (off <= kPageSize - 4) [[likely]] {
      std::memcpy(&writable_page(pa >> kPageShift)->bytes[off], &v, 4);
      return;
    }
    write_block(pa, &v, 4);
  }

  [[nodiscard]] u8 read8(PhysAddr pa) const {
    assert(contains(pa));
    const Page* p = pages_[pa >> kPageShift];
    return p != nullptr ? p->bytes[pa & kPageMask] : 0;
  }
  void write8(PhysAddr pa, u8 v) {
    assert(contains(pa));
    writable_page(pa >> kPageShift)->bytes[pa & kPageMask] = v;
  }

  void read_block(PhysAddr pa, void* out, u64 len) const {
    assert(contains(pa, len));
    u8* dst = static_cast<u8*>(out);
    while (len > 0) {
      const u64 off = pa & kPageMask;
      const u64 n = len < kPageSize - off ? len : kPageSize - off;
      const Page* p = pages_[pa >> kPageShift];
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

  /// Zero [pa, pa+len): whole pages return to the zero sentinel (their
  /// sharing released), partial pages are zeroed in place.
  void zero_range(PhysAddr pa, u64 len) {
    assert(contains(pa, len));
    while (len > 0) {
      const u64 off = pa & kPageMask;
      const u64 n = len < kPageSize - off ? len : kPageSize - off;
      const u64 index = pa >> kPageShift;
      if (off == 0 && n == kPageSize) {
        // Whole page: drop back to the zero sentinel, reclaiming sharing.
        // This bypasses writable_page(), so touch the watch epoch here.
        touch_watched(index);
        unref(pages_[index]);
        pages_[index] = nullptr;
      } else if (pages_[index] != nullptr) {
        std::memset(&writable_page(index)->bytes[off], 0, n);
      }
      pa += n;
      len -= n;
    }
  }

  // --- Snapshot / fork support (sim/snapshot.h) -----------------------------

  /// Share every current page into a PageSet: the copy-on-write fork.
  /// O(pages) pointer work; no page data is copied.
  [[nodiscard]] PageSet capture() {
    PageSet set;
    set.pages_ = pages_;
    for (Page* p : set.pages_) ref(p);
    return set;
  }

  /// Replace the current contents with `set`'s pages, copy-on-write shared.
  /// Pages this memory privately materialised since the capture are freed.
  Status adopt(const PageSet& set) {
    if (set.pages_.size() != pages_.size()) {
      return Status::Invalid(
          "snapshot: physical memory page count mismatch (snapshot " +
          std::to_string(set.pages_.size()) + ", machine " +
          std::to_string(pages_.size()) + ")");
    }
    for (size_t i = 0; i < pages_.size(); ++i) {
      Page* next = set.pages_[i];
      Page* cur = pages_[i];
      if (next == cur) continue;
      touch_watched(i);
      ref(next);
      unref(cur);
      pages_[i] = next;
    }
    return Status::Ok();
  }

  // --- Page-watch epochs ------------------------------------------------------
  //
  // A host-side change detector for consumers that cache derived views of
  // specific pages (the EL2 page-table audit memoizes per-table scans).
  // Watched pages get a fresh epoch from a global counter whenever their
  // contents may have changed: any write-path materialisation, a whole-page
  // zero, or a snapshot adopt() swapping the backing page.  Purely host
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

  [[nodiscard]] u64 page_count() const { return pages_.size(); }
  /// Raw bytes of page `index`, or nullptr for an all-zero page.
  [[nodiscard]] const u8* page_data(u64 index) const {
    assert(index < pages_.size());
    return pages_[index] != nullptr ? pages_[index]->bytes : nullptr;
  }
  /// Sharing count of page `index` (0 for the zero sentinel) — exposed for
  /// the COW lifecycle tests.
  [[nodiscard]] u32 page_refs(u64 index) const {
    assert(index < pages_.size());
    const Page* p = pages_[index];
    return p != nullptr ? p->refs.load(std::memory_order_relaxed) : 0;
  }

 private:
  static void ref(Page* p) {
    if (p != nullptr) p->refs.fetch_add(1, std::memory_order_relaxed);
  }
  static void unref(Page* p) {
    if (p != nullptr && p->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      delete p;
    }
  }

  /// Watched-page epoch bump; see the page-watch section above.
  void touch_watched(u64 index) {
    if (watched_[index] != 0) [[unlikely]] {
      page_epoch_[index] = ++watch_epoch_;
    }
  }

  /// The write path: returns a page this memory owns exclusively,
  /// materialising the zero sentinel or copying a shared page first.
  Page* writable_page(u64 index) {
    touch_watched(index);
    Page* p = pages_[index];
    if (p != nullptr && p->refs.load(std::memory_order_acquire) == 1) {
      return p;
    }
    Page* fresh = new Page;
    if (p == nullptr) {
      std::memset(fresh->bytes, 0, kPageSize);
    } else {
      std::memcpy(fresh->bytes, p->bytes, kPageSize);
      unref(p);
    }
    pages_[index] = fresh;
    return fresh;
  }

  u64 size_;
  std::vector<Page*> pages_;
  // 1 = page participates in epoch tracking.
  std::vector<u8> watched_;
  // Last-mutation epoch of each watched page.
  std::unordered_map<u64, u64> page_epoch_;
  // Global monotone epoch source.
  u64 watch_epoch_ = 0;
};

}  // namespace hn::sim
