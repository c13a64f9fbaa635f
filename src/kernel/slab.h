// Slab caches for the monitored kernel objects (cred, dentry).
//
// Each cache owns dedicated page frames carved into fixed-size objects —
// the property Hypersec relies on when it flips a monitored object's page
// to non-cacheable: only same-kind objects share the page.  Object
// alloc/free hooks are the kernel instrumentation points through which a
// security application learns object lifetimes (§5.3 step 1).
#pragma once

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "kernel/buddy.h"
#include "kernel/costs.h"
#include "kernel/layout.h"
#include "kernel/objects.h"
#include "kernel/spinlock.h"
#include "sim/machine.h"

namespace hn::kernel {

class SlabCache {
 public:
  using ObjectHook = std::function<void(VirtAddr va)>;

  SlabCache(sim::Machine& machine, BuddyAllocator& buddy,
            const KernelCosts& costs, ObjectKind kind)
      : machine_(machine), buddy_(buddy), costs_(costs), kind_(kind),
        obj_bytes_(object_words(kind) * kWordSize) {
    lock_.bind(machine);
  }

  void set_hooks(ObjectHook on_alloc, ObjectHook on_free) {
    on_alloc_ = std::move(on_alloc);
    on_free_ = std::move(on_free);
  }

  /// Allocate a zeroed object; returns its linear-map VA.  The alloc hook
  /// fires after zeroing, before the caller initialises fields — so field
  /// initialisation is already monitored, as in the paper's experiment.
  Result<VirtAddr> alloc() {
    SpinGuard list(lock_);
    machine_.advance(costs_.slab_alloc);
    if (freelist_.empty()) {
      if (Status s = grow(); !s.ok()) return s;
    }
    const VirtAddr va = freelist_.back();
    freelist_.pop_back();
    ++live_;
    for (u64 off = 0; off < obj_bytes_; off += kWordSize) {
      machine_.write64(va + off, 0);
    }
    if (on_alloc_) on_alloc_(va);
    return va;
  }

  void free(VirtAddr va) {
    SpinGuard list(lock_);
    machine_.advance(costs_.slab_free);
    if (on_free_) on_free_(va);
    freelist_.push_back(va);
    --live_;
  }

  [[nodiscard]] ObjectKind kind() const { return kind_; }
  [[nodiscard]] u64 object_bytes() const { return obj_bytes_; }
  [[nodiscard]] u64 live_objects() const { return live_; }
  [[nodiscard]] const std::vector<PhysAddr>& pages() const { return pages_; }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  // Freelist order matters (LIFO reuse) and is preserved exactly.

  void save_state(sim::SnapWriter& w) const {
    w.put_u64(freelist_.size());
    for (const VirtAddr va : freelist_) w.put_u64(va);
    w.put_u64(pages_.size());
    for (const PhysAddr pa : pages_) w.put_u64(pa);
    w.put_u64(live_);
    lock_.save_state(w);
  }

  void restore_state(sim::SnapReader& r) {
    r.section("slab");
    const u64 nfree = r.get_count("freelist");
    freelist_.clear();
    freelist_.reserve(r.ok() ? nfree : 0);
    for (u64 i = 0; r.ok() && i < nfree; ++i) freelist_.push_back(r.get_u64());
    const u64 npages = r.get_count("slab page");
    pages_.clear();
    pages_.reserve(r.ok() ? npages : 0);
    for (u64 i = 0; r.ok() && i < npages; ++i) pages_.push_back(r.get_u64());
    live_ = r.get_u64();
    lock_.restore_state(r);
    if (r.ok()) check_objects(r);
  }

 private:
  Status grow() {
    machine_.advance(costs_.page_alloc);
    Result<PhysAddr> page = buddy_.alloc_page();
    if (!page.ok()) return page.status();
    pages_.push_back(page.value());
    for (u64 off = 0; off + obj_bytes_ <= kPageSize; off += obj_bytes_) {
      freelist_.push_back(phys_to_virt(page.value() + off));
    }
    return Status::Ok();
  }

  /// Restore check: every page is a distinct page the buddy has handed
  /// out, every free object is a distinct object slot of those pages, and
  /// the live count is what the free ones leave.
  void check_objects(sim::SnapReader& r) const {
    std::set<PhysAddr> pages;
    for (const PhysAddr pa : pages_) {
      if (!buddy_.is_allocated_block(pa, 0) || !pages.insert(pa).second) {
        r.fail("slab page " + std::to_string(pa) +
               " is not a distinct allocated page");
        return;
      }
    }
    std::set<VirtAddr> free;
    for (const VirtAddr va : freelist_) {
      const PhysAddr pa = virt_to_phys(va);
      const u64 off = pa & kPageMask;
      if (va < kKernelVaBase || !pages.contains(pa - off) ||
          off % obj_bytes_ != 0 || off + obj_bytes_ > kPageSize ||
          !free.insert(va).second) {
        r.fail("free object " + std::to_string(va) +
               " is not a distinct object of this cache's pages");
        return;
      }
    }
    const u64 slots = pages_.size() * (kPageSize / obj_bytes_);
    if (live_ + freelist_.size() != slots) {
      r.fail(std::to_string(live_) + " live and " +
             std::to_string(freelist_.size()) + " free objects in " +
             std::to_string(slots) + " slots");
    }
  }

  sim::Machine& machine_;
  BuddyAllocator& buddy_;
  const KernelCosts& costs_;
  ObjectKind kind_;
  u64 obj_bytes_;
  std::vector<VirtAddr> freelist_;
  std::vector<PhysAddr> pages_;
  SpinLock lock_;  // per-cache list lock, as in a real slab
  u64 live_ = 0;
  ObjectHook on_alloc_;
  ObjectHook on_free_;
};

}  // namespace hn::kernel
