// Binary buddy allocator for physical page frames.
//
// Manages the normal-DRAM pool between the kernel image and the secure
// space.  Purely host-side bookkeeping (free lists are metadata a real
// kernel would keep in struct page); the *frames it hands out* are real
// simulated memory.  Allocation cost is charged by callers as part of the
// operation that needs the page.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "kernel/spinlock.h"
#include "obs/metrics.h"
#include "sim/snapshot.h"

namespace hn::kernel {

class BuddyAllocator {
 public:
  static constexpr unsigned kMaxOrder = 10;  // up to 4 MiB blocks

  /// Manages page frames in [base, base + size); both page aligned.
  BuddyAllocator(PhysAddr base, u64 size);

  /// Allocate 2^order contiguous pages.  Returns the frame PA.
  Result<PhysAddr> alloc_pages(unsigned order);
  Result<PhysAddr> alloc_page() { return alloc_pages(0); }

  /// Free a block previously returned by alloc_pages with the same order.
  void free_pages(PhysAddr pa, unsigned order);
  void free_page(PhysAddr pa) { free_pages(pa, 0); }

  /// Observer of frees (the KVM host-pressure model watches page recycling
  /// to decide which stage-2 mappings go stale; see DESIGN.md).
  void set_free_hook(std::function<void(PhysAddr, unsigned)> hook) {
    free_hook_ = std::move(hook);
  }

  /// Register alloc/free counters with the machine's metrics registry
  /// (the allocator itself has no machine reference; the kernel wires it).
  void attach_obs(obs::Registry& obs) {
    obs_alloc_pages_ = obs.counter("kernel.alloc.pages");
    obs_free_pages_ = obs.counter("kernel.alloc.freed_pages");
  }

  /// Bind the zone lock's timing model (SMP kernels; see spinlock.h).
  void attach_machine(sim::Machine& machine) { lock_.bind(machine); }

  [[nodiscard]] u64 free_pages_count() const { return free_pages_; }
  [[nodiscard]] u64 total_pages() const { return total_pages_; }
  [[nodiscard]] PhysAddr base() const { return base_; }
  [[nodiscard]] u64 size() const { return total_pages_ * kPageSize; }
  [[nodiscard]] bool owns(PhysAddr pa) const {
    return pa >= base_ && pa < base_ + size();
  }
  /// True when `pa` heads a block alloc_pages(order) handed out and that
  /// is not freed yet: exactly what free_pages(pa, order) accepts.
  [[nodiscard]] bool is_allocated_block(PhysAddr pa, unsigned order) const {
    if (!owns(pa) || !is_page_aligned(pa)) return false;
    const u64 index = frame_index(pa);
    return allocated_[index] && block_order_[index] == order;
  }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------

  void save_state(sim::SnapWriter& w) const {
    w.put_u64(total_pages_);
    w.put_u64(free_pages_);
    for (const std::vector<u64>& list : free_lists_) {
      w.put_u64(list.size());
      w.put_bytes(list.data(), list.size() * sizeof(u64));
    }
    w.put_bytes(block_order_.data(), block_order_.size());
    // Bit-packed allocated map: the pool is large (one bit per frame).
    std::vector<u8> bits((allocated_.size() + 7) / 8, 0);
    for (size_t i = 0; i < allocated_.size(); ++i) {
      if (allocated_[i]) bits[i >> 3] |= static_cast<u8>(1u << (i & 7));
    }
    w.put_bytes(bits.data(), bits.size());
    lock_.save_state(w);
  }

  void restore_state(sim::SnapReader& r) {
    r.section("buddy");
    const u64 pages = r.get_u64();
    if (r.ok() && pages != total_pages_) {
      r.fail("pool size " + std::to_string(pages) +
             " pages does not match this configuration");
      return;
    }
    free_pages_ = r.get_u64();
    for (std::vector<u64>& list : free_lists_) {
      const u64 n = r.get_count("free list");
      list.resize(r.ok() ? n : 0);
      r.get_bytes(list.data(), list.size() * sizeof(u64));
    }
    r.get_bytes(block_order_.data(), block_order_.size());
    std::vector<u8> bits((allocated_.size() + 7) / 8, 0);
    r.get_bytes(bits.data(), bits.size());
    for (u64 i = 0; i < allocated_.size(); ++i) {
      allocated_[i] = ((bits[i >> 3] >> (i & 7)) & 1) != 0;
    }
    lock_.restore_state(r);
    if (r.ok()) check_blocks(r);
  }

 private:
  [[nodiscard]] u64 frame_index(PhysAddr pa) const {
    return (pa - base_) >> kPageShift;
  }
  [[nodiscard]] PhysAddr frame_addr(u64 index) const {
    return base_ + (index << kPageShift);
  }
  /// Remove a specific free block from its order list; true if found.
  bool take_free_block(u64 index, unsigned order);
  /// Restore check: the free lists and the allocated heads tile the pool,
  /// each frame in exactly one naturally aligned block, and the free
  /// blocks add up to the free-page count.
  void check_blocks(sim::SnapReader& r) const;

  PhysAddr base_;
  u64 total_pages_;
  u64 free_pages_ = 0;
  std::array<std::vector<u64>, kMaxOrder + 1> free_lists_;  // frame indices
  std::vector<u8> block_order_;  // allocation order per frame (head only)
  std::vector<bool> allocated_;  // per-frame allocated bit (heads)
  std::function<void(PhysAddr, unsigned)> free_hook_;
  SpinLock lock_;  // the zone lock: one per pool, as in a real buddy zone
  obs::Counter obs_alloc_pages_;
  obs::Counter obs_free_pages_;
};

}  // namespace hn::kernel
