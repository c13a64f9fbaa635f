// Kernel stage-1 page-table management.
//
// All trees (the shared TTBR1 kernel tree and per-process TTBR0 user
// trees) are real 4-level descriptor trees in simulated memory.  Runtime
// descriptor *writes* go through the pluggable PtWriter (direct stores vs
// Hypersec hypercalls); descriptor *reads* are ordinary charged EL1 loads
// through the linear map.  The boot-time linear map is built with the MMU
// off (direct physical stores, uncharged), as a boot loader would, one
// last-level table per store.
#pragma once

#include <map>

#include "common/status.h"
#include "common/types.h"
#include "kernel/buddy.h"
#include "kernel/pt_write.h"
#include "sim/machine.h"
#include "sim/pagetable.h"

namespace hn::kernel {

class PageTableManager {
 public:
  PageTableManager(sim::Machine& machine, BuddyAllocator& buddy);

  /// Swap the descriptor-write policy (Hypernel boot installs the
  /// hypercall writer after Hypersec takes over).
  void set_writer(PtWriter& writer) { writer_ = &writer; }
  PtWriter& writer() { return *writer_; }

  /// Build the kernel TTBR1 tree mapping the linear region [0, limit):
  /// text RX, rodata RO, data + rest RW, all cacheable; `use_sections`
  /// selects 2 MiB block descriptors for the post-image region (the stock
  /// kernel behaviour §6.2 patches away).  MMU-off construction; a limit
  /// inside a page maps that whole page.
  Result<PhysAddr> build_kernel_linear_map(PhysAddr limit, bool use_sections);

  /// Allocate a zeroed top-level table for a user address space.
  Result<PhysAddr> alloc_user_root();
  void free_user_root(PhysAddr root);

  // --- Runtime mapping operations (charged; through the PtWriter) ---------
  Status map_page(PhysAddr root, VirtAddr va, PhysAddr pa,
                  const sim::PageAttrs& attrs);
  Status unmap_page(PhysAddr root, VirtAddr va, PhysAddr* old_pa = nullptr);
  /// Rewrite the attribute bits of an existing leaf mapping.
  Status set_page_attrs(PhysAddr root, VirtAddr va, const sim::PageAttrs& attrs);

  /// Software walk (charged loads).  level==3 page or level==2 block.
  struct SwWalk {
    bool ok = false;
    u64 desc = 0;
    unsigned level = 0;
    PhysAddr desc_pa = 0;  // where the leaf descriptor lives
  };
  SwWalk walk(PhysAddr root, VirtAddr va);

  /// Tear down a user tree: every leaf frame (optionally) and every table
  /// page returns to the buddy; table retirements notify the PtWriter.
  void free_user_tree(PhysAddr root, bool free_leaf_frames);

  [[nodiscard]] PhysAddr kernel_root() const { return kernel_root_; }
  [[nodiscard]] bool is_pt_page(PhysAddr pa) const {
    return pt_pages_.contains(page_align_down(pa));
  }
  /// Registered table pages with their walk level (0 = root).
  [[nodiscard]] const std::map<PhysAddr, unsigned>& pt_pages() const {
    return pt_pages_;
  }
  [[nodiscard]] u64 pt_page_count() const { return pt_pages_.size(); }

  /// Convenience: change linear-map attributes of the page frame at `pa`
  /// (used by tests and by Hypersec acting at EL2 via its own path).
  Status protect_linear(PhysAddr pa, const sim::PageAttrs& attrs);

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  // The descriptor trees themselves live in simulated memory (restored via
  // the snapshot's pages); only the host-side registry is serialized.

  void save_state(sim::SnapWriter& w) const {
    w.put_u64(kernel_root_);
    w.put_u64(pt_pages_.size());
    for (const auto& [pa, level] : pt_pages_) {
      w.put_u64(pa);
      w.put_u32(level);
    }
  }

  void restore_state(sim::SnapReader& r) {
    r.section("kpt");
    kernel_root_ = r.get_u64();
    const u64 n = r.get_count("page-table page");
    pt_pages_.clear();
    for (u64 i = 0; r.ok() && i < n; ++i) {
      const PhysAddr pa = r.get_u64();
      pt_pages_.emplace_hint(pt_pages_.end(), pa, r.get_u32());
    }
  }

 private:
  /// Allocate + zero + register a new table page (runtime, charged).
  Result<PhysAddr> alloc_table_page(unsigned level);
  /// Split a 2 MiB block descriptor into a level-3 table of 4 KiB pages
  /// with identical attributes (the stock kernel's pmd split).
  Status split_block(const SwWalk& w);
  /// Boot-time variant: direct physical stores, no charges, no writer.
  Result<PhysAddr> alloc_table_page_boot(unsigned level);
  u64 read_desc(PhysAddr table_pa, u64 index);

  sim::Machine& machine_;
  BuddyAllocator& buddy_;
  DirectPtWriter direct_writer_;
  PtWriter* writer_;
  PhysAddr kernel_root_ = 0;
  std::map<PhysAddr, unsigned> pt_pages_;  // table page -> walk level
};

}  // namespace hn::kernel
