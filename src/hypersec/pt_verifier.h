// Hypersec's page-table write verifier (§5.2.1).
//
// Maintains an inventory of translation-table pages (with their walk
// level) and enforces, on every requested descriptor write:
//   * writes only target registered table pages,
//   * table descriptors only point at registered next-level table pages,
//   * the secure space is never mapped (neither as data nor as a table),
//   * W^X over kernel mappings,
//   * page-table pages and kernel text/rodata are never mapped writable,
//   * unmap (zero descriptor) is always allowed.
#pragma once

#include <map>
#include <set>

#include "common/types.h"
#include "sim/machine.h"
#include "sim/pagetable.h"

namespace hn::hypersec {

enum class Verdict : u8 { kAllow, kDeny };

struct VerifierStats {
  u64 checked = 0;
  u64 denied_not_pt_page = 0;    // target page is not a registered table
  u64 denied_kernel_tree = 0;    // runtime edit of the immutable kernel tree
  u64 denied_secure_map = 0;     // descriptor output in the secure space
  u64 denied_bad_table = 0;      // table desc to a non-table / wrong level
  u64 denied_bad_encoding = 0;   // block/page encoding at an illegal level
  u64 denied_wx = 0;             // writable+executable mapping
  u64 denied_pt_writable = 0;    // writable alias of a table page
  u64 denied_text_writable = 0;  // writable alias of text/rodata

  [[nodiscard]] u64 denied_total() const {
    return denied_not_pt_page + denied_kernel_tree + denied_secure_map +
           denied_bad_table + denied_bad_encoding + denied_wx +
           denied_pt_writable + denied_text_writable;
  }
};

class PtVerifier {
 public:
  PtVerifier(sim::Machine& machine, PhysAddr text_base, u64 text_size,
             PhysAddr rodata_base, u64 rodata_size)
      : machine_(machine), text_base_(text_base), text_size_(text_size),
        rodata_base_(rodata_base), rodata_size_(rodata_size) {}

  // --- Inventory -------------------------------------------------------------
  //
  // Registered table pages are exactly the machine's watched physical
  // pages: the watch bit answers is_pt_page() in O(1), and the audit's
  // per-table scan cache (hypersec.cpp) keys entries on the page's
  // mutation epoch.  A verifier must be its machine's only page watcher.
  void add_pt_page(PhysAddr pa, unsigned level) {
    const PhysAddr page = page_align_down(pa);
    pt_pages_[page] = level;
    machine_.phys().watch_page(page >> kPageShift);
  }
  void remove_pt_page(PhysAddr pa) {
    const PhysAddr page = page_align_down(pa);
    pt_pages_.erase(page);
    machine_.phys().unwatch_page(page >> kPageShift);
  }
  /// Same answer as pt_pages().contains(page), without the tree lookup;
  /// false past the end of DRAM.
  [[nodiscard]] bool is_pt_page(PhysAddr pa) const {
    const sim::PhysicalMemory& phys = machine_.phys();
    const u64 index = pa >> kPageShift;
    return index < phys.page_count() && phys.page_watched(index);
  }
  [[nodiscard]] int pt_level(PhysAddr pa) const {
    auto it = pt_pages_.find(page_align_down(pa));
    return it == pt_pages_.end() ? -1 : static_cast<int>(it->second);
  }
  /// The kernel-half (TTBR1) tree is immutable at runtime: the linear map
  /// never changes after boot, so any kernel-requested edit of its tables
  /// is an attack (e.g. relocating a monitored object's mapping — the
  /// ATRA pattern [15]).  Only Hypersec itself edits these at EL2.
  void mark_kernel_tree(PhysAddr pa) {
    kernel_tree_.insert(page_align_down(pa));
  }
  [[nodiscard]] bool is_kernel_tree(PhysAddr pa) const {
    return kernel_tree_.contains(page_align_down(pa));
  }

  /// Sealed module text pages: executable, therefore never writable again
  /// through any alias while sealed.
  void add_module_text(PhysAddr pa) { module_text_.insert(page_align_down(pa)); }
  void remove_module_text(PhysAddr pa) {
    module_text_.erase(page_align_down(pa));
  }
  [[nodiscard]] bool is_module_text(PhysAddr pa) const {
    return module_text_.contains(page_align_down(pa));
  }

  void add_user_root(PhysAddr pa) { user_roots_.insert(pa); }
  void remove_user_root(PhysAddr pa) { user_roots_.erase(pa); }
  [[nodiscard]] bool is_user_root(PhysAddr pa) const {
    return user_roots_.contains(pa);
  }
  void set_kernel_root(PhysAddr pa) { kernel_root_ = pa; }
  [[nodiscard]] PhysAddr kernel_root() const { return kernel_root_; }

  /// Check a requested write of `desc` into the table page at `table_pa`.
  Verdict check_pt_write(PhysAddr table_pa, unsigned index, u64 desc);

  [[nodiscard]] const VerifierStats& stats() const { return stats_; }
  [[nodiscard]] u64 pt_page_count() const { return pt_pages_.size(); }
  /// Full PTP inventory (page PA -> level): the protected set the
  /// invariant checker mirrors into MBM-monitored regions.
  [[nodiscard]] const std::map<PhysAddr, unsigned>& pt_pages() const {
    return pt_pages_;
  }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------

  void save_state(sim::SnapWriter& w) const {
    w.put_u64(kernel_root_);
    w.put_u64(pt_pages_.size());
    for (const auto& [pa, level] : pt_pages_) {
      w.put_u64(pa);
      w.put_u32(level);
    }
    w.put_u64(kernel_tree_.size());
    for (const PhysAddr pa : kernel_tree_) w.put_u64(pa);
    w.put_u64(module_text_.size());
    for (const PhysAddr pa : module_text_) w.put_u64(pa);
    w.put_u64(user_roots_.size());
    for (const PhysAddr pa : user_roots_) w.put_u64(pa);
    w.put_u64(stats_.checked);
    w.put_u64(stats_.denied_not_pt_page);
    w.put_u64(stats_.denied_kernel_tree);
    w.put_u64(stats_.denied_secure_map);
    w.put_u64(stats_.denied_bad_table);
    w.put_u64(stats_.denied_bad_encoding);
    w.put_u64(stats_.denied_wx);
    w.put_u64(stats_.denied_pt_writable);
    w.put_u64(stats_.denied_text_writable);
  }

  void restore_state(sim::SnapReader& r) {
    r.section("pt verifier");
    kernel_root_ = r.get_u64();
    const u64 npt = r.get_count("table page");
    for (const auto& [pa, level] : pt_pages_) {
      machine_.phys().unwatch_page(pa >> kPageShift);
    }
    pt_pages_.clear();
    // All saved in ascending key order, so hinted inserts are O(1).
    for (u64 i = 0; r.ok() && i < npt; ++i) {
      const PhysAddr pa = r.get_u64();
      const u32 level = r.get_u32();
      // The watch bits are the inventory (is_pt_page), so only whole DRAM
      // pages may enter it.
      if (!is_page_aligned(pa) || !machine_.phys().contains(pa, kPageSize)) {
        r.fail("table page outside DRAM");
        break;
      }
      pt_pages_.emplace_hint(pt_pages_.end(), pa, level);
      machine_.phys().watch_page(pa >> kPageShift);
    }
    const u64 ntree = r.get_count("kernel-tree page");
    kernel_tree_.clear();
    for (u64 i = 0; r.ok() && i < ntree; ++i) {
      kernel_tree_.emplace_hint(kernel_tree_.end(), r.get_u64());
    }
    const u64 ntext = r.get_count("module-text page");
    module_text_.clear();
    for (u64 i = 0; r.ok() && i < ntext; ++i) {
      module_text_.emplace_hint(module_text_.end(), r.get_u64());
    }
    const u64 nroots = r.get_count("user root");
    user_roots_.clear();
    for (u64 i = 0; r.ok() && i < nroots; ++i) {
      user_roots_.emplace_hint(user_roots_.end(), r.get_u64());
    }
    stats_.checked = r.get_u64();
    stats_.denied_not_pt_page = r.get_u64();
    stats_.denied_kernel_tree = r.get_u64();
    stats_.denied_secure_map = r.get_u64();
    stats_.denied_bad_table = r.get_u64();
    stats_.denied_bad_encoding = r.get_u64();
    stats_.denied_wx = r.get_u64();
    stats_.denied_pt_writable = r.get_u64();
    stats_.denied_text_writable = r.get_u64();
  }

 private:
  sim::Machine& machine_;
  PhysAddr text_base_;
  u64 text_size_;
  PhysAddr rodata_base_;
  u64 rodata_size_;
  PhysAddr kernel_root_ = 0;
  std::map<PhysAddr, unsigned> pt_pages_;  // table page -> walk level
  std::set<PhysAddr> kernel_tree_;         // immutable TTBR1 tables
  std::set<PhysAddr> module_text_;         // sealed RX module pages
  std::set<PhysAddr> user_roots_;
  VerifierStats stats_;
};

}  // namespace hn::hypersec
