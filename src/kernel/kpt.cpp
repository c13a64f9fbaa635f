#include "kernel/kpt.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "common/log.h"
#include "kernel/layout.h"

namespace hn::kernel {

using sim::PageAttrs;

PageTableManager::PageTableManager(sim::Machine& machine, BuddyAllocator& buddy)
    : machine_(machine), buddy_(buddy), direct_writer_(machine),
      writer_(&direct_writer_) {}

u64 PageTableManager::read_desc(PhysAddr table_pa, u64 index) {
  const sim::Access64 r = machine_.read64(phys_to_virt(table_pa + index * 8));
  assert(r.ok && "page-table pages must stay readable through the linear map");
  return r.value;
}

Result<PhysAddr> PageTableManager::alloc_table_page_boot(unsigned level) {
  Result<PhysAddr> pa = buddy_.alloc_page();
  if (!pa.ok()) return pa;
  machine_.phys().zero_range(pa.value(), kPageSize);
  pt_pages_[pa.value()] = level;
  return pa;
}

Result<PhysAddr> PageTableManager::alloc_table_page(unsigned level) {
  Result<PhysAddr> pa = buddy_.alloc_page();
  if (!pa.ok()) return pa;
  // Zero through the linear map (charged, streaming stores), then hand the
  // page over to the write policy: under Hypernel this is the kPtAlloc
  // hypercall after which the page is read-only at EL1.
  machine_.zero_block_bulk(phys_to_virt(pa.value()), kPageSize);
  pt_pages_[pa.value()] = level;
  writer_->on_pt_page_alloc(pa.value(), level);
  return pa;
}

Result<PhysAddr> PageTableManager::build_kernel_linear_map(PhysAddr limit,
                                                           bool use_sections) {
  assert(kernel_root_ == 0 && "kernel tables already built");
  Result<PhysAddr> root = alloc_table_page_boot(0);
  if (!root.ok()) return root;
  kernel_root_ = root.value();

  // The level-`level` table covering `va`, creating the missing tables
  // above it top-down (each hooked into its parent as it is allocated).
  auto boot_table = [&](VirtAddr va, unsigned level) -> Result<PhysAddr> {
    PhysAddr table = kernel_root_;
    for (unsigned l = 0; l < level; ++l) {
      const PhysAddr slot = table + sim::va_index(va, l) * 8;
      const u64 desc = machine_.phys().read64(slot);
      if (sim::desc_valid(desc)) {
        assert(sim::desc_is_table(desc, l));
        table = sim::desc_out_addr(desc);
        continue;
      }
      Result<PhysAddr> next = alloc_table_page_boot(l + 1);
      if (!next.ok()) return next;
      machine_.phys().write64(slot, sim::make_table_desc(next.value()));
      table = next.value();
    }
    return table;
  };

  const PageAttrs text{.write = false, .exec = true, .user = false};
  const PageAttrs ro{.write = false, .exec = false, .user = false};
  const PageAttrs rw{.write = true, .exec = false, .user = false};

  if (use_sections) {
    // Stock-kernel style: the whole image section is one 2 MiB RWX block —
    // the protection-granularity hazard §6.2 eliminates — and the rest of
    // the linear region is 2 MiB RW blocks.
    const PageAttrs rwx{.write = true, .exec = true, .user = false};
    for (PhysAddr pa = 0; pa < limit; pa += kSectionSize) {
      const VirtAddr va = phys_to_virt(pa);
      Result<PhysAddr> table = boot_table(va, 2);
      if (!table.ok()) return table;
      machine_.phys().write64(
          table.value() + sim::va_index(va, 2) * 8,
          sim::make_block_desc(pa, pa < kImageEnd ? rwx : rw));
    }
    return kernel_root_;
  }

  // Patched-kernel style (§6.2): everything in 4 KiB pages with W^X, a
  // last-level table (2 MiB of linear map) at a time.  A leaf is its
  // frame address or'd with one of three attribute words; a limit inside
  // a page maps that whole page.
  static_assert(kKernelVaBase % kSectionSize == 0);
  const u64 text_bits = sim::make_page_desc(0, text);
  const u64 ro_bits = sim::make_page_desc(0, ro);
  const u64 rw_bits = sim::make_page_desc(0, rw);
  const PhysAddr end = page_align_up(limit);
  std::array<u64, kPtEntries> leaves;
  for (PhysAddr base = 0; base < end; base += kSectionSize) {
    Result<PhysAddr> table = boot_table(phys_to_virt(base), 3);
    if (!table.ok()) return table;
    const u64 n = std::min<u64>(kPtEntries, (end - base) / kPageSize);
    for (u64 i = 0; i < n; ++i) {
      const PhysAddr pa = base + i * kPageSize;
      leaves[i] = pa | (pa < kTextSize                  ? text_bits
                        : pa < kRodataBase + kRodataSize ? ro_bits
                                                         : rw_bits);
    }
    machine_.phys().write_block(table.value(), leaves.data(), n * 8);
  }
  return kernel_root_;
}

Result<PhysAddr> PageTableManager::alloc_user_root() {
  Result<PhysAddr> root = alloc_table_page(0);
  if (!root.ok()) return root;
  writer_->on_root_alloc(root.value());
  return root;
}

void PageTableManager::free_user_root(PhysAddr root) {
  writer_->on_root_free(root);
  writer_->on_pt_page_free(root);
  pt_pages_.erase(root);
  buddy_.free_page(root);
}

Status PageTableManager::map_page(PhysAddr root, VirtAddr va, PhysAddr pa,
                                  const PageAttrs& attrs) {
  PhysAddr table = root;
  for (unsigned level = 0; level <= 2; ++level) {
    const u64 idx = sim::va_index(va, level);
    const u64 desc = read_desc(table, idx);
    if (!sim::desc_valid(desc)) {
      Result<PhysAddr> next = alloc_table_page(level + 1);
      if (!next.ok()) return next.status();
      if (!writer_->write_desc(table, static_cast<unsigned>(idx),
                               sim::make_table_desc(next.value()))) {
        return Status::Denied("pt: table descriptor write rejected");
      }
      table = next.value();
    } else if (sim::desc_is_table(desc, level)) {
      table = sim::desc_out_addr(desc);
    } else {
      return Status::Precondition("pt: block mapping in the way");
    }
  }
  if (!writer_->write_desc(table,
                           static_cast<unsigned>(sim::va_index(va, 3)),
                           sim::make_page_desc(pa, attrs))) {
    return Status::Denied("pt: leaf descriptor write rejected");
  }
  machine_.tlb_shootdown_va(va);
  machine_.charge_tlbi();
  return Status::Ok();
}

PageTableManager::SwWalk PageTableManager::walk(PhysAddr root, VirtAddr va) {
  SwWalk out;
  PhysAddr table = root;
  for (unsigned level = 0; level <= 3; ++level) {
    const u64 idx = sim::va_index(va, level);
    const u64 desc = read_desc(table, idx);
    if (!sim::desc_valid(desc)) return out;
    if (sim::desc_is_table(desc, level)) {
      table = sim::desc_out_addr(desc);
      continue;
    }
    out.ok = true;
    out.desc = desc;
    out.level = level;
    out.desc_pa = table + idx * 8;
    return out;
  }
  return out;
}

Status PageTableManager::unmap_page(PhysAddr root, VirtAddr va,
                                    PhysAddr* old_pa) {
  const SwWalk w = walk(root, va);
  if (!w.ok || w.level != 3) return Status::NotFound("pt: no 4 KiB mapping");
  if (old_pa != nullptr) *old_pa = sim::desc_out_addr(w.desc);
  const PhysAddr table = w.desc_pa & ~kPageMask;
  const auto idx = static_cast<unsigned>((w.desc_pa & kPageMask) / 8);
  if (!writer_->write_desc(table, idx, 0)) {
    return Status::Denied("pt: unmap rejected");
  }
  machine_.tlb_shootdown_va(va);
  machine_.charge_tlbi();
  return Status::Ok();
}

Status PageTableManager::split_block(const SwWalk& w) {
  const PageAttrs attrs = sim::decode_attrs(w.desc);
  const PhysAddr base = sim::desc_out_addr(w.desc);
  Result<PhysAddr> table = alloc_table_page(3);
  if (!table.ok()) return table.status();
  for (u64 i = 0; i < kPtEntries; ++i) {
    if (!writer_->write_desc(table.value(), static_cast<unsigned>(i),
                             sim::make_page_desc(base + i * kPageSize, attrs))) {
      return Status::Denied("pt: block split leaf write rejected");
    }
  }
  const PhysAddr parent = w.desc_pa & ~kPageMask;
  const auto idx = static_cast<unsigned>((w.desc_pa & kPageMask) / 8);
  if (!writer_->write_desc(parent, idx, sim::make_table_desc(table.value()))) {
    return Status::Denied("pt: block split publish rejected");
  }
  // Break-before-make for the whole section.
  machine_.tlb_shootdown_all();
  machine_.charge_tlbi();
  return Status::Ok();
}

Status PageTableManager::set_page_attrs(PhysAddr root, VirtAddr va,
                                        const PageAttrs& attrs) {
  SwWalk w = walk(root, va);
  if (!w.ok) return Status::NotFound("pt: unmapped va");
  if (w.level == 2) {
    // A 2 MiB section covers 511 neighbours that must not inherit this
    // page's new permissions (module seal would silently turn unrelated
    // slab pages read-only).  Split to 4 KiB pages first.
    if (Status s = split_block(w); !s.ok()) return s;
    w = walk(root, va);
    assert(w.ok && w.level == 3);
  }
  const u64 desc = sim::desc_with_attrs(w.desc, attrs);
  const PhysAddr table = w.desc_pa & ~kPageMask;
  const auto idx = static_cast<unsigned>((w.desc_pa & kPageMask) / 8);
  if (!writer_->write_desc(table, idx, desc)) {
    return Status::Denied("pt: attrs change rejected");
  }
  machine_.tlb_shootdown_va(va);
  machine_.charge_tlbi();
  return Status::Ok();
}

Status PageTableManager::protect_linear(PhysAddr pa, const PageAttrs& attrs) {
  return set_page_attrs(kernel_root_, phys_to_virt(pa), attrs);
}

void PageTableManager::free_user_tree(PhysAddr root, bool free_leaf_frames) {
  // Depth-first teardown.  A real kernel scans only the present VMA
  // ranges; we model that with one flat scan charge per table page rather
  // than 512 individual charged loads, then act on the valid descriptors
  // of one uncharged copy of the page.
  auto recurse = [&](auto&& self, PhysAddr table, unsigned level) -> void {
    machine_.advance(64);
    std::array<u64, kPtEntries> descs{};
    machine_.phys().read_block(table, descs.data(), kPageSize);
    for (const u64 desc : descs) {
      if (!sim::desc_valid(desc)) continue;
      if (sim::desc_is_table(desc, level)) {
        const PhysAddr next = sim::desc_out_addr(desc);
        self(self, next, level + 1);
        writer_->on_pt_page_free(next);
        pt_pages_.erase(next);
        buddy_.free_page(next);
      } else if (level == 3 && free_leaf_frames) {
        const PhysAddr frame = sim::desc_out_addr(desc);
        if (buddy_.owns(frame)) buddy_.free_page(frame);
      }
    }
  };
  recurse(recurse, root, 0);
  machine_.tlb_shootdown_all();
  machine_.charge_tlbi();
  free_user_root(root);
}

}  // namespace hn::kernel
