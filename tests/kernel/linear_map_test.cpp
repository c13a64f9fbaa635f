// The kernel linear map, built a last-level table at a time, against a
// per-page reference build kept here: one three-level walk and one leaf
// store per 4 KiB page (per 2 MiB block with sections).  Both builds
// draw their tables from identically constructed buddy allocators, so
// equal table sets at equal levels mean the same allocation order; the
// table pages must also match byte for byte.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <memory>

#include "hypernel/system.h"
#include "kernel/buddy.h"
#include "kernel/kernel.h"
#include "kernel/kpt.h"
#include "kernel/layout.h"
#include "sim/machine.h"
#include "sim/pagetable.h"

namespace hn::kernel {
namespace {

struct ReferenceMap {
  PhysAddr root = 0;
  std::map<PhysAddr, unsigned> pt_pages;  // table page -> walk level
};

ReferenceMap reference_build(sim::Machine& m, BuddyAllocator& buddy,
                             PhysAddr limit, bool use_sections) {
  ReferenceMap ref;
  auto alloc_table = [&](unsigned level) {
    const PhysAddr pa = buddy.alloc_page().value();
    m.phys().zero_range(pa, kPageSize);
    ref.pt_pages[pa] = level;
    return pa;
  };
  ref.root = alloc_table(0);
  auto map = [&](VirtAddr va, u64 desc, unsigned leaf_level) {
    PhysAddr table = ref.root;
    for (unsigned level = 0; level < leaf_level; ++level) {
      const PhysAddr slot = table + sim::va_index(va, level) * 8;
      u64 d = m.phys().read64(slot);
      if (!sim::desc_valid(d)) {
        d = sim::make_table_desc(alloc_table(level + 1));
        m.phys().write64(slot, d);
      }
      table = sim::desc_out_addr(d);
    }
    m.phys().write64(table + sim::va_index(va, leaf_level) * 8, desc);
  };
  const sim::PageAttrs text{.write = false, .exec = true};
  const sim::PageAttrs ro{.write = false, .exec = false};
  const sim::PageAttrs rw{.write = true, .exec = false};
  if (use_sections) {
    const sim::PageAttrs rwx{.write = true, .exec = true};
    for (PhysAddr pa = 0; pa < limit; pa += kSectionSize) {
      map(phys_to_virt(pa),
          sim::make_block_desc(pa, pa < kImageEnd ? rwx : rw), 2);
    }
  } else {
    for (PhysAddr pa = 0; pa < limit; pa += kPageSize) {
      const sim::PageAttrs& a = pa < kTextSize                    ? text
                                : pa < kRodataBase + kRodataSize ? ro
                                                                 : rw;
      map(phys_to_virt(pa), sim::make_page_desc(pa, a), 3);
    }
  }
  return ref;
}

u64 populated_pages(sim::Machine& m) {
  u64 n = 0;
  for (u64 i = 0; i < m.phys().page_count(); ++i) {
    n += m.phys().page_data(i) != nullptr;
  }
  return n;
}

/// Compares `kpt` (built over `buddy` into `m`) with a reference build of
/// the same limit on a twin machine and allocator.
void expect_matches_reference(sim::Machine& m, BuddyAllocator& buddy,
                              const PageTableManager& kpt, PhysAddr limit,
                              bool use_sections) {
  sim::Machine ref_machine(m.config());
  BuddyAllocator ref_buddy(buddy.base(), buddy.size());
  const ReferenceMap ref =
      reference_build(ref_machine, ref_buddy, limit, use_sections);

  EXPECT_EQ(kpt.kernel_root(), ref.root);
  EXPECT_EQ(kpt.pt_pages(), ref.pt_pages);
  EXPECT_EQ(buddy.free_pages_count(), ref_buddy.free_pages_count());
  for (const auto& [table, level] : ref.pt_pages) {
    std::array<u8, kPageSize> got{};
    std::array<u8, kPageSize> want{};
    m.phys().read_block(table, got.data(), kPageSize);
    ref_machine.phys().read_block(table, want.data(), kPageSize);
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), kPageSize))
        << "table page 0x" << std::hex << table << " (level " << std::dec
        << level << ") differs";
  }
  // Nothing but table pages was written.
  EXPECT_EQ(populated_pages(m), ref.pt_pages.size());
}

/// The leaf descriptor mapping `va` (0 when unmapped), by a physical walk.
u64 leaf_desc(sim::Machine& m, PhysAddr root, VirtAddr va) {
  PhysAddr table = root;
  for (unsigned level = 0; level < 3; ++level) {
    const u64 d = m.phys().read64(table + sim::va_index(va, level) * 8);
    if (!sim::desc_valid(d)) return 0;
    table = sim::desc_out_addr(d);
  }
  return m.phys().read64(table + sim::va_index(va, 3) * 8);
}

/// Builds the map over a fresh machine whose buddy pool ends at the page
/// below `limit`, then checks it against the reference.
void check_limit(PhysAddr limit, bool use_sections) {
  SCOPED_TRACE(testing::Message() << "limit 0x" << std::hex << limit
                                  << (use_sections ? " sections" : " pages"));
  sim::Machine m(sim::MachineConfig{});
  BuddyAllocator buddy(kBuddyPoolBase,
                       page_align_down(limit) - kBuddyPoolBase);
  PageTableManager kpt(m, buddy);
  const Result<PhysAddr> root =
      kpt.build_kernel_linear_map(limit, use_sections);
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value(), kpt.kernel_root());
  expect_matches_reference(m, buddy, kpt, limit, use_sections);
}

/// The linear limit `System::create` derives for `mode` (a native kernel
/// without the MBM keeps all of DRAM; KVM and Hypernel stop at the secure
/// base).
PhysAddr default_limit(hypernel::Mode mode) {
  hypernel::SystemConfig cfg;
  cfg.mode = mode;
  cfg.enable_mbm = mode == hypernel::Mode::kHypernel;
  auto sys = hypernel::System::create(cfg);
  EXPECT_TRUE(sys.ok());
  return sys.ok() ? sys.value()->kernel().linear_limit() : 0;
}

TEST(KernelLinearMap, MatchesPerPageBuildAtEveryModesDefaultLimit) {
  const PhysAddr native = default_limit(hypernel::Mode::kNative);
  const PhysAddr kvm = default_limit(hypernel::Mode::kKvmGuest);
  const PhysAddr hypernel = default_limit(hypernel::Mode::kHypernel);
  EXPECT_EQ(native, sim::MachineConfig{}.dram_size);
  EXPECT_LT(hypernel, native);
  for (const PhysAddr limit : {native, kvm, hypernel}) {
    check_limit(limit, /*use_sections=*/false);
  }
}

TEST(KernelLinearMap, MatchesPerSectionBuildWithSections) {
  check_limit(sim::MachineConfig{}.dram_size, /*use_sections=*/true);
  check_limit(kBuddyPoolBase + 5 * kSectionSize + 3 * kPageSize,
              /*use_sections=*/true);
}

TEST(KernelLinearMap, LimitInsideAPageMapsThatWholePage) {
  check_limit(kBuddyPoolBase + 9 * kSectionSize + 17 * kPageSize + 0x200,
              /*use_sections=*/false);
}

TEST(KernelLinearMap, ConfiguredLimitEndingMidTable) {
  // KernelConfig::linear_limit sizes the buddy pool and the linear map
  // together; boot's first step is this build.
  KernelConfig cfg;
  cfg.linear_limit = kBuddyPoolBase + 37 * kSectionSize + 45 * kPageSize;
  sim::Machine m(sim::MachineConfig{});
  Kernel kernel(m, cfg);
  ASSERT_EQ(kernel.linear_limit(), cfg.linear_limit);
  ASSERT_TRUE(
      kernel.kpt().build_kernel_linear_map(kernel.linear_limit(), false).ok());
  expect_matches_reference(m, kernel.buddy(), kernel.kpt(),
                           kernel.linear_limit(), false);

  // The last table is partly filled: the page below the limit is mapped,
  // the one at the limit is not.
  const PhysAddr root = kernel.kpt().kernel_root();
  const u64 last =
      leaf_desc(m, root, phys_to_virt(cfg.linear_limit - kPageSize));
  ASSERT_TRUE(sim::desc_valid(last));
  EXPECT_EQ(sim::desc_out_addr(last), cfg.linear_limit - kPageSize);
  EXPECT_EQ(leaf_desc(m, root, phys_to_virt(cfg.linear_limit)), 0u);
}

}  // namespace
}  // namespace hn::kernel
