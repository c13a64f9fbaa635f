// Hypersec tests: the PT-write verifier's policy rules, boot-time sealing,
// TVM trap handling (TTBR/SCTLR), the hypercall interface, the audit memo
// and the audit's table scan by runs against the per-leaf reference, and
// the MBM-driver registration/teardown paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/hvc_abi.h"
#include "common/rng.h"
#include "hypernel/system.h"
#include "hypersec/pt_verifier.h"
#include "kernel/layout.h"
#include "sim/pagetable.h"
#include "sim/sysregs.h"

namespace hn::hypersec {
namespace {

using hypernel::Mode;
using hypernel::System;
using hypernel::SystemConfig;

std::unique_ptr<System> make_system(bool mbm = false) {
  SystemConfig cfg;
  cfg.mode = Mode::kHypernel;
  cfg.enable_mbm = mbm;
  auto r = System::create(cfg);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

// ---------------- PtVerifier unit rules ----------------

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest()
      : machine_(sim::MachineConfig{}),
        verifier_(machine_, kernel::kTextBase, kernel::kTextSize,
                  kernel::kRodataBase, kernel::kRodataSize) {
    verifier_.add_pt_page(kTable3, 3);
    verifier_.add_pt_page(kTable2, 2);
    verifier_.add_pt_page(kTable0, 0);
  }
  static constexpr PhysAddr kTable3 = 0x100000;
  static constexpr PhysAddr kTable2 = 0x101000;
  static constexpr PhysAddr kTable0 = 0x102000;

  sim::Machine machine_;
  PtVerifier verifier_;
};

TEST_F(VerifierTest, RejectsWriteToNonPtPage) {
  EXPECT_EQ(verifier_.check_pt_write(0x555000, 0, 0), Verdict::kDeny);
  EXPECT_EQ(verifier_.stats().denied_not_pt_page, 1u);
}

TEST_F(VerifierTest, UnmapAlwaysAllowed) {
  EXPECT_EQ(verifier_.check_pt_write(kTable3, 5, 0), Verdict::kAllow);
}

TEST_F(VerifierTest, PlainPageMappingAllowed) {
  const u64 d = sim::make_page_desc(
      0x400000, sim::PageAttrs{.write = true, .user = true});
  EXPECT_EQ(verifier_.check_pt_write(kTable3, 0, d), Verdict::kAllow);
}

TEST_F(VerifierTest, RejectsSecureSpaceLeaf) {
  const u64 d = sim::make_page_desc(machine_.secure_base() + kPageSize,
                                    sim::PageAttrs{});
  EXPECT_EQ(verifier_.check_pt_write(kTable3, 0, d), Verdict::kDeny);
  EXPECT_EQ(verifier_.stats().denied_secure_map, 1u);
}

TEST_F(VerifierTest, RejectsSecureSpaceAsTable) {
  const u64 d = sim::make_table_desc(machine_.secure_base());
  EXPECT_EQ(verifier_.check_pt_write(kTable2, 0, d), Verdict::kDeny);
  EXPECT_EQ(verifier_.stats().denied_secure_map, 1u);
}

TEST_F(VerifierTest, RejectsWritablePlusExecutable) {
  const u64 d = sim::make_page_desc(
      0x400000, sim::PageAttrs{.write = true, .exec = true});
  EXPECT_EQ(verifier_.check_pt_write(kTable3, 0, d), Verdict::kDeny);
  EXPECT_EQ(verifier_.stats().denied_wx, 1u);
}

TEST_F(VerifierTest, RejectsWritableAliasOfPtPage) {
  const u64 d = sim::make_page_desc(kTable2, sim::PageAttrs{.write = true});
  EXPECT_EQ(verifier_.check_pt_write(kTable3, 0, d), Verdict::kDeny);
  EXPECT_EQ(verifier_.stats().denied_pt_writable, 1u);
  // A read-only alias is fine.
  const u64 ro = sim::make_page_desc(kTable2, sim::PageAttrs{});
  EXPECT_EQ(verifier_.check_pt_write(kTable3, 0, ro), Verdict::kAllow);
}

TEST_F(VerifierTest, RejectsWritableKernelText) {
  const u64 d = sim::make_page_desc(kernel::kTextBase,
                                    sim::PageAttrs{.write = true});
  EXPECT_EQ(verifier_.check_pt_write(kTable3, 0, d), Verdict::kDeny);
  const u64 rodata = sim::make_page_desc(kernel::kRodataBase,
                                         sim::PageAttrs{.write = true});
  EXPECT_EQ(verifier_.check_pt_write(kTable3, 1, rodata), Verdict::kDeny);
  EXPECT_EQ(verifier_.stats().denied_text_writable, 2u);
}

TEST_F(VerifierTest, TableDescMustTargetNextLevelTable) {
  // Table desc to an unregistered page: denied.
  EXPECT_EQ(verifier_.check_pt_write(kTable2, 0,
                                     sim::make_table_desc(0x400000)),
            Verdict::kDeny);
  // Table desc to a wrong-level table: denied.
  EXPECT_EQ(verifier_.check_pt_write(kTable2, 0, sim::make_table_desc(kTable0)),
            Verdict::kDeny);
  EXPECT_EQ(verifier_.stats().denied_bad_table, 2u);
  // Correct next level: allowed.
  EXPECT_EQ(verifier_.check_pt_write(kTable2, 0, sim::make_table_desc(kTable3)),
            Verdict::kAllow);
}

TEST_F(VerifierTest, RejectsHugeBlocksAtHighLevels) {
  const u64 block = sim::make_block_desc(0x40000000, sim::PageAttrs{});
  EXPECT_EQ(verifier_.check_pt_write(kTable0, 0, block), Verdict::kDeny);
  EXPECT_EQ(verifier_.stats().denied_bad_encoding, 1u);
}

TEST_F(VerifierTest, SealedKernelTreeImmutable) {
  verifier_.mark_kernel_tree(kTable3);
  const u64 d = sim::make_page_desc(0x400000, sim::PageAttrs{});
  EXPECT_EQ(verifier_.check_pt_write(kTable3, 0, d), Verdict::kDeny);
  EXPECT_EQ(verifier_.stats().denied_kernel_tree, 1u);
}

TEST_F(VerifierTest, WritableBlockCoveringPtPageDenied) {
  // A 2 MiB writable block whose span contains a PT page is an alias.
  verifier_.add_pt_page(0x600000 + 5 * kPageSize, 3);
  const u64 d = sim::make_block_desc(0x600000, sim::PageAttrs{.write = true});
  EXPECT_EQ(verifier_.check_pt_write(kTable2, 0, d), Verdict::kDeny);
}

TEST_F(VerifierTest, RestoreRejectsTablePageOutsideDram) {
  sim::SnapWriter w;
  verifier_.save_state(w);
  // Layout: kernel root, table-page count, then (page, level) pairs in
  // ascending page order; the first pair holds kTable3.
  constexpr size_t kFirstPage = 16;
  const PhysAddr bad_pages[] = {machine_.phys().size(), kTable3 + kWordSize};
  for (const PhysAddr bad : bad_pages) {
    std::vector<u8> blob = w.data();
    for (size_t i = 0; i < 8; ++i) {
      blob[kFirstPage + i] = static_cast<u8>(bad >> (8 * i));
    }
    sim::Machine other(sim::MachineConfig{});
    PtVerifier restored(other, kernel::kTextBase, kernel::kTextSize,
                        kernel::kRodataBase, kernel::kRodataSize);
    sim::SnapReader r(blob);
    restored.restore_state(r);
    EXPECT_FALSE(r.ok()) << std::hex << bad;
    EXPECT_NE(r.status().message().find("table page outside DRAM"),
              std::string::npos);
    EXPECT_EQ(restored.pt_page_count(), 0u);
  }
}

// ---------------- Hypersec end-to-end ----------------

TEST(Hypersec, InitRequiresPageGranularKernel) {
  SystemConfig cfg;
  cfg.mode = Mode::kHypernel;
  cfg.kernel.use_sections = true;  // §6.2's granularity gap
  auto r = System::create(cfg);
  EXPECT_FALSE(r.ok());
}

TEST(Hypersec, PtPagesReadOnlyAfterInit) {
  auto sys = make_system();
  kernel::Kernel& k = sys->kernel();
  // Every registered PT page rejects direct EL1 stores.
  int checked = 0;
  for (const auto& [pa, level] : k.kpt().pt_pages()) {
    EXPECT_FALSE(sys->machine().write64(kernel::phys_to_virt(pa), 0xBAD).ok);
    if (++checked == 16) break;  // spot check
  }
  EXPECT_GT(checked, 0);
}

TEST(Hypersec, KernelOperationsStillWorkViaHypercalls) {
  auto sys = make_system();
  kernel::Kernel& k = sys->kernel();
  const u64 hvc_before = sys->machine().counters().hvc_calls;
  Result<u32> pid = k.sys_fork();
  ASSERT_TRUE(pid.ok());
  EXPECT_GT(sys->machine().counters().hvc_calls, hvc_before);
  kernel::Task* child = k.procs().find(pid.value());
  k.procs().switch_to(*child);
  ASSERT_TRUE(k.sys_exit().ok());
  EXPECT_GT(sys->hypersec()->stats().pt_write_calls, 0u);
  EXPECT_EQ(sys->hypersec()->stats().pt_write_denials, 0u);
}

TEST(Hypersec, ForgedPtWriteHypercallDenied) {
  auto sys = make_system();
  // Attacker-crafted hypercall: write a descriptor into a non-PT page.
  EXPECT_EQ(sys->machine().hvc(hvc::kPtWrite, {0x500000, 0, 0x1234}),
            hvc::kDenied);
  // And into a sealed kernel-tree table.
  const PhysAddr kroot = sys->kernel().kpt().kernel_root();
  EXPECT_EQ(sys->machine().hvc(
                hvc::kPtWrite,
                {kroot, 0, sim::make_table_desc(0x400000)}),
            hvc::kDenied);
  EXPECT_GE(sys->hypersec()->verifier().stats().denied_total(), 2u);
}

TEST(Hypersec, MappingSecureSpaceDenied) {
  auto sys = make_system();
  kernel::Kernel& k = sys->kernel();
  // Build a legitimate user tree, then try to splice in a secure mapping.
  Result<PhysAddr> root = k.kpt().alloc_user_root();
  ASSERT_TRUE(root.ok());
  const Status s = k.kpt().map_page(
      root.value(), 0x400000, sys->machine().secure_base(),
      sim::PageAttrs{.write = true, .user = true});
  EXPECT_FALSE(s.ok());
}

TEST(Hypersec, PtAllocRejectsNonZeroedPage) {
  auto sys = make_system();
  Result<PhysAddr> page = sys->kernel().buddy().alloc_page();
  ASSERT_TRUE(page.ok());
  sys->machine().phys().write64(page.value() + 64, 0xDEAD);  // pre-seeded
  EXPECT_EQ(sys->machine().hvc(hvc::kPtAlloc, {page.value(), 3}),
            hvc::kDenied);
}

TEST(Hypersec, PtAllocRejectsSecurePage) {
  auto sys = make_system();
  EXPECT_EQ(sys->machine().hvc(
                hvc::kPtAlloc, {sys->machine().secure_base(), 3}),
            hvc::kDenied);
}

TEST(Hypersec, PtAllocRejectsFrameOutsideDram) {
  // A forged frame past the end of DRAM is no frame at all: it must be
  // refused before the zero check reads it.
  auto sys = make_system();
  sim::Machine& m = sys->machine();
  const u64 dram = m.phys().size();
  EXPECT_EQ(m.hvc(hvc::kPtAlloc, {dram, 3}), hvc::kBadArgs);
  EXPECT_EQ(m.hvc(hvc::kPtAlloc, {dram + 64 * kPageSize, 0}), hvc::kBadArgs);
  EXPECT_EQ(m.hvc(hvc::kPtAlloc, {~kPageMask, 1}), hvc::kBadArgs);
  EXPECT_EQ(sys->hypersec()->stats().pt_allocs, 0u);
  EXPECT_TRUE(sys->hypersec()->audit().empty());
}

TEST(Hypersec, PtRegisterRootRequiresATopLevelTable) {
  // §5.2.2: TTBR0 may only name a root Hypersec vets.  A kernel-owned
  // frame that is no page table must not become one by hypercall.
  auto sys = make_system();
  sim::Machine& m = sys->machine();
  kernel::Kernel& k = sys->kernel();
  Result<PhysAddr> frame = k.buddy().alloc_page();
  ASSERT_TRUE(frame.ok());
  const PhysAddr forged = frame.value();
  ASSERT_EQ(sys->hypersec()->verifier().pt_level(forged), -1);
  EXPECT_FALSE(m.write_sysreg_el1(sim::SysReg::TTBR0_EL1, forged));
  EXPECT_EQ(m.hvc(hvc::kPtRegisterRoot, {forged}), hvc::kDenied);
  EXPECT_FALSE(m.write_sysreg_el1(sim::SysReg::TTBR0_EL1, forged));

  // A table below the top level, and an address inside a root's page,
  // are refused too.
  const PhysAddr root = k.procs().current().ttbr0;
  PhysAddr lower = 0;
  for (u64 idx = 0; idx < kPtEntries && lower == 0; ++idx) {
    const u64 d = m.phys().read64(root + idx * kWordSize);
    if (sim::desc_is_table(d, 0)) lower = sim::desc_out_addr(d);
  }
  ASSERT_NE(lower, 0u);
  ASSERT_EQ(sys->hypersec()->verifier().pt_level(lower), 1);
  EXPECT_EQ(m.hvc(hvc::kPtRegisterRoot, {lower}), hvc::kDenied);
  EXPECT_EQ(m.hvc(hvc::kPtRegisterRoot, {root + kWordSize}), hvc::kDenied);

  // The kernel's own path still works: a fresh root goes through kPtAlloc
  // at level 0, then registers.
  const u64 registrations = sys->hypersec()->stats().root_registrations;
  Result<PhysAddr> fresh = k.kpt().alloc_user_root();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(sys->hypersec()->stats().root_registrations, registrations + 1);
  EXPECT_TRUE(sys->hypersec()->verifier().is_user_root(fresh.value()));
  EXPECT_TRUE(m.write_sysreg_el1(sim::SysReg::TTBR0_EL1, fresh.value()));
  EXPECT_TRUE(m.write_sysreg_el1(sim::SysReg::TTBR0_EL1, root));
  EXPECT_TRUE(sys->hypersec()->audit().empty());
}

TEST(Hypersec, TtbrTrapValidatesRoots) {
  auto sys = make_system();
  sim::Machine& m = sys->machine();
  const u64 good_ttbr1 = m.sysreg(sim::SysReg::TTBR1_EL1);

  // Rewriting TTBR1 with the registered kernel root: allowed.
  EXPECT_TRUE(m.write_sysreg_el1(sim::SysReg::TTBR1_EL1, good_ttbr1));
  // Pointing it anywhere else: denied (the ATRA-style redirect).
  EXPECT_FALSE(m.write_sysreg_el1(sim::SysReg::TTBR1_EL1, 0x500000));
  EXPECT_EQ(m.sysreg(sim::SysReg::TTBR1_EL1), good_ttbr1);

  // TTBR0 must name a registered user root.
  EXPECT_FALSE(m.write_sysreg_el1(sim::SysReg::TTBR0_EL1, 0x600000));
  const PhysAddr user_root = sys->kernel().procs().current().ttbr0;
  EXPECT_TRUE(m.write_sysreg_el1(
      sim::SysReg::TTBR0_EL1, user_root | (u64{1} << 48)));
  EXPECT_GT(sys->hypersec()->stats().trap_denials, 0u);
}

TEST(Hypersec, MmuDisableDenied) {
  auto sys = make_system();
  sim::Machine& m = sys->machine();
  EXPECT_FALSE(m.write_sysreg_el1(sim::SysReg::SCTLR_EL1, 0));  // M bit clear
  EXPECT_TRUE(m.write_sysreg_el1(sim::SysReg::SCTLR_EL1, 1));
}

TEST(Hypersec, PtFreeRestoresWritability) {
  auto sys = make_system();
  kernel::Kernel& k = sys->kernel();
  Result<PhysAddr> root = k.kpt().alloc_user_root();
  ASSERT_TRUE(root.ok());
  const VirtAddr va = kernel::phys_to_virt(root.value());
  EXPECT_FALSE(sys->machine().write64(va, 1).ok);  // RO while registered
  k.kpt().free_user_root(root.value());
  EXPECT_TRUE(sys->machine().write64(va, 1).ok);  // plain memory again
}

// ---------------- audit memoization ----------------

/// The memoized audit (host fast path) must equal the reference walk: same
/// codes, same details, same order.  The fast-path call runs first, so it
/// is served from whatever the memo kept since the previous step.
void expect_audit_matches_reference(System& sys, const char* step) {
  SCOPED_TRACE(step);
  sim::Machine& m = sys.machine();
  ASSERT_TRUE(m.host_fast_path());
  const std::vector<AuditFinding> fast = sys.hypersec()->audit_report();
  m.set_host_fast_path(false);
  const std::vector<AuditFinding> ref = sys.hypersec()->audit_report();
  m.set_host_fast_path(true);
  ASSERT_EQ(fast.size(), ref.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].code, ref[i].code) << "finding " << i;
    EXPECT_EQ(fast[i].detail, ref[i].detail) << "finding " << i;
  }
}

/// is_pt_page() answers from the page-watch bit; it must agree with the
/// inventory on every frame and say no past the end of DRAM.
void expect_membership_matches_inventory(System& sys, const char* step) {
  SCOPED_TRACE(step);
  const PtVerifier& v = sys.hypersec()->verifier();
  const u64 dram = sys.machine().phys().size();
  u64 mismatches = 0;
  for (PhysAddr pa = 0; pa < dram; pa += kPageSize) {
    const bool registered = v.pt_pages().contains(pa);
    mismatches += v.is_pt_page(pa) != registered;
    mismatches += v.is_pt_page(pa + kPageSize - 8) != registered;
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_FALSE(v.is_pt_page(dram));
  EXPECT_FALSE(v.is_pt_page(dram + 7 * kPageSize + 8));
  EXPECT_FALSE(v.is_pt_page(~PhysAddr{0}));
}

bool has_pt_alias(const std::vector<AuditFinding>& report) {
  return std::any_of(report.begin(), report.end(), [](const AuditFinding& f) {
    return f.code == AuditCode::kPtWritableAlias;
  });
}

TEST(AuditMemo, MatchesReferenceWalkUnderPtChurn) {
  auto sys = make_system();
  kernel::Kernel& k = sys->kernel();
  const u32 init_pid = k.procs().current().pid;
  expect_audit_matches_reference(*sys, "boot");

  // Legitimate churn that allocates, rewrites and frees PT pages.
  Result<u32> pid = k.sys_fork();
  ASSERT_TRUE(pid.ok());
  expect_audit_matches_reference(*sys, "fork");
  k.procs().switch_to(*k.procs().find(pid.value()));
  ASSERT_TRUE(k.sys_execve().ok());
  expect_audit_matches_reference(*sys, "execve");
  Result<VirtAddr> va = k.sys_mmap(1024 * kPageSize, true);
  ASSERT_TRUE(va.ok());
  for (u64 i = 0; i < 1024; i += 64) {
    ASSERT_TRUE(k.procs().touch_page(va.value() + i * kPageSize, true).ok());
  }
  expect_audit_matches_reference(*sys, "mmap + touch");
  ASSERT_TRUE(k.sys_munmap(va.value(), 1024 * kPageSize).ok());
  expect_audit_matches_reference(*sys, "munmap");
  ASSERT_TRUE(k.sys_exit().ok());
  k.procs().switch_to(*k.procs().find(init_pid));
  expect_audit_matches_reference(*sys, "exit");
  expect_membership_matches_inventory(*sys, "after churn");

  // Raw physical writes plant leaves in a live user L3 table: the
  // hardware-vector remap no hypercall ever sees.
  Result<VirtAddr> own = k.sys_mmap(kPageSize, true);
  ASSERT_TRUE(own.ok());
  ASSERT_TRUE(k.procs().touch_page(own.value(), true).ok());
  const kernel::PageTableManager::SwWalk w =
      k.kpt().walk(k.procs().current().ttbr0, own.value());
  ASSERT_TRUE(w.ok);
  ASSERT_EQ(w.level, 3u);
  const PhysAddr table = page_align_down(w.desc_pa);
  ASSERT_TRUE(sys->hypersec()->verifier().is_pt_page(table));
  sim::PhysicalMemory& phys = sys->machine().phys();
  auto free_slot = [&] {
    PhysAddr slot = table;
    while (slot < table + kPageSize && phys.read64(slot) != 0) {
      slot += kWordSize;
    }
    return slot;
  };

  // First a writable leaf onto a free zeroed frame, which then joins and
  // leaves the inventory: the table's bytes stay put, its findings do not.
  Result<PhysAddr> frame = k.buddy().alloc_page();
  ASSERT_TRUE(frame.ok());
  phys.zero_range(frame.value(), kPageSize);
  const PhysAddr frame_slot = free_slot();
  ASSERT_LT(frame_slot, table + kPageSize);
  const u64 frame_leaf =
      sim::make_page_desc(frame.value(), sim::PageAttrs{.write = true});
  phys.write64(frame_slot, frame_leaf);
  expect_audit_matches_reference(*sys, "leaf onto a plain frame");
  ASSERT_EQ(sys->machine().hvc(hvc::kPtAlloc, {frame.value(), 3}), hvc::kOk);
  expect_audit_matches_reference(*sys, "frame became a PT page");
  EXPECT_TRUE(has_pt_alias(sys->hypersec()->audit_report()));
  ASSERT_EQ(sys->machine().hvc(hvc::kPtFree, {frame.value()}), hvc::kOk);
  expect_audit_matches_reference(*sys, "frame left the inventory");
  EXPECT_FALSE(has_pt_alias(sys->hypersec()->audit_report()));
  phys.write64(frame_slot, 0);

  // Then a writable alias of the table inside itself (the PT-remap attack).
  const PhysAddr slot = free_slot();
  ASSERT_LT(slot, table + kPageSize);
  const u64 self_alias =
      sim::make_page_desc(table, sim::PageAttrs{.write = true});
  phys.write64(slot, self_alias);
  expect_audit_matches_reference(*sys, "planted alias");
  EXPECT_TRUE(has_pt_alias(sys->hypersec()->audit_report()));

  // Snapshot, churn past it (the memo fills with post-snapshot tables),
  // then restore mid-sequence.
  const std::vector<u8> snap = sys->save_state();
  Result<u32> second = k.sys_fork();
  ASSERT_TRUE(second.ok());
  k.procs().switch_to(*k.procs().find(second.value()));
  Result<VirtAddr> more = k.sys_mmap(64 * kPageSize, true);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(k.procs().touch_page(more.value(), true).ok());
  expect_audit_matches_reference(*sys, "after snapshot");
  ASSERT_TRUE(sys->restore_state(snap).ok());
  expect_audit_matches_reference(*sys, "restored");
  expect_membership_matches_inventory(*sys, "restored");
  EXPECT_TRUE(has_pt_alias(sys->hypersec()->audit_report()));

  // Removing the planted leaf clears the finding in both modes.
  phys.write64(slot, 0);
  expect_audit_matches_reference(*sys, "alias removed");
  EXPECT_FALSE(has_pt_alias(sys->hypersec()->audit_report()));
}

TEST(AuditMemo, SelfReferencingTableMatchesReferenceWalk) {
  // A raw write makes a live user L1 table point at itself, so one walk
  // reaches the same table page at levels 1, 2 and 3.  The memo entry
  // being replayed for one level must not be replaced under it by the
  // scan for another.
  auto sys = make_system();
  kernel::Kernel& k = sys->kernel();
  Result<VirtAddr> va = k.sys_mmap(kPageSize, true);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(k.procs().touch_page(va.value(), true).ok());
  sim::PhysicalMemory& phys = sys->machine().phys();
  const PhysAddr root = k.procs().current().ttbr0;
  const u64 l0 = phys.read64(root + sim::va_index(va.value(), 0) * kWordSize);
  ASSERT_TRUE(sim::desc_is_table(l0, 0));
  const PhysAddr l1 = sim::desc_out_addr(l0);
  ASSERT_EQ(sys->hypersec()->verifier().pt_level(l1), 1);
  expect_audit_matches_reference(*sys, "before");

  // The self-reference goes in the first free slot, followed by a second
  // reference to the live L2 table, so replay continues past it.
  const u64 live = phys.read64(l1 + sim::va_index(va.value(), 1) * kWordSize);
  ASSERT_TRUE(sim::desc_is_table(live, 1));
  PhysAddr slot = l1;
  while (slot < l1 + kPageSize - kWordSize && phys.read64(slot) != 0) {
    slot += kWordSize;
  }
  ASSERT_EQ(phys.read64(slot + kWordSize), 0u);
  phys.write64(slot, sim::make_table_desc(l1));
  phys.write64(slot + kWordSize, live);
  expect_audit_matches_reference(*sys, "self-referencing L1");
  expect_audit_matches_reference(*sys, "served from the memo");
}

TEST(AuditMemo, AliasCreatedByInventoryChangeAlone) {
  auto sys = make_system();
  kernel::Kernel& k = sys->kernel();
  sim::Machine& m = sys->machine();
  Hypersec& hs = *sys->hypersec();

  // A user page, mapped writable.
  Result<VirtAddr> va = k.sys_mmap(kPageSize, true);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(k.procs().touch_page(va.value(), true).ok());
  const kernel::PageTableManager::SwWalk w =
      k.kpt().walk(k.procs().current().ttbr0, va.value());
  ASSERT_TRUE(w.ok);
  ASSERT_TRUE(sim::decode_attrs(w.desc).write);
  const PhysAddr frame = sim::desc_out_addr(w.desc);

  // Clean, and the user L3 table holding that leaf is now memoized.
  EXPECT_TRUE(hs.audit().empty());

  // Known verifier gap: kPtAlloc checks only that the frame is zeroed, not
  // that nothing maps it writable, so a frame with a live writable user
  // alias is accepted as a table page.  Closing it needs a reverse map of
  // writable mappings.  No table byte changes here: only the inventory.
  ASSERT_EQ(m.hvc(hvc::kPtAlloc, {frame, 3}), hvc::kOk);
  const std::vector<std::string> alias(
      1, "[pt-writable-alias] user tree: writable alias of a PT page");
  // Fast path first, with the clean entry still in the memo.
  EXPECT_EQ(hs.audit(), alias);
  m.set_host_fast_path(false);
  EXPECT_EQ(hs.audit(), alias);

  // Leave the inventory with the fast path off: flipping it back on must
  // not serve the finding from the memo.
  ASSERT_EQ(m.hvc(hvc::kPtFree, {frame}), hvc::kOk);
  EXPECT_TRUE(hs.audit().empty());
  m.set_host_fast_path(true);
  EXPECT_TRUE(hs.audit().empty());
}

// ---------------- the audit's table scan ----------------

constexpr u64 kScanDram = 64ull * 1024 * 1024;
constexpr PhysAddr kScanSecureBase = 48ull * 1024 * 1024;
constexpr u64 kScanSecureSize = kScanDram - kScanSecureBase;
constexpr PhysAddr kScanTable = 0x10'0000;

/// The per-leaf scan scan_audit_table replaced, as the reference model:
/// every descriptor read on its own, every leaf checked on its own, a
/// page-by-page PT test over a writable leaf's span.
AuditTableScan reference_scan(const sim::PhysicalMemory& phys, PhysAddr table,
                              unsigned level) {
  AuditTableScan scan;
  for (u64 idx = 0; idx < kPtEntries; ++idx) {
    const u64 desc = phys.read64(table + idx * 8);
    if (!sim::desc_valid(desc)) continue;
    if (sim::desc_is_table(desc, level)) {
      scan.items.push_back(AuditScanItem{.is_child = true,
                                         .child = sim::desc_out_addr(desc)});
      continue;
    }
    const bool leaf = (level == 3 && bit(desc, sim::kDescTable)) ||
                      sim::desc_is_block(desc, level);
    if (!leaf) continue;
    const PhysAddr out = sim::desc_out_addr(desc);
    const u64 span = sim::level_span(level);
    const sim::PageAttrs attrs = sim::decode_attrs(desc);
    if (ranges_overlap(out, span, kScanSecureBase, kScanSecureSize)) {
      scan.items.push_back(
          AuditScanItem{.code = AuditCode::kSecureMapped,
                        .detail = ": mapping reaches the secure space"});
    }
    if (attrs.write && attrs.exec) {
      scan.items.push_back(
          AuditScanItem{.code = AuditCode::kWxViolation,
                        .detail = ": writable+executable mapping"});
    }
    if (attrs.write) {
      scan.reach_lo = std::min(scan.reach_lo, out);
      scan.reach_hi = std::max(scan.reach_hi, out + span);
      for (PhysAddr p = out; p < out + span; p += kPageSize) {
        const u64 index = p >> kPageShift;
        if (index < phys.page_count() && phys.page_watched(index)) {
          scan.items.push_back(
              AuditScanItem{.code = AuditCode::kPtWritableAlias,
                            .detail = ": writable alias of a PT page"});
          break;
        }
      }
    }
  }
  return scan;
}

/// Run both scans of the table at `table`; they must agree item for item
/// and on the writable reach.  Returns the reference scan.
AuditTableScan expect_scan_matches_reference(const sim::PhysicalMemory& phys,
                                             PhysAddr table, unsigned level) {
  AuditTableScan runs;
  scan_audit_table(phys, kScanSecureBase, kScanSecureSize, table, level, runs);
  AuditTableScan ref = reference_scan(phys, table, level);
  EXPECT_EQ(runs.reach_lo, ref.reach_lo);
  EXPECT_EQ(runs.reach_hi, ref.reach_hi);
  EXPECT_EQ(runs.items.size(), ref.items.size());
  for (size_t i = 0; i < std::min(runs.items.size(), ref.items.size()); ++i) {
    const AuditScanItem& a = runs.items[i];
    const AuditScanItem& b = ref.items[i];
    EXPECT_EQ(a.is_child, b.is_child) << "item " << i;
    EXPECT_EQ(a.child, b.child) << "item " << i;
    if (!a.is_child && !b.is_child) {
      EXPECT_EQ(a.code, b.code) << "item " << i;
      EXPECT_STREQ(a.detail, b.detail) << "item " << i;
    }
  }
  return ref;
}

size_t count_code(const AuditTableScan& scan, AuditCode code) {
  return static_cast<size_t>(
      std::count_if(scan.items.begin(), scan.items.end(),
                    [code](const AuditScanItem& it) {
                      return !it.is_child && it.code == code;
                    }));
}

/// A table holding `leaves` from index `first`, written raw.
void put_leaves(sim::PhysicalMemory& phys, PhysAddr table, u64 first,
                const std::vector<u64>& leaves) {
  for (u64 i = 0; i < leaves.size(); ++i) {
    phys.write64(table + (first + i) * kWordSize, leaves[i]);
  }
}

/// `n` leaves from `desc` on, the output advancing one span each.
std::vector<u64> run_of(u64 desc, u64 n, unsigned level) {
  std::vector<u64> out;
  for (u64 i = 0; i < n; ++i) out.push_back(desc + i * sim::level_span(level));
  return out;
}

TEST(AuditScan, RunBrokenByAnAttributeBit) {
  sim::PhysicalMemory phys(kScanDram);
  const sim::PageAttrs rw{.write = true};
  std::vector<u64> leaves = run_of(sim::make_page_desc(0x20'0000, rw), 8, 3);
  leaves[3] = sim::desc_with_attrs(leaves[3], {.write = true, .exec = true});
  leaves[5] = with_bit(leaves[5], sim::kDescNonGlobal, true);
  put_leaves(phys, kScanTable, 4, leaves);
  const AuditTableScan ref = expect_scan_matches_reference(phys, kScanTable, 3);
  EXPECT_EQ(count_code(ref, AuditCode::kWxViolation), 1u);
  EXPECT_EQ(ref.reach_lo, 0x20'0000u);
  EXPECT_EQ(ref.reach_hi, 0x20'0000u + 8 * kPageSize);
}

TEST(AuditScan, RunBrokenByAnOutputGap) {
  // The skipped frame is a PT page: a run merged across the gap would
  // report an alias that no leaf maps.
  sim::PhysicalMemory phys(kScanDram);
  const u64 first = sim::make_page_desc(0x30'0000, {.write = true});
  std::vector<u64> leaves = run_of(first, 4, 3);
  for (const u64 d : run_of(first + 5 * kPageSize, 4, 3)) leaves.push_back(d);
  put_leaves(phys, kScanTable, 0, leaves);
  phys.watch_page((0x30'0000 >> kPageShift) + 4);
  const AuditTableScan ref = expect_scan_matches_reference(phys, kScanTable, 3);
  EXPECT_EQ(count_code(ref, AuditCode::kPtWritableAlias), 0u);
}

TEST(AuditScan, RunBrokenByAnOutputCarryPastBit47) {
  // Consecutive descriptors whose output carries out of bits 47:12: the
  // third leaf maps frame 0 (a PT page) with bit 48 set.
  sim::PhysicalMemory phys(kScanDram);
  const PhysAddr top = (PhysAddr{1} << 48) - 2 * kPageSize;
  put_leaves(phys, kScanTable, 10,
             run_of(sim::make_page_desc(top, {.write = true}), 4, 3));
  phys.watch_page(0);
  const AuditTableScan ref = expect_scan_matches_reference(phys, kScanTable, 3);
  EXPECT_EQ(count_code(ref, AuditCode::kPtWritableAlias), 1u);
  EXPECT_EQ(ref.reach_lo, 0u);
  EXPECT_EQ(ref.reach_hi, PhysAddr{1} << 48);
}

TEST(AuditScan, SecureOverlapsWxLeavesAndPlantedPtPages) {
  sim::PhysicalMemory phys(kScanDram);
  // Three leaves before the secure base and three inside it.
  put_leaves(phys, kScanTable, 0,
             run_of(sim::make_page_desc(kScanSecureBase - 3 * kPageSize, {}),
                    6, 3));
  // Five writable+executable leaves.
  put_leaves(phys, kScanTable, 20,
             run_of(sim::make_page_desc(0x40'0000, {.write = true, .exec = true}),
                    5, 3));
  // Sixteen writable leaves over two planted PT pages.
  put_leaves(phys, kScanTable, 40,
             run_of(sim::make_page_desc(0x50'0000, {.write = true}), 16, 3));
  phys.watch_page((0x50'0000 >> kPageShift) + 2);
  phys.watch_page((0x50'0000 >> kPageShift) + 9);
  // A read-only run over a PT page is no alias.
  put_leaves(phys, kScanTable, 60,
             run_of(sim::make_page_desc(0x50'0000, {}), 16, 3));
  const AuditTableScan ref = expect_scan_matches_reference(phys, kScanTable, 3);
  EXPECT_EQ(count_code(ref, AuditCode::kSecureMapped), 3u);
  EXPECT_EQ(count_code(ref, AuditCode::kWxViolation), 5u);
  EXPECT_EQ(count_code(ref, AuditCode::kPtWritableAlias), 2u);
}

TEST(AuditScan, TwoMibAndOneGibBlocks) {
  sim::PhysicalMemory phys(kScanDram);
  // Level 2: three writable 2 MiB blocks, a PT page inside the middle one.
  put_leaves(phys, kScanTable, 7,
             run_of(sim::make_block_desc(0x40'0000, {.write = true}), 3, 2));
  phys.watch_page((0x60'0000 >> kPageShift) + 17);
  AuditTableScan ref = expect_scan_matches_reference(phys, kScanTable, 2);
  EXPECT_EQ(count_code(ref, AuditCode::kPtWritableAlias), 1u);
  // Level 1: a block encoding is no leaf there, so the run yields nothing.
  const PhysAddr l1 = kScanTable + kPageSize;
  put_leaves(phys, l1, 0,
             run_of(sim::make_block_desc(0, {.write = true, .exec = true}), 4, 1));
  phys.write64(l1 + 100 * kWordSize, sim::make_table_desc(kScanTable));
  ref = expect_scan_matches_reference(phys, l1, 1);
  ASSERT_EQ(ref.items.size(), 1u);
  EXPECT_TRUE(ref.items[0].is_child);
}

TEST(AuditScan, AllZeroPageAndUnalignedTable) {
  sim::PhysicalMemory phys(kScanDram);
  AuditTableScan ref = expect_scan_matches_reference(phys, kScanTable, 3);
  EXPECT_TRUE(ref.items.empty());
  EXPECT_GT(ref.reach_lo, ref.reach_hi);
  // A table that starts mid-page runs into the next page; its run
  // crosses the boundary.
  const PhysAddr table = kScanTable + 3 * kPageSize + 24;
  put_leaves(phys, page_align_down(table), 500,
             run_of(sim::make_page_desc(0x70'0000, {.write = true}), 20, 3));
  phys.watch_page((0x70'0000 >> kPageShift) + 10);
  ref = expect_scan_matches_reference(phys, table, 3);
  EXPECT_EQ(count_code(ref, AuditCode::kPtWritableAlias), 1u);
}

TEST(AuditScan, SeededTablesMatchThePerLeafReference) {
  // Random tables at levels 1-3: runs of leaves broken by attribute
  // bits, output gaps and carries, child descriptors, garbage words, and
  // planted PT pages; one table in eight starts mid-page.
  SplitMix64 rng(0x5CA9);
  const unsigned attr_bits[] = {2, 3, 4, 6, 7, 11, 52, 53, 54, 60};
  for (int iter = 0; iter < 600; ++iter) {
    SCOPED_TRACE(iter);
    const auto level = static_cast<unsigned>(1 + iter % 3);
    const u64 span = sim::level_span(level);
    sim::PhysicalMemory phys(kScanDram);
    for (int i = 0; i < 24; ++i) phys.watch_page(rng.next_below(2048));
    const PhysAddr table =
        kScanTable + (rng.chance(1, 8) ? 8 * rng.next_in(1, 511) : 0);
    u64 idx = 0;
    while (idx < kPtEntries) {
      const PhysAddr slot = table + idx * kWordSize;
      switch (rng.next_below(6)) {
        case 0:  // zero descriptors
          idx += rng.next_below(24);
          break;
        case 1:
          phys.write64(slot, sim::make_table_desc(rng.next_below(2048)
                                                  << kPageShift));
          ++idx;
          break;
        case 2:
          phys.write64(slot, rng.next());
          ++idx;
          break;
        default: {  // a run of leaves
          PhysAddr out = 0;
          switch (rng.next_below(4)) {
            case 0: out = rng.next_below(2048) << kPageShift; break;
            case 1: out = kScanSecureBase - rng.next_below(8) * span; break;
            case 2: out = (PhysAddr{1} << 48) - rng.next_in(1, 8) * span; break;
            default: out = rng.next_below(kScanDram >> kPageShift) << kPageShift;
          }
          const sim::PageAttrs attrs{.write = rng.chance(3, 4),
                                     .exec = rng.chance(1, 4),
                                     .user = rng.chance(1, 2),
                                     .global = rng.chance(1, 2)};
          u64 desc = level == 3 ? sim::make_page_desc(out, attrs)
                                : sim::make_block_desc(out, attrs);
          const u64 n = rng.next_in(1, 64);
          for (u64 k = 0; k < n && idx < kPtEntries; ++k, ++idx) {
            phys.write64(table + idx * kWordSize, desc);
            desc += span;
            if (rng.chance(1, 24)) desc ^= u64{1} << attr_bits[rng.next_below(10)];
            if (rng.chance(1, 24)) desc += span * rng.next_in(1, 3);
          }
        }
      }
    }
    expect_scan_matches_reference(phys, table, level);
    if (HasFailure()) break;
  }
}

// ---------------- MBM driver ----------------

class DriverTest : public ::testing::Test {
 protected:
  DriverTest() : sys_(make_system(/*mbm=*/true)) {}
  std::unique_ptr<System> sys_;
};

TEST_F(DriverTest, RegisterMakesPageNonCacheable) {
  kernel::Kernel& k = sys_->kernel();
  Result<PhysAddr> frame = k.buddy().alloc_page();
  ASSERT_TRUE(frame.ok());
  const VirtAddr va = kernel::phys_to_virt(frame.value());
  MbmDriver* driver = sys_->hypersec()->mbm_driver();
  ASSERT_NE(driver, nullptr);

  ASSERT_TRUE(driver->register_region(1, va, 64).ok());
  const MbmDriver::El2Walk w = driver->el2_walk(va);
  ASSERT_TRUE(w.ok);
  EXPECT_EQ(sim::decode_attrs(w.desc).attr, sim::MemAttr::kNonCacheable);
  EXPECT_EQ(driver->noncacheable_pages(), 1u);

  ASSERT_TRUE(driver->unregister_region(1, va, 64).ok());
  const MbmDriver::El2Walk w2 = driver->el2_walk(va);
  EXPECT_EQ(sim::decode_attrs(w2.desc).attr, sim::MemAttr::kNormalCacheable);
  EXPECT_EQ(driver->noncacheable_pages(), 0u);
}

TEST_F(DriverTest, NcRefcountAcrossRegionsOnSamePage) {
  kernel::Kernel& k = sys_->kernel();
  Result<PhysAddr> frame = k.buddy().alloc_page();
  ASSERT_TRUE(frame.ok());
  const VirtAddr va = kernel::phys_to_virt(frame.value());
  MbmDriver* driver = sys_->hypersec()->mbm_driver();
  ASSERT_TRUE(driver->register_region(1, va, 64).ok());
  ASSERT_TRUE(driver->register_region(1, va + 128, 64).ok());
  EXPECT_EQ(driver->noncacheable_pages(), 1u);
  ASSERT_TRUE(driver->unregister_region(1, va, 64).ok());
  // Still one monitored region on the page: stays non-cacheable.
  const MbmDriver::El2Walk w = driver->el2_walk(va);
  EXPECT_EQ(sim::decode_attrs(w.desc).attr, sim::MemAttr::kNonCacheable);
  ASSERT_TRUE(driver->unregister_region(1, va + 128, 64).ok());
  EXPECT_EQ(driver->noncacheable_pages(), 0u);
}

TEST_F(DriverTest, RejectsMisalignedOrUnmappedRegions) {
  MbmDriver* driver = sys_->hypersec()->mbm_driver();
  EXPECT_FALSE(driver->register_region(1, kKernelVaBase + 0x1003, 64).ok());
  EXPECT_FALSE(driver->register_region(1, kKernelVaBase + 0x1000, 63).ok());
  // VA far outside the linear map.
  EXPECT_FALSE(
      driver->register_region(1, kKernelVaBase + (u64{1} << 40), 64).ok());
}

TEST_F(DriverTest, MonRegisterHypercallRequiresKnownSid) {
  // No app registered with SID 42: denied (§5.3 passes the SID).
  EXPECT_EQ(sys_->machine().hvc(
                hvc::kMonRegister, {42, kKernelVaBase + 0x1000, 64}),
            hvc::kDenied);
}

}  // namespace
}  // namespace hn::hypersec
