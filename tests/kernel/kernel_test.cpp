// Kernel subsystem tests against a booted simkernel: page-table manager,
// VFS/dentry cache, process lifecycle (fork/COW/exec/exit), IPC, signals,
// and the syscall layer.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hypernel/system.h"
#include "kernel/kernel.h"
#include "kernel/layout.h"
#include "kernel/objects.h"
#include "sim/machine.h"

namespace hn::kernel {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() {
    machine_ = std::make_unique<sim::Machine>(sim::MachineConfig{});
    KernelConfig cfg;
    kernel_ = std::make_unique<Kernel>(*machine_, cfg);
    EXPECT_TRUE(kernel_->boot().ok());
  }
  std::unique_ptr<sim::Machine> machine_;
  std::unique_ptr<Kernel> kernel_;
};

// ---------------- boot & linear map ----------------

TEST_F(KernelTest, BootEstablishesLinearMap) {
  // Read/write through the linear map works over the whole pool.
  const VirtAddr va = phys_to_virt(kBuddyPoolBase + 0x1234000);
  EXPECT_TRUE(machine_->write64(va, 0xAB).ok);
  EXPECT_EQ(machine_->phys().read64(kBuddyPoolBase + 0x1234000), 0xABu);
}

TEST_F(KernelTest, KernelTextIsNotWritable) {
  const VirtAddr text = phys_to_virt(kTextBase);
  EXPECT_FALSE(machine_->write64(text, 0xE71100).ok);
}

TEST_F(KernelTest, KernelTextIsExecutable) {
  sim::AccessType exec;
  exec.is_exec = true;
  EXPECT_TRUE(machine_->probe(phys_to_virt(kTextBase), exec).ok);
}

TEST_F(KernelTest, KernelDataNotExecutable) {
  sim::AccessType exec;
  exec.is_exec = true;
  const sim::TranslateOutcome out =
      machine_->probe(phys_to_virt(kDataBase), exec);
  EXPECT_FALSE(out.ok);
}

TEST_F(KernelTest, WxHoldsOverEntireLinearMap) {
  // Property: no page is both writable and executable (§5.2.1's W^X,
  // already true of the patched 4 KiB kernel at boot).
  for (PhysAddr pa = 0; pa < kernel_->linear_limit(); pa += kPageSize) {
    const PageTableManager::SwWalk w =
        kernel_->kpt().walk(kernel_->kpt().kernel_root(), phys_to_virt(pa));
    ASSERT_TRUE(w.ok);
    const sim::PageAttrs attrs = sim::decode_attrs(w.desc);
    ASSERT_FALSE(attrs.write && attrs.exec) << "W+X page at " << std::hex << pa;
  }
}

// ---------------- page-table manager ----------------

TEST_F(KernelTest, MapWalkUnmapRoundTrip) {
  PageTableManager& kpt = kernel_->kpt();
  Result<PhysAddr> root = kpt.alloc_user_root();
  ASSERT_TRUE(root.ok());
  const VirtAddr va = 0x1230000;
  ASSERT_TRUE(kpt.map_page(root.value(), va, 0x555000,
                           sim::PageAttrs{.write = true, .user = true})
                  .ok());
  const PageTableManager::SwWalk w = kpt.walk(root.value(), va);
  ASSERT_TRUE(w.ok);
  EXPECT_EQ(w.level, 3u);
  EXPECT_EQ(sim::desc_out_addr(w.desc), 0x555000u);

  PhysAddr old = 0;
  ASSERT_TRUE(kpt.unmap_page(root.value(), va, &old).ok());
  EXPECT_EQ(old, 0x555000u);
  EXPECT_FALSE(kpt.walk(root.value(), va).ok);
  kpt.free_user_tree(root.value(), false);
}

TEST_F(KernelTest, SetPageAttrsFlushesTlb) {
  PageTableManager& kpt = kernel_->kpt();
  const PhysAddr frame = kBuddyPoolBase + 0x400000;
  const VirtAddr va = phys_to_virt(frame);
  ASSERT_TRUE(machine_->write64(va, 1).ok);  // mapped RW, TLB warm
  ASSERT_TRUE(kpt.protect_linear(frame, sim::PageAttrs{.write = false}).ok());
  EXPECT_FALSE(machine_->write64(va, 2).ok);  // RO now, despite warm TLB
  ASSERT_TRUE(kpt.protect_linear(frame, sim::PageAttrs{.write = true}).ok());
  EXPECT_TRUE(machine_->write64(va, 3).ok);
}

TEST_F(KernelTest, PtPagesTrackedWithLevels) {
  PageTableManager& kpt = kernel_->kpt();
  Result<PhysAddr> root = kpt.alloc_user_root();
  ASSERT_TRUE(root.ok());
  EXPECT_TRUE(kpt.is_pt_page(root.value()));
  EXPECT_EQ(kpt.pt_pages().at(root.value()), 0u);
  ASSERT_TRUE(kpt.map_page(root.value(), 0x400000, 0x666000,
                           sim::PageAttrs{.user = true})
                  .ok());
  // The intermediate tables were registered at levels 1..3.
  u64 found[4] = {};
  for (const auto& [pa, level] : kpt.pt_pages()) {
    if (level < 4) ++found[level];
  }
  EXPECT_GE(found[1], 1u);
  EXPECT_GE(found[2], 1u);
  EXPECT_GE(found[3], 1u);
  kpt.free_user_tree(root.value(), false);
}

TEST_F(KernelTest, FreeUserTreeReturnsTablePages) {
  PageTableManager& kpt = kernel_->kpt();
  const u64 before = kernel_->buddy().free_pages_count();
  Result<PhysAddr> root = kpt.alloc_user_root();
  ASSERT_TRUE(root.ok());
  ASSERT_TRUE(
      kpt.map_page(root.value(), 0x400000, 0x777000, sim::PageAttrs{}).ok());
  kpt.free_user_tree(root.value(), false);
  EXPECT_EQ(kernel_->buddy().free_pages_count(), before);
  EXPECT_FALSE(kpt.is_pt_page(root.value()));
}

// ---------------- VFS ----------------

TEST_F(KernelTest, CreateStatUnlink) {
  ASSERT_TRUE(kernel_->sys_mkdir("/etc").ok());
  Result<u64> ino = kernel_->sys_creat("/etc/passwd");
  ASSERT_TRUE(ino.ok());
  Result<StatInfo> st = kernel_->sys_stat("/etc/passwd");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().ino, ino.value());
  EXPECT_FALSE(st.value().is_dir);
  ASSERT_TRUE(kernel_->sys_unlink("/etc/passwd").ok());
  EXPECT_FALSE(kernel_->sys_stat("/etc/passwd").ok());
}

TEST_F(KernelTest, DuplicateCreateFails) {
  ASSERT_TRUE(kernel_->sys_creat("/dup").ok());
  EXPECT_FALSE(kernel_->sys_creat("/dup").ok());
}

TEST_F(KernelTest, MissingPathFails) {
  EXPECT_FALSE(kernel_->sys_stat("/no/such/file").ok());
  EXPECT_FALSE(kernel_->sys_creat("/no/such/file").ok());
  EXPECT_FALSE(kernel_->sys_unlink("/nothing").ok());
}

TEST_F(KernelTest, FileDataRoundTrip) {
  Result<u64> ino = kernel_->sys_creat("/data");
  ASSERT_TRUE(ino.ok());
  std::vector<u8> data(10000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 13);
  // Offsets and lengths are word-granular in this model.
  ASSERT_TRUE(kernel_->sys_write(ino.value(), 0, data.data(), 10000).ok());
  std::vector<u8> out(10000);
  ASSERT_TRUE(kernel_->sys_read(ino.value(), 0, out.data(), 10000).ok());
  EXPECT_EQ(data, out);
  EXPECT_EQ(kernel_->vfs().inode(ino.value())->size, 10000u);
}

TEST_F(KernelTest, SparseReadReturnsZeros) {
  Result<u64> ino = kernel_->sys_creat("/sparse");
  ASSERT_TRUE(ino.ok());
  u64 probe = 0xFFFF;
  ASSERT_TRUE(kernel_->sys_read(ino.value(), 64 * 1024, &probe, 8).ok());
  EXPECT_EQ(probe, 0u);
}

TEST_F(KernelTest, RenameMovesEntry) {
  ASSERT_TRUE(kernel_->sys_mkdir("/a").ok());
  ASSERT_TRUE(kernel_->sys_mkdir("/b").ok());
  Result<u64> ino = kernel_->sys_creat("/a/f");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(kernel_->sys_rename("/a/f", "/b/g").ok());
  EXPECT_FALSE(kernel_->sys_stat("/a/f").ok());
  Result<StatInfo> st = kernel_->sys_stat("/b/g");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().ino, ino.value());
}

TEST_F(KernelTest, DentryObjectsCarryIdentity) {
  ASSERT_TRUE(kernel_->sys_creat("/victim").ok());
  ASSERT_TRUE(kernel_->sys_stat("/victim").ok());
  const VirtAddr dva =
      kernel_->vfs().cached_dentry(kernel_->vfs().root_ino(), "victim");
  ASSERT_NE(dva, 0u);
  EXPECT_EQ(machine_->read64(dva + DentryLayout::kOp * 8).value,
            kDentryOpsVtable);
  EXPECT_NE(machine_->read64(dva + DentryLayout::kInode * 8).value, 0u);
}

TEST_F(KernelTest, PruneDcacheFreesDentries) {
  for (int i = 0; i < 20; ++i) {
    char path[32];
    std::snprintf(path, sizeof(path), "/prune%d", i);
    ASSERT_TRUE(kernel_->sys_creat(path).ok());
  }
  const u64 before = kernel_->vfs().dcache_size();
  kernel_->vfs().prune_dcache(10);
  EXPECT_EQ(kernel_->vfs().dcache_size(), before - 10);
  // Re-lookup re-instantiates from the directory.
  EXPECT_TRUE(kernel_->sys_stat("/prune0").ok());
}

TEST_F(KernelTest, RenameOntoExistingNameReplacesTarget) {
  // Renaming onto an existing name replaces that entry the way unlink
  // does: its dentry is torn down and freed (free hook included), and its
  // inode goes with its last link.
  std::vector<VirtAddr> freed;
  kernel_->set_object_hooks(
      ObjectKind::kDentry, [](VirtAddr) {},
      [&freed](VirtAddr dva) { freed.push_back(dva); });
  Vfs& vfs = kernel_->vfs();
  const u64 inodes = vfs.inode_count();
  Result<u64> a = kernel_->sys_creat("/a");
  Result<u64> b = kernel_->sys_creat("/b");
  ASSERT_TRUE(a.ok() && b.ok());
  const VirtAddr b_dentry = vfs.cached_dentry(vfs.root_ino(), "b");
  ASSERT_NE(b_dentry, 0u);

  ASSERT_TRUE(kernel_->sys_rename("/a", "/b").ok());
  EXPECT_EQ(freed, std::vector<VirtAddr>{b_dentry});
  EXPECT_EQ(vfs.inode_count(), inodes + 1);
  EXPECT_EQ(vfs.inode(b.value()), nullptr);
  EXPECT_FALSE(kernel_->sys_stat("/a").ok());
  Result<StatInfo> st = kernel_->sys_stat("/b");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().ino, a.value());

  // One dentry is left for the one name, and pruning frees it once.
  freed.clear();
  const u64 cached = vfs.dcache_size();
  vfs.prune_dcache(cached);
  EXPECT_EQ(freed.size(), cached);
  EXPECT_EQ(vfs.dcache_size(), 0u);
}

TEST_F(KernelTest, RenameOntoCachedTargetFromUncachedSource) {
  // Only the target's dentry is cached: the rename must drop it, or a
  // later lookup of the name resolves to the replaced inode.
  Vfs& vfs = kernel_->vfs();
  Result<u64> a = kernel_->sys_creat("/a");
  Result<u64> b = kernel_->sys_creat("/b");
  ASSERT_TRUE(a.ok() && b.ok());
  vfs.prune_dcache(vfs.dcache_size());
  ASSERT_TRUE(kernel_->sys_stat("/b").ok());  // caches /b, not /a
  ASSERT_EQ(vfs.cached_dentry(vfs.root_ino(), "a"), 0u);

  ASSERT_TRUE(kernel_->sys_rename("/a", "/b").ok());
  Result<StatInfo> st = kernel_->sys_stat("/b");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().ino, a.value());
  EXPECT_EQ(vfs.inode(b.value()), nullptr);
}

/// The names in `names` that still have a cached dentry in the root
/// directory, in the order given.
std::vector<std::string> still_cached(const Vfs& vfs,
                                      const std::vector<std::string>& names) {
  std::vector<std::string> out;
  for (const std::string& n : names) {
    if (vfs.cached_dentry(vfs.root_ino(), n) != 0) out.push_back(n);
  }
  return out;
}

TEST(DcachePruneOrder, OldestFirstRenamedLastAcrossSnapshot) {
  // prune_dcache drops the least recently created dentry first.  A rename
  // re-queues its dentry at the back; an unlink takes it out of the order.
  // A snapshot taken part-way carries the order: the restored twin goes
  // on pruning in exactly the same sequence.
  hypernel::SystemConfig cfg;
  cfg.mode = hypernel::Mode::kNative;
  auto made = hypernel::System::create(cfg);
  ASSERT_TRUE(made.ok()) << made.status().message();
  std::unique_ptr<hypernel::System> sys = std::move(made).value();
  Kernel& k = sys->kernel();
  k.vfs().prune_dcache(k.vfs().dcache_size());  // start from an empty dcache
  for (const char* path : {"/f0", "/f1", "/f2", "/f3", "/f4"}) {
    ASSERT_TRUE(k.sys_creat(path).ok());
  }
  ASSERT_TRUE(k.sys_rename("/f1", "/g1").ok());
  ASSERT_TRUE(k.sys_unlink("/f3").ok());

  const std::vector<std::string> names = {"f0", "f1", "f2", "f3", "f4", "g1"};
  const std::vector<std::string> order = {"f0", "f2", "f4", "g1"};
  ASSERT_EQ(still_cached(k.vfs(), names), order);
  ASSERT_EQ(k.vfs().dcache_size(), order.size());

  // Each prune_dcache(1) drops the head of `order`, from `first` on.
  auto expect_prunes = [&](hypernel::System& s, size_t first) {
    for (size_t i = first; i < order.size(); ++i) {
      s.kernel().vfs().prune_dcache(1);
      EXPECT_EQ(still_cached(s.kernel().vfs(), names),
                std::vector<std::string>(order.begin() + i + 1, order.end()))
          << "prune " << i << " should drop " << order[i];
    }
    EXPECT_EQ(s.kernel().vfs().dcache_size(), 0u);
  };

  k.vfs().prune_dcache(1);
  ASSERT_EQ(still_cached(k.vfs(), names),
            std::vector<std::string>(order.begin() + 1, order.end()));
  const std::vector<u8> snap = sys->save_state();
  auto twin = hypernel::System::create(cfg);
  ASSERT_TRUE(twin.ok()) << twin.status().message();
  ASSERT_TRUE(twin.value()->restore_state(snap).ok());

  expect_prunes(*sys, 1);
  expect_prunes(*twin.value(), 1);
}

TEST_F(KernelTest, EvictInodePagesReleasesFrames) {
  Result<u64> ino = kernel_->sys_creat("/bigfile");
  ASSERT_TRUE(ino.ok());
  std::vector<u8> page(kPageSize, 1);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        kernel_->sys_write(ino.value(), i * kPageSize, page.data(), kPageSize)
            .ok());
  }
  const u64 before = kernel_->buddy().free_pages_count();
  kernel_->vfs().evict_inode_pages(ino.value());
  EXPECT_EQ(kernel_->buddy().free_pages_count(), before + 8);
}

// ---------------- processes ----------------

TEST_F(KernelTest, ForkCreatesCowChild) {
  ProcessManager& procs = kernel_->procs();
  Task* parent = &procs.current();
  // Dirty a parent heap word first.
  const VirtAddr heap = kUserHeapBase;
  ASSERT_TRUE(procs.user_write64(heap, 0x1111).ok());

  Result<u32> pid = kernel_->sys_fork();
  ASSERT_TRUE(pid.ok());
  Task* child = procs.find(pid.value());
  ASSERT_NE(child, nullptr);
  EXPECT_NE(child->ttbr0, parent->ttbr0);
  EXPECT_EQ(child->cred, parent->cred);  // shared, refcounted

  // Child sees the parent's data...
  procs.switch_to(*child);
  Result<u64> r = procs.user_read64(heap);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 0x1111u);

  // ...and writes trigger COW: the parent's copy stays intact.
  ASSERT_TRUE(procs.user_write64(heap, 0x2222).ok());
  procs.switch_to(*parent);
  EXPECT_EQ(procs.user_read64(heap).value(), 0x1111u);
  procs.switch_to(*child);
  EXPECT_EQ(procs.user_read64(heap).value(), 0x2222u);

  ASSERT_TRUE(kernel_->sys_exit().ok());
  procs.switch_to(*parent);
}

TEST_F(KernelTest, ForkSharesCredByRefcount) {
  ProcessManager& procs = kernel_->procs();
  Task* parent = &procs.current();
  const u64 usage_before =
      machine_->read64(parent->cred + CredLayout::kUsage * 8).value;
  Result<u32> pid = kernel_->sys_fork();
  ASSERT_TRUE(pid.ok());
  EXPECT_EQ(machine_->read64(parent->cred + CredLayout::kUsage * 8).value,
            usage_before + 1);
  Task* child = procs.find(pid.value());
  procs.switch_to(*child);
  ASSERT_TRUE(kernel_->sys_exit().ok());
  EXPECT_EQ(machine_->read64(parent->cred + CredLayout::kUsage * 8).value,
            usage_before);
  procs.switch_to(*parent);
}

TEST_F(KernelTest, ExecReplacesAddressSpaceAndCred) {
  // (Frame/slab recycling may hand exec the same physical root and cred
  // object back, so identity of addresses proves nothing; assert on the
  // *content* semantics instead.)
  ProcessManager& procs = kernel_->procs();
  Task* parent = &procs.current();
  Result<u32> pid = kernel_->sys_fork();
  ASSERT_TRUE(pid.ok());
  Task* child = procs.find(pid.value());
  procs.switch_to(*child);
  // Dirty the heap (COW) and share the cred with the parent.
  ASSERT_TRUE(procs.user_write64(kUserHeapBase, 0x77).ok());
  const u64 parent_usage =
      machine_->read64(parent->cred + CredLayout::kUsage * 8).value;
  ASSERT_TRUE(kernel_->sys_execve().ok());
  // Fresh image: the dirty heap word is gone (demand-zero page).
  EXPECT_EQ(procs.user_read64(kUserHeapBase).value(), 0u);
  // Fresh cred, no longer shared: the parent's usage count dropped and
  // the child's is exactly 1.
  EXPECT_NE(child->cred, parent->cred);
  EXPECT_EQ(machine_->read64(parent->cred + CredLayout::kUsage * 8).value,
            parent_usage - 1);
  EXPECT_EQ(machine_->read64(child->cred + CredLayout::kUsage * 8).value, 1u);
  // Post-exec the process runs with a fresh stack page.
  EXPECT_TRUE(procs.user_write64(kUserStackTop - 64, 1).ok());
  ASSERT_TRUE(kernel_->sys_exit().ok());
  procs.switch_to(*parent);
}

TEST_F(KernelTest, ExitReleasesMemory) {
  ProcessManager& procs = kernel_->procs();
  Task* parent = &procs.current();
  const u64 tasks_before = procs.live_tasks();
  const u64 free_before = kernel_->buddy().free_pages_count();
  Result<u32> pid = kernel_->sys_fork();
  ASSERT_TRUE(pid.ok());
  Task* child = procs.find(pid.value());
  procs.switch_to(*child);
  ASSERT_TRUE(kernel_->sys_exit().ok());
  procs.switch_to(*parent);
  EXPECT_EQ(procs.live_tasks(), tasks_before);
  EXPECT_EQ(kernel_->buddy().free_pages_count(), free_before);
}

TEST_F(KernelTest, SwitchToWritesTtbr0WithAsid) {
  ProcessManager& procs = kernel_->procs();
  Task* parent = &procs.current();
  Result<u32> pid = kernel_->sys_fork();
  ASSERT_TRUE(pid.ok());
  Task* child = procs.find(pid.value());
  procs.switch_to(*child);
  const u64 ttbr0 = machine_->sysreg(sim::SysReg::TTBR0_EL1);
  EXPECT_EQ(ttbr0 & 0x0000'FFFF'FFFF'FFFFull, child->ttbr0);
  EXPECT_EQ(static_cast<u16>(ttbr0 >> 48), child->asid);
  ASSERT_TRUE(kernel_->sys_exit().ok());
  procs.switch_to(*parent);
}

TEST_F(KernelTest, SegfaultOutsideVmas) {
  ProcessManager& procs = kernel_->procs();
  EXPECT_FALSE(procs.user_write64(0x7F00'0000'0000ull, 1).ok());
  EXPECT_FALSE(procs.user_read64(0x200).ok());
}

TEST_F(KernelTest, WriteToReadOnlyTextSegfaults) {
  ProcessManager& procs = kernel_->procs();
  EXPECT_FALSE(procs.user_write64(kUserTextBase, 1).ok());
}

TEST_F(KernelTest, MmapDemandPaging) {
  Result<VirtAddr> va = kernel_->sys_mmap(8 * kPageSize, true);
  ASSERT_TRUE(va.ok());
  const u64 faults_before = machine_->counters().el1_permission_faults;
  ASSERT_TRUE(kernel_->procs().user_write64(va.value() + kPageSize, 0x99).ok());
  EXPECT_EQ(kernel_->procs().user_read64(va.value() + kPageSize).value(),
            0x99u);
  (void)faults_before;
  ASSERT_TRUE(kernel_->sys_munmap(va.value(), 8 * kPageSize).ok());
  EXPECT_FALSE(kernel_->procs().user_read64(va.value()).ok());
}

TEST_F(KernelTest, FileMmapSeesFileContent) {
  Result<u64> ino = kernel_->sys_creat("/mapped");
  ASSERT_TRUE(ino.ok());
  u64 magic = 0x600D'F00D;
  ASSERT_TRUE(kernel_->sys_write(ino.value(), 0, &magic, 8).ok());
  Result<VirtAddr> va = kernel_->sys_mmap_file(ino.value(), kPageSize);
  ASSERT_TRUE(va.ok());
  Result<u64> r = kernel_->procs().user_read64(va.value());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), magic);
  ASSERT_TRUE(kernel_->sys_munmap(va.value(), kPageSize).ok());
  // Page-cache frame survives the unmap.
  u64 back = 0;
  ASSERT_TRUE(kernel_->sys_read(ino.value(), 0, &back, 8).ok());
  EXPECT_EQ(back, magic);
}

TEST_F(KernelTest, SetuidWritesSensitiveCredFields) {
  ProcessManager& procs = kernel_->procs();
  ASSERT_TRUE(kernel_->sys_setuid(1000).ok());
  EXPECT_EQ(procs.cred_uid(procs.current()).value(), 1000u);
  EXPECT_EQ(machine_->read64(procs.current().cred + CredLayout::kCapEffective * 8)
                .value,
            0u);  // caps dropped
}

// ---------------- signals ----------------

TEST_F(KernelTest, SignalInstallAndDeliver) {
  ASSERT_TRUE(kernel_->sys_sigaction(10, 0x40001000).ok());
  EXPECT_TRUE(kernel_->sys_kill_self(10).ok());
}

TEST_F(KernelTest, UnhandledSignalIgnored) {
  EXPECT_TRUE(kernel_->sys_kill_self(9).ok());  // no handler: model ignores
}

TEST_F(KernelTest, BadSignalNumberRejected) {
  EXPECT_FALSE(kernel_->sys_sigaction(99, 0x1).ok());
  EXPECT_FALSE(kernel_->sys_kill_self(99).ok());
}

// ---------------- IPC ----------------

TEST_F(KernelTest, PipeTransfersData) {
  Result<u32> pipe = kernel_->sys_pipe();
  ASSERT_TRUE(pipe.ok());
  ProcessManager& procs = kernel_->procs();
  ASSERT_TRUE(procs.user_write64(kUserHeapBase, 0x1234).ok());
  ASSERT_TRUE(kernel_->sys_pipe_write(pipe.value(), kUserHeapBase, 8).ok());
  EXPECT_EQ(kernel_->ipc().pipe_fill(pipe.value()), 8u);
  Result<u64> got = kernel_->sys_pipe_read(pipe.value(), kUserHeapBase + 64, 8);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 8u);
  EXPECT_EQ(procs.user_read64(kUserHeapBase + 64).value(), 0x1234u);
}

TEST_F(KernelTest, EmptyPipeReadsNothing) {
  Result<u32> pipe = kernel_->sys_pipe();
  ASSERT_TRUE(pipe.ok());
  Result<u64> got = kernel_->sys_pipe_read(pipe.value(), kUserHeapBase, 8);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 0u);
}

TEST_F(KernelTest, SocketPairBidirectional) {
  Result<u32> sock = kernel_->sys_socketpair();
  ASSERT_TRUE(sock.ok());
  ProcessManager& procs = kernel_->procs();
  ASSERT_TRUE(procs.user_write64(kUserHeapBase, 0xAAAA).ok());
  ASSERT_TRUE(
      kernel_->sys_socket_send(sock.value(), 0, kUserHeapBase, 8).ok());
  Result<u64> got =
      kernel_->sys_socket_recv(sock.value(), 1, kUserHeapBase + 64, 8);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 8u);
  // Reverse direction.
  ASSERT_TRUE(procs.user_write64(kUserHeapBase + 128, 0xBBBB).ok());
  ASSERT_TRUE(
      kernel_->sys_socket_send(sock.value(), 1, kUserHeapBase + 128, 8).ok());
  got = kernel_->sys_socket_recv(sock.value(), 0, kUserHeapBase + 192, 8);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(procs.user_read64(kUserHeapBase + 192).value(), 0xBBBBu);
}

// ---------------- snapshot restore checks ----------------

/// `blob` with the u64 at `offset` replaced by `value`.
std::vector<u8> patched(std::vector<u8> blob, size_t offset, u64 value) {
  for (size_t i = 0; i < 8; ++i) {
    blob[offset + i] = static_cast<u8>(value >> (8 * i));
  }
  return blob;
}

/// Offset of the working-set arena base in a kernel section: after the
/// booted flag, the linear limit, the tick count and the per-core timer
/// deadlines.  Its page count follows it.
size_t arena_offset(const sim::Machine& m) {
  return 1 + 8 + 8 + 8 + 8 * m.cores();
}

TEST_F(KernelTest, RestoreRejectsAnotherWorkingSetArenaSize) {
  // A zero-page arena used to reach the divide in touch_kernel_ws: the
  // next syscall, sys_stat("/") say, died of SIGFPE.
  sim::SnapWriter w;
  kernel_->save_state(w);
  const size_t pages_at = arena_offset(*machine_) + 8;
  for (const u64 pages : {u64{0}, Kernel::kWsArenaPages + 1}) {
    const std::vector<u8> blob = patched(w.data(), pages_at, pages);
    sim::SnapReader r(blob);
    kernel_->restore_state(r);
    EXPECT_NE(r.status().message().find("working-set arena of"),
              std::string::npos)
        << pages << ": " << r.status().message();
  }
}

TEST_F(KernelTest, RestoreRejectsAnArenaOutsideNormalDram) {
  sim::SnapWriter w;
  kernel_->save_state(w);
  const PhysAddr limit = kernel_->linear_limit();
  for (const PhysAddr base : {limit, limit - kPageSize, kBuddyPoolBase + 8}) {
    const std::vector<u8> blob =
        patched(w.data(), arena_offset(*machine_), base);
    sim::SnapReader r(blob);
    kernel_->restore_state(r);
    EXPECT_NE(r.status().message().find("outside normal DRAM"),
              std::string::npos)
        << std::hex << base << ": " << r.status().message();
  }
  // The saved arena itself restores, and the kernel keeps serving.
  sim::SnapReader r(w.data());
  kernel_->restore_state(r);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_TRUE(kernel_->sys_stat("/").ok());
}

// Each of the next five fields used to restore OK and then stop the next
// operation that used it on an assert.  Every test restores the field
// corrupted; when a restore accepts the state, it then runs that
// operation, as a restored run would.

u64 peek(const std::vector<u8>& blob, size_t offset) {
  u64 v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<u64>(blob[offset + i]) << (8 * i);
  }
  return v;
}

TEST_F(KernelTest, RestoreRejectsATlbEntryOutsideDram) {
  // A TLB hit hands the entry's frame straight to physical memory.
  const VirtAddr va = phys_to_virt(kBuddyPoolBase);
  ASSERT_TRUE(machine_->read64(va).ok);
  sim::SnapWriter w;
  machine_->save_state(w);
  // The TLB follows the core count, the register count and the registers:
  // an entry count, then per entry valid(1) vpage(8) asid(2) ppage(8) and
  // seven attribute bytes.
  constexpr size_t kTlb = 4 + 4 + 8 * sim::SysRegs::kRegCount;
  constexpr size_t kEntry = 25;
  size_t entry = 0;
  for (size_t i = 0; i < peek(w.data(), kTlb); ++i) {
    const size_t at = kTlb + 8 + i * kEntry;
    if (w.data()[at] != 0 && peek(w.data(), at + 1) == va) entry = at;
  }
  ASSERT_NE(entry, 0u);
  const std::vector<u8> blob =
      patched(w.data(), entry + 11, machine_->phys().size());
  sim::SnapReader r(blob);
  machine_->restore_state(r);
  if (r.ok()) (void)machine_->read64(va);
  EXPECT_NE(r.status().message().find("outside DRAM"), std::string::npos)
      << r.status().message();
}

TEST_F(KernelTest, RestoreRejectsATaskRootThatIsNotATopLevelTable) {
  // Switching to a task loads its root into TTBR0; the next user access
  // walks from there.
  Result<u32> child = kernel_->sys_fork();
  ASSERT_TRUE(child.ok());
  sim::SnapWriter w;
  kernel_->procs().save_state(w);
  // Task count, then the first task (init): key, pid, asid, ttbr0.
  for (const PhysAddr root :
       {machine_->phys().size(), kBuddyPoolBase + 8,
        kernel_->kpt().kernel_root() + kPageSize}) {
    const std::vector<u8> blob = patched(w.data(), 8 + 4 + 4 + 2, root);
    sim::SnapReader r(blob);
    kernel_->procs().restore_state(r);
    if (r.ok()) {
      ProcessManager& procs = kernel_->procs();
      procs.switch_to(*procs.find(child.value()));
      procs.switch_to(*procs.find(1));
      (void)procs.user_read64(0x7000'0000);
    }
    EXPECT_NE(r.status().message().find("not a top-level table"),
              std::string::npos)
        << std::hex << root << ": " << r.status().message();
  }
}

TEST_F(KernelTest, RestoreRejectsAPipeBufferThatIsNotAnAllocatedPage) {
  // Destroying the kernel used to hand every pipe buffer back to the
  // buddy allocator, which asserts on a frame it never handed out: the
  // last state restored here is the one the fixture tears down.
  ASSERT_TRUE(kernel_->sys_pipe().ok());
  sim::SnapWriter w;
  kernel_->ipc().save_state(w);
  // Pipe count, then the pipe: id, buffer, fill.  A fill past the page
  // is rejected too.
  {
    const std::vector<u8> blob = patched(w.data(), 8 + 4 + 8, kPageSize + 8);
    sim::SnapReader r(blob);
    kernel_->ipc().restore_state(r);
    EXPECT_NE(r.status().message().find("does not fit a page"),
              std::string::npos)
        << r.status().message();
  }
  for (const PhysAddr buf : {kBuddyPoolBase + 8, machine_->phys().size()}) {
    const std::vector<u8> blob = patched(w.data(), 8 + 4, buf);
    sim::SnapReader r(blob);
    kernel_->ipc().restore_state(r);
    EXPECT_NE(r.status().message().find("not a distinct allocated page"),
              std::string::npos)
        << std::hex << buf << ": " << r.status().message();
  }
}

TEST_F(KernelTest, RestoreRejectsASlabObjectOutsideItsPages) {
  // The next dentry comes off the back of the free list, and every
  // dentry write must land on a writable slab page.
  ASSERT_TRUE(kernel_->sys_creat("/grows-the-slab").ok());
  sim::SnapWriter w;
  kernel_->dentry_slab().save_state(w);
  const u64 nfree = peek(w.data(), 0);
  ASSERT_GT(nfree, 0u);
  const size_t next = 8 + 8 * (nfree - 1);
  const VirtAddr object = peek(w.data(), next);
  for (const VirtAddr va :
       {phys_to_virt(kTextBase), object + 8, object ^ (u64{1} << 40)}) {
    const std::vector<u8> blob = patched(w.data(), next, va);
    sim::SnapReader r(blob);
    kernel_->dentry_slab().restore_state(r);
    if (r.ok()) (void)kernel_->sys_creat("/after-restore");
    EXPECT_NE(r.status().message().find("not a distinct object"),
              std::string::npos)
        << std::hex << va << ": " << r.status().message();
  }
}

TEST_F(KernelTest, RestoreRejectsBuddyBlockArraysThatDisagree) {
  // A task's exit frees its order-2 kernel stack, and free_pages asserts
  // that the frame heads an allocated block of that order.
  Result<u32> child = kernel_->sys_fork();
  ASSERT_TRUE(child.ok());
  BuddyAllocator& buddy = kernel_->buddy();
  const u64 kstack =
      (kernel_->procs().find(child.value())->kstack - buddy.base()) >>
      kPageShift;
  sim::SnapWriter w;
  buddy.save_state(w);
  // Pool size, free count, the free lists, then one order byte per frame
  // and the allocated bits.
  size_t orders = 16;
  for (unsigned o = 0; o <= BuddyAllocator::kMaxOrder; ++o) {
    orders += 8 + 8 * peek(w.data(), orders);
  }
  const size_t bit = orders + buddy.total_pages() + kstack / 8;
  const u8 cleared = w.data()[bit] & ~(1u << (kstack % 8));
  struct Case {
    size_t offset;
    u8 value;
  };
  for (const Case& c : {Case{orders + kstack, 0}, Case{orders + kstack, 3},
                        Case{orders + kstack, 0x80}, Case{bit, cleared}}) {
    std::vector<u8> blob = w.data();
    blob[c.offset] = c.value;
    sim::SnapReader r(blob);
    buddy.restore_state(r);
    if (r.ok()) {
      ProcessManager& procs = kernel_->procs();
      procs.switch_to(*procs.find(child.value()));
      (void)kernel_->sys_exit();
    }
    EXPECT_FALSE(r.ok()) << "byte " << c.offset << " = " << int{c.value};
  }
}

// ---------------- sections mode & misc ----------------

TEST(KernelSections, SectionKernelBootsAndRuns) {
  sim::Machine machine{sim::MachineConfig{}};
  KernelConfig cfg;
  cfg.use_sections = true;  // stock-kernel 2 MiB mapping (§6.2)
  Kernel kernel(machine, cfg);
  ASSERT_TRUE(kernel.boot().ok());
  ASSERT_TRUE(kernel.sys_creat("/x").ok());
  EXPECT_TRUE(kernel.sys_stat("/x").ok());
  // The granularity hazard: the image section is one RWX block.
  const PageTableManager::SwWalk w =
      kernel.kpt().walk(kernel.kpt().kernel_root(), phys_to_virt(kTextBase));
  ASSERT_TRUE(w.ok);
  EXPECT_EQ(w.level, 2u);
  const sim::PageAttrs attrs = sim::decode_attrs(w.desc);
  EXPECT_TRUE(attrs.write && attrs.exec);
}

TEST(KernelTicks, TimerFiresDuringCompute) {
  sim::Machine machine{sim::MachineConfig{}};
  Kernel kernel(machine, KernelConfig{});
  ASSERT_TRUE(kernel.boot().ok());
  kernel.run_user_compute(3 * kernel.config().timer_period + 1000);
  EXPECT_EQ(kernel.timer_ticks(), 3u);
  EXPECT_GE(machine.counters().irqs_delivered, 3u);
}

}  // namespace
}  // namespace hn::kernel
