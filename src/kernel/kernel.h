// The simkernel façade: a miniature monolithic kernel running on the
// simulated machine, exposing the syscall surface the LMbench-style
// benchmarks (Table 1) and application workloads (Figure 6 / Table 2)
// exercise.
//
// Every syscall charges SVC entry/exit, then performs its work through
// charged machine accesses; the kernel's page-table writes go through the
// active PtWriter, so the same kernel runs unmodified under Native,
// KVM-guest, and Hypernel configurations.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "kernel/buddy.h"
#include "kernel/costs.h"
#include "kernel/ipc.h"
#include "kernel/kpt.h"
#include "kernel/modules.h"
#include "kernel/process.h"
#include "kernel/slab.h"
#include "kernel/vfs.h"
#include "sim/machine.h"

namespace hn::kernel {

struct KernelConfig {
  /// Stock-kernel 2 MiB section linear map vs the 4 KiB patched map (§6.2).
  bool use_sections = false;
  /// Upper bound of the linear map / buddy pool.  0 = all of DRAM.
  /// The Hypernel configuration sets this to the secure-space base so the
  /// secure region is simply never mapped (§5.2).
  PhysAddr linear_limit = 0;
  ProcImage image;
  KernelCosts costs;
  /// Scheduler tick period (250 Hz at the A57's 1.15 GHz).
  Cycles timer_period = 4'600'000;
};

class Kernel {
 public:
  Kernel(sim::Machine& machine, const KernelConfig& config);

  /// Bring the system up: linear map, TTBR1, IRQ vector, rootfs, PID 1.
  Status boot();

  // --- Component access (substrate for Hypersec / KVM / secapps) ----------
  sim::Machine& machine() { return machine_; }
  BuddyAllocator& buddy() { return *buddy_; }
  PageTableManager& kpt() { return *kpt_; }
  Vfs& vfs() { return *vfs_; }
  ProcessManager& procs() { return *procs_; }
  IpcManager& ipc() { return *ipc_; }
  SlabCache& cred_slab() { return *cred_slab_; }
  SlabCache& dentry_slab() { return *dentry_slab_; }
  ModuleLoader& modules() { return *modules_; }
  [[nodiscard]] const KernelConfig& config() const { return config_; }
  [[nodiscard]] const KernelCosts& costs() const { return config_.costs; }

  /// Switch the page-table write policy (Hypernel boot: direct -> HVC).
  void use_hypercall_pt_writes();
  /// Forward MBM interrupts to Hypersec from the kernel IRQ handler (§6.2).
  void enable_mbm_irq_forwarding() { forward_mbm_irq_ = true; }

  /// Object lifetime hooks for security applications (§5.3 step 1).
  void set_object_hooks(ObjectKind kind, SlabCache::ObjectHook on_alloc,
                        SlabCache::ObjectHook on_free);

  // --- Syscalls (each charges SVC entry/exit) --------------------------------
  Result<StatInfo> sys_stat(std::string_view path);
  Result<u64> sys_creat(std::string_view path);
  Status sys_unlink(std::string_view path);
  Status sys_rename(std::string_view from, std::string_view to);
  Status sys_mkdir(std::string_view path);
  Status sys_write(u64 ino, u64 offset, const void* data, u64 len);
  Status sys_read(u64 ino, u64 offset, void* out, u64 len);

  Status sys_sigaction(unsigned sig, u64 handler);
  Status sys_kill_self(unsigned sig);

  Result<u32> sys_pipe();
  Status sys_pipe_write(u32 id, VirtAddr user_buf, u64 len);
  Result<u64> sys_pipe_read(u32 id, VirtAddr user_buf, u64 len);
  Result<u32> sys_socketpair();
  Status sys_socket_send(u32 id, unsigned end, VirtAddr user_buf, u64 len);
  Result<u64> sys_socket_recv(u32 id, unsigned end, VirtAddr user_buf, u64 len);

  Result<u32> sys_fork();           // returns child pid
  Status sys_execve();              // re-exec current image
  Status sys_exit();                // current task exits (caller reschedules)
  Status sys_setuid(u64 uid);
  Result<LoadedModule> sys_insmod(const ModuleImage& image);
  Status sys_rmmod(const std::string& name);
  Result<u64> sys_module_call(const std::string& name, u64 hook);

  Result<VirtAddr> sys_mmap(u64 len, bool writable);
  Result<VirtAddr> sys_mmap_file(u64 ino, u64 len, bool writable = false);
  Status sys_munmap(VirtAddr va, u64 len);

  /// EL0 compute: charge cycles in slices, delivering scheduler ticks at
  /// the configured period (timer IRQs are where KVM's exit cost shows on
  /// compute-bound workloads).
  void run_user_compute(Cycles cycles);
  /// EL0 memory traffic: touch `count` user words across `span_pages`
  /// pages of the current task's heap (faulting them in on first use).
  Status run_user_memory(u64 count, u64 span_pages, u64 seed);

  /// Scattered loads/stores over the kernel-structures arena: the
  /// working-set model that gives kernel paths realistic TLB behaviour
  /// (see KernelCosts::ws_*).
  void touch_kernel_ws(u64 words);
  /// Pages of that arena: task structs, runqueues, inodes, locks...
  static constexpr u64 kWsArenaPages = 160;

  [[nodiscard]] u64 timer_ticks() const { return timer_ticks_; }
  [[nodiscard]] PhysAddr linear_limit() const { return linear_limit_; }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  // Fixed component order; handler wiring (PtWriter choice, hooks, IRQ
  // forwarding) is established by boot and persists across restore.

  void save_state(sim::SnapWriter& w) const {
    w.put_bool(booted_);
    w.put_u64(linear_limit_);
    w.put_u64(timer_ticks_);
    // One timer deadline per core (count pinned by the machine config,
    // which the snapshot's config digest already covers).
    w.put_u64(next_tick_at_.size());
    for (const Cycles t : next_tick_at_) w.put_u64(t);
    w.put_u64(ws_arena_);
    w.put_u64(kWsArenaPages);
    w.put_u64(ws_cursor_);
    buddy_->save_state(w);
    kpt_->save_state(w);
    cred_slab_->save_state(w);
    dentry_slab_->save_state(w);
    vfs_->save_state(w);
    procs_->save_state(w);
    ipc_->save_state(w);
    modules_->save_state(w);
  }

  void restore_state(sim::SnapReader& r) {
    r.section("kernel");
    booted_ = r.get_bool();
    const PhysAddr limit = r.get_u64();
    if (r.ok() && limit != linear_limit_) {
      r.fail("linear limit " + std::to_string(limit) +
             " does not match this configuration");
      return;
    }
    timer_ticks_ = r.get_u64();
    const u64 ntimers = r.get_count("timer deadline");
    next_tick_at_.assign(r.ok() ? ntimers : 0, 0);
    for (Cycles& t : next_tick_at_) t = r.get_u64();
    ws_arena_ = r.get_u64();
    const u64 arena_pages = r.get_u64();
    ws_cursor_ = r.get_u64();
    if (r.ok() && arena_pages != kWsArenaPages) {
      r.fail("working-set arena of " + std::to_string(arena_pages) +
             " pages; this kernel's has " + std::to_string(kWsArenaPages));
      return;
    }
    if (r.ok() && (!is_page_aligned(ws_arena_) || ws_arena_ > linear_limit_ ||
                   linear_limit_ - ws_arena_ < kWsArenaPages * kPageSize)) {
      r.fail("working-set arena at " + std::to_string(ws_arena_) +
             " lies outside normal DRAM");
      return;
    }
    buddy_->restore_state(r);
    kpt_->restore_state(r);
    cred_slab_->restore_state(r);
    dentry_slab_->restore_state(r);
    vfs_->restore_state(r);
    procs_->restore_state(r);
    ipc_->restore_state(r);
    modules_->restore_state(r);
  }

 private:
  class SvcScope;
  void on_irq(unsigned line);

  sim::Machine& machine_;
  KernelConfig config_;
  PhysAddr linear_limit_;
  std::unique_ptr<BuddyAllocator> buddy_;
  std::unique_ptr<PageTableManager> kpt_;
  std::unique_ptr<SlabCache> cred_slab_;
  std::unique_ptr<SlabCache> dentry_slab_;
  std::unique_ptr<Vfs> vfs_;
  std::unique_ptr<ProcessManager> procs_;
  std::unique_ptr<IpcManager> ipc_;
  std::unique_ptr<ModuleLoader> modules_;
  std::unique_ptr<HypercallPtWriter> hvc_writer_;
  bool forward_mbm_irq_ = false;
  bool booted_ = false;
  u64 timer_ticks_ = 0;
  std::vector<Cycles> next_tick_at_;  // per-core timer deadline
  PhysAddr ws_arena_ = 0;       // kernel-structures arena (working set)
  u64 ws_cursor_ = 0;
  obs::Counter obs_syscalls_;
};

}  // namespace hn::kernel
