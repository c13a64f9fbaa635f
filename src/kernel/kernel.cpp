#include "kernel/kernel.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/hvc_abi.h"
#include "common/log.h"
#include "common/rng.h"
#include "kernel/layout.h"
#include "sim/irq.h"
#include "sim/sysregs.h"

namespace hn::kernel {

namespace {

/// Host-side bounce buffer for the IPC copy syscalls.  Almost every fuzz
/// transfer fits the stack block, so the hot path skips the heap
/// allocation a plain std::vector<u8> would pay per call.
class IpcBuf {
 public:
  [[nodiscard]] u8* get(u64 len) {
    if (len <= sizeof(stack_)) return stack_;
    heap_.resize(len);
    return heap_.data();
  }

 private:
  u8 stack_[512];
  std::vector<u8> heap_;
};

}  // namespace

/// Charges SVC entry on construction and SVC exit on destruction —
/// the kernel boundary crossing every syscall pays.
class Kernel::SvcScope {
 public:
  explicit SvcScope(Kernel& kernel)
      : machine_(kernel.machine_),
        scope_(machine_.scopes(), obs::Layer::kKernelSyscall) {
    machine_.advance(machine_.timing().svc_entry);
    ++machine_.counters().svc_calls;
    kernel.obs_syscalls_.add();
    machine_.trace().record(machine_.account().cycles(), sim::TraceKind::kSvc);
  }
  ~SvcScope() { machine_.advance(machine_.timing().svc_exit); }
  SvcScope(const SvcScope&) = delete;
  SvcScope& operator=(const SvcScope&) = delete;

 private:
  sim::Machine& machine_;
  obs::Scope scope_;
};

Kernel::Kernel(sim::Machine& machine, const KernelConfig& config)
    : machine_(machine), config_(config) {
  linear_limit_ =
      config.linear_limit != 0 ? config.linear_limit : machine.phys().size();
  assert(linear_limit_ > kBuddyPoolBase &&
         linear_limit_ <= machine.phys().size());
  buddy_ = std::make_unique<BuddyAllocator>(kBuddyPoolBase,
                                            linear_limit_ - kBuddyPoolBase);
  buddy_->attach_obs(machine_.obs());
  buddy_->attach_machine(machine_);
  obs_syscalls_ = machine_.obs().counter("kernel.syscalls");
  kpt_ = std::make_unique<PageTableManager>(machine_, *buddy_);
  cred_slab_ = std::make_unique<SlabCache>(machine_, *buddy_, config_.costs,
                                           ObjectKind::kCred);
  dentry_slab_ = std::make_unique<SlabCache>(machine_, *buddy_, config_.costs,
                                             ObjectKind::kDentry);
  vfs_ = std::make_unique<Vfs>(machine_, *buddy_, *dentry_slab_, config_.costs);
  procs_ = std::make_unique<ProcessManager>(machine_, *buddy_, *kpt_,
                                            *cred_slab_, config_.costs);
  ipc_ = std::make_unique<IpcManager>(machine_, *buddy_, config_.costs);
  modules_ = std::make_unique<ModuleLoader>(machine_, *buddy_, *kpt_,
                                            config_.costs);
  // Module text seals through Hypersec once hypercall mode engages;
  // until then, direct descriptor edits.
  modules_->set_sealer([this](PhysAddr base, u64 pages, bool seal) -> Status {
    if (hvc_writer_ == nullptr) {
      for (u64 p = 0; p < pages; ++p) {
        Status s = kpt_->protect_linear(
            base + p * kPageSize,
            sim::PageAttrs{.write = !seal, .exec = seal});
        if (!s.ok()) return s;
      }
      return Status::Ok();
    }
    const u64 func = seal ? hvc::kModuleSeal : hvc::kModuleUnseal;
    return machine_.hvc(func, {base, pages}) == hvc::kOk
               ? Status::Ok()
               : Status::Denied("module seal hypercall denied");
  });
}

Status Kernel::boot() {
  assert(!booted_);
  Result<PhysAddr> root =
      kpt_->build_kernel_linear_map(linear_limit_, config_.use_sections);
  if (!root.ok()) return root.status();
  machine_.set_sysreg_raw(sim::SysReg::TTBR1_EL1, root.value());
  machine_.set_sysreg_raw(sim::SysReg::SCTLR_EL1, 1);  // M bit: MMU on

  // Control-flow anchor tables (CFI-monitor targets): the boot ROM placed
  // the syscall dispatch table and the exception-vector table before the
  // first instruction, so their materialization is uncharged direct
  // stores.  VBAR_EL1 is neither translation-affecting nor TVM-trapped.
  for (u64 i = 0; i < kSyscallTableEntries; ++i) {
    machine_.phys().write64(kSyscallTableBase + i * kWordSize,
                            syscall_entry_cookie(i));
  }
  for (u64 i = 0; i < kVectorTableEntries; ++i) {
    machine_.phys().write64(kVectorTableBase + i * kWordSize,
                            vector_entry_cookie(i));
  }
  machine_.set_sysreg_raw(sim::SysReg::VBAR_EL1,
                          phys_to_virt(kVectorTableBase));

  // Secondary-core bring-up (smp_init analogue): each secondary runs the
  // same uncharged boot stub — kernel translation root, MMU on, shared
  // vector table.  TTBR0 arrives with the first task scheduled there.
  for (unsigned core = 1; core < machine_.cores(); ++core) {
    machine_.set_sysreg_raw(core, sim::SysReg::TTBR1_EL1, root.value());
    machine_.set_sysreg_raw(core, sim::SysReg::SCTLR_EL1, 1);
    machine_.set_sysreg_raw(core, sim::SysReg::VBAR_EL1,
                            phys_to_virt(kVectorTableBase));
  }

  // Every core's EL1 vector dispatches into the same kernel IRQ path.
  machine_.install_el1_irq_handler([this](unsigned line) { on_irq(line); });

  // Kernel-structures arena, touched in scattered fashion by every kernel
  // path.
  Result<PhysAddr> arena =
      buddy_->alloc_pages(8);  // 256 pages; use the first kWsArenaPages
  if (!arena.ok()) return arena.status();
  ws_arena_ = arena.value();
  procs_->set_ws_toucher([this](u64 n) { touch_kernel_ws(n); });
  procs_->set_file_page_provider([this](u64 ino, u64 pgoff) {
    machine_.advance(config_.costs.page_cache_op);
    return vfs_->page_for(ino, pgoff);
  });

  Result<Task*> init = procs_->boot_init_process(config_.image);
  if (!init.ok()) return init.status();
  // Per-core timer lines, all armed from the boot clock (each core's
  // next tick then free-runs on that core's own progress).
  next_tick_at_.assign(machine_.cores(),
                       machine_.account().cycles() + config_.timer_period);
  booted_ = true;
  return Status::Ok();
}

void Kernel::use_hypercall_pt_writes() {
  hvc_writer_ = std::make_unique<HypercallPtWriter>(machine_);
  kpt_->set_writer(*hvc_writer_);
}

void Kernel::set_object_hooks(ObjectKind kind, SlabCache::ObjectHook on_alloc,
                              SlabCache::ObjectHook on_free) {
  if (kind == ObjectKind::kCred) {
    // Cred hooks sit at allocation (prepare_creds), before the identity
    // fields are filled in, so initialisation is monitored.
    cred_slab_->set_hooks(std::move(on_alloc), std::move(on_free));
    return;
  }
  // Dentry hooks sit at the d_alloc point inside the VFS (see
  // Vfs::set_dentry_hooks for the exact semantics).
  vfs_->set_dentry_hooks(std::move(on_alloc), std::move(on_free));
}

void Kernel::touch_kernel_ws(u64 words) {
  if (ws_arena_ == 0) return;
  for (u64 i = 0; i < words; ++i) {
    const u64 n = ws_cursor_++;
    const u64 page = (n * 2654435761u) % kWsArenaPages;
    // Each arena page has one hot word (a lock / refcount / list head), so
    // the lines stay L1-resident while the *pages* overflow the TLB: the
    // cost differential between configurations is purely the translation
    // walk — 4 descriptor fetches natively, up to 24 nested under KVM.
    const u64 word = (page * 7) % (kPageSize / kWordSize);
    const VirtAddr va = phys_to_virt(ws_arena_ + page * kPageSize) +
                        word * kWordSize;
    if (n % 3 == 0) {
      machine_.write64(va, n);
    } else {
      machine_.read64(va);
    }
  }
}

void Kernel::on_irq(unsigned line) {
  machine_.advance(config_.costs.irq_handler_base);
  touch_kernel_ws(config_.costs.ws_irq);
  if (line == sim::kIrqIpi) {
    // Remote-function IPI: the useful work (TLB/cache maintenance) was
    // already applied by the sender's shootdown; the receiver pays only
    // the interrupt-path cost charged above.
    return;
  }
  if (line == sim::kIrqMbm && forward_mbm_irq_) {
    // §6.2: "we inserted a hypercall in the kernel interrupt handler to
    // allow Hypersec to handle this interrupt."
    machine_.hvc(hvc::kMbmIrq, {});
  }
}

// --- Filesystem syscalls ------------------------------------------------------

Result<StatInfo> Kernel::sys_stat(std::string_view path) {
  SvcScope svc(*this);
  touch_kernel_ws(config_.costs.ws_stat);
  return vfs_->stat(path);
}

Result<u64> Kernel::sys_creat(std::string_view path) {
  SvcScope svc(*this);
  return vfs_->create_file(path);
}

Status Kernel::sys_unlink(std::string_view path) {
  SvcScope svc(*this);
  return vfs_->unlink(path);
}

Status Kernel::sys_rename(std::string_view from, std::string_view to) {
  SvcScope svc(*this);
  return vfs_->rename(from, to);
}

Status Kernel::sys_mkdir(std::string_view path) {
  SvcScope svc(*this);
  Result<u64> r = vfs_->mkdir(path);
  return r.ok() ? Status::Ok() : r.status();
}

Status Kernel::sys_write(u64 ino, u64 offset, const void* data, u64 len) {
  SvcScope svc(*this);
  return vfs_->write_file(ino, offset, data, len);
}

Status Kernel::sys_read(u64 ino, u64 offset, void* out, u64 len) {
  SvcScope svc(*this);
  return vfs_->read_file(ino, offset, out, len);
}

// --- Signals ------------------------------------------------------------------

Status Kernel::sys_sigaction(unsigned sig, u64 handler) {
  SvcScope svc(*this);
  touch_kernel_ws(config_.costs.ws_sigaction);
  return procs_->sigaction(procs_->current(), sig, handler);
}

Status Kernel::sys_kill_self(unsigned sig) {
  SvcScope svc(*this);
  touch_kernel_ws(config_.costs.ws_signal);
  return procs_->deliver_signal(procs_->current(), sig);
}

// --- IPC ----------------------------------------------------------------------

Result<u32> Kernel::sys_pipe() {
  SvcScope svc(*this);
  return ipc_->create_pipe();
}

Status Kernel::sys_pipe_write(u32 id, VirtAddr user_buf, u64 len) {
  SvcScope svc(*this);
  touch_kernel_ws(config_.costs.ws_pipe);
  IpcBuf buf;
  u8* data = buf.get(len);
  if (Status s = procs_->touch_page(user_buf, false); !s.ok()) return s;
  machine_.read_block_bulk(user_buf, data, len, /*user=*/true);
  return ipc_->pipe_write(id, data, len);
}

Result<u64> Kernel::sys_pipe_read(u32 id, VirtAddr user_buf, u64 len) {
  SvcScope svc(*this);
  touch_kernel_ws(config_.costs.ws_pipe);
  IpcBuf buf;
  u8* data = buf.get(len);
  Result<u64> got = ipc_->pipe_read(id, data, len);
  if (!got.ok()) return got;
  if (Status s = procs_->touch_page(user_buf, true); !s.ok()) return s;
  machine_.write_block_bulk(user_buf, data, got.value(), /*user=*/true);
  return got;
}

Result<u32> Kernel::sys_socketpair() {
  SvcScope svc(*this);
  return ipc_->create_socket_pair();
}

Status Kernel::sys_socket_send(u32 id, unsigned end, VirtAddr user_buf,
                               u64 len) {
  SvcScope svc(*this);
  touch_kernel_ws(config_.costs.ws_socket);
  IpcBuf buf;
  u8* data = buf.get(len);
  if (Status s = procs_->touch_page(user_buf, false); !s.ok()) return s;
  machine_.read_block_bulk(user_buf, data, len, /*user=*/true);
  return ipc_->socket_send(id, end, data, len);
}

Result<u64> Kernel::sys_socket_recv(u32 id, unsigned end, VirtAddr user_buf,
                                    u64 len) {
  SvcScope svc(*this);
  touch_kernel_ws(config_.costs.ws_socket);
  IpcBuf buf;
  u8* data = buf.get(len);
  Result<u64> got = ipc_->socket_recv(id, end, data, len);
  if (!got.ok()) return got;
  if (Status s = procs_->touch_page(user_buf, true); !s.ok()) return s;
  machine_.write_block_bulk(user_buf, data, got.value(), /*user=*/true);
  return got;
}

// --- Processes ----------------------------------------------------------------

Result<u32> Kernel::sys_fork() {
  SvcScope svc(*this);
  touch_kernel_ws(config_.costs.ws_fork);
  Result<Task*> child = procs_->fork(procs_->current());
  if (!child.ok()) return child.status();
  return child.value()->pid;
}

Status Kernel::sys_execve() {
  SvcScope svc(*this);
  touch_kernel_ws(config_.costs.ws_exec);
  return procs_->execve(procs_->current(), config_.image);
}

Status Kernel::sys_exit() {
  SvcScope svc(*this);
  touch_kernel_ws(config_.costs.ws_exit);
  return procs_->exit_task(procs_->current());
}

Status Kernel::sys_setuid(u64 uid) {
  SvcScope svc(*this);
  return procs_->setuid(procs_->current(), uid);
}

Result<LoadedModule> Kernel::sys_insmod(const ModuleImage& image) {
  SvcScope svc(*this);
  touch_kernel_ws(config_.costs.ws_exec);
  return modules_->load(image);
}

Status Kernel::sys_rmmod(const std::string& name) {
  SvcScope svc(*this);
  touch_kernel_ws(config_.costs.ws_exec / 2);
  return modules_->unload(name);
}

Result<u64> Kernel::sys_module_call(const std::string& name, u64 hook) {
  SvcScope svc(*this);
  return modules_->call_hook(name, hook);
}

Result<VirtAddr> Kernel::sys_mmap(u64 len, bool writable) {
  SvcScope svc(*this);
  touch_kernel_ws(config_.costs.ws_mmap);
  return procs_->mmap(procs_->current(), len, writable);
}

Result<VirtAddr> Kernel::sys_mmap_file(u64 ino, u64 len, bool writable) {
  SvcScope svc(*this);
  touch_kernel_ws(config_.costs.ws_mmap);
  return procs_->mmap_file(procs_->current(), ino, len, writable);
}

Status Kernel::sys_munmap(VirtAddr va, u64 len) {
  SvcScope svc(*this);
  touch_kernel_ws(config_.costs.ws_munmap);
  return procs_->munmap(procs_->current(), va, len);
}

// --- EL0 execution ---------------------------------------------------------------

void Kernel::run_user_compute(Cycles cycles) {
  // Ticks fire against the *active* core's timer line; on SMP each core
  // keeps its own next-tick deadline on the shared global clock.
  if (next_tick_at_.empty()) next_tick_at_.assign(machine_.cores(), 0);
  Cycles& next_tick = next_tick_at_[machine_.active_core()];
  Cycles remaining = cycles;
  while (remaining > 0) {
    const Cycles now = machine_.account().cycles();
    if (now >= next_tick) {
      ++timer_ticks_;
      next_tick = now + config_.timer_period;
      machine_.raise_irq(sim::kIrqTimer);
      continue;
    }
    const Cycles slice = std::min<Cycles>(remaining, next_tick - now);
    machine_.advance(slice);
    remaining -= slice;
  }
}

Status Kernel::run_user_memory(u64 count, u64 span_pages, u64 seed) {
  Task& task = procs_->current();
  assert(!task.vmas.empty());
  const Vma& heap = task.vmas[1];  // data segment
  const u64 pages = std::min<u64>(span_pages, (heap.end - heap.start) >> kPageShift);
  SplitMix64 rng(seed);
  for (u64 i = 0; i < count; ++i) {
    const VirtAddr va = heap.start + rng.next_below(pages) * kPageSize +
                        rng.next_below(kPageSize / kWordSize) * kWordSize;
    if (rng.chance(1, 3)) {
      if (Status s = procs_->user_write64(va, rng.next()); !s.ok()) return s;
    } else {
      Result<u64> r = procs_->user_read64(va);
      if (!r.ok()) return r.status();
    }
    // Interleave a dollop of compute so ticks fire at realistic density.
    if (i % 64 == 0) run_user_compute(64 * 40);
  }
  return Status::Ok();
}

}  // namespace hn::kernel
