#include "kernel/process.h"

#include <cassert>
#include <cstring>

#include "common/log.h"
#include "kernel/objects.h"
#include "sim/sysregs.h"

namespace hn::kernel {

using sim::PageAttrs;

namespace {
constexpr PageAttrs user_attrs(bool writable, bool executable) {
  return PageAttrs{.write = writable,
                   .exec = executable,
                   .user = true,
                   .global = false,
                   .attr = sim::MemAttr::kNormalCacheable};
}
}  // namespace

ProcessManager::ProcessManager(sim::Machine& machine, BuddyAllocator& buddy,
                               PageTableManager& kpt, SlabCache& cred_slab,
                               const KernelCosts& costs)
    : machine_(machine), buddy_(buddy), kpt_(kpt), cred_slab_(cred_slab),
      costs_(costs) {
  current_.assign(machine_.cores(), nullptr);
  rq_lock_.bind(machine_);
  // Per-CPU runqueue depth as level tracks: architectural state that
  // snapshots restore, so levels (unlike counters) need no delta trick.
  for (unsigned core = 0; core < machine_.cores(); ++core) {
    machine_.timeseries().enroll(
        "sim.core" + std::to_string(core) + ".runqueue",
        obs::TrackKind::kLevel, [this, core] { return runqueue_len(core); });
  }
}

ProcessManager::~ProcessManager() {
  for (unsigned core = 0; core < current_.size(); ++core) {
    machine_.timeseries().unenroll_prefix("sim.core" + std::to_string(core) +
                                          ".runqueue");
  }
}

unsigned ProcessManager::pick_cpu() const {
  if (current_.size() < 2) return 0;
  std::vector<u64> load(current_.size(), 0);
  for (const auto& [pid, task] : tasks_) {
    if (task->alive) ++load[task->cpu];
  }
  unsigned best = 0;
  for (unsigned c = 1; c < load.size(); ++c) {
    if (load[c] < load[best]) best = c;
  }
  return best;
}

u64 ProcessManager::runqueue_len(unsigned core) const {
  u64 n = 0;
  for (const auto& [pid, task] : tasks_) {
    if (task->alive && task->cpu == core) ++n;
  }
  return n;
}

void ProcessManager::write_cred_word(VirtAddr cred, u64 word, u64 value) {
  [[maybe_unused]] const sim::Access64 r =
      machine_.write64(cred + word * kWordSize, value);
  assert(r.ok && "cred slab pages must stay writable");
}

Result<VirtAddr> ProcessManager::make_cred(u64 uid, u64 gid) {
  Result<VirtAddr> obj = cred_slab_.alloc();
  if (!obj.ok()) return obj;
  const VirtAddr c = obj.value();
  using C = CredLayout;
  write_cred_word(c, C::kUsage, 1);
  write_cred_word(c, C::kUid, uid);
  write_cred_word(c, C::kGid, gid);
  write_cred_word(c, C::kSuid, uid);
  write_cred_word(c, C::kSgid, gid);
  write_cred_word(c, C::kEuid, uid);
  write_cred_word(c, C::kEgid, gid);
  write_cred_word(c, C::kFsuid, uid);
  write_cred_word(c, C::kFsgid, gid);
  write_cred_word(c, C::kSecurebits, 0);
  const u64 caps = (uid == 0) ? ~u64{0} : 0;
  write_cred_word(c, C::kCapInheritable, 0);
  write_cred_word(c, C::kCapPermitted, caps);
  write_cred_word(c, C::kCapEffective, caps);
  return c;
}

void ProcessManager::cred_get(VirtAddr cred) {
  const sim::Access64 u = machine_.read64(cred + CredLayout::kUsage * kWordSize);
  assert(u.ok);
  write_cred_word(cred, CredLayout::kUsage, u.value + 1);
}

void ProcessManager::cred_put(VirtAddr cred) {
  const sim::Access64 u = machine_.read64(cred + CredLayout::kUsage * kWordSize);
  assert(u.ok && u.value >= 1);
  write_cred_word(cred, CredLayout::kUsage, u.value - 1);
  if (u.value - 1 == 0) {
    // RCU-deferred free in Linux; immediate here, with the rcu-head write
    // the deferral would perform.
    write_cred_word(cred, CredLayout::kRcuHead0, cred ^ 0x4C55);
    cred_slab_.free(cred);
  }
}

Status ProcessManager::setuid(Task& task, u64 uid) {
  using C = CredLayout;
  write_cred_word(task.cred, C::kUid, uid);
  write_cred_word(task.cred, C::kEuid, uid);
  write_cred_word(task.cred, C::kSuid, uid);
  write_cred_word(task.cred, C::kFsuid, uid);
  const u64 caps = (uid == 0) ? ~u64{0} : 0;
  write_cred_word(task.cred, C::kCapPermitted, caps);
  write_cred_word(task.cred, C::kCapEffective, caps);
  return Status::Ok();
}

Result<u64> ProcessManager::cred_uid(const Task& task) {
  const sim::Access64 r =
      machine_.read64(task.cred + CredLayout::kUid * kWordSize);
  if (!r.ok) return Status::Internal("cred read failed");
  return r.value;
}

void ProcessManager::frame_ref(PhysAddr frame) { ++frame_refs_[frame]; }

void ProcessManager::frame_unref(PhysAddr frame) {
  auto it = frame_refs_.find(frame);
  assert(it != frame_refs_.end());
  if (--it->second == 0) {
    frame_refs_.erase(it);
    buddy_.free_page(frame);
    machine_.advance(costs_.page_free);
  }
}

u64 ProcessManager::frame_refs(PhysAddr frame) const {
  auto it = frame_refs_.find(frame);
  return it == frame_refs_.end() ? 0 : it->second;
}

Result<Task*> ProcessManager::make_task() {
  auto task = std::make_unique<Task>();
  task->pid = next_pid_++;
  task->asid = static_cast<u16>(task->pid);
  Result<PhysAddr> root = kpt_.alloc_user_root();
  if (!root.ok()) return root.status();
  task->ttbr0 = root.value();
  // Per-task kernel stack: a fresh order-2 block, zeroed through the
  // linear map (its alloc/free churn is what stage-2 laziness re-faults
  // on under KVM).
  Result<PhysAddr> kstack = buddy_.alloc_pages(2);
  if (!kstack.ok()) {
    kpt_.free_user_root(root.value());
    return kstack.status();
  }
  task->kstack = kstack.value();
  machine_.advance(costs_.page_alloc);
  machine_.zero_block_bulk(phys_to_virt(task->kstack), 4 * kPageSize);
  Task* raw = task.get();
  tasks_[task->pid] = std::move(task);
  return raw;
}

Status ProcessManager::map_fresh_page(Task& task, VirtAddr page_va,
                                      bool writable, bool executable) {
  Result<PhysAddr> frame = buddy_.alloc_page();
  if (!frame.ok()) return frame.status();
  machine_.advance(costs_.page_alloc);
  // Zero through the linear map (charged bulk path).
  machine_.zero_block_bulk(phys_to_virt(frame.value()), kPageSize);
  frame_ref(frame.value());
  return kpt_.map_page(task.ttbr0, page_va, frame.value(),
                       user_attrs(writable, executable));
}

Status ProcessManager::map_segments(Task& task, const ProcImage& image,
                                    bool eager) {
  const Vma text{kUserTextBase, kUserTextBase + image.text_pages * kPageSize,
                 false, true};
  const Vma data{kUserHeapBase, kUserHeapBase + image.data_pages * kPageSize,
                 true, false};
  const VirtAddr stack_low = kUserStackTop - image.stack_pages * kPageSize;
  const Vma stack{stack_low, kUserStackTop, true, false};
  task.vmas = {text, data, stack};
  task.signal_sp = kUserStackTop - 256;
  if (eager) {
    for (const Vma& vma : task.vmas) {
      for (VirtAddr va = vma.start; va < vma.end; va += kPageSize) {
        if (Status s = map_fresh_page(task, va, vma.writable, vma.executable);
            !s.ok()) {
          return s;
        }
      }
    }
    return Status::Ok();
  }
  // Lazy (execve): populate only the entry pages; the rest demand-faults,
  // as a real ELF loader behaves.
  struct Seed {
    VirtAddr va;
    bool writable;
    bool executable;
  };
  const Seed seeds[] = {
      {text.start, false, true},
      {data.start, true, false},
      {stack.end - kPageSize, true, false},
  };
  for (const Seed& seed : seeds) {
    if (Status s = map_fresh_page(task, seed.va, seed.writable,
                                  seed.executable);
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Result<Task*> ProcessManager::boot_init_process(const ProcImage& image) {
  Result<Task*> task = make_task();
  if (!task.ok()) return task;
  Task* t = task.value();
  Result<VirtAddr> cred = make_cred(0, 0);
  if (!cred.ok()) return cred.status();
  t->cred = cred.value();
  if (Status s = map_segments(*t, image, /*eager=*/true); !s.ok()) return s;
  current_[0] = t;  // PID 1 boots on the boot CPU
  machine_.set_sysreg_raw(sim::SysReg::TTBR0_EL1, ttbr0_value(*t));
  return t;
}

Result<Task*> ProcessManager::fork(Task& parent) {
  machine_.advance(costs_.fork_base);
  // wake_up_new_task placement: the child lands on the least-loaded
  // runqueue, decided before it enters the task table.
  unsigned target_cpu;
  {
    SpinGuard rq(rq_lock_);
    target_cpu = pick_cpu();
  }
  Result<Task*> child_r = make_task();
  if (!child_r.ok()) return child_r;
  Task* child = child_r.value();
  child->cpu = static_cast<u8>(target_cpu);
  child->vmas = parent.vmas;
  child->sighandlers = parent.sighandlers;
  child->signal_sp = parent.signal_sp;
  child->mmap_next = parent.mmap_next;
  child->cred = parent.cred;
  cred_get(child->cred);  // fork shares the cred (refcount bump only)

  // On any mid-copy failure (OOM while building the child's tree) the
  // half-built child must be reaped completely, or it would leak frames
  // and a task-table slot.
  auto abort_fork = [&](Status s) -> Result<Task*> {
    teardown_mm(*child);
    buddy_.free_pages(child->kstack, 2);
    cred_put(child->cred);
    child->alive = false;
    tasks_.erase(child->pid);
    return s;
  };

  // Copy the address space with COW semantics: downgrade writable parent
  // PTEs to read-only, then share every frame read-only with the child.
  for (const Vma& vma : parent.vmas) {
    for (VirtAddr va = vma.start; va < vma.end; va += kPageSize) {
      const PageTableManager::SwWalk w = kpt_.walk(parent.ttbr0, va);
      if (!w.ok || w.level != 3) continue;  // not faulted in yet
      const PhysAddr frame = sim::desc_out_addr(w.desc);
      const PageAttrs attrs = sim::decode_attrs(w.desc);
      if (attrs.write) {
        if (Status s = kpt_.set_page_attrs(
                parent.ttbr0, va, user_attrs(false, attrs.exec));
            !s.ok()) {
          return abort_fork(s);
        }
      }
      if (Status s = kpt_.map_page(child->ttbr0, va, frame,
                                   user_attrs(false, attrs.exec));
          !s.ok()) {
        return abort_fork(s);
      }
      frame_ref(frame);
    }
  }
  return child;
}

Status ProcessManager::teardown_mm(Task& task) {
  // zap_pte_range analogue: drop every mapped frame's reference, then free
  // the translation tree itself.  File-backed frames belong to the page
  // cache and are not released here.
  for (const Vma& vma : task.vmas) {
    for (VirtAddr va = vma.start; va < vma.end; va += kPageSize) {
      const PageTableManager::SwWalk w = kpt_.walk(task.ttbr0, va);
      if (!w.ok || w.level != 3) continue;
      if (vma.file_ino == 0) frame_unref(sim::desc_out_addr(w.desc));
    }
  }
  kpt_.free_user_tree(task.ttbr0, /*free_leaf_frames=*/false);
  task.ttbr0 = 0;
  task.vmas.clear();
  return Status::Ok();
}

Status ProcessManager::execve(Task& task, const ProcImage& image) {
  machine_.advance(costs_.execve_base);
  // prepare_creds + commit_creds: a fresh cred object is initialised (the
  // sensitive-word writes Table 2's exec-heavy workloads exhibit).
  const sim::Access64 uid =
      machine_.read64(task.cred + CredLayout::kUid * kWordSize);
  const sim::Access64 gid =
      machine_.read64(task.cred + CredLayout::kGid * kWordSize);
  if (!uid.ok || !gid.ok) return Status::Internal("cred read failed");
  Result<VirtAddr> fresh = make_cred(uid.value, gid.value);
  if (!fresh.ok()) return fresh.status();
  cred_put(task.cred);
  task.cred = fresh.value();

  if (Status s = teardown_mm(task); !s.ok()) return s;
  Result<PhysAddr> root = kpt_.alloc_user_root();
  if (!root.ok()) return root.status();
  task.ttbr0 = root.value();
  task.sighandlers.fill(0);
  if (Status s = map_segments(task, image, /*eager=*/false); !s.ok()) return s;
  if (current_[machine_.active_core()] == &task) {
    machine_.write_sysreg_el1(sim::SysReg::TTBR0_EL1, ttbr0_value(task));
  }
  return Status::Ok();
}

Status ProcessManager::exit_task(Task& task) {
  machine_.advance(costs_.exit_base);
  assert(task.alive);
  if (Status s = teardown_mm(task); !s.ok()) return s;
  buddy_.free_pages(task.kstack, 2);
  machine_.advance(costs_.page_free);
  task.kstack = 0;
  cred_put(task.cred);
  task.cred = 0;
  task.alive = false;
  const u32 pid = task.pid;
  for (Task*& slot : current_) {
    if (slot == &task) slot = nullptr;
  }
  tasks_.erase(pid);
  return Status::Ok();
}

void ProcessManager::switch_to(Task& task) {
  assert(task.alive);
  // SMP migration: execution follows the task to its scheduled CPU before
  // this becomes that CPU's runqueue switch.
  if (machine_.cores() > 1 && task.cpu != machine_.active_core()) {
    machine_.set_active_core(task.cpu);
  }
  Task*& running = current_[machine_.active_core()];
  if (running == &task) return;
  SpinGuard rq(rq_lock_);
  machine_.charge_context_switch();
  machine_.trace().record(machine_.account().cycles(),
                          sim::TraceKind::kCtxSwitch, task.asid, 0);
  touch_ws(costs_.ws_switch);
  // In a KVM guest, roughly every other blocking switch drains the
  // runqueue and idles: the WFI traps to the hypervisor (HCR_EL2.TWI),
  // costing a world switch — the dominant guest IPC overhead.
  if (machine_.guest_mode() && (++switch_serial_ & 1) == 0) {
    machine_.charge_wfi_trap();
  }
  running = &task;
  machine_.write_sysreg_el1(sim::SysReg::TTBR0_EL1, ttbr0_value(task));
}

Task* ProcessManager::find(u32 pid) {
  auto it = tasks_.find(pid);
  return it == tasks_.end() ? nullptr : it->second.get();
}

u64 ProcessManager::live_tasks() const { return tasks_.size(); }

std::vector<Task*> ProcessManager::all_tasks() const {
  std::vector<Task*> out;
  out.reserve(tasks_.size());
  for (const auto& [pid, task] : tasks_) out.push_back(task.get());
  return out;
}

Vma* ProcessManager::vma_of(Task& task, VirtAddr va) {
  for (Vma& vma : task.vmas) {
    if (va >= vma.start && va < vma.end) return &vma;
  }
  return nullptr;
}

Status ProcessManager::handle_translation_fault(Task& task, VirtAddr va,
                                                bool write) {
  machine_.advance(costs_.page_fault_base);
  touch_ws(costs_.ws_fault);
  Vma* vma = vma_of(task, va);
  if (vma == nullptr) {
    return Status::Denied("segfault: no vma covers the address");
  }
  if (write && !vma->writable) return Status::Denied("segfault: write to RO vma");
  const VirtAddr page_va = page_align_down(va);
  if (vma->file_ino != 0) {
    // File-backed: install the (stable) page-cache frame — no allocation,
    // no zeroing, no frame reference (the page cache owns it).
    if (!file_pages_) return Status::Internal("no file page provider");
    const u64 pgoff = vma->file_pgoff + ((page_va - vma->start) >> kPageShift);
    Result<PhysAddr> frame = file_pages_(vma->file_ino, pgoff);
    if (!frame.ok()) return frame.status();
    return kpt_.map_page(task.ttbr0, page_va, frame.value(),
                         user_attrs(vma->writable, vma->executable));
  }
  return map_fresh_page(task, page_va, vma->writable, vma->executable);
}

Status ProcessManager::handle_cow_fault(Task& task, VirtAddr va) {
  machine_.advance(costs_.page_fault_base);
  touch_ws(costs_.ws_fault);
  Vma* vma = vma_of(task, va);
  if (vma == nullptr || !vma->writable) {
    return Status::Denied("segfault: write permission");
  }
  const VirtAddr page_va = page_align_down(va);
  const PageTableManager::SwWalk w = kpt_.walk(task.ttbr0, page_va);
  if (!w.ok || w.level != 3) return Status::Internal("cow: no mapping");
  const PhysAddr frame = sim::desc_out_addr(w.desc);
  const PageAttrs attrs = sim::decode_attrs(w.desc);

  if (frame_refs(frame) <= 1) {
    // Sole owner: write access can simply be restored.
    return kpt_.set_page_attrs(task.ttbr0, page_va,
                               user_attrs(true, attrs.exec));
  }
  Result<PhysAddr> copy = buddy_.alloc_page();
  if (!copy.ok()) return copy.status();
  machine_.advance(costs_.page_alloc);
  // copy_user_highpage analogue via the linear map.
  std::array<u8, kPageSize> buf;
  machine_.read_block_bulk(phys_to_virt(frame), buf.data(), kPageSize);
  machine_.write_block_bulk(phys_to_virt(copy.value()), buf.data(), kPageSize);
  frame_ref(copy.value());
  if (Status s = kpt_.map_page(task.ttbr0, page_va, copy.value(),
                               user_attrs(true, attrs.exec));
      !s.ok()) {
    return s;
  }
  frame_unref(frame);
  return Status::Ok();
}

Status ProcessManager::touch_page(VirtAddr va, bool write) {
  Task& task = current();
  for (int attempt = 0; attempt < 3; ++attempt) {
    sim::AccessType at;
    at.is_write = write;
    at.is_user = true;
    const sim::TranslateOutcome out = machine_.probe(page_align_down(va), at);
    if (out.ok) return Status::Ok();
    Status handled = Status::Internal("unhandled fault");
    if (out.fault.type == sim::FaultType::kTranslation) {
      handled = handle_translation_fault(task, va, write);
    } else if (out.fault.type == sim::FaultType::kPermission && write) {
      handled = handle_cow_fault(task, va);
    }
    if (!handled.ok()) return handled;
  }
  return Status::Internal("fault loop did not converge");
}

Status ProcessManager::user_write64(VirtAddr va, u64 value) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    const sim::Access64 r = machine_.write64(va, value, /*user=*/true);
    if (r.ok) return Status::Ok();
    Status handled = Status::Internal("unhandled fault");
    if (r.fault.type == sim::FaultType::kTranslation) {
      handled = handle_translation_fault(current(), va, /*write=*/true);
    } else if (r.fault.type == sim::FaultType::kPermission) {
      handled = handle_cow_fault(current(), va);
    }
    if (!handled.ok()) return handled;
  }
  return Status::Internal("fault loop did not converge");
}

Result<u64> ProcessManager::user_read64(VirtAddr va) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    const sim::Access64 r = machine_.read64(va, /*user=*/true);
    if (r.ok) return r.value;
    if (r.fault.type != sim::FaultType::kTranslation) {
      return Status::Denied("segfault on read");
    }
    if (Status s = handle_translation_fault(current(), va, /*write=*/false);
        !s.ok()) {
      return s;
    }
  }
  return Status::Internal("fault loop did not converge");
}

Result<VirtAddr> ProcessManager::mmap(Task& task, u64 len, bool writable) {
  machine_.advance(costs_.mmap_base);
  len = page_align_up(len);
  const VirtAddr base = task.mmap_next;
  task.mmap_next += len + kPageSize;  // guard gap
  task.vmas.push_back(Vma{base, base + len, writable, false, 0, 0});
  return base;  // pages fault in on demand
}

Result<VirtAddr> ProcessManager::mmap_file(Task& task, u64 ino, u64 len,
                                           bool writable) {
  machine_.advance(costs_.mmap_base);
  len = page_align_up(len);
  const VirtAddr base = task.mmap_next;
  task.mmap_next += len + kPageSize;
  task.vmas.push_back(Vma{base, base + len, writable, false, ino, 0});
  return base;
}

Status ProcessManager::munmap(Task& task, VirtAddr va, u64 len) {
  machine_.advance(costs_.munmap_base);
  touch_ws(costs_.ws_munmap);
  len = page_align_up(len);
  const Vma* vma = vma_of(task, va);
  const bool file_backed = vma != nullptr && vma->file_ino != 0;
  for (VirtAddr p = va; p < va + len; p += kPageSize) {
    PhysAddr old = 0;
    if (kpt_.unmap_page(task.ttbr0, p, &old).ok() && !file_backed) {
      frame_unref(old);
    }
  }
  for (auto it = task.vmas.begin(); it != task.vmas.end(); ++it) {
    if (it->start == va && it->end == va + len) {
      task.vmas.erase(it);
      return Status::Ok();
    }
  }
  return Status::NotFound("munmap: no exact vma match");
}

Status ProcessManager::sigaction(Task& task, unsigned sig, u64 handler) {
  if (sig >= task.sighandlers.size()) return Status::Invalid("bad signal");
  machine_.advance(costs_.sigaction_base);
  task.sighandlers[sig] = handler;
  return Status::Ok();
}

Status ProcessManager::deliver_signal(Task& task, unsigned sig) {
  if (sig >= task.sighandlers.size()) return Status::Invalid("bad signal");
  if (task.sighandlers[sig] == 0) return Status::Ok();  // default: ignore
  machine_.advance(costs_.signal_deliver_base);
  assert(current_[machine_.active_core()] == &task &&
         "signal delivery modelled on-CPU only");
  // Push the signal frame (saved context) onto the user stack, run the
  // handler (empty body, LMbench-style), then restore from the frame.
  const VirtAddr frame = task.signal_sp - 16 * kWordSize;
  for (unsigned w = 0; w < 16; ++w) {
    if (Status s = user_write64(frame + w * kWordSize, 0x5160'0000 + w);
        !s.ok()) {
      return s;
    }
  }
  for (unsigned w = 0; w < 16; ++w) {
    Result<u64> r = user_read64(frame + w * kWordSize);
    if (!r.ok()) return r.status();
  }
  return Status::Ok();
}

}  // namespace hn::kernel
