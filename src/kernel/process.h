// Process management: tasks, per-process address spaces (real TTBR0 trees),
// fork with copy-on-write, execve, demand paging, signals, and the cred
// lifecycle.
//
// Evaluation-relevant behaviour:
//  * fork/exit drive the page-table write traffic that makes Table 1's
//    fork rows the worst case under Hypernel (one hypercall per descriptor
//    write) and under KVM (stage-2 fault churn);
//  * an address-space switch is one TTBR0_EL1 write — a TVM trap under
//    Hypernel, which is where the pipe/socket latency deltas come from;
//  * cred objects are monitored slab objects: refcount churn on fork/exit
//    (non-sensitive) vs uid/cap updates on exec/setuid (sensitive).
#pragma once

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "kernel/buddy.h"
#include "kernel/costs.h"
#include "kernel/kpt.h"
#include "kernel/layout.h"
#include "kernel/slab.h"
#include "kernel/spinlock.h"
#include "sim/machine.h"

namespace hn::kernel {

/// Segment sizes of the synthetic process image (pages mapped eagerly at
/// process creation; LMbench's lat_proc forks a process of this size).
struct ProcImage {
  unsigned text_pages = 28;
  unsigned data_pages = 20;
  unsigned stack_pages = 10;
};

struct Vma {
  VirtAddr start = 0;
  VirtAddr end = 0;
  bool writable = false;
  bool executable = false;
  u64 file_ino = 0;   // nonzero: file-backed (page-cache frames)
  u64 file_pgoff = 0;
};

struct Task {
  u32 pid = 0;
  u16 asid = 0;
  PhysAddr ttbr0 = 0;
  PhysAddr kstack = 0;  // 4-page kernel stack (order-2 buddy block)
  std::vector<Vma> vmas;
  VirtAddr cred = 0;  // cred slab object (simulated memory)
  std::array<u64, 32> sighandlers{};
  VirtAddr signal_sp = 0;  // user stack pointer for signal frames
  VirtAddr mmap_next = kUserMmapBase;
  u8 cpu = 0;  // scheduled CPU (always 0 on single-core machines)
  bool alive = true;
};

class ProcessManager {
 public:
  ProcessManager(sim::Machine& machine, BuddyAllocator& buddy,
                 PageTableManager& kpt, SlabCache& cred_slab,
                 const KernelCosts& costs);
  ~ProcessManager();

  ProcessManager(const ProcessManager&) = delete;
  ProcessManager& operator=(const ProcessManager&) = delete;

  /// Kernel working-set toucher (installed by Kernel::boot).
  void set_ws_toucher(std::function<void(u64)> fn) {
    ws_touch_ = std::move(fn);
  }

  /// Create and switch to PID 1 with the given image, running as root.
  Result<Task*> boot_init_process(const ProcImage& image);

  Result<Task*> fork(Task& parent);
  Status execve(Task& task, const ProcImage& image);
  /// Tear down the task's address space and drop its cred reference.
  Status exit_task(Task& task);
  /// Address-space switch: runqueue cost + one TTBR0_EL1 write.  On an
  /// SMP machine the caller-side migration happens first: if the task is
  /// scheduled on another CPU, execution moves there (set_active_core)
  /// before the switch proceeds on that CPU's runqueue.
  void switch_to(Task& task);

  /// The task running on the *active* core.
  Task& current() { return *current_[machine_.active_core()]; }
  /// The task running on `core` (nullptr when its runqueue idles).
  [[nodiscard]] Task* current_on(unsigned core) const {
    return current_[core];
  }
  /// Live tasks scheduled on `core` (its runqueue length).
  [[nodiscard]] u64 runqueue_len(unsigned core) const;
  /// Least-loaded CPU by runqueue length, lowest index breaking ties —
  /// the wake_up placement policy.  Always 0 on single-core machines.
  [[nodiscard]] unsigned pick_cpu() const;
  Task* find(u32 pid);
  [[nodiscard]] u64 live_tasks() const;
  /// All live tasks (Hypersec's boot inventory of user roots).
  [[nodiscard]] std::vector<Task*> all_tasks() const;

  // --- User memory ----------------------------------------------------------
  /// Write/read with demand paging and COW handling, as the hardware +
  /// kernel fault path would resolve them.
  Status user_write64(VirtAddr va, u64 value);
  Result<u64> user_read64(VirtAddr va);
  /// Fault in the page containing `va` (for write access when `write`).
  Status touch_page(VirtAddr va, bool write);

  Result<VirtAddr> mmap(Task& task, u64 len, bool writable);
  /// Map `len` bytes of file `ino` (shared, page-cache backed).
  Result<VirtAddr> mmap_file(Task& task, u64 ino, u64 len, bool writable);
  Status munmap(Task& task, VirtAddr va, u64 len);

  /// Page-cache lookup used to service file-backed faults (installed by
  /// Kernel::boot; keeps this module independent of the VFS).
  void set_file_page_provider(
      std::function<Result<PhysAddr>(u64 ino, u64 pgoff)> fn) {
    file_pages_ = std::move(fn);
  }

  // --- Signals ---------------------------------------------------------------
  Status sigaction(Task& task, unsigned sig, u64 handler);
  /// Deliver `sig` to the task now: frame push, handler body, sigreturn.
  Status deliver_signal(Task& task, unsigned sig);

  // --- Cred ------------------------------------------------------------------
  void cred_get(VirtAddr cred);
  void cred_put(VirtAddr cred);
  /// commit_creds-style identity change: sensitive-field writes.
  Status setuid(Task& task, u64 uid);
  Result<u64> cred_uid(const Task& task);

  [[nodiscard]] u64 frame_refs(PhysAddr frame) const;

  // --- Snapshot support (sim/snapshot.h) ------------------------------------

  void save_state(sim::SnapWriter& w) const {
    w.put_u64(tasks_.size());
    for (const auto& [pid, task] : tasks_) {
      w.put_u32(pid);
      w.put_u32(task->pid);
      w.put_u16(task->asid);
      w.put_u64(task->ttbr0);
      w.put_u64(task->kstack);
      w.put_u64(task->vmas.size());
      for (const Vma& vma : task->vmas) {
        w.put_u64(vma.start);
        w.put_u64(vma.end);
        w.put_bool(vma.writable);
        w.put_bool(vma.executable);
        w.put_u64(vma.file_ino);
        w.put_u64(vma.file_pgoff);
      }
      w.put_u64(task->cred);
      for (const u64 h : task->sighandlers) w.put_u64(h);
      w.put_u64(task->signal_sp);
      w.put_u64(task->mmap_next);
      w.put_u8(task->cpu);
      w.put_bool(task->alive);
    }
    w.put_u64(frame_refs_.size());
    for (const auto& [frame, refs] : frame_refs_) {
      w.put_u64(frame);
      w.put_u32(refs);
    }
    // One current pid per CPU runqueue (0 = idle).
    for (const Task* t : current_) w.put_u32(t ? t->pid : 0);
    w.put_u32(next_pid_);
    w.put_u64(switch_serial_);
    rq_lock_.save_state(w);
  }

  void restore_state(sim::SnapReader& r) {
    r.section("process");
    const u64 ntasks = r.get_count("task");
    tasks_.clear();
    std::fill(current_.begin(), current_.end(), nullptr);
    for (u64 i = 0; r.ok() && i < ntasks; ++i) {
      const u32 key = r.get_u32();
      auto task = std::make_unique<Task>();
      task->pid = r.get_u32();
      task->asid = r.get_u16();
      task->ttbr0 = r.get_u64();
      task->kstack = r.get_u64();
      const u64 nvmas = r.get_count("vma");
      task->vmas.reserve(r.ok() ? nvmas : 0);
      for (u64 v = 0; r.ok() && v < nvmas; ++v) {
        Vma vma;
        vma.start = r.get_u64();
        vma.end = r.get_u64();
        vma.writable = r.get_bool();
        vma.executable = r.get_bool();
        vma.file_ino = r.get_u64();
        vma.file_pgoff = r.get_u64();
        task->vmas.push_back(vma);
      }
      task->cred = r.get_u64();
      for (u64& h : task->sighandlers) h = r.get_u64();
      task->signal_sp = r.get_u64();
      task->mmap_next = r.get_u64();
      task->cpu = r.get_u8();
      if (r.ok() && task->cpu >= current_.size()) {
        r.fail("task pid " + std::to_string(task->pid) + " scheduled on cpu " +
               std::to_string(task->cpu) + " beyond this machine");
        return;
      }
      task->alive = r.get_bool();
      tasks_.emplace_hint(tasks_.end(), key, std::move(task));
    }
    const u64 nframes = r.get_count("frame ref");
    frame_refs_.clear();
    // Saved in ascending key order (std::map iteration), so the hinted
    // inserts are amortized O(1) — this is the biggest map a restore
    // reads.
    for (u64 i = 0; r.ok() && i < nframes; ++i) {
      const PhysAddr frame = r.get_u64();
      frame_refs_.emplace_hint(frame_refs_.end(), frame, r.get_u32());
    }
    for (Task*& slot : current_) {
      const u32 pid = r.get_u32();
      slot = nullptr;
      if (!r.ok() || pid == 0) continue;
      const auto it = tasks_.find(pid);
      if (it == tasks_.end()) {
        r.fail("current task pid " + std::to_string(pid) +
               " not present in the task table");
        return;
      }
      slot = it->second.get();
    }
    next_pid_ = r.get_u32();
    switch_serial_ = r.get_u64();
    rq_lock_.restore_state(r);
    if (r.ok()) check_tasks(r);
  }

 private:
  /// Restore check: a task's user root is a registered top-level table
  /// (or 0 once its address space is gone), and a live task's kernel
  /// stack is an allocated order-2 block.
  void check_tasks(sim::SnapReader& r) const {
    for (const auto& [pid, task] : tasks_) {
      const auto root = kpt_.pt_pages().find(task->ttbr0);
      if (task->ttbr0 != 0 &&
          (root == kpt_.pt_pages().end() || root->second != 0)) {
        r.fail("task pid " + std::to_string(pid) + " has user root " +
               std::to_string(task->ttbr0) + ", not a top-level table");
        return;
      }
      if (task->alive && !buddy_.is_allocated_block(task->kstack, 2)) {
        r.fail("task pid " + std::to_string(pid) + " has kernel stack " +
               std::to_string(task->kstack) + ", not an allocated block");
        return;
      }
    }
  }

  Result<VirtAddr> make_cred(u64 uid, u64 gid);
  void write_cred_word(VirtAddr cred, u64 word, u64 value);
  Result<Task*> make_task();
  void touch_ws(u64 n) {
    if (ws_touch_) ws_touch_(n);
  }
  /// Eager maps every segment page (boot); lazy maps only the entry pages
  /// and lets the rest demand-fault (execve, like a real ELF loader).
  Status map_segments(Task& task, const ProcImage& image, bool eager);
  Status map_fresh_page(Task& task, VirtAddr page_va, bool writable,
                        bool executable);
  Status teardown_mm(Task& task);
  Vma* vma_of(Task& task, VirtAddr va);
  Status handle_translation_fault(Task& task, VirtAddr va, bool write);
  Status handle_cow_fault(Task& task, VirtAddr va);
  void frame_ref(PhysAddr frame);
  void frame_unref(PhysAddr frame);
  [[nodiscard]] static u64 ttbr0_value(const Task& task) {
    return task.ttbr0 | (u64{task.asid} << 48);
  }

  sim::Machine& machine_;
  BuddyAllocator& buddy_;
  PageTableManager& kpt_;
  SlabCache& cred_slab_;
  const KernelCosts& costs_;
  std::map<u32, std::unique_ptr<Task>> tasks_;
  std::map<PhysAddr, u32> frame_refs_;  // shared COW frame refcounts
  std::vector<Task*> current_;  // per-CPU running task (index = core)
  SpinLock rq_lock_;            // global runqueue lock (pre-CFS idiom)
  u32 next_pid_ = 1;
  u64 switch_serial_ = 0;
  std::function<void(u64)> ws_touch_;
  std::function<Result<PhysAddr>(u64, u64)> file_pages_;
};

}  // namespace hn::kernel
