#include "fuzz/executor.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "common/hvc_abi.h"
#include "hypersec/hypersec.h"
#include "kernel/layout.h"
#include "kernel/objects.h"
#include "secapps/cfi_monitor.h"
#include "secapps/invariant_checker.h"
#include "sim/dma_device.h"
#include "sim/iommu.h"
#include "sim/pagetable.h"
#include "sim/trace_io.h"

namespace hn::fuzz {
namespace {

using kernel::CredLayout;
using kernel::DentryLayout;
using kernel::ObjectKind;

/// Normalized result constants for steps that do not execute.  They must
/// be configuration-independent so skipped steps compare equal.
constexpr u64 kSkipped = 0x534B'4950ull;        // op not applicable to state
constexpr u64 kHypernelOnly = 0x484E'4F50ull;   // op gated to Hypernel mode

constexpr u64 fold(u64 h, u64 w) { return hypernel::fnv_fold(h, w); }

u64 fold_status(u64 h, const Status& s) {
  return fold(h, static_cast<u64>(s.code()));
}

/// The integrity policy of ObjectIntegrityMonitor::verify, mirrored so the
/// executor can decide which attack writes *must* alert.  Kept in lockstep
/// with the monitor (guarded by the detection-completeness oracle itself:
/// a divergence shows up as a missed or spurious expectation).
bool policy_expects_alert(ObjectKind kind, u64 word, u64 old_value,
                          u64 new_value) {
  if (kind == ObjectKind::kCred) {
    if (word >= CredLayout::kUid && word <= CredLayout::kFsgid) {
      return new_value == 0 && old_value != 0;
    }
    if (word >= CredLayout::kCapInheritable &&
        word <= CredLayout::kCapEffective) {
      return new_value == ~0ull && old_value != 0 && old_value != ~0ull;
    }
    return false;
  }
  if (word == DentryLayout::kOp) {
    return new_value != kernel::kDentryOpsVtable && new_value != 0;
  }
  if (word == DentryLayout::kInode) {
    return old_value != 0 && new_value != 0 && new_value != old_value;
  }
  return false;
}

struct FileEnt {
  std::string path;
  u64 ino = 0;
};

struct Mapping {
  VirtAddr va = 0;
  u64 len = 0;
};

class Exec {
 public:
  Exec(const FuzzConfigSpec& spec, const ExecutorOptions& opt)
      : spec_(spec), opt_(opt) {}

  RunResult run(std::span<const Op> ops) {
    RunResult out;
    out.config = spec_.name;
    if (!prepare(out)) return out;

    out.steps.reserve(ops.size());
    // Cross-configuration op digest: hypernel-only probes fold as a
    // constant because their results are only comparable within the
    // Hypernel class (the differential oracle compares them separately).
    u64 digest = hypernel::kFnvOffset;
    for (size_t i = 0; i < ops.size(); ++i) {
      step_ = i;
      const bool traced = i == opt_.trace_step;
      u64 trace_mark = 0;
      if (traced) {
        m().trace().set_enabled(true);
        trace_mark = m().trace().sequence();
      }
      StepRecord rec;
      {
        obs::Scope scope(m().scopes(), obs::Layer::kFuzzStep);
        rec.result = execute(ops[i]);
      }
      if (traced) {
        for (const sim::TraceEvent& e : m().trace().since(trace_mark)) {
          char line[160];
          int n = std::snprintf(
              line, sizeof line, "%12llu cyc  #%-6llu %-8s a=%#llx b=%#llx",
              static_cast<unsigned long long>(e.at),
              static_cast<unsigned long long>(e.seq),
              sim::Trace::kind_name(e.kind),
              static_cast<unsigned long long>(e.a),
              static_cast<unsigned long long>(e.b));
          if (e.cause != sim::kNoCause && n > 0 &&
              static_cast<size_t>(n) < sizeof line) {
            std::snprintf(line + n, sizeof line - static_cast<size_t>(n),
                          "  <-#%llu",
                          static_cast<unsigned long long>(e.cause));
          }
          out.trace.emplace_back(line);
        }
        // Keep recording when the whole-run recorder is on.
        if (!opt_.capture_trace) m().trace().set_enabled(false);
      }
      rec.state_digest = state_digest();
      if (monitor_ || invariant_ || cfi_) {
        rec.alerts = total_alerts();
        rec.events = total_events();
      }
      out.steps.push_back(rec);
      digest = fold(
          digest, is_hypernel_only(ops[i].kind) ? kHypernelOnly : rec.result);
      digest = fold(digest, rec.state_digest);
      if (sys_->hypersec() &&
          (i % std::max(1u, opt_.audit_stride) == 0 || i + 1 == ops.size())) {
        audit();
      }
    }

    out.fingerprint = hypernel::take_fingerprint(*sys_);
    out.fingerprint.op_digest = digest;
    if (monitor_ || invariant_ || cfi_) {
      out.fingerprint.alerts = total_alerts();
      out.fingerprint.monitor_events = total_events();
    }
    out.violations = std::move(violations_);
    out.attacks_expected = attacks_expected_;
    out.attacks = std::move(attacks_);
    auto flatten = [&out](const char* detector,
                          const std::vector<secapps::Alert>& alerts) {
      for (const secapps::Alert& a : alerts) {
        out.alert_log.push_back(AlertRecord{detector, a.kind, a.pa, a.at});
      }
    };
    if (monitor_) flatten(monitor_->name(), monitor_->alerts());
    if (invariant_) flatten(invariant_->name(), invariant_->alerts());
    if (cfi_) flatten(cfi_->name(), cfi_->alerts());
    if (opt_.collect_metrics) out.metrics = sys_->metrics_snapshot();
    if (opt_.capture_trace) out.trace_blob = sim::capture_trace(m());
    if (opt_.sample_cycles != 0) {
      out.timeseries_blob = sim::capture_timeseries(m());
    }
    if (opt_.profile) out.profile = m().scopes().report();
    return out;
  }

 private:
  /// Boot the run's system, start its host clock and arm its sampler.
  /// Returns false with out.build_* set on failure.
  bool prepare(RunResult& out) {
    const u64 boot_start = obs::host_now_ns();
    if (Status s = boot(); !s.ok()) {
      out.build_failed = true;
      out.build_error = s.message();
      return false;
    }
    if (opt_.profile) {
      // System::create builds the machine this stack lives in, so the
      // host clock starts at boot_start with the boot as one scope.
      m().scopes().start_host_clock_at(boot_start, obs::Layer::kFuzzBoot);
    }
    // Arm the sampler at the op-phase start; sample boundaries are
    // absolute simulated cycles.
    if (opt_.sample_cycles != 0) m().arm_timeseries(opt_.sample_cycles);
    return true;
  }

  /// The one boot sequence: create -> object monitor -> invariant checker
  /// -> CFI monitor -> scratch mmap.  Metrics or trace capture enables the
  /// observability registry from System::create; trace capture turns the
  /// flight recorder on before the monitor installs, so region
  /// registration is part of the causal record.  Neither changes
  /// simulated state.
  Status boot() {
    hypernel::SystemConfig cfg = spec_.system_config();
    cfg.metrics = opt_.collect_metrics || opt_.capture_trace;
    auto built = hypernel::System::create(cfg);
    if (!built.ok()) return built.status();
    sys_ = std::move(built).value();
    if (opt_.capture_trace) m().trace().set_enabled(true);
    auto install = [](auto& app, const char* what) {
      Status s = app->install();
      if (s.ok()) return s;
      return Status(s.code(), std::string(what) + " install: " + s.message());
    };
    if (spec_.monitored()) {
      monitor_ = std::make_unique<secapps::ObjectIntegrityMonitor>(
          *sys_, spec_.granularity);
      if (Status s = install(monitor_, "monitor"); !s.ok()) return s;
    }
    if (spec_.has_invariant_checker()) {
      invariant_ = std::make_unique<secapps::InvariantChecker>(*sys_);
      if (Status s = install(invariant_, "invariant checker"); !s.ok()) {
        return s;
      }
    }
    if (spec_.has_cfi_monitor()) {
      cfi_ = std::make_unique<secapps::CfiMonitor>(
          *sys_, /*watch_dentry_ops=*/!spec_.monitored());
      if (Status s = install(cfi_, "cfi monitor"); !s.ok()) return s;
    }
    // Shared user scratch buffer for IPC payloads; part of every run, so
    // it is itself configuration-invariant.
    auto scratch = k().sys_mmap(4 * kPageSize, /*writable=*/true);
    if (!scratch.ok()) {
      return Status(scratch.status().code(),
                    "scratch mmap: " + scratch.status().message());
    }
    scratch_va_ = scratch.value();
    return Status::Ok();
  }

  kernel::Kernel& k() { return sys_->kernel(); }
  sim::Machine& m() { return sys_->machine(); }

  /// Alert/event totals across every installed detector.  With only the
  /// object monitor installed these equal the historic per-monitor counts,
  /// so pre-existing golden fingerprints are unchanged.
  u64 total_alerts() const {
    u64 n = 0;
    if (monitor_) n += monitor_->alerts().size();
    if (invariant_) n += invariant_->alerts().size();
    if (cfi_) n += cfi_->alerts().size();
    return n;
  }
  u64 total_events() const {
    u64 n = 0;
    if (monitor_) n += monitor_->stats().events_total;
    if (invariant_) n += invariant_->stats().events_total;
    if (cfi_) n += cfi_->stats().events_total;
    return n;
  }

  void violation(std::string what) {
    violations_.push_back("step " + std::to_string(step_) + ": " +
                          std::move(what));
  }

  void audit() {
    for (const hypersec::AuditFinding& f : sys_->hypersec()->audit_report()) {
      std::string msg = std::string("audit [") + audit_code_name(f.code) +
                        "] " + f.detail;
      if (audit_seen_.insert(msg).second) violation(std::move(msg));
    }
  }

  u64 state_digest() {
    kernel::Vfs& vfs = k().vfs();
    u64 h = hypernel::kFnvOffset;
    h = fold(h, vfs.ino_bound());
    h = fold(h, vfs.inode_count());
    h = fold(h, vfs.dcache_size());
    h = fold(h, k().procs().live_tasks());
    h = fold(h, k().modules().loaded_count());
    h = fold(h, k().procs().current().pid);
    return h;
  }

  // --- Parameter interpretation helpers -------------------------------------

  template <typename T>
  T* pick(std::vector<T>& v, u64 param) {
    if (v.empty()) return nullptr;
    return &v[param % v.size()];
  }

  kernel::Task* pick_task(u64 param) {
    std::vector<kernel::Task*> tasks = k().procs().all_tasks();
    if (tasks.empty()) return nullptr;
    return tasks[param % tasks.size()];
  }

  // --- The op interpreter ----------------------------------------------------

  u64 execute(const Op& op) {
    cur_kind_ = op.kind;
    if (is_hypernel_only(op.kind) && spec_.mode != hypernel::Mode::kHypernel) {
      return kHypernelOnly;
    }
    switch (op.kind) {
      case OpKind::kCreat: return do_creat(op);
      case OpKind::kMkdir: return do_mkdir();
      case OpKind::kUnlink: return do_unlink(op);
      case OpKind::kRename: return do_rename(op);
      case OpKind::kWriteFile: return do_write(op);
      case OpKind::kReadFile: return do_read(op);
      case OpKind::kStat: return do_stat(op);
      case OpKind::kPruneDcache: return do_prune(op);
      case OpKind::kMmap: return do_mmap(op);
      case OpKind::kMunmap: return do_munmap(op);
      case OpKind::kMmapFile: return do_mmap_file(op);
      case OpKind::kUserMemory: return do_user_memory(op);
      case OpKind::kUserCompute: return do_user_compute(op);
      case OpKind::kFork: return do_fork();
      case OpKind::kExecve: return fold_status(hypernel::kFnvOffset,
                                               k().sys_execve());
      case OpKind::kExit: return do_exit();
      case OpKind::kSwitchTask: return do_switch(op);
      case OpKind::kSetuid: return do_setuid(op);
      case OpKind::kSigaction: return do_sigaction(op);
      case OpKind::kKillSelf: return do_kill_self(op);
      case OpKind::kPipeRoundTrip: return do_pipe(op);
      case OpKind::kSocketRoundTrip: return do_socket(op);
      case OpKind::kInsmod: return do_insmod(op);
      case OpKind::kRmmod: return do_rmmod(op);
      case OpKind::kModuleCall: return do_module_call(op);
      case OpKind::kAttackCredWrite: return do_attack_cred(op);
      case OpKind::kAttackDentryWrite: return do_attack_dentry(op);
      case OpKind::kAttackDmaWrite: return do_attack_dma(op);
      case OpKind::kForgedPtWrite: return do_forged_pt_write(op);
      case OpKind::kForgedPtAlloc: return do_forged_pt_alloc(op);
      case OpKind::kForgedPtFree: return do_forged_pt_free(op);
      case OpKind::kForgedMonRegister: return do_forged_mon_register(op);
      case OpKind::kForgedModuleSeal: return do_forged_module_seal(op);
      case OpKind::kDirectPtWrite: return do_direct_pt_write(op);
      case OpKind::kTtbrHijack: return do_ttbr_hijack(op);
      case OpKind::kAttackSyscallPatch: return do_attack_syscall(op);
      case OpKind::kAttackVectorPatch: return do_attack_vector(op);
      case OpKind::kAttackModuleText: return do_attack_modtext(op);
      case OpKind::kAttackPtRemap: return do_attack_pt_remap(op);
      case OpKind::kCount: break;
    }
    return kSkipped;
  }

  // --- VFS -------------------------------------------------------------------

  u64 do_creat(const Op& op) {
    std::string parent;
    if (op.a % 4 == 0) {
      if (const std::string* d = pick(dirs_, op.b)) parent = *d;
    }
    const std::string path = parent + "/f" + std::to_string(file_serial_++);
    Result<u64> r = k().sys_creat(path);
    if (!r.ok()) return fold_status(hypernel::kFnvOffset, r.status());
    files_.push_back({path, r.value()});
    return fold(hypernel::kFnvOffset, r.value());
  }

  u64 do_mkdir() {
    const std::string path = "/d" + std::to_string(dir_serial_++);
    Status s = k().sys_mkdir(path);
    if (s.ok()) dirs_.push_back(path);
    return fold_status(hypernel::kFnvOffset, s);
  }

  u64 do_unlink(const Op& op) {
    if (files_.empty()) return kSkipped;
    const size_t idx = op.a % files_.size();
    Status s = k().sys_unlink(files_[idx].path);
    if (s.ok()) files_.erase(files_.begin() + static_cast<long>(idx));
    return fold_status(hypernel::kFnvOffset, s);
  }

  u64 do_rename(const Op& op) {
    if (files_.empty()) return kSkipped;
    const size_t idx = op.a % files_.size();
    const std::string to = "/r" + std::to_string(rename_serial_++);
    Status s = k().sys_rename(files_[idx].path, to);
    if (s.ok()) files_[idx].path = to;
    return fold_status(hypernel::kFnvOffset, s);
  }

  u64 do_write(const Op& op) {
    const FileEnt* f = pick(files_, op.a);
    if (!f) return kSkipped;
    const u64 offset = (op.b % 512) * kWordSize;
    u64 buf[8];
    for (unsigned i = 0; i < 8; ++i) buf[i] = fold(op.c, i);
    return fold_status(hypernel::kFnvOffset,
                       k().sys_write(f->ino, offset, buf, sizeof buf));
  }

  u64 do_read(const Op& op) {
    const FileEnt* f = pick(files_, op.a);
    if (!f) return kSkipped;
    const u64 offset = (op.b % 512) * kWordSize;
    u64 buf[8] = {};
    Status s = k().sys_read(f->ino, offset, buf, sizeof buf);
    u64 h = fold_status(hypernel::kFnvOffset, s);
    if (s.ok()) {
      for (u64 w : buf) h = fold(h, w);
    }
    return h;
  }

  u64 do_stat(const Op& op) {
    std::string path = "/";
    if (op.a % 3 == 1) {
      if (const FileEnt* f = pick(files_, op.b)) path = f->path;
    } else if (op.a % 3 == 2) {
      if (const std::string* d = pick(dirs_, op.b)) path = *d;
    }
    Result<kernel::StatInfo> r = k().sys_stat(path);
    if (!r.ok()) return fold_status(hypernel::kFnvOffset, r.status());
    const kernel::StatInfo& st = r.value();
    u64 h = fold(hypernel::kFnvOffset, st.ino);
    h = fold(h, st.size);
    h = fold(h, st.is_dir ? 1 : 0);
    return fold(h, st.uid);
  }

  u64 do_prune(const Op& op) {
    k().vfs().prune_dcache(1 + op.a % 8);
    return fold(hypernel::kFnvOffset, k().vfs().dcache_size());
  }

  // --- Memory ----------------------------------------------------------------

  u64 do_mmap(const Op& op) {
    if (mmaps_.size() >= 32) return kSkipped;
    const u64 len = (1 + op.a % 8) * kPageSize;
    Result<VirtAddr> r = k().sys_mmap(len, /*writable=*/op.b % 4 != 0);
    if (!r.ok()) return fold_status(hypernel::kFnvOffset, r.status());
    mmaps_.push_back({r.value(), len});
    return fold(hypernel::kFnvOffset, r.value());
  }

  u64 do_munmap(const Op& op) {
    if (mmaps_.empty()) return kSkipped;
    const size_t idx = op.a % mmaps_.size();
    const Mapping map = mmaps_[idx];
    // Drop the entry regardless of outcome: the owning task may have
    // exited (stale handle), and retrying forever just starves the list.
    mmaps_.erase(mmaps_.begin() + static_cast<long>(idx));
    return fold_status(hypernel::kFnvOffset, k().sys_munmap(map.va, map.len));
  }

  u64 do_mmap_file(const Op& op) {
    if (mmaps_.size() >= 32) return kSkipped;
    const FileEnt* f = pick(files_, op.a);
    if (!f) return kSkipped;
    const u64 len = (1 + op.b % 4) * kPageSize;
    Result<VirtAddr> r = k().sys_mmap_file(f->ino, len);
    if (!r.ok()) return fold_status(hypernel::kFnvOffset, r.status());
    mmaps_.push_back({r.value(), len});
    return fold(hypernel::kFnvOffset, r.value());
  }

  u64 do_user_memory(const Op& op) {
    return fold_status(
        hypernel::kFnvOffset,
        k().run_user_memory(32 + op.a % 224, 1 + op.b % 8, op.c));
  }

  u64 do_user_compute(const Op& op) {
    k().run_user_compute(1000 + op.a % 50'000);
    return fold(hypernel::kFnvOffset, 0);
  }

  // --- Processes -------------------------------------------------------------

  u64 do_fork() {
    if (k().procs().live_tasks() >= 10) return kSkipped;
    Result<u32> r = k().sys_fork();
    if (!r.ok()) return fold_status(hypernel::kFnvOffset, r.status());
    return fold(hypernel::kFnvOffset, r.value());
  }

  u64 do_exit() {
    if (k().procs().live_tasks() <= 1) return kSkipped;
    Status s = k().sys_exit();
    // Reschedule: lowest live pid (all_tasks is pid-ordered).
    std::vector<kernel::Task*> tasks = k().procs().all_tasks();
    u64 h = fold_status(hypernel::kFnvOffset, s);
    if (!tasks.empty()) {
      k().procs().switch_to(*tasks.front());
      h = fold(h, tasks.front()->pid);
    }
    return h;
  }

  u64 do_switch(const Op& op) {
    kernel::Task* t = pick_task(op.a);
    if (!t) return kSkipped;
    k().procs().switch_to(*t);
    return fold(hypernel::kFnvOffset, t->pid);
  }

  u64 do_setuid(const Op& op) {
    static constexpr u64 kUids[] = {0, 1000, 1001, 4242, 7};
    return fold_status(hypernel::kFnvOffset,
                       k().sys_setuid(kUids[op.a % std::size(kUids)]));
  }

  u64 do_sigaction(const Op& op) {
    const unsigned sig = 1 + op.a % 31;
    return fold_status(hypernel::kFnvOffset,
                       k().sys_sigaction(sig, 0x5160'0000ull + sig));
  }

  u64 do_kill_self(const Op& op) {
    return fold_status(hypernel::kFnvOffset, k().sys_kill_self(1 + op.a % 31));
  }

  // --- IPC -------------------------------------------------------------------

  u64 do_pipe(const Op& op) {
    if (pipes_.size() < 2 && (pipes_.empty() || op.a % 3 == 0)) {
      Result<u32> r = k().sys_pipe();
      if (!r.ok()) return fold_status(hypernel::kFnvOffset, r.status());
      pipes_.push_back(r.value());
    }
    const u32 id = *pick(pipes_, op.b);
    const u64 len = (1 + op.c % 8) * kWordSize;
    u64 h = fill_scratch(op.c, len);
    h = fold_status(h, k().sys_pipe_write(id, scratch_va_, len));
    Result<u64> r = k().sys_pipe_read(id, scratch_va_ + kPageSize, len);
    if (!r.ok()) return fold_status(h, r.status());
    return fold(readback_scratch(h, scratch_va_ + kPageSize, len), r.value());
  }

  u64 do_socket(const Op& op) {
    if (sockets_.size() < 2 && (sockets_.empty() || op.a % 3 == 0)) {
      Result<u32> r = k().sys_socketpair();
      if (!r.ok()) return fold_status(hypernel::kFnvOffset, r.status());
      sockets_.push_back(r.value());
    }
    const u32 id = *pick(sockets_, op.b);
    const unsigned end = op.a & 1;
    const u64 len = (1 + op.c % 8) * kWordSize;
    u64 h = fill_scratch(op.c ^ 0x50C4ull, len);
    h = fold_status(h, k().sys_socket_send(id, end, scratch_va_, len));
    // dir[] semantics: recv on the peer end drains what `end` sent.
    Result<u64> r =
        k().sys_socket_recv(id, 1 - end, scratch_va_ + kPageSize, len);
    if (!r.ok()) return fold_status(h, r.status());
    return fold(readback_scratch(h, scratch_va_ + kPageSize, len), r.value());
  }

  u64 fill_scratch(u64 seed, u64 len) {
    u64 h = hypernel::kFnvOffset;
    for (u64 off = 0; off < len; off += kWordSize) {
      const u64 v = fold(seed, off);
      Status s = k().procs().user_write64(scratch_va_ + off, v);
      h = fold_status(h, s);
    }
    return h;
  }

  u64 readback_scratch(u64 h, VirtAddr va, u64 len) {
    for (u64 off = 0; off < len; off += kWordSize) {
      Result<u64> r = k().procs().user_read64(va + off);
      h = r.ok() ? fold(h, r.value()) : fold_status(h, r.status());
    }
    return h;
  }

  // --- Modules ---------------------------------------------------------------

  u64 do_insmod(const Op& op) {
    if (modules_.size() >= 6) return kSkipped;
    kernel::ModuleImage image;
    image.name = "m" + std::to_string(module_serial_++);
    const u64 text = 2 + op.a % 6;
    for (u64 i = 0; i < text; ++i) image.text_words.push_back(fold(op.c, i));
    image.data_words = {op.b, op.c};
    Result<kernel::LoadedModule> r = k().sys_insmod(image);
    if (!r.ok()) return fold_status(hypernel::kFnvOffset, r.status());
    modules_.push_back(image.name);
    module_text_words_[image.name] = text;
    // Fold sizes, not text_va: frame addresses legitimately differ across
    // configurations (boot page-table consumption shifts the buddy pool).
    return fold(fold(hypernel::kFnvOffset, r.value().text_pages),
                r.value().data_pages);
  }

  u64 do_rmmod(const Op& op) {
    if (modules_.empty()) return kSkipped;
    const size_t idx = op.a % modules_.size();
    Status s = k().sys_rmmod(modules_[idx]);
    if (s.ok()) {
      module_text_words_.erase(modules_[idx]);
      modules_.erase(modules_.begin() + static_cast<long>(idx));
    }
    return fold_status(hypernel::kFnvOffset, s);
  }

  u64 do_module_call(const Op& op) {
    if (modules_.empty()) return kSkipped;
    Result<u64> r = k().sys_module_call(*pick(modules_, op.a), op.b % 8);
    if (!r.ok()) return fold_status(hypernel::kFnvOffset, r.status());
    return fold(hypernel::kFnvOffset, r.value());
  }

  // --- Attack writes ---------------------------------------------------------

  /// Pick the attack value: biased towards values the policy alerts on, so
  /// most attack steps exercise the detection path, with the occasional
  /// benign-looking write keeping the no-alert path honest.
  static u64 attack_value(ObjectKind kind, u64 word, u64 old_value,
                          u64 variant) {
    switch (variant % 4) {
      case 0:
        if (kind == ObjectKind::kCred) {
          return word >= CredLayout::kCapInheritable ? ~0ull : 0;
        }
        return 0xBAD'0000'0000'0001ull;  // dentry: hooked vtable / evil ptr
      case 1: return old_value + 1;
      case 2: return ~0ull;
      default: return old_value;  // idempotent write: never an alert
    }
  }

  struct AttackTarget {
    ObjectKind kind = ObjectKind::kCred;
    VirtAddr va = 0;  // object base
    u64 word = 0;
  };

  bool pick_attack_target(const Op& op, AttackTarget* out) {
    if ((op.a & 1) == 0) {
      kernel::Task* t = pick_task(op.b);
      if (!t) return false;
      const auto& words = CredLayout::kSensitiveWords;
      out->kind = ObjectKind::kCred;
      out->va = t->cred;
      out->word = words[op.a % words.size()];
      return true;
    }
    // Dentry: attack a cached root-level entry.
    std::vector<const FileEnt*> roots;
    for (const FileEnt& f : files_) {
      if (f.path.find('/', 1) == std::string::npos) roots.push_back(&f);
    }
    if (roots.empty()) return false;
    const FileEnt* f = roots[op.b % roots.size()];
    const VirtAddr dva =
        k().vfs().cached_dentry(k().vfs().root_ino(), f->path.substr(1));
    if (dva == 0) return false;
    out->kind = ObjectKind::kDentry;
    out->va = dva;
    out->word = (op.a >> 1) & 1 ? DentryLayout::kInode : DentryLayout::kOp;
    return true;
  }

  /// Perform one attack write and run the detection-completeness check.
  /// `bus_visible` is false only under the injected bypass (test hook).
  u64 attack_write(const AttackTarget& t, u64 variant, bool via_dma) {
    const VirtAddr va = t.va + t.word * kWordSize;
    sim::Access64 old = m().read64(va);
    if (!old.ok) return fold(hypernel::kFnvOffset, 0xFA17ull);
    const u64 nv = attack_value(t.kind, t.word, old.value, variant);
    // Which installed detector's policy demands an alert for this write:
    // the object monitor's field policy, or — when the CFI monitor owns
    // the dentry d_op watch — its baseline policy (any non-null value
    // other than the sealed vtable).
    const bool expect_om = monitor_ != nullptr &&
                           policy_expects_alert(t.kind, t.word, old.value, nv);
    const bool expect_cfi = cfi_ != nullptr && cfi_->watching_dentry_ops() &&
                            t.kind == ObjectKind::kDentry &&
                            t.word == DentryLayout::kOp && nv != old.value &&
                            nv != 0;
    const bool expect = expect_om || expect_cfi;

    sim::DmaDevice dev(m(), iommu_, /*stream_id=*/13);
    auto write_word = [&](u64 value) -> bool {
      if (via_dma) return dev.write64(kernel::virt_to_phys(va), value);
      if (opt_.inject_bypass) {
        // Verifier-bypass hook: coherent (line flushed first) but issued
        // straight to DRAM, so the bus snooper never sees it.
        const PhysAddr pa = kernel::virt_to_phys(va);
        m().cache().flush_line(pa);
        m().phys().write64(pa, value);
        return true;
      }
      return m().write64(va, value).ok;
    };

    const u64 alerts_before = total_alerts();
    const Cycles at = m().account().cycles();
    const bool wrote = write_word(nv);
    attacks_.push_back(AttackRecord{step_, cur_kind_, at, expect && wrote});

    if (wrote && expect) {
      ++attacks_expected_;
      if (total_alerts() == alerts_before) {
        violation("attack write (" +
                  std::string(t.kind == ObjectKind::kCred ? "cred" : "dentry") +
                  " word " + std::to_string(t.word) +
                  ") raised no integrity alert");
      }
    }
    // Undo the probe through the same channel: a dentry whose d_inode
    // stays corrupted would panic the kernel on the next lookup (the
    // dcache hit path reads it back from simulated memory), killing the
    // run the differential oracle needs to finish.  Detection has already
    // been judged; the restore is part of the attack op's fixed shape.
    if (wrote && nv != old.value) write_word(old.value);
    u64 h = fold(hypernel::kFnvOffset, static_cast<u64>(t.kind));
    h = fold(h, t.word);
    h = fold(h, nv);
    return fold(h, wrote ? 1 : 0);
  }

  u64 do_attack_cred(const Op& op) {
    AttackTarget t;
    Op cred_op = op;
    cred_op.a &= ~1ull;  // force the cred arm of the picker
    if (!pick_attack_target(cred_op, &t)) return kSkipped;
    return attack_write(t, op.c, /*via_dma=*/false);
  }

  u64 do_attack_dentry(const Op& op) {
    AttackTarget t;
    Op dentry_op = op;
    dentry_op.a |= 1;  // force the dentry arm
    if (!pick_attack_target(dentry_op, &t)) return kSkipped;
    return attack_write(t, op.c, /*via_dma=*/false);
  }

  u64 do_attack_dma(const Op& op) {
    AttackTarget t;
    if (!pick_attack_target(op, &t)) return kSkipped;
    return attack_write(t, op.c, /*via_dma=*/true);
  }

  // --- Control-flow / page-table attacks -------------------------------------
  // All four tamper fixed kernel structures through a DMA bus master (the
  // §8 hardware-attack vector: coherent, MMU-bypassing, bus-visible), then
  // restore through the same channel so functional state is untouched and
  // the runs stay differentially comparable.

  /// One bus-visible tamper write against a kernel physical address,
  /// followed by a restore.  `expect` = an installed detector must alert;
  /// detection is judged between tamper and restore.  Folds only the value
  /// and outcome (never the address: physical placement legitimately
  /// differs across configurations), and only when `fold_value` (PT-remap
  /// descriptors embed configuration-relative addresses).
  u64 dma_tamper(PhysAddr pa, u64 nv, bool expect, bool fold_value,
                 const char* what) {
    const u64 old = m().phys().read64(pa);  // uncharged peek
    sim::DmaDevice dev(m(), iommu_, /*stream_id=*/13);
    const u64 alerts_before = total_alerts();
    const Cycles at = m().account().cycles();
    const bool wrote = dev.write64(pa, nv);
    attacks_.push_back(AttackRecord{step_, cur_kind_, at, expect && wrote});
    if (wrote && expect) {
      ++attacks_expected_;
      if (total_alerts() == alerts_before) {
        violation(std::string(what) + " raised no integrity alert");
      }
    }
    if (wrote && nv != old) dev.write64(pa, old);
    u64 h = fold(hypernel::kFnvOffset, fold_value ? nv : 0);
    return fold(h, wrote ? 1 : 0);
  }

  u64 do_attack_syscall(const Op& op) {
    const u64 slot = op.a % kernel::kSyscallTableEntries;
    const PhysAddr pa = kernel::kSyscallTableBase + slot * kWordSize;
    const u64 legit = kernel::syscall_entry_cookie(slot);
    u64 nv = legit;
    switch (op.c % 4) {
      case 0: nv = 0x0BAD'C0DE'0000'0000ull + slot; break;  // attacker stub
      case 1: nv = legit + 8; break;  // detour past the prologue
      case 2:  // cross-wire to another legitimate handler
        nv = kernel::syscall_entry_cookie((slot + 1) %
                                          kernel::kSyscallTableEntries);
        break;
      default: break;  // idempotent rewrite: must stay silent
    }
    return dma_tamper(pa, nv, /*expect=*/cfi_ != nullptr && nv != legit,
                      /*fold_value=*/true, "syscall-table patch");
  }

  u64 do_attack_vector(const Op& op) {
    const u64 slot = op.a % kernel::kVectorTableEntries;
    const PhysAddr pa = kernel::kVectorTableBase + slot * kWordSize;
    const u64 legit = kernel::vector_entry_cookie(slot);
    u64 nv = legit;
    switch (op.c % 4) {
      case 0: nv = 0x0BAD'1D7E'0000'0000ull + slot; break;
      case 1: nv = legit + 4; break;
      case 2:
        nv = kernel::vector_entry_cookie((slot + 1) %
                                         kernel::kVectorTableEntries);
        break;
      default: break;
    }
    return dma_tamper(pa, nv, /*expect=*/cfi_ != nullptr && nv != legit,
                      /*fold_value=*/true, "exception-vector patch");
  }

  u64 do_attack_modtext(const Op& op) {
    if (modules_.empty()) return kSkipped;
    const std::string& name = *pick(modules_, op.a);
    const kernel::LoadedModule* mod = k().modules().find(name);
    const auto words_it = module_text_words_.find(name);
    if (mod == nullptr || words_it == module_text_words_.end()) {
      return kSkipped;
    }
    // Stay within the image's real text words: their content is the
    // config-independent insmod fill pattern, so the folded value is too.
    const u64 word = op.b % words_it->second;
    const PhysAddr pa =
        kernel::virt_to_phys(mod->text_va) + word * kWordSize;
    const u64 old = m().phys().read64(pa);
    u64 nv = old;
    switch (op.c % 4) {
      case 0: nv = 0x0BAD'7E87'0000'0000ull | (op.c & 0xFFFF); break;
      case 1: nv = old + 1; break;  // minimal in-place patch
      case 2: nv = ~0ull; break;
      default: break;  // idempotent rewrite: must stay silent
    }
    return dma_tamper(pa, nv, /*expect=*/cfi_ != nullptr && nv != old,
                      /*fold_value=*/true, "module-text patch");
  }

  u64 do_attack_pt_remap(const Op& op) {
    // ATRA-style remapping through the hardware vector: plant a leaf
    // descriptor directly in a live leaf-level table, dodging the
    // hypercall verifier entirely.  Only the memory-side invariant
    // checker can see this.
    const auto& pages = sys_->hypersec()->verifier().pt_pages();
    PhysAddr table = 0;
    u64 slot = 0;
    for (const auto& [pa, level] : pages) {
      if (level != 3) continue;
      for (u64 i = 0; i < kPtEntries; ++i) {
        if (m().phys().read64(pa + i * kWordSize) == 0) {
          table = pa;
          slot = i;
          break;
        }
      }
      if (table != 0) break;
    }
    if (table == 0) return kSkipped;
    const u64 variant = op.c % 4;
    u64 desc = 0;
    switch (variant) {
      case 0:  // writable window into the secure space
        desc = sim::make_page_desc(m().secure_base(),
                                   sim::PageAttrs{.write = true});
        break;
      case 1:  // writable alias of the table page itself
        desc = sim::make_page_desc(table, sim::PageAttrs{.write = true});
        break;
      case 2:  // W+X leaf
        desc = sim::make_page_desc(0x40'0000,
                                   sim::PageAttrs{.write = true, .exec = true});
        break;
      default:  // zero store: structurally inert, still bus-visible
        break;
    }
    // ANY bus write on a protected table page must alert — including the
    // inert zero store.  The descriptor embeds config-relative addresses,
    // so fold the variant instead of the raw value.
    const u64 h = dma_tamper(table + slot * kWordSize, desc,
                             /*expect=*/invariant_ != nullptr,
                             /*fold_value=*/false, "PT remap");
    return fold(h, variant);
  }

  // --- Hypernel-only probes --------------------------------------------------
  // Each is crafted to fall in a category the verifier must reject, so a
  // kOk result is itself an invariant violation and no probe ever mutates
  // functional state (which keeps the runs differentially comparable).

  u64 forged_result(const char* what, u64 res) {
    if (res == hvc::kOk) {
      violation(std::string(what) + " was accepted by Hypersec");
    }
    return fold(hypernel::kFnvOffset, res);
  }

  PhysAddr cred_page() {
    return page_align_down(
        kernel::virt_to_phys(k().procs().current().cred));
  }

  u64 do_forged_pt_write(const Op& op) {
    const u64 index = op.b % kPtEntries;
    PhysAddr table = 0;
    u64 desc = 0;
    switch (op.a % 4) {
      case 0:  // target is not a page-table page
        table = cred_page();
        desc = sim::make_page_desc(0x40'0000, sim::PageAttrs{.write = true});
        break;
      case 1:  // kernel-tree tables are immutable to hypercalls
        table = k().kpt().kernel_root();
        desc = sim::make_page_desc(0x40'0000, sim::PageAttrs{.write = true});
        break;
      case 2:  // table descriptor pointing into the secure space
        table = k().procs().current().ttbr0;
        desc = sim::make_table_desc(m().secure_base());
        break;
      default:  // leaf encoding at a non-leaf level
        table = k().procs().current().ttbr0;
        desc = sim::make_page_desc(0x40'0000, sim::PageAttrs{.write = true});
        break;
    }
    return forged_result("forged pt-write",
                         m().hvc(hvc::kPtWrite, {table, index, desc}));
  }

  u64 do_forged_pt_alloc(const Op& op) {
    PhysAddr pa = 0;
    switch (op.a % 3) {
      case 0: pa = m().secure_base(); break;   // secure space
      case 1: pa = cred_page(); break;         // live (non-zero) data
      default: pa = 0x40'0004; break;          // unaligned
    }
    return forged_result("forged pt-alloc",
                         m().hvc(hvc::kPtAlloc, {pa, op.b % 4}));
  }

  u64 do_forged_pt_free(const Op& op) {
    const PhysAddr pa = (op.a & 1) ? m().secure_base() : cred_page();
    return forged_result("forged pt-free", m().hvc(hvc::kPtFree, {pa}));
  }

  u64 do_forged_mon_register(const Op& op) {
    return forged_result(
        "forged mon-register",
        m().hvc(hvc::kMonRegister,
                {999 + op.a % 3, kernel::phys_to_virt(0x30'0000), 64}));
  }

  u64 do_forged_module_seal(const Op& op) {
    PhysAddr base = 0;
    switch (op.a % 3) {
      case 0: base = kernel::kTextBase; break;  // kernel image
      case 1: base = m().secure_base(); break;  // secure space
      default: base = 0x10'0001; break;         // unaligned
    }
    return forged_result("forged module-seal",
                         m().hvc(hvc::kModuleSeal, {base, 1 + op.b % 3}));
  }

  u64 do_direct_pt_write(const Op& op) {
    // PT pages are read-only in the linear map under Hypersec: a direct
    // store must take a permission fault and leave the descriptor intact.
    const PhysAddr root =
        (op.a & 1) ? k().procs().current().ttbr0 : k().kpt().kernel_root();
    const VirtAddr va =
        kernel::phys_to_virt(root) + (op.b % kPtEntries) * kWordSize;
    sim::Access64 acc = m().write64(
        va, sim::make_page_desc(0x40'0000, sim::PageAttrs{.write = true}));
    if (acc.ok) violation("direct PT descriptor store succeeded");
    return fold(hypernel::kFnvOffset, acc.ok ? 1 : 0);
  }

  u64 do_ttbr_hijack(const Op& op) {
    const sim::SysReg reg =
        (op.a & 1) ? sim::SysReg::TTBR1_EL1 : sim::SysReg::TTBR0_EL1;
    const u64 prev = m().sysreg(reg);
    // The secure space can never hold a registered root.
    const bool accepted = m().write_sysreg_el1(reg, m().secure_base());
    if (accepted) {
      violation("TTBR hijack to unregistered root was accepted");
      m().set_sysreg_raw(reg, prev);  // keep the run alive for reporting
    }
    return fold(hypernel::kFnvOffset, accepted ? 1 : 0);
  }

  const FuzzConfigSpec& spec_;
  const ExecutorOptions& opt_;
  // The booted system and its detectors, filled by boot().  Members
  // destroy in reverse order, detectors before their system.
  std::unique_ptr<hypernel::System> sys_;
  std::unique_ptr<secapps::ObjectIntegrityMonitor> monitor_;
  std::unique_ptr<secapps::InvariantChecker> invariant_;
  std::unique_ptr<secapps::CfiMonitor> cfi_;
  sim::Iommu iommu_;  // bypass mode: DMA passes in every configuration
  VirtAddr scratch_va_ = 0;
  size_t step_ = 0;
  OpKind cur_kind_ = OpKind::kCreat;
  std::vector<std::string> violations_;
  std::set<std::string> audit_seen_;
  u64 attacks_expected_ = 0;
  std::vector<AttackRecord> attacks_;

  // Shadow state for parameter interpretation.
  std::vector<FileEnt> files_;
  std::vector<std::string> dirs_;
  std::vector<Mapping> mmaps_;
  std::vector<u32> pipes_;
  std::vector<u32> sockets_;
  std::vector<std::string> modules_;
  std::map<std::string, u64> module_text_words_;  // image text word counts
  u64 file_serial_ = 0;
  u64 dir_serial_ = 0;
  u64 rename_serial_ = 0;
  u64 module_serial_ = 0;
};

}  // namespace

hypernel::SystemConfig FuzzConfigSpec::system_config() const {
  hypernel::SystemConfig cfg;
  cfg.mode = mode;
  // Half the default DRAM: systems are created by the hundreds per
  // campaign (matrix x shrink probes), and allocating/zeroing simulated
  // RAM dominates wall time.  48 MiB of linear map is ample for the op
  // grammar's working set.
  cfg.machine.dram_size = 64ull * 1024 * 1024;
  if (tlb_entries != 0) cfg.machine.tlb_entries = tlb_entries;
  cfg.machine.cache.enabled = cache_enabled;
  if (cache_size_bytes != 0) cfg.machine.cache.size_bytes = cache_size_bytes;
  if (l1_miss_fill != 0) cfg.machine.timing.l1_miss_fill = l1_miss_fill;
  cfg.machine.host_fast_path = host_fast_path;
  cfg.machine.cores = cores == 0 ? 1 : cores;
  cfg.kernel.use_sections = use_sections;
  // enable_mbm stays true in every mode: with the MBM attached, Native
  // derives linear_limit = secure_base exactly like Hypernel (KVM always
  // does), so all configurations share one physical layout and allocator
  // behaviour — the precondition for differential comparison.
  return cfg;
}

RunResult run_sequence(const FuzzConfigSpec& spec, std::span<const Op> ops,
                       const ExecutorOptions& options) {
  return Exec(spec, options).run(ops);
}

}  // namespace hn::fuzz
