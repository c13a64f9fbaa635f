// Kernel control-flow-integrity monitor (Camouflage-style, see PAPERS.md).
//
// Kernel CFI in this model means: every indirect control-flow anchor the
// kernel dispatches through holds exactly the value it was sealed with.
// The monitor registers the anchors with the MBM at word granularity:
//
//   * the syscall dispatch table (rodata) and the exception-vector table
//     (top page of text, where VBAR_EL1 points) — baselined at install,
//   * sealed module text — registered page-by-page on the module-loader
//     lifecycle observers, AFTER sealing (staging writes are unmonitored)
//     and unregistered before unload (recycled frames are unmonitored),
//   * optionally each live dentry's d_op word — the function-pointer-
//     bearing slab field rootkits hook for file hiding.  Disabled when
//     the object-integrity monitor is co-installed: both would register
//     the same words and the MBM driver's bitmap bookkeeping (and the
//     kernel's single dentry hook slot) assume one owner per word.
//
// Verification is pure baseline comparison: a monitored word observed
// with any value other than its registered one is a hijack; writes that
// restore the registered value (or clear a slab pointer at teardown) are
// benign.  Slab words register zeroed (the alloc hook fires before the
// kernel initializes the object), so the first store into a zero-baseline
// slab word is the kernel sealing its pointer and adopts the baseline;
// after that — and always, for the boot-sealed anchor tables — baselines
// never change for the anchor's lifetime.
#pragma once

#include <map>
#include <set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "hypernel/system.h"
#include "hypersec/security_app.h"
#include "kernel/modules.h"
#include "secapps/alert.h"

namespace hn::secapps {

struct CfiStats {
  u64 events_total = 0;
  u64 events_syscall = 0;
  u64 events_vector = 0;
  u64 events_module = 0;
  u64 events_fnptr = 0;
  u64 modules_registered = 0;
  u64 modules_unregistered = 0;
};

class CfiMonitor : public hypersec::SecurityApp {
 public:
  explicit CfiMonitor(hypernel::System& system, bool watch_dentry_ops = true,
                      u64 sid = 5);

  /// Register with Hypersec, baseline the anchor tables, install the
  /// module-lifecycle observers (and dentry hooks when enabled), and
  /// register any already-loaded module text.
  Status install();

  // --- hypersec::SecurityApp -------------------------------------------------
  [[nodiscard]] u64 sid() const override { return sid_; }
  [[nodiscard]] const char* name() const override { return "kernel-cfi"; }
  hypersec::AppVerdict on_write_event(
      const mbm::MonitorEvent& event,
      const hypersec::RegionInfo& region) override;

  [[nodiscard]] const CfiStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<Alert>& alerts() const { return alerts_; }
  [[nodiscard]] bool has_alert(AlertKind kind) const {
    return secapps::has_alert(alerts_, kind);
  }
  [[nodiscard]] u64 baseline_words() const { return baseline_.size(); }
  [[nodiscard]] bool watching_dentry_ops() const { return watch_dentry_ops_; }

 private:
  /// Register `words` contiguous words at linear-map `va` and record their
  /// current contents as the baseline.
  void register_words(VirtAddr va, u64 words);
  void unregister_words(VirtAddr va, u64 words);
  void hook_module_load(const kernel::LoadedModule& mod);
  void hook_module_unload(const kernel::LoadedModule& mod);
  [[nodiscard]] AlertKind classify(PhysAddr pa) const;

  hypernel::System& system_;
  bool watch_dentry_ops_;
  u64 sid_;
  std::map<PhysAddr, u64> baseline_;  // word PA -> sealed value
  std::set<PhysAddr> module_pages_;   // sealed module text pages
  CfiStats stats_;
  std::vector<Alert> alerts_;
  bool installed_ = false;
};

}  // namespace hn::secapps
