// The paper's security solutions (§7.2): integrity monitors for the cred
// and dentry kernel objects, in the two variants Table 2 compares —
//
//   kSensitiveFields — word-granularity monitoring of only the fields an
//       attacker must touch (uid/gid/capabilities; d_inode/d_name/d_op...),
//   kWholeObject     — monitoring of every word of the object, whose event
//       count equals what a page-granularity scheme would trap (§7.2's
//       estimation argument).
//
// The monitor installs kernel object-lifetime hooks; each hook issues the
// kMonRegister hypercall (§5.3 step 1), Hypersec programs the MBM, and
// write events come back through on_write_event (step 8), where the
// monitor verifies the write against its integrity policy.
#pragma once

#include <array>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "hypernel/system.h"
#include "hypersec/security_app.h"
#include "kernel/objects.h"
#include "secapps/alert.h"

namespace hn::secapps {

enum class Granularity : u8 { kSensitiveFields, kWholeObject };

struct MonitorStats {
  u64 events_total = 0;
  u64 events_cred = 0;
  u64 events_dentry = 0;
  u64 objects_registered = 0;
  u64 objects_unregistered = 0;
};

class ObjectIntegrityMonitor : public hypersec::SecurityApp {
 public:
  ObjectIntegrityMonitor(hypernel::System& system, Granularity granularity,
                         bool watch_cred = true, bool watch_dentry = true,
                         u64 sid = 1);

  /// Register with Hypersec, install the kernel hooks, and register every
  /// already-live watched object (the init task's cred).
  Status install();

  // --- hypersec::SecurityApp -------------------------------------------------
  [[nodiscard]] u64 sid() const override { return sid_; }
  [[nodiscard]] const char* name() const override {
    return "object-integrity-monitor";
  }
  hypersec::AppVerdict on_write_event(
      const mbm::MonitorEvent& event,
      const hypersec::RegionInfo& region) override;

  [[nodiscard]] const MonitorStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<Alert>& alerts() const { return alerts_; }
  [[nodiscard]] bool has_alert(AlertKind kind) const {
    return secapps::has_alert(alerts_, kind);
  }
  [[nodiscard]] Granularity granularity() const { return granularity_; }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  // The monitor is not part of hypernel::System, so its state serializes
  // separately (table2_exact_test digests it next to the system's).

  void save_state(sim::SnapWriter& w) const;
  /// Fails `r` when a shadow word is not a word of any tracked object.
  void restore_state(sim::SnapReader& r);

 private:
  /// Slab objects of both watched kinds are 128 B and size-aligned, so an
  /// event address rounded down to the object size is the object base.
  static constexpr u64 kObjectBytes = 128;
  static constexpr u64 kObjectWords = kObjectBytes / kWordSize;
  static_assert(kernel::object_words(kernel::ObjectKind::kCred) ==
                    kObjectWords &&
                kernel::object_words(kernel::ObjectKind::kDentry) ==
                    kObjectWords);

  /// Verification state of one tracked object: its kind and the last
  /// known value of each shadowed word (bit w of `shadowed` set when
  /// shadow[w] holds one).
  struct ObjectRecord {
    kernel::ObjectKind kind = kernel::ObjectKind::kCred;
    u16 shadowed = 0;
    std::array<u64, kObjectWords> shadow{};
  };
  static_assert(kObjectWords <= 16, "shadow mask is 16 bits");

  struct Range {
    u64 word = 0;   // first word offset
    u64 words = 0;  // run length
  };
  /// Word ranges to monitor for `kind` under the active granularity.
  [[nodiscard]] std::vector<Range> ranges_for(kernel::ObjectKind kind) const;
  void hook_alloc(kernel::ObjectKind kind, VirtAddr va);
  void hook_free(kernel::ObjectKind kind, VirtAddr va);
  void verify(kernel::ObjectKind kind, u64 word, PhysAddr pa, u64 old_value,
              u64 new_value);

  hypernel::System& system_;
  Granularity granularity_;
  bool watch_cred_;
  bool watch_dentry_;
  u64 sid_;
  std::unordered_map<PhysAddr, ObjectRecord> objects_;  // base PA -> record
  MonitorStats stats_;
  std::vector<Alert> alerts_;
  bool installed_ = false;
};

}  // namespace hn::secapps
