// Nested-kernel invariant checker (page-table integrity security app).
//
// Hypernel's core argument (§5.2) is that page tables are the kernel's
// most security-critical state: every legitimate update flows through
// Hypersec at EL2, which writes descriptors *through* to memory without a
// bus transaction.  This app closes the loop from the memory side: it
// mirrors Hypersec's translation-table inventory into MBM-monitored
// regions, so any BUS-VISIBLE write reaching a live page-table page —
// DMA, non-cacheable stores, or writes through a rogue writable alias —
// is tampering by construction, no value analysis required.
//
// On each tamper event it additionally re-runs Hypersec's full audit and
// raises one classified alert per newly-broken predicate (W^X, secure
// space reachable, writable PT alias, TTBR hijack), which is what ties a
// raw bus write to the nested-kernel invariant it violated.
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "hypernel/system.h"
#include "hypersec/security_app.h"
#include "secapps/alert.h"

namespace hn::secapps {

struct InvariantStats {
  u64 events_total = 0;
  u64 pages_registered = 0;
  u64 pages_unregistered = 0;
  u64 audits_run = 0;
};

class InvariantChecker : public hypersec::SecurityApp,
                         public hypersec::Hypersec::PtObserver {
 public:
  explicit InvariantChecker(hypernel::System& system, u64 sid = 4);

  /// Register with Hypersec, subscribe to the PT-page lifecycle, and
  /// mirror the already-built inventory (all of boot's tables) into
  /// monitored regions.  Requires kHypernel mode with the MBM attached.
  Status install();

  // --- hypersec::SecurityApp -------------------------------------------------
  [[nodiscard]] u64 sid() const override { return sid_; }
  [[nodiscard]] const char* name() const override {
    return "invariant-checker";
  }
  hypersec::AppVerdict on_write_event(
      const mbm::MonitorEvent& event,
      const hypersec::RegionInfo& region) override;

  // --- hypersec::Hypersec::PtObserver ----------------------------------------
  void on_pt_alloc(PhysAddr pa, unsigned level) override;
  void on_pt_free(PhysAddr pa) override;

  [[nodiscard]] const InvariantStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<Alert>& alerts() const { return alerts_; }
  [[nodiscard]] bool has_alert(AlertKind kind) const {
    return secapps::has_alert(alerts_, kind);
  }
  [[nodiscard]] u64 monitored_pages() const { return pages_.size(); }

 private:
  void register_page(PhysAddr pa);

  hypernel::System& system_;
  u64 sid_;
  std::set<PhysAddr> pages_;  // monitored translation-table pages
  /// Audit findings already alerted on, so a broken predicate raises one
  /// alert, not one per subsequent event.
  std::set<std::pair<u8, std::string>> reported_;
  InvariantStats stats_;
  std::vector<Alert> alerts_;
  bool installed_ = false;
};

}  // namespace hn::secapps
