// Hypersec's driver for the Memory Bus Monitor (§5.3, Fig. 4).
//
// Registration path (green, steps 1-2): translate the kernel VA of the
// monitored region to PA at EL2, set the word-granularity bitmap bits via
// non-cacheable writes (so the MBM's bitmap cache observes the update),
// and flip the containing kernel page to non-cacheable so every write to
// it reaches the bus.
//
// Event path (red, steps 7-8): drain the event ring buffer from the MBM
// interrupt and dispatch each (address, value) record to the owning
// security application.
#pragma once

#include <map>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "hypersec/security_app.h"
#include "kernel/kernel.h"
#include "mbm/monitor.h"
#include "sim/machine.h"

namespace hn::hypersec {

class MbmDriver {
 public:
  MbmDriver(sim::Machine& machine, kernel::Kernel& kernel,
            mbm::MemoryBusMonitor& mbm, bool noncacheable_remap = true)
      : machine_(machine), kernel_(kernel), mbm_(mbm),
        noncacheable_remap_(noncacheable_remap) {
    // Live detection-latency attribution: each verdict adds its
    // end-to-end cycles (verdict instant minus the monitored store's bus
    // instant, carried in MonitorEvent::at).  The timeline report's
    // totals line and the trace attribution report sum the exact same
    // per-verdict values, so the two must agree — the cross-check test
    // pins it.
    obs::TimeSeries& ts = machine_.timeseries();
    ts.enroll("hypersec.detect.e2e_cycles", obs::TrackKind::kCounter,
              [this] { return detect_e2e_cycles_; });
    ts.enroll("hypersec.verdicts", obs::TrackKind::kCounter,
              [this] { return verdicts_; });
  }

  ~MbmDriver() { machine_.timeseries().unenroll_prefix("hypersec."); }

  MbmDriver(const MbmDriver&) = delete;
  MbmDriver& operator=(const MbmDriver&) = delete;

  /// §5.3 steps 1-2.  `va`/`size` must be word aligned; the region must be
  /// in the kernel linear map, inside one page and inside the MBM's watch
  /// window, and no region may already start at its base.
  Status register_region(u64 sid, VirtAddr va, u64 size);
  /// `size` must be the registered region's size.
  Status unregister_region(u64 sid, VirtAddr va, u64 size);

  /// §5.3 steps 7-8: drain the ring, dispatching each event to the app in
  /// `apps` that owns its region.  Returns the number of events
  /// delivered.  The app's verdict is stamped into the kVerdict
  /// flight-recorder event closing the write→detect→verdict chain.
  u64 drain(const std::map<u64, SecurityApp*>& apps);

  [[nodiscard]] u64 regions() const { return regions_; }
  [[nodiscard]] u64 events_delivered() const { return events_delivered_; }
  [[nodiscard]] u64 unattributed_events() const { return unattributed_; }
  /// Pages currently forced non-cacheable for monitoring.
  [[nodiscard]] u64 noncacheable_pages() const { return pages_.size(); }

  /// EL2 software walk of the kernel stage-1 tree (exposed for Hypersec's
  /// own page-protection edits and for tests).
  struct El2Walk {
    bool ok = false;
    PhysAddr pa = 0;       // translated address
    PhysAddr desc_pa = 0;  // location of the leaf descriptor
    u64 desc = 0;
  };
  El2Walk el2_walk(VirtAddr va);

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  // Regions in ascending base order, then the non-cacheable pages in
  // ascending order, whatever order the table holds them in.

  void save_state(sim::SnapWriter& w) const;
  /// Fails `r` on a region whose key is not its base, that straddles a
  /// page or leaves the watch window, on keys out of order, and on a page
  /// whose reference count is not its region count.
  void restore_state(sim::SnapReader& r);

 private:
  /// Monitoring state of one physical page: its regions sorted by base,
  /// each holding the page non-cacheable.  A region never straddles a
  /// page, so the page of an address holds every region that can contain
  /// it.
  struct PageState {
    std::vector<RegionInfo> regions;
  };

  /// std::map::upper_bound's rule within one page: the region with the
  /// greatest base <= `pa`, if it contains `pa`.
  [[nodiscard]] const RegionInfo* region_for(PhysAddr pa) const;
  [[nodiscard]] bool in_watch_window(PhysAddr pa, u64 size) const;
  void set_bits(PhysAddr pa, u64 size, bool on);
  Status set_page_cacheable(VirtAddr page_va, bool cacheable);

  sim::Machine& machine_;
  kernel::Kernel& kernel_;
  mbm::MemoryBusMonitor& mbm_;
  bool noncacheable_remap_;
  std::unordered_map<u64, PageState> pages_;  // keyed by page frame number
  u64 regions_ = 0;
  u64 events_delivered_ = 0;
  u64 unattributed_ = 0;
  u64 detect_e2e_cycles_ = 0;  // summed verdict_at - store_at, all verdicts
  u64 verdicts_ = 0;           // verdict count (incl. unattributed)
};

}  // namespace hn::hypersec
