// MBM driver tests: the monitor hypercalls' boundary checks, the checks
// its snapshot restore applies, and a property test of the per-page
// region table against an ordered-map reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/hvc_abi.h"
#include "common/rng.h"
#include "hypernel/system.h"
#include "hypersec/mbm_driver.h"
#include "kernel/layout.h"
#include "secapps/object_monitor.h"
#include "sim/pagetable.h"

namespace hn::hypersec {
namespace {

using hypernel::Mode;
using hypernel::System;
using hypernel::SystemConfig;

std::unique_ptr<System> make_monitored_system() {
  SystemConfig cfg;
  cfg.mode = Mode::kHypernel;
  cfg.enable_mbm = true;
  auto r = System::create(cfg);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

/// Linear-map VA of a fresh kernel page.
VirtAddr fresh_page(System& sys) {
  Result<PhysAddr> frame = sys.kernel().buddy().alloc_page();
  EXPECT_TRUE(frame.ok());
  return kernel::phys_to_virt(frame.value());
}

// ---------------- Monitor hypercall boundaries ----------------

class MonHvcTest : public ::testing::Test {
 protected:
  MonHvcTest()
      : sys_(make_monitored_system()),
        monitor_(*sys_, secapps::Granularity::kWholeObject) {
    EXPECT_TRUE(monitor_.install().ok());
    driver_ = sys_->hypersec()->mbm_driver();
  }
  u64 hvc(u64 func, VirtAddr va, u64 size) {
    return sys_->machine().hvc(func, {monitor_.sid(), va, size});
  }

  std::unique_ptr<System> sys_;
  secapps::ObjectIntegrityMonitor monitor_;
  MbmDriver* driver_ = nullptr;
};

TEST_F(MonHvcTest, RegionStraddlingAPageIsDenied) {
  const VirtAddr va = fresh_page(*sys_);
  const u64 regions = driver_->regions();
  EXPECT_EQ(hvc(hvc::kMonRegister, va + 0xFF8, 16), hvc::kDenied);
  EXPECT_EQ(hvc(hvc::kMonRegister, va, kPageSize + kWordSize), hvc::kDenied);
  EXPECT_EQ(driver_->regions(), regions);
  // The last word of the page is a region of its own.
  EXPECT_EQ(hvc(hvc::kMonRegister, va + 0xFF8, 8), hvc::kOk);
  EXPECT_EQ(driver_->regions(), regions + 1);
}

TEST_F(MonHvcTest, UnregisterOfAnotherSizeIsDeniedAndKeepsTheBitmap) {
  const VirtAddr va = fresh_page(*sys_);
  ASSERT_EQ(hvc(hvc::kMonRegister, va, 64), hvc::kOk);
  ASSERT_EQ(hvc(hvc::kMonRegister, va + 128, 64), hvc::kOk);
  const u64 regions = driver_->regions();
  // Far past the watch window, then the whole page: both would clear the
  // bitmap bits of the other region on the page.
  EXPECT_EQ(hvc(hvc::kMonUnregister, va, u64{1} << 44), hvc::kDenied);
  EXPECT_EQ(hvc(hvc::kMonUnregister, va, kPageSize), hvc::kDenied);
  EXPECT_EQ(driver_->regions(), regions);

  // The neighbour is still watched: a store to it is detected.
  const u64 before = sys_->mbm()->stats().detections;
  ASSERT_TRUE(sys_->machine().write64(va + 128, 0x5A).ok);
  EXPECT_EQ(sys_->mbm()->stats().detections, before + 1);

  EXPECT_EQ(hvc(hvc::kMonUnregister, va, 64), hvc::kOk);
  EXPECT_EQ(driver_->regions(), regions - 1);
}

TEST_F(MonHvcTest, SecondRegistrationAtABaseIsDenied) {
  // One unregister must release the page: a second registration at the
  // same base would otherwise leave the page non-cacheable with no
  // region once the first is gone.
  const VirtAddr va = fresh_page(*sys_);
  const u64 regions = driver_->regions();
  const u64 pages = driver_->noncacheable_pages();
  ASSERT_EQ(hvc(hvc::kMonRegister, va, 64), hvc::kOk);
  EXPECT_EQ(hvc(hvc::kMonRegister, va, 128), hvc::kDenied);
  EXPECT_EQ(driver_->regions(), regions + 1);
  EXPECT_EQ(driver_->noncacheable_pages(), pages + 1);

  EXPECT_EQ(hvc(hvc::kMonUnregister, va, 64), hvc::kOk);
  EXPECT_EQ(hvc(hvc::kMonUnregister, va, 64), hvc::kDenied);
  EXPECT_EQ(driver_->regions(), regions);
  EXPECT_EQ(driver_->noncacheable_pages(), pages);
  const MbmDriver::El2Walk w = driver_->el2_walk(va);
  ASSERT_TRUE(w.ok);
  EXPECT_EQ(sim::decode_attrs(w.desc).attr, sim::MemAttr::kNormalCacheable);
}

TEST(MonHvc, RegionLeavingTheWatchWindowIsDenied) {
  // A driver whose MBM watches only the DRAM below a fresh frame.
  auto sys = make_monitored_system();
  const VirtAddr va = fresh_page(*sys);
  const PhysAddr pa = kernel::virt_to_phys(va);
  sim::Machine& m = sys->machine();
  mbm::MbmConfig cfg = sys->mbm()->config();
  cfg.watch_size = pa;
  mbm::MemoryBusMonitor mbm(m, cfg);
  MbmDriver driver(m, sys->kernel(), mbm);
  const Status s = driver.register_region(1, va, 64);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("watch window"), std::string::npos);
  EXPECT_TRUE(driver.register_region(1, va - kPageSize, 64).ok());
}

// ---------------- Snapshot restore checks ----------------

class DriverRestoreTest : public ::testing::Test {
 protected:
  DriverRestoreTest() : sys_(make_monitored_system()) {
    driver_ = sys_->hypersec()->mbm_driver();
    va_ = fresh_page(*sys_);
    EXPECT_TRUE(driver_->register_region(1, va_ + 0xF80, 64).ok());
    sim::SnapWriter w;
    driver_->save_state(w);
    blob_ = w.take();
  }

  /// Restore `blob_` with the u64 at `offset` replaced by `value`.
  Status restore_with(size_t offset, u64 value) {
    std::vector<u8> blob = blob_;
    for (size_t i = 0; i < 8; ++i) {
      blob[offset + i] = static_cast<u8>(value >> (8 * i));
    }
    sim::SnapReader r(blob);
    driver_->restore_state(r);
    return r.status();
  }

  // Layout: region count, then (key, sid, va, pa, size) per region.
  static constexpr size_t kKey = 8;
  static constexpr size_t kPa = 32;
  static constexpr size_t kSize = 40;

  std::unique_ptr<System> sys_;
  MbmDriver* driver_ = nullptr;
  VirtAddr va_ = 0;
  std::vector<u8> blob_;
};

TEST_F(DriverRestoreTest, UnmodifiedBlobRoundTrips) {
  sim::SnapReader r(blob_);
  driver_->restore_state(r);
  ASSERT_TRUE(r.ok()) << r.status().message();
  sim::SnapWriter w;
  driver_->save_state(w);
  EXPECT_EQ(w.data(), blob_);
}

TEST_F(DriverRestoreTest, RejectsAKeyThatIsNotTheBase) {
  const PhysAddr pa = kernel::virt_to_phys(va_) + 0xF80;
  const Status s = restore_with(kKey, pa + kWordSize);
  EXPECT_NE(s.message().find("keyed apart from its base"), std::string::npos)
      << s.message();
}

TEST_F(DriverRestoreTest, RejectsARegionStraddlingAPage) {
  // The region starts 128 bytes before the end of its page.
  const Status s = restore_with(kSize, 128 + kWordSize);
  EXPECT_NE(s.message().find("straddles a page"), std::string::npos)
      << s.message();
}

TEST_F(DriverRestoreTest, RejectsARegionLeavingTheWatchWindow) {
  const mbm::MbmConfig& cfg = sys_->mbm()->config();
  const PhysAddr outside = cfg.watch_base + cfg.watch_size + 0xF80;
  std::vector<u8> blob = blob_;
  for (const size_t offset : {kKey, kPa}) {
    for (size_t i = 0; i < 8; ++i) {
      blob[offset + i] = static_cast<u8>(outside >> (8 * i));
    }
  }
  sim::SnapReader r(blob);
  driver_->restore_state(r);
  EXPECT_NE(r.status().message().find("leaves the watch window"),
            std::string::npos)
      << r.status().message();
}

TEST_F(DriverRestoreTest, RejectsAReferenceCountOtherThanTheRegionCount) {
  // The page list follows the one region: its length (1), the page, then
  // the page's u32 reference count (1).
  constexpr size_t kPages = kSize + 8;
  constexpr size_t kRefs = kPages + 8 + 8;
  struct Case {
    size_t offset;
    u8 value;
    const char* message;
  };
  for (const Case& c : {Case{kPages, 0, "count of pages with regions"},
                        Case{kPages, 2, "count of pages with regions"},
                        Case{kRefs, 0, "other than its region count"},
                        Case{kRefs, 2, "other than its region count"}}) {
    std::vector<u8> blob = blob_;
    blob[c.offset] = c.value;
    sim::SnapReader r(blob);
    driver_->restore_state(r);
    EXPECT_NE(r.status().message().find(c.message), std::string::npos)
        << r.status().message();
  }
}

TEST_F(DriverRestoreTest, RejectsRegionsOutOfOrderAcrossPages) {
  // A second region on another page, then the two records swapped: each
  // page's own list stays sorted, but the blob's keys descend.
  ASSERT_TRUE(driver_->register_region(1, fresh_page(*sys_), 64).ok());
  sim::SnapWriter w;
  driver_->save_state(w);
  std::vector<u8> blob = w.take();
  constexpr size_t kRecord = 40;
  std::swap_ranges(blob.begin() + kKey, blob.begin() + kKey + kRecord,
                   blob.begin() + kKey + kRecord);
  sim::SnapReader r(blob);
  driver_->restore_state(r);
  EXPECT_NE(r.status().message().find("out of order"), std::string::npos)
      << r.status().message();
}

// ---------------- Region table vs an ordered-map reference ----------------

/// Records the region each delivered event was attributed to.
class RecordingApp : public SecurityApp {
 public:
  [[nodiscard]] u64 sid() const override { return 1; }
  [[nodiscard]] const char* name() const override { return "recorder"; }
  AppVerdict on_write_event(const mbm::MonitorEvent& event,
                            const RegionInfo& region) override {
    events.push_back({event.paddr, region});
    return AppVerdict::kBenign;
  }
  struct Seen {
    PhysAddr paddr;
    RegionInfo region;
  };
  std::vector<Seen> events;
};

/// The driver's rules over the ordered maps it used before the per-page
/// table: regions keyed by base (a second registration at a base is
/// denied), attribution by upper_bound, one non-cacheable reference per
/// region, the bitmap as a word set.
struct Reference {
  std::map<PhysAddr, RegionInfo> regions;
  std::map<PhysAddr, u32> nc_refs;
  std::set<PhysAddr> watched_words;
  u64 unattributed = 0;

  /// Returns whether the register is accepted.
  bool add(const RegionInfo& r) {
    if (!regions.emplace(r.pa_base, r).second) return false;
    ++nc_refs[page_align_down(r.pa_base)];
    for (u64 w = 0; w < r.size; w += kWordSize) {
      watched_words.insert(r.pa_base + w);
    }
    return true;
  }
  /// Returns whether the unregister is accepted.
  bool remove(PhysAddr pa, u64 size) {
    auto it = regions.find(pa);
    if (it == regions.end() || it->second.size != size) return false;
    regions.erase(it);
    for (u64 w = 0; w < size; w += kWordSize) watched_words.erase(pa + w);
    auto nc = nc_refs.find(page_align_down(pa));
    if (--nc->second == 0) nc_refs.erase(nc);
    return true;
  }
  /// A store reaches the MBM and is detected when its page is held
  /// non-cacheable and its bitmap bit is set.
  [[nodiscard]] bool detected(PhysAddr pa) const {
    return nc_refs.contains(page_align_down(pa)) && watched_words.contains(pa);
  }
  [[nodiscard]] const RegionInfo* attribute(PhysAddr pa) const {
    auto it = regions.upper_bound(pa);
    if (it == regions.begin()) return nullptr;
    --it;
    return pa < it->second.pa_base + it->second.size ? &it->second : nullptr;
  }
  [[nodiscard]] std::vector<u8> table_bytes() const {
    sim::SnapWriter w;
    w.put_u64(regions.size());
    for (const auto& [pa, r] : regions) {
      w.put_u64(pa);
      w.put_u64(r.sid);
      w.put_u64(r.va_base);
      w.put_u64(r.pa_base);
      w.put_u64(r.size);
    }
    w.put_u64(nc_refs.size());
    for (const auto& [pa, refs] : nc_refs) {
      w.put_u64(pa);
      w.put_u32(refs);
    }
    return w.take();
  }
};

TEST(RegionTableProperty, MatchesTheOrderedMapReference) {
  constexpr u64 kPages = 3;
  constexpr u64 kOps = 300;
  u64 attributed = 0;
  u64 unattributed = 0;
  for (u64 seed = 1; seed <= 12; ++seed) {
    auto sys = make_monitored_system();
    RecordingApp app;
    ASSERT_TRUE(sys->register_security_app(app).ok());
    MbmDriver& driver = *sys->hypersec()->mbm_driver();
    const u64 base_unattributed = driver.unattributed_events();
    VirtAddr pages[kPages];
    for (VirtAddr& va : pages) va = fresh_page(*sys);
    Reference ref;
    SplitMix64 rng(seed);
    // Bases cluster in the first 32 words of a page so regions overlap.
    auto random_va = [&] {
      return pages[rng.next_below(kPages)] + rng.next_below(32) * kWordSize;
    };
    for (u64 op = 0; op < kOps; ++op) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " op " +
                   std::to_string(op));
      const u64 kind = rng.next_below(10);
      if (kind < 4 || ref.regions.empty()) {
        // Register, or try again at an existing base with a new size.
        VirtAddr va = random_va();
        if (kind == 1 && !ref.regions.empty()) {
          auto it = ref.regions.begin();
          std::advance(it, rng.next_below(ref.regions.size()));
          va = it->second.va_base;
        }
        const u64 room = (kPageSize - (va & kPageMask)) / kWordSize;
        const u64 size = rng.next_in(1, std::min<u64>(room, 24)) * kWordSize;
        const bool accepted =
            ref.add(RegionInfo{1, va, kernel::virt_to_phys(va), size});
        ASSERT_EQ(driver.register_region(1, va, size).ok(), accepted);
      } else if (kind < 6) {
        // Unregister a live region, sometimes with the wrong size.
        auto it = ref.regions.begin();
        std::advance(it, rng.next_below(ref.regions.size()));
        const RegionInfo r = it->second;
        const u64 size = rng.chance(1, 4) ? r.size + kWordSize : r.size;
        const bool accepted = ref.remove(r.pa_base, size);
        EXPECT_EQ(driver.unregister_region(1, r.va_base, size).ok(), accepted);
      } else {
        // A monitored-looking store: attributed as the reference says.
        const VirtAddr va = random_va() + rng.next_below(8) * kWordSize;
        const PhysAddr pa = kernel::virt_to_phys(va);
        const size_t seen = app.events.size();
        ASSERT_TRUE(sys->machine().write64(va, op).ok);
        if (!ref.detected(pa)) {
          EXPECT_EQ(app.events.size(), seen);
          continue;
        }
        const RegionInfo* want = ref.attribute(pa);
        if (want == nullptr) {
          ++ref.unattributed;
          ++unattributed;
          EXPECT_EQ(app.events.size(), seen);
        } else {
          ++attributed;
          ASSERT_EQ(app.events.size(), seen + 1);
          const RegionInfo& got = app.events.back().region;
          EXPECT_EQ(app.events.back().paddr, pa);
          EXPECT_EQ(got.pa_base, want->pa_base);
          EXPECT_EQ(got.va_base, want->va_base);
          EXPECT_EQ(got.size, want->size);
        }
      }
      ASSERT_EQ(driver.unattributed_events() - base_unattributed,
                ref.unattributed);
      ASSERT_EQ(driver.regions(), ref.regions.size());
    }
    // The table serializes exactly as the ordered maps did, and restores
    // to the same bytes.
    sim::SnapWriter w;
    driver.save_state(w);
    const std::vector<u8> want = ref.table_bytes();
    ASSERT_GE(w.data().size(), want.size());
    EXPECT_TRUE(std::equal(want.begin(), want.end(), w.data().begin()))
        << "seed " << seed;
    sim::SnapReader r(w.data());
    driver.restore_state(r);
    ASSERT_TRUE(r.ok()) << r.status().message();
    sim::SnapWriter again;
    driver.save_state(again);
    EXPECT_EQ(again.data(), w.data()) << "seed " << seed;
  }
  // The sequences reach both outcomes of the upper_bound rule.
  EXPECT_GT(attributed, 100u);
  EXPECT_GT(unattributed, 10u);
}

}  // namespace
}  // namespace hn::hypersec
