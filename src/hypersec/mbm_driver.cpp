#include "hypersec/mbm_driver.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "kernel/layout.h"
#include "mbm/bitmap_math.h"
#include "sim/pagetable.h"
#include "sim/sysregs.h"

namespace hn::hypersec {

MbmDriver::El2Walk MbmDriver::el2_walk(VirtAddr va) {
  El2Walk out;
  PhysAddr table = kernel_.kpt().kernel_root();
  for (unsigned level = 0; level <= 3; ++level) {
    const PhysAddr desc_pa = table + sim::va_index(va, level) * 8;
    const u64 desc = machine_.el2_read64(desc_pa);
    if (!sim::desc_valid(desc)) return out;
    if (sim::desc_is_table(desc, level)) {
      table = sim::desc_out_addr(desc);
      continue;
    }
    const u64 span = sim::level_span(level);
    out.ok = true;
    out.pa = sim::desc_out_addr(desc) + (va & (span - 1));
    out.desc_pa = desc_pa;
    out.desc = desc;
    return out;
  }
  return out;
}

bool MbmDriver::in_watch_window(PhysAddr pa, u64 size) const {
  const mbm::MbmConfig& cfg = mbm_.config();
  return pa >= cfg.watch_base && size <= cfg.watch_size &&
         pa - cfg.watch_base <= cfg.watch_size - size;
}

void MbmDriver::set_bits(PhysAddr pa, u64 size, bool on) {
  const mbm::MbmConfig& cfg = mbm_.config();
  assert(in_watch_window(pa, size));
  // Read-modify-write the affected bitmap words; the writes go out
  // non-cacheable so the MBM's write-update bitmap cache stays coherent
  // (§6.3) and the stores are immediately effective on the bus side.
  u64 word = pa;
  const u64 end = pa + size;
  while (word < end) {
    const u64 first_bit = mbm::bit_index_for(word, cfg.watch_base);
    const PhysAddr wa = mbm::bitmap_word_addr(first_bit, cfg.bitmap_base);
    u64 value = machine_.el2_read64(wa);
    // All bits that fall into this bitmap word.
    while (word < end &&
           mbm::bitmap_word_addr(mbm::bit_index_for(word, cfg.watch_base),
                                 cfg.bitmap_base) == wa) {
      const unsigned pos =
          mbm::bit_position(mbm::bit_index_for(word, cfg.watch_base));
      value = on ? (value | (u64{1} << pos)) : (value & ~(u64{1} << pos));
      word += kWordSize;
    }
    machine_.el2_write64_nc(wa, value);
  }
}

Status MbmDriver::set_page_cacheable(VirtAddr page_va, bool cacheable) {
  const El2Walk w = el2_walk(page_va);
  if (!w.ok) return Status::NotFound("mbm: page not mapped in kernel space");
  sim::PageAttrs attrs = sim::decode_attrs(w.desc);
  attrs.attr = cacheable ? sim::MemAttr::kNormalCacheable
                         : sim::MemAttr::kNonCacheable;
  machine_.el2_write64(w.desc_pa, sim::desc_with_attrs(w.desc, attrs));
  machine_.tlb_shootdown_va(page_va);
  machine_.advance(machine_.timing().tlbi);
  if (!cacheable) {
    // Push any dirty lines out and drop the page from the cache, so no
    // later write-back can shadow the non-cacheable traffic (§5.3: "any
    // cache entry for the page including the monitored region is not
    // generated").
    const PhysAddr page_pa = page_align_down(w.pa);
    machine_.cache_flush_range_all(page_pa, kPageSize);
    machine_.advance(256);  // DC CIVAC sweep over the page
  }
  return Status::Ok();
}

namespace {

/// A region of `size` bytes at `addr` lies inside one page.
bool fits_one_page(u64 addr, u64 size) {
  return size != 0 && size <= kPageSize - (addr & kPageMask);
}

bool base_before(const RegionInfo& r, PhysAddr pa) { return r.pa_base < pa; }

}  // namespace

const RegionInfo* MbmDriver::region_for(PhysAddr pa) const {
  const auto page = pages_.find(pa >> kPageShift);
  if (page == pages_.end()) return nullptr;
  const std::vector<RegionInfo>& regions = page->second.regions;
  auto it = std::upper_bound(
      regions.begin(), regions.end(), pa,
      [](PhysAddr a, const RegionInfo& r) { return a < r.pa_base; });
  if (it == regions.begin()) return nullptr;
  --it;
  return pa < it->pa_base + it->size ? &*it : nullptr;
}

Status MbmDriver::register_region(u64 sid, VirtAddr va, u64 size) {
  if (!is_word_aligned(va) || size == 0 || size % kWordSize != 0) {
    return Status::Invalid("mbm: region must be word aligned");
  }
  if (!fits_one_page(va, size)) {
    return Status::Invalid("mbm: region straddles a page");
  }
  const El2Walk w = el2_walk(va);
  if (!w.ok) return Status::NotFound("mbm: va not mapped");
  const PhysAddr pa = w.pa;
  if (!in_watch_window(pa, size)) {
    return Status::Invalid("mbm: region leaves the watch window");
  }

  PageState& page = pages_[pa >> kPageShift];
  auto it = std::lower_bound(page.regions.begin(), page.regions.end(), pa,
                             base_before);
  if (it != page.regions.end() && it->pa_base == pa) {
    return Status::Invalid("mbm: a region already starts at this base");
  }
  const bool first_on_page = page.regions.empty();
  page.regions.insert(it, RegionInfo{sid, va, pa, size});
  ++regions_;

  set_bits(pa, size, true);
  machine_.trace().record(machine_.bus_order_now(),
                          sim::TraceKind::kMonRegister, pa, size);

  if (first_on_page && noncacheable_remap_) {
    if (Status s = set_page_cacheable(page_align_down(va), false); !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Status MbmDriver::unregister_region(u64 sid, VirtAddr va, u64 size) {
  const El2Walk w = el2_walk(va);
  if (!w.ok) return Status::NotFound("mbm: va not mapped");
  const u64 frame = w.pa >> kPageShift;
  const RegionInfo* region = region_for(w.pa);
  if (region == nullptr || region->pa_base != w.pa || region->sid != sid) {
    return Status::NotFound("mbm: no such region");
  }
  if (region->size != size) {
    return Status::Invalid("mbm: size is not the registered region's");
  }
  set_bits(w.pa, size, false);

  PageState& page = pages_.at(frame);
  page.regions.erase(std::lower_bound(page.regions.begin(),
                                      page.regions.end(), w.pa, base_before));
  --regions_;
  if (page.regions.empty()) {
    pages_.erase(frame);
    if (noncacheable_remap_) {
      if (Status s = set_page_cacheable(page_align_down(va), true); !s.ok()) {
        return s;
      }
    }
  }
  return Status::Ok();
}

u64 MbmDriver::drain(const std::map<u64, SecurityApp*>& apps) {
  u64 delivered = 0;
  mbm::MonitorEvent ev;
  while (mbm_.ring().pop(ev)) {
    machine_.advance(60);  // per-event EL2 bookkeeping
    // Attribute the event to the registered region containing it.
    if (const RegionInfo* found = region_for(ev.paddr)) {
      const RegionInfo region = *found;
      AppVerdict verdict = AppVerdict::kBenign;
      {
        obs::Scope scope(machine_.scopes(), obs::Layer::kSecapps);
        if (auto app = apps.find(region.sid); app != apps.end()) {
          verdict = app->second->on_write_event(ev, region);
        }
      }
      ++delivered;
      ++events_delivered_;
      // One bus-order read per verdict, shared between the trace
      // record and the live latency counter so the attribution report
      // and the timeline track agree exactly.
      const Cycles verdict_at = machine_.bus_order_now();
      detect_e2e_cycles_ += verdict_at > ev.at ? verdict_at - ev.at : 0;
      ++verdicts_;
      // Chain terminator: links back to the kMbmDetect event that
      // produced this ring entry.  b: 0 = benign, 1 = alert.
      machine_.trace().record_caused(
          verdict_at, sim::TraceKind::kVerdict,
          ev.trace_seq, ev.paddr, static_cast<u64>(verdict));
      continue;
    }
    ++unattributed_;  // stale bit or race with unregister: drop, but count
    const Cycles verdict_at = machine_.bus_order_now();
    detect_e2e_cycles_ += verdict_at > ev.at ? verdict_at - ev.at : 0;
    ++verdicts_;
    machine_.trace().record_caused(verdict_at,
                                   sim::TraceKind::kVerdict, ev.trace_seq,
                                   ev.paddr, 2 /* unattributed */);
  }
  return delivered;
}

void MbmDriver::save_state(sim::SnapWriter& w) const {
  const auto pages = sim::sorted_entries(pages_);
  w.put_u64(regions_);
  for (const auto* page : pages) {
    for (const RegionInfo& info : page->second.regions) {
      w.put_u64(info.pa_base);
      w.put_u64(info.sid);
      w.put_u64(info.va_base);
      w.put_u64(info.pa_base);
      w.put_u64(info.size);
    }
  }
  // Each non-cacheable page with its reference count, which is its
  // region count.
  w.put_u64(pages.size());
  for (const auto* page : pages) {
    w.put_u64(page->first << kPageShift);
    w.put_u32(static_cast<u32>(page->second.regions.size()));
  }
  w.put_u64(events_delivered_);
  w.put_u64(unattributed_);
  w.put_u64(detect_e2e_cycles_);
  w.put_u64(verdicts_);
}

void MbmDriver::restore_state(sim::SnapReader& r) {
  r.section("mbm driver");
  pages_.clear();
  regions_ = 0;
  const u64 nregions = r.get_count("monitored region");
  PhysAddr prev_base = 0;
  for (u64 i = 0; r.ok() && i < nregions; ++i) {
    const PhysAddr key = r.get_u64();
    RegionInfo info;
    info.sid = r.get_u64();
    info.va_base = r.get_u64();
    info.pa_base = r.get_u64();
    info.size = r.get_u64();
    if (!r.ok()) return;
    const char* bad = nullptr;
    if (key != info.pa_base) {
      bad = "is keyed apart from its base";
    } else if (!fits_one_page(info.pa_base, info.size)) {
      bad = "straddles a page";
    } else if (!in_watch_window(info.pa_base, info.size)) {
      bad = "leaves the watch window";
    } else if (i > 0 && key <= prev_base) {
      bad = "is out of order";
    }
    if (bad != nullptr) {
      r.fail("region " + std::to_string(key) + " " + bad);
      return;
    }
    pages_[key >> kPageShift].regions.push_back(info);
    ++regions_;
    prev_base = key;
  }
  // Every page with regions is listed once, with its region count.
  const u64 nrefs = r.get_count("non-cacheable page");
  if (r.ok() && nrefs != pages_.size()) {
    r.fail("non-cacheable page count " + std::to_string(nrefs) +
           " is not the count of pages with regions");
    return;
  }
  PhysAddr prev = 0;
  for (u64 i = 0; r.ok() && i < nrefs; ++i) {
    const PhysAddr pa = r.get_u64();
    const u32 refs = r.get_u32();
    if (!is_page_aligned(pa) || (i > 0 && pa <= prev)) {
      r.fail("non-cacheable page " + std::to_string(pa) +
             " is unaligned or out of order");
      return;
    }
    const auto page = pages_.find(pa >> kPageShift);
    if (r.ok() &&
        (page == pages_.end() || refs != page->second.regions.size())) {
      r.fail("page " + std::to_string(pa) +
             " holds a reference count other than its region count");
      return;
    }
    prev = pa;
  }
  events_delivered_ = r.get_u64();
  unattributed_ = r.get_u64();
  detect_e2e_cycles_ = r.get_u64();
  verdicts_ = r.get_u64();
}

}  // namespace hn::hypersec
