#include "hypersec/mbm_driver.h"

#include <cassert>

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

void MbmDriver::set_bits(PhysAddr pa, u64 size, bool on) {
  const mbm::MbmConfig& cfg = mbm_.config();
  assert(pa >= cfg.watch_base && pa + size <= cfg.watch_base + cfg.watch_size);
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

Status MbmDriver::register_region(u64 sid, VirtAddr va, u64 size) {
  if (!is_word_aligned(va) || size == 0 || size % kWordSize != 0) {
    return Status::Invalid("mbm: region must be word aligned");
  }
  const El2Walk w = el2_walk(va);
  if (!w.ok) return Status::NotFound("mbm: va not mapped");
  const PhysAddr pa = w.pa;
  assert(page_align_down(va) == page_align_down(va + size - 1) &&
         "regions must not straddle pages (slab objects never do)");

  RegionInfo region;
  region.sid = sid;
  region.va_base = va;
  region.pa_base = pa;
  region.size = size;
  regions_[pa] = region;

  set_bits(pa, size, true);
  machine_.trace().record(machine_.bus_order_now(),
                          sim::TraceKind::kMonRegister, pa, size);

  const PhysAddr page_pa = page_align_down(pa);
  if (nc_refs_[page_pa]++ == 0 && noncacheable_remap_) {
    if (Status s = set_page_cacheable(page_align_down(va), false); !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Status MbmDriver::unregister_region(u64 sid, VirtAddr va, u64 size) {
  const El2Walk w = el2_walk(va);
  if (!w.ok) return Status::NotFound("mbm: va not mapped");
  auto it = regions_.find(w.pa);
  if (it == regions_.end() || it->second.sid != sid) {
    return Status::NotFound("mbm: no such region");
  }
  set_bits(w.pa, size, false);
  regions_.erase(it);

  const PhysAddr page_pa = page_align_down(w.pa);
  auto nc = nc_refs_.find(page_pa);
  assert(nc != nc_refs_.end());
  if (--nc->second == 0) {
    nc_refs_.erase(nc);
    if (noncacheable_remap_) {
      if (Status s = set_page_cacheable(page_align_down(va), true); !s.ok()) {
        return s;
      }
    }
  }
  return Status::Ok();
}

u64 MbmDriver::drain(const std::function<AppVerdict(const mbm::MonitorEvent&,
                                                    const RegionInfo&)>& dispatch) {
  u64 delivered = 0;
  mbm::MonitorEvent ev;
  while (mbm_.ring().pop(ev)) {
    machine_.advance(60);  // per-event EL2 bookkeeping
    // Attribute the event to the registered region containing it.
    auto it = regions_.upper_bound(ev.paddr);
    if (it != regions_.begin()) {
      --it;
      const RegionInfo& region = it->second;
      if (ev.paddr >= region.pa_base &&
          ev.paddr < region.pa_base + region.size) {
        AppVerdict verdict;
        {
          obs::Scope scope(machine_.scopes(), obs::Layer::kSecapps);
          verdict = dispatch(ev, region);
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

}  // namespace hn::hypersec
