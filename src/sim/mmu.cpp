#include "sim/mmu.h"

#include <cassert>

namespace hn::sim {

Mmu::Mmu(PhysicalMemory& mem, CycleAccount& account, const TimingModel& timing,
         obs::Registry& obs, unsigned tlb_entries)
    : mem_(mem), account_(account), timing_(timing), tlb_(tlb_entries) {
  obs_tlb_hits_ = obs.counter("sim.tlb.hits");
  obs_tlb_misses_ = obs.counter("sim.tlb.misses");
  obs_s1_walks_ = obs.counter("sim.mmu.s1_walks");
  obs_s2_walks_ = obs.counter("sim.mmu.s2_walks");
  obs_s1_fetches_ = obs.counter("sim.mmu.s1_fetches");
  obs_s2_fetches_ = obs.counter("sim.mmu.s2_fetches");
  obs_walk_level_ = obs.histogram("sim.mmu.walk_leaf_level");
  obs_walk_cycles_ = obs.histogram("sim.mmu.walk_cycles");
}

u64 Mmu::fetch_descriptor(PhysAddr pa, bool stage2) {
  // Descriptor fetches hit the walk caches / L2 on the modelled core, so
  // they carry a flat cost instead of going through the L1 model (which
  // bulk data streams would otherwise thrash unrealistically).
  account_.charge(timing_.pt_fetch);
  if (stage2) {
    ++account_.counters().s2_descriptor_fetches;
    obs_s2_fetches_.add();
  } else {
    ++account_.counters().pt_descriptor_fetches;
    obs_s1_fetches_.add();
  }
  return mem_.read64(pa);
}

TranslateOutcome Mmu::translate_ipa(IpaAddr ipa, bool is_write,
                                    const WalkContext& ctx) {
  assert(ctx.stage2_enabled);
  obs_s2_walks_.add();
  PhysAddr table = ctx.vttbr;
  for (unsigned level = 0; level <= 3; ++level) {
    const PhysAddr desc_pa = table + va_index(ipa, level) * 8;
    const u64 desc = fetch_descriptor(desc_pa, /*stage2=*/true);
    if (!desc_valid(desc)) {
      ++account_.counters().s2_translation_faults;
      return TranslateOutcome::fail(
          Fault{FaultType::kS2Translation, level, 0, ipa, is_write});
    }
    if (desc_is_table(desc, level)) {
      table = desc_out_addr(desc);
      continue;
    }
    if (level != 3) {
      // Stage-2 tables in this model are always mapped at 4 KiB granularity
      // (KVM's write-protection needs page granularity anyway).
      ++account_.counters().s2_translation_faults;
      return TranslateOutcome::fail(
          Fault{FaultType::kS2Translation, level, 0, ipa, is_write});
    }
    const S2Attrs s2 = decode_s2_attrs(desc);
    if (!s2.read || (is_write && !s2.write)) {
      ++account_.counters().s2_permission_faults;
      return TranslateOutcome::fail(
          Fault{FaultType::kS2Permission, level, 0, ipa, is_write});
    }
    Translation t;
    t.pa = desc_out_addr(desc) + (ipa & kPageMask);
    t.s2_write_ok = s2.write;
    return TranslateOutcome::success(t);
  }
  ++account_.counters().s2_translation_faults;
  return TranslateOutcome::fail(
      Fault{FaultType::kS2Translation, 3, 0, ipa, is_write});
}

TranslateOutcome Mmu::walk_stage1(VirtAddr va, const AccessType& access,
                                  const WalkContext& ctx) {
  PhysAddr table = (va >= kKernelVaBase) ? ctx.ttbr1 : ctx.ttbr0;
  if (table == 0) {
    return TranslateOutcome::fail(
        Fault{FaultType::kTranslation, 0, va, 0, access.is_write});
  }
  for (unsigned level = 0; level <= 3; ++level) {
    IpaAddr desc_ipa = table + va_index(va, level) * 8;
    PhysAddr desc_pa = desc_ipa;
    if (ctx.stage2_enabled) {
      // Nested fetch: the stage-1 descriptor address is an IPA.
      TranslateOutcome nested = translate_ipa(desc_ipa, /*is_write=*/false, ctx);
      if (!nested.ok) {
        nested.fault.va = va;
        return nested;
      }
      desc_pa = nested.t.pa;
    }
    const u64 desc = fetch_descriptor(desc_pa, /*stage2=*/false);
    if (!desc_valid(desc)) {
      return TranslateOutcome::fail(
          Fault{FaultType::kTranslation, level, va, 0, access.is_write});
    }
    if (desc_is_table(desc, level)) {
      table = desc_out_addr(desc);
      continue;
    }

    const bool is_block = desc_is_block(desc, level);
    const bool is_page = (level == 3) && bit(desc, kDescTable);
    if (!is_block && !is_page) {
      return TranslateOutcome::fail(
          Fault{FaultType::kTranslation, level, va, 0, access.is_write});
    }

    const PageAttrs attrs = decode_attrs(desc);
    const u64 span = level_span(level);
    const IpaAddr out_ipa = desc_out_addr(desc) + (va & (span - 1));

    Translation t;
    t.attrs = attrs;
    t.pa = out_ipa;
    if (ctx.stage2_enabled) {
      TranslateOutcome final =
          translate_ipa(out_ipa, access.is_write, ctx);
      if (!final.ok) {
        final.fault.va = va;
        if (final.fault.type == FaultType::kS2Permission && !access.is_write) {
          return final;  // read blocked by stage 2: nothing to cache
        }
        if (final.fault.type == FaultType::kS2Permission && access.is_write) {
          // Read mapping is valid; cache it so subsequent writes fault
          // straight from the TLB (hardware-faithful and what makes
          // page-granularity monitoring trap on *every* write).
          TranslateOutcome readable =
              translate_ipa(out_ipa, /*is_write=*/false, ctx);
          if (readable.ok && permission_ok(attrs, AccessType{})) {
            TlbEntry e;
            e.vpage = page_align_down(va);
            e.asid = ctx.asid;
            e.ppage = page_align_down(readable.t.pa);
            e.attrs = attrs;
            e.s2_write_ok = false;
            tlb_.insert(e);
          }
        }
        return final;
      }
      t.pa = final.t.pa;
      t.s2_write_ok = final.t.s2_write_ok;
    }

    if (!permission_ok(attrs, access)) {
      return TranslateOutcome::fail(
          Fault{FaultType::kPermission, level, va, out_ipa, access.is_write});
    }

    TlbEntry e;
    e.vpage = page_align_down(va);
    e.asid = ctx.asid;
    e.ppage = page_align_down(t.pa);
    e.attrs = attrs;
    e.s2_write_ok = t.s2_write_ok;
    tlb_.insert(e);
    obs_walk_level_.record(level);
    return TranslateOutcome::success(t);
  }
  return TranslateOutcome::fail(
      Fault{FaultType::kTranslation, 3, va, 0, access.is_write});
}

TranslateOutcome Mmu::hit_outcome(const TlbEntry& e, VirtAddr va,
                                  const AccessType& access) {
  if (!permission_ok(e.attrs, access)) {
    return TranslateOutcome::fail(
        Fault{FaultType::kPermission, 3, va, 0, access.is_write});
  }
  if (access.is_write && !e.s2_write_ok) {
    ++account_.counters().s2_permission_faults;
    const IpaAddr ipa = e.ppage + (va & kPageMask);  // IPA==PA-keyed model
    return TranslateOutcome::fail(
        Fault{FaultType::kS2Permission, 3, va, ipa, true});
  }
  Translation t;
  t.pa = e.ppage + (va & kPageMask);
  t.attrs = e.attrs;
  t.s2_write_ok = e.s2_write_ok;
  return TranslateOutcome::success(t);
}

TranslateOutcome Mmu::walk(VirtAddr va, const AccessType& access,
                           const WalkContext& ctx) {
  ++account_.counters().tlb_misses;
  obs_tlb_misses_.add();
  obs_s1_walks_.add();
  const Cycles before = account_.cycles();
  TranslateOutcome out = walk_stage1(va, access, ctx);
  obs_walk_cycles_.record_cycles(account_.cycles() - before);
  return out;
}

}  // namespace hn::sim
