// Memory management unit: stage-1 (+ optional stage-2) address translation.
//
// The walker reads real descriptors out of simulated physical memory,
// through the data cache, charging cycles per step.  When stage 2 is
// enabled (the KVM-guest configuration), every stage-1 descriptor fetch is
// itself stage-2 translated and the final output IPA is translated too —
// up to 4 + 4*5 = 24 descriptor fetches per TLB miss, the architectural
// blow-up that motivates the whole paper (§1, §3).
#pragma once

#include "common/timing.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "sim/cycle_account.h"
#include "sim/pagetable.h"
#include "sim/phys_mem.h"
#include "sim/tlb.h"

namespace hn::sim {

struct AccessType {
  bool is_write = false;
  bool is_exec = false;
  bool is_user = false;  // EL0 access (vs EL1 kernel access)
};

enum class FaultType : u8 {
  kTranslation,    // stage-1 descriptor invalid
  kPermission,     // stage-1 permission (RO page, user bit, XN)
  kS2Translation,  // stage-2 descriptor invalid (unmapped IPA)
  kS2Permission,   // stage-2 permission (write-protected IPA)
};

struct Fault {
  FaultType type = FaultType::kTranslation;
  unsigned level = 0;
  VirtAddr va = 0;
  IpaAddr ipa = 0;     // faulting IPA for stage-2 faults
  bool is_write = false;
};

struct Translation {
  PhysAddr pa = 0;
  PageAttrs attrs;
  bool s2_write_ok = true;
};

struct TranslateOutcome {
  bool ok = false;
  Translation t;
  Fault fault;

  static TranslateOutcome success(const Translation& t) {
    TranslateOutcome o;
    o.ok = true;
    o.t = t;
    return o;
  }
  static TranslateOutcome fail(const Fault& f) {
    TranslateOutcome o;
    o.fault = f;
    return o;
  }
};

/// Translation regime inputs (a snapshot of the relevant system registers).
struct WalkContext {
  PhysAddr ttbr0 = 0;  // user-half stage-1 root
  PhysAddr ttbr1 = 0;  // kernel-half stage-1 root
  u16 asid = 0;
  bool stage2_enabled = false;
  PhysAddr vttbr = 0;  // stage-2 root
};

class Mmu {
 public:
  Mmu(PhysicalMemory& mem, CycleAccount& account, const TimingModel& timing,
      obs::Registry& obs, unsigned tlb_entries = 256);

  /// Translate `va` for the given access, consulting the TLB first.
  /// On success the mapping is cached in the TLB.  On a stage-2 write-
  /// permission fault the (read-valid) mapping is still cached so that
  /// subsequent writes fault without re-walking, like real hardware.
  TranslateOutcome translate(VirtAddr va, const AccessType& access,
                             const WalkContext& ctx) {
    if (const TlbEntry* e = tlb_hit(va, ctx.asid)) {
      return hit_outcome(*e, va, access);
    }
    return walk(va, access, ctx);
  }

  /// translate()'s TLB-hit section, which needs only the ASID: the entry
  /// translating `va`, with the hit counted, or nullptr (nothing counted)
  /// when walk() must run.  Every translation starts here.
  const TlbEntry* tlb_hit(VirtAddr va, u16 asid) {
    const TlbEntry* e = tlb_.lookup(va, asid);
    if (e != nullptr) {
      ++account_.counters().tlb_hits;
      obs_tlb_hits_.add();
    }
    return e;
  }
  /// True when a hit on `e` serves `access` without a fault: stage-1
  /// permissions hold and, for a write, stage 2 permits writes.
  static bool hit_permits(const TlbEntry& e, const AccessType& access) {
    return permission_ok(e.attrs, access) &&
           (!access.is_write || e.s2_write_ok);
  }
  /// translate()'s outcome for a hit on `e`, faults included.
  TranslateOutcome hit_outcome(const TlbEntry& e, VirtAddr va,
                               const AccessType& access);
  /// translate()'s miss: count it and walk the tables.
  TranslateOutcome walk(VirtAddr va, const AccessType& access,
                        const WalkContext& ctx);

  /// Stage-2-only translation of an IPA (used for the final output and for
  /// nested descriptor fetches; exposed for tests and the KVM module).
  TranslateOutcome translate_ipa(IpaAddr ipa, bool is_write,
                                 const WalkContext& ctx);

  Tlb& tlb() { return tlb_; }
  [[nodiscard]] const Tlb& tlb() const { return tlb_; }

 private:
  /// Stage-1 permission check against decoded attributes.
  static bool permission_ok(const PageAttrs& attrs, const AccessType& access) {
    if (access.is_user && !attrs.user) return false;
    if (access.is_write && !attrs.write) return false;
    if (access.is_exec && !attrs.exec) return false;
    return true;
  }

  /// Fetch one descriptor (cacheable access + fixed walk-step overhead).
  u64 fetch_descriptor(PhysAddr pa, bool stage2);

  TranslateOutcome walk_stage1(VirtAddr va, const AccessType& access,
                               const WalkContext& ctx);

  PhysicalMemory& mem_;
  CycleAccount& account_;
  const TimingModel& timing_;
  Tlb tlb_;
  // Observability handles (obs/metrics.h; inert unless enabled).
  obs::Counter obs_tlb_hits_;
  obs::Counter obs_tlb_misses_;
  obs::Counter obs_s1_walks_;
  obs::Counter obs_s2_walks_;
  obs::Counter obs_s1_fetches_;
  obs::Counter obs_s2_fetches_;
  obs::Histogram obs_walk_level_;
  obs::Histogram obs_walk_cycles_;
};

}  // namespace hn::sim
