// Cycle and event accounting for the simulated machine.
//
// Everything the evaluation section reports is derived from this ledger:
// Table 1 / Figure 6 read `cycles` (converted to microseconds), Table 2 and
// the ablations read the event counters.
#pragma once

#include "common/types.h"

namespace hn::sim {

/// Raw event counters.  Monotonic; use snapshots and Counters::delta to
/// scope a measurement window.
struct Counters {
  u64 mem_reads = 0;
  u64 mem_writes = 0;
  u64 l1_hits = 0;
  u64 l1_misses = 0;        // fill misses (DRAM fetch)
  u64 l1_stream_allocs = 0; // full-line write allocations (no fetch)
  u64 dirty_writebacks = 0;
  u64 noncacheable_accesses = 0;
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;
  u64 pt_descriptor_fetches = 0;    // stage-1 walk steps
  u64 s2_descriptor_fetches = 0;    // stage-2 walk steps (incl. nested)
  u64 svc_calls = 0;
  u64 hvc_calls = 0;
  u64 sysreg_traps = 0;
  u64 irqs_delivered = 0;
  u64 vm_exits = 0;
  u64 s2_translation_faults = 0;
  u64 s2_permission_faults = 0;
  u64 el1_permission_faults = 0;
  u64 context_switches = 0;
  // SMP (all stay 0 on single-core machines).
  u64 ipis_sent = 0;
  u64 ipis_delivered = 0;
  u64 bus_waits = 0;        // word txns that hit shared-bus contention
  u64 bus_wait_cycles = 0;  // total cycles spent in those waits
  u64 spin_contentions = 0; // spinlock acquisitions charged as contended
  u64 ipi_latency_cycles = 0;  // bus-order cycles from post to delivery

  /// Per-field difference `*this - earlier`.
  [[nodiscard]] Counters delta(const Counters& earlier) const {
    Counters d;
    d.mem_reads = mem_reads - earlier.mem_reads;
    d.mem_writes = mem_writes - earlier.mem_writes;
    d.l1_hits = l1_hits - earlier.l1_hits;
    d.l1_misses = l1_misses - earlier.l1_misses;
    d.dirty_writebacks = dirty_writebacks - earlier.dirty_writebacks;
    d.noncacheable_accesses = noncacheable_accesses - earlier.noncacheable_accesses;
    d.tlb_hits = tlb_hits - earlier.tlb_hits;
    d.tlb_misses = tlb_misses - earlier.tlb_misses;
    d.pt_descriptor_fetches = pt_descriptor_fetches - earlier.pt_descriptor_fetches;
    d.s2_descriptor_fetches = s2_descriptor_fetches - earlier.s2_descriptor_fetches;
    d.svc_calls = svc_calls - earlier.svc_calls;
    d.hvc_calls = hvc_calls - earlier.hvc_calls;
    d.sysreg_traps = sysreg_traps - earlier.sysreg_traps;
    d.irqs_delivered = irqs_delivered - earlier.irqs_delivered;
    d.vm_exits = vm_exits - earlier.vm_exits;
    d.s2_translation_faults = s2_translation_faults - earlier.s2_translation_faults;
    d.s2_permission_faults = s2_permission_faults - earlier.s2_permission_faults;
    d.el1_permission_faults = el1_permission_faults - earlier.el1_permission_faults;
    d.context_switches = context_switches - earlier.context_switches;
    d.ipis_sent = ipis_sent - earlier.ipis_sent;
    d.ipis_delivered = ipis_delivered - earlier.ipis_delivered;
    d.bus_waits = bus_waits - earlier.bus_waits;
    d.bus_wait_cycles = bus_wait_cycles - earlier.bus_wait_cycles;
    d.spin_contentions = spin_contentions - earlier.spin_contentions;
    d.ipi_latency_cycles = ipi_latency_cycles - earlier.ipi_latency_cycles;
    return d;
  }
};

/// The machine's cycle ledger.
class CycleAccount {
 public:
  void charge(Cycles c) { cycles_ += c; }
  [[nodiscard]] Cycles cycles() const { return cycles_; }
  /// Stable address of the cycle counter — the simulated clock the
  /// machine's scope stack binds to (obs/scope.h).
  [[nodiscard]] const Cycles* cycles_ref() const { return &cycles_; }

  Counters& counters() { return counters_; }
  [[nodiscard]] const Counters& counters() const { return counters_; }

  void reset() {
    cycles_ = 0;
    counters_ = Counters{};
  }

 private:
  Cycles cycles_ = 0;
  Counters counters_;
};

}  // namespace hn::sim
