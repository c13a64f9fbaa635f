// Cycle and event accounting for the simulated machine.
//
// Everything the evaluation section reports is derived from this ledger:
// Table 1 / Figure 6 read `cycles` (converted to microseconds), Table 2 and
// the ablations read the event counters.
#pragma once

#include <iterator>

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
  [[nodiscard]] Counters delta(const Counters& earlier) const;
};

/// Every Counters field, in declaration order: the one list that delta
/// and the machine snapshot's counter section (sim/machine.cpp) walk.
inline constexpr u64 Counters::* kCounterFields[] = {
    &Counters::mem_reads,
    &Counters::mem_writes,
    &Counters::l1_hits,
    &Counters::l1_misses,
    &Counters::l1_stream_allocs,
    &Counters::dirty_writebacks,
    &Counters::noncacheable_accesses,
    &Counters::tlb_hits,
    &Counters::tlb_misses,
    &Counters::pt_descriptor_fetches,
    &Counters::s2_descriptor_fetches,
    &Counters::svc_calls,
    &Counters::hvc_calls,
    &Counters::sysreg_traps,
    &Counters::irqs_delivered,
    &Counters::vm_exits,
    &Counters::s2_translation_faults,
    &Counters::s2_permission_faults,
    &Counters::el1_permission_faults,
    &Counters::context_switches,
    &Counters::ipis_sent,
    &Counters::ipis_delivered,
    &Counters::bus_waits,
    &Counters::bus_wait_cycles,
    &Counters::spin_contentions,
    &Counters::ipi_latency_cycles,
};
static_assert(std::size(kCounterFields) * sizeof(u64) == sizeof(Counters),
              "a Counters field is missing from kCounterFields");

inline Counters Counters::delta(const Counters& earlier) const {
  Counters d;
  for (u64 Counters::* field : kCounterFields) {
    d.*field = this->*field - earlier.*field;
  }
  return d;
}

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
