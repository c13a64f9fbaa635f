// The simulated machine: composition root wiring DRAM, bus, cache, MMU,
// system registers, exception model and interrupt controller, and exposing
// the charged memory-access API every higher layer uses.
//
// Software layers (kernel, Hypersec, KVM) run *on behalf of* this machine:
// their accesses to simulated memory translate through real page tables,
// hit the TLB/cache models, charge cycles, and emit bus transactions that
// the MBM can snoop (DESIGN.md §3.1).  Every data access translates
// through Mmu::translate's TLB-hit section and, on a miss, its walk: the
// TLB is the one translation cache, and no host-side cache sits in front
// of it (DESIGN.md §9).
//
// SMP (DESIGN.md §15): the machine carries N cores, each a full private
// bundle (TLB, L1 cache timing model, system registers, cycle ledger,
// exception model, GIC) sharing one DRAM, one memory bus and one flight
// recorder.  Execution is sequential and time-multiplexed — exactly one
// core is *active* at a time, switched by the scheduler via
// set_active_core() — so every run is deterministic by construction.
// Cross-core timing couples only through the shared-bus round-robin
// arbiter and the monotonic bus clock; with cores == 1 every SMP
// mechanism is bypassed and behaviour is bit-identical to the single-core
// machine.
#pragma once

#include <cassert>
#include <functional>
#include <initializer_list>
#include <memory>
#include <vector>

#include "common/timing.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/scope.h"
#include "obs/timeseries.h"
#include "sim/bus.h"
#include "sim/cache.h"
#include "sim/cycle_account.h"
#include "sim/exception.h"
#include "sim/irq.h"
#include "sim/mmu.h"
#include "sim/phys_mem.h"
#include "sim/snapshot.h"
#include "sim/sysregs.h"
#include "sim/trace.h"

namespace hn::sim {

struct MachineConfig {
  /// Total simulated DRAM.  Defaults to 128 MiB, the LogicTile SDRAM the
  /// Juno prototype ran from (§6).
  u64 dram_size = 128ull * 1024 * 1024;
  /// Secure-space carve-out at the top of DRAM: Hypersec code/data, the
  /// MBM bitmap and the event ring buffer live here (§5.3).
  u64 secure_size = 16ull * 1024 * 1024;
  TimingModel timing;
  CacheConfig cache;
  unsigned tlb_entries = 256;  // A57 L2-TLB reach stand-in
  /// Number of simulated cores (DESIGN.md §15).  1 (the default) is the
  /// exact pre-SMP machine; N > 1 adds per-core state, the shared-bus
  /// arbiter and IPIs.  Deterministic at any value.
  unsigned cores = 1;
  /// Host-side fast path (DESIGN.md §9): the TLB's bucket index and the
  /// Hypersec audit memo.  Changes host wall-clock only — simulated
  /// cycles, counters, bus traffic and fingerprints are bit-identical
  /// either way (the fast-path differential test pins this).  Off =
  /// reference mode.
  bool host_fast_path = true;
  /// Time-series sampling interval in simulated cycles (DESIGN.md §16):
  /// non-zero enrolls the built-in per-core and machine tracks and arms
  /// obs::TimeSeries from boot.  0 (the default) disables sampling — the
  /// hot-path cost is a single load + branch.  Host-side observability:
  /// never part of the config digest, never changes simulated state.
  Cycles sample_cycles = 0;
};

/// What an EL2 stage-2 fault handler did with a fault (KVM module).
enum class S2FaultAction : u8 {
  kRetry,      // stage-2 tables fixed; re-translate and re-issue
  kEmulated,   // the handler performed the access itself (WP emulation)
  kUnhandled,  // fault stands; access fails
};

struct Access64 {
  bool ok = false;
  Fault fault;
  u64 value = 0;
};

class Machine {
 public:
  using S2FaultHandler =
      std::function<S2FaultAction(const Fault& fault, bool is_write, u64 value)>;
  using El1FaultHandler = std::function<void(const Fault& fault)>;

  explicit Machine(const MachineConfig& config);

  // --- Component access ----------------------------------------------------
  // Per-core components resolve through the *active* core; shared
  // components (DRAM, bus, trace, observability) are machine-global.
  PhysicalMemory& phys() { return phys_; }
  MemoryBus& bus() { return bus_; }
  Cache& cache() { return cur_->cache; }
  Mmu& mmu() { return cur_->mmu; }
  Tlb& tlb() { return cur_->mmu.tlb(); }
  CycleAccount& account() { return cur_->account; }
  Counters& counters() { return cur_->account.counters(); }
  SysRegs& sysregs() { return cur_->sysregs; }
  ExceptionModel& exceptions() { return cur_->exceptions; }
  Trace& trace() { return trace_; }
  InterruptController& gic() { return cur_->gic; }
  /// Observability (DESIGN.md §10): per-machine metrics registry and
  /// layer scope stack.  Both are off by default; registration is valid
  /// even when disabled.
  obs::Registry& obs() { return obs_; }
  [[nodiscard]] const obs::Registry& obs() const { return obs_; }
  obs::ScopeStack& scopes() { return scopes_; }
  /// Metrics on or off (--metrics-out, --trace-out): the registry and the
  /// scope stack's simulated clock switch together.
  void set_metrics(bool on) {
    obs_.set_enabled(on);
    scopes_.set_sim_clock(on);
  }
  /// The registry's snapshot, with the scope stack's open stretch
  /// charged first so the layer.* rows sum to the cycles elapsed.
  [[nodiscard]] obs::Snapshot metrics_snapshot() {
    scopes_.settle();
    return obs_.snapshot();
  }
  /// Deterministic time-series sampler (DESIGN.md §16).  Built-in tracks
  /// enroll at construction; arm_timeseries() starts sampling.
  obs::TimeSeries& timeseries() { return timeseries_; }
  [[nodiscard]] const obs::TimeSeries& timeseries() const {
    return timeseries_;
  }
  /// (Re-)arm sampling every `interval` cycles from the current
  /// bus-order instant.  Drops accumulated samples and re-primes counter
  /// baselines, so arming at the same simulated cycle always reproduces
  /// the same stream.
  void arm_timeseries(Cycles interval) {
    timeseries_.arm(interval, bus_order_now());
  }
  [[nodiscard]] const TimingModel& timing() const { return config_.timing; }
  [[nodiscard]] const MachineConfig& config() const { return config_; }

  // --- SMP core control (DESIGN.md §15) -------------------------------------
  [[nodiscard]] unsigned cores() const {
    return static_cast<unsigned>(cores_.size());
  }
  [[nodiscard]] unsigned active_core() const { return active_core_; }
  /// Per-core cycle ledger / counters (reporting; `core` must be valid).
  [[nodiscard]] const CycleAccount& core_account(unsigned core) const {
    return cores_[core]->account;
  }
  /// Switch the executing core: settles the scope stack on the old core's
  /// clock and rebinds it to the new one, moves the trace's
  /// ambient provenance stamp, and delivers any IPI latched for the
  /// target on *its* GIC, so delivery charges and trace events attribute
  /// to the receiving core.  Never called on single-core machines.
  void set_active_core(unsigned core);
  /// Latch an IPI for `target`, charging the send cost to the active
  /// core.  A self-IPI delivers synchronously; a cross-core IPI delivers
  /// when the scheduler next activates the target.
  void post_ipi(unsigned target);
  [[nodiscard]] bool ipi_pending(unsigned core) const {
    return ipi_pending_[core] != 0;
  }
  /// TLBI ...IS analogue: invalidate `va` on the active core and — on
  /// multi-core machines — on every remote core, posting each remote an
  /// IPI (shootdown completion).  Call sites keep charging charge_tlbi()
  /// exactly as before, so single-core charge streams are unchanged.
  void tlb_shootdown_va(VirtAddr va);
  /// Full-TLB variant (break-before-make over a section).
  void tlb_shootdown_all();
  /// Flush [pa, pa+len) from every core's cache: EL2 coherence
  /// maintenance before/after non-cacheable remaps and DMA.
  void cache_flush_range_all(PhysAddr pa, u64 len) {
    for (auto& c : cores_) c->cache.flush_range(pa, len);
  }

  /// Install an exception handler on *every* core (the vector-base
  /// registers are per-core, but all cores run the same kernel/hypervisor
  /// image).  Pass nullptr/empty to clear.
  void install_el1_irq_handler(ExceptionModel::IrqHandler h);
  void install_el2_irq_handler(ExceptionModel::IrqHandler h);
  void install_hypercall_handler(ExceptionModel::HypercallHandler h);
  void install_sysreg_trap_handler(ExceptionModel::SysregTrapHandler h);

  /// Secure-space physical extent (top of DRAM).
  [[nodiscard]] PhysAddr secure_base() const {
    return config_.dram_size - config_.secure_size;
  }
  [[nodiscard]] u64 secure_size() const { return config_.secure_size; }
  [[nodiscard]] bool in_secure_space(PhysAddr pa, u64 len = 1) const {
    return ranges_overlap(pa, len, secure_base(), secure_size());
  }

  /// Runtime fast-path/reference-mode switch (benchmarks flip it to
  /// measure both sides on one machine; tests force reference mode).
  /// Covers both layers: the TLB's bucket index (here) and the Hypersec
  /// audit memo (which reads host_fast_path()).
  void set_host_fast_path(bool on) {
    fast_path_ = on;
    for (auto& c : cores_) c->mmu.tlb().set_index_enabled(on);
  }
  [[nodiscard]] bool host_fast_path() const { return fast_path_; }

  // --- EL0/EL1 virtual-address accesses -------------------------------------
  [[gnu::always_inline]] Access64 read64(VirtAddr va, bool user = false) {
    return access64(va, /*is_write=*/false, 0, user);
  }
  [[gnu::always_inline]] Access64 write64(VirtAddr va, u64 value,
                                          bool user = false) {
    return access64(va, /*is_write=*/true, value, user);
  }

  /// Bulk transfer optimised for large cacheable buffers (page-cache data,
  /// COW copies): one translation per page, one cache access per line,
  /// per-word hit charges.  Non-cacheable pages fall back to the exact
  /// per-word bus-visible path, so MBM semantics are preserved.
  /// `va` word aligned, `len` a multiple of the word size.
  bool write_block_bulk(VirtAddr va, const void* data, u64 len,
                        bool user = false);
  /// write_block_bulk of `len` zero bytes, with identical charges,
  /// counters, cache state and bus traffic; on cacheable pages the
  /// frames drop back to the all-zero sentinel instead of being
  /// materialised (host memory only).
  bool zero_block_bulk(VirtAddr va, u64 len, bool user = false);
  bool read_block_bulk(VirtAddr va, void* out, u64 len, bool user = false);

  /// Translate without performing an access or invoking fault handlers;
  /// still charges walk costs (it is a real probe).
  TranslateOutcome probe(VirtAddr va, const AccessType& access);

  // --- EL2 physical accesses (Hypersec's VA==PA linear map, §6.1) ----------
  u64 el2_read64(PhysAddr pa);
  /// el2_read64 of the page's words in address order up to the first
  /// non-zero one, with exactly its charges, counters, bus traffic and
  /// cache state; true when all 512 words are zero.  A line at a time:
  /// the first word's read (which may miss, fill and write back a
  /// victim), then the line's words read from memory, then the reads up
  /// to the first non-zero word charged as the L1 hits they are.
  bool el2_page_is_zero(PhysAddr page);
  void el2_write64(PhysAddr pa, u64 value);
  /// Non-cacheable EL2 word write: reaches the bus, so the MBM observes it.
  /// Hypersec programs the MBM bitmap this way so the bitmap cache sees
  /// the update (§6.3: "updated when a memory write event to the bitmap is
  /// detected").
  void el2_write64_nc(PhysAddr pa, u64 value);
  void el2_read_block(PhysAddr pa, void* out, u64 len);
  void el2_write_block(PhysAddr pa, const void* data, u64 len);

  // --- Coherent device (DMA-style) memory ports -----------------------------
  /// Used by bus masters other than the CPU (the MBM writing its event ring
  /// buffer).  Keeps the CPU cache coherent by flushing overlapped lines.
  void dma_write_block(PhysAddr pa, const void* data, u64 len);
  void dma_read_block(PhysAddr pa, void* out, u64 len);

  // --- Compute / control -----------------------------------------------------
  /// Pure CPU work (no memory traffic): charge `c` cycles.
  /// A time-series poll site: compute charges dominate long quiet
  /// stretches, so sampling here bounds the stamp skew past an interval
  /// boundary.  Identical in fast-path and reference mode (both charge
  /// through advance).
  void advance(Cycles c) {
    cur_->account.charge(c);
    if (timeseries_.armed()) [[unlikely]] timeseries_.poll(bus_order_now());
  }
  /// One TLB invalidate, with the guest-mode DVM broadcast surcharge.
  void charge_tlbi() {
    cur_->account.charge(config_.timing.tlbi +
                         (guest_mode_ ? config_.timing.tlbi_guest_extra : 0));
  }
  /// Kernel task switch bookkeeping cost (the TTBR0 write is separate).
  /// Also a time-series poll site: scheduler ticks are the steady
  /// heartbeat of otherwise-idle simulated time.
  void charge_context_switch() {
    cur_->account.charge(config_.timing.context_switch);
    ++cur_->account.counters().context_switches;
    if (timeseries_.armed()) [[unlikely]] timeseries_.poll(bus_order_now());
  }

  u64 hvc(u64 func, std::initializer_list<u64> args);
  bool write_sysreg_el1(SysReg reg, u64 value) {
    return cur_->exceptions.write_sysreg_el1(reg, value);
  }
  [[nodiscard]] u64 sysreg(SysReg reg) const { return cur_->sysregs.get(reg); }
  /// Direct register set, bypassing traps: boot firmware / EL2 use only.
  /// Operates on the active core.
  void set_sysreg_raw(SysReg reg, u64 value) { cur_->sysregs.set(reg, value); }
  /// Direct register set on one specific core (secondary-core bring-up).
  void set_sysreg_raw(unsigned core, SysReg reg, u64 value) {
    cores_[core]->sysregs.set(reg, value);
  }
  /// Direct register set replicated to every core: EL2 software programs
  /// identical translation/trap controls cluster-wide (VTTBR, HCR, EL2
  /// vectors).  Single-core machines see exactly one set().
  void set_sysreg_raw_all(SysReg reg, u64 value) {
    for (auto& c : cores_) c->sysregs.set(reg, value);
  }

  void set_s2_fault_handler(S2FaultHandler h) { s2_handler_ = std::move(h); }
  void set_el1_fault_handler(El1FaultHandler h) { el1_handler_ = std::move(h); }

  /// True while the kernel runs as a KVM guest: blocking idle paths take
  /// WFI traps to the hypervisor (HCR_EL2.TWI behaviour).
  void set_guest_mode(bool on) { guest_mode_ = on; }
  [[nodiscard]] bool guest_mode() const { return guest_mode_; }
  /// One trapped WFI: world switch out and back.
  void charge_wfi_trap() {
    cur_->account.charge(config_.timing.vm_exit + config_.timing.vm_entry);
    ++cur_->account.counters().vm_exits;
  }

  void raise_irq(unsigned line) { cur_->gic.raise(line); }

  /// Timestamp for a word bus transaction about to be issued on behalf of
  /// the active core — by the core itself or by a bus-master device (DMA)
  /// it programs.  On multi-core machines this runs the round-robin
  /// arbiter (charging contention waits into the issuing core's ledger)
  /// and claims a bus slot; on every machine it clamps the shared bus
  /// clock monotonic so the MBM's FIFO sees non-decreasing arrival times
  /// even though per-core clocks drift apart.  Identity at cores == 1.
  Cycles bus_timestamp();

  /// Read-only bus-order instant for the active core: its local clock
  /// mapped through the same local-delta rule bus_timestamp() applies,
  /// without claiming a bus slot or advancing the arbiter.  CPU-side
  /// flight-recorder events (IRQ delivery, verifier verdicts, faults)
  /// stamp with this so every trace timestamp shares one clock
  /// domain with the bus-stamped kBusWrite/kMbmFifo/kMbmDetect events —
  /// cross-core detection chains stay subtractable.  Identity at
  /// cores == 1 (the one local clock is the bus clock).
  [[nodiscard]] Cycles bus_order_now() const {
    Cycles now = cur_->account.cycles();
    if (cores_.size() > 1 && now < bus_last_timestamp_) {
      const Cycles delta =
          cur_->last_bus_local != 0 && now > cur_->last_bus_local
              ? now - cur_->last_bus_local
              : 0;
      now = bus_last_timestamp_ + delta;
    }
    return now;
  }

  /// Elapsed simulated time in microseconds (active core's clock).
  [[nodiscard]] double elapsed_us() const {
    return config_.timing.cycles_to_us(cur_->account.cycles());
  }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  /// Append the machine's architectural state (per-core system registers,
  /// TLBs, cache tags, cycle ledgers, ELs, GICs; shared bus count, bus
  /// arbiter, pending IPIs, active core, trace ring) to `w`.  DRAM
  /// contents travel separately (phys().save_pages()).
  void save_state(SnapWriter& w) const;
  /// Restore architectural state from `r` into this live machine.  Wiring
  /// (handlers, snoopers) and the host fast-path setting persist;
  /// host-side observability (metrics, the scope ring) resets; open
  /// scopes stay open across the restore.  Pending IPIs
  /// restore latched (not delivered): they fire when the scheduler next
  /// activates their target, exactly as they would have pre-snapshot.
  void restore_state(SnapReader& r);

 private:
  /// One core's private state bundle.  Construction order matters:
  /// account and sysregs before the components that hold references to
  /// them (declaration order is initialization order).
  struct CoreState {
    CoreState(const MachineConfig& config, PhysicalMemory& phys,
              MemoryBus& bus, obs::Registry& obs, Trace& trace)
        : cache(config.cache, bus, account, config.timing),
          mmu(phys, account, config.timing, obs, config.tlb_entries),
          exceptions(sysregs, account, config.timing, trace),
          gic(exceptions) {}

    CycleAccount account;
    /// Local clock at this core's previous bus issue — the shared bus
    /// clock advances by the delta when this core's clock trails it
    /// (see bus_timestamp()).  0 = no issue yet.
    Cycles last_bus_local = 0;
    SysRegs sysregs;
    Cache cache;
    Mmu mmu;
    ExceptionModel exceptions;
    InterruptController gic;
  };

  /// One word access.  A TLB hit that permits the access and an L1 hit
  /// run inline (defined below the class) and make no out-of-line call;
  /// everything else continues in access64_slow.
  Access64 access64(VirtAddr va, bool is_write, u64 value, bool user);
  /// access64 past the TLB-hit section.  The first translation finishes
  /// inside the caller's still-open sim.mmu `scope` (`hit` is the entry
  /// whose permissions refused the access, or null on a miss); then the
  /// scope closes and the fault, retry and perform paths run.
  Access64 access64_slow(VirtAddr va, const AccessType& at, u64 value,
                         const TlbEntry* hit, obs::Scope& scope);
  /// The one bulk-store loop behind write_block_bulk (source `p`) and
  /// zero_block_bulk (`p` null: the source is all zeros).
  bool store_bulk(VirtAddr va, const u8* p, u64 len, bool user);
  /// Enroll the built-in per-core tracks (sim.core{K}.*) — always done,
  /// so arming later samples a fixed, deterministic track order.
  void enroll_builtin_tracks();
  /// Perform the physical access after a successful translation: the
  /// cacheable section inline, non-cacheable and device pages through
  /// perform_bus.
  u64 perform(PhysAddr pa, const PageAttrs& attrs, bool is_write, u64 value);
  /// The word reaches the bus, where the MBM snoops it.
  u64 perform_bus(PhysAddr pa, bool is_write, u64 value);
  /// The active core's ASID.  TTBR0_EL1 carries it in bits [63:48]
  /// (TCR.A1 == 0 convention), so an address-space switch is a single
  /// system-register write — and thus a single TVM trap under Hypernel
  /// (§5.2.2).
  [[nodiscard]] u16 asid() const {
    return static_cast<u16>(cur_->sysregs.get(SysReg::TTBR0_EL1) >> 48);
  }
  /// The active core's translation regime, read from its live system
  /// registers.
  [[nodiscard]] WalkContext walk_context() const;
  MachineConfig config_;
  Trace trace_;
  PhysicalMemory phys_;
  MemoryBus bus_;
  // Declared before the components that register metrics in their
  // constructors (Mmu); initialization order is declaration order.
  obs::Registry obs_;
  obs::ScopeStack scopes_;
  // Declared before cores_: the per-core built-in tracks enroll probes
  // into it during core construction.
  obs::TimeSeries timeseries_;
  // unique_ptr: CoreState holds internal references (cache/mmu/exceptions
  // bind the core's own account/sysregs), so elements must never move.
  std::vector<std::unique_ptr<CoreState>> cores_;
  CoreState* cur_ = nullptr;  // == cores_[active_core_]
  unsigned active_core_ = 0;
  // Shared-bus round-robin arbiter + monotonic bus clock (DESIGN.md §15).
  u8 last_bus_core_ = 0;
  Cycles bus_busy_until_ = 0;
  Cycles bus_last_timestamp_ = 0;
  std::vector<u8> ipi_pending_;  // one latch per core
  /// Bus-order instant each pending IPI was posted at (parallel to
  /// ipi_pending_): delivery latency = delivery instant - post instant.
  /// Snapshot state, like the latch itself.
  std::vector<Cycles> ipi_post_time_;
  S2FaultHandler s2_handler_;
  El1FaultHandler el1_handler_;
  bool guest_mode_ = false;
  bool fast_path_ = true;
  // Observability handles (inert unless obs_ is enabled).
  obs::Counter obs_bulk_chunks_;
  obs::Counter obs_bulk_exact_words_;
  obs::Counter obs_s2_fault_exits_;
};

[[gnu::always_inline]] inline u64 Machine::perform(PhysAddr pa,
                                                   const PageAttrs& attrs,
                                                   bool is_write, u64 value) {
  if (is_write) {
    ++cur_->account.counters().mem_writes;
  } else {
    ++cur_->account.counters().mem_reads;
  }
  if (attrs.attr != MemAttr::kNormalCacheable ||
      !cur_->cache.config().enabled) [[unlikely]] {
    return perform_bus(pa, is_write, value);
  }
  cur_->cache.access(pa, is_write);
  if (is_write) {
    phys_.write64(pa, value);
    return value;
  }
  return phys_.read64(pa);
}

[[gnu::always_inline]] inline Access64 Machine::access64(VirtAddr va,
                                                         bool is_write,
                                                         u64 value,
                                                         bool user) {
  assert(is_word_aligned(va));
  AccessType at;
  at.is_write = is_write;
  at.is_user = user;
  obs::Scope scope(scopes_, obs::Layer::kSimMmu);
  const TlbEntry* e = cur_->mmu.tlb_hit(va, asid());
  if (e == nullptr || !Mmu::hit_permits(*e, at)) [[unlikely]] {
    return access64_slow(va, at, value, e, scope);
  }
  const PhysAddr pa = e->ppage + (va & kPageMask);
  const PageAttrs attrs = e->attrs;
  scope.close();
  Access64 r;
  r.ok = true;
  r.value = perform(pa, attrs, is_write, value);
  return r;
}

}  // namespace hn::sim
