#include "sim/machine.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>

namespace hn::sim {

Machine::Machine(const MachineConfig& config)
    : config_(config),
      phys_(config.dram_size),
      scopes_(obs_),
      fast_path_(config.host_fast_path) {
  assert(config.secure_size < config.dram_size);
  const unsigned ncores = std::max(1u, config.cores);
  cores_.reserve(ncores);
  for (unsigned i = 0; i < ncores; ++i) {
    cores_.push_back(
        std::make_unique<CoreState>(config_, phys_, bus_, obs_, trace_));
    cores_.back()->mmu.tlb().set_index_enabled(config.host_fast_path);
    cores_.back()->cache.set_bus_provenance(static_cast<u8>(i),
                                            &bus_last_timestamp_);
  }
  cur_ = cores_[0].get();
  if (ncores > 1) {
    // SMP flight-recorder clock: CPU-side events stamp bus-order time so
    // cross-core detection chains subtract cleanly (single core keeps the
    // hookless local-clock path — bit-identical traces).
    for (auto& core : cores_) {
      core->exceptions.set_trace_clock([this] { return bus_order_now(); });
    }
  }
  ipi_pending_.assign(ncores, 0);
  ipi_post_time_.assign(ncores, 0);
  scopes_.bind_clock(cur_->account.cycles_ref());
  obs_bulk_chunks_ = obs_.counter("sim.machine.bulk_chunks");
  obs_bulk_exact_words_ = obs_.counter("sim.machine.bulk_exact_words");
  obs_s2_fault_exits_ = obs_.counter("sim.machine.s2_fault_exits");
  enroll_builtin_tracks();
  if (config.sample_cycles != 0) arm_timeseries(config.sample_cycles);
}

void Machine::enroll_builtin_tracks() {
  // Per-core tracks first (core-major, field-minor): the MBM, kernel and
  // Hypersec layers enroll theirs later in construction order, so the
  // serialized track table is deterministic for a given system shape.
  // The probes read the per-core ledgers directly (always live, not
  // registry-gated).
  for (unsigned i = 0; i < cores_.size(); ++i) {
    const CoreState* core = cores_[i].get();
    const std::string prefix = "sim.core" + std::to_string(i) + ".";
    timeseries_.enroll(prefix + "cycles", obs::TrackKind::kCounter,
                       [core] { return core->account.cycles(); });
    timeseries_.enroll(prefix + "bus_waits", obs::TrackKind::kCounter,
                       [core] { return core->account.counters().bus_waits; });
    timeseries_.enroll(
        prefix + "bus_wait_cycles", obs::TrackKind::kCounter,
        [core] { return core->account.counters().bus_wait_cycles; });
    timeseries_.enroll(
        prefix + "spin_contentions", obs::TrackKind::kCounter,
        [core] { return core->account.counters().spin_contentions; });
    timeseries_.enroll(
        prefix + "ipis_delivered", obs::TrackKind::kCounter,
        [core] { return core->account.counters().ipis_delivered; });
    timeseries_.enroll(
        prefix + "ipi_latency_cycles", obs::TrackKind::kCounter,
        [core] { return core->account.counters().ipi_latency_cycles; });
    timeseries_.enroll(
        prefix + "context_switches", obs::TrackKind::kCounter,
        [core] { return core->account.counters().context_switches; });
  }
}

void Machine::set_active_core(unsigned core) {
  assert(core < cores_.size());
  active_core_ = core;
  cur_ = cores_[core].get();
  // Settle the open stretch on the old core's clock before the stack
  // reads the new one: a scope open across the switch keeps exact self
  // time on both.
  scopes_.bind_clock(cur_->account.cycles_ref());
  trace_.set_active_core(static_cast<u8>(core));
  if (ipi_pending_[core] != 0) {
    ipi_pending_[core] = 0;
    ++cur_->account.counters().ipis_delivered;
    // Delivery latency in bus-order time (read-only observation, so the
    // charge stream is untouched).  Saturates at 0: the receiving core's
    // mapped clock can trail the sender's post instant.
    const Cycles now = bus_order_now();
    const Cycles posted = ipi_post_time_[core];
    cur_->account.counters().ipi_latency_cycles +=
        now > posted ? now - posted : 0;
    ipi_post_time_[core] = 0;
    cur_->gic.raise(kIrqIpi);
  }
}

void Machine::post_ipi(unsigned target) {
  assert(target < cores_.size());
  cur_->account.charge(config_.timing.ipi_send);
  ++cur_->account.counters().ipis_sent;
  if (target == active_core_) {
    ++cur_->account.counters().ipis_delivered;
    cur_->gic.raise(kIrqIpi);
    return;
  }
  // Latch the post instant once per pending latch: coalesced re-posts
  // keep the first (the interrupt the target eventually takes is the
  // first one's).
  if (ipi_pending_[target] == 0) ipi_post_time_[target] = bus_order_now();
  ipi_pending_[target] = 1;
}

void Machine::tlb_shootdown_va(VirtAddr va) {
  cur_->mmu.tlb().flush_va(va);
  if (cores_.size() > 1) {
    // Remote invalidation is immediate (the DVM message); the IPI models
    // the shootdown-completion interrupt the remote core takes.
    for (unsigned c = 0; c < cores_.size(); ++c) {
      if (c == active_core_) continue;
      cores_[c]->mmu.tlb().flush_va(va);
      post_ipi(c);
    }
  }
}

void Machine::tlb_shootdown_all() {
  cur_->mmu.tlb().flush_all();
  if (cores_.size() > 1) {
    for (unsigned c = 0; c < cores_.size(); ++c) {
      if (c == active_core_) continue;
      cores_[c]->mmu.tlb().flush_all();
      post_ipi(c);
    }
  }
}

void Machine::install_el1_irq_handler(ExceptionModel::IrqHandler h) {
  for (auto& c : cores_) c->exceptions.set_el1_irq_handler(h);
}

void Machine::install_el2_irq_handler(ExceptionModel::IrqHandler h) {
  for (auto& c : cores_) c->exceptions.set_el2_irq_handler(h);
}

void Machine::install_hypercall_handler(ExceptionModel::HypercallHandler h) {
  for (auto& c : cores_) c->exceptions.set_hypercall_handler(h);
}

void Machine::install_sysreg_trap_handler(ExceptionModel::SysregTrapHandler h) {
  for (auto& c : cores_) c->exceptions.set_sysreg_trap_handler(h);
}

WalkContext Machine::walk_context() const {
  WalkContext ctx;
  ctx.ttbr0 = cur_->sysregs.get(SysReg::TTBR0_EL1) & 0x0000'FFFF'FFFF'FFFFull;
  ctx.ttbr1 = cur_->sysregs.get(SysReg::TTBR1_EL1) & 0x0000'FFFF'FFFF'FFFFull;
  ctx.asid = asid();
  ctx.stage2_enabled = cur_->sysregs.hcr_bit(kHcrVm);
  ctx.vttbr = cur_->sysregs.get(SysReg::VTTBR_EL2);
  return ctx;
}

Cycles Machine::bus_timestamp() {
  Cycles now = cur_->account.cycles();
  if (cores_.size() > 1) {
    // Deterministic round-robin slot model: a different core issuing into
    // a still-draining slot waits for the remainder — but only when the
    // collision is temporally close, so cores running disjoint phases of
    // simulated time don't charge phantom waits against each other.
    if (active_core_ != last_bus_core_ && now < bus_busy_until_) {
      const Cycles wait = bus_busy_until_ - now;
      if (wait <= config_.timing.bus_contention_window) {
        cur_->account.charge(wait);
        ++cur_->account.counters().bus_waits;
        cur_->account.counters().bus_wait_cycles += wait;
        now = cur_->account.cycles();
      }
    }
    last_bus_core_ = static_cast<u8>(active_core_);
    bus_busy_until_ = now + config_.timing.bus_slot;
    // Bus-order time.  Per-core clocks drift apart, so the shared bus
    // clock is kept monotonic — but a plain clamp would freeze it while a
    // trailing core issues (every write stamped identically, so the MBM's
    // FIFO never drains and spuriously overflows).  Instead the clock
    // advances by the issuing core's local progress since its own last
    // issue: bursts and gaps in the trailing core's write stream keep
    // their local spacing in bus time, exactly as they would on a single
    // core.
    const Cycles delta =
        cur_->last_bus_local != 0 && now > cur_->last_bus_local
            ? now - cur_->last_bus_local
            : 0;
    cur_->last_bus_local = now;
    if (now < bus_last_timestamp_) now = bus_last_timestamp_ + delta;
  }
  // Identity on a single core: the one clock is the bus clock.
  bus_last_timestamp_ = now;
  // Time-series poll site.  Never poll inside perform() — the cacheable
  // bulk paths batch physical accesses without it, while every word of
  // bus traffic funnels through here.
  if (timeseries_.armed()) [[unlikely]] timeseries_.poll(now);
  return now;
}

u64 Machine::perform_bus(PhysAddr pa, bool is_write, u64 value) {
  // Non-cacheable / device: the word access reaches the bus and is
  // therefore visible to the MBM snooper.
  cur_->account.charge(config_.timing.noncacheable_access);
  ++cur_->account.counters().noncacheable_accesses;
  BusTransaction txn;
  txn.paddr = word_align_down(pa);
  txn.core = static_cast<u8>(active_core_);
  txn.timestamp = bus_timestamp();
  if (is_write) {
    phys_.write64(pa, value);
    txn.op = BusOp::kWriteWord;
    txn.value = value;
    txn.trace_seq =
        trace_.record(txn.timestamp, TraceKind::kBusWrite, txn.paddr, value);
    bus_.issue(txn);
    return value;
  }
  const u64 r = phys_.read64(pa);
  txn.op = BusOp::kReadWord;
  txn.value = r;
  bus_.issue(txn);
  return r;
}

Access64 Machine::access64_slow(VirtAddr va, const AccessType& at, u64 value,
                                const TlbEntry* hit, obs::Scope& scope) {
  TranslateOutcome out = hit != nullptr
                             ? cur_->mmu.hit_outcome(*hit, va, at)
                             : cur_->mmu.walk(va, at, walk_context());
  scope.close();
  // A stage-2 fault handler may fix the tables and ask for a retry; bound
  // the loop so a broken handler cannot livelock the simulation.
  for (int attempt = 1;; ++attempt) {
    if (out.ok) {
      Access64 r;
      r.ok = true;
      r.value = perform(out.t.pa, out.t.attrs, at.is_write, value);
      return r;
    }

    switch (out.fault.type) {
      case FaultType::kS2Translation:
      case FaultType::kS2Permission: {
        if (!s2_handler_) {
          Access64 r;
          r.fault = out.fault;
          return r;
        }
        trace_.record(bus_order_now(), TraceKind::kS2Fault,
                      out.fault.ipa, at.is_write ? 1 : 0);
        obs_s2_fault_exits_.add();
        cur_->account.charge(config_.timing.vm_exit);
        ++cur_->account.counters().vm_exits;
        const S2FaultAction action = s2_handler_(out.fault, at.is_write, value);
        cur_->account.charge(config_.timing.vm_entry);
        if (action == S2FaultAction::kRetry) break;
        Access64 r;
        if (action == S2FaultAction::kEmulated) {
          r.ok = true;
          r.value = value;
        } else {
          r.fault = out.fault;
        }
        return r;
      }
      case FaultType::kPermission: {
        trace_.record(bus_order_now(), TraceKind::kEl1Fault, va, 0);
        ++cur_->account.counters().el1_permission_faults;
        if (el1_handler_) el1_handler_(out.fault);
        Access64 r;
        r.fault = out.fault;
        return r;
      }
      case FaultType::kTranslation: {
        // Left to the caller: the kernel's page-fault path decides whether
        // to populate the mapping and retry.
        Access64 r;
        r.fault = out.fault;
        return r;
      }
    }
    if (attempt == 8) break;
    // The retry's translation in its own sim.mmu scope, which closes at
    // the end of this iteration.
    obs::Scope retry(scopes_, obs::Layer::kSimMmu);
    out = cur_->mmu.translate(va, at, walk_context());
  }
  Access64 r;
  r.fault = Fault{FaultType::kTranslation, 0, va, 0, at.is_write};
  return r;
}

bool Machine::write_block_bulk(VirtAddr va, const void* data, u64 len,
                               bool user) {
  return store_bulk(va, static_cast<const u8*>(data), len, user);
}

bool Machine::zero_block_bulk(VirtAddr va, u64 len, bool user) {
  return store_bulk(va, nullptr, len, user);
}

bool Machine::store_bulk(VirtAddr va, const u8* p, u64 len, bool user) {
  obs::Scope scope(scopes_, obs::Layer::kSimMem);
  assert(is_word_aligned(va) && len % kWordSize == 0);
  // The word at byte offset `o` of the source; a null source is all zeros.
  auto word = [p](u64 o) {
    u64 v = 0;
    if (p != nullptr) std::memcpy(&v, p + o, kWordSize);
    return v;
  };
  u64 off = 0;
  while (off < len) {
    const VirtAddr page_va = page_align_down(va + off);
    const u64 chunk = std::min(len - off, page_va + kPageSize - (va + off));
    AccessType at;
    at.is_write = true;
    at.is_user = user;
    const TranslateOutcome out =
        cur_->mmu.translate(va + off, at, walk_context());
    if (!out.ok) {
      // Fall back to the exact path so fault handling (stage-2 fills, COW)
      // behaves identically to single-word accesses.
      if (!write64(va + off, word(off), user).ok) return false;
      obs_bulk_exact_words_.add();
      off += kWordSize;
      continue;
    }
    obs_bulk_chunks_.add();
    const PhysAddr pa = out.t.pa;
    if (out.t.attrs.attr == MemAttr::kNormalCacheable &&
        cur_->cache.config().enabled) {
      // One cache access per line; lines the chunk covers whole stream
      // in without a fetch.  The remaining words' hit charges follow.
      cur_->cache.store_span(pa, chunk);
      const u64 words = chunk / kWordSize;
      cur_->account.charge(config_.timing.l1_hit *
                           (words - chunk / kCacheLineSize));
      cur_->account.counters().mem_writes += words;
      // A zero fill hands whole frames back to the zero sentinel instead
      // of materialising them (DESIGN.md §12).
      if (p != nullptr) {
        phys_.write_block(pa, p + off, chunk);
      } else {
        phys_.zero_range(pa, chunk);
      }
    } else {
      // Non-cacheable / device page: the exact per-word path.  Every word
      // translates on its own and reaches the bus, where a snooper (the
      // MBM) may react by running handler code that disturbs the TLB.
      obs_bulk_exact_words_.add(chunk / kWordSize);
      for (u64 w = 0; w < chunk; w += kWordSize) {
        if (!write64(va + off + w, word(off + w), user).ok) return false;
      }
    }
    off += chunk;
  }
  return true;
}

bool Machine::read_block_bulk(VirtAddr va, void* out_buf, u64 len, bool user) {
  obs::Scope scope(scopes_, obs::Layer::kSimMem);
  assert(is_word_aligned(va) && len % kWordSize == 0);
  auto* p = static_cast<u8*>(out_buf);
  u64 off = 0;
  while (off < len) {
    const VirtAddr page_va = page_align_down(va + off);
    const u64 chunk = std::min(len - off, page_va + kPageSize - (va + off));
    AccessType at;
    at.is_user = user;
    const TranslateOutcome out =
        cur_->mmu.translate(va + off, at, walk_context());
    if (!out.ok) {
      const Access64 r = read64(va + off, user);
      if (!r.ok) return false;
      std::memcpy(p + off, &r.value, kWordSize);
      obs_bulk_exact_words_.add();
      off += kWordSize;
      continue;
    }
    obs_bulk_chunks_.add();
    const PhysAddr pa = out.t.pa;
    if (out.t.attrs.attr == MemAttr::kNormalCacheable &&
        cur_->cache.config().enabled) {
      cur_->cache.load_span(pa, chunk);
      const u64 words = chunk / kWordSize;
      cur_->account.charge(config_.timing.l1_hit *
                           (words - chunk / kCacheLineSize));
      cur_->account.counters().mem_reads += words;
      phys_.read_block(pa, p + off, chunk);
    } else {
      // Non-cacheable / device page: the exact per-word path (see
      // write_block_bulk).
      obs_bulk_exact_words_.add(chunk / kWordSize);
      for (u64 w = 0; w < chunk; w += kWordSize) {
        const Access64 r = read64(va + off + w, user);
        if (!r.ok) return false;
        std::memcpy(p + off + w, &r.value, kWordSize);
      }
    }
    off += chunk;
  }
  return true;
}

TranslateOutcome Machine::probe(VirtAddr va, const AccessType& access) {
  return cur_->mmu.translate(va, access, walk_context());
}

u64 Machine::el2_read64(PhysAddr pa) {
  ++cur_->account.counters().mem_reads;
  if (cur_->cache.config().enabled) {
    cur_->cache.access(pa, /*is_write=*/false);
  } else {
    cur_->account.charge(config_.timing.noncacheable_access);
    ++cur_->account.counters().noncacheable_accesses;
  }
  return phys_.read64(pa);
}

bool Machine::el2_page_is_zero(PhysAddr page) {
  assert(is_page_aligned(page) && phys_.contains(page, kPageSize));
  constexpr u64 kLineWords = kCacheLineSize / kWordSize;
  for (u64 off = 0; off < kPageSize; off += kCacheLineSize) {
    el2_read64(page + off);
    // Read after the access: a write-back's snooper may have written.
    const u8* bytes = phys_.page_data(page >> kPageShift);
    u64 reads = kLineWords;  // up to and including the first non-zero
    bool zero = true;
    for (u64 w = 0; bytes != nullptr && w < kLineWords; ++w) {
      u64 v = 0;
      std::memcpy(&v, bytes + off + w * kWordSize, kWordSize);
      if (v != 0) {
        reads = w + 1;
        zero = false;
        break;
      }
    }
    // The line's later reads hit: its first read left it cached.
    const u64 rest = reads - 1;
    Counters& c = cur_->account.counters();
    c.mem_reads += rest;
    if (cur_->cache.config().enabled) {
      cur_->account.charge(config_.timing.l1_hit * rest);
      c.l1_hits += rest;
    } else {
      cur_->account.charge(config_.timing.noncacheable_access * rest);
      c.noncacheable_accesses += rest;
    }
    if (!zero) return false;
  }
  return true;
}

void Machine::el2_write64(PhysAddr pa, u64 value) {
  ++cur_->account.counters().mem_writes;
  if (cur_->cache.config().enabled) {
    cur_->cache.access(pa, /*is_write=*/true);
  } else {
    cur_->account.charge(config_.timing.noncacheable_access);
    ++cur_->account.counters().noncacheable_accesses;
  }
  phys_.write64(pa, value);
}

void Machine::el2_write64_nc(PhysAddr pa, u64 value) {
  ++cur_->account.counters().mem_writes;
  cur_->account.charge(config_.timing.noncacheable_access);
  ++cur_->account.counters().noncacheable_accesses;
  // The line must not linger dirty in any core's cache, or the bus write
  // below could later be shadowed by a stale write-back.
  cur_->cache.flush_line(pa);
  if (cores_.size() > 1) {
    for (unsigned c = 0; c < cores_.size(); ++c) {
      if (c != active_core_) cores_[c]->cache.flush_line(pa);
    }
  }
  phys_.write64(pa, value);
  BusTransaction txn;
  txn.op = BusOp::kWriteWord;
  txn.paddr = word_align_down(pa);
  txn.value = value;
  txn.core = static_cast<u8>(active_core_);
  txn.timestamp = bus_timestamp();
  txn.trace_seq =
      trace_.record(txn.timestamp, TraceKind::kBusWrite, txn.paddr, value);
  bus_.issue(txn);
}

void Machine::el2_read_block(PhysAddr pa, void* out, u64 len) {
  for (u64 off = 0; off < len; off += kCacheLineSize) {
    if (cur_->cache.config().enabled) {
      cur_->cache.access(pa + off, /*is_write=*/false);
    } else {
      cur_->account.charge(config_.timing.noncacheable_access);
      ++cur_->account.counters().noncacheable_accesses;
    }
  }
  cur_->account.counters().mem_reads += (len + kWordSize - 1) / kWordSize;
  phys_.read_block(pa, out, len);
}

void Machine::el2_write_block(PhysAddr pa, const void* data, u64 len) {
  for (u64 off = 0; off < len; off += kCacheLineSize) {
    if (cur_->cache.config().enabled) {
      cur_->cache.access(pa + off, /*is_write=*/true);
    } else {
      cur_->account.charge(config_.timing.noncacheable_access);
      ++cur_->account.counters().noncacheable_accesses;
    }
  }
  cur_->account.counters().mem_writes += (len + kWordSize - 1) / kWordSize;
  phys_.write_block(pa, data, len);
}

void Machine::dma_write_block(PhysAddr pa, const void* data, u64 len) {
  for (auto& c : cores_) c->cache.flush_range(pa, len);
  phys_.write_block(pa, data, len);
}

void Machine::dma_read_block(PhysAddr pa, void* out, u64 len) {
  for (auto& c : cores_) c->cache.flush_range(pa, len);
  phys_.read_block(pa, out, len);
}

u64 Machine::hvc(u64 func, std::initializer_list<u64> args) {
  obs::Scope scope(scopes_, obs::Layer::kHypersecHvc);
  // The hypercall ABI passes at most a few words in registers
  // (hvc_abi.h); marshal them on the stack instead of allocating a
  // std::vector per call — hypercalls are a hot path under Hypernel.
  std::array<u64, 8> regs;
  assert(args.size() <= regs.size());
  std::copy(args.begin(), args.end(), regs.begin());
  return cur_->exceptions.hvc(func,
                              std::span<const u64>(regs.data(), args.size()));
}

// --- Snapshot support --------------------------------------------------------

void Machine::save_state(SnapWriter& w) const {
  // Per-core architectural state first (count-prefixed so a restore into
  // a machine of a different shape fails loudly), then the shared
  // bus/arbiter/IPI state and the flight-recorder ring.
  w.put_u32(static_cast<u32>(cores_.size()));
  for (const auto& core : cores_) {
    w.put_u32(SysRegs::kRegCount);
    for (unsigned i = 0; i < SysRegs::kRegCount; ++i) {
      w.put_u64(core->sysregs.raw(i));
    }
    core->mmu.tlb().save_state(w);
    core->cache.save_state(w);
    w.put_u64(core->account.cycles());
    for (u64 Counters::* field : kCounterFields) {
      w.put_u64(core->account.counters().*field);
    }
    core->gic.save_state(w);
    w.put_u8(static_cast<u8>(core->exceptions.current_el()));
    w.put_u64(core->last_bus_local);
  }
  w.put_u64(bus_.transaction_count());
  w.put_bool(guest_mode_);
  w.put_u8(last_bus_core_);
  w.put_u64(bus_busy_until_);
  w.put_u64(bus_last_timestamp_);
  for (const u8 pending : ipi_pending_) w.put_u8(pending);
  for (const Cycles posted : ipi_post_time_) w.put_u64(posted);
  w.put_u8(static_cast<u8>(active_core_));
  // Flight-recorder ring: the events it holds, plus drop/sequence
  // accounting.  The enabled flag is host-side policy and not saved.
  const std::vector<TraceEvent> events = trace_.chronological();
  w.put_u64(events.size());
  for (const TraceEvent& e : events) {
    w.put_u64(e.at);
    w.put_u64(e.seq);
    w.put_u64(e.cause);
    w.put_u8(static_cast<u8>(e.kind));
    w.put_u64(e.a);
    w.put_u64(e.b);
    w.put_u8(e.core);
  }
  w.put_u64(trace_.dropped());
  w.put_u64(trace_.sequence());
}

void Machine::restore_state(SnapReader& r) {
  // The restore rewinds the cycle ledgers: settle the scope stack on the
  // old clock now, and rebind it to the active core's clock on every way
  // out.
  scopes_.bind_clock(nullptr);
  struct Rebind {
    Machine& m;
    ~Rebind() { m.scopes_.bind_clock(m.cur_->account.cycles_ref()); }
  } rebind{*this};
  r.section("machine");
  const u32 ncores = r.get_u32();
  if (r.ok() && ncores != cores_.size()) {
    r.fail("core count " + std::to_string(ncores) +
           " does not match this machine");
    return;
  }
  for (auto& core : cores_) {
    r.section("machine");
    const u32 nregs = r.get_u32();
    if (r.ok() && nregs != SysRegs::kRegCount) {
      r.fail("system register count " + std::to_string(nregs) +
             " does not match this build");
      return;
    }
    for (unsigned i = 0; i < SysRegs::kRegCount; ++i) {
      core->sysregs.restore_raw(i, r.get_u64());
    }
    core->mmu.tlb().restore_state(r, phys_.size());
    core->cache.restore_state(r, phys_.size());
    r.section("machine");
    const Cycles cycles = r.get_u64();
    core->account.reset();
    core->account.charge(cycles);
    for (u64 Counters::* field : kCounterFields) {
      core->account.counters().*field = r.get_u64();
    }
    core->gic.restore_state(r);
    r.section("machine");
    core->exceptions.restore_el(static_cast<El>(r.get_u8()));
    core->last_bus_local = r.get_u64();
  }
  bus_.restore_transaction_count(r.get_u64());
  guest_mode_ = r.get_bool();
  last_bus_core_ = r.get_u8();
  bus_busy_until_ = r.get_u64();
  bus_last_timestamp_ = r.get_u64();
  for (u8& pending : ipi_pending_) pending = r.get_u8();
  for (Cycles& posted : ipi_post_time_) posted = r.get_u64();
  const unsigned active = r.get_u8();
  if (r.ok() && active >= cores_.size()) {
    r.fail("active core " + std::to_string(active) + " out of range");
    return;
  }
  const u64 nevents = r.get_count("trace event");
  std::vector<TraceEvent> events;
  events.reserve(r.ok() ? nevents : 0);
  for (u64 i = 0; r.ok() && i < nevents; ++i) {
    TraceEvent e;
    e.at = r.get_u64();
    e.seq = r.get_u64();
    e.cause = r.get_u64();
    e.kind = static_cast<TraceKind>(r.get_u8());
    e.a = r.get_u64();
    e.b = r.get_u64();
    e.core = r.get_u8();
    events.push_back(e);
  }
  const u64 dropped = r.get_u64();
  const u64 seq = r.get_u64();
  if (!r.ok()) return;
  trace_.restore_ring(std::move(events), dropped, seq);
  // Re-activate the saved core *without* IPI delivery: latched IPIs must
  // stay latched across a snapshot so a restored run delivers them at the
  // same future core switch the original run would have.
  active_core_ = active;
  cur_ = cores_[active].get();
  trace_.set_active_core(static_cast<u8>(active));
  // Host-side observability is not part of the snapshot: restart it.
  // Time-series samples drop too (enrollment survives, sampling disarms);
  // sampling runs re-arm after the restore, and delta-encoded counter
  // tracks make the re-primed stream identical to a fresh-boot one.
  obs_.reset_values();
  scopes_.clear_ring();
  timeseries_.clear_samples();
}

}  // namespace hn::sim
