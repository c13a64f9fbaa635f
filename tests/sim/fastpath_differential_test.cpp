// Fast-path vs reference-mode differential tests.
//
// DESIGN.md §9's contract: the host fast path (the TLB's bucket index;
// the Hypersec audit memo is covered in hypersec_test) changes
// wall-clock only.  Every scenario here runs twice — once with
// host_fast_path on, once in reference mode — on identically-constructed
// machines, and asserts the simulated ledgers are bit-identical: cycles,
// every counter, the bus transaction count, and the memory contents the
// scenario touched.
//
// The same ledger comparison pins the line-at-a-time kPtAlloc zero check
// (Machine::el2_page_is_zero) to the word loop it replaced.
//
// The disturbance scenarios are the sharp edge: a bus snooper raising an
// IRQ mid-bulk-transfer whose handler inserts TLB entries or rewrites
// translation registers must leave no seam in the ledger.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <vector>

#include "common/rng.h"
#include "kernel/spinlock.h"
#include "sim/bus.h"
#include "sim/irq.h"
#include "sim/machine.h"
#include "sim/pagetable.h"
#include "sim/sysregs.h"
#include "sim/trace_io.h"

namespace hn::sim {
namespace {

/// One machine plus a deterministic page-table builder (same shape as the
/// MachineTest fixture, but standalone so a scenario can be replayed on a
/// twin machine in the other mode).
class Rig {
 public:
  explicit Rig(bool fast_path, unsigned tlb_entries = 16, unsigned cores = 1)
      : machine_(make_config(fast_path, tlb_entries, cores)),
        next_table_(1 * 1024 * 1024) {
    root_ = alloc_table();
    machine_.set_sysreg_raw_all(SysReg::TTBR1_EL1, root_);
  }

  static MachineConfig make_config(bool fast_path, unsigned tlb_entries,
                                   unsigned cores) {
    MachineConfig cfg;
    cfg.host_fast_path = fast_path;
    cfg.tlb_entries = tlb_entries;  // small: eviction pressure in scenarios
    cfg.cores = cores;
    return cfg;
  }

  PhysAddr alloc_table() {
    const PhysAddr t = next_table_;
    next_table_ += kPageSize;
    machine_.phys().zero_range(t, kPageSize);
    return t;
  }

  void map(VirtAddr va, PhysAddr pa, const PageAttrs& attrs) {
    map_in(root_, va, pa, attrs);
  }

  void map_in(PhysAddr root, VirtAddr va, PhysAddr pa, const PageAttrs& attrs) {
    PhysAddr table = root;
    for (unsigned level = 0; level <= 2; ++level) {
      const PhysAddr slot = table + va_index(va, level) * 8;
      u64 d = machine_.phys().read64(slot);
      if (!desc_valid(d)) {
        const PhysAddr next = alloc_table();
        d = make_table_desc(next);
        machine_.phys().write64(slot, d);
      }
      table = desc_out_addr(d);
    }
    machine_.phys().write64(table + va_index(va, 3) * 8,
                            make_page_desc(pa, attrs));
  }

  Machine& m() { return machine_; }
  [[nodiscard]] PhysAddr root() const { return root_; }

 private:
  Machine machine_;
  PhysAddr next_table_;
  PhysAddr root_ = 0;
};

/// Everything the simulation is allowed to observe.
struct Ledger {
  std::vector<Cycles> cycles;      // per core
  std::vector<Counters> counters;  // per core
  u64 bus_txns = 0;
  std::vector<u8> payload;  // scenario-chosen memory extract
};

/// Fill in the machine's side of `ledger`: every core's clock and
/// counters, and the bus transaction count.
void record_machine(Machine& m, Ledger& ledger) {
  for (unsigned core = 0; core < m.cores(); ++core) {
    ledger.cycles.push_back(m.core_account(core).cycles());
    ledger.counters.push_back(m.core_account(core).counters());
  }
  ledger.bus_txns = m.bus().transaction_count();
}

void expect_ledgers_equal(const Ledger& a, const Ledger& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.bus_txns, b.bus_txns);
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (size_t core = 0; core < a.counters.size(); ++core) {
    for (size_t f = 0; f < std::size(kCounterFields); ++f) {
      EXPECT_EQ(a.counters[core].*kCounterFields[f],
                b.counters[core].*kCounterFields[f])
          << "core " << core << ", Counters field " << f;
    }
  }
  EXPECT_EQ(a.payload, b.payload);
}

/// Run `scenario` on a fresh rig with the fast path on and in reference
/// mode, and require identical ledgers.
template <typename Scenario>
void differential(Scenario scenario, unsigned tlb_entries = 16,
                  unsigned cores = 1) {
  Ledger ledgers[2];
  for (const bool fast_path : {true, false}) {
    Rig rig(fast_path, tlb_entries, cores);
    Ledger& ledger = ledgers[fast_path ? 0 : 1];
    scenario(rig, ledger);
    record_machine(rig.m(), ledger);
    // The modes must agree they ran in the intended mode.
    EXPECT_EQ(rig.m().host_fast_path(), fast_path);
    EXPECT_EQ(rig.m().tlb().index_enabled(), fast_path);
  }
  expect_ledgers_equal(ledgers[0], ledgers[1]);
}

constexpr VirtAddr kVa = kKernelVaBase + 0x100000;
constexpr PhysAddr kPa = 4 * 1024 * 1024;

/// Random single-word reads/writes over more pages than TLB slots, with
/// interleaved flushes: exercises index insert/evict/flush against the
/// reference scan, with distinct pages sharing index buckets.  On a
/// multi-core rig the core with the lowest clock runs each access under
/// one spinlock and the flushes are shootdowns, so IPIs, shared-bus waits
/// and lock contention all occur.
void mixed_access_churn(Rig& rig, Ledger& out) {
  const unsigned kPages = 48;  // 3x the 16-entry TLB
  for (unsigned p = 0; p < kPages; ++p) {
    PageAttrs a{.write = true};
    if (p % 5 == 0) a.attr = MemAttr::kNonCacheable;
    a.global = (p % 3 != 0);
    rig.map(kVa + p * kPageSize, kPa + p * kPageSize, a);
  }
  Machine& m = rig.m();
  kernel::SpinLock lock;
  lock.bind(m);
  SplitMix64 rng(42);
  for (int i = 0; i < 4000; ++i) {
    unsigned next = 0;
    for (unsigned c = 1; c < m.cores(); ++c) {
      if (m.core_account(c).cycles() < m.core_account(next).cycles()) next = c;
    }
    if (next != m.active_core()) m.set_active_core(next);
    const VirtAddr va = kVa + rng.next_below(kPages) * kPageSize +
                        rng.next_below(kPageSize / 8) * 8;
    lock.lock();
    if (rng.chance(1, 2)) {
      ASSERT_TRUE(m.write64(va, rng.next()).ok);
    } else {
      ASSERT_TRUE(m.read64(va).ok);
    }
    lock.unlock();
    if (rng.chance(1, 64)) {
      m.tlb_shootdown_va(kVa + rng.next_below(kPages) * kPageSize);
      m.charge_tlbi();
    }
    if (rng.chance(1, 256)) {
      m.tlb_shootdown_all();
      m.charge_tlbi();
    }
  }
  out.payload.resize(kPages * kPageSize);
  m.phys().read_block(kPa, out.payload.data(), out.payload.size());
}

TEST(FastPathDifferential, MixedAccessChurn) {
  differential(mixed_access_churn);
}

TEST(FastPathDifferential, MixedAccessChurnOnTwoCores) {
  differential(mixed_access_churn, 16, /*cores=*/2);
  // The six SMP counters took part in the comparison above.
  Rig rig(/*fast_path=*/true, 16, /*cores=*/2);
  Ledger ledger;
  mixed_access_churn(rig, ledger);
  Counters sum;
  for (unsigned core = 0; core < 2; ++core) {
    const Counters& c = rig.m().core_account(core).counters();
    for (u64 Counters::* field : kCounterFields) sum.*field += c.*field;
  }
  EXPECT_GT(sum.ipis_sent, 0u);
  EXPECT_GT(sum.ipis_delivered, 0u);
  EXPECT_GT(sum.bus_waits, 0u);
  EXPECT_GT(sum.bus_wait_cycles, 0u);
  EXPECT_GT(sum.spin_contentions, 0u);
  EXPECT_GT(sum.ipi_latency_cycles, 0u);
}

TEST(FastPathDifferential, BulkTransfersCacheableAndNot) {
  differential([](Rig& rig, Ledger& out) {
    const unsigned kPages = 8;
    for (unsigned p = 0; p < kPages; ++p) {
      PageAttrs a{.write = true};
      if (p >= 4) a.attr = MemAttr::kNonCacheable;
      rig.map(kVa + p * kPageSize, kPa + p * kPageSize, a);
    }
    Machine& m = rig.m();
    std::vector<u8> buf(3 * kPageSize + 64);
    for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<u8>(i * 7);
    // Cacheable region: page-crossing, unaligned-length (word multiple).
    ASSERT_TRUE(m.write_block_bulk(kVa + 8, buf.data(), buf.size() - 8));
    // Non-cacheable region: the per-word bus-visible path.
    ASSERT_TRUE(m.write_block_bulk(kVa + 4 * kPageSize, buf.data(),
                                   2 * kPageSize + 16));
    std::vector<u8> rd(2 * kPageSize + 16);
    ASSERT_TRUE(m.read_block_bulk(kVa + 4 * kPageSize, rd.data(), rd.size()));
    EXPECT_EQ(std::memcmp(rd.data(), buf.data(), rd.size()), 0);
    std::vector<u8> rd2(buf.size() - 8);
    ASSERT_TRUE(m.read_block_bulk(kVa + 8, rd2.data(), rd2.size()));
    out.payload.insert(out.payload.end(), rd.begin(), rd.end());
    out.payload.insert(out.payload.end(), rd2.begin(), rd2.end());
  });
}

/// Snooper that raises an IRQ the first time it sees a word write to a
/// watched physical address — the MBM detection shape (§5.3), distilled.
struct IrqOnWrite : BusSnooper {
  Machine* machine = nullptr;
  PhysAddr watched = 0;
  bool fired = false;
  void on_transaction(const BusTransaction& t) override {
    if (!fired && t.op == BusOp::kWriteWord && t.paddr == watched) {
      fired = true;
      machine->raise_irq(kIrqMbm);
    }
  }
};

TEST(FastPathDifferential, IrqHandlerInsertsTlbEntriesMidBulk) {
  // The IRQ handler touches other pages, inserting TLB entries (and
  // charging cycles) in the middle of a non-cacheable bulk write;
  // ledgers still match to the cycle.
  differential([](Rig& rig, Ledger& out) {
    PageAttrs nc{.write = true};
    nc.attr = MemAttr::kNonCacheable;
    for (unsigned p = 0; p < 4; ++p) {
      rig.map(kVa + p * kPageSize, kPa + p * kPageSize, nc);
    }
    // Handler working set, never touched by the bulk transfer itself.
    rig.map(kVa + 16 * kPageSize, kPa + 16 * kPageSize,
            PageAttrs{.write = true});
    Machine& m = rig.m();
    m.exceptions().set_el1_irq_handler([&m](unsigned) {
      // Faults here would be a test bug; the access is pre-mapped.
      ASSERT_TRUE(m.read64(kVa + 16 * kPageSize).ok);
      ASSERT_TRUE(m.write64(kVa + 16 * kPageSize, 0x1137).ok);
    });
    IrqOnWrite snoop;
    snoop.machine = &m;
    snoop.watched = kPa + kPageSize + 0x40;  // mid-transfer, second page
    m.bus().attach_snooper(&snoop);
    std::vector<u8> buf(3 * kPageSize);
    for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<u8>(i);
    ASSERT_TRUE(m.write_block_bulk(kVa, buf.data(), buf.size()));
    m.bus().detach_snooper(&snoop);
    EXPECT_TRUE(snoop.fired);
    out.payload.resize(buf.size());
    m.phys().read_block(kPa, out.payload.data(), out.payload.size());
  });
}

TEST(FastPathDifferential, IrqHandlerRewritesSysregMidBulk) {
  // The handler rewrites TTBR0_EL1 mid-transfer, and every later word
  // translates under the new register.  (The bulk VA translates through
  // TTBR1, so results are unchanged.)
  differential([](Rig& rig, Ledger& out) {
    PageAttrs nc{.write = true};
    nc.attr = MemAttr::kNonCacheable;
    for (unsigned p = 0; p < 3; ++p) {
      rig.map(kVa + p * kPageSize, kPa + p * kPageSize, nc);
    }
    Machine& m = rig.m();
    m.exceptions().set_el1_irq_handler([&m](unsigned) {
      m.set_sysreg_raw(SysReg::TTBR0_EL1,
                       m.sysreg(SysReg::TTBR0_EL1) + kPageSize);
    });
    IrqOnWrite snoop;
    snoop.machine = &m;
    snoop.watched = kPa + 0x80;
    m.bus().attach_snooper(&snoop);
    std::vector<u8> buf(2 * kPageSize);
    for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<u8>(i * 3);
    ASSERT_TRUE(m.write_block_bulk(kVa, buf.data(), buf.size()));
    std::vector<u8> rd(buf.size());
    ASSERT_TRUE(m.read_block_bulk(kVa, rd.data(), rd.size()));
    m.bus().detach_snooper(&snoop);
    EXPECT_TRUE(snoop.fired);
    EXPECT_EQ(rd, buf);
    out.payload = rd;
  });
}

TEST(FastPathDifferential, WalkContextTracksTranslationRegisterRewrites) {
  // Repointing TTBR1_EL1 at a different root must take effect on the next
  // access in both modes.  Maps the same VA to two different PAs via two
  // table trees.
  differential([](Rig& rig, Ledger& out) {
    rig.map(kVa, kPa, PageAttrs{.write = true});
    Machine& m = rig.m();
    ASSERT_TRUE(m.write64(kVa, 0xAAAA).ok);

    const PhysAddr root2 = rig.alloc_table();
    rig.map_in(root2, kVa, kPa + 64 * kPageSize, PageAttrs{.write = true});
    m.set_sysreg_raw(SysReg::TTBR1_EL1, root2);
    m.tlb().flush_all();
    m.charge_tlbi();
    ASSERT_TRUE(m.write64(kVa, 0xBBBB).ok);

    EXPECT_EQ(m.phys().read64(kPa), 0xAAAAu);
    EXPECT_EQ(m.phys().read64(kPa + 64 * kPageSize), 0xBBBBu);
    // And back: the first root's mapping must be live again.
    m.set_sysreg_raw(SysReg::TTBR1_EL1, rig.root());
    m.tlb().flush_all();
    m.charge_tlbi();
    const Access64 r = m.read64(kVa);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value, 0xAAAAu);
    out.payload.resize(16);
    m.phys().read_block(kPa, out.payload.data(), 8);
    m.phys().read_block(kPa + 64 * kPageSize, out.payload.data() + 8, 8);
  });
}

TEST(FastPathDifferential, CapturedTraceIsByteIdentical) {
  // The flight recorder extends the "wall-clock only" contract: the
  // serialized trace — every kBusWrite the bulk path stamps, every
  // timestamp — must match the reference walk byte for byte.
  std::vector<u8> blobs[2];
  for (int mode = 0; mode < 2; ++mode) {
    Rig rig(/*fast_path=*/mode == 0);
    Machine& m = rig.m();
    m.trace().set_enabled(true);
    PageAttrs nc{.write = true};
    nc.attr = MemAttr::kNonCacheable;
    for (unsigned p = 0; p < 4; ++p) {
      rig.map(kVa + p * kPageSize, kPa + p * kPageSize, nc);
    }
    SplitMix64 rng(11);
    for (int i = 0; i < 200; ++i) {
      const VirtAddr va = kVa + rng.next_below(4) * kPageSize +
                          rng.next_below(kPageSize / 8) * 8;
      ASSERT_TRUE(m.write64(va, rng.next()).ok);
    }
    // Bulk path too.
    std::vector<u8> buf(2 * kPageSize);
    for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<u8>(i * 5);
    ASSERT_TRUE(m.write_block_bulk(kVa, buf.data(), buf.size()));
    blobs[mode] = serialize_trace(m.trace(), nullptr, m.timing().cpu_ghz);
    EXPECT_GT(m.trace().count(TraceKind::kBusWrite), 0u);
  }
  ASSERT_FALSE(blobs[0].empty());
  EXPECT_EQ(blobs[0], blobs[1]);
}

TEST(FastPathDifferential, RuntimeModeFlipConverges) {
  // One machine, flipping modes between phases: the ledger after N
  // accesses must equal a machine that stayed in one mode throughout.
  auto run = [](int flavor) {
    Rig rig(/*fast_path=*/flavor != 2);
    for (unsigned p = 0; p < 8; ++p) {
      rig.map(kVa + p * kPageSize, kPa + p * kPageSize, PageAttrs{.write = true});
    }
    Machine& m = rig.m();
    SplitMix64 rng(9);
    for (int i = 0; i < 1000; ++i) {
      if (flavor == 0 && i % 100 == 0) {
        m.set_host_fast_path(i % 200 == 0);
      }
      const VirtAddr va = kVa + rng.next_below(8) * kPageSize +
                          rng.next_below(kPageSize / 8) * 8;
      if (rng.chance(1, 2)) {
        EXPECT_TRUE(m.write64(va, rng.next()).ok);
      } else {
        EXPECT_TRUE(m.read64(va).ok);
      }
    }
    return m.account().cycles();
  };
  const Cycles flipping = run(0);
  const Cycles pure_fast = run(1);
  const Cycles pure_ref = run(2);
  EXPECT_EQ(flipping, pure_fast);
  EXPECT_EQ(pure_fast, pure_ref);
}

TEST(FastPathDifferential, El2BlockCountsNoncacheableAccessesWhenCacheOff) {
  // Satellite regression: the EL2 block transfers model line-granular
  // burst traffic (one charge per cache line), but with the cache
  // disabled the branch charged cycles without counting the access —
  // counters and cycles disagreed about how much uncached traffic
  // happened.  Pin the repaired invariant: one counted noncacheable
  // access per charged line, and cycles == accesses * per-access cost.
  MachineConfig cfg;
  cfg.cache.enabled = false;
  Machine m(cfg);
  std::vector<u8> buf(256);
  for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<u8>(i);
  m.el2_write_block(kPa, buf.data(), buf.size());
  std::vector<u8> rd(buf.size());
  m.el2_read_block(kPa, rd.data(), rd.size());
  EXPECT_EQ(rd, buf);

  const u64 lines = 2 * buf.size() / kCacheLineSize;  // write + read pass
  EXPECT_EQ(m.counters().noncacheable_accesses, lines);
  EXPECT_EQ(m.account().cycles(),
            lines * m.timing().noncacheable_access);
  EXPECT_EQ(m.counters().mem_writes, buf.size() / 8);
  EXPECT_EQ(m.counters().mem_reads, buf.size() / 8);
}

// --- The kPtAlloc zero check against the word loop ---------------------------

/// The word loop Machine::el2_page_is_zero replaced, as the reference
/// model: one EL2 read per word, up to the first non-zero one.
bool word_loop_page_is_zero(Machine& m, PhysAddr page) {
  for (u64 off = 0; off < kPageSize; off += kWordSize) {
    if (m.el2_read64(page + off) != 0) return false;
  }
  return true;
}

/// Snooper that re-enters the cache on every dirty write-back: an EL2
/// read in the written-back line's set, then an EL2 write beside it.  On
/// the third write-back it also plants a non-zero word at `plant` (0:
/// never), so the check must read a line's words after its first read.
struct ReenterOnWriteback : BusSnooper {
  Machine* machine = nullptr;
  u64 set_stride = 0;  // bytes between two lines of one cache set
  PhysAddr plant = 0;
  u64 writebacks = 0;
  bool inside = false;
  void on_transaction(const BusTransaction& t) override {
    if (t.op != BusOp::kWriteLine || inside) return;
    inside = true;
    ++writebacks;
    const PhysAddr other = t.paddr + 3 * set_stride;
    machine->el2_read64(other);
    machine->el2_write64(other + kCacheLineSize, writebacks);
    if (plant != 0 && writebacks == 3) machine->phys().write64(plant, 0x5A);
    inside = false;
  }
};

struct ZeroCheckCase {
  bool cache = true;
  u64 cache_bytes = 32 * 1024;
  int nonzero = -1;      // word index of the first non-zero word; -1: none
  bool victims = false;  // every set the page maps to holds dirty lines
  u64 plant_word = 0;    // word the snooper plants; 0: none
};

Ledger run_zero_check(const ZeroCheckCase& c, bool reference) {
  MachineConfig cfg;
  cfg.cache.enabled = c.cache;
  cfg.cache.size_bytes = c.cache_bytes;
  Machine m(cfg);
  constexpr PhysAddr kPage = 0x20'0000;
  const u64 stride = c.cache_bytes / kCacheWays;
  if (c.nonzero >= 0) {
    m.phys().write64(kPage + static_cast<u64>(c.nonzero) * kWordSize, 0xF00D);
  }
  if (c.victims) {
    for (u64 off = 0; off < kPageSize; off += kCacheLineSize) {
      m.el2_write64(kPage + off + 5 * stride, off);
      m.el2_write64(kPage + off + 6 * stride, off);
    }
  }
  ReenterOnWriteback snoop;
  snoop.machine = &m;
  snoop.set_stride = stride;
  snoop.plant = c.plant_word != 0 ? kPage + c.plant_word * kWordSize : 0;
  m.bus().attach_snooper(&snoop);
  const bool zero = reference ? word_loop_page_is_zero(m, kPage)
                              : m.el2_page_is_zero(kPage);
  m.bus().detach_snooper(&snoop);
  Ledger ledger;
  record_machine(m, ledger);
  ledger.payload.push_back(zero ? 1 : 0);
  ledger.payload.push_back(static_cast<u8>(snoop.writebacks));
  SnapWriter w;
  m.cache().save_state(w);
  ledger.payload.insert(ledger.payload.end(), w.data().begin(),
                        w.data().end());
  return ledger;
}

TEST(El2ZeroCheck, MatchesTheWordLoop) {
  // First non-zero word at 0, 7, 8, 63 and 511, or none; with the cache
  // off, the default 32 KiB cache and a 4 KiB one; with dirty victims
  // written back to a snooper that re-enters the cache and plants a word
  // in the line under check (21) or in one already passed (9).
  const int firsts[] = {0, 7, 8, 63, 511, -1};
  std::vector<ZeroCheckCase> cases;
  for (const int first : firsts) {
    cases.push_back({.cache = false, .nonzero = first});
    for (const u64 bytes : {u64{32 * 1024}, u64{4 * 1024}}) {
      cases.push_back({.cache_bytes = bytes, .nonzero = first});
      for (const u64 plant : {u64{0}, u64{21}, u64{9}}) {
        cases.push_back({.cache_bytes = bytes, .nonzero = first,
                         .victims = true, .plant_word = plant});
      }
    }
  }
  u64 writebacks = 0;
  for (const ZeroCheckCase& c : cases) {
    SCOPED_TRACE(testing::Message()
                 << "cache=" << c.cache << " bytes=" << c.cache_bytes
                 << " nonzero=" << c.nonzero << " victims=" << c.victims
                 << " plant=" << c.plant_word);
    const Ledger lines = run_zero_check(c, /*reference=*/false);
    const Ledger words = run_zero_check(c, /*reference=*/true);
    expect_ledgers_equal(lines, words);
    writebacks += lines.payload[1];
    EXPECT_EQ(lines.payload[0] != 0,
              c.nonzero < 0 && (c.plant_word == 0 || c.plant_word == 9));
  }
  EXPECT_GT(writebacks, 0u);  // the re-entrant path really ran
}

}  // namespace
}  // namespace hn::sim
