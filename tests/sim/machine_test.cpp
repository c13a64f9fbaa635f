// Machine-level tests: the charged access API, EL2 accesses, exception
// model (HVC, TVM traps), interrupt routing, and the guest-mode helpers.
#include <gtest/gtest.h>

#include <vector>

#include "sim/irq.h"
#include "sim/machine.h"
#include "sim/pagetable.h"
#include "sim/sysregs.h"

namespace hn::sim {
namespace {

class MachineTest : public ::testing::Test {
 protected:
  MachineTest() : machine_(MachineConfig{}), next_table_(1 * 1024 * 1024) {
    root_ = alloc_table();
    machine_.set_sysreg_raw(SysReg::TTBR1_EL1, root_);
  }

  PhysAddr alloc_table() {
    const PhysAddr t = next_table_;
    next_table_ += kPageSize;
    machine_.phys().zero_range(t, kPageSize);
    return t;
  }

  void map(VirtAddr va, PhysAddr pa, const PageAttrs& attrs) {
    PhysAddr table = root_;
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

  Machine machine_;
  PhysAddr next_table_;
  PhysAddr root_ = 0;
};

TEST_F(MachineTest, VirtualReadWrite) {
  const VirtAddr va = kKernelVaBase + 0x5000;
  map(va, 0x5000, PageAttrs{.write = true});
  ASSERT_TRUE(machine_.write64(va, 0xCAFE).ok);
  const Access64 r = machine_.read64(va);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 0xCAFEu);
  EXPECT_EQ(machine_.phys().read64(0x5000), 0xCAFEu);
}

TEST_F(MachineTest, PermissionFaultReported) {
  const VirtAddr va = kKernelVaBase + 0x6000;
  map(va, 0x6000, PageAttrs{.write = false});
  const Access64 w = machine_.write64(va, 1);
  EXPECT_FALSE(w.ok);
  EXPECT_EQ(w.fault.type, FaultType::kPermission);
  EXPECT_EQ(machine_.counters().el1_permission_faults, 1u);
  // The memory is untouched.
  EXPECT_EQ(machine_.phys().read64(0x6000), 0u);
}

TEST_F(MachineTest, El1FaultHandlerInvoked) {
  const VirtAddr va = kKernelVaBase + 0x6000;
  map(va, 0x6000, PageAttrs{.write = false});
  int faults = 0;
  machine_.set_el1_fault_handler([&](const Fault& f) {
    ++faults;
    EXPECT_EQ(f.type, FaultType::kPermission);
  });
  machine_.write64(va, 1);
  EXPECT_EQ(faults, 1);
}

TEST_F(MachineTest, NonCacheableWriteReachesBus) {
  const VirtAddr va = kKernelVaBase + 0x7000;
  PageAttrs nc{.write = true};
  nc.attr = MemAttr::kNonCacheable;
  map(va, 0x7000, nc);

  struct Recorder : BusSnooper {
    std::vector<BusTransaction> txns;
    void on_transaction(const BusTransaction& t) override {
      txns.push_back(t);
    }
  } rec;
  machine_.bus().attach_snooper(&rec);
  machine_.write64(va + 0x10, 0xBEEF);
  machine_.bus().detach_snooper(&rec);

  bool saw = false;
  for (const auto& t : rec.txns) {
    if (t.op == BusOp::kWriteWord && t.paddr == 0x7010 && t.value == 0xBEEF) {
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
  EXPECT_GE(machine_.counters().noncacheable_accesses, 1u);
}

TEST_F(MachineTest, CacheableWriteDoesNotReachBusAsWord) {
  const VirtAddr va = kKernelVaBase + 0x8000;
  map(va, 0x8000, PageAttrs{.write = true});
  struct Recorder : BusSnooper {
    int word_writes = 0;
    void on_transaction(const BusTransaction& t) override {
      word_writes += (t.op == BusOp::kWriteWord);
    }
  } rec;
  machine_.bus().attach_snooper(&rec);
  machine_.write64(va, 0xF00D);
  machine_.bus().detach_snooper(&rec);
  EXPECT_EQ(rec.word_writes, 0);
}

TEST_F(MachineTest, BlockTransfersRoundTrip) {
  const VirtAddr va = kKernelVaBase + 0x9000;
  map(va, 0x9000, PageAttrs{.write = true});
  u8 data[64];
  for (int i = 0; i < 64; ++i) data[i] = static_cast<u8>(i * 3);
  ASSERT_TRUE(machine_.write_block_bulk(va, data, sizeof(data)));
  u8 out[64] = {};
  ASSERT_TRUE(machine_.read_block_bulk(va, out, sizeof(out)));
  EXPECT_EQ(0, std::memcmp(data, out, sizeof(data)));
}

TEST_F(MachineTest, BulkTransfersRoundTripAcrossPages) {
  const VirtAddr va = kKernelVaBase + 0xA000;
  map(va, 0xA000, PageAttrs{.write = true});
  map(va + kPageSize, 0xB000, PageAttrs{.write = true});
  std::vector<u8> data(2 * kPageSize);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7);
  ASSERT_TRUE(machine_.write_block_bulk(va, data.data(), data.size()));
  std::vector<u8> out(2 * kPageSize);
  ASSERT_TRUE(machine_.read_block_bulk(va, out.data(), out.size()));
  EXPECT_EQ(data, out);
}

TEST_F(MachineTest, BulkWriteOnNonCacheablePageEmitsWordTraffic) {
  const VirtAddr va = kKernelVaBase + 0xC000;
  PageAttrs nc{.write = true};
  nc.attr = MemAttr::kNonCacheable;
  map(va, 0xC000, nc);
  struct Recorder : BusSnooper {
    int word_writes = 0;
    void on_transaction(const BusTransaction& t) override {
      word_writes += (t.op == BusOp::kWriteWord);
    }
  } rec;
  machine_.bus().attach_snooper(&rec);
  std::vector<u8> data(256, 0x5A);
  machine_.write_block_bulk(va, data.data(), data.size());
  machine_.bus().detach_snooper(&rec);
  EXPECT_EQ(rec.word_writes, 32);  // every word visible, MBM semantics hold
}

TEST_F(MachineTest, El2AccessBypassesTranslation) {
  machine_.el2_write64(0x1234000, 0x77);
  EXPECT_EQ(machine_.el2_read64(0x1234000), 0x77u);
  EXPECT_EQ(machine_.counters().tlb_misses, 0u);
}

TEST_F(MachineTest, El2NcWriteVisibleOnBus) {
  struct Recorder : BusSnooper {
    int word_writes = 0;
    void on_transaction(const BusTransaction& t) override {
      word_writes += (t.op == BusOp::kWriteWord);
    }
  } rec;
  machine_.bus().attach_snooper(&rec);
  machine_.el2_write64_nc(0x2000000, 0xAB);
  machine_.bus().detach_snooper(&rec);
  EXPECT_EQ(rec.word_writes, 1);
  EXPECT_EQ(machine_.phys().read64(0x2000000), 0xABu);
}

TEST_F(MachineTest, DmaKeepsCacheCoherent) {
  const VirtAddr va = kKernelVaBase + 0xD000;
  map(va, 0xD000, PageAttrs{.write = true});
  machine_.write64(va, 0x1111);  // dirty in cache (functionally in memory)
  const u64 fresh = 0x2222;
  machine_.dma_write_block(0xD000, &fresh, 8);
  const Access64 r = machine_.read64(va);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 0x2222u);  // DMA data not shadowed by a stale line
}

TEST_F(MachineTest, HvcRoutesToHandlerAndCharges) {
  u64 seen_func = 0;
  machine_.exceptions().set_hypercall_handler(
      [&](u64 func, std::span<const u64> args) {
        seen_func = func;
        EXPECT_EQ(machine_.exceptions().current_el(), El::kEl2);
        return args.empty() ? 0 : args[0] + 1;
      });
  const Cycles before = machine_.account().cycles();
  EXPECT_EQ(machine_.hvc(9, {41}), 42u);
  EXPECT_EQ(seen_func, 9u);
  EXPECT_GE(machine_.account().cycles() - before,
            machine_.timing().hvc_roundtrip);
  EXPECT_EQ(machine_.counters().hvc_calls, 1u);
  EXPECT_EQ(machine_.exceptions().current_el(), El::kEl1);
}

TEST_F(MachineTest, HvcWithoutHandlerReturnsError) {
  EXPECT_EQ(machine_.hvc(1, {}), u64(-1));
}

TEST_F(MachineTest, TvmTrapsSysregWrites) {
  machine_.set_sysreg_raw(SysReg::HCR_EL2,
                          with_bit(0, kHcrTvm, true));
  int traps = 0;
  machine_.exceptions().set_sysreg_trap_handler(
      [&](SysReg reg, u64 value) {
        ++traps;
        EXPECT_EQ(reg, SysReg::TTBR0_EL1);
        return value == 0xBAD ? TrapVerdict::kDeny : TrapVerdict::kAllow;
      });
  EXPECT_TRUE(machine_.write_sysreg_el1(SysReg::TTBR0_EL1, 0x600D));
  EXPECT_EQ(machine_.sysreg(SysReg::TTBR0_EL1), 0x600Du);
  EXPECT_FALSE(machine_.write_sysreg_el1(SysReg::TTBR0_EL1, 0xBAD));
  EXPECT_EQ(machine_.sysreg(SysReg::TTBR0_EL1), 0x600Du);  // unchanged
  EXPECT_EQ(traps, 2);
  EXPECT_EQ(machine_.counters().sysreg_traps, 2u);
}

TEST_F(MachineTest, UntrappedSysregWritesDirect) {
  // TVM off: no trap, no charge.
  int traps = 0;
  machine_.exceptions().set_sysreg_trap_handler([&](SysReg, u64) {
    ++traps;
    return TrapVerdict::kAllow;
  });
  EXPECT_TRUE(machine_.write_sysreg_el1(SysReg::TTBR0_EL1, 0x1234));
  EXPECT_EQ(traps, 0);
  // Non-VM registers never trap even with TVM on.
  machine_.set_sysreg_raw(SysReg::HCR_EL2, with_bit(0, kHcrTvm, true));
  EXPECT_TRUE(machine_.write_sysreg_el1(SysReg::VBAR_EL1, 0x9999));
  EXPECT_EQ(traps, 0);
}

TEST_F(MachineTest, IrqRoutesToEl1ByDefault) {
  unsigned seen = 0;
  machine_.exceptions().set_el1_irq_handler([&](unsigned line) { seen = line; });
  machine_.raise_irq(kIrqMbm);
  EXPECT_EQ(seen, kIrqMbm);
  EXPECT_EQ(machine_.counters().irqs_delivered, 1u);
}

TEST_F(MachineTest, IrqRoutesToEl2WithImo) {
  machine_.set_sysreg_raw(SysReg::HCR_EL2, with_bit(0, kHcrImo, true));
  unsigned el1_seen = 0;
  unsigned el2_seen = 0;
  machine_.exceptions().set_el1_irq_handler([&](unsigned line) { el1_seen = line; });
  machine_.exceptions().set_el2_irq_handler([&](unsigned line) { el2_seen = line; });
  machine_.raise_irq(kIrqTimer);
  EXPECT_EQ(el2_seen, kIrqTimer);
  EXPECT_EQ(el1_seen, 0u);
}

TEST_F(MachineTest, DisabledIrqLatchesAndReplays) {
  unsigned count = 0;
  machine_.exceptions().set_el1_irq_handler([&](unsigned) { ++count; });
  machine_.gic().set_enabled(kIrqNet, false);
  machine_.raise_irq(kIrqNet);
  EXPECT_EQ(count, 0u);
  machine_.gic().set_enabled(kIrqNet, true);
  machine_.gic().replay_pending();
  EXPECT_EQ(count, 1u);
}

TEST_F(MachineTest, SecureSpaceBounds) {
  EXPECT_EQ(machine_.secure_base() + machine_.secure_size(),
            machine_.phys().size());
  EXPECT_TRUE(machine_.in_secure_space(machine_.secure_base()));
  EXPECT_FALSE(machine_.in_secure_space(machine_.secure_base() - 1));
  EXPECT_TRUE(machine_.in_secure_space(machine_.secure_base() - 1, 2));
}

TEST_F(MachineTest, GuestModeWfiCharge) {
  EXPECT_FALSE(machine_.guest_mode());
  machine_.set_guest_mode(true);
  const Cycles before = machine_.account().cycles();
  machine_.charge_wfi_trap();
  EXPECT_EQ(machine_.account().cycles() - before,
            machine_.timing().vm_exit + machine_.timing().vm_entry);
  EXPECT_EQ(machine_.counters().vm_exits, 1u);
}

TEST_F(MachineTest, ElapsedUsTracksCycles) {
  machine_.advance(machine_.timing().us_to_cycles(10.0));
  EXPECT_NEAR(machine_.elapsed_us(), 10.0, 0.01);
}

// The layer scope stack (obs/scope.h) on a real machine: the rows sum to
// the simulated cycles elapsed, summed over cores.

TEST(MachineScopes, RowsSumToTheCyclesElapsedOnOneCore) {
  Machine m{MachineConfig{}};
  m.set_metrics(true);
  const Cycles start = m.account().cycles();
  m.advance(5);
  m.hvc(0, {});  // no handler: the round trip alone, in hypersec.hvc
  {
    obs::Scope step(m.scopes(), obs::Layer::kFuzzStep);
    m.advance(40);
  }
  const obs::LayerReport report = m.scopes().report();
  EXPECT_EQ(report.total_cycles(), m.account().cycles() - start);
  EXPECT_EQ(report[obs::Layer::kHypersecHvc].self_cycles,
            m.timing().hvc_roundtrip);
  EXPECT_EQ(report[obs::Layer::kFuzzStep].self_cycles, 40u);
  EXPECT_EQ(report[obs::Layer::kOther].self_cycles, 5u);
  // The registry's layer.*.self_cycles rows say the same.
  EXPECT_EQ(obs::layer_report(m.metrics_snapshot()).total_cycles(),
            m.account().cycles() - start);
}

TEST(MachineScopes, ScopeOpenAcrossACoreSwitchKeepsExactSelfTime) {
  MachineConfig config;
  config.cores = 2;
  Machine m{config};
  m.set_metrics(true);
  const Cycles start0 = m.core_account(0).cycles();
  const Cycles start1 = m.core_account(1).cycles();
  {
    obs::Scope step(m.scopes(), obs::Layer::kFuzzStep);
    m.advance(100);        // core 0
    m.set_active_core(1);  // core 1's clock may read anything
    m.advance(50);
    {
      obs::Scope mem(m.scopes(), obs::Layer::kSimMem);
      m.advance(9);
    }
  }
  m.advance(7);
  m.set_active_core(0);
  m.advance(3);
  const Cycles elapsed = (m.core_account(0).cycles() - start0) +
                         (m.core_account(1).cycles() - start1);
  const obs::LayerReport report = m.scopes().report();
  EXPECT_EQ(elapsed, 169u);
  EXPECT_EQ(report.total_cycles(), elapsed);
  EXPECT_EQ(report[obs::Layer::kFuzzStep].self_cycles, 150u);
  EXPECT_EQ(report[obs::Layer::kSimMem].self_cycles, 9u);
  EXPECT_EQ(report[obs::Layer::kOther].self_cycles, 10u);
  // The ring still holds a well-formed record of the straddling scope.
  const std::vector<obs::ScopeEvent> ring = m.scopes().chronological();
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[1].name_id, static_cast<u32>(obs::Layer::kFuzzStep));
  EXPECT_EQ(ring[1].self, 150u);
  EXPECT_GE(ring[1].end, ring[1].begin);
}

}  // namespace
}  // namespace hn::sim
