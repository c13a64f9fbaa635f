// Zero fill vs writing a zero buffer.
//
// Machine::zero_block_bulk must be write_block_bulk of a zero buffer in
// everything the simulation can observe; the two differ only in host
// memory (a whole cacheable frame drops back to the zero sentinel rather
// than being materialised).  Every scenario runs on two identically built
// machines, one per entry point, and compares:
//
//   * the machines' architectural state as Machine::save_state writes it:
//     cycles, every Counters field, cache tags, dirty bits and victim
//     cursors, TLB entries and the bus transaction count;
//   * every transaction a recording bus snooper saw, word values included;
//   * the contents of every mapped frame.
#include <gtest/gtest.h>

#include <vector>

#include "sim/bus.h"
#include "sim/machine.h"
#include "sim/pagetable.h"
#include "sim/snapshot.h"
#include "sim/sysregs.h"

namespace hn::sim {
namespace {

constexpr VirtAddr kVa = kKernelVaBase + 0x40'0000;
constexpr PhysAddr kFrame = 0x40'0000;
/// Three 16 KiB regions: the default L1 (32 KiB, 2-way) has a 16 KiB way
/// stride, so filling all three leaves the first region evicted and
/// zeroing it later evicts dirty lines of the others.
constexpr u64 kPages = 12;

struct Recorder : BusSnooper {
  std::vector<BusTransaction> txns;
  void on_transaction(const BusTransaction& t) override { txns.push_back(t); }
};

/// A machine with a recording snooper and kPages kernel pages at kVa.
class Rig {
 public:
  explicit Rig(MemAttr attr) : machine_(MachineConfig{}) {
    root_ = alloc_table();
    machine_.set_sysreg_raw(SysReg::TTBR1_EL1, root_);
    PageAttrs attrs{.write = true};
    attrs.attr = attr;
    for (u64 i = 0; i < kPages; ++i) {
      map(kVa + i * kPageSize, kFrame + i * kPageSize, attrs);
    }
    machine_.bus().attach_snooper(&snoop_);
  }
  ~Rig() { machine_.bus().detach_snooper(&snoop_); }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  Machine& m() { return machine_; }
  [[nodiscard]] const std::vector<BusTransaction>& txns() const {
    return snoop_.txns;
  }

  /// Fill `pages` pages from kVa with a non-zero pattern (charged).
  void fill_pattern(u64 pages) {
    std::vector<u8> buf(pages * kPageSize);
    for (size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<u8>(i * 7 + 1);
    ASSERT_TRUE(machine_.write_block_bulk(kVa, buf.data(), buf.size()));
  }

  /// Store `len` zero bytes at `va` through the entry point under test.
  void store_zeros(VirtAddr va, u64 len, bool zero_fill) {
    if (zero_fill) {
      ASSERT_TRUE(machine_.zero_block_bulk(va, len));
    } else {
      const std::vector<u8> zeros(len, 0);
      ASSERT_TRUE(machine_.write_block_bulk(va, zeros.data(), len));
    }
  }

  [[nodiscard]] std::vector<u8> state() const {
    SnapWriter w;
    machine_.save_state(w);
    return w.take();
  }
  [[nodiscard]] std::vector<u8> frames() {
    std::vector<u8> out(kPages * kPageSize);
    machine_.phys().read_block(kFrame, out.data(), out.size());
    return out;
  }

 private:
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
        d = make_table_desc(alloc_table());
        machine_.phys().write64(slot, d);
      }
      table = desc_out_addr(d);
    }
    machine_.phys().write64(table + va_index(va, 3) * 8,
                            make_page_desc(pa, attrs));
  }

  Machine machine_;
  Recorder snoop_;
  PhysAddr next_table_ = 1 * 1024 * 1024;
  PhysAddr root_ = 0;
};

void expect_same_observations(Rig& zero_fill, Rig& zero_buffer) {
  Machine& a = zero_fill.m();
  Machine& b = zero_buffer.m();
  EXPECT_EQ(a.account().cycles(), b.account().cycles());
  EXPECT_EQ(a.counters().mem_writes, b.counters().mem_writes);
  EXPECT_EQ(a.counters().l1_stream_allocs, b.counters().l1_stream_allocs);
  EXPECT_EQ(a.counters().dirty_writebacks, b.counters().dirty_writebacks);
  EXPECT_EQ(a.bus().transaction_count(), b.bus().transaction_count());
  EXPECT_TRUE(zero_fill.state() == zero_buffer.state())
      << "architectural state (counters, cache, TLB) differs";
  ASSERT_EQ(zero_fill.txns().size(), zero_buffer.txns().size());
  for (size_t i = 0; i < zero_fill.txns().size(); ++i) {
    const BusTransaction& x = zero_fill.txns()[i];
    const BusTransaction& y = zero_buffer.txns()[i];
    EXPECT_EQ(x.op, y.op) << "txn " << i;
    EXPECT_EQ(x.paddr, y.paddr) << "txn " << i;
    EXPECT_EQ(x.value, y.value) << "txn " << i;
    EXPECT_EQ(x.timestamp, y.timestamp) << "txn " << i;
    EXPECT_EQ(x.trace_seq, y.trace_seq) << "txn " << i;
    EXPECT_EQ(x.core, y.core) << "txn " << i;
  }
  EXPECT_TRUE(zero_fill.frames() == zero_buffer.frames())
      << "memory contents differ";
}

TEST(ZeroFill, CacheableSpanWithRaggedEnds) {
  // From mid-line in page 0 to mid-line in page 2: ragged lines take the
  // write-allocate path, whole lines stream, page 1 is a whole frame.
  constexpr u64 kStart = 0x128;
  constexpr u64 kEnd = 2 * kPageSize + 0xDD0;
  Rig a(MemAttr::kNormalCacheable);
  Rig b(MemAttr::kNormalCacheable);
  for (Rig* rig : {&a, &b}) rig->fill_pattern(kPages);
  const u64 writebacks = a.m().counters().dirty_writebacks;
  a.store_zeros(kVa + kStart, kEnd - kStart, /*zero_fill=*/true);
  b.store_zeros(kVa + kStart, kEnd - kStart, /*zero_fill=*/false);
  expect_same_observations(a, b);
  EXPECT_GT(a.m().counters().dirty_writebacks, writebacks);  // evictions ran

  const std::vector<u8> mem = a.frames();
  EXPECT_NE(mem[kStart - 1], 0);  // bytes either side keep the pattern
  EXPECT_NE(mem[kEnd], 0);
  for (u64 i = kStart; i < kEnd; ++i) ASSERT_EQ(mem[i], 0) << i;
  // The whole frame went back to the sentinel instead of being copied.
  EXPECT_EQ(a.m().phys().page_data((kFrame >> kPageShift) + 1), nullptr);
  EXPECT_NE(b.m().phys().page_data((kFrame >> kPageShift) + 1), nullptr);
}

TEST(ZeroFill, NonCacheablePageKeepsEveryBusWord) {
  // Monitored pages are non-cacheable: each zero word must reach the bus
  // as its own write, exactly as the MBM sees a zero buffer.
  Rig a(MemAttr::kNonCacheable);
  Rig b(MemAttr::kNonCacheable);
  for (Rig* rig : {&a, &b}) rig->fill_pattern(2);
  const size_t before = a.txns().size();
  a.store_zeros(kVa + 0x40, kPageSize, /*zero_fill=*/true);
  b.store_zeros(kVa + 0x40, kPageSize, /*zero_fill=*/false);
  expect_same_observations(a, b);

  u64 zero_words = 0;
  for (size_t i = before; i < a.txns().size(); ++i) {
    const BusTransaction& t = a.txns()[i];
    zero_words += t.op == BusOp::kWriteWord && t.value == 0;
  }
  EXPECT_EQ(zero_words, kPageSize / kWordSize);
}

}  // namespace
}  // namespace hn::sim
