// MBM tests: bitmap address math (properties), the write FIFO occupancy
// model, the read-allocate/write-update bitmap cache, the event ring, and
// the assembled monitor pipeline of Fig. 5 — including the cache-
// visibility negative control that justifies non-cacheable monitored
// pages (§5.3).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "mbm/bitmap_cache.h"
#include "mbm/bitmap_math.h"
#include "mbm/event_ring.h"
#include "mbm/monitor.h"
#include "mbm/write_fifo.h"
#include "sim/machine.h"

namespace hn::mbm {
namespace {

// ---------------- bitmap math ----------------

TEST(BitmapMath, OneBitPerWord) {
  EXPECT_EQ(bit_index_for(0, 0), 0u);
  EXPECT_EQ(bit_index_for(7, 0), 0u);   // same word
  EXPECT_EQ(bit_index_for(8, 0), 1u);
  EXPECT_EQ(bit_index_for(0x1000, 0), 512u);
}

TEST(BitmapMath, WordAddressAndPosition) {
  const PhysAddr base = 0x7000000;
  EXPECT_EQ(bitmap_word_addr(0, base), base);
  EXPECT_EQ(bitmap_word_addr(63, base), base);
  EXPECT_EQ(bitmap_word_addr(64, base), base + 8);
  EXPECT_EQ(bit_position(63), 63u);
  EXPECT_EQ(bit_position(64), 0u);
}

TEST(BitmapMath, CoverageSize) {
  // 512 bytes = 64 words = 64 bits = 8 bitmap bytes.
  EXPECT_EQ(bitmap_bytes_for(512), 8u);
  EXPECT_EQ(bitmap_bytes_for(kBytesPerBitmapWord), 8u);
  EXPECT_EQ(bitmap_bytes_for(1 << 20), (1u << 20) / 64);
  // Partial words round up.
  EXPECT_EQ(bitmap_bytes_for(1), 1u);
  EXPECT_EQ(bitmap_bytes_for(9), 1u);
}

TEST(BitmapMath, PropertyDistinctWordsDistinctBits) {
  // Any two different words map to different (word_addr, position) pairs.
  SplitMix64 rng(5);
  const PhysAddr watch = 0;
  const PhysAddr bitmap = 0x100000;
  for (int i = 0; i < 2000; ++i) {
    const PhysAddr a = word_align_down(rng.next_below(1 << 26));
    const PhysAddr b = word_align_down(rng.next_below(1 << 26));
    const u64 ia = bit_index_for(a, watch);
    const u64 ib = bit_index_for(b, watch);
    if (a == b) {
      EXPECT_EQ(ia, ib);
    } else {
      EXPECT_TRUE(bitmap_word_addr(ia, bitmap) != bitmap_word_addr(ib, bitmap) ||
                  bit_position(ia) != bit_position(ib));
    }
  }
}

TEST(BitmapMath, PropertyAllBytesOfWordShareBit) {
  SplitMix64 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const PhysAddr w = word_align_down(rng.next_below(1 << 24));
    for (u64 off = 0; off < 8; ++off) {
      EXPECT_EQ(bit_index_for(w + off, 0), bit_index_for(w, 0));
    }
  }
}

// ---------------- write FIFO ----------------

TEST(WriteFifo, AcceptsUpToDepth) {
  WriteFifo fifo(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(fifo.offer(CapturedWrite{}, 0, 100).accepted);
  }
  EXPECT_FALSE(fifo.offer(CapturedWrite{}, 0, 100).accepted);
  EXPECT_EQ(fifo.drops(), 1u);
  EXPECT_EQ(fifo.accepted(), 4u);
}

TEST(WriteFifo, DrainsOverTime) {
  WriteFifo fifo(2);
  EXPECT_TRUE(fifo.offer(CapturedWrite{}, 0, 100).accepted);   // done at 100
  EXPECT_TRUE(fifo.offer(CapturedWrite{}, 10, 100).accepted);  // done at 200
  EXPECT_FALSE(fifo.offer(CapturedWrite{}, 50, 100).accepted);  // full at t=50
  EXPECT_TRUE(fifo.offer(CapturedWrite{}, 150, 100).accepted);  // first drained
  EXPECT_EQ(fifo.occupancy(), 2u);
  fifo.drain(1000);
  EXPECT_EQ(fifo.occupancy(), 0u);
}

TEST(WriteFifo, OfferReportsWaitAndService) {
  WriteFifo fifo(4);
  const WriteFifo::Offer first = fifo.offer(CapturedWrite{}, 0, 100);
  EXPECT_TRUE(first.accepted);
  EXPECT_EQ(first.wait, 0u);  // empty FIFO: translator starts immediately
  EXPECT_EQ(first.service, 100u);
  // Second capture at t=10 queues behind the first (done at 100).
  const WriteFifo::Offer second = fifo.offer(CapturedWrite{}, 10, 50);
  EXPECT_TRUE(second.accepted);
  EXPECT_EQ(second.wait, 90u);
  EXPECT_EQ(second.service, 50u);
  // After the backlog drains, waiting drops back to zero.
  const WriteFifo::Offer third = fifo.offer(CapturedWrite{}, 500, 50);
  EXPECT_TRUE(third.accepted);
  EXPECT_EQ(third.wait, 0u);
}

TEST(WriteFifo, BackToBackServiceQueues) {
  WriteFifo fifo(8);
  // Service times accumulate: second capture finishes at 2*s.
  fifo.offer(CapturedWrite{}, 0, 50);
  fifo.offer(CapturedWrite{}, 0, 50);
  fifo.drain(60);
  EXPECT_EQ(fifo.occupancy(), 1u);  // only the first completed by t=60
  fifo.drain(100);
  EXPECT_EQ(fifo.occupancy(), 0u);
}

TEST(WriteFifo, SlowArrivalNeverDrops) {
  WriteFifo fifo(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(fifo.offer(CapturedWrite{}, i * 1000, 100).accepted);
  }
  EXPECT_EQ(fifo.drops(), 0u);
}

// ---------------- bitmap cache ----------------

TEST(BitmapCache, ReadAllocate) {
  BitmapCache cache(8);
  EXPECT_FALSE(cache.lookup(0x100).hit);
  cache.fill(0x100, 0xFF);
  const auto r = cache.lookup(0x100);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.value, 0xFFu);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(BitmapCache, WriteUpdateDoesNotAllocate) {
  BitmapCache cache(8);
  cache.observe_write(0x200, 0xAA);   // not present: ignored
  EXPECT_FALSE(cache.lookup(0x200).hit);
  cache.fill(0x200, 0x1);
  cache.observe_write(0x200, 0xAA);   // present: updated in place
  EXPECT_EQ(cache.lookup(0x200).value, 0xAAu);
}

TEST(BitmapCache, DirectMappedConflict) {
  BitmapCache cache(4);  // slots keyed by (addr/8) % 4
  cache.fill(0x0, 1);
  cache.fill(4 * 8, 2);  // same slot
  EXPECT_FALSE(cache.lookup(0x0).hit);
  EXPECT_TRUE(cache.lookup(4 * 8).hit);
}

TEST(BitmapCache, DisabledAlwaysMisses) {
  BitmapCache cache(8, /*enabled=*/false);
  cache.fill(0x100, 1);
  EXPECT_FALSE(cache.lookup(0x100).hit);
}

TEST(BitmapCache, InvalidateAll) {
  BitmapCache cache(8);
  cache.fill(0x100, 1);
  cache.invalidate_all();
  EXPECT_FALSE(cache.lookup(0x100).hit);
}

// ---------------- event ring ----------------

class RingTest : public ::testing::Test {
 protected:
  RingTest() : machine_(sim::MachineConfig{}) {}
  sim::Machine machine_;
};

TEST_F(RingTest, FifoOrder) {
  EventRing ring(machine_, 0x100000, 8);
  for (u64 i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.push(MonitorEvent{0x1000 + i * 8, i}));
  }
  MonitorEvent ev;
  for (u64 i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.pop(ev));
    EXPECT_EQ(ev.paddr, 0x1000 + i * 8);
    EXPECT_EQ(ev.value, i);
  }
  EXPECT_FALSE(ring.pop(ev));
}

TEST_F(RingTest, OverflowDropsAndCounts) {
  EventRing ring(machine_, 0x100000, 2);
  EXPECT_TRUE(ring.push(MonitorEvent{8, 1}));
  EXPECT_TRUE(ring.push(MonitorEvent{16, 2}));
  EXPECT_FALSE(ring.push(MonitorEvent{24, 3}));
  EXPECT_EQ(ring.overflow_drops(), 1u);
  MonitorEvent ev;
  ring.pop(ev);
  EXPECT_TRUE(ring.push(MonitorEvent{32, 4}));  // space again
}

TEST_F(RingTest, WrapsAroundBuffer) {
  EventRing ring(machine_, 0x100000, 4);
  MonitorEvent ev;
  for (u64 round = 0; round < 10; ++round) {
    EXPECT_TRUE(ring.push(MonitorEvent{round * 8, round}));
    ASSERT_TRUE(ring.pop(ev));
    EXPECT_EQ(ev.value, round);
  }
}

TEST_F(RingTest, RecordsLiveInSimulatedMemory) {
  EventRing ring(machine_, 0x200000, 8);
  ring.push(MonitorEvent{0xABCD0, 0x1234});
  EXPECT_EQ(machine_.phys().read64(0x200000), 0xABCD0u);
  EXPECT_EQ(machine_.phys().read64(0x200008), 0x1234u);
}

// ---------------- assembled monitor ----------------

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : machine_(sim::MachineConfig{}) {
    cfg_.watch_base = 0;
    cfg_.watch_size = machine_.secure_base();
    cfg_.bitmap_base = machine_.secure_base();
    cfg_.ring_base =
        page_align_up(cfg_.bitmap_base + bitmap_bytes_for(cfg_.watch_size));
    cfg_.ring_entries = 64;
    mbm_ = std::make_unique<MemoryBusMonitor>(machine_, cfg_);
    machine_.phys().zero_range(cfg_.bitmap_base,
                               bitmap_bytes_for(cfg_.watch_size));
  }

  /// Set the monitoring bit for a physical word (firmware-style).
  void watch_word(PhysAddr pa) {
    const u64 bit = bit_index_for(pa, cfg_.watch_base);
    const PhysAddr wa = bitmap_word_addr(bit, cfg_.bitmap_base);
    machine_.phys().write64(
        wa, machine_.phys().read64(wa) | (u64{1} << bit_position(bit)));
  }

  /// Rebuild the monitor in conservative mode: it also scans dirty-line
  /// write-backs.
  void snoop_line_writebacks() {
    MbmConfig conservative = cfg_;
    conservative.snoop_line_writebacks = true;
    mbm_.reset();
    mbm_ = std::make_unique<MemoryBusMonitor>(machine_, conservative);
  }

  void bus_write(PhysAddr pa, u64 value) {
    sim::BusTransaction t;
    t.op = sim::BusOp::kWriteWord;
    t.paddr = pa;
    t.value = value;
    t.timestamp = machine_.account().cycles();
    machine_.bus().issue(t);
  }

  sim::Machine machine_;
  MbmConfig cfg_;
  std::unique_ptr<MemoryBusMonitor> mbm_;
};

TEST_F(MonitorTest, DetectsWatchedWrite) {
  watch_word(0x5000);
  bus_write(0x5000, 0xDEAD);
  EXPECT_EQ(mbm_->stats().detections, 1u);
  MonitorEvent ev;
  ASSERT_TRUE(mbm_->ring().pop(ev));
  EXPECT_EQ(ev.paddr, 0x5000u);
  EXPECT_EQ(ev.value, 0xDEADu);
}

TEST_F(MonitorTest, IgnoresUnwatchedWrite) {
  watch_word(0x5000);
  bus_write(0x5008, 1);  // neighbouring word: different bit
  bus_write(0x6000, 2);
  EXPECT_EQ(mbm_->stats().detections, 0u);
  EXPECT_EQ(mbm_->stats().snooped_word_writes, 2u);
}

TEST_F(MonitorTest, WordGranularityExact) {
  // All 8 bytes of the watched word map to its bit; the adjacent words
  // in the same 64-byte line do not.
  watch_word(0x7040);
  bus_write(0x7040, 1);
  bus_write(0x7048, 2);
  bus_write(0x7038, 3);
  EXPECT_EQ(mbm_->stats().detections, 1u);
}

TEST_F(MonitorTest, RaisesIrqOnDetection) {
  unsigned irqs = 0;
  machine_.exceptions().set_el1_irq_handler([&](unsigned line) {
    irqs += (line == sim::kIrqMbm);
  });
  watch_word(0x9000);
  bus_write(0x9000, 5);
  EXPECT_EQ(irqs, 1u);
  EXPECT_EQ(mbm_->stats().irqs_raised, 1u);
}

TEST_F(MonitorTest, DisabledMonitorSeesNothing) {
  watch_word(0x5000);
  mbm_->set_enabled(false);
  bus_write(0x5000, 1);
  EXPECT_EQ(mbm_->stats().detections, 0u);
  EXPECT_EQ(mbm_->stats().snooped_word_writes, 0u);
}

TEST_F(MonitorTest, BitmapCacheHitsOnRepeatedRegion) {
  watch_word(0x5000);
  bus_write(0x5000, 1);
  const u64 fetches_after_first = mbm_->stats().bitmap_fetches;
  bus_write(0x5000, 2);
  bus_write(0x5008, 3);  // same bitmap word
  EXPECT_EQ(mbm_->stats().bitmap_fetches, fetches_after_first);
  EXPECT_GE(mbm_->stats().bitmap_cache_hits, 2u);
}

TEST_F(MonitorTest, BusWriteToBitmapUpdatesCache) {
  watch_word(0x5000);
  bus_write(0x5000, 1);  // fill the bitmap cache
  EXPECT_EQ(mbm_->stats().detections, 1u);
  // Clear the bit via a *bus-visible* write, as Hypersec's NC store does.
  const u64 bit = bit_index_for(0x5000, 0);
  const PhysAddr wa = bitmap_word_addr(bit, cfg_.bitmap_base);
  machine_.phys().write64(wa, 0);
  bus_write(wa, 0);  // the snooped bitmap write (write-update, §6.3)
  bus_write(0x5000, 2);
  EXPECT_EQ(mbm_->stats().detections, 1u);  // no longer detected
}

TEST_F(MonitorTest, StaleBitmapCacheWithoutBusWriteKeepsOldView) {
  // Negative control: mutating the bitmap behind the MBM's back (direct
  // memory write without bus traffic) leaves the cached word stale.
  watch_word(0x5000);
  bus_write(0x5000, 1);
  const u64 bit = bit_index_for(0x5000, 0);
  machine_.phys().write64(bitmap_word_addr(bit, cfg_.bitmap_base), 0);
  bus_write(0x5000, 2);
  EXPECT_EQ(mbm_->stats().detections, 2u);  // cached bit still set
}

TEST_F(MonitorTest, FifoOverflowLosesDetections) {
  MbmConfig small = cfg_;
  small.fifo_depth = 2;
  mbm_.reset();  // detach the old monitor first
  mbm_ = std::make_unique<MemoryBusMonitor>(machine_, small);
  // Mask the MBM interrupt so the synchronous handler does not advance
  // simulated time between writes: the burst really is back-to-back.
  machine_.gic().set_enabled(sim::kIrqMbm, false);
  for (int i = 0; i < 16; ++i) watch_word(0xA000 + i * 8);
  for (int i = 0; i < 16; ++i) bus_write(0xA000 + i * 8, i);
  EXPECT_GT(mbm_->stats().fifo_drops, 0u);
  EXPECT_LT(mbm_->stats().detections, 16u);
  EXPECT_EQ(mbm_->stats().detections + mbm_->stats().fifo_drops, 16u);
}

TEST_F(MonitorTest, FifoHighWaterReachesDepthUnderBurstOverflow) {
  // Regression: high_water used to be marked only after an *accepted*
  // offer, so a burst that overflowed the FIFO reported a high-water
  // mark below the configured depth — exactly the saturated case the
  // gauge exists to expose.  It now marks the offered occupancy before
  // the drop check.
  machine_.obs().set_enabled(true);
  MbmConfig small = cfg_;
  small.fifo_depth = 2;
  mbm_.reset();
  mbm_ = std::make_unique<MemoryBusMonitor>(machine_, small);
  machine_.gic().set_enabled(sim::kIrqMbm, false);
  for (int i = 0; i < 16; ++i) watch_word(0xA000 + i * 8);
  for (int i = 0; i < 16; ++i) bus_write(0xA000 + i * 8, i);
  ASSERT_GT(mbm_->stats().fifo_drops, 0u);
  EXPECT_EQ(machine_.obs().gauge("mbm.fifo.high_water").value(),
            small.fifo_depth);
}

TEST_F(MonitorTest, LineWritebackInvisibleByDefault) {
  // The crux of §5.3: a dirty-line write-back does NOT trigger detection
  // in the default configuration — monitored data must be non-cacheable.
  watch_word(0xB000);
  machine_.phys().write64(0xB000, 0x5EC);  // the line's final contents
  sim::BusTransaction t;
  t.op = sim::BusOp::kWriteLine;
  t.paddr = 0xB000;
  machine_.bus().issue(t);
  EXPECT_EQ(mbm_->stats().detections, 0u);
  EXPECT_EQ(mbm_->stats().snooped_line_writes, 0u);
}

TEST_F(MonitorTest, ConservativeModeScansWritebacks) {
  // The write-back carries only the line address: the MBM scans the
  // line's final contents from DRAM, one word at a time.
  snoop_line_writebacks();
  watch_word(0xB000);
  machine_.phys().write64(0xB000, 0x5EC);
  sim::BusTransaction t;
  t.op = sim::BusOp::kWriteLine;
  t.paddr = 0xB000;
  machine_.bus().issue(t);
  EXPECT_EQ(mbm_->stats().detections, 1u);
  EXPECT_EQ(mbm_->stats().snooped_line_writes, 1u);
  MonitorEvent ev;
  ASSERT_TRUE(mbm_->ring().pop(ev));
  EXPECT_EQ(ev.paddr, 0xB000u);
  EXPECT_EQ(ev.value, 0x5ECu);
}

TEST_F(MonitorTest, ConservativeModeDetectsCachedStoreAtFlush) {
  // End to end: a cacheable store to a watched word stays invisible until
  // its dirty line is flushed, then surfaces as exactly one detection
  // carrying the stored value.
  snoop_line_writebacks();
  watch_word(0xB008);
  machine_.el2_write64(0xB008, 0xC0FFEE);
  ASSERT_TRUE(machine_.cache().line_dirty(0xB008));
  EXPECT_EQ(mbm_->stats().detections, 0u);
  machine_.cache().flush_line(0xB008);
  EXPECT_EQ(mbm_->stats().snooped_line_writes, 1u);
  EXPECT_EQ(mbm_->stats().detections, 1u);
  MonitorEvent ev;
  ASSERT_TRUE(mbm_->ring().pop(ev));
  EXPECT_EQ(ev.paddr, 0xB008u);
  EXPECT_EQ(ev.value, 0xC0FFEEu);
  EXPECT_FALSE(mbm_->ring().pop(ev));
}

TEST_F(MonitorTest, StatsResetClearsCounters) {
  watch_word(0x5000);
  bus_write(0x5000, 1);
  mbm_->reset_stats();
  const MbmStats s = mbm_->stats();
  EXPECT_EQ(s.detections, 0u);
  EXPECT_EQ(s.snooped_word_writes, 0u);
}

}  // namespace
}  // namespace hn::mbm
