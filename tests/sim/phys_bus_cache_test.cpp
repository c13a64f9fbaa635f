// Unit tests for PhysicalMemory, MemoryBus snooping, and the write-back
// Cache — in particular the bus-visibility semantics the MBM depends on.
#include <gtest/gtest.h>

#include <vector>

#include "common/timing.h"
#include "sim/bus.h"
#include "sim/cache.h"
#include "sim/cycle_account.h"
#include "sim/phys_mem.h"
#include "sim/snapshot.h"

namespace hn::sim {
namespace {

/// The byte at `pa`.
u8 byte_at(const PhysicalMemory& mem, PhysAddr pa) {
  u8 b = 0;
  mem.read_block(pa, &b, 1);
  return b;
}

TEST(PhysicalMemory, ReadWriteWidths) {
  PhysicalMemory mem(64 * 1024);
  mem.write64(0x100, 0x1122334455667788ull);
  EXPECT_EQ(mem.read64(0x100), 0x1122334455667788ull);
  EXPECT_EQ(byte_at(mem, 0x100), 0x88);  // little-endian
  EXPECT_EQ(byte_at(mem, 0x107), 0x11);
  const u8 word[4] = {0xDD, 0xCC, 0xBB, 0xAA};
  mem.write_block(0x104, word, sizeof word);
  EXPECT_EQ(mem.read64(0x100), 0xAABBCCDD55667788ull);
  // A word straddling two pages reads and writes across the boundary.
  mem.write64(kPageSize - 4, 0x0102030405060708ull);
  EXPECT_EQ(mem.read64(kPageSize - 4), 0x0102030405060708ull);
  EXPECT_EQ(byte_at(mem, kPageSize), 0x04);
}

TEST(PhysicalMemory, BlockOps) {
  PhysicalMemory mem(64 * 1024);
  std::vector<u8> data(256);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i);
  mem.write_block(0x2000, data.data(), data.size());
  std::vector<u8> out(256);
  mem.read_block(0x2000, out.data(), out.size());
  EXPECT_EQ(data, out);
  mem.zero_range(0x2000, 128);
  EXPECT_EQ(mem.read64(0x2000), 0u);
  EXPECT_EQ(byte_at(mem, 0x2080), 0x80);  // second half untouched
}

TEST(PhysicalMemory, Contains) {
  PhysicalMemory mem(4096);
  EXPECT_TRUE(mem.contains(0));
  EXPECT_TRUE(mem.contains(4088, 8));
  EXPECT_FALSE(mem.contains(4089, 8));
  EXPECT_FALSE(mem.contains(4096));
}

class RecordingSnooper : public BusSnooper {
 public:
  void on_transaction(const BusTransaction& txn) override {
    txns.push_back(txn);
  }
  std::vector<BusTransaction> txns;
};

TEST(MemoryBus, SnoopersSeeTransactions) {
  MemoryBus bus;
  RecordingSnooper snoop;
  bus.attach_snooper(&snoop);
  BusTransaction t;
  t.op = BusOp::kWriteWord;
  t.paddr = 0x40;
  t.value = 7;
  bus.issue(t);
  ASSERT_EQ(snoop.txns.size(), 1u);
  EXPECT_EQ(snoop.txns[0].paddr, 0x40u);
  EXPECT_EQ(snoop.txns[0].value, 7u);
  EXPECT_EQ(bus.transaction_count(), 1u);

  bus.detach_snooper(&snoop);
  bus.issue(t);
  EXPECT_EQ(snoop.txns.size(), 1u);  // detached: no longer notified
  EXPECT_EQ(bus.transaction_count(), 2u);
}

class CacheFixture : public ::testing::Test {
 protected:
  CacheFixture()
      : mem_(1 * 1024 * 1024),
        cache_(CacheConfig{}, bus_, account_, timing_) {
    bus_.attach_snooper(&snoop_);
  }
  TimingModel timing_;
  PhysicalMemory mem_;
  MemoryBus bus_;
  CycleAccount account_;
  Cache cache_;
  RecordingSnooper snoop_;
};

TEST_F(CacheFixture, MissThenHit) {
  cache_.access(0x1000, false);
  EXPECT_EQ(account_.counters().l1_misses, 1u);
  cache_.access(0x1008, false);  // same line
  EXPECT_EQ(account_.counters().l1_hits, 1u);
  EXPECT_TRUE(cache_.contains_line(0x1000));
}

TEST_F(CacheFixture, MissFillsViaBus) {
  cache_.access(0x2000, false);
  ASSERT_EQ(snoop_.txns.size(), 1u);
  EXPECT_EQ(snoop_.txns[0].op, BusOp::kReadLine);
  EXPECT_EQ(snoop_.txns[0].paddr, 0x2000u);
}

/// Records each line write-back's first word as DRAM holds it when the
/// transaction reaches the bus: the contents a snooper sees there.
struct WritebackWordSnooper : BusSnooper {
  explicit WritebackWordSnooper(const PhysicalMemory& m) : mem(m) {}
  void on_transaction(const BusTransaction& txn) override {
    if (txn.op == BusOp::kWriteLine) words.push_back(mem.read64(txn.paddr));
  }
  const PhysicalMemory& mem;
  std::vector<u64> words;
};

TEST_F(CacheFixture, CacheableWriteInvisibleUntilEviction) {
  // The property the MBM design hinges on (§5.3): a cached write emits no
  // word transaction.
  WritebackWordSnooper payload(mem_);
  bus_.attach_snooper(&payload);
  cache_.access(0x3000, true);
  ASSERT_EQ(snoop_.txns.size(), 1u);  // only the fill
  EXPECT_EQ(snoop_.txns[0].op, BusOp::kReadLine);
  EXPECT_TRUE(cache_.line_dirty(0x3000));

  mem_.write64(0x3000, 0xBEEF);  // functional values for the later
  mem_.write64(0x3000, 0xFEED);  // write-back: only the last one shows
  cache_.flush_line(0x3000);
  ASSERT_EQ(snoop_.txns.size(), 2u);
  EXPECT_EQ(snoop_.txns[1].op, BusOp::kWriteLine);
  EXPECT_EQ(snoop_.txns[1].paddr, 0x3000u);
  ASSERT_EQ(payload.words.size(), 1u);
  EXPECT_EQ(payload.words[0], 0xFEEDu);  // final contents, not the sequence
  bus_.detach_snooper(&payload);
}

TEST_F(CacheFixture, EvictionWritesBackDirtyLine) {
  const CacheConfig& cfg = cache_.config();
  const u64 num_sets = cfg.size_bytes / kCacheLineSize / kCacheWays;
  const u64 way_stride = num_sets * kCacheLineSize;
  // Fill every way of set 0 with dirty lines, then one more.
  for (unsigned w = 0; w <= kCacheWays; ++w) {
    cache_.access(w * way_stride, true);
  }
  bool saw_writeback = false;
  for (const auto& t : snoop_.txns) {
    saw_writeback |= (t.op == BusOp::kWriteLine);
  }
  EXPECT_TRUE(saw_writeback);
  EXPECT_EQ(account_.counters().dirty_writebacks, 1u);
}

TEST_F(CacheFixture, CleanEvictionSilent) {
  const CacheConfig& cfg = cache_.config();
  const u64 num_sets = cfg.size_bytes / kCacheLineSize / kCacheWays;
  const u64 way_stride = num_sets * kCacheLineSize;
  for (unsigned w = 0; w <= kCacheWays; ++w) {
    cache_.access(w * way_stride, false);  // reads only
  }
  for (const auto& t : snoop_.txns) {
    EXPECT_NE(t.op, BusOp::kWriteLine);
  }
}

TEST_F(CacheFixture, FlushRangeCoversAllLines) {
  cache_.access(0x4000, true);
  cache_.access(0x4040, true);
  cache_.access(0x4080, true);
  cache_.flush_range(0x4000, 3 * kCacheLineSize);
  EXPECT_FALSE(cache_.contains_line(0x4000));
  EXPECT_FALSE(cache_.contains_line(0x4040));
  EXPECT_FALSE(cache_.contains_line(0x4080));
  EXPECT_EQ(account_.counters().dirty_writebacks, 3u);
}

TEST_F(CacheFixture, FlushAllEmptiesCache) {
  for (int i = 0; i < 32; ++i) cache_.access(0x8000 + i * 64, true);
  cache_.flush_all();
  for (int i = 0; i < 32; ++i) EXPECT_FALSE(cache_.contains_line(0x8000 + i * 64));
}

TEST_F(CacheFixture, WriteAllocLineSkipsFill) {
  const u64 misses_cost_before = account_.cycles();
  cache_.write_alloc_line(0x5000);
  // No ReadLine issued, cost is the streaming-allocation constant.
  EXPECT_TRUE(snoop_.txns.empty());
  EXPECT_EQ(account_.cycles() - misses_cost_before, timing_.write_stream_alloc);
  EXPECT_TRUE(cache_.line_dirty(0x5000));
  EXPECT_EQ(account_.counters().l1_stream_allocs, 1u);
}

TEST_F(CacheFixture, HitLatencyCharged) {
  cache_.access(0x6000, false);
  const Cycles before = account_.cycles();
  cache_.access(0x6000, false);
  EXPECT_EQ(account_.cycles() - before, timing_.l1_hit);
}

TEST_F(CacheFixture, RestoreRejectsOutOfRangeVictimWay) {
  // The round-robin cursor indexes a way directly, so a snapshot whose
  // cursor names a way past the set's end must not restore.
  SnapWriter w;
  cache_.save_state(w);
  std::vector<u8> blob = w.take();
  const u32 ways = kCacheWays;
  for (int i = 0; i < 4; ++i) {
    blob[blob.size() - 4 + i] = static_cast<u8>(ways >> (8 * i));
  }
  SnapReader r(blob);
  cache_.restore_state(r, mem_.size());
  EXPECT_EQ(r.status().message(),
            "snapshot: cache: victim way " + std::to_string(ways) +
                " out of range");
}

/// The saved state with line `line`'s valid flag and base replaced.  A
/// line's record is valid (1 byte), dirty (1 byte), base (8 bytes), after
/// the 8-byte line count.
std::vector<u8> with_line(const Cache& cache, u64 line, bool valid,
                          PhysAddr base) {
  SnapWriter w;
  cache.save_state(w);
  std::vector<u8> blob = w.take();
  const u64 at = 8 + line * 10;
  blob[at] = valid ? 1 : 0;
  for (int i = 0; i < 8; ++i) {
    blob[at + 2 + i] = static_cast<u8>(base >> (8 * i));
  }
  return blob;
}

TEST_F(CacheFixture, RestoreRejectsUnalignedLineBase) {
  // The packed tag keeps the valid bit in the base's low bits, so an
  // unaligned base would alias it, valid line or not.
  const std::vector<u8> blob = with_line(cache_, 3, false, 0x2001);
  SnapReader r(blob);
  cache_.restore_state(r, mem_.size());
  EXPECT_EQ(r.status().message(),
            "snapshot: cache: line base 8193 is not line-aligned");
}

TEST_F(CacheFixture, RestoreRejectsValidLineOutsideDram) {
  // A valid line past DRAM would be written back to an address no memory
  // backs.  An invalid line there is never written back, so it restores.
  const std::vector<u8> outside = with_line(cache_, 5, true, mem_.size());
  SnapReader r(outside);
  cache_.restore_state(r, mem_.size());
  EXPECT_EQ(r.status().message(),
            "snapshot: cache: valid line base " +
                std::to_string(mem_.size()) + " lies outside DRAM");

  const std::vector<u8> stale = with_line(cache_, 5, false, mem_.size());
  SnapReader ok(stale);
  cache_.restore_state(ok, mem_.size());
  EXPECT_TRUE(ok.ok()) << ok.status().message();
}

}  // namespace
}  // namespace hn::sim
