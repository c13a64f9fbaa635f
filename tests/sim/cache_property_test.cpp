// Packed-tag-store exactness property test.
//
// The production Cache keeps each line's base and valid bit in one tag
// word, dirty bits and round-robin cursors in their own arrays, and serves
// whole page spans (store_span / load_span) in one loop.  RefCache below is
// the struct-of-lines cache it replaced, with the span loops the bulk
// paths used to run, kept as the executable specification.  Both are
// driven through seeded random sequences of every operation over an
// address pool that forces set conflicts, at the default 32 KiB geometry
// and at the fuzz matrix's 4 KiB one.  After every operation the two must
// agree on cycles, every counter, every bus transaction (op, address,
// timestamp, core), line residency and dirtiness, and the save_state
// bytes.
//
// A re-entrant snooper runs in every world: on some write-backs it charges
// cycles and touches the cache again, as the MBM's conservative mode does
// when it raises an IRQ whose handler touches memory.  A span must then
// re-read tags and cursors after every write-back, and each charge must
// land before the next write-back reads the clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timing.h"
#include "sim/bus.h"
#include "sim/cache.h"
#include "sim/cycle_account.h"
#include "sim/snapshot.h"

namespace hn::sim {
namespace {

/// The struct-of-lines cache with a round-robin cursor per set, and the
/// per-line span loops of the bulk store and load paths.
class RefCache {
 public:
  RefCache(const CacheConfig& config, MemoryBus& bus, CycleAccount& account,
           const TimingModel& timing)
      : bus_(bus), account_(account), timing_(timing) {
    const u64 total_lines = config.size_bytes / kCacheLineSize;
    num_sets_ = total_lines / ways_;
    set_mask_ = num_sets_ - 1;
    lines_.resize(total_lines);
    victim_.resize(num_sets_, 0);
  }

  void set_bus_provenance(u8 core, Cycles* shared_clock) {
    core_id_ = core;
    bus_clock_ = shared_clock;
  }

  void access(PhysAddr pa, bool is_write) {
    Line* line = find_line(pa);
    if (line != nullptr) {
      account_.charge(timing_.l1_hit);
      ++account_.counters().l1_hits;
      if (is_write) line->dirty = true;
      return;
    }
    ++account_.counters().l1_misses;
    Line& victim = lines_[victim_index(pa)];
    evict(victim);
    BusTransaction fill;
    fill.op = BusOp::kReadLine;
    fill.paddr = pa & ~(kCacheLineSize - 1);
    fill.timestamp = account_.cycles();
    bus_.issue(fill);
    account_.charge(timing_.l1_miss_fill);
    victim.valid = true;
    victim.dirty = is_write;
    victim.base = pa & ~(kCacheLineSize - 1);
  }

  void write_alloc_line(PhysAddr pa) {
    Line* line = find_line(pa);
    if (line != nullptr) {
      account_.charge(timing_.l1_hit);
      ++account_.counters().l1_hits;
      line->dirty = true;
      return;
    }
    ++account_.counters().l1_stream_allocs;
    Line& victim = lines_[victim_index(pa)];
    evict(victim);
    account_.charge(timing_.write_stream_alloc);
    victim.valid = true;
    victim.dirty = true;
    victim.base = pa & ~(kCacheLineSize - 1);
  }

  void store_span(PhysAddr pa, u64 len) {
    const PhysAddr first_line = pa & ~(kCacheLineSize - 1);
    for (PhysAddr line = first_line; line < pa + len;
         line += kCacheLineSize) {
      if (line >= pa && line + kCacheLineSize <= pa + len) {
        write_alloc_line(line);
      } else {
        access(line, /*is_write=*/true);
      }
    }
  }

  void load_span(PhysAddr pa, u64 len) {
    for (u64 line = 0; line < len; line += kCacheLineSize) {
      access(pa + line, /*is_write=*/false);
    }
  }

  void flush_line(PhysAddr pa) {
    Line* line = find_line(pa);
    if (line != nullptr) evict(*line);
  }

  void flush_range(PhysAddr pa, u64 len) {
    const PhysAddr first = pa & ~(kCacheLineSize - 1);
    const PhysAddr last = (pa + len - 1) & ~(kCacheLineSize - 1);
    for (PhysAddr p = first; p <= last; p += kCacheLineSize) flush_line(p);
  }

  void flush_all() {
    for (Line& line : lines_) evict(line);
  }

  bool contains_line(PhysAddr pa) { return find_line(pa) != nullptr; }
  bool line_dirty(PhysAddr pa) {
    const Line* line = find_line(pa);
    return line != nullptr && line->dirty;
  }

  void save_state(SnapWriter& w) const {
    w.put_u64(lines_.size());
    for (const Line& l : lines_) {
      w.put_bool(l.valid);
      w.put_bool(l.dirty);
      w.put_u64(l.base);
    }
    w.put_u64(victim_.size());
    for (const unsigned v : victim_) w.put_u32(v);
  }

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    PhysAddr base = 0;
  };

  Line* find_line(PhysAddr pa) {
    const PhysAddr base = pa & ~(kCacheLineSize - 1);
    const u64 set = (pa / kCacheLineSize) & set_mask_;
    for (unsigned w = 0; w < ways_; ++w) {
      Line& line = lines_[set * ways_ + w];
      if (line.valid && line.base == base) return &line;
    }
    return nullptr;
  }

  /// Round-robin victim of the set, advancing its cursor, then the first
  /// invalid way if one exists.
  u64 victim_index(PhysAddr pa) {
    const u64 set = (pa / kCacheLineSize) & set_mask_;
    unsigned way = victim_[set];
    victim_[set] = way + 1 == ways_ ? 0 : way + 1;
    for (unsigned w = 0; w < ways_; ++w) {
      if (!lines_[set * ways_ + w].valid) {
        way = w;
        break;
      }
    }
    return set * ways_ + way;
  }

  void evict(Line& line) {
    if (line.valid && line.dirty) writeback(line);
    line.valid = false;
    line.dirty = false;
  }

  void writeback(const Line& line) {
    BusTransaction txn;
    txn.op = BusOp::kWriteLine;
    txn.paddr = line.base;
    txn.core = core_id_;
    txn.timestamp = account_.cycles();
    if (bus_clock_ != nullptr) {
      if (txn.timestamp < *bus_clock_) txn.timestamp = *bus_clock_;
      *bus_clock_ = txn.timestamp;
    }
    bus_.issue(txn);
    account_.charge(timing_.dirty_writeback);
    ++account_.counters().dirty_writebacks;
  }

  const unsigned ways_ = kCacheWays;
  MemoryBus& bus_;
  CycleAccount& account_;
  const TimingModel& timing_;
  u8 core_id_ = 0;
  Cycles* bus_clock_ = nullptr;
  u64 num_sets_;
  u64 set_mask_;
  std::vector<Line> lines_;
  std::vector<unsigned> victim_;
};

/// Records every transaction and, on every third write-back while not
/// already nested, plays an interrupt handler: it charges cycles and
/// touches a pool address through the cache it snoops.
template <class C>
class ReentrantSnooper : public BusSnooper {
 public:
  ReentrantSnooper(CycleAccount& account, const std::vector<PhysAddr>& pool)
      : account_(account), pool_(pool) {}

  void bind(C* cache) { cache_ = cache; }

  void on_transaction(const BusTransaction& txn) override {
    txns.push_back(txn);
    if (txn.op != BusOp::kWriteLine || depth_ > 0) return;
    if (++writebacks_ % 3 != 0) return;
    ++depth_;
    account_.charge(17);
    const PhysAddr target =
        pool_[(txn.paddr / kCacheLineSize + writebacks_) % pool_.size()];
    cache_->access(target, /*is_write=*/writebacks_ % 2 == 0);
    --depth_;
  }

  std::vector<BusTransaction> txns;

 private:
  CycleAccount& account_;
  const std::vector<PhysAddr>& pool_;
  C* cache_ = nullptr;
  u64 writebacks_ = 0;
  int depth_ = 0;
};

/// One cache with its own bus, ledger, shared bus clock and snooper.
template <class C>
struct World {
  World(const CacheConfig& config, const TimingModel& timing,
        const std::vector<PhysAddr>& pool)
      : snoop(account, pool) {
    cache = std::make_unique<C>(config, bus, account, timing);
    cache->set_bus_provenance(/*core=*/1, &bus_clock);
    snoop.bind(cache.get());
    bus.attach_snooper(&snoop);
  }

  std::vector<u8> state() const {
    SnapWriter w;
    cache->save_state(w);
    return w.take();
  }

  MemoryBus bus;
  CycleAccount account;
  Cycles bus_clock = 0;
  ReentrantSnooper<C> snoop;
  std::unique_ptr<C> cache;
};

/// Lines of a few sets, with more tags per set than ways, inside 1 MiB.
std::vector<PhysAddr> conflict_pool(const CacheConfig& config) {
  const u64 way_stride = config.size_bytes / kCacheWays;
  std::vector<PhysAddr> pool;
  for (const u64 set : {0u, 1u, 5u, 31u}) {
    for (u64 tag = 0; tag < 5; ++tag) {
      pool.push_back(tag * way_stride + set * kCacheLineSize);
    }
  }
  return pool;
}

constexpr u64 kDram = 1 << 20;

void run_property(const CacheConfig& config, u64 seed, int ops) {
  const TimingModel timing;
  const std::vector<PhysAddr> pool = conflict_pool(config);
  World<Cache> packed(config, timing, pool);
  World<RefCache> ref(config, timing, pool);
  SplitMix64 rng(seed);

  // A pool line, a word inside it, or a word of a page near the pool.
  auto random_pa = [&] {
    const PhysAddr line = pool[rng.next_below(pool.size())];
    if (rng.chance(1, 4)) {
      return rng.next_below(16) * kPageSize +
             rng.next_below(kPageSize / kWordSize) * kWordSize;
    }
    return line + rng.next_below(kCacheLineSize / kWordSize) * kWordSize;
  };
  // A word-aligned span inside one page: a whole page, a ragged piece, or
  // a piece shorter than a line.
  auto random_span = [&](PhysAddr& pa, u64& len) {
    const PhysAddr page = rng.next_below(16) * kPageSize;
    const u64 words = kPageSize / kWordSize;
    switch (rng.next_below(3)) {
      case 0:
        pa = page;
        len = kPageSize;
        return;
      case 1: {
        const u64 first = rng.next_below(words);
        pa = page + first * kWordSize;
        len = rng.next_in(1, words - first) * kWordSize;
        return;
      }
      default: {
        const u64 first = rng.next_below(words);
        pa = page + first * kWordSize;
        len = std::min<u64>(rng.next_in(1, 7), words - first) * kWordSize;
        return;
      }
    }
  };

  size_t compared = 0;  // transactions already checked equal
  for (int i = 0; i < ops; ++i) {
    const u64 op = rng.next_below(16);
    std::string what;
    if (op < 6) {
      const PhysAddr pa = random_pa();
      const bool is_write = rng.chance(1, 2);
      packed.cache->access(pa, is_write);
      ref.cache->access(pa, is_write);
      what = "access";
    } else if (op < 8) {
      const PhysAddr pa = random_pa();
      packed.cache->write_alloc_line(pa);
      ref.cache->write_alloc_line(pa);
      what = "write_alloc_line";
    } else if (op < 10) {
      PhysAddr pa = 0;
      u64 len = 0;
      random_span(pa, len);
      packed.cache->store_span(pa, len);
      ref.cache->store_span(pa, len);
      what = "store_span " + std::to_string(pa) + "+" + std::to_string(len);
    } else if (op < 12) {
      PhysAddr pa = 0;
      u64 len = 0;
      random_span(pa, len);
      packed.cache->load_span(pa, len);
      ref.cache->load_span(pa, len);
      what = "load_span " + std::to_string(pa) + "+" + std::to_string(len);
    } else if (op < 14) {
      const PhysAddr pa = random_pa();
      packed.cache->flush_line(pa);
      ref.cache->flush_line(pa);
      what = "flush_line";
    } else if (op < 15) {
      PhysAddr pa = 0;
      u64 len = 0;
      random_span(pa, len);
      packed.cache->flush_range(pa, len);
      ref.cache->flush_range(pa, len);
      what = "flush_range";
    } else if (rng.chance(1, 4)) {
      packed.cache->flush_all();
      ref.cache->flush_all();
      what = "flush_all";
    } else {
      // A snapshot round trip through the packed store's restore.
      const std::vector<u8> bytes = packed.state();
      SnapReader r(bytes);
      packed.cache->restore_state(r, kDram);
      ASSERT_TRUE(r.ok()) << r.status().message();
      what = "restore";
    }
    SCOPED_TRACE("op " + std::to_string(i) + ": " + what);

    ASSERT_EQ(packed.account.cycles(), ref.account.cycles());
    const Counters& a = packed.account.counters();
    const Counters& b = ref.account.counters();
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(Counters)), 0)
        << "hits " << a.l1_hits << "/" << b.l1_hits << " misses "
        << a.l1_misses << "/" << b.l1_misses << " streams "
        << a.l1_stream_allocs << "/" << b.l1_stream_allocs
        << " write-backs " << a.dirty_writebacks << "/" << b.dirty_writebacks;
    ASSERT_EQ(packed.bus.transaction_count(), ref.bus.transaction_count());
    ASSERT_EQ(packed.bus_clock, ref.bus_clock);
    const auto& ta = packed.snoop.txns;
    const auto& tb = ref.snoop.txns;
    ASSERT_EQ(ta.size(), tb.size());
    for (; compared < ta.size(); ++compared) {
      const size_t t = compared;
      ASSERT_EQ(ta[t].op, tb[t].op) << "txn " << t;
      ASSERT_EQ(ta[t].paddr, tb[t].paddr) << "txn " << t;
      ASSERT_EQ(ta[t].timestamp, tb[t].timestamp) << "txn " << t;
      ASSERT_EQ(ta[t].core, tb[t].core) << "txn " << t;
    }
    for (const PhysAddr pa : pool) {
      ASSERT_EQ(packed.cache->contains_line(pa), ref.cache->contains_line(pa))
          << "line " << pa;
      ASSERT_EQ(packed.cache->line_dirty(pa), ref.cache->line_dirty(pa))
          << "line " << pa;
    }
    ASSERT_EQ(packed.state(), ref.state());
  }
  // The sequences must have exercised what they claim to.
  const Counters& c = packed.account.counters();
  EXPECT_GT(c.l1_hits, 0u);
  EXPECT_GT(c.l1_misses, 0u);
  EXPECT_GT(c.l1_stream_allocs, 0u);
  EXPECT_GT(c.dirty_writebacks, 0u);
}

TEST(CacheProperty, PackedMatchesReferenceDefaultGeometry) {
  run_property(CacheConfig{}, /*seed=*/1, 3000);
  run_property(CacheConfig{}, 2, 3000);
}

TEST(CacheProperty, PackedMatchesReferenceFuzzGeometry) {
  // 4 KiB, 32 sets: a whole-page span wraps the sets twice.
  CacheConfig small;
  small.size_bytes = 4 * 1024;
  run_property(small, 3, 3000);
  run_property(small, 4, 3000);
}

}  // namespace
}  // namespace hn::sim
