#include "sim/cache.h"

#include <cassert>
#include <string>

#include "common/bitops.h"

namespace hn::sim {

Cache::Cache(const CacheConfig& config, MemoryBus& bus, CycleAccount& account,
             const TimingModel& timing)
    : config_(config),
      bus_(bus),
      account_(account),
      timing_(timing) {
  const u64 total_lines = config_.size_bytes / kCacheLineSize;
  assert(total_lines % kCacheWays == 0);
  const u64 num_sets = total_lines / kCacheWays;
  assert(is_pow2(num_sets));
  set_mask_ = num_sets - 1;
  tags_.assign(total_lines, 0);
  dirty_.assign(total_lines, 0);
  victim_.assign(num_sets, 0);
}

void Cache::writeback(PhysAddr base) {
  BusTransaction txn;
  txn.op = BusOp::kWriteLine;
  txn.paddr = base;
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

// evict() and victim_line() run once per miss: always inlined into the
// miss paths, so a miss that writes nothing back makes no further call.
[[gnu::always_inline]] inline void Cache::evict(u64 line) {
  // The write-back may re-enter the cache (a snooper's handler touching
  // memory); the slot is invalidated after it returns, whatever it holds.
  if ((tags_[line] & kValid) != 0 && dirty_[line] != 0) {
    writeback(tags_[line] & ~kValid);
  }
  tags_[line] &= ~kValid;
  dirty_[line] = 0;
}

[[gnu::always_inline]] inline u64 Cache::victim_line(PhysAddr pa) {
  const u64 set = (pa / kCacheLineSize) & set_mask_;
  const u64 first = set * kCacheWays;
  u64 way = victim_[set];
  victim_[set] = static_cast<u8>(way ^ 1);  // round robin over two ways
  if ((tags_[first] & kValid) == 0) {
    way = 0;
  } else if ((tags_[first + 1] & kValid) == 0) {
    way = 1;
  }
  return first + way;
}

void Cache::fill(PhysAddr pa, bool is_write) {
  ++account_.counters().l1_misses;
  const u64 line = victim_line(pa);
  evict(line);

  BusTransaction fill;
  fill.op = BusOp::kReadLine;
  fill.paddr = line_base(pa);
  fill.timestamp = account_.cycles();
  bus_.issue(fill);
  account_.charge(timing_.l1_miss_fill);

  tags_[line] = line_base(pa) | kValid;
  dirty_[line] = is_write ? 1 : 0;
}

void Cache::stream_alloc(PhysAddr pa) {
  ++account_.counters().l1_stream_allocs;
  const u64 line = victim_line(pa);
  evict(line);
  account_.charge(timing_.write_stream_alloc);
  tags_[line] = line_base(pa) | kValid;
  dirty_[line] = 1;
}

// The span loops are flattened: the hit sections and both misses inline
// into one loop body, so only a write-back's bus issue leaves it.
[[gnu::flatten]] void Cache::store_span(PhysAddr pa, u64 len) {
  // Every line re-reads its tags: a write-back inside the previous line's
  // miss may have re-entered the cache.
  const PhysAddr end = pa + len;
  for (PhysAddr line = line_base(pa); line < end; line += kCacheLineSize) {
    if (line >= pa && line + kCacheLineSize <= end) {
      write_alloc_line(line);
    } else {
      access(line, /*is_write=*/true);
    }
  }
}

[[gnu::flatten]] void Cache::load_span(PhysAddr pa, u64 len) {
  for (u64 off = 0; off < len; off += kCacheLineSize) {
    access(pa + off, /*is_write=*/false);
  }
}

void Cache::flush_line(PhysAddr pa) {
  const u64 line = find(pa);
  if (line != kMiss) evict(line);
}

void Cache::flush_range(PhysAddr pa, u64 len) {
  const PhysAddr first = line_base(pa);
  const PhysAddr last = line_base(pa + len - 1);
  for (PhysAddr p = first; p <= last; p += kCacheLineSize) flush_line(p);
}

void Cache::flush_all() {
  for (u64 line = 0; line < tags_.size(); ++line) evict(line);
}

void Cache::save_state(SnapWriter& w) const {
  w.put_u64(tags_.size());
  for (u64 line = 0; line < tags_.size(); ++line) {
    w.put_bool((tags_[line] & kValid) != 0);
    w.put_bool(dirty_[line] != 0);
    w.put_u64(tags_[line] & ~kValid);
  }
  w.put_u64(victim_.size());
  for (const u8 v : victim_) w.put_u32(v);
}

void Cache::restore_state(SnapReader& r, u64 dram_size) {
  r.section("cache");
  const u64 nlines = r.get_u64();
  if (r.ok() && nlines != tags_.size()) {
    r.fail("line count " + std::to_string(nlines) +
           " does not match configured geometry");
    return;
  }
  for (u64 line = 0; line < tags_.size(); ++line) {
    const bool valid = r.get_bool();
    const bool dirty = r.get_bool();
    const PhysAddr base = r.get_u64();
    if (!r.ok()) return;
    if (base != line_base(base)) {
      r.fail("line base " + std::to_string(base) + " is not line-aligned");
      return;
    }
    if (valid && base >= dram_size) {
      r.fail("valid line base " + std::to_string(base) + " lies outside DRAM");
      return;
    }
    tags_[line] = base | (valid ? kValid : 0);
    dirty_[line] = dirty ? 1 : 0;
  }
  const u64 nsets = r.get_u64();
  if (r.ok() && nsets != victim_.size()) {
    r.fail("set count " + std::to_string(nsets) +
           " does not match configured geometry");
    return;
  }
  for (u8& v : victim_) {
    const u32 way = r.get_u32();
    if (r.ok() && way >= kCacheWays) {
      r.fail("victim way " + std::to_string(way) + " out of range");
      return;
    }
    v = static_cast<u8>(way);
  }
}

}  // namespace hn::sim
