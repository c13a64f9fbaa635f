#include "sim/cache.h"

#include <cassert>

#include "common/bitops.h"

namespace hn::sim {

Cache::Cache(const CacheConfig& config, MemoryBus& bus, CycleAccount& account,
             const TimingModel& timing)
    : config_(config),
      bus_(bus),
      account_(account),
      timing_(timing) {
  assert(config_.ways >= 1);
  const u64 total_lines = config_.size_bytes / kCacheLineSize;
  assert(total_lines % config_.ways == 0);
  num_sets_ = total_lines / config_.ways;
  assert(is_pow2(num_sets_));
  set_mask_ = num_sets_ - 1;
  lines_.resize(total_lines);
  victim_.resize(num_sets_, 0);
}

Cache::Line* Cache::find_line(PhysAddr pa) {
  const PhysAddr base = pa & ~(kCacheLineSize - 1);
  const u64 set = set_index(pa);
  for (unsigned w = 0; w < config_.ways; ++w) {
    Line& line = lines_[set * config_.ways + w];
    if (line.valid && line.base == base) return &line;
  }
  return nullptr;
}

const Cache::Line* Cache::find_line(PhysAddr pa) const {
  return const_cast<Cache*>(this)->find_line(pa);
}

void Cache::writeback(const Line& line) {
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

void Cache::evict(Line& line) {
  if (line.valid && line.dirty) writeback(line);
  line.valid = false;
  line.dirty = false;
}

void Cache::access(PhysAddr pa, bool is_write) {
  assert(config_.enabled);
  Line* line = find_line(pa);
  if (line != nullptr) {
    account_.charge(timing_.l1_hit);
    ++account_.counters().l1_hits;
    if (is_write) line->dirty = true;
    return;
  }

  // Miss: pick a victim (round-robin), evict, fill via the bus.
  ++account_.counters().l1_misses;
  const u64 set = set_index(pa);
  unsigned way = next_victim(set);
  // Prefer an invalid way if one exists.
  for (unsigned w = 0; w < config_.ways; ++w) {
    if (!lines_[set * config_.ways + w].valid) {
      way = w;
      break;
    }
  }
  Line& victim = lines_[set * config_.ways + way];
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

void Cache::write_alloc_line(PhysAddr pa) {
  assert(config_.enabled);
  Line* line = find_line(pa);
  if (line != nullptr) {
    account_.charge(timing_.l1_hit);
    ++account_.counters().l1_hits;
    line->dirty = true;
    return;
  }
  ++account_.counters().l1_stream_allocs;
  const u64 set = set_index(pa);
  unsigned way = next_victim(set);
  for (unsigned w = 0; w < config_.ways; ++w) {
    if (!lines_[set * config_.ways + w].valid) {
      way = w;
      break;
    }
  }
  Line& victim = lines_[set * config_.ways + way];
  evict(victim);
  account_.charge(timing_.write_stream_alloc);
  victim.valid = true;
  victim.dirty = true;
  victim.base = pa & ~(kCacheLineSize - 1);
}

void Cache::flush_line(PhysAddr pa) {
  Line* line = find_line(pa);
  if (line != nullptr) evict(*line);
}

void Cache::flush_range(PhysAddr pa, u64 len) {
  const PhysAddr first = pa & ~(kCacheLineSize - 1);
  const PhysAddr last = (pa + len - 1) & ~(kCacheLineSize - 1);
  for (PhysAddr p = first; p <= last; p += kCacheLineSize) flush_line(p);
}

void Cache::flush_all() {
  for (Line& line : lines_) evict(line);
}

bool Cache::contains_line(PhysAddr pa) const {
  return find_line(pa) != nullptr;
}

bool Cache::line_dirty(PhysAddr pa) const {
  const Line* line = find_line(pa);
  return line != nullptr && line->dirty;
}

}  // namespace hn::sim
