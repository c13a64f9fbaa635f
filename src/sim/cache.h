// Write-back, write-allocate, physically-indexed data cache (Cortex-A57
// L1D-like: 32 KiB, 2-way, 64 B lines).
//
// The cache holds no data — functional state lives in PhysicalMemory — but
// it decides *when traffic reaches the bus*: a cacheable write marks a line
// dirty and emits nothing; the line surfaces as a single kWriteLine
// transaction at eviction or explicit flush, when DRAM already holds its
// final contents.  This models the MBM visibility problem that forces
// Hypersec to map monitored pages non-cacheable (§5.3).
//
// Host-side representation: a packed two-way tag store.  Each line's tag
// word is its line base with bit 0 as the valid bit, so a lookup is two
// compares against `base | valid`; dirty bits and the per-set round-robin
// cursors sit in their own byte arrays.  An invalidated line keeps its
// base (only the valid bit clears), exactly what the snapshot records.
// access() and write_alloc_line() are split into an inline hit section
// (the one tag compare, find()) and an out-of-line miss that evicts,
// writes back and fills.
#pragma once

#include <cassert>
#include <vector>

#include "common/timing.h"
#include "common/types.h"
#include "sim/bus.h"
#include "sim/cycle_account.h"
#include "sim/snapshot.h"

namespace hn::sim {

/// Every cache is two-way set associative, like the A57's L1D.
inline constexpr unsigned kCacheWays = 2;

struct CacheConfig {
  u64 size_bytes = 32 * 1024;
  bool enabled = true;  // disabled => every access behaves as non-cacheable
};

class Cache {
 public:
  Cache(const CacheConfig& config, MemoryBus& bus, CycleAccount& account,
        const TimingModel& timing);

  /// SMP bus provenance: the owning core's id and the machine's shared
  /// monotonic bus clock.  Dirty write-backs are bus transactions the MBM
  /// may snoop, so they must carry the issuing core and a bus-order
  /// (non-decreasing) timestamp even though per-core clocks drift.
  /// Identity on single-core machines, where the one clock is already
  /// the bus clock.
  void set_bus_provenance(u8 core, Cycles* shared_clock) {
    core_id_ = core;
    bus_clock_ = shared_clock;
  }

  /// A cacheable access to the word/line containing `pa`.  Charges hit or
  /// miss cost, performs fills and dirty evictions via the bus, and marks
  /// the line dirty on writes.  The functional data update is the caller's
  /// job (done before/after as appropriate).
  void access(PhysAddr pa, bool is_write) {
    assert(config_.enabled);
    const u64 line = find(pa);
    if (line == kMiss) [[unlikely]] {
      fill(pa, is_write);
      return;
    }
    hit(line, is_write);
  }

  /// Full-line streaming write: the whole line at `pa` is being
  /// overwritten, so a miss allocates the line dirty *without* a DRAM
  /// fetch (DC ZVA / write-streaming behaviour).  Used by bulk zeroing
  /// and large copies.
  void write_alloc_line(PhysAddr pa) {
    assert(config_.enabled);
    const u64 line = find(pa);
    if (line == kMiss) [[unlikely]] {
      stream_alloc(pa);
      return;
    }
    hit(line, /*is_write=*/true);
  }

  /// A store of [pa, pa+len) within one page, line by line in ascending
  /// address order: lines the span covers whole take write_alloc_line
  /// (no fetch-on-write), ragged edges take access(line, true).
  void store_span(PhysAddr pa, u64 len);
  /// A load of [pa, pa+len) within one page: access(pa + k*64, false) for
  /// every k with k*64 < len, in ascending order.
  void load_span(PhysAddr pa, u64 len);

  /// Write back (if dirty) and invalidate the line containing `pa`.
  /// Used by Hypersec when it remaps a monitored page non-cacheable, so no
  /// stale dirty data can later mask a monitored write.
  void flush_line(PhysAddr pa);

  /// Flush every line intersecting [pa, pa+len).
  void flush_range(PhysAddr pa, u64 len);

  /// Invalidate everything, writing back dirty lines.
  void flush_all();

  [[nodiscard]] bool contains_line(PhysAddr pa) const {
    return find(pa) != kMiss;
  }
  [[nodiscard]] bool line_dirty(PhysAddr pa) const {
    const u64 line = find(pa);
    return line != kMiss && dirty_[line] != 0;
  }
  [[nodiscard]] const CacheConfig& config() const { return config_; }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  // Tag/victim state only: line *data* lives in PhysicalMemory, restored
  // via the snapshot's page set.  Per line: valid, dirty, base; then one
  // u32 round-robin cursor per set.

  void save_state(SnapWriter& w) const;

  /// Every line base must be line-aligned (bit 0 is the packed valid
  /// bit), and every valid line must lie below `dram_size`: a write-back
  /// issues its base on the bus.
  void restore_state(SnapReader& r, u64 dram_size);

 private:
  static constexpr u64 kValid = 1;        // tag bit 0; bases are 64 B aligned
  static constexpr u64 kMiss = ~u64{0};   // find(): no way holds the line

  [[nodiscard]] static u64 line_base(PhysAddr pa) {
    return pa & ~(kCacheLineSize - 1);
  }

  /// The tag compare: the line index (set * 2 + way) holding `pa`, or
  /// kMiss.  Way 0 is compared first.
  [[nodiscard]] u64 find(PhysAddr pa) const {
    const u64 tag = line_base(pa) | kValid;
    const u64 first = ((pa / kCacheLineSize) & set_mask_) * kCacheWays;
    if (tags_[first] == tag) return first;
    if (tags_[first + 1] == tag) return first + 1;
    return kMiss;
  }

  /// The hit section: charge the hit, dirty the line on writes.
  void hit(u64 line, bool is_write) {
    account_.charge(timing_.l1_hit);
    ++account_.counters().l1_hits;
    if (is_write) dirty_[line] = 1;
  }

  /// access()'s miss: evict a victim, fill the line through the bus.
  void fill(PhysAddr pa, bool is_write);
  /// write_alloc_line()'s miss: evict a victim, allocate dirty, no fetch.
  void stream_alloc(PhysAddr pa);
  /// Advance the set's round-robin cursor, then prefer an invalid way:
  /// the line index the miss will (re)use.
  u64 victim_line(PhysAddr pa);
  /// Write the line back if valid and dirty, then invalidate it.
  void evict(u64 line);
  void writeback(PhysAddr base);

  CacheConfig config_;
  MemoryBus& bus_;
  CycleAccount& account_;
  const TimingModel& timing_;
  u8 core_id_ = 0;
  Cycles* bus_clock_ = nullptr;  // Machine's shared bus clock (may be null)
  u64 set_mask_;             // set count - 1 (the set count is a power of 2)
  std::vector<u64> tags_;    // line base | kValid, num_sets_ * 2, set-major
  std::vector<u8> dirty_;    // per line
  std::vector<u8> victim_;   // round-robin cursor per set: 0 or 1
};

}  // namespace hn::sim
