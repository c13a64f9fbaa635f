// Write-back, write-allocate, physically-indexed data cache (Cortex-A57
// L1D-like: 32 KiB, 2-way, 64 B lines).
//
// The cache holds no data — functional state lives in PhysicalMemory — but
// it decides *when traffic reaches the bus*: a cacheable write marks a line
// dirty and emits nothing; the line surfaces as a single kWriteLine
// transaction at eviction or explicit flush, when DRAM already holds its
// final contents.  This models the MBM visibility problem that forces
// Hypersec to map monitored pages non-cacheable (§5.3).
#pragma once

#include <vector>

#include "common/timing.h"
#include "common/types.h"
#include "sim/bus.h"
#include "sim/cycle_account.h"
#include "sim/snapshot.h"

namespace hn::sim {

struct CacheConfig {
  u64 size_bytes = 32 * 1024;
  unsigned ways = 2;
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
  void access(PhysAddr pa, bool is_write);

  /// Full-line streaming write: the whole line at `pa` is being
  /// overwritten, so a miss allocates the line dirty *without* a DRAM
  /// fetch (DC ZVA / write-streaming behaviour).  Used by bulk zeroing
  /// and large copies.
  void write_alloc_line(PhysAddr pa);

  /// Write back (if dirty) and invalidate the line containing `pa`.
  /// Used by Hypersec when it remaps a monitored page non-cacheable, so no
  /// stale dirty data can later mask a monitored write.
  void flush_line(PhysAddr pa);

  /// Flush every line intersecting [pa, pa+len).
  void flush_range(PhysAddr pa, u64 len);

  /// Invalidate everything, writing back dirty lines.
  void flush_all();

  [[nodiscard]] bool contains_line(PhysAddr pa) const;
  [[nodiscard]] bool line_dirty(PhysAddr pa) const;
  [[nodiscard]] const CacheConfig& config() const { return config_; }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  // Tag/victim state only: line *data* lives in PhysicalMemory, restored
  // via the snapshot's page set.

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

  void restore_state(SnapReader& r) {
    r.section("cache");
    const u64 nlines = r.get_u64();
    if (r.ok() && nlines != lines_.size()) {
      r.fail("line count " + std::to_string(nlines) +
             " does not match configured geometry");
      return;
    }
    for (Line& l : lines_) {
      l.valid = r.get_bool();
      l.dirty = r.get_bool();
      l.base = r.get_u64();
    }
    const u64 nsets = r.get_u64();
    if (r.ok() && nsets != victim_.size()) {
      r.fail("set count " + std::to_string(nsets) +
             " does not match configured geometry");
      return;
    }
    for (unsigned& v : victim_) {
      v = r.get_u32();
      if (r.ok() && v >= config_.ways) {
        r.fail("victim way " + std::to_string(v) + " out of range");
        return;
      }
    }
  }

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    PhysAddr base = 0;  // line-aligned physical address
  };

  [[nodiscard]] u64 set_index(PhysAddr pa) const {
    return (pa / kCacheLineSize) & set_mask_;
  }
  /// Round-robin victim of `set`, advancing its cursor.
  unsigned next_victim(u64 set) {
    const unsigned way = victim_[set];
    victim_[set] = way + 1 == config_.ways ? 0 : way + 1;
    return way;
  }
  Line* find_line(PhysAddr pa);
  [[nodiscard]] const Line* find_line(PhysAddr pa) const;
  void evict(Line& line);
  void writeback(const Line& line);

  CacheConfig config_;
  MemoryBus& bus_;
  CycleAccount& account_;
  const TimingModel& timing_;
  u8 core_id_ = 0;
  Cycles* bus_clock_ = nullptr;  // Machine's shared bus clock (may be null)
  u64 num_sets_;
  u64 set_mask_;                  // num_sets_ - 1 (num_sets_ is a power of 2)
  std::vector<Line> lines_;       // num_sets_ * ways, set-major
  std::vector<unsigned> victim_;  // round-robin pointer per set
};

}  // namespace hn::sim
