// Observability layer, part 1: the hierarchical metrics registry
// (DESIGN.md §10).
//
// A Registry holds named metrics — counters, gauges (high-water on
// merge), and cycle-weighted histograms — addressed by dotted paths that
// mirror the subsystem hierarchy: `sim.mmu.s2_walks`,
// `mbm.fifo.high_water`, `hypersec.hvc.verify_cycles`.  Every simulated
// machine owns one registry; components register handles once at
// construction and bump them from hot paths.
//
// Two contracts shape the design:
//
//  * Near-zero overhead when disabled.  With the registry
//    runtime-disabled (the default), an operation is one predictable
//    load + branch.
//
//  * Deterministic snapshot/merge.  A Snapshot is a path-sorted value
//    type; merging folds counters by addition, gauges by max and
//    histograms bucket-wise — all commutative and associative over u64,
//    so per-shard registries fold bit-identically under hn_exec at any
//    --jobs count (the parallel campaign test pins this).
//
// Like the rest of the simulation, a Registry belongs to one simulated
// universe and is single-threaded; cross-thread aggregation happens on
// merged Snapshots, never on live registries.
#pragma once

#include <array>
#include <bit>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace hn::obs {

enum class MetricKind : u8 { kCounter, kGauge, kHistogram };

[[nodiscard]] constexpr const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

/// Power-of-two bucketed histogram with per-bucket sample *weights* —
/// the cycle-weighted shape: record(value=cycles, weight=cycles) shows
/// where cycles go, not just how often an event fires.  Bucket b holds
/// values v with std::bit_width(v) == b, i.e. [2^(b-1), 2^b - 1]
/// (bucket 0 holds exactly the value 0).
struct HistogramData {
  static constexpr unsigned kBuckets = 65;  // bit_width of a u64 is 0..64

  std::array<u64, kBuckets> count{};
  std::array<u64, kBuckets> weight{};
  u64 total_count = 0;
  u64 total_weight = 0;
  u64 min = ~u64{0};  // ~0 while empty
  u64 max = 0;

  static constexpr unsigned bucket_of(u64 value) {
    return static_cast<unsigned>(std::bit_width(value));
  }
  /// Inclusive upper bound of bucket `b`.
  static constexpr u64 bucket_le(unsigned b) {
    return b == 0 ? 0 : (b >= 64 ? ~u64{0} : (u64{1} << b) - 1);
  }

  void record(u64 value, u64 w) {
    const unsigned b = bucket_of(value);
    count[b] += 1;
    weight[b] += w;
    total_count += 1;
    total_weight += w;
    if (value < min) min = value;
    if (value > max) max = value;
  }

  /// Percentile estimate from the power-of-two buckets, upper-bound
  /// semantics: the smallest bucket whose cumulative count reaches
  /// ceil(p/100 * total_count), reported as that bucket's inclusive
  /// upper bound (bucket_le).  The true p-th sample lies at or below the
  /// returned value; resolution is one power of two.  p is clamped to
  /// [0, 100]; an empty histogram reports 0.
  [[nodiscard]] constexpr u64 percentile(unsigned p) const {
    if (total_count == 0) return 0;
    if (p > 100) p = 100;
    // ceil(p/100 * total_count) without overflow for any u64 count.
    const u64 rank =
        total_count / 100 * p + (total_count % 100 * p + 99) / 100;
    const u64 need = rank == 0 ? 1 : rank;  // p == 0 -> first sample
    u64 cum = 0;
    for (unsigned b = 0; b < kBuckets; ++b) {
      cum += count[b];
      if (cum >= need) return bucket_le(b);
    }
    return bucket_le(kBuckets - 1);
  }

  /// Commutative fold: bucket-wise sums, range union.
  void merge(const HistogramData& other) {
    for (unsigned b = 0; b < kBuckets; ++b) {
      count[b] += other.count[b];
      weight[b] += other.weight[b];
    }
    total_count += other.total_count;
    total_weight += other.total_weight;
    if (other.min < min) min = other.min;
    if (other.max > max) max = other.max;
  }

  bool operator==(const HistogramData&) const = default;
};

namespace detail {
struct Metric {
  MetricKind kind = MetricKind::kCounter;
  u64 value = 0;
  std::unique_ptr<HistogramData> hist;  // kind == kHistogram only
};
}  // namespace detail

// --- Handles -----------------------------------------------------------------
//
// A handle is a registration-time binding of (metric slot, registry
// enable flag).  Default-constructed handles are inert.

class Counter {
 public:
  void add(u64 n = 1) {
    if (slot_ != nullptr && *on_) slot_->value += n;
  }
  /// True when an add() would actually record — lets hot paths skip
  /// computing expensive arguments while observability is off.
  [[nodiscard]] bool active() const {
    return slot_ != nullptr && *on_;
  }
  /// Current count (0 for inert handles) — the time-series probe read.
  [[nodiscard]] u64 value() const {
    return slot_ != nullptr ? slot_->value : 0;
  }

 private:
  friend class Registry;
  detail::Metric* slot_ = nullptr;
  const bool* on_ = nullptr;
};

/// Gauges fold by max on merge, so they are high-water marks across
/// shards; set() overwrites within one registry, set_max() never lowers.
class Gauge {
 public:
  void set(u64 v) {
    if (slot_ != nullptr && *on_) slot_->value = v;
  }
  void set_max(u64 v) {
    if (slot_ != nullptr && *on_ && v > slot_->value) slot_->value = v;
  }
  /// Current level (0 for inert handles) — the time-series probe read.
  [[nodiscard]] u64 value() const {
    return slot_ != nullptr ? slot_->value : 0;
  }

 private:
  friend class Registry;
  detail::Metric* slot_ = nullptr;
  const bool* on_ = nullptr;
};

class Histogram {
 public:
  void record(u64 value, u64 w = 1) {
    if (slot_ != nullptr && *on_) slot_->hist->record(value, w);
  }
  /// Cycle-weighted convenience: a sample whose weight is its own value.
  void record_cycles(Cycles c) { record(c, c); }
  /// True when a record() would actually land (see Counter::active()).
  [[nodiscard]] bool active() const {
    return slot_ != nullptr && *on_;
  }
  /// The live bucket data (nullptr for inert handles) — lets the
  /// time-series layer probe total_weight/total_count without a snapshot.
  [[nodiscard]] const HistogramData* data() const {
    return slot_ != nullptr ? slot_->hist.get() : nullptr;
  }

 private:
  friend class Registry;
  detail::Metric* slot_ = nullptr;
  const bool* on_ = nullptr;
};

// --- Snapshot ----------------------------------------------------------------

struct SnapshotEntry {
  std::string path;
  MetricKind kind = MetricKind::kCounter;
  u64 value = 0;       // counter / gauge payload
  HistogramData hist;  // kind == kHistogram only

  bool operator==(const SnapshotEntry&) const = default;
};

/// Path-sorted value copy of a registry.  merge() is the only way state
/// crosses threads: commutative per-entry folds plus a sorted merge-join
/// make the result independent of merge order and shard count.
struct Snapshot {
  std::vector<SnapshotEntry> entries;  // strictly ascending by path

  void merge(const Snapshot& other);

  [[nodiscard]] const SnapshotEntry* find(std::string_view path) const;
  /// Counter/gauge payload, or 0 when absent.
  [[nodiscard]] u64 value(std::string_view path) const;
  /// Sum of counter values at or under `prefix` (path == prefix or
  /// path starting "prefix.") — the hierarchy rollup.
  [[nodiscard]] u64 rollup(std::string_view prefix) const;

  bool operator==(const Snapshot&) const = default;
};

// --- Registry ----------------------------------------------------------------

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create.  Re-registering an existing path with the same kind
  /// returns a handle to the same slot; a kind mismatch returns an inert
  /// handle (and the original metric is untouched).
  Counter counter(std::string_view path);
  Gauge gauge(std::string_view path);
  Histogram histogram(std::string_view path);

  /// Runtime switch, off by default: registration always works, but
  /// handle operations only mutate while enabled.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Stable address of the enable flag, for handles.
  [[nodiscard]] const bool* enabled_flag() const { return &enabled_; }

  [[nodiscard]] u64 size() const { return metrics_.size(); }
  [[nodiscard]] Snapshot snapshot() const;
  /// Zero every metric (registrations survive).
  void reset_values();

 private:
  detail::Metric* slot(std::string_view path, MetricKind kind);

  // std::map: node stability keeps handle pointers valid forever, and
  // iteration order is the snapshot's sorted order for free.
  std::map<std::string, detail::Metric, std::less<>> metrics_;
  bool enabled_ = false;
};

}  // namespace hn::obs
