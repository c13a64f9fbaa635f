// Observability layer, part 5: deterministic cycle-bucketed time series
// (DESIGN.md §16).
//
// A TimeSeries turns the registry's "how much, in total" counters into
// "when, and on which core": any metric (or arbitrary u64 probe) can be
// enrolled as a *track*, and every `interval` simulated cycles the layer
// emits one sample row holding all track values.  Samples are keyed on
// simulated cycles only — never host time, thread ids, or job counts —
// so two runs of the same simulated universe produce byte-identical
// sample streams at any --jobs and any --cores (the matrix test pins
// these axes).
//
// Two track kinds:
//
//  * kCounter tracks sample the *delta* since the previous sample.
//    Deltas make the stream restart-invariant: zeroing the underlying
//    registry (snapshot restore does) only shifts the cumulative
//    offset, which cancels in the differences.  Summing a counter
//    track over all samples telescopes exactly to the end-of-run total
//    (data() appends a final flush row for the partial tail window).
//
//  * kLevel tracks sample the probe value as-is (FIFO occupancy,
//    runqueue depth): architectural state that snapshots restore.
//
// Sampling is poll-driven, not callback-driven: the machine calls
// poll(now) at its deterministic observation points and the layer emits
// one row per interval boundary crossed, stamped at the *boundary*
// cycle (k * interval), not at the poll cycle.  Boundaries are absolute
// (multiples of the interval since cycle 0), so re-arming at the same
// simulated cycle reproduces the same stamps.  Disabled cost is one
// load + branch (armed()).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace hn::obs {

/// Default sampling interval for `--sample-cycles` without an explicit
/// value: 64Ki simulated cycles (~26 µs at 2.5 GHz) — coarse enough to
/// stay cheap, fine enough that a scorecard run spans many windows.
inline constexpr Cycles kDefaultSampleCycles = 64 * 1024;

enum class TrackKind : u8 { kCounter = 0, kLevel = 1 };

[[nodiscard]] constexpr const char* track_kind_name(TrackKind kind) {
  switch (kind) {
    case TrackKind::kCounter: return "counter";
    case TrackKind::kLevel: return "level";
  }
  return "?";
}

struct TimeSeriesTrack {
  std::string name;
  TrackKind kind = TrackKind::kCounter;

  bool operator==(const TimeSeriesTrack&) const = default;
};

/// One sample row: all track values observed at simulated cycle `at`.
struct TimeSeriesSample {
  Cycles at = 0;
  std::vector<u64> values;  // parallel to TimeSeriesData::tracks

  bool operator==(const TimeSeriesSample&) const = default;
};

/// Value-type copy of a sampled stream — what serializes, parses, and
/// renders.  Equal TimeSeriesData serialize byte-identically.
struct TimeSeriesData {
  Cycles interval = 0;
  double cpu_ghz = 0.0;  // for µs rendering; 0 = unknown
  std::vector<TimeSeriesTrack> tracks;
  std::vector<TimeSeriesSample> samples;

  [[nodiscard]] bool empty() const { return samples.empty(); }
  /// Index of the named track, or -1.
  [[nodiscard]] int track_index(std::string_view name) const;
  /// Sum of a counter track over all samples (== end-of-run total thanks
  /// to delta encoding + the flush row), or the last level of a level
  /// track.  0 for unknown names.
  [[nodiscard]] u64 track_total(std::string_view name) const;

  bool operator==(const TimeSeriesData&) const = default;
};

class TimeSeries {
 public:
  using Probe = std::function<u64()>;

  TimeSeries() = default;
  TimeSeries(const TimeSeries&) = delete;
  TimeSeries& operator=(const TimeSeries&) = delete;

  /// Enroll a track.  Enrollment order is serialization order, so
  /// enroll in deterministic (construction) order only.  Probes must be
  /// pure reads of simulated state.  A track enrolled while armed joins
  /// the stream: earlier rows record 0 for it, and a counter's deltas
  /// start at enrollment.
  void enroll(std::string name, TrackKind kind, Probe probe);
  /// Sugar: registry handles as probes (handles are stable pointer
  /// pairs, safe to copy into the lambda).
  void enroll(std::string name, Counter c) {
    enroll(std::move(name), TrackKind::kCounter, [c] { return c.value(); });
  }
  void enroll(std::string name, Gauge g) {
    enroll(std::move(name), TrackKind::kLevel, [g] { return g.value(); });
  }

  /// Start sampling every `interval` cycles.  Drops accumulated
  /// samples, primes every counter track's baseline from its probe, and
  /// schedules the first sample at the next absolute boundary after
  /// `now` (boundaries are multiples of `interval` since cycle 0).
  /// interval 0 disarms.
  void arm(Cycles interval, Cycles now);
  void disarm() { interval_ = 0; }
  /// One load + branch — the hot-path gate.
  [[nodiscard]] bool armed() const { return interval_ != 0; }

  /// The sampling hook: emit one row per interval boundary in
  /// (last, now], each stamped at its boundary cycle.  Callers gate on
  /// armed() first.  `now` regressions (bus-local clocks on core
  /// switches) are harmless: boundaries only ever advance.
  void poll(Cycles now) {
    while (interval_ != 0 && now >= next_at_) {
      sample_at(next_at_);
      next_at_ += interval_;
    }
  }

  /// Drop samples and disarm, keeping enrollment (snapshot restore:
  /// the executor re-arms afterwards).
  void clear_samples();

  /// Remove every track whose name starts with `prefix` — an enrollee's
  /// destructor defends against dangling probes when it dies before the
  /// machine.  Accumulated sample rows drop the matching columns, so
  /// the stream stays self-consistent.  Determinism is unaffected:
  /// identically-configured runs enroll (and unenroll) identically.
  void unenroll_prefix(std::string_view prefix);

  /// Value copy for serialization.  When armed and `now` lies past the
  /// last emitted row, a final flush row stamped `now` captures the
  /// partial tail window, so counter-track sums telescope exactly to
  /// the end-of-run totals.  cpu_ghz is left 0 — the capturing layer
  /// knows the clock.
  [[nodiscard]] TimeSeriesData data(Cycles now) const;

  [[nodiscard]] size_t track_count() const { return tracks_.size(); }
  [[nodiscard]] size_t sample_count() const { return samples_.size(); }

 private:
  void sample_at(Cycles at);

  struct Track {
    std::string name;
    TrackKind kind = TrackKind::kCounter;
    Probe probe;
    u64 prev = 0;  // kCounter: baseline of the delta
  };

  std::vector<Track> tracks_;
  std::vector<TimeSeriesSample> samples_;
  Cycles interval_ = 0;  // 0 = disarmed
  Cycles next_at_ = 0;   // absolute cycle of the next boundary
};

// --- Binary format -----------------------------------------------------------
//
// Standalone "HNTSERIE" blob, also embedded verbatim as the v3 trace
// section (sim/trace_io.h).  Little-endian, version-checked:
//
//   magic "HNTSERIE" (8) | u32 version | u32 reserved | f64 cpu_ghz
//   u64 interval | u64 track_count
//   track_count x { u32 name_len | name bytes | u8 kind }
//   u64 sample_count
//   sample_count x { u64 at | track_count x u64 value }

inline constexpr char kTimeSeriesMagic[8] = {'H', 'N', 'T', 'S',
                                             'E', 'R', 'I', 'E'};
inline constexpr u32 kTimeSeriesFormatVersion = 1;

[[nodiscard]] std::vector<u8> serialize_timeseries(const TimeSeriesData& data);
[[nodiscard]] Status parse_timeseries(const std::vector<u8>& blob,
                                      TimeSeriesData& out);

}  // namespace hn::obs
