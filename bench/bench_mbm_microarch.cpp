// Figure 5 micro-architecture benchmarks (google-benchmark): host-side
// throughput of each MBM block plus the simulated behavioural numbers
// (bitmap-cache hit rate, FIFO headroom) under a snoop stream.
#include <benchmark/benchmark.h>

#include <memory>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "mbm/bitmap_cache.h"
#include "mbm/bitmap_math.h"
#include "mbm/event_ring.h"
#include "mbm/monitor.h"
#include "mbm/write_fifo.h"
#include "sim/machine.h"

namespace {

using namespace hn;

void BM_BitmapMath(benchmark::State& state) {
  SplitMix64 rng(1);
  u64 sink = 0;
  for (auto _ : state) {
    const PhysAddr pa = rng.next_below(1 << 27);
    const u64 bit = mbm::bit_index_for(pa, 0);
    sink ^= mbm::bitmap_word_addr(bit, 0x7000000) + mbm::bit_position(bit);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_BitmapMath);

void BM_BitmapCacheLookup(benchmark::State& state) {
  mbm::BitmapCache cache(static_cast<unsigned>(state.range(0)));
  SplitMix64 rng(2);
  for (unsigned i = 0; i < state.range(0); ++i) cache.fill(i * 8, i);
  u64 sink = 0;
  for (auto _ : state) {
    sink ^= cache.lookup((rng.next_below(state.range(0) * 2)) * 8).value;
  }
  benchmark::DoNotOptimize(sink);
  state.counters["hit_rate"] =
      static_cast<double>(cache.hits()) / (cache.hits() + cache.misses());
}
BENCHMARK(BM_BitmapCacheLookup)->Arg(4)->Arg(16)->Arg(64);

void BM_WriteFifoOffer(benchmark::State& state) {
  mbm::WriteFifo fifo(64);
  Cycles t = 0;
  for (auto _ : state) {
    fifo.offer(mbm::CapturedWrite{}, t, 12);
    t += 20;
  }
  state.counters["drops"] = static_cast<double>(fifo.drops());
}
BENCHMARK(BM_WriteFifoOffer);

void BM_EventRingPushPop(benchmark::State& state) {
  sim::Machine machine{sim::MachineConfig{}};
  mbm::EventRing ring(machine, 0x100000, 4096);
  mbm::MonitorEvent ev;
  u64 i = 0;
  for (auto _ : state) {
    ring.push(mbm::MonitorEvent{i * 8, i});
    ring.pop(ev);
    ++i;
  }
  benchmark::DoNotOptimize(ev);
}
BENCHMARK(BM_EventRingPushPop);

/// Full pipeline: snooped word writes with `density`-per-mille of them
/// hitting monitored words.  Reports detections and the MBM-internal
/// bitmap-fetch rate (what the bitmap cache saves).
void BM_SnoopPipeline(benchmark::State& state) {
  sim::Machine machine{sim::MachineConfig{}};
  const hn::obs::ArtifactFlags& flags = hn::bench::artifacts();
  if (!flags.metrics_out.empty()) machine.set_metrics(true);
  machine.scopes().set_host_clock(flags.profile);
  mbm::MbmConfig cfg;
  cfg.watch_base = 0;
  cfg.watch_size = machine.secure_base();
  cfg.bitmap_base = machine.secure_base();
  cfg.ring_base =
      page_align_up(cfg.bitmap_base + mbm::bitmap_bytes_for(cfg.watch_size));
  cfg.ring_entries = 1 << 16;
  auto mbm = std::make_unique<mbm::MemoryBusMonitor>(machine, cfg);
  machine.gic().set_enabled(sim::kIrqMbm, false);  // count-only run

  // Monitor every 1000/density-th word of a 1 MiB window.
  const u64 density = state.range(0);
  for (PhysAddr pa = 0x100000; pa < 0x200000; pa += kWordSize) {
    if ((pa / kWordSize) % 1000 < density) {
      const u64 bit = mbm::bit_index_for(pa, 0);
      const PhysAddr wa = mbm::bitmap_word_addr(bit, cfg.bitmap_base);
      machine.phys().write64(
          wa, machine.phys().read64(wa) | (u64{1} << mbm::bit_position(bit)));
    }
  }

  SplitMix64 rng(3);
  u64 writes = 0;
  for (auto _ : state) {
    sim::BusTransaction t;
    t.op = sim::BusOp::kWriteWord;
    t.paddr = 0x100000 + word_align_down(rng.next_below(1 << 20));
    t.value = writes;
    t.timestamp = writes * 200;  // paced stream
    machine.bus().issue(t);
    ++writes;
  }
  const mbm::MbmStats s = mbm->stats();
  state.counters["detect_rate"] =
      static_cast<double>(s.detections) / static_cast<double>(writes);
  state.counters["bitmap_cache_hit"] =
      static_cast<double>(s.bitmap_cache_hits) /
      static_cast<double>(s.bitmap_cache_hits + s.bitmap_cache_misses);
  state.counters["fifo_drops"] = static_cast<double>(s.fifo_drops);
  hn::bench::record_cell(density, {.metrics = machine.metrics_snapshot(),
                                   .profile = machine.scopes().report()});
}
BENCHMARK(BM_SnoopPipeline)->Arg(1)->Arg(50)->Arg(500);

}  // namespace

// Custom main: peel off the repo-common flags (--jobs, the artifact flags)
// before google-benchmark sees (and rejects) them.  The cells have no
// System, so --trace-out and --timeseries-out find nothing recorded and
// exit 2.
int main(int argc, char** argv) {
  hn::bench::parse_and_strip_args(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return hn::bench::write_bench_artifacts();
}
