// Time-series determinism matrix (DESIGN.md §16) and the
// timeline/attribution cross-check.
//
// The sampler's contract is that the serialized HNTSERIE stream is a
// pure function of the simulated universe: byte-identical at any --jobs
// count and with the host fast path on or off — for every core count.
// The matrix below pins these axes (identity holds *within* each cores
// value; different core counts legitimately sample different universes).
//
// The cross-check pins satellite agreement between the two read sides:
// the per-window timeline and the causal attribution report are built
// from the same trace, so the sum of complete chains' end-to-end
// latencies must equal the hypersec.detect.e2e_cycles track total.
#include <gtest/gtest.h>

#include "attacks/scenario.h"
#include "attacks/scorecard.h"
#include "fuzz/executor.h"
#include "fuzz/fuzzer.h"
#include "fuzz/generator.h"
#include "obs/timeseries.h"
#include "sim/trace_io.h"
#include "sim/trace_report.h"

namespace hn::fuzz {
namespace {

constexpr Cycles kInterval = 4096;

std::vector<Op> matrix_ops() {
  GeneratorOptions gen;
  gen.ops = 40;
  return generate_sequence(sequence_seed(1, 0), gen);
}

FuzzConfigSpec monitor_spec(unsigned cores) {
  FuzzConfigSpec spec;
  spec.name = "hypernel-monitor";
  spec.mode = hypernel::Mode::kHypernel;
  spec.monitor = true;
  spec.cores = cores;
  return spec;
}

std::vector<u8> sampled_stream(unsigned cores, bool host_fast_path) {
  FuzzConfigSpec spec = monitor_spec(cores);
  spec.host_fast_path = host_fast_path;
  ExecutorOptions exec;
  exec.sample_cycles = kInterval;
  return run_sequence(spec, matrix_ops(), exec).timeseries_blob;
}

TEST(TimeSeriesMatrix, ByteIdenticalAcrossTimingModes) {
  for (const unsigned cores : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "cores=" << cores);
    const std::vector<u8> fast = sampled_stream(cores, true);
    ASSERT_FALSE(fast.empty());

    // The stream actually sampled something: tracks and rows exist.
    obs::TimeSeriesData data;
    ASSERT_TRUE(obs::parse_timeseries(fast, data).ok());
    EXPECT_EQ(data.interval, kInterval);
    EXPECT_GT(data.tracks.size(), 0u);
    EXPECT_GT(data.samples.size(), 0u);

    EXPECT_EQ(sampled_stream(cores, false), fast)
        << "reference mode diverged";
  }
}

TEST(TimeSeriesMatrix, CampaignStreamIsJobsInvariant) {
  FuzzOptions opt;
  opt.seed = 1;
  opt.sequences = 4;
  opt.ops = 30;
  opt.sample_cycles = kInterval;
  opt.jobs = 1;
  const CampaignResult serial = run_campaign(opt);
  opt.jobs = 4;
  const CampaignResult parallel = run_campaign(opt);
  ASSERT_FALSE(serial.timeseries_blob.empty());
  EXPECT_EQ(serial.timeseries_blob, parallel.timeseries_blob);
}

TEST(TimeSeriesMatrix, SamplingLeavesDigestsUntouched) {
  // Flipping the sampler on must not perturb the simulated universe:
  // fingerprints (and hence campaign digests) stay identical.
  const FuzzConfigSpec spec = monitor_spec(2);
  const std::vector<Op> ops = matrix_ops();
  ExecutorOptions plain;
  ExecutorOptions sampled;
  sampled.sample_cycles = kInterval;
  const RunResult a = run_sequence(spec, ops, plain);
  const RunResult b = run_sequence(spec, ops, sampled);
  EXPECT_TRUE(a.timeseries_blob.empty());
  EXPECT_FALSE(b.timeseries_blob.empty());
  EXPECT_EQ(a.fingerprint.functional_hash(), b.fingerprint.functional_hash());
  EXPECT_EQ(a.fingerprint.cycles, b.fingerprint.cycles);
  EXPECT_EQ(a.fingerprint.monitor_events, b.fingerprint.monitor_events);
  EXPECT_EQ(a.fingerprint.alerts, b.fingerprint.alerts);
}

TEST(TimeSeriesV3Trace, EmbedsSectionAndTimelineAgreesWithAttribution) {
  // Drive a real detection chain end to end with both the flight
  // recorder and the sampler armed.
  const attacks::AttackScenario* scenario =
      attacks::find_scenario("smp-cross-core-syscall-stub");
  ASSERT_NE(scenario, nullptr);
  FuzzConfigSpec spec;
  for (const FuzzConfigSpec& s : attacks::detector_configs()) {
    if (s.name == scenario->intended_detector) spec = s;
  }
  ASSERT_EQ(spec.name, scenario->intended_detector);
  spec.cores = 2;
  ExecutorOptions exec;
  exec.capture_trace = true;
  exec.sample_cycles = kInterval;
  const RunResult run = run_sequence(spec, scenario->ops, exec);
  ASSERT_FALSE(run.trace_blob.empty());

  sim::TraceData data;
  ASSERT_TRUE(sim::parse_trace(run.trace_blob, data).ok());
  EXPECT_EQ(data.version, 3u);
  ASSERT_FALSE(data.timeseries.samples.empty());

  // The embedded section is the byte-identical twin of the standalone
  // stream the run returned.
  obs::TimeSeriesData standalone;
  ASSERT_TRUE(obs::parse_timeseries(run.timeseries_blob, standalone).ok());
  standalone.cpu_ghz = data.timeseries.cpu_ghz;  // embedded carries the clock
  EXPECT_EQ(data.timeseries.interval, standalone.interval);
  EXPECT_EQ(data.timeseries.tracks, standalone.tracks);
  EXPECT_EQ(data.timeseries.samples, standalone.samples);

  // Cross-check: the attribution report and the live counter track must
  // agree on the total end-to-end detection latency (this workload is
  // small enough that no chain link is evicted from the trace ring).
  const sim::AttributionReport report = sim::build_attribution(data);
  ASSERT_GT(report.verdicts_total, 0u);
  EXPECT_EQ(report.broken_chains, 0u);
  EXPECT_EQ(report.verdicts_unattributed, 0u);
  u64 chain_sum = 0;
  for (const sim::DetectionChain& c : report.chains) {
    chain_sum += c.end_to_end;
  }
  EXPECT_EQ(chain_sum,
            data.timeseries.track_total("hypersec.detect.e2e_cycles"));

  // And the renderer reports exactly these totals.
  const std::string timeline = sim::render_timeline(data);
  EXPECT_NE(timeline.find("Load timeline:"), std::string::npos);
  EXPECT_NE(timeline.find("track hypersec.detect.e2e_cycles sum=" +
                          std::to_string(chain_sum)),
            std::string::npos);
}

TEST(TimeSeriesV3Trace, UnsampledTraceCarriesEmptySection) {
  FuzzConfigSpec spec = monitor_spec(1);
  ExecutorOptions exec;
  exec.capture_trace = true;
  const RunResult run = run_sequence(spec, matrix_ops(), exec);
  ASSERT_FALSE(run.trace_blob.empty());
  sim::TraceData data;
  ASSERT_TRUE(sim::parse_trace(run.trace_blob, data).ok());
  EXPECT_EQ(data.version, 3u);
  EXPECT_TRUE(data.timeseries.samples.empty());
  EXPECT_TRUE(run.timeseries_blob.empty());
}

}  // namespace
}  // namespace hn::fuzz
