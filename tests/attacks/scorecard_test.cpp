// Scorecard harness tests: the acceptance gates (every intended attack
// hit with a causal attribution chain, zero false positives), the golden
// report digest pinned at --jobs=1 vs --jobs=4, and the untraced report's
// digest.
#include <gtest/gtest.h>

#include <string>

#include "attacks/scenario.h"
#include "attacks/scorecard.h"
#include "fuzz/executor.h"
#include "sim/trace_io.h"

namespace hn::attacks {
namespace {

// Golden FNV digests over the deterministic JSON report.  The scenario
// library is append-only and the render order fixed, so these move only
// when the library, a detector policy, or the report schema changes —
// update them together with the EXPERIMENTS.md scorecard table.
constexpr u64 kGoldenTracedDigest = 0x99ce7818d3fcbf62ull;
constexpr u64 kGoldenUntracedDigest = 0xdf5ad6821e5e62cfull;

/// The traced serial scorecard, computed once (two tests consume it).
const Scorecard& traced_serial_scorecard() {
  static const Scorecard score = [] {
    ScorecardOptions opt;
    opt.jobs = 1;  // trace_attribution defaults on
    return run_scorecard(opt);
  }();
  return score;
}

TEST(Scorecard, AcceptanceGatesHoldWithAttribution) {
  const Scorecard& score = traced_serial_scorecard();
  EXPECT_TRUE(score.all_intended_hit);
  EXPECT_TRUE(score.zero_false_positives);
  EXPECT_TRUE(score.all_hits_attributed);
  EXPECT_TRUE(score.ok(/*require_attribution=*/true));
  ASSERT_EQ(score.cells.size(),
            scenario_library().size() * detector_configs().size());
  ASSERT_EQ(score.benign.size(), detector_configs().size());
  for (const BenignCell& b : score.benign) {
    EXPECT_EQ(b.alerts, 0u) << b.config;
  }
  for (const DetectorSummary& s : score.summary) {
    SCOPED_TRACE(s.detector);
    EXPECT_GT(s.intended_cells, 0u);
    EXPECT_EQ(s.hits, s.intended_cells);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.false_positives, 0u);
    EXPECT_GT(s.mean_latency, 0u);
  }
  EXPECT_FALSE(score.sample_trace.empty());
  EXPECT_EQ(score.digest, kGoldenTracedDigest) << score.json;

  const std::string table = render_scorecard(score);
  EXPECT_NE(table.find("HIT"), std::string::npos);
  EXPECT_EQ(table.find("MISS"), std::string::npos) << table;
  EXPECT_NE(table.find("CLEAN"), std::string::npos);
}

TEST(Scorecard, JobCountNeverChangesTheReport) {
  ScorecardOptions parallel;
  parallel.jobs = 4;
  const Scorecard b = run_scorecard(parallel);
  EXPECT_EQ(traced_serial_scorecard().json, b.json);
  EXPECT_EQ(b.digest, kGoldenTracedDigest);
}

TEST(Scorecard, UntracedReportKeepsHitsAndDropsAttribution) {
  ScorecardOptions opt;
  opt.jobs = 4;
  opt.trace_attribution = false;
  const Scorecard a = run_scorecard(opt);
  EXPECT_EQ(a.digest, kGoldenUntracedDigest);
  // Hits still land without traces; only the attribution gate drops.
  EXPECT_TRUE(a.all_intended_hit);
  EXPECT_TRUE(a.zero_false_positives);
  EXPECT_FALSE(a.all_hits_attributed);
  EXPECT_TRUE(a.ok(/*require_attribution=*/false));
  EXPECT_FALSE(a.ok(/*require_attribution=*/true));
  EXPECT_TRUE(a.sample_trace.empty());
}

// --- SMP scorecards (--cores > 1) ------------------------------------------
//
// On a multi-core machine the cross-core scenarios join the matrix: a
// forked writer migrates to core 1, tampers from there, and the shared-bus
// MBM must still attribute the detection.  Golden digests pinned like the
// single-core ones; the single-core goldens above prove --cores=1 output
// is byte-identical to the pre-SMP format.

constexpr u64 kGoldenSmpTracedDigest = 0x89d0bf7d40dbd696ull;
constexpr u64 kGoldenSmpUntracedDigest = 0x16bf5bca23c95473ull;
constexpr u64 kGoldenSmpQuadUntracedDigest = 0x04462349363284e5ull;

const Scorecard& smp_serial_scorecard() {
  static const Scorecard score = [] {
    ScorecardOptions opt;
    opt.jobs = 1;
    opt.cores = 2;
    return run_scorecard(opt);
  }();
  return score;
}

TEST(SmpScorecard, CrossCoreScenariosHitWithAttribution) {
  const Scorecard& score = smp_serial_scorecard();
  EXPECT_TRUE(score.all_intended_hit);
  EXPECT_TRUE(score.zero_false_positives);
  EXPECT_TRUE(score.all_hits_attributed);
  ASSERT_EQ(score.cells.size(),
            (scenario_library().size() + smp_scenario_library().size()) *
                detector_configs().size());
  for (const BenignCell& b : score.benign) {
    EXPECT_EQ(b.alerts, 0u) << b.config;
  }
  // Every cross-core cell intended to hit did, causally attributed.
  unsigned smp_intended = 0;
  for (const ScorecardCell& cell : score.cells) {
    if (cell.scenario.rfind("smp-", 0) != 0) continue;
    if (!cell.intended) continue;
    ++smp_intended;
    SCOPED_TRACE(cell.scenario + " x " + cell.config);
    EXPECT_TRUE(cell.detected);
    EXPECT_TRUE(cell.attributed);
    EXPECT_GT(cell.latency, 0u);
  }
  EXPECT_EQ(smp_intended, smp_scenario_library().size());
  EXPECT_NE(score.json.find("\"cores\": 2"), std::string::npos);
  EXPECT_EQ(score.digest, kGoldenSmpTracedDigest) << score.json;

  const std::string table = render_scorecard(score);
  EXPECT_NE(table.find("smp-cross-core-syscall-stub"), std::string::npos);
  EXPECT_EQ(table.find("MISS"), std::string::npos) << table;
}

TEST(SmpScorecard, JobCountNeverChangesTheReport) {
  ScorecardOptions parallel;
  parallel.jobs = 4;
  parallel.cores = 2;
  const Scorecard b = run_scorecard(parallel);
  EXPECT_EQ(smp_serial_scorecard().json, b.json);
  EXPECT_EQ(b.digest, kGoldenSmpTracedDigest);
}

TEST(SmpScorecard, UntracedReportAtTwoCoresStaysPinned) {
  ScorecardOptions opt;
  opt.jobs = 4;
  opt.cores = 2;
  opt.trace_attribution = false;
  const Scorecard a = run_scorecard(opt);
  EXPECT_EQ(a.digest, kGoldenSmpUntracedDigest);
  EXPECT_TRUE(a.all_intended_hit);
  EXPECT_TRUE(a.zero_false_positives);
}

TEST(SmpScorecard, CrossCoreDetectionCarriesCoreProvenance) {
  // End-to-end provenance: replay the cross-core syscall-stub scenario
  // against its intended detector with the flight recorder on.  The
  // captured trace must be v2, the tampering store must be recorded as
  // originating on core 1 (where the forked writer ran), and the run
  // must raise the intended alert.
  const AttackScenario* scenario = find_scenario("smp-cross-core-syscall-stub");
  ASSERT_NE(scenario, nullptr);
  fuzz::FuzzConfigSpec spec;
  for (const fuzz::FuzzConfigSpec& s : detector_configs()) {
    if (s.name == scenario->intended_detector) spec = s;
  }
  ASSERT_EQ(spec.name, scenario->intended_detector);
  spec.cores = 2;
  fuzz::ExecutorOptions exec_opt;
  exec_opt.capture_trace = true;
  const fuzz::RunResult run = fuzz::run_sequence(spec, scenario->ops, exec_opt);
  EXPECT_FALSE(run.alert_log.empty());

  sim::TraceData data;
  ASSERT_FALSE(run.trace_blob.empty());
  ASSERT_TRUE(sim::parse_trace(run.trace_blob, data).ok());
  EXPECT_EQ(data.version, 3u);
  bool core1_store = false;
  for (const sim::TraceEvent& e : data.events) {
    if (e.kind == sim::TraceKind::kBusWrite && e.core == 1) {
      core1_store = true;
    }
  }
  EXPECT_TRUE(core1_store);
}

TEST(SmpScorecard, FourCoreMatrixStaysPinned) {
  ScorecardOptions opt;
  opt.jobs = 4;
  opt.cores = 4;
  opt.trace_attribution = false;
  const Scorecard score = run_scorecard(opt);
  EXPECT_TRUE(score.all_intended_hit);
  EXPECT_TRUE(score.zero_false_positives);
  EXPECT_EQ(score.digest, kGoldenSmpQuadUntracedDigest) << score.json;
}

}  // namespace
}  // namespace hn::attacks
