// Campaign corpus-digest pins.
//
// The fuzz campaign's corpus digest folds every run's functional hash and
// cycle count, so it transitively witnesses the whole simulation's
// determinism contract: TLB replacement order, walk charges, bus traffic
// timing, oracle verdicts.  Two pins live here:
//
//   * the golden digests for the canonical quick campaign (--seed=1
//     --sequences=50) and a full-matrix one (--seed=3 --sequences=10
//     --matrix=full) — any change to simulated behaviour, intended or
//     not, shows up as a digest mismatch and must be justified;
//   * host-mode equality — the host fast path (DESIGN.md §9), snapshot
//     boot and metrics collection must each reproduce the digest
//     bit-for-bit, the strongest whole-system statement of "wall-clock
//     only".
#include <gtest/gtest.h>

#include "fuzz/fuzzer.h"
#include "sim/trace_report.h"

namespace hn::fuzz {
namespace {

/// The canonical quick campaign: `hypernel_fuzz --seed=1 --sequences=50`.
FuzzOptions canonical_options() {
  FuzzOptions opt;
  opt.seed = 1;
  opt.sequences = 50;
  opt.jobs = 0;  // hardware concurrency; job count never changes results
  return opt;
}

/// Golden digest of the canonical campaign.  If an intentional simulator
/// change moves it, re-pin by running:
///   ./build/tools/hypernel_fuzz --seed=1 --sequences=50
/// and copying the reported corpus digest — after explaining in the
/// commit message why the simulated behaviour was allowed to change.
constexpr u64 kGoldenDigest = 0x8b76ae7ed9b7c385ull;

TEST(CampaignDigest, GoldenQuickCampaign) {
  const CampaignResult r = run_campaign(canonical_options());
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.sequences_run, 50u);
  EXPECT_EQ(r.corpus_digest, kGoldenDigest);
}

/// Golden digest of `hypernel_fuzz --seed=3 --sequences=10 --matrix=full`.
/// Only the full matrix runs Hypernel with the cache off and with a 4 KiB
/// cache (the non-cacheable and write-back sides of the kPtAlloc zero
/// check) and with a 4-entry TLB.
constexpr u64 kGoldenFullMatrixDigest = 0x5907e4c507da93a0ull;

TEST(CampaignDigest, GoldenFullMatrixCampaign) {
  FuzzOptions opt;
  opt.seed = 3;
  opt.sequences = 10;
  opt.full_matrix = true;
  opt.jobs = 0;
  for (const bool fast_path : {true, false}) {
    opt.host_fast_path = fast_path;
    const CampaignResult r = run_campaign(opt);
    EXPECT_EQ(r.failures, 0u) << "fast path " << fast_path;
    EXPECT_EQ(r.corpus_digest, kGoldenFullMatrixDigest)
        << "fast path " << fast_path;
  }
}

TEST(CampaignDigest, ReferenceModeIsBitIdentical) {
  FuzzOptions opt = canonical_options();
  opt.host_fast_path = false;
  const CampaignResult r = run_campaign(opt);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.corpus_digest, kGoldenDigest);
}

TEST(CampaignDigest, MetricsCollectionIsBitIdentical) {
  // Metrics runs bind the span tracer to the cycle counter and boot with
  // the registry on; charging is exact either way, so collecting metrics
  // must leave every result on the golden digest.
  FuzzOptions opt = canonical_options();
  opt.collect_metrics = true;
  const CampaignResult r = run_campaign(opt);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.corpus_digest, kGoldenDigest);
  EXPECT_FALSE(r.metrics.entries.empty());  // the registry really ran
}

TEST(CampaignDigest, ProfileCaptureNeverPerturbsResults) {
  // --profile reads host wall clock only; digests must not move, and the
  // report must actually attribute time (step scopes fire every run).
  FuzzOptions opt;
  opt.seed = 7;
  opt.sequences = 6;
  opt.jobs = 1;
  FuzzOptions plain = opt;
  opt.profile = true;
  const CampaignResult a = run_campaign(opt);
  const CampaignResult b = run_campaign(plain);
  EXPECT_EQ(a.corpus_digest, b.corpus_digest);
  EXPECT_GT(a.profile[obs::Layer::kFuzzStep].scopes, 0u);
  EXPECT_GT(a.profile[obs::Layer::kFuzzStep].self_ns, 0u);
  EXPECT_GT(a.profile[obs::Layer::kFuzzStep].self_cycles, 0u);
  EXPECT_GT(a.profile[obs::Layer::kFuzzBoot].self_ns, 0u);
  EXPECT_EQ(b.profile.total_ns(), 0u);  // off by default: nothing recorded
}

TEST(CampaignDigest, ProfileCoversTheCampaignWall) {
  // At --jobs=1 the campaign runs one sequence after another, so the host
  // column must account for the whole `exec: wall=`: every run's layers,
  // the determinism re-runs, and each sequence's uncovered rest.
  FuzzOptions opt;
  opt.seed = 1;
  opt.sequences = 10;
  opt.jobs = 1;
  opt.profile = true;
  const CampaignResult r = run_campaign(opt);
  const double profile_ms = static_cast<double>(r.profile.total_ns()) / 1e6;
  EXPECT_NEAR(profile_ms, r.exec.wall_ms, 0.01 * r.exec.wall_ms)
      << "profile total " << profile_ms << " ms, exec wall "
      << r.exec.wall_ms << " ms";
}

TEST(CampaignDigest, CapturedTraceIsJobsIndependent) {
  // The flight recorder piggybacks on deterministic reruns, so the
  // campaign trace blob — and everything rendered from it — must be
  // byte-identical at any worker count, like the digests it rides with.
  FuzzOptions one;
  one.seed = 7;
  one.sequences = 6;
  one.jobs = 1;
  one.capture_trace = true;
  FuzzOptions four = one;
  four.jobs = 4;
  const CampaignResult a = run_campaign(one);
  const CampaignResult b = run_campaign(four);
  EXPECT_EQ(a.corpus_digest, b.corpus_digest);
  ASSERT_FALSE(a.trace_blob.empty());
  EXPECT_EQ(a.trace_blob, b.trace_blob);

  sim::TraceData da, db;
  ASSERT_TRUE(sim::parse_trace(a.trace_blob, da).ok());
  ASSERT_TRUE(sim::parse_trace(b.trace_blob, db).ok());
  EXPECT_EQ(sim::render_attribution(sim::build_attribution(da), da.cpu_ghz),
            sim::render_attribution(sim::build_attribution(db), db.cpu_ghz));

  // Capture itself never perturbs results: same campaign without it.
  FuzzOptions plain = one;
  plain.capture_trace = false;
  EXPECT_EQ(run_campaign(plain).corpus_digest, a.corpus_digest);
}

TEST(CampaignDigest, FastVsReferencePerSequence) {
  // Smaller campaign, but compared digest-by-digest so a divergence names
  // the exact sequence index instead of only folding into the corpus.
  FuzzOptions fast;
  fast.seed = 7;
  fast.sequences = 8;
  fast.jobs = 0;
  FuzzOptions ref = fast;
  ref.host_fast_path = false;
  const CampaignResult a = run_campaign(fast);
  const CampaignResult b = run_campaign(ref);
  EXPECT_EQ(a.failures, 0u);
  EXPECT_EQ(b.failures, 0u);
  ASSERT_EQ(a.sequence_digests.size(), b.sequence_digests.size());
  for (size_t i = 0; i < a.sequence_digests.size(); ++i) {
    EXPECT_EQ(a.sequence_digests[i], b.sequence_digests[i]) << "sequence " << i;
  }
  EXPECT_EQ(a.corpus_digest, b.corpus_digest);
}

}  // namespace
}  // namespace hn::fuzz
