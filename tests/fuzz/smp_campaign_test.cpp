// SMP campaign-digest pins (DESIGN.md §15).
//
// The whole-system determinism argument for the N-core machine is the
// same one the single-core simulator makes: the corpus digest folds every
// run's functional hash and cycle count, so a golden digest per core
// count witnesses the scheduler's placement decisions, the shared-bus
// arbitration and contention charges, spinlock ping-pong costs, IPI
// delivery instants, and the interleaved write stream the MBM snoops.
//
// Three pins, harvested from
//   ./build/tools/hypernel_fuzz --seed=1 --sequences=20 --ops=40
//       --attack-seeds --cores=N
// and each invariant across --jobs and --reference.
// The cores=1 pin proves the SMP machinery is inert on a single core:
// this campaign predates the SMP work, and its digest did not move.
#include <gtest/gtest.h>

#include "attacks/scenario.h"
#include "fuzz/fuzzer.h"

namespace hn::fuzz {
namespace {

FuzzOptions smp_options(unsigned cores) {
  FuzzOptions opt;
  opt.seed = 1;
  opt.sequences = 20;
  opt.ops = 40;
  opt.extended_attacks = true;
  opt.scenario_pool = attacks::scenario_pool();
  opt.jobs = 0;  // hardware concurrency; job count never changes results
  opt.cores = cores;
  return opt;
}

constexpr u64 kGoldenSingleCore = 0x43e34a78e0db95abull;
constexpr u64 kGoldenDualCore = 0x104beefc68c11611ull;
constexpr u64 kGoldenQuadCore = 0x9f843250cef9cc6bull;

TEST(SmpCampaign, SingleCoreDigestIsPreSmp) {
  const CampaignResult r = run_campaign(smp_options(1));
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.sequences_run, 20u);
  EXPECT_EQ(r.corpus_digest, kGoldenSingleCore);
}

TEST(SmpCampaign, DualCoreGoldenDigest) {
  const CampaignResult r = run_campaign(smp_options(2));
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.corpus_digest, kGoldenDualCore);
}

TEST(SmpCampaign, QuadCoreGoldenDigest) {
  const CampaignResult r = run_campaign(smp_options(4));
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.corpus_digest, kGoldenQuadCore);
}

TEST(SmpCampaign, DualCoreJobsInvariant) {
  FuzzOptions serial = smp_options(2);
  serial.jobs = 1;
  const CampaignResult r = run_campaign(serial);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.corpus_digest, kGoldenDualCore);
}

TEST(SmpCampaign, QuadCoreReferenceModeInvariant) {
  // The host fast path must reproduce the SMP digest bit-for-bit, like
  // it does the single-core one.
  FuzzOptions opt = smp_options(4);
  opt.host_fast_path = false;
  const CampaignResult r = run_campaign(opt);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.corpus_digest, kGoldenQuadCore);
}

}  // namespace
}  // namespace hn::fuzz
