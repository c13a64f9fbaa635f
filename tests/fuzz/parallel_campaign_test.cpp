// Cross-thread determinism regression test (ISSUE 2 satellite): a fuzz
// campaign must produce identical per-sequence verdicts, per-sequence
// digests, failure details and summary counts at any --jobs value.
//
// This is the load-bearing property of the execution layer port: if a
// worker ever leaked state into a sibling's universe (shared sim state,
// a stray global, an order-dependent merge), these comparisons break
// before any user sees a nondeterministic campaign.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fuzz/fuzzer.h"

namespace hn::fuzz {
namespace {

FuzzOptions base_options(unsigned jobs) {
  FuzzOptions options;
  options.seed = 1;
  options.sequences = 10;  // one progress checkpoint, ~2s per campaign
  options.jobs = jobs;
  return options;
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.sequences_run, b.sequences_run);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.corpus_digest, b.corpus_digest);
  EXPECT_EQ(a.sequence_verdicts, b.sequence_verdicts);
  EXPECT_EQ(a.sequence_digests, b.sequence_digests);
  ASSERT_EQ(a.failure_details.size(), b.failure_details.size());
  for (size_t i = 0; i < a.failure_details.size(); ++i) {
    const SequenceFailure& fa = a.failure_details[i];
    const SequenceFailure& fb = b.failure_details[i];
    EXPECT_EQ(fa.index, fb.index);
    EXPECT_EQ(fa.sequence_seed, fb.sequence_seed);
    EXPECT_EQ(fa.findings, fb.findings);
    EXPECT_EQ(fa.ops.size(), fb.ops.size());
    EXPECT_EQ(fa.trace_step, fb.trace_step);
    EXPECT_EQ(fa.trace, fb.trace);
    EXPECT_EQ(fa.replay, fb.replay);
  }
}

TEST(ParallelCampaign, CleanCampaignIdenticalAcrossJobCounts) {
  std::ostringstream log1, log4;
  const CampaignResult j1 = run_campaign(base_options(1), &log1);
  const CampaignResult j4 = run_campaign(base_options(4), &log4);
  EXPECT_TRUE(j1.ok());
  EXPECT_TRUE(j4.ok());
  expect_identical(j1, j4);
  // The log stream — progress lines included — is byte-identical too.
  EXPECT_EQ(log1.str(), log4.str());
  EXPECT_EQ(j1.sequence_digests.size(), 10u);
  EXPECT_EQ(j4.exec.jobs, 4u);
  ASSERT_EQ(j4.exec.workers.size(), 4u);
  u64 worker_jobs = 0;
  for (const auto& w : j4.exec.workers) worker_jobs += w.jobs;
  EXPECT_EQ(worker_jobs, 10u);
}

TEST(ParallelCampaign, MetricsSnapshotIdenticalAcrossJobCounts) {
  // The observability fold is index-ordered and every per-entry merge is
  // commutative, so the campaign's aggregated metrics snapshot must be
  // bit-identical at any --jobs value — same entries, same values, same
  // histogram buckets.
  FuzzOptions options1 = base_options(1);
  options1.collect_metrics = true;
  FuzzOptions options4 = base_options(4);
  options4.collect_metrics = true;

  const CampaignResult j1 = run_campaign(options1);
  const CampaignResult j4 = run_campaign(options4);
  expect_identical(j1, j4);
  ASSERT_FALSE(j1.metrics.entries.empty());
  EXPECT_EQ(j1.metrics, j4.metrics);
  // The snapshot actually saw the simulation: every universe translates.
  EXPECT_GT(j1.metrics.rollup("sim.mmu"), 0u);
  EXPECT_GT(j1.metrics.value("kernel.syscalls"), 0u);
}

TEST(ParallelCampaign, AutoJobsMatchesSequential) {
  // jobs = 0 resolves to hardware concurrency — whatever that is on the
  // host, results must not move.
  const CampaignResult j1 = run_campaign(base_options(1));
  const CampaignResult jauto = run_campaign(base_options(0));
  expect_identical(j1, jauto);
  EXPECT_GE(jauto.exec.jobs, 1u);
}

TEST(ParallelCampaign, BypassFailuresIdenticalAcrossJobCounts) {
  // Failing campaigns are the hard case: shrinking and trace capture
  // re-run sequences on the merging thread, and failure details must
  // come out identical at any job count.
  std::ostringstream log1, log4;
  FuzzOptions options1 = base_options(1);
  options1.sequences = 5;
  options1.inject_bypass = true;
  FuzzOptions options4 = base_options(4);
  options4.sequences = 5;
  options4.inject_bypass = true;

  const CampaignResult j1 = run_campaign(options1, &log1);
  const CampaignResult j4 = run_campaign(options4, &log4);
  ASSERT_GT(j1.failures, 0u);
  expect_identical(j1, j4);
  EXPECT_EQ(log1.str(), log4.str());
}

TEST(ParallelCampaign, FailFastReportsTheLowestFailingSequence) {
  // With fail-fast, both the sequential and the 4-worker campaign must
  // stop on the *same* (lowest-index) failure: the FIFO prefix property
  // guarantees every lower index completed.
  FuzzOptions options1 = base_options(1);
  options1.inject_bypass = true;
  options1.fail_fast = true;
  FuzzOptions options4 = base_options(4);
  options4.inject_bypass = true;
  options4.fail_fast = true;

  const CampaignResult j1 = run_campaign(options1);
  const CampaignResult j4 = run_campaign(options4);
  ASSERT_EQ(j1.failures, 1u);
  ASSERT_EQ(j4.failures, 1u);
  ASSERT_EQ(j1.failure_details.size(), 1u);
  ASSERT_EQ(j4.failure_details.size(), 1u);
  EXPECT_EQ(j1.failure_details[0].index, j4.failure_details[0].index);
  EXPECT_EQ(j1.failure_details[0].sequence_seed,
            j4.failure_details[0].sequence_seed);
  EXPECT_EQ(j1.sequences_run, j4.sequences_run);
}

}  // namespace
}  // namespace hn::fuzz
