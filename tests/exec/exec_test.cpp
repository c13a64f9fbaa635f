// Unit tests for the execution layer (src/exec): the deterministic
// ShardedRunner.
//
// The property the rest of the repo leans on is pinned here from every
// angle: for any worker count and any (adversarially randomized)
// per-job duration, run_sharded's slot array is byte-identical to the
// plain sequential loop.  Scheduling may change wall-clock, never
// results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/sharded_runner.h"

namespace hn::exec {
namespace {

// --- ShardedRunner --------------------------------------------------------

/// A result whose value depends only on the index; the simulated work
/// burns a duration randomized *by index* so re-runs hit the same
/// adversarial schedule shape while staying reproducible.
u64 noisy_cell(u64 i) {
  SplitMix64 rng(i * 0x9E3779B97F4A7C15ull + 1);
  const u64 spin = rng.next_below(200);
  volatile u64 sink = 0;
  for (u64 k = 0; k < spin * 50; ++k) sink = sink + k;
  if (spin % 7 == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(spin));
  }
  return rng.next();
}

u64 total_worker_jobs(const ShardReport& report) {
  u64 jobs = 0;
  for (const WorkerStats& s : report.workers) jobs += s.jobs;
  return jobs;
}

TEST(ShardedRunner, DefaultParallelismIsAtLeastOne) {
  EXPECT_GE(default_parallelism(), 1u);
}

TEST(ShardedRunner, MatchesSequentialLoopForRandomizedDurations) {
  constexpr u64 kN = 64;
  std::vector<u64> expected(kN);
  for (u64 i = 0; i < kN; ++i) expected[i] = noisy_cell(i);

  for (const unsigned jobs : {1u, 2u, 4u, 7u}) {
    ShardOptions opt;
    opt.jobs = jobs;
    ShardReport report;
    const std::vector<u64> got =
        run_sharded<u64>(kN, noisy_cell, opt, &report);
    EXPECT_EQ(got, expected) << "jobs=" << jobs;
    EXPECT_EQ(report.jobs, jobs);
    EXPECT_EQ(report.indices_total, kN);
    EXPECT_EQ(report.indices_run, kN);
    EXPECT_EQ(report.indices_skipped, 0u);
    EXPECT_FALSE(report.cancelled);
  }
}

TEST(ShardedRunner, OversubscriptionJobsFarExceedWorkers) {
  // 500 cells through 3 workers: every index is claimed exactly once.
  constexpr u64 kN = 500;
  ShardOptions opt;
  opt.jobs = 3;
  ShardReport report;
  const std::vector<u64> got = run_sharded<u64>(
      kN, [](u64 i) { return i * i + 1; }, opt, &report);
  ASSERT_EQ(got.size(), kN);
  for (u64 i = 0; i < kN; ++i) EXPECT_EQ(got[i], i * i + 1);
  EXPECT_EQ(report.indices_run, kN);
  EXPECT_EQ(report.workers.size(), 3u);
  EXPECT_EQ(total_worker_jobs(report), kN);
}

TEST(ShardedRunner, MoreWorkersThanIndices) {
  // Eight workers race for three indices: each index runs once, the
  // idle workers report zero jobs, and the report keeps all eight.
  ShardOptions opt;
  opt.jobs = 8;
  ShardReport report;
  const std::vector<u64> got = run_sharded<u64>(
      3, [](u64 i) { return i + 7; }, opt, &report);
  EXPECT_EQ(got, (std::vector<u64>{7, 8, 9}));
  EXPECT_EQ(report.jobs, 8u);
  EXPECT_EQ(report.indices_run, 3u);
  EXPECT_EQ(report.indices_skipped, 0u);
  EXPECT_EQ(report.workers.size(), 8u);
  EXPECT_EQ(total_worker_jobs(report), 3u);
}

TEST(ShardedRunner, EmptyRangeIsANoOp) {
  ShardOptions opt;
  opt.jobs = 4;
  const std::vector<int> got =
      run_sharded<int>(0, [](u64) { return 1; }, opt);
  EXPECT_TRUE(got.empty());
}

TEST(ShardedRunner, ExceptionPropagatesWithLowestObservedIndex) {
  for (const unsigned jobs : {1u, 4u}) {
    ShardOptions opt;
    opt.jobs = jobs;
    try {
      (void)run_sharded<u64>(
          32,
          [](u64 i) -> u64 {
            if (i % 2 == 1) throw std::runtime_error(std::to_string(i));
            return i;
          },
          opt);
      FAIL() << "expected run_sharded to rethrow (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      // A throw cancels only the indices above it, so index 1 always
      // runs and its exception is the one rethrown at any job count.
      EXPECT_EQ(std::stoull(e.what()), 1u) << "jobs=" << jobs;
    }
  }
}

TEST(ShardedRunner, ThrowingPredicateIsRethrownLikeFn) {
  // The failure predicate runs inside the same try as fn: a throw there
  // lowers the token and is rethrown after every worker has joined,
  // lowest throwing index first.
  const auto failed = [](const u64& v) -> bool {
    if (v % 8 == 5) throw std::runtime_error(std::to_string(v));
    return false;
  };
  for (const unsigned jobs : {1u, 4u}) {
    ShardOptions opt;
    opt.jobs = jobs;
    opt.fail_fast = true;
    try {
      (void)run_sharded<u64>(32, [](u64 i) { return i; }, failed, opt);
      FAIL() << "expected run_sharded to rethrow (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::stoull(e.what()), 5u) << "jobs=" << jobs;
    }
  }
}

TEST(ShardedRunner, FailFastSequentialStopsAtFirstFailure) {
  constexpr u64 kN = 40;
  ShardOptions opt;
  opt.jobs = 1;
  opt.fail_fast = true;
  ShardReport report;
  const std::vector<u64> got = run_sharded<u64>(
      kN, [](u64 i) { return i; }, [](const u64& v) { return v == 11; }, opt,
      &report);
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.indices_run, 12u);  // 0..11 inclusive
  EXPECT_EQ(report.indices_skipped, kN - 12);
  EXPECT_EQ(got[11], 11u);
}

TEST(ShardedRunner, FailFastParallelCoversEveryIndexBelowTheFailure) {
  // Indices below the lowest failing one always have valid results, at
  // any worker count.  Cells above the failure wait until it has been
  // seen and then take a millisecond, so when the token drops each other
  // worker holds at most one of them, and the indices claimed after it
  // are skipped, whatever the host's load.
  constexpr u64 kN = 64;
  constexpr u64 kFail = 23;
  ShardOptions opt;
  opt.jobs = 4;
  opt.fail_fast = true;
  std::atomic<bool> seen{false};
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  const auto cell = [&](u64 i) {
    if (i > kFail) {
      while (!seen.load() && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return i + 1000;
  };
  const auto failed = [&](const u64& v) {
    if (v == kFail + 1000) seen.store(true);
    return v == kFail + 1000;
  };
  ShardReport report;
  const std::vector<u64> got = run_sharded<u64>(kN, cell, failed, opt, &report);
  EXPECT_TRUE(report.cancelled);
  for (u64 i = 0; i <= kFail; ++i) {
    EXPECT_EQ(got[i], i + 1000) << "index " << i;
  }
  EXPECT_EQ(report.indices_run + report.indices_skipped, kN);
  EXPECT_LT(report.indices_run, kN);  // cancellation actually bit
}

TEST(ShardedRunner, FailFastNeverSkipsAnIndexBelowAnInstantFailure) {
  // The cell just below the failing one stalls until the failure has
  // been seen, so the instant failure always lands while a lower index
  // is still running.  That index lies below the failure: its result
  // must be kept, and so must every other one below the failure.
  constexpr u64 kN = 200;
  constexpr u64 kFail = 100;
  ShardOptions opt;
  opt.jobs = 4;
  opt.fail_fast = true;
  for (int round = 0; round < 200; ++round) {
    std::atomic<bool> seen{false};
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    const std::vector<u64> got = run_sharded<u64>(
        kN,
        [&](u64 i) {
          while (i == kFail - 1 && !seen.load() &&
                 std::chrono::steady_clock::now() < give_up) {
            std::this_thread::yield();
          }
          return i + 1;
        },
        [&](const u64& v) {
          if (v == kFail + 1) seen.store(true);
          return v == kFail + 1;
        },
        opt);
    for (u64 i = 0; i <= kFail; ++i) {
      ASSERT_EQ(got[i], i + 1) << "round " << round << " index " << i;
    }
  }
}

TEST(ShardedRunner, ReportsPerRunWorkerStats) {
  ShardOptions opt;
  opt.jobs = 2;
  ShardReport report;
  (void)run_sharded<u64>(20, [](u64 i) { return i; }, opt, &report);
  EXPECT_EQ(report.jobs, 2u);
  ASSERT_EQ(report.workers.size(), 2u);
  EXPECT_GT(report.wall_ms, 0.0);
  EXPECT_EQ(total_worker_jobs(report), 20u);
}

}  // namespace
}  // namespace hn::exec
