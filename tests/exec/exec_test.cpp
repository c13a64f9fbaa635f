// Unit tests for the execution layer (src/exec): the bounded MPMC
// queue, the worker pool, and the deterministic ShardedRunner.
//
// The property the rest of the repo leans on is pinned here from every
// angle: for any worker count, any shard size, and any (adversarially
// randomized) per-job duration, run_sharded's slot array is
// byte-identical to the plain sequential loop.  Scheduling may change
// wall-clock, never results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <semaphore>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/queue.h"
#include "exec/sharded_runner.h"
#include "exec/thread_pool.h"

namespace hn::exec {
namespace {

// --- BoundedMpmcQueue -----------------------------------------------------

TEST(BoundedMpmcQueue, FifoOrderSingleConsumer) {
  BoundedMpmcQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 4; ++i) {
    const std::optional<int> v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedMpmcQueue, CloseDrainsAcceptedItemsThenFails) {
  BoundedMpmcQueue<int> q(8);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // closed: rejected
  EXPECT_EQ(q.pop().value(), 1);  // accepted items still drain
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());  // closed and empty
}

TEST(BoundedMpmcQueue, CloseWakesBlockedConsumer) {
  BoundedMpmcQueue<int> q(2);
  std::optional<int> got = 42;
  std::thread consumer([&] { got = q.pop(); });  // blocks: queue empty
  q.close();
  consumer.join();
  EXPECT_FALSE(got.has_value());
}

TEST(BoundedMpmcQueue, FullQueueBlocksProducerUntilPop) {
  BoundedMpmcQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // blocks until the pop below
    second_pushed.store(true);
  });
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedMpmcQueue, DrainDiscardsQueuedItems) {
  BoundedMpmcQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  EXPECT_EQ(q.drain(), 5u);
  EXPECT_EQ(q.size(), 0u);
}

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedJobBeforeClose) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(pool.submit([&] { ran.fetch_add(1); }));
    }
    pool.close();  // drains the queue, then joins
    EXPECT_EQ(ran.load(), 100);
  }
}

TEST(ThreadPool, DestructorDrainsOutstandingJobs) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&] { ran.fetch_add(1); });
  }  // ~ThreadPool == close()
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, SubmitAfterCloseIsRejected) {
  ThreadPool pool(1);
  pool.close();
  EXPECT_FALSE(pool.submit([] {}));
}

TEST(ThreadPool, CancelDiscardsQueuedButNotRunningJobs) {
  // One worker, parked on a semaphore; ten more jobs queued behind it.
  // cancel() must drop exactly the queued ten, let the running job
  // finish, and reject later submits.
  std::binary_semaphore started{0};
  std::binary_semaphore release{0};
  std::atomic<int> ran{0};
  ThreadPool pool(1, /*queue_capacity=*/32);
  pool.submit([&] {
    started.release();
    release.acquire();
    ran.fetch_add(1);
  });
  started.acquire();  // the blocker is running, not queued
  for (int i = 0; i < 10; ++i) pool.submit([&] { ran.fetch_add(1); });

  size_t dropped = 0;
  std::thread canceller([&] { dropped = pool.cancel(); });
  // Hold the blocker until cancel() has actually discarded the queue —
  // otherwise the worker could race ahead and run the queued jobs.
  while (!pool.cancelled() || pool.pending() != 0) {
    std::this_thread::yield();
  }
  release.release();  // cancel() joins only after the blocker finishes
  canceller.join();

  EXPECT_EQ(dropped, 10u);
  EXPECT_EQ(ran.load(), 1);  // the running job completed, nothing else
  EXPECT_TRUE(pool.cancelled());
  EXPECT_FALSE(pool.submit([&] { ran.fetch_add(1); }));
}

TEST(ThreadPool, JobExceptionIsCapturedAndWorkerSurvives) {
  std::atomic<int> ran{0};
  ThreadPool pool(1);
  pool.submit([] { throw std::runtime_error("job blew up"); });
  pool.submit([&] { ran.fetch_add(1); });  // same worker keeps going
  pool.close();
  EXPECT_EQ(ran.load(), 1);
  std::exception_ptr err = pool.take_exception();
  ASSERT_TRUE(err != nullptr);
  EXPECT_THROW(std::rethrow_exception(err), std::runtime_error);
  EXPECT_TRUE(pool.take_exception() == nullptr);  // taken exactly once
}

TEST(ThreadPool, StatsAccountEveryJob) {
  ThreadPool pool(3);
  for (int i = 0; i < 30; ++i) {
    pool.submit([] { std::this_thread::sleep_for(std::chrono::microseconds(100)); });
  }
  pool.close();
  const std::vector<WorkerStats> stats = pool.stats();
  ASSERT_EQ(stats.size(), 3u);
  u64 total = 0;
  for (const WorkerStats& s : stats) total += s.jobs;
  EXPECT_EQ(total, 30u);
}

TEST(ThreadPool, DefaultParallelismIsAtLeastOne) {
  EXPECT_GE(ThreadPool::default_parallelism(), 1u);
}

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

TEST(ShardedRunner, MatchesSequentialLoopForRandomizedDurations) {
  constexpr u64 kN = 64;
  std::vector<u64> expected(kN);
  for (u64 i = 0; i < kN; ++i) expected[i] = noisy_cell(i);

  for (const unsigned jobs : {1u, 2u, 4u, 7u}) {
    for (const u64 shard : {u64{1}, u64{3}, u64{16}}) {
      ShardOptions opt;
      opt.jobs = jobs;
      opt.shard_size = shard;
      ShardReport report;
      const std::vector<u64> got =
          run_sharded<u64>(kN, noisy_cell, opt, &report);
      EXPECT_EQ(got, expected) << "jobs=" << jobs << " shard=" << shard;
      EXPECT_EQ(report.indices_total, kN);
      EXPECT_EQ(report.indices_run, kN);
      EXPECT_EQ(report.indices_skipped, 0u);
      EXPECT_FALSE(report.cancelled);
    }
  }
}

TEST(ShardedRunner, OversubscriptionJobsFarExceedWorkers) {
  // 500 cells through 3 workers with a 2x-worker queue bound: the
  // submitting thread must backpressure, not balloon or deadlock.
  constexpr u64 kN = 500;
  ShardOptions opt;
  opt.jobs = 3;
  ShardReport report;
  const std::vector<u64> got = run_sharded<u64>(
      kN, [](u64 i) { return i * i + 1; }, opt, &report);
  ASSERT_EQ(got.size(), kN);
  for (u64 i = 0; i < kN; ++i) EXPECT_EQ(got[i], i * i + 1);
  EXPECT_EQ(report.indices_run, kN);
  u64 worker_jobs = 0;
  for (const WorkerStats& s : report.workers) worker_jobs += s.jobs;
  EXPECT_EQ(worker_jobs, kN);  // shard_size 1: one pool job per index
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
  // any worker count.  Eight shards of eight on four workers: the failing
  // index ends the third shard, so the last shards start only after the
  // failure, whatever the host's load.
  constexpr u64 kN = 64;
  constexpr u64 kFail = 23;
  ShardOptions opt;
  opt.jobs = 4;
  opt.shard_size = 8;
  opt.fail_fast = true;
  ShardReport report;
  const std::vector<u64> got = run_sharded<u64>(
      kN,
      [](u64 i) {
        // Enough per-cell work that cancellation lands well before the
        // tail of the range is reached.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return i + 1000;
      },
      [](const u64& v) { return v == kFail + 1000; }, opt, &report);
  EXPECT_TRUE(report.cancelled);
  for (u64 i = 0; i <= kFail; ++i) {
    EXPECT_EQ(got[i], i + 1000) << "index " << i;
  }
  EXPECT_EQ(report.indices_run + report.indices_skipped, kN);
  EXPECT_LT(report.indices_run, kN);  // cancellation actually bit
}

TEST(ShardedRunner, FailFastNeverSkipsAnIndexBelowAnInstantFailure) {
  // The shard just below the failing one stalls on its first cell until
  // the failure has been seen, so the instant failure always lands while
  // the rest of that shard waits to run.  Those cells lie below the
  // failure and must still run.
  constexpr u64 kN = 200;
  constexpr u64 kFail = 100;
  constexpr u64 kShard = 4;
  ShardOptions opt;
  opt.jobs = 4;
  opt.shard_size = kShard;
  opt.fail_fast = true;
  for (int round = 0; round < 200; ++round) {
    std::atomic<bool> seen{false};
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    const std::vector<u64> got = run_sharded<u64>(
        kN,
        [&](u64 i) {
          while (i == kFail - kShard && !seen.load() &&
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
  ASSERT_EQ(report.workers.size(), 2u);
  EXPECT_GT(report.wall_ms, 0.0);
  u64 jobs = 0;
  for (const WorkerStats& s : report.workers) jobs += s.jobs;
  EXPECT_EQ(jobs, 20u);
}

}  // namespace
}  // namespace hn::exec
