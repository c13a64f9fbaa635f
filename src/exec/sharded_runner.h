// ShardedRunner: deterministic fan-out of an index space [0, N).
//
// The determinism contract (DESIGN.md §8): every index is an independent
// universe — the caller's `fn(index)` builds whatever state it needs
// (one sim::Machine per job, no shared mutable simulation state) and
// returns a value that is a pure function of the index.  The runner
// writes each result into a pre-sized slot array at its own index, so
// the merged output is byte-identical to the sequential loop
//
//   for (u64 i = 0; i < n; ++i) out[i] = fn(i);
//
// regardless of worker count, scheduling order, or machine load.
// Parallelism changes wall-clock only, never results.
//
// Fan-out: `jobs` threads each claim the next index from one atomic
// cursor (one fetch_add) until the range is exhausted, so a free worker
// always takes the lowest index nobody has claimed yet.
//
// Cooperative cancellation: with `fail_fast`, the shared token holds the
// lowest index seen so far whose result satisfies `failed`, and a worker
// skips an index only when it lies above the token (a skipped slot keeps
// the default-constructed value and is counted in `indices_skipped`).
// The token only moves down, so every index below the lowest failing one
// is guaranteed to have a valid result, whatever the scheduling.
//
// Exceptions: if `fn` or `failed` throws, the index lowers the same
// token, so the remaining work above it is cancelled and every index
// below it still runs.  The runner rethrows the exception of the lowest
// throwing index after every worker has joined.  No result is partially
// merged.
#pragma once

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "common/types.h"

namespace hn::exec {

/// std::thread::hardware_concurrency(), clamped to at least 1.
[[nodiscard]] inline unsigned default_parallelism() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

struct ShardOptions {
  /// Worker threads; 0 = default_parallelism().  With 1 the runner
  /// degenerates to the plain sequential loop on the calling thread.
  unsigned jobs = 1;
  /// Stop scheduling new indices once any result satisfies `failed`.
  bool fail_fast = false;
};

/// One worker's share of a parallel run.
struct WorkerStats {
  u64 jobs = 0;     // indices evaluated (including ones that threw)
  u64 busy_ns = 0;  // wall-time spent inside fn and failed
};

struct ShardReport {
  unsigned jobs = 1;  // resolved worker count
  u64 indices_total = 0;
  u64 indices_run = 0;
  u64 indices_skipped = 0;  // skipped by fail-fast/exception cancellation
  bool cancelled = false;
  double wall_ms = 0;
  /// Per-worker counters for this run (empty when run sequentially).
  std::vector<WorkerStats> workers;
};

/// Run `fn(i)` for every i in [0, n), results in index order.  `failed`
/// maps a result to "this index failed" for fail-fast.  Result must be
/// default-constructible (skipped slots keep the default value).
template <typename Result, typename Fn, typename FailFn>
  requires std::is_invocable_r_v<bool, FailFn&, const Result&>
std::vector<Result> run_sharded(u64 n, Fn&& fn, FailFn&& failed,
                                const ShardOptions& opt = {},
                                ShardReport* report = nullptr) {
  std::vector<Result> results(n);
  ShardReport local;
  local.indices_total = n;
  Stopwatch watch;

  const unsigned jobs = opt.jobs == 0 ? default_parallelism() : opt.jobs;
  local.jobs = jobs;
  if (jobs == 1 || n <= 1) {
    for (u64 i = 0; i < n; ++i) {
      results[i] = fn(i);
      ++local.indices_run;
      if (opt.fail_fast && failed(results[i])) {
        local.cancelled = true;
        local.indices_skipped = n - i - 1;
        break;
      }
    }
    local.wall_ms = watch.elapsed_ms();
    if (report != nullptr) *report = local;
    return results;
  }

  constexpr u64 kNone = ~0ull;
  std::atomic<u64> cursor{0};          // the next unclaimed index
  std::atomic<u64> stop_above{kNone};  // the lowest failing index
  auto lower_stop = [&stop_above](u64 i) {
    u64 cur = stop_above.load(std::memory_order_relaxed);
    while (i < cur) {
      if (stop_above.compare_exchange_weak(cur, i)) break;
    }
  };
  std::atomic<u64> run_count{0};

  std::mutex err_mu;
  std::exception_ptr first_err;
  u64 first_err_index = kNone;

  local.workers.resize(jobs);
  {
    std::vector<std::jthread> workers;
    workers.reserve(jobs);
    for (WorkerStats& stats : local.workers) {
      workers.emplace_back([&, worker = &stats] {
        for (u64 i = cursor.fetch_add(1); i < n; i = cursor.fetch_add(1)) {
          if (i > stop_above.load(std::memory_order_acquire)) continue;
          Stopwatch busy;
          try {
            results[i] = fn(i);
            if (opt.fail_fast && failed(results[i])) lower_stop(i);
            run_count.fetch_add(1, std::memory_order_relaxed);
          } catch (...) {
            std::lock_guard lock(err_mu);
            if (!first_err || i < first_err_index) {
              first_err = std::current_exception();
              first_err_index = i;
            }
            lower_stop(i);
          }
          ++worker->jobs;
          worker->busy_ns += busy.elapsed_ns();
        }
      });
    }
  }  // every jthread joins here

  local.indices_run = run_count.load(std::memory_order_relaxed);
  local.indices_skipped = n - local.indices_run;  // cancelled or threw
  local.cancelled = stop_above.load(std::memory_order_relaxed) != kNone;
  local.wall_ms = watch.elapsed_ms();
  if (report != nullptr) *report = local;
  if (first_err) std::rethrow_exception(first_err);
  return results;
}

/// Convenience overload: no failure predicate (fail_fast inert).
template <typename Result, typename Fn>
std::vector<Result> run_sharded(u64 n, Fn&& fn, const ShardOptions& opt = {},
                                ShardReport* report = nullptr) {
  return run_sharded<Result>(
      n, std::forward<Fn>(fn), [](const Result&) { return false; }, opt,
      report);
}

}  // namespace hn::exec
