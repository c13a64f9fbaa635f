// Extension bench (beyond the paper's tables): the *full-stack* cost of
// Hypernel — isolation AND live word-granularity monitoring together —
// on the LMbench rows plus the lat_ctx / bandwidth extensions.
//
// The paper evaluates isolation (§7.1, MBM detached) separately from
// monitoring efficiency (§7.2, counts only).  A deployer wants the
// combined number: what do kernel operations cost while the cred/dentry
// monitor is armed?  Monitored slab pages are non-cacheable, so paths
// that touch dentries (stat, fork's cred bump) pay real bus latency.
#include <cstdio>

#include "bench/bench_common.h"
#include "secapps/object_monitor.h"
#include "workloads/lmbench.h"

namespace {

using namespace hn;

std::vector<workloads::LmbenchResult> run(bool monitored) {
  hypernel::SystemConfig cfg;
  cfg.mode = hypernel::Mode::kHypernel;
  cfg.enable_mbm = monitored;
  auto sys = hn::bench::make_system(cfg);
  std::unique_ptr<secapps::ObjectIntegrityMonitor> monitor;
  if (monitored) {
    monitor = std::make_unique<secapps::ObjectIntegrityMonitor>(
        *sys, secapps::Granularity::kSensitiveFields);
    if (!monitor->install().ok()) std::abort();
  }
  workloads::LmbenchSuite suite(*sys, 32);
  auto results = suite.run_all();
  results.push_back(suite.context_switch());
  results.push_back(suite.memory_bandwidth());
  hn::bench::record_cell(monitored ? 1 : 0, *sys);
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  hn::bench::parse_args(argc, argv);
  std::printf("Extension: full-stack Hypernel (isolation + armed "
              "word-granularity monitor)\n\n");
  const auto plain = run(false);
  const auto armed = run(true);
  std::printf("%-18s %14s %18s %10s\n", "operation", "Hypersec only",
              "+ cred/dentry mon", "delta");
  hn::bench::print_rule(66);
  for (size_t i = 0; i < plain.size(); ++i) {
    const bool bandwidth = plain[i].name.find("MB/s") != std::string::npos;
    std::printf("%-18s %12.2f%s %16.2f%s %+9.1f%%\n", plain[i].name.c_str(),
                plain[i].us, bandwidth ? "  " : "us", armed[i].us,
                bandwidth ? "  " : "us",
                100.0 * (armed[i].us / plain[i].us - 1.0) *
                    (bandwidth ? -1.0 : 1.0));
  }
  std::printf(
      "\narming the monitor costs where dentries/creds sit on the hot path "
      "(stat's lookup\ntouches non-cacheable dentry words; fork bumps the "
      "shared cred) and is free elsewhere\n— the word-granularity bill, "
      "itemised.\n");
  return hn::bench::write_bench_artifacts();
}
