// Whole-system layer attribution: on a booted Hypernel system with the
// metrics registry on, the layer.*.self_cycles rows telescope to the
// machine's cycle delta across real work, an LMbench op and a Table 2
// cell, with the MBM and security-app layers populated by the latter.
#include <gtest/gtest.h>

#include <string>

#include "hypernel/system.h"
#include "obs/scope.h"
#include "secapps/object_monitor.h"
#include "workloads/apps.h"
#include "workloads/lmbench.h"

namespace hn {
namespace {

std::unique_ptr<hypernel::System> metered_system(bool mbm) {
  hypernel::SystemConfig cfg;
  cfg.mode = hypernel::Mode::kHypernel;
  cfg.enable_mbm = mbm;
  cfg.metrics = true;
  auto sys = hypernel::System::create(cfg);
  EXPECT_TRUE(sys.ok());
  return std::move(sys).value();
}

/// The registry's layer rows, settled to now.
obs::LayerReport rows(const hypernel::System& sys) {
  return obs::layer_report(sys.metrics_snapshot());
}

u64 delta(const obs::LayerReport& after, const obs::LayerReport& before,
          obs::Layer layer) {
  return after[layer].self_cycles - before[layer].self_cycles;
}

TEST(LayerAttribution, RowsSumToTheCyclesOfAnLmbenchOp) {
  auto sys = metered_system(/*mbm=*/false);
  workloads::LmbenchSuite suite(*sys, /*iterations=*/4);
  ASSERT_TRUE(suite.setup().ok());
  const Cycles c0 = sys->machine().account().cycles();
  const obs::LayerReport r0 = rows(*sys);
  (void)suite.fork_exit();
  const Cycles c1 = sys->machine().account().cycles();
  const obs::LayerReport r1 = rows(*sys);
  EXPECT_GT(c1, c0);
  EXPECT_EQ(r1.total_cycles() - r0.total_cycles(), c1 - c0);
  EXPECT_GT(delta(r1, r0, obs::Layer::kKernelSyscall), 0u);
  EXPECT_GT(delta(r1, r0, obs::Layer::kHypersecHvc), 0u);
  // Since construction, too: boot is attributed like any other work.
  EXPECT_EQ(r1.total_cycles(), c1);
}

TEST(LayerAttribution, RowsSumToTheCyclesOfATable2Cell) {
  auto sys = metered_system(/*mbm=*/true);
  secapps::ObjectIntegrityMonitor monitor(
      *sys, secapps::Granularity::kSensitiveFields);
  ASSERT_TRUE(monitor.install().ok());
  const Cycles c0 = sys->machine().account().cycles();
  const obs::LayerReport r0 = rows(*sys);
  workloads::AppParams p;
  p.scale = 0.1;
  (void)workloads::run_app_by_name(*sys, "iozone", p);
  const Cycles c1 = sys->machine().account().cycles();
  const obs::LayerReport r1 = rows(*sys);
  ASSERT_GT(sys->mbm()->stats().detections, 0u);
  EXPECT_EQ(r1.total_cycles() - r0.total_cycles(), c1 - c0);
  EXPECT_GT(delta(r1, r0, obs::Layer::kMbm), 0u);
  EXPECT_GT(delta(r1, r0, obs::Layer::kSecapps), 0u);
  EXPECT_GT(delta(r1, r0, obs::Layer::kHypersecHvc), 0u);
}

}  // namespace
}  // namespace hn
