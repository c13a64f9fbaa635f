// hypernel::System construction tests: mode wiring, linear-limit
// derivation, secure-space sizing errors, and the measurement helpers.
#include <gtest/gtest.h>

#include <vector>

#include "hypernel/system.h"
#include "kernel/layout.h"

namespace hn::hypernel {
namespace {

TEST(System, NativeHasNoHypervisorParts) {
  SystemConfig cfg;
  cfg.mode = Mode::kNative;
  cfg.enable_mbm = false;
  auto sys = System::create(cfg);
  ASSERT_TRUE(sys.ok());
  EXPECT_EQ(sys.value()->hypersec(), nullptr);
  EXPECT_EQ(sys.value()->kvm(), nullptr);
  EXPECT_EQ(sys.value()->mbm(), nullptr);
  // Pure native maps all of DRAM.
  EXPECT_EQ(sys.value()->kernel().linear_limit(),
            sys.value()->machine().phys().size());
}

TEST(System, NativeWithMbmReservesSecureSpace) {
  SystemConfig cfg;
  cfg.mode = Mode::kNative;
  cfg.enable_mbm = true;
  auto sys = System::create(cfg);
  ASSERT_TRUE(sys.ok());
  EXPECT_NE(sys.value()->mbm(), nullptr);
  EXPECT_EQ(sys.value()->hypersec(), nullptr);
  EXPECT_EQ(sys.value()->kernel().linear_limit(),
            sys.value()->machine().secure_base());
}

TEST(System, KvmNeverCarriesMbm) {
  SystemConfig cfg;
  cfg.mode = Mode::kKvmGuest;
  cfg.enable_mbm = true;  // ignored for the KVM baseline
  auto sys = System::create(cfg);
  ASSERT_TRUE(sys.ok());
  EXPECT_EQ(sys.value()->mbm(), nullptr);
  EXPECT_NE(sys.value()->kvm(), nullptr);
}

TEST(System, HypernelFullStack) {
  SystemConfig cfg;
  cfg.mode = Mode::kHypernel;
  auto sys = System::create(cfg);
  ASSERT_TRUE(sys.ok());
  EXPECT_NE(sys.value()->hypersec(), nullptr);
  EXPECT_NE(sys.value()->mbm(), nullptr);
  EXPECT_TRUE(sys.value()->hypersec()->initialized());
  EXPECT_EQ(std::string(mode_name(sys.value()->mode())), "Hypernel");
}

TEST(System, SecureSpaceTooSmallForMbmFails) {
  SystemConfig cfg;
  cfg.mode = Mode::kHypernel;
  cfg.machine.secure_size = 1ull * 1024 * 1024;  // < bitmap + ring needs
  auto sys = System::create(cfg);
  EXPECT_FALSE(sys.ok());
}

TEST(System, SecureSpaceTooSmallButMbmDisabledWorks) {
  SystemConfig cfg;
  cfg.mode = Mode::kHypernel;
  cfg.enable_mbm = false;
  cfg.machine.secure_size = 1ull * 1024 * 1024;
  auto sys = System::create(cfg);
  EXPECT_TRUE(sys.ok()) << sys.status().message();
}

TEST(System, ExplicitLinearLimitHonoured) {
  SystemConfig cfg;
  cfg.mode = Mode::kNative;
  cfg.enable_mbm = false;
  cfg.kernel.linear_limit = 64ull * 1024 * 1024;
  auto sys = System::create(cfg);
  ASSERT_TRUE(sys.ok());
  EXPECT_EQ(sys.value()->kernel().linear_limit(), 64ull * 1024 * 1024);
}

TEST(System, SnapshotHelpersMeasureWindows) {
  SystemConfig cfg;
  cfg.mode = Mode::kNative;
  cfg.enable_mbm = false;
  auto sys_r = System::create(cfg);
  ASSERT_TRUE(sys_r.ok());
  auto& sys = *sys_r.value();
  const auto t0 = sys.snapshot();
  sys.machine().advance(1150);  // exactly 1 us at 1.15 GHz
  EXPECT_EQ(sys.cycles_since(t0), 1150u);
  EXPECT_NEAR(sys.us_since(t0), 1.0, 1e-9);
  const auto before = sys.snapshot();
  sys.kernel().sys_creat("/snapshot-test");
  const sim::Counters d = sys.counters_since(before);
  EXPECT_EQ(d.svc_calls, 1u);
  EXPECT_GT(d.mem_writes, 0u);
}

TEST(System, CountersSinceReportsStreamAllocations) {
  // A page-sized file write stores whole lines, which the L1 allocates
  // without a fill; the window's delta carries them like every other
  // counter.
  SystemConfig cfg;
  cfg.mode = Mode::kNative;
  cfg.enable_mbm = false;
  auto sys_r = System::create(cfg);
  ASSERT_TRUE(sys_r.ok());
  auto& sys = *sys_r.value();
  const auto ino = sys.kernel().sys_creat("/stream-test");
  ASSERT_TRUE(ino.ok());
  const std::vector<u8> page(kPageSize, 0x5A);
  const auto before = sys.snapshot();
  const Status written =
      sys.kernel().sys_write(ino.value(), 0, page.data(), page.size());
  ASSERT_TRUE(written.ok());
  const sim::Counters& now = sys.machine().account().counters();
  const u64 streamed = now.l1_stream_allocs - before.counters.l1_stream_allocs;
  EXPECT_GT(streamed, 0u);
  EXPECT_EQ(sys.counters_since(before).l1_stream_allocs, streamed);
}

TEST(System, RegisterAppRequiresHypersec) {
  SystemConfig cfg;
  cfg.mode = Mode::kNative;
  cfg.enable_mbm = false;
  auto sys = System::create(cfg);
  ASSERT_TRUE(sys.ok());
  class Dummy : public hypersec::SecurityApp {
   public:
    u64 sid() const override { return 5; }
    const char* name() const override { return "dummy"; }
    hypersec::AppVerdict on_write_event(
        const mbm::MonitorEvent&, const hypersec::RegionInfo&) override {
      return hypersec::AppVerdict::kBenign;
    }
  } app;
  EXPECT_FALSE(sys.value()->register_security_app(app).ok());
}

TEST(System, BiggerMachineWorks) {
  SystemConfig cfg;
  cfg.mode = Mode::kHypernel;
  cfg.machine.dram_size = 256ull * 1024 * 1024;
  cfg.machine.secure_size = 32ull * 1024 * 1024;
  auto sys = System::create(cfg);
  ASSERT_TRUE(sys.ok()) << sys.status().message();
  EXPECT_TRUE(sys.value()->kernel().sys_creat("/big").ok());
}

}  // namespace
}  // namespace hn::hypernel
