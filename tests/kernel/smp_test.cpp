// SMP unit tests (DESIGN.md §15): the deterministic spinlock timing
// model, the per-CPU runqueue scheduler, the IPI latch, and
// snapshot/restore invariance for machines caught mid-IPI and
// mid-contention — a restore must reproduce the exact cycle charges the
// uninterrupted run would have made.
#include <gtest/gtest.h>

#include <memory>

#include "hypernel/fingerprint.h"
#include "hypernel/system.h"
#include "kernel/process.h"
#include "kernel/spinlock.h"
#include "sim/machine.h"
#include "sim/snapshot.h"

namespace hn::kernel {
namespace {

sim::MachineConfig machine_config(unsigned cores) {
  sim::MachineConfig cfg;
  cfg.cores = cores;
  return cfg;
}

// ---------------------------------------------------------------------------
// SpinLock: temporal-proximity contention model
// ---------------------------------------------------------------------------

TEST(SpinLock, SingleCoreLockIsFree) {
  sim::Machine m(machine_config(1));
  SpinLock lock;
  lock.bind(m);
  const Cycles before = m.account().cycles();
  lock.lock();
  lock.unlock();
  lock.lock();
  lock.unlock();
  EXPECT_EQ(m.account().cycles(), before);
  EXPECT_EQ(m.counters().spin_contentions, 0u);
}

TEST(SpinLock, UnboundLockIsANoOp) {
  SpinLock lock;  // the buddy allocator constructs before bind()
  lock.lock();
  lock.unlock();
}

TEST(SpinLock, CrossCoreReleaseWithinWindowCharges) {
  sim::Machine m(machine_config(2));
  SpinLock lock;
  lock.bind(m);
  // Core 0 holds and releases the lock.
  lock.lock();
  m.advance(100);
  lock.unlock();
  // Core 1 acquires shortly after (its own clock inside the window of
  // core 0's release): the cache line migrates between L1s.
  m.set_active_core(1);
  m.advance(150);
  const Cycles before = m.account().cycles();
  lock.lock();
  EXPECT_EQ(m.account().cycles(),
            before + m.timing().spinlock_contended);
  EXPECT_EQ(m.counters().spin_contentions, 1u);
  lock.unlock();
  // Re-acquiring on the same core is free: the line stayed local.
  lock.lock();
  EXPECT_EQ(m.counters().spin_contentions, 1u);
  lock.unlock();
}

TEST(SpinLock, CrossCoreReleaseOutsideWindowIsFree) {
  sim::Machine m(machine_config(2));
  SpinLock lock;
  lock.bind(m);
  lock.lock();
  m.advance(100);
  lock.unlock();
  m.set_active_core(1);
  m.advance(100 + m.timing().spinlock_contention_window + 1);
  const Cycles before = m.account().cycles();
  lock.lock();
  EXPECT_EQ(m.account().cycles(), before);
  EXPECT_EQ(m.counters().spin_contentions, 0u);
}

TEST(SpinLock, StateRoundTripsReproducingTheContentionCharge) {
  // Lock state (last owner + release instant) is architectural: restored
  // mid-workload it must reproduce the exact same contention charge.
  sim::Machine m(machine_config(2));
  SpinLock lock;
  lock.bind(m);
  lock.lock();
  m.advance(100);
  lock.unlock();

  sim::SnapWriter w;
  lock.save_state(w);
  const std::vector<u8> blob = w.take();
  SpinLock restored;
  restored.bind(m);
  sim::SnapReader r(blob);
  restored.restore_state(r);
  ASSERT_TRUE(r.status().ok()) << r.status().message();

  m.set_active_core(1);
  m.advance(150);
  const Cycles before = m.account().cycles();
  restored.lock();
  EXPECT_EQ(m.account().cycles(),
            before + m.timing().spinlock_contended);
  EXPECT_EQ(m.counters().spin_contentions, 1u);
}

// ---------------------------------------------------------------------------
// IPI latch
// ---------------------------------------------------------------------------

TEST(Ipi, CrossCoreIpiLatchesUntilTargetRuns) {
  sim::Machine m(machine_config(2));
  const Cycles before = m.account().cycles();
  m.post_ipi(1);
  EXPECT_EQ(m.account().cycles(), before + m.timing().ipi_send);
  EXPECT_EQ(m.counters().ipis_sent, 1u);
  EXPECT_EQ(m.counters().ipis_delivered, 0u);
  EXPECT_TRUE(m.ipi_pending(1));
  EXPECT_FALSE(m.ipi_pending(0));
  // Delivery happens when the scheduler next runs the target core...
  m.set_active_core(1);
  EXPECT_FALSE(m.ipi_pending(1));
  EXPECT_EQ(m.counters().ipis_delivered, 1u);
  // ...exactly once: bouncing the core again re-delivers nothing.
  m.set_active_core(0);
  m.set_active_core(1);
  EXPECT_EQ(m.counters().ipis_delivered, 1u);
}

TEST(Ipi, SelfIpiDeliversSynchronously) {
  sim::Machine m(machine_config(2));
  m.post_ipi(0);
  EXPECT_FALSE(m.ipi_pending(0));
  EXPECT_EQ(m.counters().ipis_sent, 1u);
  EXPECT_EQ(m.counters().ipis_delivered, 1u);
}

// ---------------------------------------------------------------------------
// Per-CPU runqueues and the load balancer
// ---------------------------------------------------------------------------

using hypernel::System;
using hypernel::SystemConfig;

std::unique_ptr<System> make_system(unsigned cores) {
  SystemConfig cfg;
  cfg.machine.cores = cores;
  auto r = System::create(cfg);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

TEST(Scheduler, ForkBalancesOntoTheLeastLoadedCpu) {
  auto sys = make_system(2);
  Kernel& k = sys->kernel();
  // Init boots on core 0; the idle core 1 is the least loaded.
  EXPECT_EQ(k.procs().current().cpu, 0u);
  EXPECT_EQ(k.procs().pick_cpu(), 1u);
  Result<u32> first = k.sys_fork();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(k.procs().find(first.value())->cpu, 1u);
  EXPECT_EQ(k.procs().runqueue_len(0), 1u);
  EXPECT_EQ(k.procs().runqueue_len(1), 1u);
  // Queues now tie at one task each; the lowest index breaks the tie so
  // placement never depends on anything but architectural state.
  EXPECT_EQ(k.procs().pick_cpu(), 0u);
  Result<u32> second = k.sys_fork();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(k.procs().find(second.value())->cpu, 0u);
  EXPECT_EQ(k.procs().runqueue_len(0), 2u);
}

TEST(Scheduler, SwitchToMigratesExecutionToTheTaskCpu) {
  auto sys = make_system(2);
  Kernel& k = sys->kernel();
  Result<u32> pid = k.sys_fork();
  ASSERT_TRUE(pid.ok());
  Task* child = k.procs().find(pid.value());
  ASSERT_NE(child, nullptr);
  ASSERT_EQ(child->cpu, 1u);
  EXPECT_EQ(sys->machine().active_core(), 0u);
  k.procs().switch_to(*child);
  EXPECT_EQ(sys->machine().active_core(), 1u);
  EXPECT_EQ(k.procs().current().pid, pid.value());
  // The victim workload keeps its own notion of current on core 0.
  ASSERT_NE(k.procs().current_on(0), nullptr);
  EXPECT_NE(k.procs().current_on(0)->pid, pid.value());
}

TEST(Scheduler, ExitFreesTheRunqueueSlot) {
  auto sys = make_system(2);
  Kernel& k = sys->kernel();
  Result<u32> pid = k.sys_fork();
  ASSERT_TRUE(pid.ok());
  k.procs().switch_to(*k.procs().find(pid.value()));
  ASSERT_TRUE(k.sys_exit().ok());
  EXPECT_EQ(k.procs().runqueue_len(1), 0u);
  // The balancer immediately prefers the drained core again.
  EXPECT_EQ(k.procs().pick_cpu(), 1u);
}

// ---------------------------------------------------------------------------
// Snapshot/restore mid-IPI and mid-contention
// ---------------------------------------------------------------------------

TEST(SmpSnapshot, PendingIpiSurvivesTheRoundTrip) {
  // Snapshot a machine with an IPI latched for a core that has not run
  // yet: the twin must deliver it at exactly the same instant the
  // original does.
  auto original = make_system(2);
  Kernel& k = original->kernel();
  Result<u32> pid = k.sys_fork();
  ASSERT_TRUE(pid.ok());
  original->machine().post_ipi(1);
  ASSERT_TRUE(original->machine().ipi_pending(1));

  auto twin = make_system(2);
  ASSERT_TRUE(twin->restore_state(original->save_state()).ok());
  EXPECT_TRUE(twin->machine().ipi_pending(1));

  // Identical follow-up: migrating to the child delivers the latched IPI
  // on both machines.
  for (System* sys : {original.get(), twin.get()}) {
    Kernel& kk = sys->kernel();
    kk.procs().switch_to(*kk.procs().find(pid.value()));
    EXPECT_FALSE(sys->machine().ipi_pending(1));
    EXPECT_EQ(sys->machine().counters().ipis_delivered, 1u);
    ASSERT_TRUE(kk.sys_creat("/after-ipi").ok());
  }
  const auto fp_a = hypernel::take_fingerprint(*original);
  const auto fp_b = hypernel::take_fingerprint(*twin);
  EXPECT_TRUE(fp_a.functionally_equal(fp_b)) << fp_a.diff(fp_b);
  EXPECT_EQ(fp_a.cycles, fp_b.cycles);
}

TEST(SmpSnapshot, MidContentionRestoreMatchesTheUninterruptedRun) {
  // Three systems run the same cross-core program.  A runs it straight
  // through; B is snapshotted right after the core-1 half; C restores
  // from that snapshot.  All three must agree on every cycle — the
  // spinlock owner/release state and the shared-bus arbiter state are
  // architectural, so the second half's contention charges reproduce.
  auto a = make_system(2);
  auto b = make_system(2);

  auto first_half = [](System& sys) -> u32 {
    Kernel& k = sys.kernel();
    Result<u32> pid = k.sys_fork();
    EXPECT_TRUE(pid.ok());
    k.procs().switch_to(*k.procs().find(pid.value()));
    EXPECT_TRUE(k.sys_mkdir("/smp").ok());
    EXPECT_TRUE(k.sys_creat("/smp/from-core1").ok());
    return pid.value();
  };
  auto second_half = [](System& sys) {
    Kernel& k = sys.kernel();
    Task* init = k.procs().current_on(0);
    ASSERT_NE(init, nullptr);
    k.procs().switch_to(*init);
    EXPECT_TRUE(k.sys_creat("/smp/from-core0").ok());
    EXPECT_TRUE(k.sys_stat("/smp/from-core1").ok());
  };

  const u32 pid_a = first_half(*a);
  const u32 pid_b = first_half(*b);
  ASSERT_EQ(pid_a, pid_b);

  auto c = make_system(2);
  ASSERT_TRUE(c->restore_state(b->save_state()).ok());

  second_half(*a);
  second_half(*b);
  second_half(*c);

  const auto fp_a = hypernel::take_fingerprint(*a);
  const auto fp_b = hypernel::take_fingerprint(*b);
  const auto fp_c = hypernel::take_fingerprint(*c);
  EXPECT_TRUE(fp_a.functionally_equal(fp_c)) << fp_a.diff(fp_c);
  EXPECT_EQ(fp_a.cycles, fp_c.cycles);
  EXPECT_TRUE(fp_b.functionally_equal(fp_c)) << fp_b.diff(fp_c);
  EXPECT_EQ(fp_b.cycles, fp_c.cycles);
}

TEST(SmpSnapshot, RestoreRejectsCoreCountMismatch) {
  // The core count folds into the configuration digest: a 2-core
  // snapshot must never restore into a 4-core twin.
  auto two = make_system(2);
  auto four = make_system(4);
  const Status st = four->restore_state(two->save_state());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("configuration digest mismatch"),
            std::string::npos);
}

}  // namespace
}  // namespace hn::kernel
