// Unit tests for the observability layer (src/obs): registry handles,
// hierarchy rollups, histogram bucketing, snapshot/merge determinism,
// the layer scope stack's self-time attribution, and the exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/scope.h"

namespace hn::obs {
namespace {

TEST(Registry, DisabledByDefaultAndHandleGated) {
  Registry reg;
  Counter c = reg.counter("a.b");
  c.add(5);  // registry disabled: dropped
  EXPECT_EQ(reg.snapshot().value("a.b"), 0u);

  reg.set_enabled(true);
  c.add(5);
  EXPECT_EQ(reg.snapshot().value("a.b"), 5u);

  reg.set_enabled(false);
  c.add(5);
  EXPECT_EQ(reg.snapshot().value("a.b"), 5u);
}

TEST(Registry, DefaultConstructedHandlesAreInert) {
  Counter c;
  Gauge g;
  Histogram h;
  c.add();
  g.set(1);
  g.set_max(2);
  h.record(3);  // must not crash
}

TEST(Registry, FindOrCreateSharesTheSlot) {
  Registry reg;
  reg.set_enabled(true);
  Counter a = reg.counter("x");
  Counter b = reg.counter("x");
  a.add(1);
  b.add(2);
  EXPECT_EQ(reg.snapshot().value("x"), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, KindMismatchReturnsInertHandle) {
  Registry reg;
  reg.set_enabled(true);
  Counter c = reg.counter("x");
  c.add(7);
  Gauge g = reg.gauge("x");  // same path, wrong kind
  g.set(99);
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("x"), 7u);
  EXPECT_EQ(snap.find("x")->kind, MetricKind::kCounter);
}

TEST(Registry, GaugeSetAndSetMax) {
  Registry reg;
  reg.set_enabled(true);
  Gauge g = reg.gauge("depth");
  g.set(10);
  g.set_max(4);  // never lowers
  EXPECT_EQ(reg.snapshot().value("depth"), 10u);
  g.set_max(12);
  EXPECT_EQ(reg.snapshot().value("depth"), 12u);
  g.set(3);  // set overwrites
  EXPECT_EQ(reg.snapshot().value("depth"), 3u);
}

TEST(Registry, ResetValuesKeepsRegistrations) {
  Registry reg;
  reg.set_enabled(true);
  Counter c = reg.counter("n");
  Histogram h = reg.histogram("h");
  c.add(4);
  h.record(4);
  reg.reset_values();
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.snapshot().value("n"), 0u);
  EXPECT_EQ(reg.snapshot().find("h")->hist.total_count, 0u);
  c.add(1);  // old handles still live
  EXPECT_EQ(reg.snapshot().value("n"), 1u);
}

TEST(Snapshot, RollupSumsCountersUnderPrefix) {
  Registry reg;
  reg.set_enabled(true);
  reg.counter("sim.mmu.s1_walks").add(3);
  reg.counter("sim.mmu.s2_walks").add(4);
  reg.counter("sim.tlb.hits").add(100);
  reg.gauge("sim.mmu.depth").set(9);  // gauges are not rollup-summed
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.rollup("sim.mmu"), 7u);
  EXPECT_EQ(snap.rollup("sim"), 107u);
  EXPECT_EQ(snap.rollup("sim.mm"), 0u);  // prefix is component-wise
  EXPECT_EQ(snap.rollup("sim.tlb.hits"), 100u);
}

TEST(Histogram, BucketBoundaries) {
  EXPECT_EQ(HistogramData::bucket_of(0), 0u);
  EXPECT_EQ(HistogramData::bucket_of(1), 1u);
  EXPECT_EQ(HistogramData::bucket_of(2), 2u);
  EXPECT_EQ(HistogramData::bucket_of(3), 2u);
  EXPECT_EQ(HistogramData::bucket_of(4), 3u);
  EXPECT_EQ(HistogramData::bucket_of(~u64{0}), 64u);
  EXPECT_EQ(HistogramData::bucket_le(0), 0u);
  EXPECT_EQ(HistogramData::bucket_le(1), 1u);
  EXPECT_EQ(HistogramData::bucket_le(2), 3u);
  EXPECT_EQ(HistogramData::bucket_le(3), 7u);
  EXPECT_EQ(HistogramData::bucket_le(64), ~u64{0});
}

TEST(Histogram, CycleWeightedRecording) {
  Registry reg;
  reg.set_enabled(true);
  Histogram h = reg.histogram("cycles");
  h.record_cycles(6);   // bucket 3, weight 6
  h.record_cycles(7);   // bucket 3, weight 7
  h.record_cycles(100); // bucket 7, weight 100
  const Snapshot snap = reg.snapshot();  // find() points into it
  const SnapshotEntry* e = snap.find("cycles");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->hist.total_count, 3u);
  EXPECT_EQ(e->hist.total_weight, 113u);
  EXPECT_EQ(e->hist.count[3], 2u);
  EXPECT_EQ(e->hist.weight[3], 13u);
  EXPECT_EQ(e->hist.count[7], 1u);
  EXPECT_EQ(e->hist.min, 6u);
  EXPECT_EQ(e->hist.max, 100u);
}

/// Build a shard registry with a deterministic workload derived from its
/// index: disjoint and overlapping paths, all three metric kinds.
Snapshot shard_snapshot(unsigned shard) {
  Registry reg;
  reg.set_enabled(true);
  reg.counter("common.events").add(10 * (shard + 1));
  Counter own = reg.counter("shard." + std::to_string(shard) + ".ops");
  own.add(shard + 1);
  reg.gauge("common.high_water").set_max(100 - 7 * shard);
  Histogram h = reg.histogram("common.latency");
  for (unsigned i = 0; i <= shard; ++i) h.record_cycles(1 + 13 * i);
  return reg.snapshot();
}

TEST(Snapshot, MergeIsOrderIndependent) {
  constexpr unsigned kShards = 8;
  std::vector<Snapshot> shards;
  for (unsigned s = 0; s < kShards; ++s) shards.push_back(shard_snapshot(s));

  Snapshot forward;
  for (const Snapshot& s : shards) forward.merge(s);

  std::vector<unsigned> order(kShards);
  for (unsigned s = 0; s < kShards; ++s) order[s] = s;
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 16; ++trial) {
    std::shuffle(order.begin(), order.end(), rng);
    Snapshot folded;
    for (unsigned s : order) folded.merge(shards[s]);
    ASSERT_EQ(folded, forward);
  }

  // Spot-check the fold semantics on top of the bit-equality.
  EXPECT_EQ(forward.value("common.events"), 10u * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8));
  EXPECT_EQ(forward.value("common.high_water"), 100u);  // gauge: max
  EXPECT_EQ(forward.find("common.latency")->hist.total_count,
            1u + 2 + 3 + 4 + 5 + 6 + 7 + 8);
  EXPECT_EQ(forward.value("shard.3.ops"), 4u);
}

TEST(Snapshot, MergeIsAssociative) {
  const Snapshot a = shard_snapshot(0);
  const Snapshot b = shard_snapshot(1);
  const Snapshot c = shard_snapshot(2);
  Snapshot ab = a;
  ab.merge(b);
  ab.merge(c);  // (a+b)+c
  Snapshot bc = b;
  bc.merge(c);
  Snapshot a_bc = a;
  a_bc.merge(bc);  // a+(b+c)
  EXPECT_EQ(ab, a_bc);
}

u64 row_sum(const Snapshot& snap, const char* column) {
  u64 sum = 0;
  for (unsigned l = 0; l < kLayerCount; ++l) {
    sum += snap.value(std::string("layer.") +
                      layer_name(static_cast<Layer>(l)) + "." + column);
  }
  return sum;
}

TEST(ScopeStack, NestingAttributesSelfTime) {
  Registry reg;
  reg.set_enabled(true);
  ScopeStack stack(reg);
  Cycles clock = 0;
  stack.bind_clock(&clock);
  stack.set_sim_clock(true);

  {
    Scope a(stack, Layer::kHypersecHvc);  // [0 ..
    clock = 10;
    {
      Scope b(stack, Layer::kSecapps);  // [10 ..
      clock = 30;
    }                                   // .. 30]: secapps self 20
    clock = 35;
  }  // .. 35]: hvc self 10 + 5 = 15

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("layer.hypersec.hvc.scopes"), 1u);
  EXPECT_EQ(snap.value("layer.hypersec.hvc.self_cycles"), 15u);
  EXPECT_EQ(snap.value("layer.secapps.scopes"), 1u);
  EXPECT_EQ(snap.value("layer.secapps.self_cycles"), 20u);
  EXPECT_EQ(row_sum(snap, "self_cycles"), 35u);

  const auto events = stack.chronological();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name_id, static_cast<u32>(Layer::kSecapps));
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[0].begin, 10u);
  EXPECT_EQ(events[0].end, 30u);
  EXPECT_EQ(events[0].self, 20u);
  EXPECT_EQ(events[1].name_id, static_cast<u32>(Layer::kHypersecHvc));
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_EQ(events[1].begin, 0u);
  EXPECT_EQ(events[1].end, 35u);
  EXPECT_EQ(events[1].self, 15u);
  EXPECT_EQ(stack.depth(), 0u);
}

TEST(ScopeStack, DisabledStackRecordsNothing) {
  Registry reg;
  reg.set_enabled(true);
  ScopeStack stack(reg);  // no clock switched on
  Cycles clock = 0;
  stack.bind_clock(&clock);
  {
    Scope s(stack, Layer::kKernelSyscall);
    clock = 50;
  }
  EXPECT_EQ(stack.depth(), 0u);
  EXPECT_TRUE(stack.chronological().empty());
  EXPECT_EQ(stack.report().total_cycles(), 0u);
  EXPECT_EQ(reg.snapshot().value("layer.kernel.syscall.scopes"), 0u);
  EXPECT_EQ(row_sum(reg.snapshot(), "self_cycles"), 0u);
}

TEST(ScopeStack, RingDropsOldestBeyondCapacity) {
  Registry reg;
  reg.set_enabled(true);
  ScopeStack stack(reg, /*ring_capacity=*/4);
  Cycles clock = 0;
  stack.bind_clock(&clock);
  stack.set_sim_clock(true);
  for (unsigned i = 0; i < 10; ++i) {
    Scope s(stack, Layer::kFuzzStep);
    clock += 1;
  }
  EXPECT_EQ(stack.dropped(), 6u);
  // The counters still saw every scope.
  EXPECT_EQ(reg.snapshot().value("layer.fuzz.step.scopes"), 10u);
  const auto events = stack.chronological();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first and strictly increasing begin times after the wrap.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].begin, events[i - 1].begin);
  }
}

TEST(ScopeStack, RowsSumToTheElapsedTimeOnBothClocks) {
  Registry reg;
  reg.set_enabled(true);
  ScopeStack stack(reg);
  Cycles clock = 1000;  // a clock that did not start at 0
  stack.bind_clock(&clock);
  stack.set_sim_clock(true);
  stack.set_host_clock(true);
  const u64 host_start = stack.host_mark_ns();
  clock += 7;  // outside any scope: other
  {
    Scope step(stack, Layer::kFuzzStep);
    clock += 11;
    for (int i = 0; i < 3; ++i) {
      Scope mem(stack, Layer::kSimMem);
      clock += 5;
      Scope mmu(stack, Layer::kSimMmu);
      clock += 2;
    }
    clock += 13;
  }
  clock += 3;
  const LayerReport report = stack.report();
  EXPECT_EQ(report.total_cycles(), clock - 1000);
  EXPECT_EQ(report[Layer::kOther].self_cycles, 10u);
  EXPECT_EQ(report[Layer::kFuzzStep].self_cycles, 24u);
  EXPECT_EQ(report[Layer::kSimMem].self_cycles, 15u);
  EXPECT_EQ(report[Layer::kSimMmu].self_cycles, 6u);
  EXPECT_EQ(report[Layer::kSimMmu].scopes, 3u);
  // The host rows telescope to the report's host window exactly.
  EXPECT_EQ(report.total_ns(), stack.host_mark_ns() - host_start);
  // report() settled the registry, so its rows agree with the report.
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(row_sum(snap, "self_cycles"), clock - 1000);
  EXPECT_EQ(row_sum(snap, "scopes"), 7u);
}

TEST(ScopeStack, EnablingMidRunCountsFromTheSwitch) {
  Registry reg;
  reg.set_enabled(true);
  ScopeStack stack(reg);
  Cycles clock = 0;
  stack.bind_clock(&clock);
  {
    Scope before(stack, Layer::kFuzzStep);  // disarmed: never pushed
    clock = 100;
    stack.set_sim_clock(true);  // the stretch starts here, at 100
    clock = 120;
    {
      Scope hvc(stack, Layer::kHypersecHvc);
      clock = 150;
    }
    clock = 160;
  }  // `before` pops nothing
  EXPECT_EQ(stack.depth(), 0u);
  LayerReport report = stack.report();
  EXPECT_EQ(report.total_cycles(), 60u);
  EXPECT_EQ(report[Layer::kHypersecHvc].self_cycles, 30u);
  EXPECT_EQ(report[Layer::kOther].self_cycles, 30u);
  EXPECT_EQ(report[Layer::kFuzzStep].scopes, 0u);

  // Switching off mid-scope still pops the scope; the stretch while off
  // is charged nowhere.
  {
    Scope open(stack, Layer::kSimMem);
    clock = 170;
    stack.set_sim_clock(false);
    clock = 500;
  }
  EXPECT_EQ(stack.depth(), 0u);
  report = stack.report();
  EXPECT_EQ(report.total_cycles(), 70u);
  EXPECT_EQ(report[Layer::kSimMem].self_cycles, 10u);
}

TEST(ScopeStack, HostClockStartedEarlyChargesTheGapToOneLayer) {
  Registry reg;
  ScopeStack stack(reg);
  Cycles clock = 0;
  stack.bind_clock(&clock);
  const u64 since = host_now_ns();
  stack.start_host_clock_at(since, Layer::kFuzzBoot);
  const u64 boot_ns = stack.host_mark_ns() - since;
  {
    Scope step(stack, Layer::kFuzzStep);
    clock = 40;
  }
  const LayerReport report = stack.report();
  EXPECT_EQ(report[Layer::kFuzzBoot].self_ns, boot_ns);
  EXPECT_EQ(report[Layer::kFuzzBoot].scopes, 1u);
  EXPECT_EQ(report.total_ns(), stack.host_mark_ns() - since);
  // The simulated clock runs under the host clock alone.
  EXPECT_EQ(report[Layer::kFuzzStep].self_cycles, 40u);
}

TEST(LayerReport, RendersBothClocksAndReadsBackFromASnapshot) {
  LayerReport report;
  report[Layer::kKernelSyscall] = {.self_cycles = 300, .self_ns = 2000000,
                                   .scopes = 4};
  report[Layer::kOther] = {.self_cycles = 100, .self_ns = 2000000};
  const std::string table = render_layers(report);
  EXPECT_NE(table.find("self_cycles"), std::string::npos) << table;
  EXPECT_NE(table.find("self_ms"), std::string::npos) << table;
  EXPECT_NE(table.find("kernel.syscall"), std::string::npos) << table;
  EXPECT_NE(table.find("75.0%"), std::string::npos) << table;
  EXPECT_NE(table.find("50.0%"), std::string::npos) << table;
  EXPECT_EQ(table.find("sim.mmu"), std::string::npos) << table;

  // A snapshot carrying all three columns reads back to the same report.
  Registry reg;
  reg.set_enabled(true);
  for (const Layer l : {Layer::kKernelSyscall, Layer::kOther}) {
    const std::string base = std::string("layer.") + layer_name(l);
    reg.counter(base + ".self_cycles").add(report[l].self_cycles);
    reg.counter(base + ".scopes").add(report[l].scopes);
  }
  Snapshot snap = reg.snapshot();
  fold_self_ns(report, snap);
  EXPECT_EQ(render_layers(layer_report(snap)), table);

  // Without the host column the table prints "-" for it.
  LayerReport cycles_only = report;
  for (LayerRow& r : cycles_only.rows) r.self_ns = 0;
  EXPECT_NE(render_layers(cycles_only).find(" - "), std::string::npos);
}

TEST(Export, GoldenJson) {
  Registry reg;
  reg.set_enabled(true);
  reg.counter("b.count").add(3);
  reg.gauge("a.depth").set(7);
  reg.histogram("c.lat").record(5, 20);
  const std::string json = to_json(reg.snapshot());
  const std::string expected =
      "{\n"
      "  \"metrics\": [\n"
      "    {\"path\": \"a.depth\", \"kind\": \"gauge\", \"value\": 7},\n"
      "    {\"path\": \"b.count\", \"kind\": \"counter\", \"value\": 3},\n"
      "    {\"path\": \"c.lat\", \"kind\": \"histogram\", \"count\": 1, "
      "\"weight\": 20, \"min\": 5, \"max\": 5, "
      "\"buckets\": [{\"le\": 7, \"count\": 1, \"weight\": 20}]}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(json, expected);
}

TEST(Export, GoldenCsv) {
  Registry reg;
  reg.set_enabled(true);
  reg.counter("b.count").add(3);
  reg.histogram("c.lat").record(5, 20);
  const std::string csv = to_csv(reg.snapshot());
  const std::string expected =
      "path,kind,value,count,weight,min,max\n"
      "b.count,counter,3,,,,\n"
      "c.lat,histogram,,1,20,5,5\n";
  EXPECT_EQ(csv, expected);
}

TEST(Export, EqualSnapshotsRenderIdentically) {
  const Snapshot a = shard_snapshot(2);
  const Snapshot b = shard_snapshot(2);
  EXPECT_EQ(to_json(a), to_json(b));
  EXPECT_EQ(to_csv(a), to_csv(b));
}

}  // namespace
}  // namespace hn::obs
