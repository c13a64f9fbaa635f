// Unit tests for the observability layer (src/obs): registry handles,
// hierarchy rollups, histogram bucketing, snapshot/merge determinism,
// span tracing with cycle attribution, and the exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"

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

TEST(Span, NestingAttributesSelfTime) {
  Registry reg;
  reg.set_enabled(true);
  SpanTracer tracer(reg);
  Cycles clock = 0;
  tracer.bind_clock(&clock);
  const u32 outer = tracer.intern("outer");
  const u32 inner = tracer.intern("inner");

  {
    SpanScope a(tracer, outer);  // [0 ..
    clock = 10;
    {
      SpanScope b(tracer, inner);  // [10 ..
      clock = 30;
    }                              // .. 30]: inner total 20
    clock = 35;
  }  // .. 35]: outer total 35, self 35 - 20 = 15

  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("span.outer.count"), 1u);
  EXPECT_EQ(snap.value("span.outer.cycles"), 35u);
  EXPECT_EQ(snap.value("span.outer.self_cycles"), 15u);
  EXPECT_EQ(snap.value("span.inner.count"), 1u);
  EXPECT_EQ(snap.value("span.inner.cycles"), 20u);
  EXPECT_EQ(snap.value("span.inner.self_cycles"), 20u);

  const auto events = tracer.chronological();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name_id, inner);  // inner completes first
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].name_id, outer);
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_EQ(tracer.open_depth(), 0u);
}

TEST(Span, DisabledTracerRecordsNothing) {
  Registry reg;  // never enabled
  SpanTracer tracer(reg);
  Cycles clock = 0;
  tracer.bind_clock(&clock);
  const u32 id = tracer.intern("noop");
  {
    SpanScope s(tracer, id);
    clock = 50;
  }
  EXPECT_EQ(tracer.size(), 0u);
  reg.set_enabled(true);
  EXPECT_EQ(reg.snapshot().value("span.noop.count"), 0u);
}

TEST(Span, RingDropsOldestBeyondCapacity) {
  Registry reg;
  reg.set_enabled(true);
  SpanTracer tracer(reg, /*ring_capacity=*/4);
  Cycles clock = 0;
  tracer.bind_clock(&clock);
  const u32 id = tracer.intern("tick");
  for (unsigned i = 0; i < 10; ++i) {
    SpanScope s(tracer, id);
    clock += 1;
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // The counters still saw every span.
  EXPECT_EQ(reg.snapshot().value("span.tick.count"), 10u);
  const auto events = tracer.chronological();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first and strictly increasing begin times after the wrap.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].begin, events[i - 1].begin);
  }
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
