// Flight-recorder persistence and analysis tests: binary round-trip,
// parser rejection of corrupt blobs, causal-chain attribution on a
// synthetic detection chain, and the golden Chrome trace-event export.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/scope.h"
#include "sim/trace.h"
#include "sim/trace_io.h"
#include "sim/trace_report.h"

namespace hn::sim {
namespace {

/// A small trace + scope stack with known contents.
struct Fixture {
  Trace trace{8};
  obs::Registry registry;
  obs::ScopeStack scopes{registry};
  Cycles clock = 0;

  Fixture() {
    trace.set_enabled(true);
    scopes.bind_clock(&clock);
    scopes.set_sim_clock(true);
    const u64 root = trace.record(100, TraceKind::kBusWrite, 0x2000, 0xABC);
    trace.record_caused(150, TraceKind::kMbmFifo, root, 5, 100);
    trace.record(200, TraceKind::kCustom, 1, 2);
    clock = 120;
    scopes.enter(obs::Layer::kHypersecHvc);
    clock = 180;
    scopes.exit();
  }
};

TEST(TraceIo, SerializeParseRoundTrip) {
  Fixture f;
  const std::vector<u8> blob = serialize_trace(f.trace, &f.scopes, 2.0);
  TraceData data;
  ASSERT_TRUE(parse_trace(blob, data).ok());

  EXPECT_EQ(data.version, kTraceFormatVersion);
  EXPECT_DOUBLE_EQ(data.cpu_ghz, 2.0);
  EXPECT_EQ(data.seq_end, 3u);
  EXPECT_EQ(data.first_seq, 0u);
  EXPECT_EQ(data.trace_dropped, 0u);
  EXPECT_EQ(data.span_dropped, 0u);

  ASSERT_EQ(data.events.size(), 3u);
  EXPECT_EQ(data.events[0].at, 100u);
  EXPECT_EQ(data.events[0].seq, 0u);
  EXPECT_EQ(data.events[0].cause, kNoCause);
  EXPECT_EQ(data.events[0].kind, TraceKind::kBusWrite);
  EXPECT_EQ(data.events[0].a, 0x2000u);
  EXPECT_EQ(data.events[0].b, 0xABCu);
  EXPECT_EQ(data.events[1].kind, TraceKind::kMbmFifo);
  EXPECT_EQ(data.events[1].cause, 0u);
  EXPECT_EQ(data.events[1].a, 5u);
  EXPECT_EQ(data.events[1].b, 100u);
  EXPECT_EQ(data.events[2].seq, 2u);

  // The name table is the layer table; scopes name their layer by id.
  ASSERT_EQ(data.span_names.size(), obs::kLayerCount);
  EXPECT_EQ(data.span_names[3], "hypersec.hvc");
  ASSERT_EQ(data.spans.size(), 1u);
  EXPECT_EQ(data.spans[0].name_id, 3u);
  EXPECT_EQ(data.spans[0].depth, 0u);
  EXPECT_EQ(data.spans[0].begin, 120u);
  EXPECT_EQ(data.spans[0].end, 180u);
  EXPECT_EQ(data.spans[0].self, 60u);
}

TEST(TraceIo, SerializationIsDeterministic) {
  Fixture a, b;
  EXPECT_EQ(serialize_trace(a.trace, &a.scopes, 2.0),
            serialize_trace(b.trace, &b.scopes, 2.0));
}

TEST(TraceIo, RoundTripPreservesRingWrapAccounting) {
  Trace trace(4);
  trace.set_enabled(true);
  for (u64 i = 0; i < 10; ++i) trace.record(i, TraceKind::kCustom, i);
  const std::vector<u8> blob = serialize_trace(trace, nullptr, 1.0);
  TraceData data;
  ASSERT_TRUE(parse_trace(blob, data).ok());
  EXPECT_EQ(data.seq_end, 10u);
  EXPECT_EQ(data.first_seq, 6u);
  EXPECT_EQ(data.trace_dropped, 6u);
  ASSERT_EQ(data.events.size(), 4u);
  EXPECT_EQ(data.events.front().seq, 6u);
  EXPECT_EQ(data.events.back().seq, 9u);
}

TEST(TraceIo, ParseRejectsCorruptBlobs) {
  Fixture f;
  const std::vector<u8> good = serialize_trace(f.trace, &f.scopes, 2.0);
  TraceData data;
  ASSERT_TRUE(parse_trace(good, data).ok());

  EXPECT_FALSE(parse_trace({}, data).ok());

  std::vector<u8> bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(parse_trace(bad_magic, data).ok());

  std::vector<u8> bad_version = good;
  bad_version[8] = 99;  // version field follows the 8-byte magic
  EXPECT_FALSE(parse_trace(bad_version, data).ok());

  std::vector<u8> truncated = good;
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(parse_trace(truncated, data).ok());

  std::vector<u8> trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(parse_trace(trailing, data).ok());
}

TEST(TraceIo, RoundTripPreservesCoreProvenance) {
  // Every event carries its originating core; the ambient stamp is set
  // by the machine on every core switch.
  Trace trace(8);
  trace.set_enabled(true);
  trace.record(10, TraceKind::kSvc, 1);
  trace.set_active_core(1);
  trace.record(20, TraceKind::kBusWrite, 0x2000, 7);
  trace.set_active_core(0);
  trace.record(30, TraceKind::kIrq, 5);
  const std::vector<u8> blob = serialize_trace(trace, nullptr, 1.0);
  TraceData data;
  ASSERT_TRUE(parse_trace(blob, data).ok());
  EXPECT_EQ(data.version, 3u);
  ASSERT_EQ(data.events.size(), 3u);
  EXPECT_EQ(data.events[0].core, 0u);
  EXPECT_EQ(data.events[1].core, 1u);
  EXPECT_EQ(data.events[2].core, 0u);
}

TEST(TraceIo, RejectsVersions1And2) {
  // No writer has emitted v1 (41-byte events) or v2 (no time-series
  // section) since v3: such a blob must fail with a Status, never
  // misparse as v3.
  Fixture f;
  for (const u8 version : {u8{1}, u8{2}}) {
    std::vector<u8> blob = serialize_trace(f.trace, &f.scopes, 2.0);
    blob[8] = version;  // version field follows the 8-byte magic
    TraceData data;
    const Status st = parse_trace(blob, data);
    ASSERT_FALSE(st.ok());
    const std::string want =
        "trace: unsupported format version " + std::to_string(version);
    EXPECT_EQ(st.message(), want);
  }
}

/// A synthetic but faithfully-shaped detection chain: PT-write root, bus
/// write, FIFO accept, bitmap match, IRQ, verdict — plus one verdict whose
/// upstream links were evicted.
TraceData synthetic_chain() {
  TraceData data;
  data.cpu_ghz = 1.0;
  data.seq_end = 7;
  data.events = {
      {10, 0, kNoCause, TraceKind::kPtWrite, 0x8000, 0x703},
      {20, 1, 0, TraceKind::kBusWrite, 0x2000, 0x703},
      {20, 2, 1, TraceKind::kMbmFifo, 0, 100},
      {20, 3, 2, TraceKind::kMbmDetect, 0x2000, 0x703},
      {340, 4, 3, TraceKind::kIrq, 5, 0},
      {2300, 5, 3, TraceKind::kVerdict, 0x2000, 1},
      {2400, 6, 99, TraceKind::kVerdict, 0x3000, 2},
  };
  return data;
}

TEST(TraceReport, AttributionSplitsSyntheticChain) {
  const AttributionReport report = build_attribution(synthetic_chain());
  EXPECT_EQ(report.verdicts_total, 2u);
  EXPECT_EQ(report.verdicts_alert, 1u);
  EXPECT_EQ(report.verdicts_unattributed, 1u);
  EXPECT_EQ(report.broken_chains, 1u);
  ASSERT_EQ(report.chains.size(), 2u);

  const DetectionChain& c = report.chains[0];
  ASSERT_TRUE(c.complete);
  EXPECT_TRUE(c.has_pt_write);
  EXPECT_TRUE(c.has_irq);
  EXPECT_EQ(c.pt_write.seq, 0u);
  EXPECT_EQ(c.bus_snoop, 0u);
  EXPECT_EQ(c.fifo_residency, 0u);
  EXPECT_EQ(c.bitmap_check, 0u);
  EXPECT_EQ(c.irq_delivery, 320u);
  EXPECT_EQ(c.verifier, 1960u);
  EXPECT_EQ(c.end_to_end, 2280u);
  EXPECT_EQ(c.bus_snoop + c.fifo_residency + c.bitmap_check + c.irq_delivery +
                c.verifier,
            c.end_to_end);
  EXPECT_EQ(c.mbm_queue_wait, 0u);
  EXPECT_EQ(c.mbm_service, 100u);
  EXPECT_FALSE(report.chains[1].complete);

  const std::string text = render_attribution(report, 1.0);
  EXPECT_NE(text.find("2 verdict(s), 1 complete chain(s), 1 broken"),
            std::string::npos);
  EXPECT_NE(text.find("root: ptwrite"), std::string::npos);
  EXPECT_NE(text.find("irq-delivery"), std::string::npos);
  EXPECT_NE(text.find("alerts=1"), std::string::npos);
}

TEST(TraceReport, ChromeExportMatchesGolden) {
  TraceData data;
  data.cpu_ghz = 1.0;
  data.seq_end = 2;
  data.events = {
      {1000, 0, kNoCause, TraceKind::kBusWrite, 64, 7},
      {2000, 1, 0, TraceKind::kMbmFifo, 0, 100},
  };
  data.span_names = {"verify"};
  data.spans = {{0, 0, 1500, 1800, 300}};

  const std::string expected =
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"trace events\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"spans\"}},\n"
      "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":1.000,"
      "\"name\":\"buswrite\",\"args\":{\"seq\":0,\"cause\":-1,\"a\":64,"
      "\"b\":7}},\n"
      "{\"ph\":\"s\",\"pid\":1,\"tid\":1,\"ts\":1.000,\"name\":\"cause\","
      "\"cat\":\"cause\",\"id\":1},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":1.500,\"dur\":0.300,"
      "\"name\":\"verify\",\"args\":{\"depth\":0,\"self_cycles\":300}},\n"
      "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":2.000,"
      "\"name\":\"fifo\",\"args\":{\"seq\":1,\"cause\":0,\"a\":0,"
      "\"b\":100}},\n"
      "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":1,\"ts\":2.000,"
      "\"name\":\"cause\",\"cat\":\"cause\",\"id\":1}\n"
      "]}\n";
  EXPECT_EQ(export_chrome_json(data), expected);
}

TEST(TraceReport, DumpAndDiff) {
  const TraceData data = synthetic_chain();
  const std::string all = render_dump(data, "");
  EXPECT_NE(all.find("7 of 7 event(s) shown"), std::string::npos);
  const std::string verdicts = render_dump(data, "verdict");
  EXPECT_NE(verdicts.find("2 of 7 event(s) shown"), std::string::npos);
  EXPECT_EQ(verdicts.find("ptwrite"), std::string::npos);

  EXPECT_EQ(render_diff(data, data).rfind("traces identical", 0), 0u);
  TraceData other = synthetic_chain();
  other.events[3].b = 0x704;
  const std::string diff = render_diff(data, other);
  EXPECT_NE(diff.find("first divergence at event index 3"), std::string::npos);
}

TEST(TraceReport, DiffFlagsCoreProvenanceDivergence) {
  // Two traces identical except for the core an event originated on are
  // different traces: --cores determinism checks rely on this.
  const TraceData data = synthetic_chain();
  TraceData other = synthetic_chain();
  other.events[1].core = 1;
  const std::string diff = render_diff(data, other);
  EXPECT_NE(diff.find("first divergence at event index 1"), std::string::npos);
}

/// Two complete chains with distinct originating cores: the single-core
/// chain events of synthetic_chain() plus a second detection whose
/// monitored store came from core 1.
TraceData smp_synthetic_chains() {
  TraceData data;
  data.cpu_ghz = 1.0;
  data.seq_end = 10;
  data.events = {
      {20, 0, kNoCause, TraceKind::kBusWrite, 0x2000, 0x703, 0},
      {20, 1, 0, TraceKind::kMbmFifo, 0, 100, 0},
      {20, 2, 1, TraceKind::kMbmDetect, 0x2000, 0x703, 0},
      {340, 3, 2, TraceKind::kIrq, 5, 0, 0},
      {2300, 4, 2, TraceKind::kVerdict, 0x2000, 1, 0},
      {3000, 5, kNoCause, TraceKind::kBusWrite, 0x5000, 0xBAD, 1},
      {3000, 6, 5, TraceKind::kMbmFifo, 0, 90, 1},
      {3000, 7, 6, TraceKind::kMbmDetect, 0x5000, 0xBAD, 1},
      {3250, 8, 7, TraceKind::kIrq, 5, 0, 0},
      {4900, 9, 7, TraceKind::kVerdict, 0x5000, 1, 0},
  };
  return data;
}

TEST(TraceReport, PerCoreAttributionAppearsOnlyForSmpTraces) {
  // Single-core traces render exactly as they did before SMP.
  const std::string single =
      render_attribution(build_attribution(synthetic_chain()), 1.0);
  EXPECT_EQ(single.find("per-core attribution"), std::string::npos);
  EXPECT_EQ(single.find("core="), std::string::npos);

  // A trace whose complete chains span two cores groups them.
  const TraceData data = smp_synthetic_chains();
  const AttributionReport report = build_attribution(data);
  ASSERT_EQ(report.chains.size(), 2u);
  ASSERT_TRUE(report.chains[0].complete);
  ASSERT_TRUE(report.chains[1].complete);
  EXPECT_EQ(report.chains[0].bus_write.core, 0u);
  EXPECT_EQ(report.chains[1].bus_write.core, 1u);

  const std::string text = render_attribution(report, 1.0);
  EXPECT_NE(text.find("core=0"), std::string::npos);
  EXPECT_NE(text.find("core=1"), std::string::npos);
  EXPECT_NE(text.find("per-core attribution"), std::string::npos);
}

}  // namespace
}  // namespace hn::sim
