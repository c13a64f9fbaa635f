#include "sim/trace_report.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace hn::sim {

namespace {

/// Printf into a std::string tail.
void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, std::min(static_cast<size_t>(n), sizeof buf - 1));
}

double to_us(Cycles cycles, double cpu_ghz) {
  // cycles / GHz = ns; /1000 = µs.  A zero clock rate (malformed header)
  // degrades to cycles-as-µs rather than dividing by zero.
  return cpu_ghz > 0.0 ? static_cast<double>(cycles) / (cpu_ghz * 1000.0)
                       : static_cast<double>(cycles);
}

const char* verdict_name(u64 code) {
  switch (code) {
    case 0: return "benign";
    case 1: return "ALERT";
    case 2: return "unattributed";
  }
  return "?";
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

AttributionReport build_attribution(const TraceData& data) {
  AttributionReport report;
  // seq -> event index, for walking cause links backward.
  std::unordered_map<u64, size_t> by_seq;
  by_seq.reserve(data.events.size());
  for (size_t i = 0; i < data.events.size(); ++i) {
    by_seq.emplace(data.events[i].seq, i);
  }
  // detect seq -> the kIrq event it raised (the IRQ links to the detection
  // via CauseScope; first match wins, one IRQ per ring push).
  std::unordered_map<u64, size_t> irq_for_detect;
  for (size_t i = 0; i < data.events.size(); ++i) {
    const TraceEvent& e = data.events[i];
    if (e.kind == TraceKind::kIrq && e.cause != kNoCause) {
      irq_for_detect.emplace(e.cause, i);
    }
  }
  auto resolve = [&](u64 seq, TraceKind kind, TraceEvent& out) {
    if (seq == kNoCause) return false;
    const auto it = by_seq.find(seq);
    if (it == by_seq.end() || data.events[it->second].kind != kind) {
      return false;
    }
    out = data.events[it->second];
    return true;
  };

  for (const TraceEvent& e : data.events) {
    if (e.core != 0) report.smp_trace = true;
    if (e.kind != TraceKind::kVerdict) continue;
    ++report.verdicts_total;
    if (e.b == 0) ++report.verdicts_benign;
    if (e.b == 1) ++report.verdicts_alert;
    if (e.b == 2) ++report.verdicts_unattributed;

    DetectionChain chain;
    chain.verdict = e;
    const bool linked =
        resolve(e.cause, TraceKind::kMbmDetect, chain.detect) &&
        resolve(chain.detect.cause, TraceKind::kMbmFifo, chain.fifo) &&
        resolve(chain.fifo.cause, TraceKind::kBusWrite, chain.bus_write);
    if (linked) {
      chain.has_pt_write =
          resolve(chain.bus_write.cause, TraceKind::kPtWrite, chain.pt_write);
      const auto irq_it = irq_for_detect.find(chain.detect.seq);
      if (irq_it != irq_for_detect.end()) {
        chain.has_irq = true;
        chain.irq = data.events[irq_it->second];
      }
    }
    chain.complete = linked && chain.has_irq;
    if (chain.complete) {
      chain.bus_snoop = chain.fifo.at - chain.bus_write.at;
      chain.fifo_residency = 0;  // concurrent MBM hardware, not CPU time
      chain.bitmap_check = chain.detect.at - chain.fifo.at;
      chain.irq_delivery = chain.irq.at - chain.detect.at;
      chain.verifier = chain.verdict.at - chain.irq.at;
      chain.end_to_end = chain.verdict.at - chain.bus_write.at;
      chain.mbm_queue_wait = chain.fifo.a;
      chain.mbm_service = chain.fifo.b;
    } else {
      ++report.broken_chains;
    }
    report.chains.push_back(chain);
  }
  return report;
}

std::string render_attribution(const AttributionReport& report,
                               double cpu_ghz) {
  std::string out;
  appendf(out,
          "Detection-latency attribution: %llu verdict(s), %llu complete "
          "chain(s), %llu broken\n",
          static_cast<unsigned long long>(report.verdicts_total),
          static_cast<unsigned long long>(report.chains.size() -
                                          report.broken_chains),
          static_cast<unsigned long long>(report.broken_chains));

  // Originating core of a chain is the core that issued the monitored bus
  // store.  Reports over single-core traces render exactly as before;
  // the core= tags and the per-core grouping below appear for any
  // genuinely SMP trace — even one whose detections all trace back to a
  // single core, since "every alert came
  // from core 1 while core 0 ran clean" is itself the finding.
  const bool multi_core = report.smp_trace;

  u64 n = 0;
  for (const DetectionChain& c : report.chains) {
    ++n;
    appendf(out, "\nchain #%llu: %s pa=%#llx value=%#llx",
            static_cast<unsigned long long>(n), verdict_name(c.verdict.b),
            static_cast<unsigned long long>(c.verdict.a),
            static_cast<unsigned long long>(c.detect.b));
    if (multi_core && c.complete) {
      appendf(out, " core=%u", static_cast<unsigned>(c.bus_write.core));
    }
    out += '\n';
    if (!c.complete) {
      appendf(out,
              "  (incomplete: upstream events evicted from the trace ring)\n");
      continue;
    }
    if (c.has_pt_write) {
      appendf(out, "  root: ptwrite desc_pa=%#llx desc=%#llx (#%llu)\n",
              static_cast<unsigned long long>(c.pt_write.a),
              static_cast<unsigned long long>(c.pt_write.b),
              static_cast<unsigned long long>(c.pt_write.seq));
    }
    appendf(out, "  buswrite #%llu @ %llu cy -> verdict #%llu @ %llu cy\n",
            static_cast<unsigned long long>(c.bus_write.seq),
            static_cast<unsigned long long>(c.bus_write.at),
            static_cast<unsigned long long>(c.verdict.seq),
            static_cast<unsigned long long>(c.verdict.at));
    appendf(out, "  segments (CPU timeline, cycles):\n");
    appendf(out, "    bus-snoop      %8llu\n",
            static_cast<unsigned long long>(c.bus_snoop));
    appendf(out, "    fifo-residency %8llu\n",
            static_cast<unsigned long long>(c.fifo_residency));
    appendf(out, "    bitmap-check   %8llu\n",
            static_cast<unsigned long long>(c.bitmap_check));
    appendf(out, "    irq-delivery   %8llu\n",
            static_cast<unsigned long long>(c.irq_delivery));
    appendf(out, "    verifier       %8llu\n",
            static_cast<unsigned long long>(c.verifier));
    appendf(out, "    end-to-end     %8llu  (%.3f us)\n",
            static_cast<unsigned long long>(c.end_to_end),
            to_us(c.end_to_end, cpu_ghz));
    appendf(out,
            "  mbm pipeline (concurrent, off critical path): queue-wait=%llu "
            "service=%llu\n",
            static_cast<unsigned long long>(c.mbm_queue_wait),
            static_cast<unsigned long long>(c.mbm_service));
  }

  // Aggregate over complete chains.
  struct Agg {
    const char* name;
    Cycles DetectionChain::* field;
  };
  static constexpr Agg kSegments[] = {
      {"bus-snoop", &DetectionChain::bus_snoop},
      {"fifo-residency", &DetectionChain::fifo_residency},
      {"bitmap-check", &DetectionChain::bitmap_check},
      {"irq-delivery", &DetectionChain::irq_delivery},
      {"verifier", &DetectionChain::verifier},
      {"end-to-end", &DetectionChain::end_to_end},
  };
  u64 complete = 0;
  for (const DetectionChain& c : report.chains) complete += c.complete;
  if (complete > 0) {
    appendf(out, "\naggregate over %llu complete chain(s), cycles:\n",
            static_cast<unsigned long long>(complete));
    appendf(out, "  %-15s %10s %10s %10s\n", "segment", "min", "avg", "max");
    for (const Agg& seg : kSegments) {
      u64 mn = ~0ull, mx = 0, sum = 0;
      for (const DetectionChain& c : report.chains) {
        if (!c.complete) continue;
        const Cycles v = c.*seg.field;
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        sum += v;
      }
      appendf(out, "  %-15s %10llu %10llu %10llu\n", seg.name,
              static_cast<unsigned long long>(mn),
              static_cast<unsigned long long>(sum / complete),
              static_cast<unsigned long long>(mx));
    }
  }
  // Per-core grouping: which core's stores the detections trace back to.
  // Cross-core attacks show up here as alerts attributed to a core other
  // than the one serving the victim workload.
  if (multi_core && complete > 0) {
    appendf(out, "\nper-core attribution (originating core of the monitored "
                 "store), cycles:\n");
    appendf(out, "  %-6s %7s %7s %10s %10s %10s\n", "core", "chains", "alerts",
            "e2e-min", "e2e-avg", "e2e-max");
    for (unsigned core = 0; core < 64; ++core) {
      u64 count = 0, alerts = 0, mn = ~0ull, mx = 0, sum = 0;
      for (const DetectionChain& c : report.chains) {
        if (!c.complete || (c.bus_write.core & 63) != core) continue;
        ++count;
        alerts += c.verdict.b == 1;
        mn = std::min(mn, c.end_to_end);
        mx = std::max(mx, c.end_to_end);
        sum += c.end_to_end;
      }
      if (count == 0) continue;
      appendf(out, "  %-6u %7llu %7llu %10llu %10llu %10llu\n", core,
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(alerts),
              static_cast<unsigned long long>(mn),
              static_cast<unsigned long long>(sum / count),
              static_cast<unsigned long long>(mx));
    }
  }

  appendf(out,
          "\ntotals: verdicts=%llu alerts=%llu benign=%llu unattributed=%llu\n",
          static_cast<unsigned long long>(report.verdicts_total),
          static_cast<unsigned long long>(report.verdicts_alert),
          static_cast<unsigned long long>(report.verdicts_benign),
          static_cast<unsigned long long>(report.verdicts_unattributed));
  return out;
}

std::string export_chrome_json(const TraceData& data) {
  // One record per JSON object, keyed by its simulated-cycle timestamp so
  // the merged stream can be stably sorted into a monotonic ts sequence
  // (metadata records sort first at cycle 0).
  struct Record {
    Cycles at = 0;
    std::string json;
  };
  std::vector<Record> records;
  records.reserve(data.events.size() * 2 + data.spans.size() + 2);

  auto ts = [&](Cycles at) { return to_us(at, data.cpu_ghz); };
  char buf[512];

  // Thread names (metadata, pid 1: tid 1 = events, tid 2 = spans).
  records.push_back(
      {0, "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
          "\"args\":{\"name\":\"trace events\"}}"});
  records.push_back(
      {0, "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
          "\"args\":{\"name\":\"spans\"}}"});

  // seq set, so flow arrows only reference events present in the ring.
  std::unordered_map<u64, Cycles> at_by_seq;
  at_by_seq.reserve(data.events.size());
  for (const TraceEvent& e : data.events) at_by_seq.emplace(e.seq, e.at);

  for (const TraceEvent& e : data.events) {
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"name\":\"%s\",\"args\":{\"seq\":%llu,"
                  "\"cause\":%lld,\"a\":%llu,\"b\":%llu}}",
                  ts(e.at), Trace::kind_name(e.kind),
                  static_cast<unsigned long long>(e.seq),
                  e.cause == kNoCause ? -1ll : static_cast<long long>(e.cause),
                  static_cast<unsigned long long>(e.a),
                  static_cast<unsigned long long>(e.b));
    records.push_back({e.at, buf});
    const auto cause_it =
        e.cause != kNoCause ? at_by_seq.find(e.cause) : at_by_seq.end();
    if (cause_it != at_by_seq.end()) {
      // Flow arrow cause -> effect, id'd by the effect's sequence number.
      std::snprintf(buf, sizeof buf,
                    "{\"ph\":\"s\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                    "\"name\":\"cause\",\"cat\":\"cause\",\"id\":%llu}",
                    ts(cause_it->second),
                    static_cast<unsigned long long>(e.seq));
      records.push_back({cause_it->second, buf});
      std::snprintf(buf, sizeof buf,
                    "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"name\":\"cause\",\"cat\":\"cause\","
                    "\"id\":%llu}",
                    ts(e.at), static_cast<unsigned long long>(e.seq));
      records.push_back({e.at, buf});
    }
  }

  for (const obs::ScopeEvent& s : data.spans) {
    const std::string name =
        s.name_id < data.span_names.size()
            ? json_escape(data.span_names[s.name_id])
            : "span-" + std::to_string(s.name_id);
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"%s\",\"args\":{\"depth\":%u,"
                  "\"self_cycles\":%llu}}",
                  ts(s.begin), to_us(s.end - s.begin, data.cpu_ghz),
                  name.c_str(), s.depth,
                  static_cast<unsigned long long>(s.self));
    records.push_back({s.begin, buf});
  }

  // Time-series counter tracks (ph "C", one named track per enrolled
  // metric), interleaved on the same simulated-µs timeline.  Counter
  // tracks carry the stored sample values: per-window deltas for
  // kCounter tracks, levels for kLevel tracks.
  for (const obs::TimeSeriesSample& row : data.timeseries.samples) {
    for (size_t t = 0; t < data.timeseries.tracks.size(); ++t) {
      std::snprintf(buf, sizeof buf,
                    "{\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,\"name\":\"%s\","
                    "\"args\":{\"value\":%llu}}",
                    ts(row.at),
                    json_escape(data.timeseries.tracks[t].name).c_str(),
                    static_cast<unsigned long long>(row.values[t]));
      records.push_back({row.at, buf});
    }
  }

  std::stable_sort(
      records.begin(), records.end(),
      [](const Record& x, const Record& y) { return x.at < y.at; });

  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for (size_t i = 0; i < records.size(); ++i) {
    out += records[i].json;
    if (i + 1 < records.size()) out += ',';
    out += '\n';
  }
  out += "]}\n";
  return out;
}

std::string render_timeline(const TraceData& data) {
  std::string out;
  const obs::TimeSeriesData& ts = data.timeseries;
  if (ts.tracks.empty()) {
    return "timeline: no time-series section in this trace "
           "(run with --sample-cycles=N)\n";
  }

  // Per-core cycle tracks define the core dimension of the report.
  std::vector<int> core_cycles;
  for (unsigned k = 0;; ++k) {
    const int idx = ts.track_index("sim.core" + std::to_string(k) + ".cycles");
    if (idx < 0) break;
    core_cycles.push_back(idx);
  }
  const int fifo_occ = ts.track_index("mbm.fifo.occupancy");
  const int word_writes = ts.track_index("mbm.snoop.word_writes");
  const int fifo_drops = ts.track_index("mbm.fifo.drops");

  appendf(out,
          "Load timeline: %llu window(s) of %llu cycle(s), %llu track(s), "
          "%llu core(s)\n",
          static_cast<unsigned long long>(ts.samples.size()),
          static_cast<unsigned long long>(ts.interval),
          static_cast<unsigned long long>(ts.tracks.size()),
          static_cast<unsigned long long>(core_cycles.size()));

  // Detection chains bucket into windows by the monitored store's bus
  // instant; their end-to-end latencies feed the per-window percentiles.
  const AttributionReport report = build_attribution(data);

  out += "  window-end(cy)";
  for (size_t k = 0; k < core_cycles.size(); ++k) {
    appendf(out, "  util%zu%%", k);
  }
  if (fifo_occ >= 0) out += "  fifo-occ";
  if (word_writes >= 0) out += "  snooped";
  if (fifo_drops >= 0) out += "  drops";
  out += "  det    p50    p95    p99\n";

  Cycles prev = 0;
  for (size_t i = 0; i < ts.samples.size(); ++i) {
    const obs::TimeSeriesSample& row = ts.samples[i];
    if (i == 0) {
      // The first window opens at the arm instant, which lies inside the
      // interval before the first boundary; approximate its span by one
      // interval (clamped to the stamp itself).
      prev = ts.interval != 0 && row.at > ts.interval ? row.at - ts.interval
                                                      : 0;
    }
    const Cycles span = row.at > prev ? row.at - prev : 1;
    appendf(out, "  %14llu", static_cast<unsigned long long>(row.at));
    for (const int idx : core_cycles) {
      const double util = 100.0 *
                          static_cast<double>(row.values[idx]) /
                          static_cast<double>(span);
      appendf(out, "  %5.1f", util);
    }
    if (fifo_occ >= 0) {
      appendf(out, "  %8llu",
              static_cast<unsigned long long>(row.values[fifo_occ]));
    }
    if (word_writes >= 0) {
      appendf(out, "  %7llu",
              static_cast<unsigned long long>(row.values[word_writes]));
    }
    if (fifo_drops >= 0) {
      appendf(out, "  %5llu",
              static_cast<unsigned long long>(row.values[fifo_drops]));
    }
    obs::HistogramData lat;
    for (const DetectionChain& c : report.chains) {
      if (!c.complete) continue;
      const bool in_window =
          (i == 0 ? c.bus_write.at <= row.at
                  : c.bus_write.at > prev && c.bus_write.at <= row.at);
      if (in_window) lat.record(c.end_to_end, 1);
    }
    if (lat.total_count > 0) {
      appendf(out, "  %3llu  %5llu  %5llu  %5llu\n",
              static_cast<unsigned long long>(lat.total_count),
              static_cast<unsigned long long>(lat.percentile(50)),
              static_cast<unsigned long long>(lat.percentile(95)),
              static_cast<unsigned long long>(lat.percentile(99)));
    } else {
      out += "    0      -      -      -\n";
    }
    prev = row.at;
  }

  // Closing totals: the telescoping cross-check against the attribution
  // report and the live-enrolled detection-latency track.  Both sides sum
  // the same per-chain end-to-end latencies, so they must agree exactly
  // on any complete trace (the cross-check test pins this).
  u64 complete = 0;
  u64 e2e_sum = 0;
  for (const DetectionChain& c : report.chains) {
    if (!c.complete) continue;
    ++complete;
    e2e_sum += c.end_to_end;
  }
  appendf(out,
          "\ntotals: chains=%llu complete=%llu end-to-end-sum=%llu cy\n",
          static_cast<unsigned long long>(report.chains.size()),
          static_cast<unsigned long long>(complete),
          static_cast<unsigned long long>(e2e_sum));
  if (ts.track_index("hypersec.detect.e2e_cycles") >= 0) {
    appendf(out, "track hypersec.detect.e2e_cycles sum=%llu cy\n",
            static_cast<unsigned long long>(
                ts.track_total("hypersec.detect.e2e_cycles")));
  }
  for (const char* name : {"mbm.fifo.service_cycles", "mbm.fifo.wait_cycles",
                           "mbm.snoop.word_writes", "mbm.detections"}) {
    if (ts.track_index(name) >= 0) {
      appendf(out, "track %s sum=%llu\n", name,
              static_cast<unsigned long long>(ts.track_total(name)));
    }
  }
  return out;
}

std::string render_dump(const TraceData& data, std::string_view kind_filter) {
  std::string out;
  const double cycles_per_us = data.cpu_ghz * 1000.0;
  u64 shown = 0;
  for (const TraceEvent& e : data.events) {
    if (!kind_filter.empty() && kind_filter != Trace::kind_name(e.kind)) {
      continue;
    }
    ++shown;
    appendf(out, "%12.3fus  #%-6llu %-9s a=%#llx b=%#llx",
            cycles_per_us > 0.0 ? static_cast<double>(e.at) / cycles_per_us
                                : static_cast<double>(e.at),
            static_cast<unsigned long long>(e.seq), Trace::kind_name(e.kind),
            static_cast<unsigned long long>(e.a),
            static_cast<unsigned long long>(e.b));
    if (e.cause != kNoCause) {
      appendf(out, "  <-#%llu", static_cast<unsigned long long>(e.cause));
    }
    out += '\n';
  }
  appendf(out, "(%llu of %llu event(s) shown",
          static_cast<unsigned long long>(shown),
          static_cast<unsigned long long>(data.events.size()));
  if (data.trace_dropped > 0) {
    appendf(out, "; %llu earlier events dropped: seq [0, %llu)",
            static_cast<unsigned long long>(data.trace_dropped),
            static_cast<unsigned long long>(data.first_seq));
  }
  out += ")\n";
  return out;
}

std::string render_diff(const TraceData& a, const TraceData& b) {
  std::string out;
  auto count_kinds = [](const TraceData& d, u64* counts) {
    for (const TraceEvent& e : d.events) ++counts[static_cast<u8>(e.kind)];
  };
  constexpr unsigned kKinds = static_cast<u8>(TraceKind::kSnapshot) + 1;
  u64 ca[kKinds] = {}, cb[kKinds] = {};
  count_kinds(a, ca);
  count_kinds(b, cb);

  bool any = false;
  for (unsigned k = 0; k < kKinds; ++k) {
    if (ca[k] == cb[k]) continue;
    if (!any) appendf(out, "event-count differences (A vs B):\n");
    any = true;
    appendf(out, "  %-9s %llu vs %llu\n",
            Trace::kind_name(static_cast<TraceKind>(k)),
            static_cast<unsigned long long>(ca[k]),
            static_cast<unsigned long long>(cb[k]));
  }

  const size_t n = std::min(a.events.size(), b.events.size());
  size_t first_diff = n;
  for (size_t i = 0; i < n; ++i) {
    const TraceEvent &x = a.events[i], &y = b.events[i];
    if (x.seq != y.seq || x.cause != y.cause || x.at != y.at ||
        x.kind != y.kind || x.a != y.a || x.b != y.b || x.core != y.core) {
      first_diff = i;
      break;
    }
  }
  if (first_diff < n || a.events.size() != b.events.size()) {
    any = true;
    appendf(out, "first divergence at event index %llu:\n",
            static_cast<unsigned long long>(first_diff));
    auto line = [&](const char* tag, const TraceData& d, size_t i) {
      if (i >= d.events.size()) {
        appendf(out, "  %s: <end of trace, %llu event(s)>\n", tag,
                static_cast<unsigned long long>(d.events.size()));
        return;
      }
      const TraceEvent& e = d.events[i];
      appendf(out, "  %s: #%llu %s @%llu a=%#llx b=%#llx cause=%lld\n", tag,
              static_cast<unsigned long long>(e.seq),
              Trace::kind_name(e.kind), static_cast<unsigned long long>(e.at),
              static_cast<unsigned long long>(e.a),
              static_cast<unsigned long long>(e.b),
              e.cause == kNoCause ? -1ll : static_cast<long long>(e.cause));
    };
    line("A", a, first_diff);
    line("B", b, first_diff);
  }
  if (!any) {
    appendf(out, "traces identical: %llu event(s), %llu span(s)\n",
            static_cast<unsigned long long>(a.events.size()),
            static_cast<unsigned long long>(a.spans.size()));
  }
  return out;
}

}  // namespace hn::sim
