#include "sim/trace_io.h"

#include <cstring>
#include <string_view>

#include "common/le_bytes.h"
#include "sim/machine.h"

namespace hn::sim {

using le::put_f64;
using le::put_u32;
using le::put_u64;
using le::put_u8;

std::vector<u8> serialize_trace(const Trace& trace,
                                const obs::ScopeStack* scopes, double cpu_ghz,
                                const obs::TimeSeriesData* timeseries) {
  const std::vector<TraceEvent> events = trace.chronological();
  const std::vector<obs::ScopeEvent> scope_events =
      scopes != nullptr ? scopes->chronological()
                        : std::vector<obs::ScopeEvent>{};
  // The name table is the layer table: a ring stores layer ids.
  const u32 name_count = scopes != nullptr ? obs::kLayerCount : 0;

  std::vector<u8> out;
  out.reserve(64 + events.size() * 42 + scope_events.size() * 32);
  for (const char c : kTraceMagic) out.push_back(static_cast<u8>(c));
  put_u32(out, kTraceFormatVersion);
  put_u32(out, 0);  // reserved
  put_f64(out, cpu_ghz);
  put_u64(out, trace.sequence());
  put_u64(out, trace.first_seq());
  put_u64(out, trace.dropped());
  put_u64(out, scopes != nullptr ? scopes->dropped() : 0);
  put_u64(out, events.size());
  put_u64(out, name_count);
  put_u64(out, scope_events.size());

  for (const TraceEvent& e : events) {
    put_u64(out, e.seq);
    put_u64(out, e.cause);
    put_u64(out, e.at);
    put_u64(out, e.a);
    put_u64(out, e.b);
    put_u8(out, static_cast<u8>(e.kind));
    put_u8(out, e.core);
  }
  for (u32 id = 0; id < name_count; ++id) {
    const std::string_view name = obs::layer_name(static_cast<obs::Layer>(id));
    put_u32(out, static_cast<u32>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
  }
  for (const obs::ScopeEvent& s : scope_events) {
    put_u32(out, s.name_id);
    put_u32(out, s.depth);
    put_u64(out, s.begin);
    put_u64(out, s.end);
    put_u64(out, s.self);
  }
  // Time-series section: a length-prefixed embedded HNTSERIE blob (zero
  // length when the run sampled nothing).
  if (timeseries != nullptr && !timeseries->tracks.empty()) {
    const std::vector<u8> ts = obs::serialize_timeseries(*timeseries);
    put_u64(out, ts.size());
    out.insert(out.end(), ts.begin(), ts.end());
  } else {
    put_u64(out, 0);
  }
  return out;
}

std::vector<u8> capture_trace(Machine& machine) {
  if (machine.timeseries().armed()) {
    obs::TimeSeriesData ts = machine.timeseries().data(machine.bus_order_now());
    ts.cpu_ghz = machine.timing().cpu_ghz;
    return serialize_trace(machine.trace(), &machine.scopes(),
                           machine.timing().cpu_ghz, &ts);
  }
  return serialize_trace(machine.trace(), &machine.scopes(),
                         machine.timing().cpu_ghz);
}

std::vector<u8> capture_timeseries(Machine& machine) {
  if (!machine.timeseries().armed()) return {};
  obs::TimeSeriesData ts = machine.timeseries().data(machine.bus_order_now());
  ts.cpu_ghz = machine.timing().cpu_ghz;
  return obs::serialize_timeseries(ts);
}

Status parse_trace(const std::vector<u8>& blob, TraceData& out) {
  le::Reader r(blob);
  char magic[8];
  if (!r.bytes(magic, 8) || std::memcmp(magic, kTraceMagic, 8) != 0) {
    return Status::Invalid("trace: bad magic (not a HNTRACE file)");
  }
  u32 reserved = 0;
  if (!r.u32_(out.version) || !r.u32_(reserved)) {
    return Status::Invalid("trace: truncated header");
  }
  if (out.version != kTraceFormatVersion) {
    return Status::Invalid("trace: unsupported format version " +
                           std::to_string(out.version));
  }
  u64 event_count = 0, name_count = 0, span_count = 0;
  if (!r.f64_(out.cpu_ghz) || !r.u64_(out.seq_end) || !r.u64_(out.first_seq) ||
      !r.u64_(out.trace_dropped) || !r.u64_(out.span_dropped) ||
      !r.u64_(event_count) || !r.u64_(name_count) || !r.u64_(span_count)) {
    return Status::Invalid("trace: truncated header");
  }
  // Each event is 42 bytes; cheap sanity bound before reserving.
  if (event_count * 42 > r.remaining()) {
    return Status::Invalid("trace: truncated event table");
  }
  out.events.clear();
  out.events.reserve(event_count);
  for (u64 i = 0; i < event_count; ++i) {
    TraceEvent e;
    u8 kind = 0;
    if (!r.u64_(e.seq) || !r.u64_(e.cause) || !r.u64_(e.at) || !r.u64_(e.a) ||
        !r.u64_(e.b) || !r.u8_(kind) || !r.u8_(e.core)) {
      return Status::Invalid("trace: truncated event table");
    }
    if (kind > static_cast<u8>(TraceKind::kSnapshot)) {
      return Status::Invalid("trace: unknown event kind " +
                             std::to_string(kind));
    }
    e.kind = static_cast<TraceKind>(kind);
    out.events.push_back(e);
  }
  out.span_names.clear();
  out.span_names.reserve(name_count);
  for (u64 i = 0; i < name_count; ++i) {
    u32 len = 0;
    if (!r.u32_(len) || len > r.remaining()) {
      return Status::Invalid("trace: truncated span name table");
    }
    std::string name(len, '\0');
    if (len > 0 && !r.bytes(name.data(), len)) {
      return Status::Invalid("trace: truncated span name table");
    }
    out.span_names.push_back(std::move(name));
  }
  if (span_count * 32 > r.remaining()) {
    return Status::Invalid("trace: truncated span table");
  }
  out.spans.clear();
  out.spans.reserve(span_count);
  for (u64 i = 0; i < span_count; ++i) {
    obs::ScopeEvent s;
    if (!r.u32_(s.name_id) || !r.u32_(s.depth) || !r.u64_(s.begin) ||
        !r.u64_(s.end) || !r.u64_(s.self)) {
      return Status::Invalid("trace: truncated span table");
    }
    if (s.name_id >= out.span_names.size()) {
      return Status::Invalid("trace: span references unknown name id " +
                             std::to_string(s.name_id));
    }
    out.spans.push_back(s);
  }
  out.timeseries = obs::TimeSeriesData{};
  u64 ts_len = 0;
  if (!r.u64_(ts_len) || ts_len > r.remaining()) {
    return Status::Invalid("trace: truncated time-series section");
  }
  if (ts_len > 0) {
    std::vector<u8> ts_blob(ts_len);
    if (!r.bytes(ts_blob.data(), ts_len)) {
      return Status::Invalid("trace: truncated time-series section");
    }
    if (Status s = obs::parse_timeseries(ts_blob, out.timeseries); !s.ok()) {
      return s;
    }
  }
  if (r.remaining() != 0) {
    return Status::Invalid("trace: trailing bytes after span table");
  }
  return Status::Ok();
}

}  // namespace hn::sim
