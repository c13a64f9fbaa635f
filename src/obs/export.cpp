#include "obs/export.h"

#include <cinttypes>
#include <cstdio>

namespace hn::obs {
namespace {

void append_u64(std::string& out, u64 v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

}  // namespace

std::string to_json(const Snapshot& snap) {
  std::string out = "{\n  \"metrics\": [";
  for (size_t i = 0; i < snap.entries.size(); ++i) {
    const SnapshotEntry& e = snap.entries[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"path\": \"" + e.path + "\", \"kind\": \"";
    out += kind_name(e.kind);
    out += "\"";
    if (e.kind == MetricKind::kHistogram) {
      const HistogramData& h = e.hist;
      out += ", \"count\": ";
      append_u64(out, h.total_count);
      out += ", \"weight\": ";
      append_u64(out, h.total_weight);
      if (h.total_count > 0) {
        out += ", \"min\": ";
        append_u64(out, h.min);
        out += ", \"max\": ";
        append_u64(out, h.max);
      }
      out += ", \"buckets\": [";
      bool first = true;
      for (unsigned b = 0; b < HistogramData::kBuckets; ++b) {
        if (h.count[b] == 0) continue;
        if (!first) out += ", ";
        first = false;
        out += "{\"le\": ";
        append_u64(out, HistogramData::bucket_le(b));
        out += ", \"count\": ";
        append_u64(out, h.count[b]);
        out += ", \"weight\": ";
        append_u64(out, h.weight[b]);
        out += "}";
      }
      out += "]}";
    } else {
      out += ", \"value\": ";
      append_u64(out, e.value);
      out += "}";
    }
  }
  out += snap.entries.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::string to_csv(const Snapshot& snap) {
  std::string out = "path,kind,value,count,weight,min,max\n";
  for (const SnapshotEntry& e : snap.entries) {
    out += e.path;
    out += ",";
    out += kind_name(e.kind);
    out += ",";
    if (e.kind == MetricKind::kHistogram) {
      const HistogramData& h = e.hist;
      out += ",";
      append_u64(out, h.total_count);
      out += ",";
      append_u64(out, h.total_weight);
      out += ",";
      append_u64(out, h.total_count > 0 ? h.min : 0);
      out += ",";
      append_u64(out, h.max);
    } else {
      append_u64(out, e.value);
      out += ",,,,";
    }
    out += "\n";
  }
  return out;
}

}  // namespace hn::obs
