// Observability layer, part 3: snapshot exporters (DESIGN.md §10).
//
// Both formats render a path-sorted Snapshot deterministically — equal
// snapshots produce byte-identical files, so exports can be diffed,
// golden-tested and compared across --jobs counts.  JSON is the tool/CI
// interchange format (`--metrics-out=metrics.json`); CSV is the
// spreadsheet-friendly flat table (`--metrics-out=metrics.csv`).
#pragma once

#include <string>

#include "obs/metrics.h"

namespace hn::obs {

/// Render `snap` as a JSON document: {"metrics": [{"path": ...}, ...]}.
/// Histograms carry count/weight/min/max plus their non-empty buckets
/// as inclusive upper bounds ("le").
[[nodiscard]] std::string to_json(const Snapshot& snap);

/// Render `snap` as CSV: path,kind,value,count,weight,min,max — one row
/// per metric; histogram rows use the aggregate columns, scalar rows the
/// value column.
[[nodiscard]] std::string to_csv(const Snapshot& snap);

}  // namespace hn::obs
