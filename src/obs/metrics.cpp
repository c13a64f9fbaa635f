#include "obs/metrics.h"

#include <algorithm>

namespace hn::obs {

detail::Metric* Registry::slot(std::string_view path, MetricKind kind) {
  auto it = metrics_.find(path);
  if (it == metrics_.end()) {
    it = metrics_.emplace(std::string(path), detail::Metric{}).first;
    it->second.kind = kind;
    if (kind == MetricKind::kHistogram) {
      it->second.hist = std::make_unique<HistogramData>();
    }
  } else if (it->second.kind != kind) {
    return nullptr;  // kind mismatch: caller gets an inert handle
  }
  return &it->second;
}

Counter Registry::counter(std::string_view path) {
  Counter c;
  c.slot_ = slot(path, MetricKind::kCounter);
  c.on_ = &enabled_;
  return c;
}

Gauge Registry::gauge(std::string_view path) {
  Gauge g;
  g.slot_ = slot(path, MetricKind::kGauge);
  g.on_ = &enabled_;
  return g;
}

Histogram Registry::histogram(std::string_view path) {
  Histogram h;
  h.slot_ = slot(path, MetricKind::kHistogram);
  h.on_ = &enabled_;
  return h;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.entries.reserve(metrics_.size());
  for (const auto& [path, metric] : metrics_) {
    SnapshotEntry e;
    e.path = path;
    e.kind = metric.kind;
    e.value = metric.value;
    if (metric.hist != nullptr) e.hist = *metric.hist;
    snap.entries.push_back(std::move(e));
  }
  return snap;
}

void Registry::reset_values() {
  for (auto& [path, metric] : metrics_) {
    metric.value = 0;
    if (metric.hist != nullptr) *metric.hist = HistogramData{};
  }
}

void Snapshot::merge(const Snapshot& other) {
  std::vector<SnapshotEntry> merged;
  merged.reserve(entries.size() + other.entries.size());
  size_t a = 0;
  size_t b = 0;
  while (a < entries.size() || b < other.entries.size()) {
    if (b >= other.entries.size() ||
        (a < entries.size() && entries[a].path < other.entries[b].path)) {
      merged.push_back(std::move(entries[a++]));
      continue;
    }
    if (a >= entries.size() || other.entries[b].path < entries[a].path) {
      merged.push_back(other.entries[b++]);
      continue;
    }
    // Same path: fold by kind.  A kind conflict keeps the left entry
    // untouched (registries built by the same code never conflict).
    SnapshotEntry e = std::move(entries[a++]);
    const SnapshotEntry& o = other.entries[b++];
    if (e.kind == o.kind) {
      switch (e.kind) {
        case MetricKind::kCounter: e.value += o.value; break;
        case MetricKind::kGauge: e.value = std::max(e.value, o.value); break;
        case MetricKind::kHistogram: e.hist.merge(o.hist); break;
      }
    }
    merged.push_back(std::move(e));
  }
  entries = std::move(merged);
}

const SnapshotEntry* Snapshot::find(std::string_view path) const {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), path,
      [](const SnapshotEntry& e, std::string_view p) { return e.path < p; });
  if (it == entries.end() || it->path != path) return nullptr;
  return &*it;
}

u64 Snapshot::value(std::string_view path) const {
  const SnapshotEntry* e = find(path);
  return e == nullptr ? 0 : e->value;
}

u64 Snapshot::rollup(std::string_view prefix) const {
  u64 sum = 0;
  for (const SnapshotEntry& e : entries) {
    if (e.kind != MetricKind::kCounter) continue;
    if (e.path == prefix ||
        (e.path.size() > prefix.size() && e.path[prefix.size()] == '.' &&
         e.path.compare(0, prefix.size(), prefix) == 0)) {
      sum += e.value;
    }
  }
  return sum;
}

}  // namespace hn::obs
