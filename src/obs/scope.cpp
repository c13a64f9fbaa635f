#include "obs/scope.h"

#include <cassert>
#include <chrono>
#include <cstdio>

namespace hn::obs {

namespace {

std::string layer_path(unsigned layer, const char* column) {
  return std::string("layer.") + layer_name(static_cast<Layer>(layer)) + "." +
         column;
}

}  // namespace

u64 LayerReport::total_cycles() const {
  u64 t = 0;
  for (const LayerRow& r : rows) t += r.self_cycles;
  return t;
}

u64 LayerReport::total_ns() const {
  u64 t = 0;
  for (const LayerRow& r : rows) t += r.self_ns;
  return t;
}

void LayerReport::merge(const LayerReport& other) {
  for (unsigned l = 0; l < kLayerCount; ++l) {
    rows[l].self_cycles += other.rows[l].self_cycles;
    rows[l].self_ns += other.rows[l].self_ns;
    rows[l].scopes += other.rows[l].scopes;
  }
}

u64 host_now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string render_layers(const LayerReport& report) {
  const u64 cycles = report.total_cycles();
  const u64 ns = report.total_ns();
  // A clock that recorded nothing prints "-" rather than a column of 0s.
  auto cells = [](u64 value, u64 total, double scale, const char* fmt,
                  char* num, char* share) {
    if (total == 0) {
      std::snprintf(num, 24, "-");
      std::snprintf(share, 16, "-");
      return;
    }
    std::snprintf(num, 24, fmt, static_cast<double>(value) / scale);
    std::snprintf(share, 16, "%.1f%%",
                  100.0 * static_cast<double>(value) /
                      static_cast<double>(total));
  };
  std::string out;
  char line[160];
  char cyc[24], cyc_share[16], ms[24], ms_share[16];
  std::snprintf(line, sizeof(line), "%-15s %15s %7s %12s %7s %10s\n", "layer",
                "self_cycles", "share", "self_ms", "share", "scopes");
  out += line;
  for (unsigned l = 0; l < kLayerCount; ++l) {
    const LayerRow& r = report.rows[l];
    if (r.self_cycles == 0 && r.self_ns == 0 && r.scopes == 0) continue;
    cells(r.self_cycles, cycles, 1.0, "%.0f", cyc, cyc_share);
    cells(r.self_ns, ns, 1e6, "%.3f", ms, ms_share);
    std::snprintf(line, sizeof(line), "%-15s %15s %7s %12s %7s %10llu\n",
                  layer_name(static_cast<Layer>(l)), cyc, cyc_share, ms,
                  ms_share, static_cast<unsigned long long>(r.scopes));
    out += line;
  }
  cells(cycles, cycles, 1.0, "%.0f", cyc, cyc_share);
  cells(ns, ns, 1e6, "%.3f", ms, ms_share);
  std::snprintf(line, sizeof(line), "%-15s %15s %7s %12s %7s\n", "total", cyc,
                cyc_share, ms, ms_share);
  out += line;
  return out;
}

LayerReport layer_report(const Snapshot& snapshot) {
  LayerReport out;
  for (unsigned l = 0; l < kLayerCount; ++l) {
    out.rows[l].self_cycles = snapshot.value(layer_path(l, "self_cycles"));
    out.rows[l].self_ns = snapshot.value(layer_path(l, "self_ns"));
    out.rows[l].scopes = snapshot.value(layer_path(l, "scopes"));
  }
  return out;
}

void fold_self_ns(const LayerReport& report, Snapshot& snapshot) {
  Registry reg;
  reg.set_enabled(true);
  for (unsigned l = 0; l < kLayerCount; ++l) {
    reg.counter(layer_path(l, "self_ns")).add(report.rows[l].self_ns);
  }
  snapshot.merge(reg.snapshot());
}

// --- ScopeStack ---------------------------------------------------------------

ScopeStack::ScopeStack(Registry& registry, u64 ring_capacity)
    : registry_(registry), capacity_(ring_capacity) {
  assert(ring_capacity > 0);
}

void ScopeStack::settle() {
  if (!armed()) return;
  const Layer top = frames_.empty() ? Layer::kOther : frames_.back().layer;
  LayerRow& row = report_[top];
  if (now_ != nullptr) {
    const Cycles now = *now_;
    const Cycles d = now - mark_cycles_;
    mark_cycles_ = now;
    row.self_cycles += d;
    self_cycles_[static_cast<unsigned>(top)].add(d);
    if (!frames_.empty()) frames_.back().self += d;
  }
  if ((clocks_ & kHost) != 0) {
    const u64 now = host_now_ns();
    row.self_ns += now - mark_ns_;
    mark_ns_ = now;
  }
}

void ScopeStack::bind_clock(const Cycles* now) {
  settle();
  now_ = now;
  if (now_ != nullptr) mark_cycles_ = *now_;
}

void ScopeStack::set_clock(u8 bit, bool on) {
  const u8 next = on ? static_cast<u8>(clocks_ | bit)
                     : static_cast<u8>(clocks_ & ~bit);
  if (next == clocks_) return;
  settle();  // close the stretch under the old switches
  if (clocks_ == 0 && now_ != nullptr) mark_cycles_ = *now_;
  if (bit == kHost && on) mark_ns_ = host_now_ns();
  clocks_ = next;
}

void ScopeStack::set_sim_clock(bool on) {
  if (on && (clocks_ & kSim) == 0) {  // find-or-create: idempotent
    for (unsigned l = 0; l < kLayerCount; ++l) {
      scopes_[l] = registry_.counter(layer_path(l, "scopes"));
      self_cycles_[l] = registry_.counter(layer_path(l, "self_cycles"));
    }
  }
  set_clock(kSim, on);
}

void ScopeStack::set_host_clock(bool on) { set_clock(kHost, on); }

void ScopeStack::start_host_clock_at(u64 since_ns, Layer layer) {
  assert((clocks_ & kHost) == 0);
  set_host_clock(true);
  report_[layer].self_ns += mark_ns_ - since_ns;
  report_[layer].scopes += 1;
}

void ScopeStack::enter(Layer layer) {
  assert(armed());
  settle();
  Frame f;
  f.layer = layer;
  f.begin = now_ != nullptr ? *now_ : 0;
  frames_.push_back(f);
  report_[layer].scopes += 1;
  scopes_[static_cast<unsigned>(layer)].add();
}

void ScopeStack::exit() {
  assert(!frames_.empty());
  settle();
  const Frame f = frames_.back();
  frames_.pop_back();
  if (armed()) record(f);
}

void ScopeStack::record(const Frame& f) {
  ScopeEvent e;
  e.name_id = static_cast<u32>(f.layer);
  e.depth = static_cast<u32>(frames_.size());
  e.begin = f.begin;
  // A scope open across a core switch ends on another core's clock;
  // clamp so its duration never goes negative (its self time is exact).
  e.end = now_ != nullptr && *now_ > f.begin ? *now_ : f.begin;
  e.self = f.self;
  if (ring_.size() == capacity_) {
    ring_[head_] = e;
    head_ = (head_ + 1) % capacity_;
    ++dropped_;
    return;
  }
  ring_.push_back(e);
}

LayerReport ScopeStack::report() {
  settle();
  return report_;
}

std::vector<ScopeEvent> ScopeStack::chronological() const {
  std::vector<ScopeEvent> out;
  out.reserve(ring_.size());
  for (u64 i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void ScopeStack::clear_ring() {
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

}  // namespace hn::obs
