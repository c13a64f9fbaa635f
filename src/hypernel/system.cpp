#include "hypernel/system.h"

#include <string>

#include "mbm/bitmap_math.h"

namespace hn::hypernel {

System::~System() = default;

Result<std::unique_ptr<System>> System::create(const SystemConfig& config) {
  std::unique_ptr<System> sys(new System(config));
  if (Status s = sys->build(); !s.ok()) return s;
  return sys;
}

Status System::build() {
  machine_ = std::make_unique<sim::Machine>(config_.machine);
  if (config_.metrics) machine_->set_metrics(true);

  // The MBM is standard under Hypernel; a Native system may also carry it
  // (without Hypersec) to reproduce the bare external-monitor baseline and
  // its ATRA weakness (§2, [15]).
  const bool want_mbm =
      config_.enable_mbm && config_.mode != Mode::kKvmGuest;

  kernel::KernelConfig kcfg = config_.kernel;
  if (kcfg.linear_limit == 0) {
    // A pure native kernel keeps all of DRAM; KVM reserves the top for the
    // host (stage-2 tables); Hypernel — and any system carrying the MBM —
    // reserves it as the secure space (§5.2).
    kcfg.linear_limit = (config_.mode == Mode::kNative && !want_mbm)
                            ? machine_->phys().size()
                            : machine_->secure_base();
  }
  kernel_ = std::make_unique<kernel::Kernel>(*machine_, kcfg);

  if (config_.mode == Mode::kKvmGuest) {
    kvm_ = std::make_unique<kvm::KvmHypervisor>(*machine_, *kernel_,
                                                config_.kvm);
    if (Status s = kvm_->init(); !s.ok()) return s;
  }

  if (Status s = kernel_->boot(); !s.ok()) return s;

  if (want_mbm) {
    // Secure-space layout: [bitmap][event ring][Hypersec stack/data].
    mbm::MbmConfig mcfg;
    mcfg.watch_base = 0;
    mcfg.watch_size = machine_->secure_base();
    mcfg.bitmap_base = machine_->secure_base();
    mcfg.ring_base = page_align_up(mcfg.bitmap_base +
                                   mbm::bitmap_bytes_for(mcfg.watch_size));
    mcfg.ring_entries = config_.mbm_ring_entries;
    mcfg.fifo_depth = config_.mbm_fifo_depth;
    mcfg.bitmap_cache_entries = config_.mbm_bitmap_cache_entries;
    mcfg.bitmap_cache_enabled = config_.mbm_bitmap_cache_enabled;
    const u64 ring_end =
        mcfg.ring_base + mcfg.ring_entries * mbm::kRingEntryBytes;
    if (ring_end > machine_->phys().size()) {
      return Status::Invalid("secure space too small for MBM structures");
    }
    mbm_ = std::make_unique<mbm::MemoryBusMonitor>(*machine_, mcfg);
  }

  if (config_.mode == Mode::kHypernel) {
    hypersec_ = std::make_unique<hypersec::Hypersec>(
        *machine_, *kernel_, mbm_.get(), config_.hypersec);
    if (Status s = hypersec_->init(); !s.ok()) return s;
  }
  return Status::Ok();
}

Status System::register_security_app(hypersec::SecurityApp& app) {
  if (hypersec_ == nullptr) {
    return Status::Precondition(
        "security applications require the Hypernel configuration");
  }
  hypersec_->register_app(app);
  return Status::Ok();
}

System::Snapshot System::snapshot() const {
  Snapshot s;
  s.cycles = machine_->account().cycles();
  s.counters = machine_->account().counters();
  return s;
}

double System::us_since(const Snapshot& s) const {
  return machine_->timing().cycles_to_us(machine_->account().cycles() -
                                         s.cycles);
}

Cycles System::cycles_since(const Snapshot& s) const {
  return machine_->account().cycles() - s.cycles;
}

sim::Counters System::counters_since(const Snapshot& s) const {
  return machine_->account().counters().delta(s.counters);
}

// --- Machine snapshot --------------------------------------------------------

namespace {

inline u64 fold(u64 h, u64 v) {
  return (h ^ v) * 1099511628211ull;  // FNV-1a step over a 64-bit word
}

}  // namespace

u64 System::config_digest() const {
  u64 h = 14695981039346656037ull;
  h = fold(h, static_cast<u64>(config_.mode));
  h = fold(h, config_.machine.dram_size);
  h = fold(h, config_.machine.secure_size);
  h = fold(h, config_.machine.cache.size_bytes);
  h = fold(h, sim::kCacheWays);
  h = fold(h, config_.machine.cache.enabled);
  h = fold(h, config_.machine.tlb_entries);
  // Folded only for SMP machines so every single-core digest (and with it
  // every pre-SMP golden, including pinned snapshot files) is unchanged.
  if (config_.machine.cores > 1) h = fold(h, config_.machine.cores);
  h = fold(h, config_.kernel.use_sections);
  h = fold(h, config_.kernel.linear_limit);
  h = fold(h, config_.kernel.timer_period);
  h = fold(h, config_.enable_mbm);
  h = fold(h, config_.mbm_ring_entries);
  h = fold(h, config_.mbm_fifo_depth);
  h = fold(h, config_.mbm_bitmap_cache_entries);
  h = fold(h, config_.mbm_bitmap_cache_enabled);
  h = fold(h, config_.kvm.eager_map);
  h = fold(h, config_.kvm.thp_backing);
  h = fold(h, config_.kvm.recycle_invalidate_permille);
  h = fold(h, config_.kvm.recycle_min_interval);
  h = fold(h, config_.kvm.recycle_burst);
  h = fold(h, config_.kvm.rng_seed);
  h = fold(h, config_.hypersec.verify_cost);
  h = fold(h, config_.hypersec.mbm_noncacheable_remap);
  return h;
}

std::vector<u8> System::save_state() {
  // The save marker goes in first so it is the last event of the saved
  // ring; every restore links back to it by this sequence id.
  const u64 save_seq = machine_->trace().record(
      machine_->account().cycles(), sim::TraceKind::kSnapshot, 1, 0);
  sim::SnapWriter state;
  state.put_u64(save_seq);
  machine_->save_state(state);
  kernel_->save_state(state);
  state.put_bool(mbm_ != nullptr);
  if (mbm_) mbm_->save_state(state);
  state.put_bool(kvm_ != nullptr);
  if (kvm_) kvm_->save_state(state);
  state.put_bool(hypersec_ != nullptr);
  if (hypersec_) hypersec_->save_state(state);

  sim::SnapWriter w;
  sim::begin_snapshot(w, config_digest(), save_seq);
  w.put_u64(state.data().size());
  w.put_bytes(state.data().data(), state.data().size());
  machine_->phys().save_pages(w);
  return sim::seal_snapshot(w);
}

Status System::restore_state(const std::vector<u8>& bytes) {
  Result<sim::SnapReader> opened = sim::open_snapshot(bytes);
  if (!opened.ok()) return opened.status();
  sim::SnapReader& file = opened.value();
  const u64 digest = file.get_u64();
  file.get_u64();  // save_seq: the layered state opens with it too
  sim::SnapReader r(file.get_span(file.get_count("state")));
  if (!file.ok()) return file.status();
  if (digest != config_digest()) {
    return Status::Invalid(
        "snapshot: configuration digest mismatch (snapshot was taken from a "
        "differently configured system)");
  }
  if (Status s = machine_->phys().restore_pages(file); !s.ok()) return s;
  const u64 save_seq = r.get_u64();
  machine_->restore_state(r);
  kernel_->restore_state(r);
  // The optional layers, each behind a presence flag.
  auto restore_layer = [&r](auto* layer, const char* name) {
    r.section("system");
    const bool saved = r.get_bool();
    if (r.ok() && saved != (layer != nullptr)) {
      r.fail(std::string(name) + " presence does not match this configuration");
    }
    if (r.ok() && layer != nullptr) layer->restore_state(r);
  };
  restore_layer(mbm_.get(), "MBM");
  restore_layer(kvm_.get(), "KVM");
  restore_layer(hypersec_.get(), "Hypersec");
  if (r.ok() && r.remaining() != 0) {
    r.section("system");
    r.fail("trailing bytes after layered state");
  }
  if (Status s = r.status(); !s.ok()) return s;
  // The restored ring ends with the save marker; the restore event links
  // back to it, so offline tools see fork points as explicit edges.
  machine_->trace().record_caused(machine_->account().cycles(),
                                  sim::TraceKind::kSnapshot, save_seq, 2, 0);
  return Status::Ok();
}

}  // namespace hn::hypernel
