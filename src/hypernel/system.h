// Public entry point of the Hypernel library: builds a complete simulated
// system in one of the paper's three evaluation configurations (§7.1):
//
//   kNative   — the kernel alone on the machine,
//   kKvmGuest — the kernel as a guest of the nested-paging hypervisor,
//   kHypernel — the kernel under Hypersec (+ optionally the MBM).
//
// Typical use:
//   hypernel::SystemConfig cfg;
//   cfg.mode = hypernel::Mode::kHypernel;
//   auto sys = hypernel::System::create(cfg).value();
//   sys->kernel().sys_stat("/etc/passwd");
#pragma once

#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "hypersec/hypersec.h"
#include "kernel/kernel.h"
#include "kvm/kvm.h"
#include "mbm/monitor.h"
#include "sim/machine.h"

namespace hn::hypernel {

enum class Mode : u8 { kNative, kKvmGuest, kHypernel };

[[nodiscard]] constexpr const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kNative: return "Native";
    case Mode::kKvmGuest: return "KVM-guest";
    case Mode::kHypernel: return "Hypernel";
  }
  return "?";
}

struct SystemConfig {
  Mode mode = Mode::kHypernel;
  sim::MachineConfig machine;
  kernel::KernelConfig kernel;  // linear_limit derived from mode when 0
  kvm::KvmConfig kvm;
  hypersec::HypersecConfig hypersec;
  /// Attach the MBM (Hypernel mode only).  The bitmap and event ring are
  /// laid out automatically in the secure space.
  bool enable_mbm = true;
  u64 mbm_ring_entries = 8192;
  unsigned mbm_fifo_depth = 64;
  unsigned mbm_bitmap_cache_entries = 16;
  bool mbm_bitmap_cache_enabled = true;
  /// Enable the observability registry (DESIGN.md §10) from the first
  /// instruction of boot, so --metrics-out captures the whole run.
  bool metrics = false;
};

class System {
 public:
  /// Build and boot a system.  On success the kernel is running its init
  /// process and (per mode) KVM or Hypersec is engaged.
  static Result<std::unique_ptr<System>> create(const SystemConfig& config);

  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  [[nodiscard]] Mode mode() const { return config_.mode; }
  sim::Machine& machine() { return *machine_; }
  kernel::Kernel& kernel() { return *kernel_; }
  /// Non-null in kHypernel mode only.
  hypersec::Hypersec* hypersec() { return hypersec_.get(); }
  /// Non-null in kKvmGuest mode only.
  kvm::KvmHypervisor* kvm() { return kvm_.get(); }
  /// Non-null in kHypernel mode with enable_mbm.
  mbm::MemoryBusMonitor* mbm() { return mbm_.get(); }

  /// Register a security application with Hypersec (kHypernel mode).
  Status register_security_app(hypersec::SecurityApp& app);

  // --- Measurement window helpers ------------------------------------------
  struct Snapshot {
    Cycles cycles = 0;
    sim::Counters counters;
  };
  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] double us_since(const Snapshot& s) const;
  [[nodiscard]] Cycles cycles_since(const Snapshot& s) const;
  [[nodiscard]] sim::Counters counters_since(const Snapshot& s) const;

  /// Observability snapshot of the machine's metrics registry (empty
  /// values unless SystemConfig::metrics was set).
  [[nodiscard]] obs::Snapshot metrics_snapshot() const {
    return machine_->metrics_snapshot();
  }

  // --- Machine snapshot (DESIGN.md §12) -------------------------------------
  /// FNV digest of the configuration fields that shape simulated state.
  /// Host-only knobs (fast path, metrics) are excluded: snapshots restore
  /// across them.
  [[nodiscard]] u64 config_digest() const;
  /// The full machine + software state as an HNSNAP file (sim/snapshot.h).
  /// Records a kSnapshot(save) trace event first, so the marker is part of
  /// the saved ring and its sequence id survives as the restore event's
  /// cause link.
  [[nodiscard]] std::vector<u8> save_state();
  /// Restore an HNSNAP file into this live, identically configured system:
  /// the frame, the config digest and the page table are checked before
  /// DRAM and the layered state are replaced (DESIGN.md §12).  Wiring
  /// persists.  A non-OK Status from a layer leaves a system fit only for
  /// destruction.
  /// Records a kSnapshot(restore) event caused by the snapshot's save.
  Status restore_state(const std::vector<u8>& bytes);

 private:
  explicit System(const SystemConfig& config) : config_(config) {}
  Status build();

  SystemConfig config_;
  std::unique_ptr<sim::Machine> machine_;
  std::unique_ptr<kernel::Kernel> kernel_;
  std::unique_ptr<mbm::MemoryBusMonitor> mbm_;
  std::unique_ptr<kvm::KvmHypervisor> kvm_;
  std::unique_ptr<hypersec::Hypersec> hypersec_;
};

}  // namespace hn::hypernel
