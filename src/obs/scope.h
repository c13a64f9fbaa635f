// Observability layer, part 2: the layer scope stack (DESIGN.md §10).
//
// One mechanism says where time went, per system layer, on two clocks.
// Each machine owns one ScopeStack, and code marks a layer's work with a
// Scope guard.  On every enter, exit and core switch the stack charges
// the time elapsed since its last mark to the layer on top of the stack
// (kOther when the stack is empty) and moves the mark.  A layer's row is
// therefore its self time, and the rows sum to the elapsed time by
// construction.
//
// The two clocks:
//
//   * simulated cycles, read from the active core's ledger.  They are
//     deterministic, so they also land in the machine's metrics registry
//     as layer.<name>.scopes and layer.<name>.self_cycles, which fold
//     identically at any --jobs;
//   * host ns (steady_clock), only under --profile.  They reach the
//     LayerReport and never a digest.
//
// set_sim_clock goes on with the metrics registry (--metrics-out,
// --trace-out) and set_host_clock with --profile.  The simulated clock
// runs while either is on (it costs one subtraction per transition), so
// a --profile table always carries both clocks.  Every completed scope
// also lands in a bounded ring (oldest dropped and counted), which the
// flight recorder serializes as its span table, with the layer id as
// name id.
//
// A disabled scope costs one load and one branch.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"

namespace hn::obs {

enum class Layer : u8 {
  kSimMmu,         // every data-access translation (Mmu::translate)
  kSimMem,         // bulk data-transfer loops
  kMbm,            // the memory bus monitor snooping one bus write
  kHypersecHvc,    // a hypercall: trap round trip, verification, handler
  kHypersecTrap,   // a trapped system-register write
  kHypersecAudit,  // an EL2 page-table audit
  kKernelSyscall,  // a syscall, SVC entry to exit
  kSecapps,        // a security app handling one MBM event
  kFuzzBoot,       // building and booting a fuzz run's system
  kFuzzStep,       // a fuzz op, outside the layers above
  kOther,          // everything outside any scope
  kCount,
};

inline constexpr unsigned kLayerCount = static_cast<unsigned>(Layer::kCount);

[[nodiscard]] constexpr const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSimMmu: return "sim.mmu";
    case Layer::kSimMem: return "sim.mem";
    case Layer::kMbm: return "mbm";
    case Layer::kHypersecHvc: return "hypersec.hvc";
    case Layer::kHypersecTrap: return "hypersec.trap";
    case Layer::kHypersecAudit: return "hypersec.audit";
    case Layer::kKernelSyscall: return "kernel.syscall";
    case Layer::kSecapps: return "secapps";
    case Layer::kFuzzBoot: return "fuzz.boot";
    case Layer::kFuzzStep: return "fuzz.step";
    case Layer::kOther: return "other";
    case Layer::kCount: break;
  }
  return "?";
}

struct LayerRow {
  u64 self_cycles = 0;
  u64 self_ns = 0;
  u64 scopes = 0;  // scopes entered
};

/// Per-layer self time on both clocks.  merge() is a sum, so folding
/// runs, cells and sequences is associative.
struct LayerReport {
  std::array<LayerRow, kLayerCount> rows{};

  LayerRow& operator[](Layer l) { return rows[static_cast<unsigned>(l)]; }
  const LayerRow& operator[](Layer l) const {
    return rows[static_cast<unsigned>(l)];
  }
  [[nodiscard]] u64 total_cycles() const;
  [[nodiscard]] u64 total_ns() const;
  void merge(const LayerReport& other);
};

/// The monotonic host clock the stack reads.
[[nodiscard]] u64 host_now_ns();

/// The per-layer table: self cycles and host self-ms, each with its
/// share, and the scope count.  A clock that recorded nothing prints "-".
[[nodiscard]] std::string render_layers(const LayerReport& report);

/// The report a metrics snapshot carries in its layer.* counters.
[[nodiscard]] LayerReport layer_report(const Snapshot& snapshot);

/// Fold the host clock into `snapshot` as layer.<name>.self_ns (the
/// registry already carries the simulated columns).
void fold_self_ns(const LayerReport& report, Snapshot& snapshot);

/// One completed scope, as the ring holds it and the trace's span table
/// stores it.  `name_id` is the layer id for rings recorded here.
struct ScopeEvent {
  u32 name_id = 0;
  u32 depth = 0;  // open scopes below it (0 = outermost)
  Cycles begin = 0;
  Cycles end = 0;
  Cycles self = 0;  // cycles charged while it was on top
};

class ScopeStack {
 public:
  /// `ring_capacity` bounds the completed-scope ring.
  explicit ScopeStack(Registry& registry, u64 ring_capacity = u64{1} << 12);

  ScopeStack(const ScopeStack&) = delete;
  ScopeStack& operator=(const ScopeStack&) = delete;

  /// Point the simulated clock at a cycle ledger.  The open stretch is
  /// settled on the old clock first and the mark restarts on the new
  /// one, so a core switch or a snapshot restore (which rewinds the
  /// ledgers) never subtracts one clock from another.
  void bind_clock(const Cycles* now);
  /// Switching it on registers layer.<name>.{scopes,self_cycles} for
  /// every layer (find-or-create), so only metrics runs carry the rows.
  void set_sim_clock(bool on);
  void set_host_clock(bool on);
  /// Turn the host clock on as if it had started at `since_ns`, charging
  /// [since_ns, now] to `layer` as one scope: work that ran before this
  /// stack's machine existed (a fuzz run's System::create).
  void start_host_clock_at(u64 since_ns, Layer layer);

  [[nodiscard]] bool armed() const { return clocks_ != 0; }

  // Transitions (prefer the Scope guard).  enter() requires armed().
  void enter(Layer layer);
  void exit();
  /// Charge the open stretch to the top layer now, so the registry and
  /// the report are current.  No-op while disarmed.
  void settle();

  /// The rows so far, the open stretch included.
  [[nodiscard]] LayerReport report();

  /// The host instant of the last settle: a report() covers the host
  /// stretch from the moment the host clock started to here.
  [[nodiscard]] u64 host_mark_ns() const { return mark_ns_; }

  [[nodiscard]] unsigned depth() const {
    return static_cast<unsigned>(frames_.size());
  }
  /// Completed scopes in completion order (accounting for ring wrap).
  [[nodiscard]] std::vector<ScopeEvent> chronological() const;
  [[nodiscard]] u64 dropped() const { return dropped_; }
  void clear_ring();

 private:
  static constexpr u8 kSim = 1;
  static constexpr u8 kHost = 2;

  struct Frame {
    Layer layer = Layer::kOther;
    Cycles begin = 0;  // only for the ring
    Cycles self = 0;
  };

  void set_clock(u8 bit, bool on);
  void record(const Frame& f);

  Registry& registry_;
  const Cycles* now_ = nullptr;
  u8 clocks_ = 0;
  Cycles mark_cycles_ = 0;
  u64 mark_ns_ = 0;
  std::vector<Frame> frames_;
  LayerReport report_;
  std::array<Counter, kLayerCount> scopes_{};
  std::array<Counter, kLayerCount> self_cycles_{};
  u64 capacity_;
  std::vector<ScopeEvent> ring_;
  u64 head_ = 0;
  u64 dropped_ = 0;
};

/// RAII scope.  Latches the stack's armed() verdict at entry, so a clock
/// switched mid-scope cannot unbalance the stack.
class Scope {
 public:
  Scope(ScopeStack& stack, Layer layer) {
    if (stack.armed()) {
      stack_ = &stack;
      stack.enter(layer);
    }
  }
  ~Scope() { close(); }
  /// End the scope before the guard's lifetime ends; later calls and the
  /// destructor do nothing.
  void close() {
    if (stack_ != nullptr) stack_->exit();
    stack_ = nullptr;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ScopeStack* stack_ = nullptr;
};

}  // namespace hn::obs
