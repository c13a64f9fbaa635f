// System registers of the simulated AArch64-like machine (Figure 1's
// register landscape): the EL1 virtual-memory controls that HCR_EL2.TVM
// traps, and the EL2 controls Hypersec programs at boot (§6.1).
#pragma once

#include <array>

#include "common/bitops.h"
#include "common/types.h"

namespace hn::sim {

enum class SysReg : unsigned {
  // EL1 (kernel) registers; the virtual-memory subset is TVM-trappable.
  TTBR0_EL1 = 0,
  TTBR1_EL1,
  TCR_EL1,
  SCTLR_EL1,
  MAIR_EL1,
  CONTEXTIDR_EL1,  // carries the ASID in this model
  VBAR_EL1,
  // EL2 (Hypersec / hypervisor) registers.
  HCR_EL2,
  VBAR_EL2,
  VTTBR_EL2,
  SP_EL2,
  TTBR0_EL2,  // EL2 stage-1 root (Hypersec's linear map)
  kCount,
};

/// HCR_EL2 bit assignments (AArch64-faithful where it matters).
inline constexpr unsigned kHcrVm = 0;    // stage-2 translation enable
inline constexpr unsigned kHcrImo = 4;   // route physical IRQ to EL2
inline constexpr unsigned kHcrTvm = 26;  // trap EL1 virtual-memory reg writes

/// True for registers whose EL1 writes HCR_EL2.TVM traps to EL2 (§5.2.2).
constexpr bool is_tvm_trapped(SysReg reg) {
  switch (reg) {
    case SysReg::TTBR0_EL1:
    case SysReg::TTBR1_EL1:
    case SysReg::TCR_EL1:
    case SysReg::SCTLR_EL1:
    case SysReg::MAIR_EL1:
    case SysReg::CONTEXTIDR_EL1:
      return true;
    default:
      return false;
  }
}

class SysRegs {
 public:
  [[nodiscard]] u64 get(SysReg reg) const {
    return regs_[static_cast<unsigned>(reg)];
  }
  void set(SysReg reg, u64 value) { regs_[static_cast<unsigned>(reg)] = value; }

  [[nodiscard]] bool hcr_bit(unsigned b) const {
    return bit(get(SysReg::HCR_EL2), b);
  }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  static constexpr unsigned kRegCount = static_cast<unsigned>(SysReg::kCount);
  /// Raw register slot, by index (snapshot serialization order).
  [[nodiscard]] u64 raw(unsigned index) const { return regs_[index]; }
  void restore_raw(unsigned index, u64 value) { regs_[index] = value; }

 private:
  std::array<u64, static_cast<unsigned>(SysReg::kCount)> regs_{};
};

}  // namespace hn::sim
