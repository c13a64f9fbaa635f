// The hypercall ABI between the instrumented kernel and Hypersec — the
// contract the ~200 SLoC kernel patch implements in the paper (§6.2).
// Lives in common/ because it is shared by caller (kernel) and callee
// (hypersec) without either depending on the other.
#pragma once

#include "common/types.h"

namespace hn::hvc {

enum Func : u64 {
  /// Write one page-table descriptor: args = {table_pa, index, descriptor}.
  /// Hypersec verifies the request (W^X, secure-region exclusion, PT pages
  /// read-only) and performs the write on the kernel's behalf (§5.2.1).
  kPtWrite = 1,
  /// Register a freshly allocated, zeroed page as a page-table page:
  /// args = {pa, level} (level 0 = root; pa a page inside DRAM).  Hypersec
  /// remaps it read-only in the kernel linear map.
  kPtAlloc = 2,
  /// Retire a page-table page: args = {pa}.  Hypersec restores it to RW
  /// after verifying no live root references it.
  kPtFree = 3,
  /// Register a user page-table root so TTBR0 switches to it validate:
  /// args = {root_pa}, a page registered by kPtAlloc at level 0.
  kPtRegisterRoot = 4,
  /// Drop a user root at process teardown: args = {root_pa}.
  kPtUnregisterRoot = 5,
  /// Security-application hook (§5.3 step 1): register a kernel VA range
  /// for word-granularity monitoring: args = {sid, va, size}.
  kMonRegister = 6,
  /// Remove a monitored range: args = {sid, va, size}.
  kMonUnregister = 7,
  /// The kernel's interrupt handler forwards the MBM interrupt to
  /// Hypersec (§6.2): args = {}.
  kMbmIrq = 8,
  /// Seal loaded module text read-only+executable after staging:
  /// args = {base_pa, pages}.  The only sanctioned W->X transition; the
  /// kernel linear map stays otherwise immutable.
  kModuleSeal = 9,
  /// Return retired module text to plain read-write data:
  /// args = {base_pa, pages}.
  kModuleUnseal = 10,
};

inline constexpr u64 kOk = 0;
inline constexpr u64 kDenied = u64(-1);
inline constexpr u64 kBadArgs = u64(-2);

}  // namespace hn::hvc
