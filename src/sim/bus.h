// The system memory bus between the CPU's cache hierarchy and DRAM.
//
// This is the interposition point of the Memory Bus Monitor (§5.3, Fig. 5):
// MBM's bus traffic snooper registers here as a BusSnooper.  Only traffic
// that actually reaches the bus is observable — a write absorbed by a
// write-back cache produces no WriteWord transaction until (and unless) its
// dirty line is evicted, at which point only the *final* line contents are
// visible as one WriteLine.  This is precisely why Hypersec maps monitored
// regions non-cacheable (§5.3), and the tests exercise both sides of that
// trade-off.
//
// A WriteLine carries only the line address.  The cache model holds no
// data, so DRAM already holds the final line contents when the
// transaction reaches the bus; a snooper that needs them reads
// PhysicalMemory.
#pragma once

#include <vector>

#include "common/types.h"
#include "sim/trace.h"

namespace hn::sim {

enum class BusOp : u8 {
  kReadWord,    // non-cacheable word read
  kWriteWord,   // non-cacheable word write: exact address + value visible
  kReadLine,    // cache line fill
  kWriteLine,   // dirty line write-back: final contents are in DRAM
};

struct BusTransaction {
  BusOp op = BusOp::kReadWord;
  PhysAddr paddr = 0;  // word address for word ops, line-aligned for line ops
  u64 value = 0;       // word ops only
  Cycles timestamp = 0;  // CPU cycle count at issue
  /// Flight-recorder provenance: sequence id of the kBusWrite trace event
  /// the issuer stamped for this transaction (kNoCause when tracing is
  /// off or the op records no event).  Snoopers link their own events to
  /// it so offline tools can walk write → detection chains.
  u64 trace_seq = kNoCause;
  /// Issuing core (SMP provenance).  Always 0 on a single-core machine,
  /// so snoopers and digests built before SMP see unchanged values.
  u8 core = 0;
};

/// Interface for passive bus observers (the MBM snooper).
class BusSnooper {
 public:
  virtual ~BusSnooper() = default;
  virtual void on_transaction(const BusTransaction& txn) = 0;
};

class MemoryBus {
 public:
  /// Register a passive observer.  The bus does not own snoopers; callers
  /// guarantee snooper lifetime exceeds bus use (the Machine composition
  /// root enforces this by construction order).
  void attach_snooper(BusSnooper* snooper) { snoopers_.push_back(snooper); }
  void detach_snooper(BusSnooper* snooper) {
    std::erase(snoopers_, snooper);
  }

  void issue(const BusTransaction& txn) {
    ++txn_count_;
    for (BusSnooper* s : snoopers_) s->on_transaction(txn);
  }

  [[nodiscard]] u64 transaction_count() const { return txn_count_; }

  /// Snapshot support: the transaction count is the bus's only
  /// architectural state (snoopers are wiring).
  void restore_transaction_count(u64 n) { txn_count_ = n; }

 private:
  std::vector<BusSnooper*> snoopers_;
  u64 txn_count_ = 0;
};

}  // namespace hn::sim
