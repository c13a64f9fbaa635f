#include "mbm/monitor.h"

#include <cassert>

namespace hn::mbm {

MemoryBusMonitor::MemoryBusMonitor(sim::Machine& machine,
                                   const MbmConfig& config)
    : machine_(machine),
      config_(config),
      fifo_(config.fifo_depth),
      bitmap_cache_(config.bitmap_cache_entries, config.bitmap_cache_enabled),
      ring_(machine, config.ring_base, config.ring_entries) {
  assert(config_.watch_size > 0);
  assert(machine_.phys().contains(config_.bitmap_base,
                                  bitmap_bytes_for(config_.watch_size)));
  assert(machine_.phys().contains(config_.ring_base,
                                  config_.ring_entries * kRingEntryBytes));
  obs::Registry& obs = machine_.obs();
  obs_word_writes_ = obs.counter("mbm.snoop.word_writes");
  obs_fifo_drops_ = obs.counter("mbm.fifo.drops");
  obs_fifo_high_water_ = obs.gauge("mbm.fifo.high_water");
  obs_cache_hits_ = obs.counter("mbm.bitmap.cache_hits");
  obs_cache_misses_ = obs.counter("mbm.bitmap.cache_misses");
  obs_fetches_ = obs.counter("mbm.bitmap.fetches");
  obs_detections_ = obs.counter("mbm.detections");
  obs_irqs_ = obs.counter("mbm.irqs");
  obs_service_cycles_ = obs.histogram("mbm.fifo.service_cycles");
  // Time-series tracks probe the raw accumulators (not the registry
  // handles), so sampled streams exist even with metrics disabled.
  // Enrollment order here is part of the deterministic serialization
  // order: machine per-core tracks, then these, then kernel/hypersec.
  obs::TimeSeries& ts = machine_.timeseries();
  ts.enroll("mbm.fifo.occupancy", obs::TrackKind::kLevel,
            [this] { return static_cast<u64>(fifo_.occupancy()); });
  ts.enroll("mbm.fifo.drops", obs::TrackKind::kCounter,
            [this] { return fifo_.drops(); });
  ts.enroll("mbm.fifo.wait_cycles", obs::TrackKind::kCounter,
            [this] { return fifo_wait_cycles_; });
  ts.enroll("mbm.fifo.service_cycles", obs::TrackKind::kCounter,
            [this] { return fifo_service_cycles_; });
  ts.enroll("mbm.fifo.service_count", obs::TrackKind::kCounter,
            [this] { return fifo_service_count_; });
  ts.enroll("mbm.snoop.word_writes", obs::TrackKind::kCounter,
            [this] { return snooped_word_writes_; });
  ts.enroll("mbm.detections", obs::TrackKind::kCounter,
            [this] { return detections_; });
  machine_.bus().attach_snooper(this);
}

MemoryBusMonitor::~MemoryBusMonitor() {
  machine_.timeseries().unenroll_prefix("mbm.");
  machine_.bus().detach_snooper(this);
}

void MemoryBusMonitor::on_transaction(const sim::BusTransaction& txn) {
  // The snooper captures writes only (§6.3), line write-backs only in
  // the conservative mode.
  const bool snooped =
      txn.op == sim::BusOp::kWriteWord ||
      (txn.op == sim::BusOp::kWriteLine && config_.snoop_line_writebacks);
  if (!enabled_ || !snooped) return;
  obs::Scope scope(machine_.scopes(), obs::Layer::kMbm);
  if (txn.op == sim::BusOp::kWriteWord) {
    handle_word_write(txn.paddr, txn.value, txn.timestamp,
                      /*from_line=*/false, txn.trace_seq);
    return;
  }
  ++snooped_line_writes_;
  // The cache model holds no data, so DRAM already holds the line's final
  // contents.  Read the whole line before handling any word: a detection's
  // IRQ handler may rewrite it, and the snooper must see the contents the
  // write-back put on the bus.
  u64 words[kCacheLineSize / kWordSize] = {};
  machine_.phys().read_block(txn.paddr, words, kCacheLineSize);
  for (u64 i = 0; i < kCacheLineSize / kWordSize; ++i) {
    handle_word_write(txn.paddr + i * kWordSize, words[i], txn.timestamp,
                      /*from_line=*/true, txn.trace_seq);
  }
}

void MemoryBusMonitor::handle_word_write(PhysAddr pa, u64 value, Cycles t,
                                         bool from_line, u64 cause_seq) {
  const u64 bitmap_len = bitmap_bytes();
  // A write to the bitmap itself keeps the bitmap cache coherent
  // (write-update, §6.3) and is not a monitored event.
  if (ranges_overlap(pa, kWordSize, config_.bitmap_base, bitmap_len)) {
    bitmap_cache_.observe_write(word_align_down(pa), value);
    return;
  }
  if (!ranges_overlap(pa, 1, config_.watch_base, config_.watch_size)) return;
  if (!from_line) {
    ++snooped_word_writes_;
    obs_word_writes_.add();
  }

  // Bitmap translator: locate the monitoring bit.
  const u64 bit = bit_index_for(pa, config_.watch_base);
  const PhysAddr word_addr = bitmap_word_addr(bit, config_.bitmap_base);

  const BitmapCache::LookupResult lr = bitmap_cache_.lookup(word_addr);
  if (lr.hit) {
    obs_cache_hits_.add();
  } else {
    obs_cache_misses_.add();
  }
  const Cycles service = machine_.timing().mbm_event_process +
                         (lr.hit ? 0 : machine_.timing().mbm_bitmap_fetch);
  obs_service_cycles_.record_cycles(service);
  fifo_service_cycles_ += service;
  ++fifo_service_count_;
  const WriteFifo::Offer offer = fifo_.offer(CapturedWrite{pa, value, t}, t, service);
  // High-water marks *offered* occupancy, before the drop check: a
  // rejected offer means the FIFO sat at full depth, which is exactly
  // the peak the gauge exists to record (the burst-overflow regression
  // test pins this — the gauge must reach fifo_depth under overflow).
  obs_fifo_high_water_.set_max(fifo_.occupancy());
  if (!offer.accepted) {
    obs_fifo_drops_.add();
    return;  // capture lost: the FIFO overflowed under burst
  }
  fifo_wait_cycles_ += offer.wait;
  // Flight recorder: the FIFO enqueue links back to the bus write that the
  // snooper captured.  a/b carry the modeled (hardware-concurrent) queue
  // wait and translator service cycles — they do not advance the CPU clock,
  // so the event shares the bus-write timestamp.
  const u64 fifo_seq = machine_.trace().record_caused(
      t, sim::TraceKind::kMbmFifo, cause_seq, offer.wait, offer.service);

  u64 word = lr.value;
  if (!lr.hit) {
    // Read-allocate fetch of the bitmap word through the MBM's own memory
    // port (does not charge CPU cycles; the MBM runs concurrently).
    word = machine_.phys().read64(word_addr);
    bitmap_cache_.fill(word_addr, word);
    ++bitmap_fetches_;
    obs_fetches_.add();
  }

  // Decision unit.
  if ((word >> bit_position(bit)) & 1) {
    ++detections_;
    obs_detections_.add();
    const u64 detect_seq = machine_.trace().record_caused(
        t, sim::TraceKind::kMbmDetect, fifo_seq, pa, value);
    MonitorEvent mev{pa, value};
    mev.trace_seq = detect_seq;
    mev.at = t;
    if (ring_.push(mev)) {
      ++irqs_raised_;
      obs_irqs_.add();
      // The IRQ (and everything its handler does on this synchronous path)
      // is causally downstream of the detection.
      sim::Trace::CauseScope irq_cause(machine_.trace(), detect_seq);
      machine_.raise_irq(config_.irq_line);
    }
  }
}

MbmStats MemoryBusMonitor::stats() const {
  MbmStats s;
  s.snooped_word_writes = snooped_word_writes_;
  s.snooped_line_writes = snooped_line_writes_;
  s.fifo_drops = fifo_.drops();
  s.fifo_wait_cycles = fifo_wait_cycles_;
  s.fifo_service_cycles = fifo_service_cycles_;
  s.bitmap_cache_hits = bitmap_cache_.hits();
  s.bitmap_cache_misses = bitmap_cache_.misses();
  s.bitmap_fetches = bitmap_fetches_;
  s.detections = detections_;
  s.ring_overflow_drops = ring_.overflow_drops();
  s.irqs_raised = irqs_raised_;
  return s;
}

void MemoryBusMonitor::reset_stats() {
  snooped_word_writes_ = 0;
  snooped_line_writes_ = 0;
  bitmap_fetches_ = 0;
  detections_ = 0;
  irqs_raised_ = 0;
  fifo_wait_cycles_ = 0;
  fifo_service_cycles_ = 0;
  fifo_service_count_ = 0;
  fifo_.reset();
}

}  // namespace hn::mbm
