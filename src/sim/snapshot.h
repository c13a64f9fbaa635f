// Machine-snapshot persistence: full serialize/restore of machine +
// kernel state in one versioned binary form, HNSNAP (DESIGN.md §12),
// following the trace_io idiom.
//
// An HNSNAP file holds, in order:
//
//   * a header: magic, version, a reserved word, the digest of the
//     configuration the snapshot was taken from, and the sequence id of
//     the save marker in the trace ring;
//   * the layered state: a length-prefixed little-endian section every
//     software/hardware layer appends its architectural state to via
//     SnapWriter and restores from via SnapReader (each layer owns a
//     `save_state`/`restore_state` pair; hypernel::System orchestrates
//     the fixed layer order);
//   * the populated-page table of DRAM (PhysicalMemory::save_pages);
//   * a trailing FNV-1a checksum of everything before it.
//
// Restores target a *live* system of the identical configuration
// (validated by the config digest): component objects, handler wiring
// and host-side caches persist; only architectural state is replaced.
// Corrupt files are rejected with precise diagnostics, like parse_trace.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace hn::sim {

/// Binary snapshot format version.  Bump on any layout change; the parser
/// rejects versions it does not understand.  v2: SMP (per-core machine
/// sections, bus arbiter + pending-IPI state, per-event core provenance,
/// per-core kernel scheduler state).  v3: drops the per-core vm
/// generation and the TLB generation, two host-cache invalidation
/// counters that are no longer kept.
inline constexpr u32 kSnapshotFormatVersion = 3;

/// 8-byte file magic: "HNSNAP\0\0".
inline constexpr char kSnapshotMagic[8] = {'H', 'N', 'S', 'N', 'A', 'P', 0, 0};

/// Little-endian append writer for the layered state blob.  Deterministic:
/// equal machine states produce byte-identical blobs (snapshot files can
/// be diffed and golden-tested like trace files).
class SnapWriter {
 public:
  void put_u8(u8 v) { buf_.push_back(v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u16(u16 v) {
    for (int i = 0; i < 2; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
  }
  void put_u32(u32 v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
  }
  void put_u64(u64 v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
  }
  void put_f64(double v) {
    u64 bits;
    std::memcpy(&bits, &v, 8);
    put_u64(bits);
  }
  void put_bytes(const void* src, u64 n) {
    const u8* p = static_cast<const u8*>(src);
    buf_.insert(buf_.end(), p, p + n);
  }
  void put_string(const std::string& s) {
    put_u32(static_cast<u32>(s.size()));
    put_bytes(s.data(), s.size());
  }

  [[nodiscard]] const std::vector<u8>& data() const { return buf_; }
  [[nodiscard]] std::vector<u8> take() { return std::move(buf_); }

 private:
  std::vector<u8> buf_;
};

/// A hash map's entries in ascending key order, so a save writes the same
/// bytes whatever order the table holds them in.
template <class Map>
std::vector<const typename Map::value_type*> sorted_entries(const Map& map) {
  std::vector<const typename Map::value_type*> out;
  out.reserve(map.size());
  for (const auto& entry : map) out.push_back(&entry);
  std::sort(out.begin(), out.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return out;
}

/// Bounds-checked little-endian reader with a latched failure state, so
/// per-layer restore code reads fields linearly and checks `ok()` once.
/// The first failure records which section was being parsed; all later
/// reads return zero values without advancing.
class SnapReader {
 public:
  explicit SnapReader(std::span<const u8> blob) : blob_(blob) {}

  /// Name the section subsequent reads belong to (for diagnostics).
  void section(const char* name) { section_ = name; }
  /// Latch an explicit validation failure against the current section.
  void fail(const std::string& what) {
    if (!failed_) {
      failed_ = true;
      error_ = "snapshot: " + std::string(section_) + ": " + what;
    }
  }

  u8 get_u8() {
    u8 v = 0;
    get_bytes(&v, 1);
    return v;
  }
  bool get_bool() { return get_u8() != 0; }
  u16 get_u16() {
    u8 raw[2] = {};
    get_bytes(raw, 2);
    return static_cast<u16>(raw[0] | (raw[1] << 8));
  }
  u32 get_u32() {
    u8 raw[4] = {};
    get_bytes(raw, 4);
    u32 v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<u32>(raw[i]) << (8 * i);
    return v;
  }
  u64 get_u64() {
    u8 raw[8] = {};
    get_bytes(raw, 8);
    u64 v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<u64>(raw[i]) << (8 * i);
    return v;
  }
  double get_f64() {
    const u64 bits = get_u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  /// Copies the next `n` bytes; zeroes `dst` once the reader has failed.
  void get_bytes(void* dst, u64 n) {
    const std::span<const u8> src = get_span(n);
    if (src.size() == n) {
      std::copy(src.begin(), src.end(), static_cast<u8*>(dst));
    } else {
      std::memset(dst, 0, n);
    }
  }
  /// The next `n` bytes in place; empty (and failed) when fewer remain.
  std::span<const u8> get_span(u64 n) {
    if (failed_ || n > remaining()) {
      fail("truncated state");
      return {};
    }
    pos_ += n;
    return blob_.subspan(pos_ - n, n);
  }
  std::string get_string() {
    const u32 len = get_u32();
    if (len > remaining()) {
      fail("truncated string");
      return {};
    }
    std::string s(len, '\0');
    if (len > 0) get_bytes(s.data(), len);
    return s;
  }
  /// Element count for a container about to be read; fails (and returns 0)
  /// when even one-byte elements could not fit in the remaining bytes.
  u64 get_count(const char* what) {
    const u64 n = get_u64();
    if (n > remaining()) {
      fail(std::string("truncated ") + what + " table");
      return 0;
    }
    return n;
  }

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] u64 remaining() const { return blob_.size() - pos_; }
  [[nodiscard]] Status status() const {
    return failed_ ? Status::Invalid(error_) : Status::Ok();
  }

 private:
  std::span<const u8> blob_;
  u64 pos_ = 0;
  bool failed_ = false;
  const char* section_ = "header";
  std::string error_;
};

/// Start an HNSNAP file: magic, version, the reserved word, the config
/// digest and the save marker's sequence id.
void begin_snapshot(SnapWriter& w, u64 config_digest, u64 save_seq);

/// Finish an HNSNAP file: append the checksum of everything written so far.
[[nodiscard]] std::vector<u8> seal_snapshot(SnapWriter& w);

/// Check an HNSNAP file's frame: magic, header length, then the trailing
/// checksum before any field is trusted, then the version.  On success
/// the reader covers the rest of the file up to the checksum, starting
/// at the config digest.
Result<SnapReader> open_snapshot(std::span<const u8> bytes);

}  // namespace hn::sim
