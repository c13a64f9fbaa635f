#include "sim/snapshot.h"

namespace hn::sim {

namespace {

// FNV-1a over a byte range, used as the file's trailing integrity check.
// Mirrors the fingerprint fold constants (hypernel/fingerprint.h) without
// depending on the hypernel layer.
constexpr u64 kFnvOffset = 1469598103934665603ull;
constexpr u64 kFnvPrime = 1099511628211ull;

u64 fnv_bytes(u64 h, const u8* data, u64 len) {
  for (u64 i = 0; i < len; ++i) {
    h = (h ^ data[i]) * kFnvPrime;
  }
  return h;
}

}  // namespace

void begin_snapshot(SnapWriter& w, u64 config_digest, u64 save_seq) {
  for (const char c : kSnapshotMagic) w.put_u8(static_cast<u8>(c));
  w.put_u32(kSnapshotFormatVersion);
  w.put_u32(0);  // reserved
  w.put_u64(config_digest);
  w.put_u64(save_seq);
}

std::vector<u8> seal_snapshot(SnapWriter& w) {
  std::vector<u8> out = w.take();
  const u64 checksum = fnv_bytes(kFnvOffset, out.data(), out.size());
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<u8>(checksum >> (8 * i)));
  return out;
}

Result<SnapReader> open_snapshot(std::span<const u8> bytes) {
  if (bytes.size() < 8 ||
      std::memcmp(bytes.data(), kSnapshotMagic, 8) != 0) {
    return Status::Invalid("snapshot: bad magic (not a HNSNAP file)");
  }
  if (bytes.size() < 8 + 8) {
    return Status::Invalid("snapshot: truncated header");
  }
  // Verify the trailing checksum before trusting any field.
  const u64 payload = bytes.size() - 8;
  u64 stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<u64>(bytes[payload + i]) << (8 * i);
  }
  if (stored != fnv_bytes(kFnvOffset, bytes.data(), payload)) {
    return Status::Invalid("snapshot: checksum mismatch (corrupt file)");
  }
  SnapReader r(bytes.first(payload));
  r.get_span(8);  // magic
  const u32 version = r.get_u32();
  if (r.ok() && version != kSnapshotFormatVersion) {
    return Status::Invalid("snapshot: unsupported format version " +
                           std::to_string(version));
  }
  r.get_u32();  // reserved
  return r;
}

}  // namespace hn::sim
