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

std::vector<u8> pack_snapshot(const Snapshot& snap) {
  const u64 total_pages = snap.pages.page_count();
  const u64 populated = snap.pages.populated_count();

  SnapWriter w;
  for (const char c : kSnapshotMagic) w.put_u8(static_cast<u8>(c));
  w.put_u32(kSnapshotFormatVersion);
  w.put_u32(0);  // reserved
  w.put_u64(snap.config_digest);
  w.put_u64(snap.save_seq);
  w.put_u64(snap.state.size());
  w.put_bytes(snap.state.data(), snap.state.size());
  w.put_u64(kPageSize);
  w.put_u64(total_pages);
  w.put_u64(populated);
  for (u64 i = 0; i < total_pages; ++i) {
    const u8* bytes = snap.pages.page_data(i);
    if (bytes == nullptr) continue;  // zero pages stay implicit
    w.put_u64(i);
    w.put_bytes(bytes, kPageSize);
  }
  std::vector<u8> out = w.take();
  u64 checksum = fnv_bytes(kFnvOffset, out.data(), out.size());
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<u8>(checksum >> (8 * i)));
  return out;
}

Status unpack_snapshot(const std::vector<u8>& blob, Snapshot& out) {
  if (blob.size() < 8 ||
      std::memcmp(blob.data(), kSnapshotMagic, 8) != 0) {
    return Status::Invalid("snapshot: bad magic (not a HNSNAP file)");
  }
  if (blob.size() < 8 + 8) {
    return Status::Invalid("snapshot: truncated header");
  }
  // Verify the trailing checksum before trusting any field.
  u64 stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<u64>(blob[blob.size() - 8 + i]) << (8 * i);
  }
  const u64 computed = fnv_bytes(kFnvOffset, blob.data(), blob.size() - 8);
  if (stored != computed) {
    return Status::Invalid("snapshot: checksum mismatch (corrupt file)");
  }

  SnapReader r(blob);
  u8 magic[8];
  r.get_bytes(magic, 8);
  const u32 version = r.get_u32();
  if (r.ok() && version != kSnapshotFormatVersion) {
    return Status::Invalid("snapshot: unsupported format version " +
                           std::to_string(version));
  }
  r.get_u32();  // reserved
  out.config_digest = r.get_u64();
  out.save_seq = r.get_u64();
  const u64 state_size = r.get_count("state");
  out.state.assign(state_size, 0);
  r.get_bytes(out.state.data(), state_size);

  r.section("page table");
  const u64 page_size = r.get_u64();
  if (r.ok() && page_size != kPageSize) {
    return Status::Invalid("snapshot: page size " + std::to_string(page_size) +
                           " does not match the simulated granule");
  }
  const u64 total_pages = r.get_u64();
  const u64 populated = r.get_u64();
  if (!r.ok()) return r.status();
  if (populated > total_pages ||
      populated * (8 + kPageSize) > r.remaining()) {
    return Status::Invalid("snapshot: truncated page table");
  }
  out.pages.reset(total_pages);
  u64 prev_index = 0;
  for (u64 i = 0; i < populated; ++i) {
    const u64 index = r.get_u64();
    if (index >= total_pages || (i > 0 && index <= prev_index)) {
      return Status::Invalid("snapshot: page table index " +
                             std::to_string(index) +
                             " out of order or out of range");
    }
    u8 bytes[kPageSize];
    r.get_bytes(bytes, kPageSize);
    if (!r.ok()) return r.status();
    out.pages.set_page(index, bytes);
    prev_index = index;
  }
  if (r.remaining() != 8) {  // exactly the checksum must remain
    return Status::Invalid("snapshot: trailing bytes after page table");
  }
  return Status::Ok();
}

}  // namespace hn::sim
