// Little-endian byte encoding for the binary artifact formats (HNTRACE
// traces, HNTSERIE streams): one writer and one bounds-checked reader.
// The formats are little-endian regardless of host byte order.
#pragma once

#include <cstring>
#include <vector>

#include "common/types.h"

namespace hn::le {

inline void put_u8(std::vector<u8>& out, u8 v) { out.push_back(v); }

inline void put_u32(std::vector<u8>& out, u32 v) {
  for (unsigned i = 0; i < 4; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}

inline void put_u64(std::vector<u8>& out, u64 v) {
  for (unsigned i = 0; i < 8; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}

inline void put_f64(std::vector<u8>& out, double v) {
  u64 bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

/// Reads a blob front to back; every read returns false, consuming
/// nothing, when fewer bytes remain than it needs.
class Reader {
 public:
  explicit Reader(const std::vector<u8>& blob) : blob_(blob) {}

  bool u8_(u8& v) {
    if (remaining() < 1) return false;
    v = blob_[pos_++];
    return true;
  }
  bool u32_(u32& v) {
    if (remaining() < 4) return false;
    v = 0;
    for (unsigned i = 0; i < 4; ++i) v |= u32{blob_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return true;
  }
  bool u64_(u64& v) {
    if (remaining() < 8) return false;
    v = 0;
    for (unsigned i = 0; i < 8; ++i) v |= u64{blob_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return true;
  }
  bool f64_(double& v) {
    u64 bits;
    if (!u64_(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
  }
  bool bytes(void* dst, u64 n) {
    if (remaining() < n) return false;
    if (n != 0) std::memcpy(dst, blob_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  [[nodiscard]] u64 remaining() const { return blob_.size() - pos_; }

 private:
  const std::vector<u8>& blob_;
  u64 pos_ = 0;
};

}  // namespace hn::le
