#include "common/blob_file.h"

#include <cstdio>

namespace hn {

bool write_blob_file(const std::vector<u8>& blob, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      blob.empty() || std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
  return std::fclose(f) == 0 && ok;
}

bool read_blob_file(const std::string& path, std::vector<u8>& blob) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  blob.clear();
  u8 buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    blob.insert(blob.end(), buf, buf + n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace hn
