// Strict number parsing for command-line flags and text inputs.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "common/types.h"

namespace hn {

/// Parse an unsigned integer as strtoull's base 0 reads it (decimal, `0x`
/// hex, leading-`0` octal), but only when all of `text` is the number.
/// Rejects what strtoull lets through: empty text, a sign (`-1` would
/// wrap to 2^64-1), leading whitespace, trailing characters, and values
/// past 2^64-1.  `*out` is untouched on failure.
[[nodiscard]] inline bool parse_u64(std::string_view text, u64* out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  const std::string s(text);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 0);
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

/// parse_u64 for 32-bit values; a number that does not fit is rejected.
[[nodiscard]] inline bool parse_u32(std::string_view text, u32* out) {
  u64 v = 0;
  if (!parse_u64(text, &v) || v > std::numeric_limits<u32>::max()) {
    return false;
  }
  *out = static_cast<u32>(v);
  return true;
}

/// Parse a positive, finite number as strtod reads it, but only when all
/// of `text` is the number.  Rejects empty text, a sign, leading
/// whitespace, trailing characters, inf/nan, zero, and values past the
/// range of a double.  `*out` is untouched on failure.
[[nodiscard]] inline bool parse_double(std::string_view text, double* out) {
  if (text.empty() || !(std::isdigit(static_cast<unsigned char>(text[0])) ||
                        text[0] == '.')) {
    return false;
  }
  const std::string s(text);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno == ERANGE || end != s.c_str() + s.size() || !std::isfinite(v) ||
      v <= 0) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace hn
