// Whole-file byte I/O for every binary artifact (HNTRACE traces, HNTSERIE
// streams, HNSNAP snapshots, metrics exports): one reader and one writer.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"

namespace hn {

/// Write `blob` to `path`, replacing the file.  Returns false on I/O
/// failure.
[[nodiscard]] bool write_blob_file(const std::vector<u8>& blob,
                                   const std::string& path);

/// Read all of `path` into `blob`.  Returns false on I/O failure.
[[nodiscard]] bool read_blob_file(const std::string& path,
                                  std::vector<u8>& blob);

}  // namespace hn
