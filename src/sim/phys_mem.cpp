#include "sim/phys_mem.h"

namespace hn::sim {

void PhysicalMemory::save_pages(SnapWriter& w) const {
  u64 populated = 0;
  for (const std::unique_ptr<Page>& p : pages_) populated += (p != nullptr);
  w.put_u64(kPageSize);
  w.put_u64(pages_.size());
  w.put_u64(populated);
  for (u64 i = 0; i < pages_.size(); ++i) {
    if (pages_[i] == nullptr) continue;  // zero pages stay implicit
    w.put_u64(i);
    w.put_bytes(pages_[i]->bytes, kPageSize);
  }
}

Status PhysicalMemory::restore_pages(SnapReader& r) {
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
      populated > r.remaining() / (8 + kPageSize)) {
    return Status::Invalid("snapshot: truncated page table");
  }
  // Check every entry before the first page changes.
  SnapReader scan = r;
  for (u64 i = 0, prev_index = 0; i < populated; ++i) {
    const u64 index = scan.get_u64();
    if (index >= total_pages || (i > 0 && index <= prev_index)) {
      return Status::Invalid("snapshot: page table index " +
                             std::to_string(index) +
                             " out of order or out of range");
    }
    scan.get_span(kPageSize);
    prev_index = index;
  }
  if (scan.remaining() != 0) {
    return Status::Invalid("snapshot: trailing bytes after page table");
  }
  if (total_pages != pages_.size()) {
    return Status::Invalid(
        "snapshot: physical memory page count mismatch (snapshot " +
        std::to_string(total_pages) + ", machine " +
        std::to_string(pages_.size()) + ")");
  }
  // Every page whose contents the restore may change gets a fresh watch
  // epoch: the written ones through writable_page(), the freed ones here.
  u64 next = 0;
  auto free_up_to = [&](u64 end) {
    for (; next < end; ++next) {
      if (pages_[next] == nullptr) continue;
      touch_watched(next);
      pages_[next].reset();
    }
  };
  for (u64 i = 0; i < populated; ++i) {
    const u64 index = r.get_u64();
    free_up_to(index);
    std::memcpy(writable_page(index)->bytes, r.get_span(kPageSize).data(),
                kPageSize);
    next = index + 1;
  }
  free_up_to(pages_.size());
  return Status::Ok();
}

}  // namespace hn::sim
