// Table 2 exactness pins: reduced cells of the page- vs word-granularity
// experiment (§7.2), with the numbers the experiment reports and the
// snapshot bytes of the monitored system pinned exactly.  The host-side
// tables behind the detection chain (the MBM driver's region table, the
// object monitor's records, the VFS inode and dentry tables) may change
// how they store things, never what the simulated machine does or what a
// snapshot holds; the calibration bands alone would not notice a drift.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "hypernel/fingerprint.h"
#include "hypernel/system.h"
#include "secapps/object_monitor.h"
#include "workloads/apps.h"

namespace hn::workloads {
namespace {

using hypernel::Mode;
using hypernel::System;
using hypernel::SystemConfig;
using secapps::Granularity;

/// FNV-1a over a byte range.
u64 digest(std::span<const u8> bytes) {
  u64 h = hypernel::kFnvOffset;
  for (const u8 b : bytes) h = hypernel::fnv_fold(h, b);
  return h;
}

/// The layered-state section of an HNSNAP file: its length sits at byte
/// 32 of the header, its bytes follow from byte 40 (SnapshotFormat pins
/// both).
std::span<const u8> state_section(const std::vector<u8>& file) {
  u64 size = 0;
  for (int i = 0; i < 8; ++i) size |= static_cast<u64>(file[32 + i]) << (8 * i);
  return std::span<const u8>(file).subspan(40, size);
}

struct Cell {
  const char* app;
  Granularity granularity;
  u64 detections;    // mbm.detections
  u64 events;        // secapps.events_total
  Cycles cycles;     // sim.cycles
  u64 state_digest;  // FNV of the system's state section and the monitor's
};

/// Names the cell in test listings; the default would print the struct's
/// bytes, `app`'s address among them, and the test's name would change
/// from build to build.
void PrintTo(const Cell& cell, std::ostream* os) {
  *os << cell.app
      << (cell.granularity == Granularity::kWholeObject ? " page" : " word");
}

class Table2Exact : public ::testing::TestWithParam<Cell> {};

TEST_P(Table2Exact, CellMatchesItsPinnedNumbers) {
  const Cell& cell = GetParam();
  SystemConfig cfg;
  cfg.mode = Mode::kHypernel;
  cfg.enable_mbm = true;
  auto sys = System::create(cfg).value();
  secapps::ObjectIntegrityMonitor monitor(*sys, cell.granularity);
  ASSERT_TRUE(monitor.install().ok());
  AppParams p;
  p.scale = 0.2;
  run_app_by_name(*sys, cell.app, p);

  EXPECT_EQ(sys->mbm()->stats().detections, cell.detections);
  EXPECT_EQ(monitor.stats().events_total, cell.events);
  EXPECT_EQ(sys->machine().account().cycles(), cell.cycles);
  sim::SnapWriter w;
  monitor.save_state(w);
  const std::vector<u8> file = sys->save_state();
  const u64 state =
      hypernel::fnv_fold(digest(state_section(file)), digest(w.data()));
  EXPECT_EQ(state, cell.state_digest);
}

// Values recorded from the ordered-map implementation these tables
// replaced.
INSTANTIATE_TEST_SUITE_P(
    ReducedCells, Table2Exact,
    ::testing::Values(
        Cell{"untar", Granularity::kWholeObject, 48024, 48024, 111454645,
             8508399748056059494ull},
        Cell{"untar", Granularity::kSensitiveFields, 1982, 1982, 39908571,
             12078614217855137926ull},
        Cell{"apache", Granularity::kWholeObject, 8113, 8113, 52995698,
             1105272522639075238ull},
        Cell{"apache", Granularity::kSensitiveFields, 520, 520, 40194232,
             11094159613269736000ull}),
    [](const ::testing::TestParamInfo<Cell>& cell) {
      return std::string(cell.param.app) +
             (cell.param.granularity == Granularity::kWholeObject ? "_page"
                                                                  : "_word");
    });

}  // namespace
}  // namespace hn::workloads
