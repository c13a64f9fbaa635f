// Machine-snapshot tests (DESIGN.md §12).
//
// Three layers, mirroring the feature's own structure:
//
//   * the page store — the zero sentinel, whole-page frees, and the
//     populated-page table it writes and reads;
//   * the HNSNAP file format — golden header bytes, deterministic
//     serialization, and precise rejection of every corruption class,
//     modeled on trace_recorder_test;
//   * whole-system round trips — an empty (freshly booted) machine and a
//     post-rootkit-scenario system both restore into live twins that are
//     functionally indistinguishable from the original.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/blob_file.h"
#include "common/rng.h"
#include "hypernel/fingerprint.h"
#include "hypernel/system.h"
#include "kernel/layout.h"
#include "kernel/objects.h"
#include "secapps/object_monitor.h"
#include "sim/phys_mem.h"
#include "sim/snapshot.h"

namespace hn::sim {
namespace {

using hypernel::Mode;
using hypernel::System;
using hypernel::SystemConfig;

// ---------------------------------------------------------------------------
// Page store
// ---------------------------------------------------------------------------

constexpr u64 kMemBytes = 16 * kPageSize;

/// `mem`'s populated-page table, as a snapshot carries it.
std::vector<u8> page_table(const PhysicalMemory& mem) {
  SnapWriter w;
  mem.save_pages(w);
  return w.take();
}

TEST(CowPages, FreshMemoryAllocatesNoPages) {
  PhysicalMemory mem(kMemBytes);
  ASSERT_EQ(mem.page_count(), 16u);
  for (u64 i = 0; i < mem.page_count(); ++i) {
    EXPECT_EQ(mem.page_data(i), nullptr);
  }
  EXPECT_EQ(mem.read64(0), 0u);
  EXPECT_EQ(mem.read64(kMemBytes - 8), 0u);
  // The table of a fresh memory lists no page.
  EXPECT_EQ(page_table(mem).size(), 3 * 8u);
}

TEST(CowPages, ZeroingAWholePageReclaimsSharing) {
  // A whole-page zero frees the page back to the sentinel; a table saved
  // before it keeps the old bytes and brings them back.
  PhysicalMemory mem(kMemBytes);
  mem.write64(2 * kPageSize, 0x99);
  const std::vector<u8> saved = page_table(mem);
  mem.zero_range(2 * kPageSize, kPageSize);
  EXPECT_EQ(mem.page_data(2), nullptr);
  EXPECT_EQ(mem.read64(2 * kPageSize), 0u);
  SnapReader r(saved);
  ASSERT_TRUE(mem.restore_pages(r).ok());
  EXPECT_EQ(mem.read64(2 * kPageSize), 0x99u);
}

TEST(CowPages, AdoptRejectsPageCountMismatch) {
  PhysicalMemory small(kMemBytes);
  PhysicalMemory big(2 * kMemBytes);
  big.write64(0, 0x77);
  const std::vector<u8> saved = page_table(small);
  SnapReader r(saved);
  const Status s = big.restore_pages(r);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("page count mismatch"), std::string::npos);
  EXPECT_EQ(big.read64(0), 0x77u);  // rejected before any page changed
}

TEST(PageStore, RestoreReplacesEveryPageAndRenewsWatchedEpochs) {
  // Pages the table holds are written, pages it leaves out are freed, and
  // every watched page whose contents may change gets a fresh epoch (the
  // audit memo's contract, DESIGN.md §14).  A watched page that is zero
  // on both sides keeps its epoch.
  PhysicalMemory from(kMemBytes);
  from.write64(1 * kPageSize, 0x11);
  from.write64(3 * kPageSize + 8, 0x33);
  const std::vector<u8> saved = page_table(from);

  PhysicalMemory mem(kMemBytes);
  mem.write64(1 * kPageSize, 0xAA);  // overwritten
  mem.write64(2 * kPageSize, 0xBB);  // freed
  for (const u64 page : {1, 2, 3, 4}) mem.watch_page(page);
  std::vector<u64> before;
  for (const u64 page : {1, 2, 3, 4}) before.push_back(mem.page_epoch(page));

  SnapReader r(saved);
  ASSERT_TRUE(mem.restore_pages(r).ok());
  EXPECT_EQ(mem.read64(1 * kPageSize), 0x11u);
  EXPECT_EQ(mem.page_data(2), nullptr);
  EXPECT_EQ(mem.read64(3 * kPageSize + 8), 0x33u);
  EXPECT_EQ(mem.page_data(4), nullptr);
  EXPECT_GT(mem.page_epoch(1), before[0]);
  EXPECT_GT(mem.page_epoch(2), before[1]);
  EXPECT_GT(mem.page_epoch(3), before[2]);
  EXPECT_EQ(mem.page_epoch(4), before[3]);
  EXPECT_EQ(page_table(mem), saved);
}

// ---------------------------------------------------------------------------
// File format (modeled on trace_recorder_test)
// ---------------------------------------------------------------------------

// Mirrors the writer's checksum so corruption tests can tamper with a
// field and re-seal the file: the parser must reject the *field*, not
// just notice the broken trailer.
u64 snapshot_checksum(const std::vector<u8>& blob, u64 payload_len) {
  u64 h = 1469598103934665603ull;
  for (u64 i = 0; i < payload_len; ++i) {
    h = (h ^ blob[i]) * 1099511628211ull;
  }
  return h;
}

void reseal(std::vector<u8>& blob) {
  const u64 sum = snapshot_checksum(blob, blob.size() - 8);
  for (int i = 0; i < 8; ++i) {
    blob[blob.size() - 8 + i] = static_cast<u8>(sum >> (8 * i));
  }
}

u64 peek_u64(const std::vector<u8>& blob, size_t off) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(blob[off + i]) << (8 * i);
  return v;
}

void poke_u64(std::vector<u8>& blob, size_t off, u64 v) {
  for (int i = 0; i < 8; ++i) blob[off + i] = static_cast<u8>(v >> (8 * i));
}

// Fixed header layout: magic(8) version(4) reserved(4) digest(8) seq(8)
// state_size(8), the state, then the page table: page size(8), page
// count(8), populated count(8), then index(8) and bytes per page.
constexpr size_t kDigestOff = 16;
constexpr size_t kStateSizeOff = 32;
constexpr size_t kStateOff = 40;

/// A system on a 64 MiB machine: small enough that a snapshot of it
/// checksums and restores in a few milliseconds.
std::unique_ptr<System> make_small(Mode mode, bool mbm) {
  SystemConfig cfg;
  cfg.mode = mode;
  cfg.enable_mbm = mbm;
  cfg.machine.dram_size = 64ull * 1024 * 1024;
  auto r = System::create(cfg);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

/// A freshly booted Native system and its snapshot file.
struct SampleSnapshot {
  std::unique_ptr<System> sys = make_small(Mode::kNative, /*mbm=*/false);
  std::vector<u8> blob = sys->save_state();
  size_t page_size_off = kStateOff + peek_u64(blob, kStateSizeOff);

  /// Restore `bytes` into the sample's own system.
  Status restore(const std::vector<u8>& bytes) {
    return sys->restore_state(bytes);
  }
};

TEST(SnapshotFormat, GoldenHeaderBytes) {
  const SampleSnapshot s;
  ASSERT_GE(s.blob.size(), kStateOff);
  const u8 kGolden[16] = {
      'H', 'N', 'S', 'N', 'A', 'P', 0, 0,  // magic
      3,   0,   0,   0,                    // version 3, little-endian
      0,   0,   0,   0,                    // reserved
  };
  EXPECT_EQ(std::memcmp(s.blob.data(), kGolden, sizeof kGolden), 0);
  // Config digest immediately follows the fixed header; the state section
  // sits at a fixed offset, and the page table follows it.
  EXPECT_EQ(peek_u64(s.blob, kDigestOff), s.sys->config_digest());
  ASSERT_LT(s.page_size_off + 24, s.blob.size());
  EXPECT_EQ(peek_u64(s.blob, s.page_size_off), kPageSize);
  EXPECT_EQ(peek_u64(s.blob, s.page_size_off + 8),
            s.sys->machine().phys().page_count());
}

TEST(SnapshotFormat, SerializationIsDeterministic) {
  const SampleSnapshot a;
  const SampleSnapshot b;
  EXPECT_EQ(a.blob, b.blob);
}

TEST(SnapshotFormat, PackUnpackRoundTrip) {
  // The file restores into a twin whose DRAM matches the original page
  // for page: pages the twin wrote on its own are freed, zero pages stay
  // implicit, and the twin writes the same file back.
  const SampleSnapshot s;
  auto twin = make_small(Mode::kNative, /*mbm=*/false);
  const PhysicalMemory& theirs = s.sys->machine().phys();
  PhysicalMemory& mine = twin->machine().phys();
  u64 stray = 0;
  while (theirs.page_data(stray) != nullptr) ++stray;
  mine.write64(stray * kPageSize, 0x5757);
  ASSERT_TRUE(twin->restore_state(s.blob).ok());
  u64 populated = 0;
  for (u64 i = 0; i < theirs.page_count(); ++i) {
    ASSERT_EQ(mine.page_data(i) == nullptr, theirs.page_data(i) == nullptr)
        << "page " << i;
    if (theirs.page_data(i) == nullptr) continue;
    ++populated;
    EXPECT_EQ(std::memcmp(mine.page_data(i), theirs.page_data(i), kPageSize),
              0)
        << "page " << i;
  }
  EXPECT_EQ(populated, peek_u64(s.blob, s.page_size_off + 16));
  EXPECT_EQ(twin->save_state(), s.blob);
}

TEST(SnapshotFormat, FileRoundTrip) {
  const SampleSnapshot s;
  const std::string path = ::testing::TempDir() + "hn_snapshot_test.hnsnap";
  ASSERT_TRUE(write_blob_file(s.blob, path));
  std::vector<u8> read_back;
  ASSERT_TRUE(read_blob_file(path, read_back));
  EXPECT_EQ(read_back, s.blob);
  EXPECT_FALSE(read_blob_file(path + ".does-not-exist", read_back));
}

TEST(SnapshotFormat, RejectsBadMagic) {
  SampleSnapshot s;
  std::vector<u8> blob = s.blob;
  blob[0] ^= 0xFF;
  const Status st = s.restore(blob);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "snapshot: bad magic (not a HNSNAP file)");
  EXPECT_EQ(s.restore({}).message(), st.message());
}

TEST(SnapshotFormat, RejectsTruncatedHeader) {
  SampleSnapshot s;
  const std::vector<u8> stub(s.blob.begin(), s.blob.begin() + 12);
  const Status st = s.restore(stub);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "snapshot: truncated header");
}

TEST(SnapshotFormat, RejectsChecksumMismatch) {
  // A flipped payload byte and a dropped trailing byte are both checksum
  // failures: the integrity check runs before any field is trusted.
  SampleSnapshot s;
  std::vector<u8> flipped = s.blob;
  flipped[20] ^= 0x01;
  Status st = s.restore(flipped);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "snapshot: checksum mismatch (corrupt file)");

  const std::vector<u8> shorter(s.blob.begin(), s.blob.end() - 1);
  st = s.restore(shorter);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "snapshot: checksum mismatch (corrupt file)");
}

TEST(SnapshotFormat, RejectsUnsupportedVersion) {
  // 2 is the previous layout (it carried the vm and TLB generations): a
  // v2 file must fail with a Status, never misparse as v3.
  SampleSnapshot s;
  for (const u8 version : {u8{99}, u8{2}}) {
    std::vector<u8> blob = s.blob;
    blob[8] = version;
    reseal(blob);
    const Status st = s.restore(blob);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.message(), "snapshot: unsupported format version " +
                                std::to_string(version));
  }
}

TEST(SnapshotFormat, RejectsForeignPageSize) {
  SampleSnapshot s;
  std::vector<u8> blob = s.blob;
  poke_u64(blob, s.page_size_off, 2 * kPageSize);
  reseal(blob);
  const Status st = s.restore(blob);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(),
            "snapshot: page size " + std::to_string(2 * kPageSize) +
                " does not match the simulated granule");
}

TEST(SnapshotFormat, RejectsOverlongPageTable) {
  SampleSnapshot s;
  std::vector<u8> blob = s.blob;
  const size_t populated_off = s.page_size_off + 16;
  poke_u64(blob, populated_off, peek_u64(blob, populated_off) + 1);
  reseal(blob);
  const Status st = s.restore(blob);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "snapshot: truncated page table");
}

TEST(SnapshotFormat, RejectsOutOfRangePageIndex) {
  SampleSnapshot s;
  const u64 pages = s.sys->machine().phys().page_count();
  std::vector<u8> blob = s.blob;
  poke_u64(blob, s.page_size_off + 24, pages);  // first entry's index
  reseal(blob);
  Status st = s.restore(blob);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "snapshot: page table index " +
                              std::to_string(pages) +
                              " out of order or out of range");
  // One more page than this machine has: every index is in range for the
  // file, but the file does not fit the machine.
  blob = s.blob;
  poke_u64(blob, s.page_size_off + 8, pages + 1);
  reseal(blob);
  st = s.restore(blob);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("page count mismatch"), std::string::npos)
      << st.message();
}

TEST(SnapshotFormat, RejectsTrailingBytes) {
  SampleSnapshot s;
  std::vector<u8> blob = s.blob;
  blob.insert(blob.end() - 8, u8{0});
  reseal(blob);
  const Status st = s.restore(blob);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "snapshot: trailing bytes after page table");
}

// ---------------------------------------------------------------------------
// Corruption sweep: every corrupted file either fails to restore with a
// Status, or restores a system that runs a syscall and tears down cleanly.
// The checksum is resealed after each change, so the sweep reaches the
// parsers behind it.  Run it under HN_SANITIZE=address,undefined too.
// ---------------------------------------------------------------------------

/// A 64 MiB Hypernel system with some of every kernel table in use
/// (files, a second process, user memory, a pipe, a socket pair), as a
/// snapshot file.
std::vector<u8> busy_snapshot() {
  auto sys = make_small(Mode::kHypernel, /*mbm=*/true);
  kernel::Kernel& k = sys->kernel();
  EXPECT_TRUE(k.sys_mkdir("/d").ok());
  Result<u64> ino = k.sys_creat("/d/f");
  EXPECT_TRUE(ino.ok());
  const std::vector<u8> data(2 * kPageSize, 0x5A);
  EXPECT_TRUE(k.sys_write(ino.value(), 0, data.data(), data.size()).ok());
  Result<u32> pid = k.sys_fork();
  EXPECT_TRUE(pid.ok());
  k.procs().switch_to(*k.procs().find(pid.value()));
  EXPECT_TRUE(k.sys_execve().ok());
  EXPECT_TRUE(k.run_user_memory(256, 16, /*seed=*/3).ok());
  Result<u32> pipe = k.sys_pipe();
  EXPECT_TRUE(pipe.ok());
  EXPECT_TRUE(k.sys_pipe_write(pipe.value(), kernel::kUserHeapBase, 64).ok());
  Result<u32> socket = k.sys_socketpair();
  EXPECT_TRUE(socket.ok());
  EXPECT_TRUE(
      k.sys_socket_send(socket.value(), 0, kernel::kUserHeapBase, 64).ok());
  return sys->save_state();
}

/// Restore `bytes` into a fresh twin.  A rejection must be a snapshot
/// diagnostic; an accepted state must serve a syscall.  Either way the
/// twin is then destroyed.  Returns whether the restore was accepted.
bool restore_and_run(const std::vector<u8>& bytes) {
  auto twin = make_small(Mode::kHypernel, /*mbm=*/true);
  const Status s = twin->restore_state(bytes);
  if (!s.ok()) {
    EXPECT_EQ(s.message().rfind("snapshot: ", 0), 0u) << s.message();
    return false;
  }
  (void)twin->kernel().sys_creat("/after-restore");
  return true;
}

TEST(SnapshotCorruption, TruncatedStateIsRejected) {
  // Cut the layered state short at a fixed stride, with the header's
  // length field moved to match: the file stays well formed around a
  // state that ends early.
  const std::vector<u8> good = busy_snapshot();
  const u64 state_size = peek_u64(good, kStateSizeOff);
  constexpr u64 kCuts = 96;
  for (u64 cut = 0; cut < kCuts; ++cut) {
    const u64 keep = state_size * cut / kCuts;
    std::vector<u8> bad = good;
    bad.erase(bad.begin() + kStateOff + keep,
              bad.begin() + kStateOff + state_size);
    poke_u64(bad, kStateSizeOff, keep);
    reseal(bad);
    EXPECT_FALSE(restore_and_run(bad)) << "state cut to " << keep << " bytes";
  }
}

TEST(SnapshotCorruption, SeededFlipsAreRejectedOrRun) {
  // One byte XORed with a non-zero mask per case, at a seeded offset in
  // the header, the layered state or the page table.
  const std::vector<u8> good = busy_snapshot();
  const u64 state_size = peek_u64(good, kStateSizeOff);
  const u64 page_table = kStateOff + state_size;
  struct Region {
    const char* name;
    u64 begin;
    u64 end;
    unsigned flips;
  };
  SplitMix64 rng(0x5EED'0F'F11B5ull);
  unsigned accepted = 0;
  unsigned rejected = 0;
  for (const Region& region :
       {Region{"header", 0, kStateOff, 40},
        Region{"state", kStateOff, page_table, 400},
        Region{"page table", page_table, good.size() - 8, 160}}) {
    for (unsigned i = 0; i < region.flips; ++i) {
      const u64 offset =
          region.begin + rng.next_below(region.end - region.begin);
      const u8 mask = static_cast<u8>(1 + rng.next_below(255));
      std::vector<u8> bad = good;
      bad[offset] ^= mask;
      reseal(bad);
      SCOPED_TRACE(std::string(region.name) + " byte " +
                   std::to_string(offset) + " ^ " + std::to_string(mask));
      (restore_and_run(bad) ? accepted : rejected) += 1;
    }
  }
  // Both outcomes occur: the sweep reaches past the parsers' first checks.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// Whole-system round trips
// ---------------------------------------------------------------------------

std::unique_ptr<System> make_system(Mode mode, bool mbm) {
  SystemConfig cfg;
  cfg.mode = mode;
  cfg.enable_mbm = mbm;
  auto r = System::create(cfg);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

TEST(SystemSnapshot, EmptyMachineRoundTrip) {
  // A freshly booted system, straight through the file format and into a
  // live twin: the twin must be byte-for-byte the same architectural
  // state (its own re-save proves it) and functionally indistinguishable.
  auto original = make_system(Mode::kNative, /*mbm=*/false);
  const std::vector<u8> snap = original->save_state();

  auto twin = make_system(Mode::kNative, /*mbm=*/false);
  ASSERT_TRUE(twin->restore_state(snap).ok());

  EXPECT_EQ(twin->save_state(), snap);
  EXPECT_TRUE(hypernel::take_fingerprint(*original)
                  .functionally_equal(hypernel::take_fingerprint(*twin)));
}

TEST(SystemSnapshot, RestoreRejectsConfigMismatch) {
  auto native = make_system(Mode::kNative, /*mbm=*/false);
  auto hyper = make_system(Mode::kHypernel, /*mbm=*/true);
  const Status st = hyper->restore_state(native->save_state());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("configuration digest mismatch"),
            std::string::npos);
  EXPECT_FALSE(hyper->restore_state({}).ok());  // empty file
}

/// PostRootkitScenarioRoundTrip at one monitoring granularity.
void post_rootkit_round_trip(secapps::Granularity granularity) {
  SCOPED_TRACE(granularity == secapps::Granularity::kWholeObject
                   ? "whole-object"
                   : "sensitive-fields");
  auto original = make_system(Mode::kHypernel, /*mbm=*/true);
  secapps::ObjectIntegrityMonitor mon_a(*original, granularity);
  ASSERT_TRUE(mon_a.install().ok());

  kernel::Kernel& k = original->kernel();
  ASSERT_TRUE(k.sys_mkdir("/etc").ok());
  ASSERT_TRUE(k.sys_creat("/etc/passwd").ok());
  Result<u32> pid = k.sys_fork();
  ASSERT_TRUE(pid.ok());
  k.procs().switch_to(*k.procs().find(pid.value()));
  ASSERT_TRUE(k.sys_execve().ok());
  // Drop to a non-root identity so the direct root write below is an
  // escalation, not a no-op rewrite of an already-root cred.
  ASSERT_TRUE(k.sys_setuid(1000).ok());
  const VirtAddr cred = k.procs().current().cred;
  ASSERT_TRUE(original->machine()
                  .write64(cred + kernel::CredLayout::kEuid * kWordSize, 0)
                  .ok);
  ASSERT_FALSE(mon_a.alerts().empty());
  const size_t alerts_before = mon_a.alerts().size();

  const std::vector<u8> snap = original->save_state();
  SnapWriter mon_state;
  mon_a.save_state(mon_state);

  auto twin = make_system(Mode::kHypernel, /*mbm=*/true);
  secapps::ObjectIntegrityMonitor mon_b(*twin, granularity);
  ASSERT_TRUE(mon_b.install().ok());
  ASSERT_TRUE(twin->restore_state(snap).ok());
  const std::vector<u8> mon_blob = mon_state.take();
  SnapReader mon_reader(mon_blob);
  mon_b.restore_state(mon_reader);
  ASSERT_TRUE(mon_reader.status().ok()) << mon_reader.status().message();

  EXPECT_EQ(mon_b.alerts().size(), alerts_before);
  EXPECT_EQ(mon_b.stats().events_total, mon_a.stats().events_total);
  SnapWriter mon_resaved;
  mon_b.save_state(mon_resaved);
  EXPECT_EQ(mon_resaved.take(), mon_blob);

  // Corrupt input: move the first shadow word (after the installed flag
  // and the shadow count) to PA 0x10, where no tracked object lives.
  std::vector<u8> corrupt = mon_blob;
  constexpr size_t kFirstShadowPa = 1 + 8;
  ASSERT_GE(corrupt.size(), kFirstShadowPa + 8);
  for (size_t i = 0; i < 8; ++i) {
    corrupt[kFirstShadowPa + i] = static_cast<u8>(u64{0x10} >> (8 * i));
  }
  secapps::ObjectIntegrityMonitor mon_c(*twin, granularity);
  SnapReader corrupt_reader(corrupt);
  mon_c.restore_state(corrupt_reader);
  ASSERT_FALSE(corrupt_reader.status().ok());
  EXPECT_NE(corrupt_reader.status().message().find(
                "is not a word of any tracked object"),
            std::string::npos)
      << corrupt_reader.status().message();

  // Identical follow-up workload on both: stays in lockstep.
  for (System* sys : {original.get(), twin.get()}) {
    kernel::Kernel& kk = sys->kernel();
    ASSERT_TRUE(kk.sys_creat("/etc/shadow").ok());
    ASSERT_TRUE(kk.sys_rename("/etc/shadow", "/etc/shadow.bak").ok());
    const VirtAddr c = kk.procs().current().cred;
    ASSERT_TRUE(
        sys->machine()
            .write64(c + kernel::CredLayout::kUid * kWordSize, 0)
            .ok);
  }
  EXPECT_EQ(mon_a.alerts().size(), mon_b.alerts().size());
  EXPECT_GT(mon_a.alerts().size(), alerts_before);

  const auto fp_a = hypernel::take_fingerprint(*original);
  const auto fp_b = hypernel::take_fingerprint(*twin);
  EXPECT_TRUE(fp_a.functionally_equal(fp_b)) << fp_a.diff(fp_b);
  EXPECT_EQ(fp_a.cycles, fp_b.cycles);
  EXPECT_EQ(fp_a.alerts, fp_b.alerts);
  EXPECT_EQ(fp_a.monitor_events, fp_b.monitor_events);
}

TEST(SystemSnapshot, PostRootkitScenarioRoundTrip) {
  // Drive a full monitored system through a rootkit scenario — process
  // churn, filesystem writes, then a cred privilege-escalation write that
  // raises an alert — and round-trip the result, at both monitoring
  // granularities.  The restored twin must agree on everything (its
  // monitor re-saves the same bytes), must keep agreeing when both
  // systems run the same follow-up workload (including catching a second
  // attack), and a monitor blob with a stray shadow word must not load.
  post_rootkit_round_trip(secapps::Granularity::kSensitiveFields);
  post_rootkit_round_trip(secapps::Granularity::kWholeObject);
}

u64 stage2_faults(System& sys) {
  return sys.kvm() != nullptr ? sys.kvm()->stats().s2_faults_serviced : 0;
}

/// Twin A's workload: a new file, then a forked, exec'd child touching
/// fresh user memory, so a KVM guest faults in stage-2 mappings its
/// restored tables do not hold yet.
void diverge_a(System& sys) {
  kernel::Kernel& k = sys.kernel();
  ASSERT_TRUE(k.sys_creat("/only-in-a").ok());
  Result<u32> pid = k.sys_fork();
  ASSERT_TRUE(pid.ok());
  k.procs().switch_to(*k.procs().find(pid.value()));
  ASSERT_TRUE(k.sys_execve().ok());
  ASSERT_TRUE(k.run_user_memory(512, 64, /*seed=*/7).ok());
}

/// ForkedTwinsDivergeIndependently in one mode.
void forked_twins_diverge(Mode mode) {
  SCOPED_TRACE(hypernel::mode_name(mode));
  const bool mbm = mode == Mode::kHypernel;
  auto donor = make_system(mode, mbm);
  ASSERT_TRUE(donor->kernel().sys_creat("/seed").ok());
  const std::vector<u8> snap = donor->save_state();

  auto twin_a = make_system(mode, mbm);
  auto twin_b = make_system(mode, mbm);
  ASSERT_TRUE(twin_a->restore_state(snap).ok());
  ASSERT_TRUE(twin_b->restore_state(snap).ok());

  const u64 faults_at_restore = stage2_faults(*twin_a);
  diverge_a(*twin_a);
  ASSERT_TRUE(twin_b->kernel().sys_mkdir("/only-in-b").ok());
  if (mode == Mode::kKvmGuest) {
    EXPECT_GT(stage2_faults(*twin_a), faults_at_restore);
  }

  EXPECT_TRUE(twin_a->kernel().sys_stat("/only-in-a").ok());
  EXPECT_FALSE(twin_a->kernel().sys_stat("/only-in-b").ok());
  EXPECT_TRUE(twin_b->kernel().sys_stat("/only-in-b").ok());
  EXPECT_FALSE(twin_b->kernel().sys_stat("/only-in-a").ok());
  EXPECT_FALSE(donor->kernel().sys_stat("/only-in-a").ok());
  EXPECT_FALSE(donor->kernel().sys_stat("/only-in-b").ok());

  // And a twin restored later from the same snapshot replays twin A's
  // future exactly: forks are deterministic, not merely isolated.
  auto twin_c = make_system(mode, mbm);
  ASSERT_TRUE(twin_c->restore_state(snap).ok());
  diverge_a(*twin_c);
  EXPECT_TRUE(twin_c->kernel().sys_stat("/only-in-a").ok());
  EXPECT_FALSE(twin_c->kernel().sys_stat("/only-in-b").ok());
  EXPECT_EQ(stage2_faults(*twin_c), stage2_faults(*twin_a));
  const auto fp_a = hypernel::take_fingerprint(*twin_a);
  const auto fp_c = hypernel::take_fingerprint(*twin_c);
  EXPECT_TRUE(fp_a.functionally_equal(fp_c)) << fp_a.diff(fp_c);
  EXPECT_EQ(fp_a.cycles, fp_c.cycles);
}

TEST(SystemSnapshot, ForkedTwinsDivergeIndependently) {
  // One snapshot, two restored twins: each runs a different workload
  // without contaminating the other or the snapshot donor, in every
  // mode — a KVM guest's stage-2 tables and a Hypernel system's Hypersec
  // and MBM state restore with the rest.
  for (const Mode mode : {Mode::kNative, Mode::kKvmGuest, Mode::kHypernel}) {
    forked_twins_diverge(mode);
  }
}

}  // namespace
}  // namespace hn::sim
