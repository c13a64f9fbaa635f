// Host-side simulation throughput microbench (DESIGN.md §9).
//
// Measures how many *simulated* memory accesses per second of *host*
// wall-clock the inner loop of the memory system sustains, with the host
// fast path on (the TLB's bucket index, the Hypersec audit memo) and off
// (reference mode: TLB lookups scan the array, every audit rescans).
// Six loops cover the regimes every table, ablation and fuzz campaign
// funnels through:
//
//   tlb_hit      — pointer-chase over a working set inside TLB reach
//   walk_heavy   — working set past TLB reach: every access walks
//   s2_nested    — walk-heavy with stage 2 enabled (nested descriptor
//                  fetches, the architectural blow-up of §3)
//   audit_memo   — Hypersec's invariant audit of a booted Hypernel system
//                  between fork/exit page-table churn (the audit memo
//                  serves unchanged tables from its scan cache; the
//                  reference rescans every table)
//   fuzz_replay  — whole differential fuzz sequences across the quick
//                  configuration matrix (end-to-end replay cost)
//   campaign     — run_campaign end-to-end (the hypernel_fuzz pipeline),
//                  corpus digests asserted equal
//
// Both modes run the same simulated workload; the bench asserts their
// simulated cycles and key counters are bit-identical before reporting,
// so a speedup can never be bought with a behaviour change.  Results are
// printed as a table and written to BENCH_sim_throughput.json, stamped
// with the source revision the build was configured from.
//
//   bench_sim_throughput [--quick] [--repeat=N] [--out=PATH]
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/stopwatch.h"
#include "fuzz/fuzzer.h"
#include "hypernel/system.h"
#include "sim/machine.h"
#include "sim/pagetable.h"

namespace {

using namespace hn;
using namespace hn::sim;

struct LoopResult {
  std::string name;
  /// What one unit of `work` is: "accesses" for the memory-system loops,
  /// "audits" for the audit loop, "execs" (sequence x configuration runs)
  /// for the end-to-end loops.
  const char* unit = "accesses";
  u64 work = 0;          // units of work per mode run
  u64 sequences = 0;     // fuzz sequences per run (end-to-end loops only)
  double fast_ns = 0;    // host wall-clock, fast path on
  double ref_ns = 0;     // host wall-clock, reference mode
  Cycles sim_cycles = 0; // simulated cycles per run (identical both modes)

  [[nodiscard]] double fast_rate() const {
    return static_cast<double>(work) / (fast_ns / 1e9);
  }
  [[nodiscard]] double ref_rate() const {
    return static_cast<double>(work) / (ref_ns / 1e9);
  }
  [[nodiscard]] double speedup() const { return fast_ns > 0 ? ref_ns / fast_ns : 0; }
};

/// A raw machine with a page-table builder: the bench drives sim::Machine
/// directly so the loop under test is exactly Machine::access64 /
/// the bulk paths, with no kernel logic on top.
class BenchMachine {
 public:
  explicit BenchMachine(bool fast_path, bool stage2 = false)
      : machine_(make_config(fast_path)), next_table_(1 * 1024 * 1024) {
    root_ = alloc_table();
    machine_.set_sysreg_raw(SysReg::TTBR1_EL1, root_);
    if (stage2) {
      s2_root_ = alloc_table();
      machine_.set_sysreg_raw(SysReg::VTTBR_EL2, s2_root_);
      machine_.set_sysreg_raw(SysReg::HCR_EL2, u64{1} << kHcrVm);
    }
  }

  static MachineConfig make_config(bool fast_path) {
    MachineConfig cfg;
    cfg.host_fast_path = fast_path;
    return cfg;
  }

  PhysAddr alloc_table() {
    const PhysAddr t = next_table_;
    next_table_ += kPageSize;
    machine_.phys().zero_range(t, kPageSize);
    return t;
  }

  void map(VirtAddr va, PhysAddr pa, const PageAttrs& attrs) {
    PhysAddr table = root_;
    for (unsigned level = 0; level <= 2; ++level) {
      const PhysAddr slot = table + va_index(va, level) * 8;
      u64 d = machine_.phys().read64(slot);
      if (!desc_valid(d)) {
        const PhysAddr next = alloc_table();
        d = make_table_desc(next);
        machine_.phys().write64(slot, d);
      }
      table = desc_out_addr(d);
    }
    machine_.phys().write64(table + va_index(va, 3) * 8,
                            make_page_desc(pa, attrs));
    if (s2_root_ != 0) map_s2(pa);
  }

  /// Identity-map one IPA page in the stage-2 tables (plus the stage-1
  /// table pages themselves, which nested descriptor fetches translate).
  void map_s2(IpaAddr ipa) {
    PhysAddr table = s2_root_;
    for (unsigned level = 0; level <= 2; ++level) {
      const PhysAddr slot = table + va_index(ipa, level) * 8;
      u64 d = machine_.phys().read64(slot);
      if (!desc_valid(d)) {
        const PhysAddr next = alloc_table();
        d = make_table_desc(next);
        machine_.phys().write64(slot, d);
      }
      table = desc_out_addr(d);
    }
    machine_.phys().write64(table + va_index(ipa, 3) * 8,
                            make_s2_page_desc(ipa, S2Attrs{}));
  }

  /// Stage-2-map every table page allocated so far (call after building
  /// stage-1 mappings so nested fetches of descriptors succeed).
  void s2_map_tables() {
    for (PhysAddr t = 1 * 1024 * 1024; t < next_table_; t += kPageSize) {
      map_s2(t);
    }
  }

  Machine& m() { return machine_; }

 private:
  Machine machine_;
  PhysAddr next_table_;
  PhysAddr root_ = 0;
  PhysAddr s2_root_ = 0;
};

struct ModeRun {
  double wall_ns = 0;
  Cycles cycles = 0;
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;
  u64 mem_ops = 0;
  u64 noncacheable = 0;
  u64 bus_txns = 0;
};

/// Run `body(machine)` against a fresh machine built by `setup`, in the
/// given fast-path mode, returning wall time and the simulated ledger.
template <typename Setup, typename Body>
ModeRun run_mode(bool fast_path, Setup&& setup, Body&& body) {
  auto bm = setup(fast_path);
  Machine& m = bm->m();
  const hn::obs::ArtifactFlags& flags = hn::bench::artifacts();
  if (!flags.metrics_out.empty()) m.set_metrics(true);
  m.scopes().set_host_clock(flags.profile);
  Stopwatch sw;
  body(*bm);
  ModeRun r;
  r.wall_ns = static_cast<double>(sw.elapsed_ns());
  r.cycles = m.account().cycles();
  r.tlb_hits = m.counters().tlb_hits;
  r.tlb_misses = m.counters().tlb_misses;
  r.mem_ops = m.counters().mem_reads + m.counters().mem_writes;
  r.noncacheable = m.counters().noncacheable_accesses;
  r.bus_txns = m.bus().transaction_count();
  if (fast_path) {
    // One cell per fast-mode run (the mode whose counters the table
    // reports); the reference run would double every count.
    static u64 cell = 0;
    hn::bench::record_cell(cell++, {.metrics = m.metrics_snapshot(),
                                    .profile = m.scopes().report()});
  }
  return r;
}

/// Assert the two modes produced a bit-identical simulated ledger — the
/// speedup must be host-side only.
void check_identical(const char* name, const ModeRun& fast, const ModeRun& ref) {
  if (fast.cycles != ref.cycles || fast.tlb_hits != ref.tlb_hits ||
      fast.tlb_misses != ref.tlb_misses || fast.mem_ops != ref.mem_ops ||
      fast.noncacheable != ref.noncacheable || fast.bus_txns != ref.bus_txns) {
    std::fprintf(stderr,
                 "FATAL: %s diverged between fast and reference mode:\n"
                 "  cycles %llu/%llu  tlb %llu+%llu/%llu+%llu  mem %llu/%llu"
                 "  nc %llu/%llu  bus %llu/%llu\n",
                 name, (unsigned long long)fast.cycles,
                 (unsigned long long)ref.cycles,
                 (unsigned long long)fast.tlb_hits,
                 (unsigned long long)fast.tlb_misses,
                 (unsigned long long)ref.tlb_hits,
                 (unsigned long long)ref.tlb_misses,
                 (unsigned long long)fast.mem_ops,
                 (unsigned long long)ref.mem_ops,
                 (unsigned long long)fast.noncacheable,
                 (unsigned long long)ref.noncacheable,
                 (unsigned long long)fast.bus_txns,
                 (unsigned long long)ref.bus_txns);
    std::abort();
  }
}

/// Repetitions per mode; each loop reports the minimum wall time (the
/// run least disturbed by host noise).  Simulated results are asserted
/// identical across every run of both modes.
unsigned g_repeat = 3;

template <typename Setup, typename Body>
LoopResult run_loop(const char* name, u64 accesses, Setup&& setup, Body&& body) {
  LoopResult r;
  r.name = name;
  r.work = accesses;
  for (unsigned rep = 0; rep < g_repeat; ++rep) {
    const ModeRun ref = run_mode(false, setup, body);
    const ModeRun fast = run_mode(true, setup, body);
    check_identical(name, fast, ref);
    if (rep == 0 || ref.wall_ns < r.ref_ns) r.ref_ns = ref.wall_ns;
    if (rep == 0 || fast.wall_ns < r.fast_ns) r.fast_ns = fast.wall_ns;
    r.sim_cycles = fast.cycles;
  }
  return r;
}

constexpr VirtAddr kVaBase = kKernelVaBase + 0x4000'0000ull;
constexpr PhysAddr kPaBase = 8ull * 1024 * 1024;

LoopResult bench_tlb_hit(u64 iters) {
  // 128 resident pages inside the 256-entry TLB: after warm-up every
  // access is a hit.  This is the common case of every workload — a
  // well-filled TLB, where the reference full-scan lookup walks half the
  // array per access and the index finds the slot in one hash probe.
  constexpr unsigned kPages = 128;
  auto setup = [](bool fp) {
    auto bm = std::make_unique<BenchMachine>(fp);
    for (unsigned i = 0; i < kPages; ++i) {
      bm->map(kVaBase + i * kPageSize, kPaBase + i * kPageSize,
              PageAttrs{.write = true});
    }
    return bm;
  };
  auto body = [iters](BenchMachine& bm) {
    u64 sum = 0;
    for (u64 i = 0; i < iters; ++i) {
      const VirtAddr va =
          kVaBase + (i % kPages) * kPageSize + ((i * 64) % kPageSize & ~7ull);
      sum += bm.m().read64(va).value;
    }
    if (sum == 0xDEAD) std::abort();  // keep the loop observable
  };
  return run_loop("tlb_hit", iters, setup, body);
}

LoopResult bench_walk_heavy(u64 iters) {
  // 1024 pages cycled round-robin against a 256-entry TLB: round-robin
  // replacement guarantees every access misses and walks.
  constexpr unsigned kPages = 1024;
  auto setup = [](bool fp) {
    auto bm = std::make_unique<BenchMachine>(fp);
    for (unsigned i = 0; i < kPages; ++i) {
      bm->map(kVaBase + i * kPageSize, kPaBase + i * kPageSize,
              PageAttrs{.write = true});
    }
    return bm;
  };
  auto body = [iters](BenchMachine& bm) {
    for (u64 i = 0; i < iters; ++i) {
      bm.m().read64(kVaBase + (i % kPages) * kPageSize);
    }
  };
  return run_loop("walk_heavy", iters, setup, body);
}

LoopResult bench_s2_nested(u64 iters) {
  // Walk-heavy with stage 2 on: each stage-1 step is itself stage-2
  // translated (up to 24 descriptor fetches per miss, §3).
  constexpr unsigned kPages = 1024;
  auto setup = [](bool fp) {
    auto bm = std::make_unique<BenchMachine>(fp, /*stage2=*/true);
    for (unsigned i = 0; i < kPages; ++i) {
      bm->map(kVaBase + i * kPageSize, kPaBase + i * kPageSize,
              PageAttrs{.write = true});
    }
    bm->s2_map_tables();
    return bm;
  };
  auto body = [iters](BenchMachine& bm) {
    for (u64 i = 0; i < iters; ++i) {
      bm.m().read64(kVaBase + (i % kPages) * kPageSize);
    }
  };
  return run_loop("s2_nested", iters, setup, body);
}

/// A booted Hypernel system (MBM off), for the loops that exercise
/// Hypersec rather than the bare memory system.
class BenchSystem {
 public:
  explicit BenchSystem(bool fast_path) {
    hypernel::SystemConfig cfg;
    cfg.mode = hypernel::Mode::kHypernel;
    cfg.enable_mbm = false;
    cfg.machine.host_fast_path = fast_path;
    auto sys = hypernel::System::create(cfg);
    if (!sys.ok()) {
      std::fprintf(stderr, "FATAL: System::create failed: %s\n",
                   sys.status().message().c_str());
      std::abort();
    }
    sys_ = std::move(sys).value();
  }

  Machine& m() { return sys_->machine(); }
  hypernel::System& sys() { return *sys_; }

 private:
  std::unique_ptr<hypernel::System> sys_;
};

LoopResult bench_audit_memo(u64 audits) {
  // The fuzz oracle audits after every op.  Between audits the inventory
  // changes the way a campaign's does: every 16 audits the previous
  // forked child exits (its tree leaves the inventory) and a new one is
  // forked (a fresh tree joins it).  The memo keeps the kernel tree and
  // the parent's tree cached across the churn; the reference walks every
  // table of every tree on each audit.  Audits are uncharged host work,
  // so the simulated ledger of the churn is identical in both modes.
  auto setup = [](bool fp) { return std::make_unique<BenchSystem>(fp); };
  auto body = [audits](BenchSystem& bs) {
    kernel::Kernel& k = bs.sys().kernel();
    hypersec::Hypersec& hs = *bs.sys().hypersec();
    kernel::Task* parent = &k.procs().current();
    u32 child = 0;
    for (u64 i = 0; i < audits; ++i) {
      if (i % 16 == 0) {
        if (child != 0) {
          k.procs().switch_to(*k.procs().find(child));
          if (!k.sys_exit().ok()) std::abort();
          k.procs().switch_to(*parent);
        }
        Result<u32> pid = k.sys_fork();
        if (!pid.ok()) std::abort();
        child = pid.value();
      }
      if (!hs.audit_report().empty()) {
        std::fprintf(stderr, "FATAL: audit_memo found a violation\n");
        std::abort();
      }
    }
  };
  LoopResult r = run_loop("audit_memo", audits, setup, body);
  r.unit = "audits";
  return r;
}

/// End-to-end: whole fuzz sequences across the quick matrix.  Fast mode
/// is the host fast path; reference is the naive recompute path.  Every
/// run's fingerprint — functional hash AND simulated cycles — folds into
/// a per-mode ledger digest, and the two modes' digests are asserted
/// equal: the speedup can never be bought with a behaviour change.
LoopResult bench_fuzz_replay(u64 sequences) {
  const u64 matrix = fuzz::build_matrix(/*full=*/false).size();
  auto run = [&](bool fast_mode, u64* digest) {
    auto specs = fuzz::build_matrix(/*full=*/false);
    for (auto& spec : specs) spec.host_fast_path = fast_mode;
    const fuzz::GeneratorOptions gen;
    const obs::ArtifactFlags& flags = hn::bench::artifacts();
    fuzz::ExecutorOptions exec;
    exec.collect_metrics = fast_mode && !flags.metrics_out.empty();
    exec.profile = fast_mode && flags.profile;
    Stopwatch sw;
    u64 findings = 0;
    u64 d = hypernel::kFnvOffset;
    obs::Produced cell;
    std::vector<fuzz::RunResult> runs;
    for (u64 s = 1; s <= sequences; ++s) {
      findings +=
          fuzz::run_sequence_seed(s, gen, specs, exec, &runs).findings.size();
      for (const fuzz::RunResult& r : runs) {
        d = hypernel::fnv_fold(d, r.fingerprint.functional_hash());
        d = hypernel::fnv_fold(d, r.fingerprint.cycles);
        cell.metrics.merge(r.metrics);
        cell.profile.merge(r.profile);
      }
      runs.clear();
    }
    if (fast_mode) {
      static u64 cell_index = 1u << 16;  // clear of the run_mode cells
      hn::bench::record_cell(cell_index++, std::move(cell));
    }
    if (findings != 0) {
      std::fprintf(stderr, "FATAL: fuzz_replay produced %llu findings\n",
                   (unsigned long long)findings);
      std::abort();
    }
    *digest = d;
    return static_cast<double>(sw.elapsed_ns());
  };
  LoopResult r;
  r.name = "fuzz_replay";
  r.unit = "execs";
  r.sequences = sequences;
  // Execs per run: each sequence runs the whole quick matrix once plus
  // the reference-configuration determinism rerun.
  r.work = sequences * (matrix + 1);
  for (unsigned rep = 0; rep < g_repeat; ++rep) {
    u64 ref_digest = 0;
    u64 fast_digest = 0;
    const double ref = run(false, &ref_digest);
    const double fast = run(true, &fast_digest);
    if (ref_digest != fast_digest) {
      std::fprintf(stderr,
                   "FATAL: fuzz_replay ledger diverged between fast and "
                   "reference mode: digest %llx vs %llx\n",
                   (unsigned long long)fast_digest,
                   (unsigned long long)ref_digest);
      std::abort();
    }
    if (rep == 0 || ref < r.ref_ns) r.ref_ns = ref;
    if (rep == 0 || fast < r.fast_ns) r.fast_ns = fast;
  }
  return r;
}

/// Whole-campaign throughput: run_campaign end-to-end — generation,
/// matrix execution, oracles, per-sequence determinism rerun, digest
/// fold — the way `hypernel_fuzz` actually runs it.  The corpus digest
/// must be identical across fast and reference mode — the determinism
/// contract `--seed=N` promises.
LoopResult bench_campaign(u64 sequences) {
  const u64 matrix = fuzz::build_matrix(/*full=*/false).size();
  auto run = [&](bool fast_mode, u64* digest) {
    fuzz::FuzzOptions opt;
    opt.seed = 1;
    opt.sequences = sequences;
    opt.jobs = 1;  // single worker: measure the pipeline, not the pool
    opt.host_fast_path = fast_mode;
    Stopwatch sw;
    const fuzz::CampaignResult result = fuzz::run_campaign(opt);
    const double wall = static_cast<double>(sw.elapsed_ns());
    if (!result.ok()) {
      std::fprintf(stderr, "FATAL: campaign bench found %llu failures\n",
                   (unsigned long long)result.failures);
      std::abort();
    }
    *digest = result.corpus_digest;
    return wall;
  };
  LoopResult r;
  r.name = "campaign";
  r.unit = "execs";
  r.sequences = sequences;
  r.work = sequences * (matrix + 1);  // +1: per-sequence determinism rerun
  for (unsigned rep = 0; rep < g_repeat; ++rep) {
    u64 ref_digest = 0;
    u64 fast_digest = 0;
    const double ref = run(false, &ref_digest);
    const double fast = run(true, &fast_digest);
    if (ref_digest != fast_digest) {
      std::fprintf(stderr,
                   "FATAL: campaign corpus digest diverged between fast "
                   "and reference mode: %llx vs %llx\n",
                   (unsigned long long)fast_digest,
                   (unsigned long long)ref_digest);
      std::abort();
    }
    if (rep == 0 || ref < r.ref_ns) r.ref_ns = ref;
    if (rep == 0 || fast < r.fast_ns) r.fast_ns = fast;
  }
  return r;
}

void write_json(const std::string& path, bool quick,
                const std::vector<LoopResult>& loops) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"sim_throughput\",\n");
  std::fprintf(f, "  \"rev\": \"%s\",\n", HN_GIT_REV);
  std::fprintf(f, "  \"quick\": %s,\n  \"loops\": [\n", quick ? "true" : "false");
  for (size_t i = 0; i < loops.size(); ++i) {
    const LoopResult& l = loops[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"unit\": \"%s\", \"work\": %llu, ",
                 l.name.c_str(), l.unit, (unsigned long long)l.work);
    if (l.sequences != 0) {
      // End-to-end loops: the sequence count is the replay workload, the
      // per-second rate below is execs/sec (sequence x config runs).
      std::fprintf(f, "\"sequences\": %llu, ",
                   (unsigned long long)l.sequences);
    }
    std::fprintf(f,
                 "\"sim_cycles\": %llu, "
                 "\"ref_wall_ns\": %.0f, \"fast_wall_ns\": %.0f, "
                 "\"ref_per_s\": %.0f, "
                 "\"fast_per_s\": %.0f, "
                 "\"speedup\": %.3f}%s\n",
                 (unsigned long long)l.sim_cycles, l.ref_ns, l.fast_ns,
                 l.ref_rate(), l.fast_rate(), l.speedup(),
                 i + 1 < loops.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off the repo-common flags (--jobs, the artifact flags) first;
  // the remaining flags are this bench's own.  Its cells have no System,
  // so --trace-out and --timeseries-out find nothing recorded and exit 2.
  hn::bench::parse_and_strip_args(&argc, argv);
  bool quick = false;
  std::string out = "BENCH_sim_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0 &&
               hn::parse_u32(argv[i] + 9, &g_repeat)) {
      if (g_repeat == 0) g_repeat = 1;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--repeat=N] [--out=PATH] "
                   "[--jobs=N] [artifact flags]\n%s",
                   argv[0], hn::obs::kArtifactUsage);
      return 2;
    }
  }

  std::vector<LoopResult> loops;
  loops.push_back(bench_tlb_hit(quick ? 200'000 : 2'000'000));
  loops.push_back(bench_walk_heavy(quick ? 50'000 : 500'000));
  loops.push_back(bench_s2_nested(quick ? 20'000 : 200'000));
  loops.push_back(bench_audit_memo(quick ? 200 : 2000));
  loops.push_back(bench_fuzz_replay(quick ? 2 : 8));
  loops.push_back(bench_campaign(quick ? 2 : 6));

  std::printf("Host-side simulation throughput (%s)\n",
              quick ? "quick" : "full");
  std::printf("%-13s %12s %9s %14s %14s %9s\n", "loop", "work", "unit",
              "ref work/s", "fast work/s", "speedup");
  for (const LoopResult& l : loops) {
    std::printf("%-13s %12llu %9s %14.0f %14.0f %8.2fx\n", l.name.c_str(),
                (unsigned long long)l.work, l.unit, l.ref_rate(),
                l.fast_rate(), l.speedup());
  }
  write_json(out, quick, loops);
  std::printf("\nwrote %s\n", out.c_str());
  return hn::bench::write_bench_artifacts();
}
