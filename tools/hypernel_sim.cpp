// hypernel-sim: command-line driver for the Hypernel simulation.
//
//   hypernel-sim lmbench  [--mode=native|kvm|hypernel] [--iters=N]
//   hypernel-sim app      --name=<whetstone|dhrystone|untar|iozone|apache>
//                         [--mode=...] [--scale=X] [--seed=N]
//                         [--monitor=none|word|object]
//   hypernel-sim attack   --scenario=<cred|dentry|transient|dma>
//   hypernel-sim audit    (forged-hypercall storm + invariant audit)
//   hypernel-sim info     (configuration and timing-model dump)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>

#include "common/blob_file.h"
#include "common/hvc_abi.h"
#include "common/parse_int.h"
#include "common/rng.h"
#include "hypernel/system.h"
#include "kernel/objects.h"
#include "kernel/vfs.h"
#include "obs/artifacts.h"
#include "secapps/object_monitor.h"
#include "secapps/rootkit_detector.h"
#include "sim/dma_device.h"
#include "sim/iommu.h"
#include "sim/trace_io.h"
#include "workloads/apps.h"
#include "workloads/lmbench.h"

namespace {

using namespace hn;

struct Options {
  std::string command;
  hypernel::Mode mode = hypernel::Mode::kHypernel;
  unsigned iters = 32;
  std::string name = "untar";
  double scale = 0.2;
  u64 seed = 0x90DA'5EED;
  std::string monitor = "none";
  std::string scenario = "cred";
  bool trace = false;
  obs::ArtifactFlags artifacts;
  std::string save_state;  // write a machine snapshot at command exit
  std::string load_state;  // restore a machine snapshot right after boot
};

const char* arg_value(const char* arg, const char* key) {
  const size_t n = std::strlen(key);
  if (std::strncmp(arg, key, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

/// Reports a malformed or unknown flag value; the caller's usage error.
bool bad_value(const char* arg) {
  std::fprintf(stderr, "bad value in '%s'\n", arg);
  return false;
}

bool is_one_of(std::string_view v,
               std::initializer_list<std::string_view> names) {
  return std::find(names.begin(), names.end(), v) != names.end();
}

bool parse(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    if (const char* v = arg_value(argv[i], "--mode")) {
      if (std::strcmp(v, "native") == 0) {
        opt.mode = hypernel::Mode::kNative;
      } else if (std::strcmp(v, "kvm") == 0) {
        opt.mode = hypernel::Mode::kKvmGuest;
      } else if (std::strcmp(v, "hypernel") == 0) {
        opt.mode = hypernel::Mode::kHypernel;
      } else {
        return bad_value(argv[i]);
      }
    } else if (const char* v2 = arg_value(argv[i], "--iters")) {
      if (!parse_u32(v2, &opt.iters)) return bad_value(argv[i]);
    } else if (const char* v3 = arg_value(argv[i], "--name")) {
      if (!is_one_of(v3, {"whetstone", "dhrystone", "untar", "iozone",
                          "apache"})) {
        return bad_value(argv[i]);
      }
      opt.name = v3;
    } else if (const char* v4 = arg_value(argv[i], "--scale")) {
      if (!parse_double(v4, &opt.scale)) return bad_value(argv[i]);
    } else if (const char* v5 = arg_value(argv[i], "--seed")) {
      if (!parse_u64(v5, &opt.seed)) return bad_value(argv[i]);
    } else if (const char* v6 = arg_value(argv[i], "--monitor")) {
      if (!is_one_of(v6, {"none", "word", "object"})) return bad_value(argv[i]);
      opt.monitor = v6;
    } else if (const char* v7 = arg_value(argv[i], "--scenario")) {
      opt.scenario = v7;
    } else if (const char* v10 = arg_value(argv[i], "--save-state")) {
      opt.save_state = v10;
    } else if (const char* v11 = arg_value(argv[i], "--load-state")) {
      opt.load_state = v11;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opt.trace = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

std::unique_ptr<hypernel::System> build(const Options& opt, bool want_mbm) {
  hypernel::SystemConfig cfg;
  cfg.mode = opt.mode;
  cfg.enable_mbm = want_mbm && opt.mode != hypernel::Mode::kKvmGuest;
  cfg.metrics = opt.artifacts.registry();
  cfg.machine.sample_cycles = opt.artifacts.sample_cycles;
  auto r = hypernel::System::create(cfg);
  if (!r.ok()) {
    std::fprintf(stderr, "system creation failed: %s\n",
                 r.status().message().c_str());
    std::exit(1);
  }
  sim::Machine& m = r.value()->machine();
  m.trace().set_enabled(!opt.artifacts.trace_out.empty());
  m.scopes().set_host_clock(opt.artifacts.profile);
  if (!opt.load_state.empty()) {
    std::vector<u8> blob;
    if (!read_blob_file(opt.load_state, blob)) {
      std::fprintf(stderr, "load-state: cannot read %s\n",
                   opt.load_state.c_str());
      std::exit(1);
    }
    if (Status s = r.value()->restore_state(blob); !s.ok()) {
      std::fprintf(stderr, "load-state: %s\n", s.message().c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "load-state: restored %s (%zu byte(s))\n",
                 opt.load_state.c_str(), blob.size());
  }
  return std::move(r).value();
}

/// Write the machine snapshot when --save-state was given.
bool dump_state(const Options& opt, hypernel::System& sys) {
  if (opt.save_state.empty()) return true;
  const std::vector<u8> blob = sys.save_state();
  if (!write_blob_file(blob, opt.save_state)) {
    std::fprintf(stderr, "save-state: failed to write %s\n",
                 opt.save_state.c_str());
    return false;
  }
  std::fprintf(stderr, "save-state: %zu byte(s) written to %s\n", blob.size(),
               opt.save_state.c_str());
  return true;
}

/// All exit artifacts (the five artifact flags and --save-state), in one
/// place.
bool dump_outputs(const Options& opt, hypernel::System& sys) {
  sim::Machine& m = sys.machine();
  obs::Produced produced{.metrics = sys.metrics_snapshot(),
                         .timeseries = sim::capture_timeseries(m),
                         .profile = m.scopes().report()};
  if (!opt.artifacts.trace_out.empty()) produced.trace = sim::capture_trace(m);
  const bool artifacts_ok =
      obs::write_artifacts(opt.artifacts, std::move(produced));
  const bool state_ok = dump_state(opt, sys);
  return artifacts_ok && state_ok;
}

int cmd_lmbench(const Options& opt) {
  auto sys = build(opt, false);
  std::printf("LMbench kernel operations, %s, %u iterations\n",
              hypernel::mode_name(opt.mode), opt.iters);
  workloads::LmbenchSuite suite(*sys, opt.iters);
  // A restored kernel may already hold the suite's files (a snapshot of
  // an earlier lmbench run does): report that instead of running on.
  if (Status s = suite.setup(); !s.ok()) {
    std::fprintf(stderr, "lmbench: setup failed: %s\n", s.message().c_str());
    return 1;
  }
  for (const auto& r : suite.run_all()) {
    std::printf("  %-16s %8.2f us\n", r.name.c_str(), r.us);
  }
  return dump_outputs(opt, *sys) ? 0 : 2;
}

int cmd_app(const Options& opt) {
  const bool want_monitor = opt.monitor != "none";
  if (want_monitor && opt.mode != hypernel::Mode::kHypernel) {
    std::fprintf(stderr, "--monitor requires --mode=hypernel\n");
    return 1;
  }
  auto sys = build(opt, want_monitor);
  std::unique_ptr<secapps::ObjectIntegrityMonitor> monitor;
  if (want_monitor) {
    monitor = std::make_unique<secapps::ObjectIntegrityMonitor>(
        *sys, opt.monitor == "word"
                  ? secapps::Granularity::kSensitiveFields
                  : secapps::Granularity::kWholeObject);
    if (!monitor->install().ok()) {
      std::fprintf(stderr, "monitor install failed\n");
      return 1;
    }
  }
  workloads::AppParams p;
  p.scale = opt.scale;
  p.seed = opt.seed;
  const workloads::AppResult r =
      workloads::run_app_by_name(*sys, opt.name, p);
  std::printf("%s on %s: %.0f us simulated (%.2f ms)\n", r.name.c_str(),
              hypernel::mode_name(opt.mode), r.us, r.us / 1000.0);
  if (monitor) {
    std::printf("monitor(%s): %llu events, %zu alerts; MBM detections %llu, "
                "IRQs %llu\n",
                opt.monitor.c_str(),
                (unsigned long long)monitor->stats().events_total,
                monitor->alerts().size(),
                (unsigned long long)sys->mbm()->stats().detections,
                (unsigned long long)sys->mbm()->stats().irqs_raised);
  }
  return dump_outputs(opt, *sys) ? 0 : 2;
}

int cmd_attack(const Options& opt) {
  Options hy = opt;
  hy.mode = hypernel::Mode::kHypernel;
  auto sys = build(hy, true);
  secapps::RootkitDetector detector(*sys);
  if (!detector.install().ok()) return 1;
  if (opt.trace) sys->machine().trace().set_enabled(true);
  kernel::Kernel& k = sys->kernel();
  k.sys_setuid(1000);
  k.sys_creat("/target");
  const VirtAddr dva = k.vfs().cached_dentry(k.vfs().root_ino(), "target");
  const VirtAddr cred = k.procs().current().cred;

  if (opt.scenario == "cred") {
    sys->machine().write64(cred + kernel::CredLayout::kUid * kWordSize, 0);
  } else if (opt.scenario == "dentry") {
    sys->machine().write64(dva + kernel::DentryLayout::kOp * kWordSize,
                           0xE71100);
  } else if (opt.scenario == "transient") {
    sys->machine().write64(cred + kernel::CredLayout::kEuid * kWordSize, 0);
    sys->machine().write64(cred + kernel::CredLayout::kEuid * kWordSize, 1000);
  } else if (opt.scenario == "dma") {
    sim::Iommu iommu;  // attacker-owned device, IOMMU left in bypass
    sim::DmaDevice evil(sys->machine(), iommu, 13);
    evil.write64(kernel::virt_to_phys(dva) +
                     kernel::DentryLayout::kInode * kWordSize,
                 0x1337);
  } else {
    std::fprintf(stderr, "unknown scenario '%s'\n", opt.scenario.c_str());
    return 1;
  }

  if (opt.trace) {
    std::printf("--- architectural trace ---\n");
    sys->machine().trace().dump(stdout,
                                sys->machine().timing().cpu_ghz * 1000.0);
  }
  std::printf("scenario '%s': %zu alert(s)\n", opt.scenario.c_str(),
              detector.alerts().size());
  for (const secapps::Alert& a : detector.alerts()) {
    std::printf("  [%s] %s (word %llu: %llx -> %llx)\n",
                secapps::alert_kind_name(a.kind),
                a.reason.c_str(), (unsigned long long)a.word_offset,
                (unsigned long long)a.old_value,
                (unsigned long long)a.new_value);
  }
  if (!dump_outputs(opt, *sys)) return 2;
  return detector.alerts().empty() ? 1 : 0;
}

int cmd_audit(const Options& opt) {
  Options hy = opt;
  hy.mode = hypernel::Mode::kHypernel;
  auto sys = build(hy, false);
  kernel::Kernel& k = sys->kernel();
  SplitMix64 rng(opt.seed);
  u64 accepted = 0;
  u64 denied = 0;
  for (int i = 0; i < 5000; ++i) {
    const PhysAddr table =
        page_align_down(rng.next_below(sys->machine().phys().size()));
    const u64 desc = rng.next();
    if (sys->machine().hvc(hvc::kPtWrite,
                           {table, rng.next_below(kPtEntries), desc}) ==
        hvc::kOk) {
      ++accepted;
    } else {
      ++denied;
    }
  }
  const auto violations = sys->hypersec()->audit();
  std::printf("forged hypercall storm: %llu accepted, %llu denied\n",
              (unsigned long long)accepted, (unsigned long long)denied);
  std::printf("invariant audit: %zu violation(s)\n", violations.size());
  for (const std::string& v : violations) std::printf("  %s\n", v.c_str());
  std::printf("kernel alive: %s\n",
              k.sys_creat("/post-storm").ok() ? "yes" : "no");
  if (!dump_outputs(opt, *sys)) return 2;
  return violations.empty() ? 0 : 1;
}

int cmd_info(const Options& opt) {
  auto sys = build(opt, opt.mode == hypernel::Mode::kHypernel);
  const TimingModel& t = sys->machine().timing();
  std::printf("mode: %s\n", hypernel::mode_name(opt.mode));
  std::printf("DRAM: %llu MiB, secure space: %llu MiB @ %#llx\n",
              (unsigned long long)(sys->machine().phys().size() >> 20),
              (unsigned long long)(sys->machine().secure_size() >> 20),
              (unsigned long long)sys->machine().secure_base());
  std::printf("clock: %.2f GHz; L1 hit %llu cy, fill %llu cy, NC %llu cy\n",
              t.cpu_ghz, (unsigned long long)t.l1_hit,
              (unsigned long long)t.l1_miss_fill,
              (unsigned long long)t.noncacheable_access);
  std::printf("HVC %llu cy, trap %llu cy, VM exit+entry %llu cy\n",
              (unsigned long long)t.hvc_roundtrip,
              (unsigned long long)t.sysreg_trap,
              (unsigned long long)(t.vm_exit + t.vm_entry));
  std::printf("kernel PT pages: %llu; boot cycles: %llu\n",
              (unsigned long long)sys->kernel().kpt().pt_page_count(),
              (unsigned long long)sys->machine().account().cycles());
  if (sys->hypersec() != nullptr) {
    std::printf("hypersec: engaged (verifier checked %llu writes so far)\n",
                (unsigned long long)
                    sys->hypersec()->verifier().stats().checked);
  }
  return dump_outputs(opt, *sys) ? 0 : 2;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: hypernel-sim <command> [options]\n"
      "  lmbench [--mode=native|kvm|hypernel] [--iters=N]\n"
      "  app     --name=<whetstone|dhrystone|untar|iozone|apache>\n"
      "          [--mode=...] [--scale=X] [--seed=N] [--monitor=none|word|object]\n"
      "  attack  --scenario=<cred|dentry|transient|dma> [--trace]\n"
      "  audit   [--seed=N]\n"
      "  info    [--mode=...]\n"
      "  any command also accepts --save-state=F / --load-state=F: write\n"
      "  the machine snapshot at exit / restore one right after boot (the\n"
      "  configuration must match the one the snapshot was taken from).\n"
      "  lmbench reports an error and exits 1 on a snapshot that already\n"
      "  holds its files; app --name=untar stops on an assert there\n"
      "artifacts of the run (the profile starts after boot):\n%s",
      obs::kArtifactUsage);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Result<obs::ArtifactFlags> artifacts = obs::strip_artifact_flags(&argc, argv);
  if (!artifacts.ok()) {
    std::fprintf(stderr, "%s\n", artifacts.status().message().c_str());
    usage();
    return 2;
  }
  opt.artifacts = std::move(artifacts).value();
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  if (opt.command == "lmbench") return cmd_lmbench(opt);
  if (opt.command == "app") return cmd_app(opt);
  if (opt.command == "attack") return cmd_attack(opt);
  if (opt.command == "audit") return cmd_audit(opt);
  if (opt.command == "info") return cmd_info(opt);
  usage();
  return 2;
}
