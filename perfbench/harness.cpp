// Benchmark harness: times the simulator's public entry points on one
// workload and prints the raw samples as one JSON object on stdout.
//
//   perfbench_harness --workload=W --seed=N --seconds=S --trace=0|1
//                    [--spans-out=FILE]
//
// The harness only measures; run.py checks the outputs and derives every
// reported metric.  It calls nothing but public API (System::create,
// LmbenchSuite, run_app_by_name, ObjectIntegrityMonitor::install and the
// fuzz campaign/sequence functions) and reads only public counters, so it
// measures the program from outside, the way a user of the library sees it.
//
// Every run is single-threaded (jobs = 1): the numbers measure the
// simulator, not the thread pool.
//
// A run repeats the workload's fixed work ("a repeat", made of units: one
// fresh System per paper cell, or one 10-sequence campaign (one sequence
// when traced) for the fuzz workload) until --seconds have passed, timing
// every unit.  Before every unit comes one timed set-up pass: one cold
// System per configuration the workload uses.  With
// --trace=1 untraced and traced repeats alternate: traced repeats record a
// span around every public call (kept in memory, written to --spans-out at
// exit) and the untraced ones give the baseline for the tracing overhead.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/fuzzer.h"
#include "hypernel/system.h"
#include "secapps/object_monitor.h"
#include "workloads/apps.h"
#include "workloads/lmbench.h"

namespace {

using hn::u64;
using hn::hypernel::Mode;
using Clock = std::chrono::steady_clock;

// --- Spans -------------------------------------------------------------------

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;   // index into the span list, -1 = root
  int unit = -1;     // unit index within its repeat, -1 = outside units
  int repeat = -1;   // timed repeat index, -1 = set-up
};

/// In-memory span recorder.  Null when tracing is off, so untraced runs pay
/// one pointer test per public call.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int open(std::string_view name, int unit, int repeat) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.unit = unit;
    s.repeat = repeat;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[static_cast<size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer* g_tracer = nullptr;
int g_unit = -1;
int g_repeat = -1;

class Scope {
 public:
  explicit Scope(std::string_view name)
      : id_(g_tracer == nullptr ? -1
                                : g_tracer->open(name, g_unit, g_repeat)) {}
  ~Scope() {
    if (id_ >= 0) g_tracer->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void die(const std::string& what) {
  std::fprintf(stderr, "perfbench_harness: %s\n", what.c_str());
  std::exit(1);
}

std::string hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// --- Per-repeat results ------------------------------------------------------

/// One unit's simulated outputs: numbers (exact for counts and cycles) and
/// digests.  run.py requires them identical in every repeat.
struct UnitOutput {
  std::string name;
  std::vector<double> values;
  std::vector<std::string> digests;
};

struct Repeat {
  bool traced = false;
  std::vector<double> unit_s;
  double setup_s = 0;  // the set-up passes before the units, summed
  std::vector<UnitOutput> outputs;
  std::map<std::string, u64> counts;  // per-layer counts summed over units
};

// --- Public-API wrappers (each one span) -------------------------------------

std::unique_ptr<hn::hypernel::System> create_system(
    const hn::hypernel::SystemConfig& cfg) {
  Scope span("hypernel.create");
  auto sys = hn::hypernel::System::create(cfg);
  if (!sys.ok()) die("System::create failed: " + sys.status().message());
  return std::move(sys).value();
}

/// §7.1 performance setup: Hypersec without the MBM.
hn::hypernel::SystemConfig perf_config(Mode mode) {
  hn::hypernel::SystemConfig cfg;
  cfg.mode = mode;
  cfg.enable_mbm = false;
  return cfg;
}

/// §7.2 monitoring setup: Hypernel with the MBM.
hn::hypernel::SystemConfig monitor_config() {
  hn::hypernel::SystemConfig cfg;
  cfg.mode = Mode::kHypernel;
  cfg.enable_mbm = true;
  return cfg;
}

const char* mode_slug(Mode mode) {
  switch (mode) {
    case Mode::kNative: return "native";
    case Mode::kKvmGuest: return "kvm";
    case Mode::kHypernel: return "hypernel";
  }
  return "?";
}

void add_counts(hn::hypernel::System& sys, std::map<std::string, u64>& c) {
  hn::sim::Machine& m = sys.machine();
  const hn::sim::Counters& k = m.counters();
  c["sim.cycles"] += m.account().cycles();
  c["sim.tlb_hits"] += k.tlb_hits;
  c["sim.tlb_misses"] += k.tlb_misses;
  c["sim.pt_descriptor_fetches"] += k.pt_descriptor_fetches;
  c["sim.s2_descriptor_fetches"] += k.s2_descriptor_fetches;
  c["sim.l1_misses"] += k.l1_misses;
  c["sim.noncacheable_accesses"] += k.noncacheable_accesses;
  c["sim.bus_txns"] += m.bus().transaction_count();
  c["sim.hvc_calls"] += k.hvc_calls;
  c["sim.sysreg_traps"] += k.sysreg_traps;
  c["sim.irqs_delivered"] += k.irqs_delivered;
  c["sim.vm_exits"] += k.vm_exits;
  c["kernel.syscalls"] += k.svc_calls;
  c["kernel.context_switches"] += k.context_switches;
  if (hn::mbm::MemoryBusMonitor* mbm = sys.mbm()) {
    const hn::mbm::MbmStats s = mbm->stats();
    c["mbm.snooped_word_writes"] += s.snooped_word_writes;
    c["mbm.detections"] += s.detections;
    c["mbm.bitmap_cache_hits"] += s.bitmap_cache_hits;
    c["mbm.bitmap_cache_misses"] += s.bitmap_cache_misses;
    c["mbm.bitmap_fetches"] += s.bitmap_fetches;
    c["mbm.fifo_wait_cycles"] += s.fifo_wait_cycles;
    c["mbm.fifo_drops"] += s.fifo_drops;
    c["mbm.ring_overflow_drops"] += s.ring_overflow_drops;
    c["mbm.irqs_raised"] += s.irqs_raised;
  }
  if (hn::hypersec::Hypersec* hs = sys.hypersec()) {
    const hn::hypersec::HypersecStats& s = hs->stats();
    c["hypersec.pt_write_calls"] += s.pt_write_calls;
    c["hypersec.pt_write_denials"] += s.pt_write_denials;
    c["hypersec.ttbr_traps"] += s.ttbr_traps;
    c["hypersec.mbm_irq_calls"] += s.mbm_irq_calls;
    c["hypersec.events_dispatched"] += s.events_dispatched;
  }
  if (hn::kvm::KvmHypervisor* kvm = sys.kvm()) {
    c["kvm.s2_faults_serviced"] += kvm->stats().s2_faults_serviced;
    c["kvm.irq_exits"] += kvm->stats().irq_exits;
  }
}

// --- Workloads ---------------------------------------------------------------

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

/// Paper-default AppParams::seed; --seed=1 reproduces the paper benches.
constexpr u64 kPaperAppSeed = 0x90DA'5EED;
constexpr unsigned kLmbenchIterations = 64;  // bench_table1_lmbench
constexpr double kFig6Scale = 0.35;          // bench_fig6_apps
const char* const kApps[] = {"whetstone", "dhrystone", "untar", "iozone",
                             "apache"};
const Mode kModes[] = {Mode::kNative, Mode::kKvmGuest, Mode::kHypernel};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One set-up pass: what the workload prepares before its first unit.
  virtual void setup() = 0;
  /// Run one repeat, timing each unit into `r`.
  virtual void run(Repeat& r) = 0;
  /// Work the traced run does after each traced repeat, outside its timing.
  virtual void after_traced_repeat() {}

 protected:
  /// Times one set-up pass into `r`, then `fn` as unit `index` of the
  /// current repeat, under a root span.  A single pass lasts a few
  /// milliseconds and the speed of a shared host drifts over tens of
  /// seconds, so set-up is sampled before every unit, across the whole run.
  template <typename Fn>
  void timed_unit(Repeat& r, int index, Fn&& fn) {
    const Clock::time_point s0 = Clock::now();
    setup();
    r.setup_s += seconds_since(s0);
    g_unit = index;
    const Clock::time_point t0 = Clock::now();
    {
      Scope span("bench.unit");
      fn();
    }
    r.unit_s.push_back(seconds_since(t0));
    g_unit = -1;
  }
};

/// Table 1 (9 LMbench ops x 64 iterations) and Fig. 6 (5 apps at scale
/// 0.35), each under Native, KVM-guest and Hypernel with the MBM off.
class PaperPerf final : public Workload {
 public:
  explicit PaperPerf(u64 app_seed) : app_seed_(app_seed) {}

  void setup() override {
    for (Mode mode : kModes) create_system(perf_config(mode));
  }

  void run(Repeat& r) override {
    int index = 0;
    for (Mode mode : kModes) {
      UnitOutput out;
      out.name = std::string("t1.") + mode_slug(mode);
      timed_unit(r, index++, [&] {
        auto sys = create_system(perf_config(mode));
        hn::workloads::LmbenchSuite suite(*sys, kLmbenchIterations);
        std::vector<hn::workloads::LmbenchResult> rows;
        {
          Scope span(std::string("workloads.lmbench.") + mode_slug(mode));
          rows = suite.run_all();
        }
        for (const auto& row : rows) out.values.push_back(row.us);
        out.values.push_back(
            static_cast<double>(sys->machine().account().cycles()));
        add_counts(*sys, r.counts);
      });
      r.outputs.push_back(std::move(out));
    }
    for (Mode mode : kModes) {
      for (const char* app : kApps) {
        UnitOutput out;
        out.name = std::string("fig6.") + mode_slug(mode) + "." + app;
        timed_unit(r, index++, [&] {
          auto sys = create_system(perf_config(mode));
          hn::workloads::AppParams p;
          p.scale = kFig6Scale;
          p.seed = app_seed_;
          double us = 0;
          {
            Scope span(std::string("workloads.fig6.") + mode_slug(mode));
            us = hn::workloads::run_app_by_name(*sys, app, p).us;
          }
          out.values = {
              us, static_cast<double>(sys->machine().account().cycles())};
          add_counts(*sys, r.counts);
        });
        r.outputs.push_back(std::move(out));
      }
    }
  }

 private:
  u64 app_seed_;
};

/// Table 2: 5 apps at scale 1.0 under Hypernel with the MBM, monitored at
/// whole-object ("page") and sensitive-field ("word") granularity.
class PaperMonitor final : public Workload {
 public:
  explicit PaperMonitor(u64 app_seed) : app_seed_(app_seed) {}

  void setup() override { create_system(monitor_config()); }

  void run(Repeat& r) override {
    using hn::secapps::Granularity;
    int index = 0;
    for (const char* app : kApps) {
      for (Granularity g : {Granularity::kWholeObject,
                            Granularity::kSensitiveFields}) {
        const bool word = g == Granularity::kSensitiveFields;
        UnitOutput out;
        out.name = std::string("t2.") + app + (word ? ".word" : ".page");
        timed_unit(r, index++, [&] {
          auto sys = create_system(monitor_config());
          hn::secapps::ObjectIntegrityMonitor monitor(*sys, g);
          {
            Scope span("secapps.install");
            if (!monitor.install().ok()) die("monitor install failed");
          }
          hn::workloads::AppParams p;
          p.seed = app_seed_;
          {
            Scope span(word ? "workloads.t2.word" : "workloads.t2.page");
            hn::workloads::run_app_by_name(*sys, app, p);
          }
          out.values = {static_cast<double>(sys->mbm()->stats().detections),
                        static_cast<double>(sys->machine().account().cycles()),
                        static_cast<double>(monitor.stats().events_total)};
          add_counts(*sys, r.counts);
          r.counts["secapps.events_total"] += monitor.stats().events_total;
        });
        r.outputs.push_back(std::move(out));
      }
    }
  }

 private:
  u64 app_seed_;
};

/// Default `hypernel_fuzz` campaigns: quick 4-config matrix plus the
/// determinism rerun, 10 sequences of 40 ops, attacks and forged HVCs on,
/// fresh boots.  A repeat runs 20 campaigns (200 sequences) with
/// consecutive seeds, each one unit.  Untraced repeats call run_campaign;
/// traced repeats rebuild its loop from the public per-sequence functions,
/// one unit per sequence, so each call gets a span.
class FuzzCampaign final : public Workload {
 public:
  static constexpr u64 kCampaigns = 20;
  static constexpr u64 kSequencesPerCampaign = 10;

  /// Campaign seeds are 20 * (seed - 1) + 1 onwards, so --seed=1 starts
  /// with the golden campaign seed 1 and seeds never share one.
  explicit FuzzCampaign(u64 seed) : first_seed_(kCampaigns * (seed - 1) + 1) {
    opts_.sequences = kSequencesPerCampaign;
    opts_.jobs = 1;
    specs_ = hn::fuzz::build_matrix(opts_.full_matrix);
    gen_ = {.ops = opts_.ops,
            .attacks = opts_.attacks,
            .forged = opts_.forged,
            .extended_attacks = opts_.extended_attacks};
  }

  void setup() override {
    for (const auto& spec : specs_) create_system(spec.system_config());
  }

  void run(Repeat& r) override {
    for (u64 c = 0; c < kCampaigns; ++c) {
      opts_.seed = first_seed_ + c;
      UnitOutput out;
      out.name = "campaign." + std::to_string(c);
      if (g_tracer == nullptr) {
        run_campaign(r, static_cast<int>(c), out);
      } else {
        run_decomposed(r, static_cast<int>(c * kSequencesPerCampaign), out);
      }
      r.outputs.push_back(std::move(out));
    }
  }

  /// Boot cost per configuration: an empty-op run_sequence each.
  void after_traced_repeat() override {
    for (const auto& spec : specs_) {
      Scope span("fuzz.boot");
      (void)hn::fuzz::run_sequence(spec, {}, exec_);
    }
  }

 private:
  void run_campaign(Repeat& r, int unit, UnitOutput& out) {
    timed_unit(r, unit, [&] {
      const hn::fuzz::CampaignResult res = hn::fuzz::run_campaign(opts_);
      out.values = {static_cast<double>(res.sequences_run),
                    static_cast<double>(res.failures)};
      out.digests.push_back(hex(res.corpus_digest));
      for (u64 d : res.sequence_digests) out.digests.push_back(hex(d));
    });
  }

  /// run_campaign's per-sequence loop (fuzzer.cpp), one unit per sequence.
  void run_decomposed(Repeat& r, int first_unit, UnitOutput& out) {
    u64 corpus = hn::hypernel::kFnvOffset;
    u64 failures = 0;
    std::vector<std::string> seq_digests;
    for (u64 i = 0; i < opts_.sequences; ++i) {
      timed_unit(r, first_unit + static_cast<int>(i), [&] {
        std::vector<hn::fuzz::Op> ops;
        {
          Scope span("fuzz.generate");
          ops = hn::fuzz::generate_sequence(
              hn::fuzz::sequence_seed(opts_.seed, i), gen_);
        }
        std::vector<hn::fuzz::RunResult> runs;
        runs.reserve(specs_.size());
        for (const auto& spec : specs_) {
          Scope span("fuzz.exec." + spec.name);
          runs.push_back(hn::fuzz::run_sequence(spec, ops, exec_));
        }
        hn::fuzz::RunResult rerun;
        {
          Scope span("fuzz.exec.rerun");
          rerun = hn::fuzz::run_sequence(specs_[0], ops, exec_);
        }
        bool ok = false;
        {
          Scope span("fuzz.oracle");
          ok = hn::fuzz::check_sequence(ops, specs_, runs).ok();
        }
        ok = ok && identical_runs(runs[0], rerun);
        failures += ok ? 0 : 1;
        u64 seq = hn::hypernel::kFnvOffset;
        for (const auto& run : runs) {
          const u64 hash = run.fingerprint.functional_hash();
          corpus = hn::hypernel::fnv_fold(
              hn::hypernel::fnv_fold(corpus, hash), run.fingerprint.cycles);
          seq = hn::hypernel::fnv_fold(hn::hypernel::fnv_fold(seq, hash),
                                       run.fingerprint.cycles);
          r.counts["fuzz.attacks"] += run.attacks.size();
          r.counts["fuzz.alerts"] += run.fingerprint.alerts;
        }
        seq_digests.push_back(hex(seq));
        runs.push_back(std::move(rerun));
        for (const auto& run : runs) {
          r.counts["fuzz.sim_cycles"] += run.fingerprint.cycles;
          r.counts["fuzz.execs"] += 1;
        }
        r.counts["fuzz.ops"] += ops.size();
      });
    }
    out.values = {static_cast<double>(opts_.sequences),
                  static_cast<double>(failures)};
    out.digests.push_back(hex(corpus));
    out.digests.insert(out.digests.end(), seq_digests.begin(),
                       seq_digests.end());
  }

  /// The campaign's determinism pin: the reference configuration replayed
  /// from scratch must be bit-exact (fuzzer.cpp identical_runs).
  static bool identical_runs(const hn::fuzz::RunResult& a,
                             const hn::fuzz::RunResult& b) {
    if (a.build_failed != b.build_failed || a.steps.size() != b.steps.size()) {
      return false;
    }
    for (size_t i = 0; i < a.steps.size(); ++i) {
      if (a.steps[i].result != b.steps[i].result ||
          a.steps[i].state_digest != b.steps[i].state_digest ||
          a.steps[i].alerts != b.steps[i].alerts ||
          a.steps[i].events != b.steps[i].events) {
        return false;
      }
    }
    return a.fingerprint.functional_hash() == b.fingerprint.functional_hash() &&
           a.fingerprint.cycles == b.fingerprint.cycles &&
           a.fingerprint.alerts == b.fingerprint.alerts &&
           a.fingerprint.monitor_events == b.fingerprint.monitor_events &&
           a.violations == b.violations;
  }

  u64 first_seed_;
  hn::fuzz::FuzzOptions opts_;
  std::vector<hn::fuzz::FuzzConfigSpec> specs_;
  hn::fuzz::GeneratorOptions gen_;
  hn::fuzz::ExecutorOptions exec_;
};

// --- Output ------------------------------------------------------------------

void print_doubles(const std::vector<double>& v) {
  std::printf("[");
  for (size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.17g", i == 0 ? "" : ",", v[i]);
  }
  std::printf("]");
}

void print_repeat(const Repeat& r) {
  std::printf("{\"traced\":%s,\"unit_s\":", r.traced ? "true" : "false");
  print_doubles(r.unit_s);
  std::printf(",\"outputs\":[");
  for (size_t i = 0; i < r.outputs.size(); ++i) {
    const UnitOutput& o = r.outputs[i];
    std::printf("%s{\"name\":\"%s\",\"values\":", i == 0 ? "" : ",",
                o.name.c_str());
    print_doubles(o.values);
    std::printf(",\"digests\":[");
    for (size_t j = 0; j < o.digests.size(); ++j) {
      std::printf("%s\"%s\"", j == 0 ? "" : ",", o.digests[j].c_str());
    }
    std::printf("]}");
  }
  std::printf("],\"counts\":{");
  bool first = true;
  for (const auto& [name, value] : r.counts) {
    std::printf("%s\"%s\":%" PRIu64, first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::printf("}}");
}

/// Peak resident set of this process image, KiB.  VmHWM belongs to the
/// address space and starts afresh at exec, unlike getrusage's ru_maxrss,
/// which keeps the launching process's peak (a Python parent's, here).
long peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) die("cannot read /proc/self/status");
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0) die("no VmHWM in /proc/self/status");
  return kib;
}

bool write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                 ",\"parent\":%d,\"unit\":%d,\"repeat\":%d}%s\n",
                 s.name.c_str(), s.start_ns, s.end_ns, s.parent, s.unit,
                 s.repeat, i + 1 == spans.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) die("expected --flag=value, got " + arg);
    const std::string flag = arg.substr(0, eq);
    const char* v = argv[i] + eq + 1;
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      o.trace = std::strtoul(v, &end, 10) != 0;
    } else if (flag == "--spans-out") {
      o.spans_out = v;
    } else {
      die("unknown argument " + arg);
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      die("bad value in " + arg);
    }
  }
  if (o.seconds <= 0) die("--seconds must be positive");
  if (o.trace && o.spans_out.empty()) die("--trace=1 needs --spans-out");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const Clock::time_point origin = Clock::now();
  Tracer tracer(origin);

  // --seed=1 keeps the paper benches' app seed; other seeds shift it.
  const u64 app_seed = kPaperAppSeed + (opt.seed - 1);
  std::unique_ptr<Workload> workload;
  if (opt.workload == "paper_perf") {
    workload = std::make_unique<PaperPerf>(app_seed);
  } else if (opt.workload == "paper_monitor") {
    workload = std::make_unique<PaperMonitor>(app_seed);
  } else if (opt.workload == "fuzz_campaign") {
    workload = std::make_unique<FuzzCampaign>(opt.seed);
  } else {
    die("unknown workload '" + opt.workload + "'");
  }

  // Each repeat gives one set-up sample, the mean of its set-up passes;
  // run.py reports the median sample.  Repeat 0 warms the host (allocator,
  // page faults) and run.py checks but does not time it.  Then at least two
  // timed repeats (two of each with tracing, which alternates them), until
  // --seconds have passed.
  std::vector<double> setup_s;
  std::vector<Repeat> repeats;
  const int min_repeats = opt.trace ? 5 : 3;
  const Clock::time_point t0 = Clock::now();
  while (static_cast<int>(repeats.size()) < min_repeats ||
         seconds_since(t0) < opt.seconds) {
    Repeat r;
    r.traced = opt.trace && repeats.size() % 2 == 1;
    g_repeat = static_cast<int>(repeats.size());
    g_tracer = r.traced ? &tracer : nullptr;
    workload->run(r);
    if (r.traced) workload->after_traced_repeat();
    g_tracer = nullptr;
    setup_s.push_back(r.setup_s / static_cast<double>(r.unit_s.size()));
    repeats.push_back(std::move(r));
  }

  const long rss_kib = peak_rss_kib();

  if (opt.trace && !write_spans(tracer.spans(), opt.spans_out)) {
    die("cannot write " + opt.spans_out);
  }

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"app_seed\":%" PRIu64 ",\"peak_rss_kib\":%ld,\"setup_s\":",
              opt.workload.c_str(), opt.seed, app_seed, rss_kib);
  print_doubles(setup_s);
  std::printf(",\"repeats\":[");
  for (size_t i = 0; i < repeats.size(); ++i) {
    if (i != 0) std::printf(",");
    print_repeat(repeats[i]);
  }
  std::printf("]}\n");
  return 0;
}
