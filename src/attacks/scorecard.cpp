#include "attacks/scorecard.h"

#include <cstdio>
#include <unordered_map>

#include "exec/sharded_runner.h"
#include "hypernel/fingerprint.h"
#include "sim/trace_io.h"

namespace hn::attacks {
namespace {

using fuzz::FuzzConfigSpec;
using fuzz::RunResult;

/// Does the flight recorder causally link an alert verdict (at/after the
/// tamper) back to a bus write?  This is the end-to-end provenance claim:
/// tampering reached memory, the snooper saw it, the detector judged it.
bool verdict_chains_to_bus_write(const sim::TraceData& trace,
                                 Cycles tamper_at) {
  std::unordered_map<u64, size_t> by_seq;
  by_seq.reserve(trace.events.size());
  for (size_t i = 0; i < trace.events.size(); ++i) {
    by_seq.emplace(trace.events[i].seq, i);
  }
  for (const sim::TraceEvent& e : trace.events) {
    if (e.kind != sim::TraceKind::kVerdict || e.b != 1 || e.at < tamper_at) {
      continue;
    }
    u64 cause = e.cause;
    while (cause != sim::kNoCause) {
      const auto it = by_seq.find(cause);
      if (it == by_seq.end()) break;  // link fell off the ring
      const sim::TraceEvent& up = trace.events[it->second];
      if (up.kind == sim::TraceKind::kBusWrite) return true;
      cause = up.cause;
    }
  }
  return false;
}

ScorecardCell grade_cell(const AttackScenario& scenario,
                         const FuzzConfigSpec& spec, const RunResult& rec,
                         bool trace_attribution) {
  ScorecardCell cell;
  cell.scenario = scenario.name;
  cell.family = scenario.family;
  cell.config = spec.name;
  cell.intended = scenario.intended_detector == spec.name;
  cell.alerts = rec.alert_log.size();

  // The tamper instant: the attack record of the scenario's first
  // declared tamper step.
  const fuzz::AttackRecord* tamper = nullptr;
  for (const fuzz::AttackRecord& a : rec.attacks) {
    if (a.step == scenario.tamper_steps.front()) {
      tamper = &a;
      break;
    }
  }
  if (tamper == nullptr) {
    cell.tamper_skipped = true;
    cell.setup_alerts = cell.alerts;
    return cell;
  }

  for (const fuzz::AlertRecord& a : rec.alert_log) {
    if (a.at < tamper->at) {
      ++cell.setup_alerts;
      continue;
    }
    if (!cell.detected) {
      cell.detected = true;
      cell.has_latency = true;
      cell.latency = a.at - tamper->at;
    }
    if (a.kind == scenario.expected_alert &&
        a.detector == scenario.intended_detector) {
      cell.expected_seen = true;
    }
  }

  if (trace_attribution && cell.detected && !rec.trace_blob.empty()) {
    sim::TraceData trace;
    if (sim::parse_trace(rec.trace_blob, trace).ok()) {
      cell.attributed = verdict_chains_to_bus_write(trace, tamper->at);
    }
  }
  return cell;
}

void append_bool(std::string& out, bool v) { out += v ? "true" : "false"; }

void append_u64(std::string& out, u64 v) { out += std::to_string(v); }

}  // namespace

std::vector<FuzzConfigSpec> detector_configs() {
  std::vector<FuzzConfigSpec> specs;
  {
    FuzzConfigSpec s;
    s.name = "object-integrity-monitor";
    s.monitor = true;
    s.granularity = secapps::Granularity::kSensitiveFields;
    specs.push_back(s);
  }
  {
    FuzzConfigSpec s;
    s.name = "invariant-checker";
    s.invariant_checker = true;
    specs.push_back(s);
  }
  {
    FuzzConfigSpec s;
    s.name = "kernel-cfi";
    s.cfi_monitor = true;
    specs.push_back(s);
  }
  return specs;
}

Scorecard run_scorecard(const ScorecardOptions& options) {
  std::vector<AttackScenario> lib = scenario_library();
  if (options.cores > 1) {
    // Cross-core cells join the matrix only when there is a second core
    // for the writer to land on.
    const std::vector<AttackScenario>& smp = smp_scenario_library();
    lib.insert(lib.end(), smp.begin(), smp.end());
  }
  std::vector<FuzzConfigSpec> specs = detector_configs();
  for (FuzzConfigSpec& spec : specs) {
    spec.cores = options.cores == 0 ? 1 : options.cores;
  }
  const std::vector<fuzz::Op> benign_ops = benign_workload();

  fuzz::ExecutorOptions exec_opt;
  exec_opt.capture_trace = options.trace_attribution;
  exec_opt.profile = options.profile;
  exec_opt.collect_metrics = options.collect_metrics;
  exec_opt.sample_cycles = options.sample_cycles;

  // One flat index space: scenario-major attack cells, then the benign
  // probes.  run_sharded merges in index order, so everything downstream
  // is independent of the worker count.
  const u64 attack_cells = lib.size() * specs.size();
  const u64 total = attack_cells + specs.size();
  exec::ShardOptions shard;
  shard.jobs = options.jobs;
  std::vector<RunResult> runs = exec::run_sharded<RunResult>(
      total,
      [&](u64 index) {
        if (index < attack_cells) {
          const AttackScenario& s = lib[index / specs.size()];
          return fuzz::run_sequence(specs[index % specs.size()], s.ops,
                                    exec_opt);
        }
        return fuzz::run_sequence(specs[index - attack_cells], benign_ops,
                                  exec_opt);
      },
      shard);

  Scorecard score;
  for (const RunResult& run : runs) {
    if (options.profile) score.profile.merge(run.profile);
    if (options.collect_metrics) score.metrics.merge(run.metrics);
  }
  // Sample trace for --trace-out: the first intended hit — except on an
  // SMP matrix, where a cross-core scenario's trace is the interesting
  // one (it carries multi-core provenance, so the report renders the
  // per-core attribution table).  The JSON digest never covers the
  // sample, so this preference cannot move the pinned goldens.
  bool sample_is_smp = false;
  bool sample_ts_is_smp = false;
  for (u64 i = 0; i < attack_cells; ++i) {
    const AttackScenario& scenario = lib[i / specs.size()];
    score.cells.push_back(grade_cell(scenario, specs[i % specs.size()],
                                     runs[i], options.trace_attribution));
    const ScorecardCell& cell = score.cells.back();
    const bool is_smp = scenario.name.rfind("smp-", 0) == 0;
    if (cell.intended && cell.expected_seen && !runs[i].trace_blob.empty() &&
        (score.sample_trace.empty() || (is_smp && !sample_is_smp))) {
      score.sample_trace = runs[i].trace_blob;
      sample_is_smp = is_smp;
    }
    // Sampled stream of the same preferred cell (independent of the trace
    // so --no-trace runs still produce a --timeseries-out artifact).
    if (cell.intended && cell.expected_seen &&
        !runs[i].timeseries_blob.empty() &&
        (score.sample_timeseries.empty() || (is_smp && !sample_ts_is_smp))) {
      score.sample_timeseries = runs[i].timeseries_blob;
      sample_ts_is_smp = is_smp;
    }
  }
  for (size_t c = 0; c < specs.size(); ++c) {
    const RunResult& rec = runs[attack_cells + c];
    score.benign.push_back(BenignCell{specs[c].name, rec.fingerprint.alerts,
                                      rec.fingerprint.monitor_events});
  }

  // --- per-detector rollup -------------------------------------------------
  score.all_intended_hit = true;
  score.zero_false_positives = true;
  score.all_hits_attributed = true;
  for (size_t c = 0; c < specs.size(); ++c) {
    DetectorSummary sum;
    sum.detector = specs[c].name;
    u64 latency_total = 0;
    for (const ScorecardCell& cell : score.cells) {
      if (cell.config != sum.detector) continue;
      sum.false_positives += cell.setup_alerts;
      if (cell.intended) {
        ++sum.intended_cells;
        if (cell.expected_seen) {
          ++sum.hits;
          latency_total += cell.latency;
          if (!cell.attributed) score.all_hits_attributed = false;
        } else {
          ++sum.misses;
          score.all_intended_hit = false;
        }
      } else if (cell.detected) {
        ++sum.cross_detections;
      }
    }
    sum.false_positives += score.benign[c].alerts;
    if (sum.hits > 0) sum.mean_latency = latency_total / sum.hits;
    if (sum.false_positives > 0) score.zero_false_positives = false;
    score.summary.push_back(sum);
  }
  if (!options.trace_attribution) score.all_hits_attributed = false;

  // --- deterministic JSON --------------------------------------------------
  // jobs is deliberately NOT echoed into the report: it may not change
  // results, so the JSON must be byte-identical across it.
  // trace_attribution is — it gates the attribution fields.
  std::string& j = score.json;
  j += "{\n  \"scorecard_version\": 1,\n  \"options\": "
       "{\"trace_attribution\": ";
  append_bool(j, options.trace_attribution);
  // The core count is echoed only when it actually shapes the matrix, so
  // every single-core report stays byte-identical to the pre-SMP format.
  if (options.cores > 1) {
    j += ", \"cores\": ";
    append_u64(j, options.cores);
  }
  j += "},\n  \"cells\": [\n";
  for (size_t i = 0; i < score.cells.size(); ++i) {
    const ScorecardCell& cell = score.cells[i];
    j += "    {\"scenario\": \"" + cell.scenario + "\", \"family\": \"" +
         family_name(cell.family) + "\", \"config\": \"" + cell.config +
         "\", \"intended\": ";
    append_bool(j, cell.intended);
    j += ", \"detected\": ";
    append_bool(j, cell.detected);
    j += ", \"expected_seen\": ";
    append_bool(j, cell.expected_seen);
    j += ", \"alerts\": ";
    append_u64(j, cell.alerts);
    j += ", \"setup_alerts\": ";
    append_u64(j, cell.setup_alerts);
    j += ", \"latency_cycles\": ";
    if (cell.has_latency) {
      append_u64(j, cell.latency);
    } else {
      j += "null";
    }
    j += ", \"attributed\": ";
    append_bool(j, cell.attributed);
    j += ", \"tamper_skipped\": ";
    append_bool(j, cell.tamper_skipped);
    j += i + 1 < score.cells.size() ? "},\n" : "}\n";
  }
  j += "  ],\n  \"benign\": [\n";
  for (size_t i = 0; i < score.benign.size(); ++i) {
    const BenignCell& b = score.benign[i];
    j += "    {\"config\": \"" + b.config + "\", \"false_positives\": ";
    append_u64(j, b.alerts);
    j += ", \"events\": ";
    append_u64(j, b.events);
    j += i + 1 < score.benign.size() ? "},\n" : "}\n";
  }
  j += "  ],\n  \"summary\": [\n";
  for (size_t i = 0; i < score.summary.size(); ++i) {
    const DetectorSummary& s = score.summary[i];
    j += "    {\"detector\": \"" + s.detector + "\", \"intended\": ";
    append_u64(j, s.intended_cells);
    j += ", \"hits\": ";
    append_u64(j, s.hits);
    j += ", \"misses\": ";
    append_u64(j, s.misses);
    j += ", \"cross_detections\": ";
    append_u64(j, s.cross_detections);
    j += ", \"false_positives\": ";
    append_u64(j, s.false_positives);
    j += ", \"mean_latency_cycles\": ";
    append_u64(j, s.mean_latency);
    j += i + 1 < score.summary.size() ? "},\n" : "}\n";
  }
  j += "  ],\n  \"all_intended_hit\": ";
  append_bool(j, score.all_intended_hit);
  j += ",\n  \"zero_false_positives\": ";
  append_bool(j, score.zero_false_positives);
  j += ",\n  \"all_hits_attributed\": ";
  append_bool(j, score.all_hits_attributed);
  j += "\n}\n";

  score.digest = hypernel::kFnvOffset;
  for (const char c : score.json) {
    score.digest = hypernel::fnv_fold(score.digest, static_cast<u8>(c));
  }
  return score;
}

std::string render_scorecard(const Scorecard& score) {
  std::string out;
  out +=
      "detector                    hits/intended  cross  FPs  mean-latency\n";
  for (const DetectorSummary& s : score.summary) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "%-27s %llu/%llu            %-6llu %-4llu %llu cy\n",
                  s.detector.c_str(),
                  static_cast<unsigned long long>(s.hits),
                  static_cast<unsigned long long>(s.intended_cells),
                  static_cast<unsigned long long>(s.cross_detections),
                  static_cast<unsigned long long>(s.false_positives),
                  static_cast<unsigned long long>(s.mean_latency));
    out += line;
  }
  out += "\n";
  for (const ScorecardCell& cell : score.cells) {
    if (!cell.intended) continue;
    char line[200];
    std::snprintf(
        line, sizeof line, "%-24s %-22s %s%s  latency=%llu cy  alerts=%llu\n",
        cell.scenario.c_str(), cell.config.c_str(),
        cell.expected_seen ? "HIT " : (cell.tamper_skipped ? "SKIP" : "MISS"),
        cell.attributed ? " (attributed)" : "",
        static_cast<unsigned long long>(cell.latency),
        static_cast<unsigned long long>(cell.alerts));
    out += line;
  }
  for (const BenignCell& b : score.benign) {
    char line[120];
    std::snprintf(line, sizeof line, "%-24s %-22s %s  alerts=%llu\n", "benign",
                  b.config.c_str(), b.alerts == 0 ? "CLEAN" : "FP",
                  static_cast<unsigned long long>(b.alerts));
    out += line;
  }
  return out;
}

}  // namespace hn::attacks
