#!/usr/bin/env python3
"""Self-tests of the benchmark's own logic, and the fidelity cross-check.

    python3 perfbench/test_perfbench.py              # all (builds, ~1 min)
    python3 perfbench/test_perfbench.py Catalogue Statistics SpanBreakdown \
        OutputChecks                                 # pure logic, no build

TracedRuns and FidelityCrossCheck build the harness (and, for the latter,
the three paper-artifact benches from ../bench) into the benchmark's
build tree, exactly as run.py does.
"""

import functools
import json
import os
import re
import subprocess
import unittest

import analysis
import run

UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Catalogue(unittest.TestCase):
    def test_every_metric_is_named_with_unit_and_direction(self):
        spec = benchmark_json()
        for entry in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(analysis.NAME_RE.fullmatch(entry["name"]), entry)
            self.assertLessEqual(len(entry["name"]), 64)
            self.assertTrue(UNIT_RE.fullmatch(entry["unit"]), entry)
            self.assertIn(entry["better"], ("lower", "higher"))

    def test_benchmark_json_lists_what_the_benchmark_reports(self):
        spec = benchmark_json()
        for key, catalogue in (("end_to_end", analysis.END_TO_END),
                               ("per_layer", analysis.PER_LAYER)):
            listed = {e["name"]: (e["unit"], e["better"]) for e in spec[key]}
            self.assertEqual(listed, catalogue)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(analysis.WORKLOADS))
        bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)


class Statistics(unittest.TestCase):
    def test_median(self):
        self.assertEqual(analysis.median([3, 1, 2]), 2)
        self.assertEqual(analysis.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_use_the_exclusive_method(self):
        self.assertEqual(analysis.quartiles(list(range(1, 11))),
                         (2.75, 5.5, 8.25))
        self.assertEqual(analysis.quartiles([5, 1, 4, 2, 3]), (1.5, 3, 4.5))

    def test_wall_is_the_fastest_repeat_time(self):
        repeats = [{"unit_s": [1, 30]}, {"unit_s": [6, 20]},
                   {"unit_s": [2, 20]}]
        # Repeat totals 31, 26 and 22; the per-unit minima would sum to 21.
        self.assertEqual(analysis.wall_s(repeats), 22)


def span(name, start, end, parent=-1, repeat=1):
    return {"name": name, "start_ns": start, "end_ns": end, "parent": parent,
            "unit": 0, "repeat": repeat}


class SpanBreakdown(unittest.TestCase):
    SPANS = [
        span("hypernel.create", 0, 5, repeat=-1),         # set-up: ignored
        span("bench.unit", 10, 110),                       # 0 ..
        span("hypernel.create", 12, 30, parent=1),
        span("workloads.fig6.native", 30, 100, parent=1),
        span("workloads.inner", 40, 60, parent=3),         # nested, same layer
        span("secapps.install", 60, 70, parent=3),
        span("fuzz.boot", 120, 140),                       # after repeat
    ]

    def test_totals_and_self_times(self):
        rep = analysis.span_breakdown(self.SPANS)[1]
        self.assertEqual(rep["total_ns"], 100)
        self.assertEqual(rep["layers"]["bench"], [100, 100 - 18 - 70])
        self.assertEqual(rep["layers"]["hypernel"], [18, 18])
        self.assertEqual(rep["layers"]["workloads"], [70, 70 - 20 - 10 + 20])
        self.assertEqual(rep["layers"]["secapps"], [10, 10])

    def test_self_times_telescope_to_the_root_total(self):
        for rep in analysis.span_breakdown(self.SPANS).values():
            self.assertEqual(sum(s for _, s in rep["layers"].values()),
                             rep["total_ns"])


def output(name, *values, digests=()):
    return {"name": name, "values": list(values), "digests": list(digests)}


class OutputChecks(unittest.TestCase):
    @staticmethod
    def monitor_doc(word_untar=10):
        outs = []
        for app in analysis.APPS:
            outs.append(output(f"t2.{app}.page", 100, 5000, 100))
            outs.append(output(f"t2.{app}.word",
                               word_untar if app == "untar" else 10, 4000, 10))
        rep = {"traced": False, "unit_s": [0.1] * len(outs), "outputs": outs,
               "counts": {"mbm.detections": 550}}
        return {"workload": "paper_monitor",
                "repeats": [rep, json.loads(json.dumps(rep))]}

    def test_identical_repeats_pass(self):
        self.assertEqual(analysis.check(self.monitor_doc())[:2], (20, 0))

    def test_a_changed_output_fails_its_unit(self):
        doc = self.monitor_doc()
        doc["repeats"][1]["outputs"][3]["values"][1] += 1
        self.assertEqual(analysis.check(doc)[:2], (20, 1))

    def test_word_must_trap_less_than_page(self):
        attempted, failed, problems = analysis.check(self.monitor_doc(100))
        self.assertEqual((attempted, failed), (20, 2))  # untar, both repeats
        self.assertIn("untar", problems[0])

    def test_changed_counts_fail(self):
        doc = self.monitor_doc()
        doc["repeats"][1]["counts"]["mbm.detections"] += 1
        self.assertEqual(analysis.check(doc)[1], 1)

    def test_fuzz_counts_oracle_failures_and_digest_changes(self):
        def rep(failures, digests):
            return {"traced": False, "unit_s": [1.0], "counts": {},
                    "outputs": [output("campaign.0", 3, failures,
                                       digests=digests)]}
        doc = {"workload": "fuzz_campaign", "repeats": [
            rep(0, ["c0", "a", "b", "c"]),
            rep(1, ["c1", "a", "b", "x"]),
        ]}
        self.assertEqual(analysis.check(doc)[:2], (6, 2))


@functools.lru_cache(maxsize=None)
def traced_run(workload):
    """One short traced run at the default seed (fewest repeats)."""
    if not run.build(["perfbench_harness"]):
        raise RuntimeError("harness build failed")
    return run.run_harness(workload, run.DEFAULT_SEED, 0.01, True)


class TracedRuns(unittest.TestCase):
    def test_outputs_check_and_self_times_sum_to_traced_total(self):
        for workload in analysis.WORKLOADS:
            with self.subTest(workload=workload):
                doc, spans = traced_run(workload)
                # For fuzz_campaign repeat 0 is run_campaign and the traced
                # repeats rebuild its loop: a clean check means the rebuilt
                # loop reproduced every sequence digest and the corpus digest.
                self.assertEqual(analysis.check(doc)[1:], (0, []))
                breakdown = analysis.span_breakdown(spans)
                self.assertEqual(sorted(breakdown),
                                 [i for i, r in enumerate(doc["repeats"])
                                  if r["traced"]])
                for rep in breakdown.values():
                    self.assertEqual(
                        sum(s for _, s in rep["layers"].values()),
                        rep["total_ns"])
                metrics = analysis.per_layer(doc, spans)
                self.assertEqual(set(metrics), set(analysis.PER_LAYER))
                self.assertAlmostEqual(
                    sum(metrics[f"trace.{l}.self_ms"]
                        for l in analysis.SPAN_LAYERS),
                    metrics["trace.total_ms"], places=6)


@functools.lru_cache(maxsize=None)
def bench_output(name):
    """Stdout of one paper-artifact bench built from ../bench."""
    target = f"bench_{name}"
    if not run.build([target]):
        raise RuntimeError(f"{target} build failed")
    return subprocess.run([os.path.join(run.build_dir(), target), "--jobs=1"],
                          check=True, stdout=subprocess.PIPE, text=True,
                          stderr=subprocess.DEVNULL).stdout


class FidelityCrossCheck(unittest.TestCase):
    """The benchmark's figures equal what the paper benches print."""

    def test_table1_average_slowdowns(self):
        printed = re.search(r"KVM-guest ([\d.]+)% .*Hypernel ([\d.]+)%",
                            bench_output("table1_lmbench").splitlines()[-1])
        t1 = analysis.table1_figures(traced_run("paper_perf")[0])
        self.assertEqual(f"{t1['slowdown_pct']['kvm']:.1f}", printed[1])
        self.assertEqual(f"{t1['slowdown_pct']['hypernel']:.1f}", printed[2])
        paper = re.search(r"Hypernel [\d.]+% \(paper ([\d.]+)%",
                          bench_output("table1_lmbench"))
        self.assertEqual(f"{t1['paper_slowdown_pct']['hypernel']:.1f}",
                         paper[1])

    def test_fig6_average_overheads(self):
        printed = re.search(r"KVM-guest ([\d.]+)% .*Hypernel ([\d.]+)%",
                            bench_output("fig6_apps").splitlines()[-1])
        f6 = analysis.fig6_figures(traced_run("paper_perf")[0])
        self.assertEqual(f"{f6['kvm']:.1f}", printed[1])
        self.assertEqual(f"{f6['hypernel']:.1f}", printed[2])

    def test_table2_mean_ratio(self):
        printed = re.search(r"per-benchmark mean ([\d.]+)%",
                            bench_output("table2_granularity"))
        t2 = analysis.table2_figures(traced_run("paper_monitor")[0])
        self.assertEqual(f"{t2['mean_ratio_pct']:.1f}", printed[1])


if __name__ == "__main__":
    unittest.main()
