#!/usr/bin/env python3
"""Summarise a bench_sim_throughput run for the CI step summary.

Usage: perf_summary.py RESULTS.json [BASELINE.json]

Writes a markdown table of per-loop rates and speedups to
$GITHUB_STEP_SUMMARY (stdout when unset).  When a baseline (the committed
BENCH_sim_throughput.json) is given, compares against it and emits a
non-gating `::warning::` for any loop whose fast-path speedup regressed
more than 25%, or whose absolute fast-path rate dropped more than 15%,
relative to the baseline.  The rate check is the sharper signal: a
simulator change that slows the fast path *and* the reference path alike
(the SMP failure mode — extra per-access work on the shared bus) leaves
the speedup ratio flat while replay throughput quietly sinks.  Always
exits 0: CI-runner noise must never gate a merge; the warning is the
signal to look.

The table also shows each loop's reference-rate change against the
baseline (informational, never a warning): a speedup can fall because
the reference side got faster, and the "ref delta" column tells that
apart from a slower fast path.
"""

import json
import os
import sys

REGRESSION_THRESHOLD = 0.25
FAST_RATE_THRESHOLD = 0.15


def load(path):
    with open(path) as f:
        return json.load(f)


def fmt_rate(rate):
    if rate >= 1e6:
        return f"{rate / 1e6:.1f}M/s"
    if rate >= 1e3:
        return f"{rate / 1e3:.1f}k/s"
    return f"{rate:.0f}/s"


def rate(loop, key):
    """Per-second rate, accepting both the current schema (ref_per_s /
    fast_per_s) and the pre-unit one (ref_accesses_per_s / ...)."""
    return loop.get(f"{key}_per_s", loop.get(f"{key}_accesses_per_s", 0))


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    results = load(argv[1])
    baseline = load(argv[2]) if len(argv) > 2 and os.path.exists(argv[2]) else None
    base_loops = (
        {l["name"]: l for l in baseline["loops"]} if baseline else {}
    )

    lines = [
        "## Sim throughput (quick)",
        "",
        "| loop | unit | ref | fast | speedup | baseline | delta | ref delta "
        "| fast delta |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    warnings = []
    for loop in results["loops"]:
        name = loop["name"]
        base = base_loops.get(name)
        base_speedup = base["speedup"] if base else None
        delta = ""
        if base_speedup:
            rel = loop["speedup"] / base_speedup - 1.0
            delta = f"{100 * rel:+.0f}%"
            if rel < -REGRESSION_THRESHOLD:
                warnings.append(
                    f"{name}: speedup {loop['speedup']:.2f}x vs baseline "
                    f"{base_speedup:.2f}x ({100 * rel:+.0f}%)"
                )
        base_ref = rate(base, "ref") if base else 0
        ref_delta = (
            f"{100 * (rate(loop, 'ref') / base_ref - 1.0):+.0f}%" if base_ref else ""
        )
        base_fast = rate(base, "fast") if base else 0
        fast_delta = ""
        if base_fast:
            rel_fast = rate(loop, "fast") / base_fast - 1.0
            fast_delta = f"{100 * rel_fast:+.0f}%"
            if rel_fast < -FAST_RATE_THRESHOLD:
                warnings.append(
                    f"{name}: fast rate {fmt_rate(rate(loop, 'fast'))} vs "
                    f"baseline {fmt_rate(base_fast)} ({100 * rel_fast:+.0f}%)"
                )
        lines.append(
            "| {} | {} | {} | {} | {:.2f}x | {} | {} | {} | {} |".format(
                name,
                loop.get("unit", "accesses"),
                fmt_rate(rate(loop, "ref")),
                fmt_rate(rate(loop, "fast")),
                loop["speedup"],
                f"{base_speedup:.2f}x" if base_speedup else "—",
                delta or "—",
                ref_delta or "—",
                fast_delta or "—",
            )
        )

    # End-to-end replay speed: the loops the fast-path work optimises for.
    # Reported explicitly (execs/sec + speedup) so the step summary answers
    # "did replay get faster" without reading the whole table.
    e2e = [l for l in results["loops"] if l["name"] in ("fuzz_replay", "campaign")]
    if e2e:
        lines += ["", "### End-to-end replay (fast vs reference)", ""]
        for loop in e2e:
            base = base_loops.get(loop["name"])
            lines.append(
                "- **{}**: {} execs fast vs {} reference — "
                "**{:.2f}x** (baseline {})".format(
                    loop["name"],
                    fmt_rate(rate(loop, "fast")),
                    fmt_rate(rate(loop, "ref")),
                    loop["speedup"],
                    f"{base['speedup']:.2f}x" if base else "—",
                )
            )
    if warnings:
        lines += ["", "**Perf regressions vs committed baseline — speedup "
                      ">25% or fast rate >15% (non-gating; runner noise is "
                      "common):**"]
        lines += [f"- {w}" for w in warnings]
        for w in warnings:
            print(f"::warning title=sim-throughput regression::{w}")
    else:
        lines += ["", "No speedup regression beyond 25% and no fast-rate "
                      "drop beyond 15% of the committed baseline."]

    out = "\n".join(lines) + "\n"
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as f:
            f.write(out)
    else:
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
