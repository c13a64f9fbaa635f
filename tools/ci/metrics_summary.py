#!/usr/bin/env python3
"""Summarise a --metrics-out JSON snapshot for the CI step summary.

Usage: metrics_summary.py METRICS.json [TITLE]

Renders the observability snapshot as markdown: the per-layer self-time
table from the layer.* counters (simulated self cycles with their share,
and host self-ms when the run also had --profile), subsystem rollups of
the counters, the largest individual counters, and every histogram's
count/weight/range.  Output goes to $GITHUB_STEP_SUMMARY (stdout when
unset).  Exits non-zero when the snapshot cannot be read, is empty, or
carries no layer.* rows: every machine with metrics on registers them,
so a metrics file without them is itself a bug worth failing on.
"""

import json
import os
import sys


def layer_rows(metrics):
    """{layer: {column: value}} from the layer.<name>.<column> counters."""
    rows = {}
    for m in metrics:
        path = m["path"]
        if m["kind"] != "counter" or not path.startswith("layer."):
            continue
        name, _, column = path[len("layer."):].rpartition(".")
        rows.setdefault(name, {})[column] = m["value"]
    return rows


def layer_table(rows):
    """Markdown rows: self cycles, then self ms when the run had --profile
    ("-" otherwise), each with its share of the column's total."""
    totals = {c: sum(r.get(c, 0) for r in rows.values())
              for c in ("self_cycles", "self_ns")}

    def cells(r, column, scale, fmt):
        if not totals[column]:
            return "- | -"
        v = r.get(column, 0)
        return f"{v / scale:{fmt}} | {100.0 * v / totals[column]:.1f}%"

    lines = ["| layer | self cycles | share | self ms | share | scopes |",
             "|---|---|---|---|---|---|"]
    for name in sorted(rows):
        r = rows[name]
        if any(r.values()):
            lines.append(f"| `{name}` | {cells(r, 'self_cycles', 1, ',.0f')} | "
                         f"{cells(r, 'self_ns', 1e6, '.3f')} | "
                         f"{r.get('scopes', 0):,} |")
    return lines


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    title = argv[2] if len(argv) > 2 else "Observability metrics"
    with open(argv[1]) as f:
        metrics = json.load(f)["metrics"]
    if not metrics:
        print(f"::error::{argv[1]} contains no metrics", file=sys.stderr)
        return 1

    layers = layer_rows(metrics)
    if not layers:
        print(f"::error::{argv[1]} has no layer.* rows", file=sys.stderr)
        return 1

    counters = [m for m in metrics if m["kind"] == "counter"]
    gauges = [m for m in metrics if m["kind"] == "gauge"]
    hists = [m for m in metrics if m["kind"] == "histogram"]

    rollups = {}
    for m in counters:
        root = m["path"].split(".", 1)[0]
        rollups[root] = rollups.get(root, 0) + m["value"]

    lines = [f"## {title}", ""]
    lines += layer_table(layers)
    lines += ["", "| subsystem | counter total |", "|---|---|"]
    for root in sorted(rollups):
        lines.append(f"| {root} | {rollups[root]:,} |")

    lines += ["", "<details><summary>Top counters</summary>", "",
              "| path | value |", "|---|---|"]
    for m in sorted(counters, key=lambda m: -m["value"])[:15]:
        lines.append(f"| `{m['path']}` | {m['value']:,} |")
    lines += ["", "</details>"]

    if gauges:
        lines += ["", "<details><summary>Gauges (high-water)</summary>", "",
                  "| path | value |", "|---|---|"]
        for m in sorted(gauges, key=lambda m: m["path"]):
            lines.append(f"| `{m['path']}` | {m['value']:,} |")
        lines += ["", "</details>"]

    if hists:
        lines += ["", "<details><summary>Histograms</summary>", "",
                  "| path | samples | weight | min | max |", "|---|---|---|---|---|"]
        for m in sorted(hists, key=lambda m: m["path"]):
            lines.append(
                "| `{}` | {:,} | {:,} | {} | {} |".format(
                    m["path"], m["count"], m["weight"],
                    m.get("min", "—"), m.get("max", "—"),
                )
            )
        lines += ["", "</details>"]

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
