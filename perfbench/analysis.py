"""Turns the harness's raw samples into checked, named metrics.

Everything here is pure: it reads the harness's JSON document (and, for a
traced run, its span list) and returns numbers.  run.py does the I/O.
The paper's reference values live here and nowhere else in the benchmark.
"""

import re
import statistics

WORKLOADS = ("paper_perf", "paper_monitor", "fuzz_campaign")
MODES = ("native", "kvm", "hypernel")
APPS = ("whetstone", "dhrystone", "untar", "iozone", "apache")

# --- Paper reference values -------------------------------------------------

# Table 1 (us): op -> (Native, KVM-guest, Hypernel), in the order
# LmbenchSuite::run_all reports them.
PAPER_TABLE1 = (
    ("syscall stat", (1.92, 1.83, 1.94)),
    ("signal install", (0.68, 0.75, 0.68)),
    ("signal ovh", (2.96, 3.38, 2.98)),
    ("pipe lat", (10.07, 11.45, 10.68)),
    ("socket lat", (13.76, 16.08, 14.51)),
    ("fork+exit", (271.68, 337.84, 314.77)),
    ("fork+execv", (285.53, 351.81, 340.70)),
    ("page fault", (1.57, 1.98, 1.89)),
    ("mmap", (24.60, 28.40, 27.50)),
)
# Figure 6 average runtime overhead vs Native (%): KVM-guest, Hypernel.
PAPER_FIG6_OVERHEAD_PCT = {"kvm": 13.5, "hypernel": 3.1}
# Table 2 trap counts: app -> (page granularity, word granularity).
PAPER_TABLE2 = {
    "whetstone": (525, 48),
    "dhrystone": (637, 39),
    "untar": (2173870, 96467),
    "iozone": (1510, 117),
    "apache": (48650, 1754),
}

# --- Metric catalogue -------------------------------------------------------

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# name -> (unit, better).  Reported by every workload with --trace 0.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "execs_per_s": ("execs/s", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}

# Paper-fidelity figures: each exists only on the workload that reproduces
# the artifact, so they are printed and reported as per-layer metrics
# (0 on the other workloads) rather than gated end to end.
FIDELITY = {
    "paper.t1_cell_err_pct": ("%", "lower"),
    "paper.t1_hypernel_slowdown_err_pp": ("pp", "lower"),
    "paper.fig6_overhead_err_pp": ("pp", "lower"),
    "paper.t2_ratio_err_pp": ("pp", "lower"),
}

SPAN_LAYERS = ("bench", "hypernel", "workloads", "secapps", "fuzz")
FUZZ_SPECS = ("hypernel-word", "native", "kvm", "hypernel-object", "rerun")

# Counts read from public counters; equal in every repeat of a workload.
COUNTS = {
    **{f"mbm.{n}": ("count", "lower") for n in (
        "snooped_word_writes", "detections", "bitmap_fetches", "fifo_drops",
        "ring_overflow_drops", "irqs_raised")},
    "mbm.fifo_wait_cycles": ("cycles", "lower"),
    **{f"hypersec.{n}": ("count", "lower") for n in (
        "pt_write_calls", "pt_write_denials", "ttbr_traps", "mbm_irq_calls",
        "events_dispatched")},
    "kvm.s2_faults_serviced": ("count", "lower"),
    "kvm.irq_exits": ("count", "lower"),
    "sim.cycles": ("cycles", "lower"),
    "sim.tlb_hits": ("count", "higher"),
    **{f"sim.{n}": ("count", "lower") for n in (
        "tlb_misses", "pt_descriptor_fetches", "s2_descriptor_fetches",
        "l1_misses", "noncacheable_accesses", "bus_txns", "hvc_calls",
        "sysreg_traps", "irqs_delivered", "vm_exits")},
    "kernel.syscalls": ("count", "lower"),
    "kernel.context_switches": ("count", "lower"),
    "secapps.events_total": ("count", "lower"),
    **{f"fuzz.{n}": ("count", "higher") for n in (
        "execs", "ops", "attacks", "alerts")},
    "fuzz.sim_cycles": ("cycles", "lower"),
}

# Host times of benchmark-side spans, ms per traced repeat unless noted.
SPAN_TIMES = {
    "hypernel.create_ms": "hypernel.create",  # per call
    **{f"workloads.lmbench.{m}_ms": f"workloads.lmbench.{m}" for m in MODES},
    **{f"workloads.fig6.{m}_ms": f"workloads.fig6.{m}" for m in MODES},
    "workloads.t2.page_ms": "workloads.t2.page",
    "workloads.t2.word_ms": "workloads.t2.word",
    "secapps.install_ms": "secapps.install",
    "fuzz.generate_ms": "fuzz.generate",
    "fuzz.boot_ms": "fuzz.boot",  # per empty-op run_sequence
    **{f"fuzz.exec.{s}_ms": f"fuzz.exec.{s}" for s in FUZZ_SPECS},
    "fuzz.oracle_ms": "fuzz.oracle",
}
PER_CALL_SPANS = ("hypernel.create", "fuzz.boot")

PER_LAYER = {
    "hypernel.creates": ("count", "lower"),
    **{name: ("ms", "lower") for name in SPAN_TIMES},
    **COUNTS,
    "mbm.detect_ratio": ("ratio", "lower"),
    "mbm.bitmap_cache_hit_ratio": ("ratio", "higher"),
    "mbm.host_ns_per_detection": ("ns", "lower"),
    "sim.host_ns_per_kcycle": ("ns", "lower"),
    **{f"trace.{layer}.{kind}_ms": ("ms", "lower")
       for layer in SPAN_LAYERS for kind in ("total", "self")},
    "trace.total_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    **FIDELITY,
}

# --- Statistics -------------------------------------------------------------


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --- Output checks -----------------------------------------------------------


def check(doc):
    """(attempted, failed, problems) over every repeat of the run.

    A unit fails when its simulated outputs differ from the first repeat's,
    when a Table 2 app does not need fewer word- than page-granularity
    detections, or (fuzz) when the oracle flags a sequence.  Model outputs
    are compared only with each other, never pinned.
    """
    repeats = doc["repeats"]
    attempted = 0
    failed = 0
    problems = []
    first = {o["name"]: o for o in repeats[0]["outputs"]}
    counted = [r["counts"] for r in repeats if r["counts"]]
    for index, rep in enumerate(repeats):
        outputs = {o["name"]: o for o in rep["outputs"]}
        if outputs.keys() != first.keys():
            problems.append(f"repeat {index}: unit set differs")
            failed += 1
        if doc["workload"] == "fuzz_campaign":
            for name, out in outputs.items():
                ref = first.get(name, out)
                sequences = len(out["digests"]) - 1
                run, failures = int(out["values"][0]), int(out["values"][1])
                attempted += sequences
                seq_diff = sum(a != b for a, b in zip(out["digests"][1:],
                                                      ref["digests"][1:]))
                bad = failures + seq_diff + (sequences - run)
                if bad == 0 and out["digests"][0] != ref["digests"][0]:
                    bad = 1
                if bad:
                    problems.append(
                        f"repeat {index}: {name}: {failures} oracle "
                        f"failure(s), {seq_diff} sequence digest(s) differ, "
                        f"corpus {out['digests'][0]} vs {ref['digests'][0]}")
                failed += bad
            continue
        for name, out in outputs.items():
            attempted += 1
            ref = first.get(name)
            if ref is None or out["values"] != ref["values"] or \
                    out["digests"] != ref["digests"]:
                problems.append(
                    f"repeat {index}: {name} differs from repeat 0")
                failed += 1
        if doc["workload"] == "paper_monitor":
            for app in APPS:
                page = outputs[f"t2.{app}.page"]["values"][0]
                word = outputs[f"t2.{app}.word"]["values"][0]
                if not word < page:
                    problems.append(f"repeat {index}: {app} word {word:.0f} "
                                    f">= page {page:.0f} detections")
                    failed += 1
    if any(c != counted[0] for c in counted):
        problems.append("per-layer counts differ between repeats")
        failed += 1
    return attempted, failed, problems


# --- Fidelity ----------------------------------------------------------------


def _values(doc):
    return {o["name"]: o["values"] for o in doc["repeats"][0]["outputs"]}


def table1_figures(doc):
    """Average slowdown vs Native (%) per mode and mean cell error (%)."""
    v = _values(doc)
    us = {m: v[f"t1.{m}"][:len(PAPER_TABLE1)] for m in MODES}
    errs = []
    for i, (_, paper) in enumerate(PAPER_TABLE1):
        for j, mode in enumerate(MODES):
            errs.append(abs(us[mode][i] - paper[j]) / paper[j])
    rows = len(PAPER_TABLE1)
    slowdown = {m: 100.0 * sum(us[m][i] / us["native"][i] - 1.0
                               for i in range(rows)) / rows
                for m in ("kvm", "hypernel")}
    paper_slowdown = {m: 100.0 * sum(p[j] / p[0] - 1.0
                                     for _, p in PAPER_TABLE1) / rows
                      for j, m in ((1, "kvm"), (2, "hypernel"))}
    return {
        "slowdown_pct": slowdown,
        "paper_slowdown_pct": paper_slowdown,
        "cell_err_pct": 100.0 * sum(errs) / len(errs),
    }


def fig6_figures(doc):
    """Average runtime overhead vs Native (%) per mode."""
    v = _values(doc)
    return {m: 100.0 * sum(v[f"fig6.{m}.{a}"][0] / v[f"fig6.native.{a}"][0]
                           - 1.0 for a in APPS) / len(APPS)
            for m in ("kvm", "hypernel")}


def table2_figures(doc):
    """Per-app word/page trap ratio (%) and its per-benchmark mean."""
    v = _values(doc)
    ratios = {a: 100.0 * v[f"t2.{a}.word"][0] / v[f"t2.{a}.page"][0]
              for a in APPS}
    paper = {a: 100.0 * w / p for a, (p, w) in PAPER_TABLE2.items()}
    return {
        "ratio_pct": ratios,
        "mean_ratio_pct": sum(ratios.values()) / len(APPS),
        "paper_mean_ratio_pct": sum(paper.values()) / len(APPS),
    }


def fidelity(doc):
    """The paper-fidelity metrics this workload reproduces."""
    out = {}
    if doc["workload"] == "paper_perf":
        t1 = table1_figures(doc)
        out["paper.t1_cell_err_pct"] = t1["cell_err_pct"]
        out["paper.t1_hypernel_slowdown_err_pp"] = abs(
            t1["slowdown_pct"]["hypernel"] -
            t1["paper_slowdown_pct"]["hypernel"])
        f6 = fig6_figures(doc)
        out["paper.fig6_overhead_err_pp"] = sum(
            abs(f6[m] - PAPER_FIG6_OVERHEAD_PCT[m]) for m in f6) / len(f6)
    elif doc["workload"] == "paper_monitor":
        t2 = table2_figures(doc)
        out["paper.t2_ratio_err_pp"] = abs(t2["mean_ratio_pct"] -
                                           t2["paper_mean_ratio_pct"])
    return out


# --- End-to-end metrics ------------------------------------------------------


def execs_per_repeat(doc):
    """Simulated system runs per repeat: one per paper cell; for the
    campaign, sequences x (4 matrix configurations + the rerun)."""
    outputs = doc["repeats"][0]["outputs"]
    if doc["workload"] == "fuzz_campaign":
        # Each campaign's digests: the corpus digest, then one per sequence.
        sequences = sum(len(o["digests"]) - 1 for o in outputs)
        return sequences * len(FUZZ_SPECS)
    return len(outputs)


def repeat_s(repeats):
    """Host seconds of each repeat's fixed work (its units, set-up excluded)."""
    return [sum(r["unit_s"]) for r in repeats]


def wall_s(repeats):
    """Host seconds of the fastest repeat.

    Other tenants of a shared host slow it for seconds at a time, and
    thread CPU time slows with them (they contend for caches and memory,
    not for the core), so the median repeat of a run follows their load.
    The fastest repeat is the program's time when they leave it alone.
    """
    return min(repeat_s(repeats))


def timed(doc, traced):
    """The timed repeats of one kind; repeat 0 is the untimed warm-up."""
    return [r for r in doc["repeats"][1:] if r["traced"] == traced]


def end_to_end(doc):
    untraced = timed(doc, False)
    wall = wall_s(untraced)
    return {
        "wall_s": wall,
        "setup_s": median(doc["setup_s"]),
        "execs_per_s": execs_per_repeat(doc) / wall,
        "peak_rss_mib": doc["peak_rss_kib"] / 1024.0,
    }


# --- Traced run --------------------------------------------------------------


def layer_of(name):
    return name.split(".", 1)[0]


def span_breakdown(spans):
    """Per traced repeat: {layer: [total_ns, self_ns]} and the root total.

    Only spans under a unit root count; set-up and after-repeat spans
    (fuzz.boot) do not.
    A layer's total covers its outermost spans; self time is a span's
    duration minus its direct children's, so self times telescope to the
    root total.
    """
    children = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]] += s["end_ns"] - s["start_ns"]
    # Spans are recorded at open, so a parent always precedes its children.
    enclosing = [None] * len(spans)  # layers of a span and its ancestors
    per_repeat = {}
    for i, s in enumerate(spans):
        parent = s["parent"]
        layer = layer_of(s["name"])
        if parent < 0:
            if s["name"] != "bench.unit":
                continue
            above = frozenset()
        elif enclosing[parent] is None:
            continue
        else:
            above = enclosing[parent]
        enclosing[i] = above | {layer}
        rep = per_repeat.setdefault(s["repeat"], {"layers": {}, "total_ns": 0})
        dur = s["end_ns"] - s["start_ns"]
        acc = rep["layers"].setdefault(layer, [0, 0])
        if layer not in above:
            acc[0] += dur
        acc[1] += dur - children[i]
        if parent < 0:
            rep["total_ns"] += dur
    return per_repeat


def per_layer(doc, spans):
    traced = timed(doc, True)
    untraced = timed(doc, False)
    counts = traced[0]["counts"]
    out = {name: float(counts.get(name, 0)) for name in COUNTS}

    ntraced = len(traced)
    span_ns = {}
    calls = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        span_ns[s["name"]] = span_ns.get(s["name"], 0) + dur
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    for metric, name in SPAN_TIMES.items():
        # Only per-call spans also run outside the traced repeats.
        per = calls.get(name, 0) if name in PER_CALL_SPANS else ntraced
        out[metric] = span_ns.get(name, 0) / per / 1e6 if per else 0.0

    # Set-up passes run between units; count only the creates inside units.
    creates = sum(1 for s in spans
                  if s["name"] == "hypernel.create" and s["unit"] >= 0)
    # Each fuzz run_sequence boots a fresh System inside the executor.
    out["hypernel.creates"] = creates / ntraced + counts.get("fuzz.execs", 0)

    breakdown = span_breakdown(spans)
    for layer in SPAN_LAYERS:
        for k, kind in enumerate(("total", "self")):
            out[f"trace.{layer}.{kind}_ms"] = sum(
                rep["layers"].get(layer, [0, 0])[k]
                for rep in breakdown.values()) / ntraced / 1e6
    out["trace.total_ms"] = sum(rep["total_ns"]
                                for rep in breakdown.values()) / ntraced / 1e6
    out["trace.overhead_pct"] = 100.0 * (
        wall_s(traced) / wall_s(untraced) - 1.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out["mbm.detect_ratio"] = ratio(counts.get("mbm.detections", 0),
                                    counts.get("mbm.snooped_word_writes", 0))
    hits = counts.get("mbm.bitmap_cache_hits", 0)
    out["mbm.bitmap_cache_hit_ratio"] = ratio(
        hits, hits + counts.get("mbm.bitmap_cache_misses", 0))
    out["mbm.host_ns_per_detection"] = 0.0
    if doc["workload"] == "paper_monitor":
        v = _values(doc)
        extra = sum(v[f"t2.{a}.page"][0] - v[f"t2.{a}.word"][0] for a in APPS)
        ms = out["workloads.t2.page_ms"] - out["workloads.t2.word_ms"]
        out["mbm.host_ns_per_detection"] = ms * 1e6 / extra
    cycles = counts.get("sim.cycles", 0) or counts.get("fuzz.sim_cycles", 0)
    out["sim.cycles"] = float(cycles)
    out["sim.host_ns_per_kcycle"] = wall_s(untraced) * 1e9 / (cycles / 1e3)

    out.update({name: 0.0 for name in FIDELITY})
    out.update(fidelity(doc))
    return out
