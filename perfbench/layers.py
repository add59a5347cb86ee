"""Per-layer metrics of a traced run, normalised to one round.

A round is one pass over each phase's input pool.  Every additive
figure (self seconds, counts) is summed over a phase's traced passes,
divided by the number of those passes, and added over the phases; so a
layer's number describes the same work on every run, whatever the
number of passes the time budget allowed.  Counts come from the
``repro.obs`` recorder installed during the traced passes, from
``MaxWeightedFlowResult`` fields and from span counts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: metric -> span names whose self seconds it sums.
SELF_SECONDS: Dict[str, Tuple[str, ...]] = {
    "offline.search_s": ("offline.search",),
    "offline.milestones_s": ("offline.milestones",),
    "offline.build_s": ("offline.build",),
    "offline.lower_s": ("offline.lower",),
    "offline.solve_s": ("offline.solve",),
    "offline.extract_s": ("offline.extract",),
    "replan.check_s": ("replan.check",),
    "replan.build_s": ("replan.build",),
    "replan.lower_s": ("replan.lower",),
    "replan.solve_s": ("replan.solve",),
    "policy.run_s": ("policy.run",),
    "policy.decide_s": ("policy.decide",),
    "sim.loop_self_s": ("sim.loop",),
    "window.admit_s": ("window.admit",),
    "window.compact_s": ("window.compact",),
    "workload.generate_s": ("workload.generate",),
    "steady.analyse_s": ("steady.analyse",),
    "campaign.self_s": ("campaign.dispatch",),
    "store.write_s": ("store.write", "store.open"),
    "store.lookup_s": ("store.lookup",),
    "journal.write_s": ("journal.write", "journal.open"),
}

#: Spans the benchmark itself opens around a workload's calls that belong
#: to no layer of the README's layer map: their self time (the code of
#: ``run_stream_sweep`` itself, between its layer calls) counts as
#: unattributed.  ``offline.search`` and ``campaign.dispatch`` are roots
#: too, but they are the ``core.maxflow`` search and the ``analysis``
#: dispatcher, so their self time is attributed.
HARNESS_SPANS: Tuple[str, ...] = ("stream.sweep",)

#: Largest unattributed share of a phase's traced time before a traced run
#: prints a ``finding:`` line.
UNATTRIBUTED_LIMIT = 0.05

#: metric -> recorder counters it sums.
RECORDER_COUNTS: Dict[str, Tuple[str, ...]] = {
    "replan.checks": ("replan.probes",),
    "replan.lp_solves": ("replan.lp_solves",),
    "policy.decisions": ("stream.decisions", "kernel.decisions"),
    "sim.events": ("stream.events",),
    "window.compactions": ("stream.compactions",),
    "store.rows": ("store.cells_added",),
    "store.commits": ("store.batch_commits",),
}

#: metric -> counters the tracer's result hooks fed.
RESULT_COUNTS: Dict[str, str] = {
    "offline.probes": "offline.probes",
    "offline.lp_solves": "offline.lp_solves",
    "offline.builds": "offline.builds",
}

#: Every per-layer metric with its unit, in report order.
UNITS: Dict[str, str] = {
    **{name: "s" for name in SELF_SECONDS},
    **{name: "count" for name in (*RECORDER_COUNTS, *RESULT_COUNTS)},
    "offline.lp_per_probe": "ratio",
    "replan.template_hit_ratio": "ratio",
    "store.resume_skip_ratio": "ratio",
    "journal.events": "count",
    "window.peak": "jobs",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    """Zero when nothing was attempted (the layer was bypassed)."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(bench, measured) -> Tuple[Dict[str, Dict[str, object]], List[Dict]]:
    """Per-layer metrics plus the span tree (rows per phase, per round)."""
    values = {name: 0.0 for name in UNITS}
    extra = {"replan.cache_hits": 0.0, "resumed": 0.0, "records": 0.0}
    traced_seconds = covered = traced_reference = plain_reference = 0.0
    peak_window = 0.0
    tree: List[Dict] = []
    for phase in bench.phases:
        plain, traced, tracer, recorder = measured[phase.metric]
        n = len(traced)
        snapshot = recorder.snapshot()
        counters = snapshot["counters"]
        for metric, spans in SELF_SECONDS.items():
            values[metric] += sum(tracer.self_seconds(span) for span in spans) / n
        for metric, names in RECORDER_COUNTS.items():
            values[metric] += sum(counters.get(name, 0.0) for name in names) / n
        for metric, name in RESULT_COUNTS.items():
            values[metric] += tracer.counters.get(name, 0.0) / n
        values["journal.events"] += tracer.calls("journal.write") / n
        extra["replan.cache_hits"] += counters.get("replan.cache_hits", 0.0) / n
        for p in traced:
            extra["resumed"] += p.counters.get("resumed", 0.0) / n
            extra["records"] += p.counters.get("records", 0.0) / n
        gauge = snapshot["gauges"].get("stream.peak_window")
        if gauge is not None:
            peak_window = max(peak_window, float(gauge["peak"]))
        phase_seconds = sum(p.seconds for p in traced)
        attributed = tracer.root_seconds - sum(tracer.self_seconds(name) for name in HARNESS_SPANS)
        traced_seconds += phase_seconds / n
        covered += attributed / n
        traced_reference += sum(p.reference_seconds for p in traced) / n
        plain_reference += sum(p.reference_seconds for p in plain) / len(plain)
        for row in tracer.tree():
            tree.append({
                "phase": phase.label,
                **row,
                "calls": row["calls"] / n,
                "total_s": row["total_s"] / n,
                "self_s": row["self_s"] / n,
            })
        tree.append({
            "phase": phase.label,
            "unattributed_share": 1.0 - attributed / phase_seconds,
        })
    values["offline.lp_per_probe"] = _ratio(values["offline.lp_solves"], values["offline.probes"])
    values["replan.template_hit_ratio"] = _ratio(extra["replan.cache_hits"], values["replan.checks"])
    values["store.resume_skip_ratio"] = _ratio(extra["resumed"], extra["records"])
    values["window.peak"] = peak_window
    values["trace.unattributed_share"] = _ratio(traced_seconds - covered, traced_seconds)
    values["trace.overhead_share"] = _ratio(traced_reference - plain_reference, plain_reference)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    return metrics, tree


def render_tree(tree: List[Dict]) -> str:
    """Plain-text span tree: calls, total and self seconds per round."""
    lines = [f"{'span (per round)':<58} {'calls':>9} {'total_s':>10} {'self_s':>10}"]
    phase = None
    for row in tree:
        if row["phase"] != phase:
            phase = row["phase"]
            lines.append(f"[{phase}]")
        if "unattributed_share" in row:
            lines.append(f"  (unattributed share of traced wall time: {row['unattributed_share']:.4f})")
            if row["unattributed_share"] > UNATTRIBUTED_LIMIT:
                lines.append(f"finding: {phase}: unattributed share above {UNATTRIBUTED_LIMIT}")
            continue
        name = "  " * int(row["depth"]) + row["path"].rsplit("/", 1)[-1]
        lines.append(
            f"{name:<58} {row['calls']:9.1f} {row['total_s']:10.4f} {row['self_s']:10.4f}"
        )
    return "\n".join(lines)
