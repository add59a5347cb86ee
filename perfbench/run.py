"""Benchmark entry point: one seeded workload, end-to-end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload offline|campaign|stream \\
        [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` (default) measures the end-to-end metrics with nothing
installed in the program.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer split (see ``perfbench/README.md``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller report
(box fingerprint, passes, span tree) goes to ``perfbench/out/``.  The
exit code is non-zero when any output check fails or the package
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: The seed later changes are developed against, and the held-out seed a
#: claimed gain must be confirmed on before it is accepted.
DEFAULT_SEED = 2005
HELD_OUT_SEED = 7919

#: Setup is repeated this many times in fresh interpreters; the median counts.
SETUP_REPEATS = 3

#: Timed runs of the box calibration's reference computation; the median counts.
CALIBRATION_REPEATS = 5

WORKLOAD_NAMES = ("offline", "campaign", "stream")


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no package sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not from {SRC}")


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=32.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
# Box fingerprint                                                              #
# --------------------------------------------------------------------------- #
def _calibration_per_s() -> float:
    """Fixed reference computations per second (a pure-Python loop, a
    numpy sort and a HiGHS LP), median of ``CALIBRATION_REPEATS`` after
    one warm-up:
    the box's speed at the kinds of work the program does, independent
    of its code.  Nothing here uses a threaded BLAS, whose spin-waiting
    makes timings erratic on a shared box."""
    import numpy as np
    from scipy.optimize import linprog

    rng = np.random.default_rng(0)
    a_ub = rng.uniform(0.5, 2.0, size=(40, 80))
    b_ub = rng.uniform(10.0, 20.0, size=40)
    c = -rng.uniform(0.0, 1.0, size=80)
    values = rng.uniform(size=200_000)

    def reference() -> None:
        total = 0
        for i in range(100_000):
            total += i * i % 7
        np.sort(values)
        linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, 5), method="highs")

    reference()
    times = []
    for _ in range(CALIBRATION_REPEATS):
        started = time.perf_counter()
        reference()
        times.append(time.perf_counter() - started)
    return 1.0 / statistics.median(times)


def box_fingerprint() -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "calibration_per_s": _calibration_per_s(),
    }


# --------------------------------------------------------------------------- #
# Setup                                                                        #
# --------------------------------------------------------------------------- #
def _setup(workload: str, seed: int, workdir: str):
    from perfbench.workloads import WORKLOADS

    bench = WORKLOADS[workload](seed, workdir)
    bench.warm_up()
    return bench


def _setup_probe(args: argparse.Namespace) -> None:
    """Child side of the setup measurement: import, generate, warm up."""
    started = time.perf_counter()
    _import_program()
    workdir = _fresh_workdir(args, "setup")
    try:
        _setup(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": time.perf_counter() - started}))


def _measure_setup(args: argparse.Namespace) -> List[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT),
        )
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            sys.exit("error: setup probe failed")
        samples.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _fresh_workdir(args: argparse.Namespace, tag: str) -> str:
    path = OUT_DIR / f"work-{args.workload}-{args.seed}-{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return str(path)


# --------------------------------------------------------------------------- #
# Measurement                                                                  #
# --------------------------------------------------------------------------- #
def _run_phase(phase, budget: float, trace: bool, policies):
    """Repeat passes while another one fits in the budget (at least one).

    Traced runs alternate an untraced and a traced pass, so the tracing
    overhead is measured pairwise on the same inputs.
    """
    from repro.obs import MetricsRecorder, collecting
    from perfbench.tracer import SpanTracer, layers_traced

    plain, traced = [], []
    tracer = SpanTracer() if trace else None
    recorder = MetricsRecorder() if trace else None
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        plain.append(phase.run_pass(None))
        if trace:
            with layers_traced(tracer, policies), collecting(recorder):
                traced.append(phase.run_pass(tracer))
        now = time.perf_counter()
        if now - started + (now - round_started) > budget:
            return plain, traced, tracer, recorder


def _rate(passes, normalised: bool) -> float:
    """Units per second of one pass made of each call's median over the
    passes (every pass makes the same calls, in the same order).

    ``normalised`` counts reference seconds (see ``CONTROL_REF_S``)."""
    calls = zip(*(p.call_seconds(normalised) for p in passes))
    seconds = [statistics.median(times) for times in calls]
    return sum(passes[0].op_units) / sum(seconds)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(bench, seconds: float, trace: bool) -> Dict[str, tuple]:
    """Run every phase for its share of ``seconds``: metric -> phase outcome."""
    return {
        phase.metric: _run_phase(phase, phase.share * seconds, trace, bench.policies)
        for phase in bench.phases
    }


def outcome(measured, checks) -> tuple:
    """``(attempted, failed)`` over every pass plus the untimed ``checks``."""
    passes = [p for plain, traced, _, _ in measured.values() for p in plain + traced]
    return (
        sum(p.attempted for p in passes) + checks[0],
        sum(p.failed for p in passes) + checks[1],
    )


def end_to_end_metrics(bench, measured, setup_samples: Sequence[float]) -> Dict[str, dict]:
    """The end-to-end metrics; prints each phase under its per-workload name."""
    metrics = {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }
    for phase in bench.phases:
        plain = measured[phase.metric][0]
        value = _rate(plain, normalised=True)
        metrics[phase.metric] = {"value": value, "unit": "1/ref_s"}
        line = (
            f"{phase.label:<32} {_rate(plain, normalised=False):12.4f} {phase.unit}"
            f" = {value:.4f} per ref s ({len(plain)} passes, {sum(p.ops for p in plain)} ops)"
        )
        if phase.label == "offline.large_solves_per_s":
            samples = [t for p in plain for t in p.op_seconds]
            line += f"; offline.large_solve_s median {statistics.median(samples):.4f} s of {len(samples)}"
        print(line)
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    _import_program()
    from perfbench import layers

    # setup_s is an end-to-end metric, which traced runs do not report.
    setup_samples = [] if args.trace else _measure_setup(args)
    fingerprint = box_fingerprint()
    print(f"box: {json.dumps(fingerprint, sort_keys=True)}")
    workdir = _fresh_workdir(args, "run")
    try:
        bench = _setup(args.workload, args.seed, workdir)
        measured = measure(bench, args.seconds, bool(args.trace))
        started = time.perf_counter()
        checks = bench.cross_check()
        print(f"untimed cross-checks: {checks[0]} attempted, {checks[1]} failed, "
              f"{time.perf_counter() - started:.1f} s")
        attempted, failed = outcome(measured, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report: Dict[str, object] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "box": fingerprint,
        "setup_samples_s": setup_samples,
        "phases": {
            phase.metric: {
                "label": phase.label,
                "unit": phase.unit,
                "passes": [vars(p) for p in measured[phase.metric][0]],
            }
            for phase in bench.phases
        },
    }
    if args.trace:
        metrics, tree = layers.layer_metrics(bench, measured)
        report["span_tree"] = tree
        print(layers.render_tree(tree))
    else:
        metrics = end_to_end_metrics(bench, measured, setup_samples)
    for name, entry in metrics.items():
        print(f"  {name:<32} {entry['value']:.6g} {entry['unit']}")
    report["metrics"] = metrics
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1))
    if args.trace:
        for metric, (_, _, tracer, _) in measured.items():
            tracer.write_spans(f"{stem}-{metric}.spans.jsonl")
            if tracer.dropped:
                print(f"{metric}: kept the first {len(tracer.spans)} raw spans, "
                      f"dropped {tracer.dropped} (all count in the tree)")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
