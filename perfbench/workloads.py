"""The benchmark's three workloads: ``offline``, ``campaign`` and ``stream``.

Each workload has a *light* and a *heavy* phase.  A phase is a closed
loop: it runs one *pass* over its fixed input pool (one call at a time,
the next call when the previous one returns), and passes repeat until
the phase's time budget is spent.  Every pass checks its outputs after
its timed region, so the checks cost nothing in the reported rates.

The inputs are generated from the benchmark's seed only; the program
receives nothing but those generated inputs.  The ``*Config`` defaults
are the benchmark's sizes; the self-test passes tiny ones.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import campaign as campaign_mod
from repro.analysis import stream_sweep
from repro.analysis.campaign import CampaignStats, WorkloadSpec
from repro.core import maxflow
from repro.core.lower_bounds import max_weighted_flow_lower_bound
from repro.heuristics import make_scheduler
from repro.heuristics.registry import OFFLINE_OPTIMAL
from repro.simulation import SimulationKernel
from repro.simulation.stream import StreamingSimulator
from repro.workload.generators import random_unrelated_instance
from repro.workload.scenarios import available_scenarios, make_scenario, scenario_grid
from repro.workload.streams import StreamSpec, open_stream

from .tracer import SpanTracer

_clock = time.perf_counter

#: Relative tolerance of the objective checks (LP round-off).
OBJECTIVE_RTOL = 1e-6

#: Precision of the ε-bisection cross-check, relative to the optimum.
BISECTION_RTOL = 1e-4


#: Seconds the control probe takes on the reference box.  Normalised
#: rates count time in *reference seconds*: each call's wall time scaled
#: by ``CONTROL_REF_S`` over the probe's time measured around that call.
CONTROL_REF_S = 1e-3

_CONTROL_VALUES = np.random.default_rng(0).uniform(size=4096)


def control_probe() -> float:
    """Best of three runs of a fixed reference computation (a pure-Python
    loop and a numpy sort, ~1 ms), independent of the program's code.

    Timed between the program's calls, it measures how fast the box runs
    at that moment: on a shared box other tenants slow everything down
    by up to half for seconds at a time, and dividing by the probe
    cancels that from the normalised rates.
    """
    best = math.inf
    for _ in range(3):
        started = _clock()
        total = 0
        for i in range(12_000):
            total += i * i % 7
        np.sort(_CONTROL_VALUES)
        best = min(best, _clock() - started)
    return best


class OpTimer:
    """Times a pass's calls and probes the box's speed around each one.

    The probes run between calls, outside every span, so they add nothing
    to the timed calls or to a traced run's layers.
    """

    def __init__(self) -> None:
        self.seconds: List[float] = []
        self.units: List[int] = []
        self.controls: List[float] = []
        self._probe = control_probe()
        self._started = 0.0

    def begin(self) -> None:
        self._started = _clock()

    def end(self, units: int = 1) -> None:
        self.seconds.append(_clock() - self._started)
        self.units.append(units)
        after = control_probe()
        self.controls.append(0.5 * (self._probe + after))
        self._probe = after


@dataclass
class PassResult:
    """One pass over a phase's input pool."""

    attempted: int  # operations: solves, campaign cells or stream cells
    failed: int
    #: Wall seconds, rate units and control-probe seconds of each timed
    #: call, in pool order (every pass of a phase makes the same calls).
    op_seconds: List[float]
    op_units: List[int]
    op_controls: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def ops(self) -> int:
        """Units of the phase's rate (solves, cells or arrivals)."""
        return sum(self.op_units)

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)

    def call_seconds(self, normalised: bool) -> List[float]:
        """Each call's wall seconds, or its reference seconds (see ``CONTROL_REF_S``)."""
        if not normalised:
            return self.op_seconds
        return [t * CONTROL_REF_S / c for t, c in zip(self.op_seconds, self.op_controls)]

    @property
    def reference_seconds(self) -> float:
        return sum(self.call_seconds(normalised=True))

    @classmethod
    def timed(cls, timer: OpTimer, attempted: int, failed: int, **counters: float) -> "PassResult":
        return cls(attempted, failed, timer.seconds, timer.units, timer.controls, dict(counters))


@dataclass(frozen=True)
class Phase:
    metric: str  # end-to-end metric: "light_ops_per_s" or "heavy_ops_per_s"
    label: str  # the per-workload name of the same figure
    unit: str
    share: float  # fraction of the run's seconds
    run_pass: Callable[[Optional[SpanTracer]], PassResult]


@dataclass
class Workload:
    phases: Tuple[Phase, ...]
    policies: Tuple[str, ...]  # policies whose decision methods get traced
    cross_check: Callable[[], Tuple[int, int]]  # (attempted, failed), untimed
    warm_up: Callable[[], None]


def _seeds(seed: int, tag: int, count: int) -> List[int]:
    """``count`` independent child seeds of the benchmark seed."""
    root = np.random.SeedSequence([int(seed), tag])
    return [int(child.generate_state(1)[0]) for child in root.spawn(count)]


def _span(tracer: Optional[SpanTracer], name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _report(error: BaseException, context: str) -> None:
    print(f"check failed: {context}: {error!r}", flush=True)
    traceback.print_exception(error)


# --------------------------------------------------------------------------- #
# offline: direct minimize_max_weighted_flow calls                             #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class OfflineConfig:
    scenarios: Tuple[str, ...] = tuple(available_scenarios())
    seeds_per_scenario: int = 12
    large_jobs: int = 30
    large_machines: int = 6
    large_instances: int = 16


def _optimum_error(instance, result) -> Optional[str]:
    """Why ``result`` is not a valid optimum of ``instance`` (None if it is)."""
    result.schedule.validate()
    achieved = result.schedule.max_weighted_flow
    tol = OBJECTIVE_RTOL * max(1.0, abs(result.objective))
    if abs(achieved - result.objective) > tol:
        return f"schedule reaches {achieved!r}, objective says {result.objective!r}"
    bound = max_weighted_flow_lower_bound(instance)
    if result.objective < bound - tol:
        return f"objective {result.objective!r} below the lower bound {bound!r}"
    return None


def _solve_pass(
    jobs: Sequence[Tuple[object, bool]],
    tracer: Optional[SpanTracer],
    objectives: Optional[Dict[int, float]] = None,
) -> PassResult:
    """Solve every job; record each optimum in ``objectives`` by job index."""
    outcomes: List[object] = []
    timer = OpTimer()
    for instance, preemptive in jobs:
        timer.begin()
        try:
            outcomes.append(maxflow.minimize_max_weighted_flow(instance, preemptive=preemptive))
        except Exception as error:  # counted as a failed solve, reported below
            outcomes.append(error)
        timer.end()
    failed = 0
    for index, ((instance, preemptive), outcome) in enumerate(zip(jobs, outcomes)):
        try:
            if isinstance(outcome, Exception):
                raise outcome
            problem = _optimum_error(instance, outcome)
            if problem is not None:
                raise AssertionError(problem)
            if objectives is not None:
                objectives[index] = outcome.objective
        except Exception as error:
            failed += 1
            _report(error, f"offline solve (preemptive={preemptive})")
    return PassResult.timed(timer, len(jobs), failed)


def offline_workload(seed: int, workdir: str, config: OfflineConfig = OfflineConfig()) -> Workload:
    small = [
        make_scenario(name, instance_seed)
        for name in config.scenarios
        for instance_seed in _seeds(seed, 1, config.seeds_per_scenario)
    ]
    large = [
        random_unrelated_instance(config.large_jobs, config.large_machines, seed=instance_seed)
        for instance_seed in _seeds(seed, 2, config.large_instances)
    ]
    small_jobs = [(instance, preemptive) for instance in small for preemptive in (False, True)]
    large_jobs = [(instance, preemptive) for instance in large for preemptive in (False, True)]

    objectives: Dict[int, float] = {}

    def cross_check() -> Tuple[int, int]:
        """Each scenario's first small instance against the ε-bisection
        baseline, both models (untimed)."""
        failed = 0
        checked = range(0, len(small_jobs), 2 * config.seeds_per_scenario)
        jobs = [(index + model, *small_jobs[index + model]) for index in checked for model in (0, 1)]
        for index, instance, preemptive in jobs:
            try:
                exact = objectives[index]  # KeyError: the solve itself failed
                eps = BISECTION_RTOL * exact
                upper, _ = maxflow.minimize_max_weighted_flow_bisection(
                    instance, precision=eps, preemptive=preemptive
                )
                tol = OBJECTIVE_RTOL * max(1.0, exact)
                if not (exact - tol <= upper <= exact + eps + tol):
                    raise AssertionError(
                        f"bisection {upper!r} disagrees with milestone optimum {exact!r}"
                    )
            except Exception as error:
                failed += 1
                _report(error, "offline bisection cross-check")
        return len(jobs), failed

    return Workload(
        phases=(
            Phase("light_ops_per_s", "offline.small_solves_per_s", "solves/s", 0.45,
                  lambda tracer: _solve_pass(small_jobs, tracer, objectives)),
            Phase("heavy_ops_per_s", "offline.large_solves_per_s", "solves/s", 0.55,
                  lambda tracer: _solve_pass(large_jobs, tracer)),
        ),
        policies=(),
        cross_check=cross_check,
        warm_up=lambda: _solve_pass(small_jobs[:2], None),
    )


# --------------------------------------------------------------------------- #
# campaign: stream_campaign into a fresh store, then resume passes             #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CampaignConfig:
    scenarios: Optional[Tuple[str, ...]] = None  # None: every scenario
    policies: Tuple[str, ...] = ("mct", "greedy-weighted-flow", "online-offline")


def _campaign_errors(records) -> int:
    bad = 0
    for record in records:
        if record.policy == OFFLINE_OPTIMAL:
            ok = record.normalised == 1.0
        else:
            ok = record.normalised >= 1.0 - OBJECTIVE_RTOL
        if not ok:
            bad += 1
            print(f"check failed: campaign cell {record.workload}/{record.policy} "
                  f"normalised {record.normalised!r}", flush=True)
    return bad


def _consume(records, tracer: Optional[SpanTracer], timer: OpTimer, per_record: bool) -> list:
    """Drain a campaign record stream under root spans of the dispatcher.

    With ``per_record`` every record is one timed call (the time between
    two yields is the cell's computation plus its store and journal
    writes, and the run's closing writes count as a last call of no
    records): one span per ``next``, so the probes between records stay
    outside every span.  Otherwise the whole pass is one call and one span.
    """
    timer.begin()
    if not per_record:
        with _span(tracer, "campaign.dispatch"):
            out = list(records)
        timer.end(len(out))
        return out
    out = []
    iterator = iter(records)
    while True:
        with _span(tracer, "campaign.dispatch"):
            record = next(iterator, None)
        if record is None:
            break
        out.append(record)
        timer.end()
        timer.begin()
    timer.end(0)
    return out


def campaign_workload(
    seed: int, workdir: str, config: CampaignConfig = CampaignConfig()
) -> Workload:
    specs = [
        WorkloadSpec.from_scenario(spec)
        for spec in scenario_grid(config.scenarios, base_seed=seed)
    ]
    policies = list(config.policies)
    state: Dict[str, object] = {"passes": 0, "store": None, "records": None}

    def cold_pass(tracer: Optional[SpanTracer]) -> PassResult:
        state["passes"] += 1
        store = os.path.join(workdir, f"campaign-{state['passes']}.sqlite")
        journal = os.path.join(workdir, f"campaign-{state['passes']}.jsonl")
        stats = CampaignStats()
        timer = OpTimer()
        records = _consume(
            campaign_mod.stream_campaign(specs, policies, store=store, journal=journal, stats=stats),
            tracer, timer, per_record=True,
        )
        failed = _campaign_errors(records)
        if state["records"] is None:
            state["records"] = records
        elif records != state["records"]:
            failed += len(records)
            print("check failed: a cold campaign pass changed its records", flush=True)
        if stats.computed_records != len(records):
            failed += len(records)
            print("check failed: a cold pass resumed cells from a fresh store", flush=True)
        state["store"], state["journal"] = store, journal
        return PassResult.timed(timer, len(records), min(failed, len(records)))

    def resume_pass(tracer: Optional[SpanTracer]) -> PassResult:
        """Resume over the latest cold pass's store (the cold phase runs first)."""
        stats = CampaignStats()
        timer = OpTimer()
        records = _consume(
            campaign_mod.stream_campaign(
                specs, policies, store=state["store"], journal=state["journal"],
                resume=True, stats=stats,
            ),
            tracer, timer, per_record=False,
        )
        failed = 0
        if records != state["records"] or stats.resumed_records != len(records):
            failed = len(records)
            print(f"check failed: resume pass emitted {len(records)} records, "
                  f"{stats.resumed_records} resumed, differing from the cold pass", flush=True)
        return PassResult.timed(timer, len(records), failed,
                                resumed=stats.resumed_records, records=stats.records)

    def warm_up() -> None:
        list(campaign_mod.stream_campaign(specs[:1], policies[:1]))

    return Workload(
        phases=(
            Phase("heavy_ops_per_s", "campaign.cells_per_s", "cells/s", 0.85, cold_pass),
            Phase("light_ops_per_s", "campaign.resume_cells_per_s", "cells/s", 0.15,
                  resume_pass),
        ),
        policies=tuple(policies),
        cross_check=lambda: (0, 0),
        warm_up=warm_up,
    )


# --------------------------------------------------------------------------- #
# stream: run_stream_sweep on light and overload cells                         #
# --------------------------------------------------------------------------- #
#: The stream workload's policies and its two cells: (scenario, nominal rho).
STREAM_POLICIES = ("srpt", "mct", "greedy-weighted-flow")
LIGHT_CELL = ("replicated-portal", 0.5)
OVERLOAD_CELL = ("small-cluster", 1.2)


@dataclass(frozen=True)
class StreamConfig:
    light_streams: int = 8
    overload_streams: int = 32
    light_arrivals: int = 2000
    overload_arrivals: int = 1000


def _sweep_pass(
    specs: Sequence[StreamSpec],
    rho: float,
    policies: Sequence[str],
    arrivals: int,
    light: bool,
    tracer: Optional[SpanTracer],
) -> PassResult:
    results = []
    timer = OpTimer()
    for spec in specs:
        timer.begin()
        with _span(tracer, "stream.sweep"):
            results.append(stream_sweep.run_stream_sweep(
                spec, policies, rhos=[rho], max_arrivals=arrivals
            ))
        timer.end(sum(cell.report.arrivals for cell in results[-1].records))
    failed = 0
    cells = 0
    for result in results:
        for cell in result.records:
            cells += 1
            report = cell.report
            # Every arrival admitted and completed: the simulator's hard
            # saturation cap (which cuts a run short) was never hit.
            if report.arrivals != arrivals or report.completions != report.arrivals:
                failed += 1
                print(f"check failed: stream cell {cell.workload}/{cell.policy}: "
                      f"{report.completions} of {report.arrivals} arrivals completed", flush=True)
            elif light and report.saturated:
                # A light cell is below capacity: the steady-state analysis
                # must not call it saturated (see README, "Known defect").
                failed += 1
                print(f"check failed: light stream cell {cell.workload}/{cell.policy} "
                      f"reported saturated at peak {report.peak_active} jobs, "
                      f"utilisation {report.utilisation:.3f}", flush=True)
    return PassResult.timed(timer, cells, failed)


def stream_workload(seed: int, workdir: str, config: StreamConfig = StreamConfig()) -> Workload:
    light_name, light_rho = LIGHT_CELL
    over_name, over_rho = OVERLOAD_CELL
    light_specs = [
        StreamSpec(label=f"{light_name}-{i}", scenario=light_name, seed=s)
        for i, s in enumerate(_seeds(seed, 3, config.light_streams))
    ]
    over_specs = [
        StreamSpec(label=f"{over_name}-{i}", scenario=over_name, seed=s)
        for i, s in enumerate(_seeds(seed, 4, config.overload_streams))
    ]
    policies = list(STREAM_POLICIES)

    def cross_check() -> Tuple[int, int]:
        """Re-running one light cell must give an identical fingerprint."""
        cell = light_specs[0].with_utilisation(light_rho)
        prints = [
            StreamingSimulator(SimulationKernel())
            .run(open_stream(cell), make_scheduler(policies[0]), max_arrivals=config.light_arrivals)
            .fingerprint()
            for _ in range(2)
        ]
        if prints[0] != prints[1]:
            print("check failed: re-running a stream cell changed its fingerprint", flush=True)
            return 1, 1
        return 1, 0

    return Workload(
        phases=(
            Phase("light_ops_per_s", "stream.light_arrivals_per_s", "arrivals/s", 1 / 3,
                  lambda tracer: _sweep_pass(light_specs, light_rho, policies,
                                             config.light_arrivals, True, tracer)),
            Phase("heavy_ops_per_s", "stream.overload_arrivals_per_s", "arrivals/s", 2 / 3,
                  lambda tracer: _sweep_pass(over_specs, over_rho, policies,
                                             config.overload_arrivals, False, tracer)),
        ),
        policies=tuple(policies),
        cross_check=cross_check,
        warm_up=lambda: _sweep_pass(light_specs[:1], light_rho, policies, 200, True, None),
    )


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "offline": offline_workload,
    "campaign": campaign_workload,
    "stream": stream_workload,
}
