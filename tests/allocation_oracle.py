"""Frozen symbolic builder of the Systems (2)/(3)/(5) allocation LP.

This is the LP-DSL skeleton builder that :mod:`repro.core.formulations` used
before the allocation programs were assembled straight into CSR.  It is kept
**only** as the oracle that pins the assembler's bytes: the identity suite
(``tests/property/test_assembler_identity.py``) asserts that
``build_allocation_model(...).form`` equals
``to_matrix_form(build_dsl_allocation(...).model, sparse=True)`` array for
array, and ``benchmarks/bench_lp_backends.py`` times the DSL lowering on it.
The dict-based schedule extraction of the same era rides along, as the
oracle of the vectorised extraction.  Do not import it from library code.

Tests import it by bare module name (``tests/`` is on ``sys.path`` under
pytest's default import mode); the benchmarks append this directory to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.affine import Affine
from repro.core.instance import Instance
from repro.core.intervals import TimeInterval
from repro.core.lawler_labetoulle import build_preemptive_pieces
from repro.core.schedule import Schedule
from repro.core.tolerances import ABS_TOL
from repro.lp import LinearExpression, LinearProgram, LPSolution, Variable, linear_sum

__all__ = [
    "DslAllocation",
    "build_dsl_allocation",
    "dsl_divisible_schedule",
    "dsl_preemptive_schedule",
]

_FRACTION_DUST = 1e-10


@dataclass
class DslAllocation:
    """The symbolic model plus its ``(machine, job, interval) -> Variable`` map."""

    model: LinearProgram
    instance: Instance
    intervals: List[TimeInterval]
    variables: Dict[Tuple[int, int, int], Variable] = field(default_factory=dict)
    objective_variable: Optional[Variable] = None

    def allocation(self, solution: LPSolution) -> Dict[Tuple[int, int, int], float]:
        values: Dict[Tuple[int, int, int], float] = {}
        for key, var in self.variables.items():
            value = solution.value(var)
            if value > _FRACTION_DUST:
                values[key] = value
        return values


def _is_allowed(
    instance: Instance,
    machine_index: int,
    job_index: int,
    interval: TimeInterval,
    deadline: Optional[Affine],
    sample_objective: float,
    tol: float,
) -> bool:
    if not math.isfinite(instance.costs[machine_index, job_index]):
        return False
    job = instance.jobs[job_index]
    if job.release_date > interval.lower_at(sample_objective) + tol:
        return False
    if deadline is not None and deadline(sample_objective) < interval.upper_at(sample_objective) - tol:
        return False
    return True


def _usage_constraint(usage, length: Affine, objective_var: Optional[Variable]):
    if objective_var is not None:
        rhs = length.constant + length.slope * objective_var
    else:
        rhs = length.constant
        if length.slope != 0.0:
            raise ValueError(
                "interval length depends on the objective but no objective variable was created"
            )
    return usage <= rhs


def build_dsl_allocation(
    instance: Instance,
    intervals: Sequence[TimeInterval],
    deadlines: Optional[Sequence[Affine]] = None,
    objective_bounds: Optional[Tuple[float, Optional[float]]] = None,
    sample_objective: float = 0.0,
    preemptive: bool = False,
    name: str = "",
    tol: float = ABS_TOL,
) -> DslAllocation:
    """Build the allocation LP symbolically (same signature as the assembler)."""
    model = LinearProgram(name=name or "allocation", sense="min")
    alloc = DslAllocation(model=model, instance=instance, intervals=list(intervals))

    objective_var: Optional[Variable] = None
    if objective_bounds is not None:
        lower, upper = objective_bounds
        objective_var = model.add_variable(
            "F", lower=lower, upper=float("inf") if upper is None else upper
        )
        model.set_objective(objective_var)
        alloc.objective_variable = objective_var
    else:
        model.set_objective(0.0)

    for t, interval in enumerate(alloc.intervals):
        for j in range(instance.num_jobs):
            deadline = deadlines[j] if deadlines is not None else None
            for i in range(instance.num_machines):
                if _is_allowed(instance, i, j, interval, deadline, sample_objective, tol):
                    var = model.add_variable(f"alpha[{i},{j},{t}]", lower=0.0, upper=1.0)
                    alloc.variables[(i, j, t)] = var

    for t, interval in enumerate(alloc.intervals):
        length = interval.length()
        for i in range(instance.num_machines):
            terms = [
                alloc.variables[(i, j, t)] * float(instance.costs[i, j])
                for j in range(instance.num_jobs)
                if (i, j, t) in alloc.variables
            ]
            if not terms:
                continue
            model.add_constraint(
                _usage_constraint(linear_sum(terms), length, objective_var),
                name=f"capacity[m{i},t{t}]",
            )

    if preemptive:
        for t, interval in enumerate(alloc.intervals):
            length = interval.length()
            for j in range(instance.num_jobs):
                terms = [
                    alloc.variables[(i, j, t)] * float(instance.costs[i, j])
                    for i in range(instance.num_machines)
                    if (i, j, t) in alloc.variables
                ]
                if not terms:
                    continue
                model.add_constraint(
                    _usage_constraint(linear_sum(terms), length, objective_var),
                    name=f"job_window[j{j},t{t}]",
                )

    for j in range(instance.num_jobs):
        terms = [
            alloc.variables[(i, j, t)]
            for t in range(len(alloc.intervals))
            for i in range(instance.num_machines)
            if (i, j, t) in alloc.variables
        ]
        if not terms:
            model.add_constraint(
                LinearExpression({}, 1.0) == 0.0, name=f"completion[j{j}]-impossible"
            )
            continue
        model.add_constraint(linear_sum(terms) == 1.0, name=f"completion[j{j}]")

    return alloc


def dsl_divisible_schedule(
    alloc: DslAllocation, solution: LPSolution, objective_value: float = 0.0
) -> Schedule:
    """Sequential per-machine layout, one dict lookup per (t, i, j)."""
    instance = alloc.instance
    schedule = Schedule(instance=instance, divisible=True)
    fractions = alloc.allocation(solution)
    for t, interval in enumerate(alloc.intervals):
        start_time = interval.lower_at(objective_value)
        for i in range(instance.num_machines):
            cursor = start_time
            for j in range(instance.num_jobs):
                fraction = fractions.get((i, j, t), 0.0)
                if fraction <= _FRACTION_DUST:
                    continue
                duration = fraction * float(instance.costs[i, j])
                schedule.add_piece(j, i, cursor, cursor + duration, fraction)
                cursor += duration
    return schedule.compact()


def dsl_preemptive_schedule(
    alloc: DslAllocation, solution: LPSolution, objective_value: float = 0.0
) -> Schedule:
    """Lawler-Labetoulle per interval, rescanning every fraction per interval."""
    instance = alloc.instance
    schedule = Schedule(instance=instance, divisible=False)
    fractions = alloc.allocation(solution)
    for t, interval in enumerate(alloc.intervals):
        window_start = interval.lower_at(objective_value)
        window_length = interval.length_at(objective_value)
        if window_length <= 0:
            continue
        times = np.zeros((instance.num_machines, instance.num_jobs))
        for (i, j, tt), fraction in fractions.items():
            if tt != t:
                continue
            times[i, j] = fraction * float(instance.costs[i, j])
        if times.sum() <= _FRACTION_DUST:
            continue
        max_load = max(times.sum(axis=1).max(), times.sum(axis=0).max())
        if max_load > window_length:
            relative_excess = (max_load - window_length) / max(window_length, 1e-30)
            if relative_excess > 1e-4:
                raise ValueError("allocation exceeds the interval length")
            times *= window_length / max_load
        for machine_index, job_index, start, end in build_preemptive_pieces(
            times, window_length, window_start
        ):
            cost = float(instance.costs[machine_index, job_index])
            schedule.add_piece(job_index, machine_index, start, end, (end - start) / cost)
    return schedule.compact()
