"""Shared machinery for building the paper's linear programs.

Systems (2), (3) and (5) of the paper share the same skeleton: allocation
variables ``alpha[i, j, t]`` (the fraction of job ``j`` processed by machine
``i`` during interval ``I_t``), release-date and deadline restrictions that
simply *remove* variables, per-interval resource constraints and per-job
completion constraints.  :func:`build_allocation_model` assembles that
skeleton straight into the sparse :class:`~repro.lp.MatrixForm` the solvers
consume (one broadcast allowed-mask, then the CSR blocks in a handful of
NumPy calls), so the individual solvers (:mod:`repro.core.deadline`,
:mod:`repro.core.makespan`, :mod:`repro.core.maxflow`,
:mod:`repro.core.replanning`) only state what is specific to them.  The form
is bit-identical to the LP DSL's lowering of the same program, explicit
``0.0`` entries of the ``F`` column included.

The same module also converts LP solutions back into concrete
:class:`~repro.core.schedule.Schedule` objects:

* in the divisible model the fractions of an interval are simply laid out
  sequentially on each machine (any order is valid, as the paper notes);
* in the preemptive model the per-interval allocation matrix is handed to the
  Lawler–Labetoulle reconstruction so that no job ever runs on two machines
  simultaneously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..lp import LPSolution, MatrixForm
from .affine import Affine
from .instance import Instance
from .intervals import TimeInterval
from .lawler_labetoulle import build_preemptive_pieces
from .schedule import Schedule
from .tolerances import ABS_TOL

__all__ = [
    "AllocationModel",
    "allowed_mask",
    "build_allocation_model",
    "divisible_schedule_from_solution",
    "preemptive_schedule_from_solution",
]

#: Allocation fractions below this threshold are dropped when building schedules.
_FRACTION_DUST = 1e-10


@dataclass
class AllocationModel:
    """A linear program over allocation variables ``alpha[i, j, t]``.

    Attributes
    ----------
    form:
        The assembled sparse :class:`~repro.lp.MatrixForm`.  Columns are the
        ``F`` variable first (System (3)/(5) and LP (1) only), then one
        ``alpha`` column per allowed ``(t, j, i)`` in that lexicographic
        order.  Rows are the capacity rows per ``(t, i)``, then the (5b)
        rows per ``(t, j)`` in the preemptive model (inequality block), and
        one completion row per job (equality block).
    instance:
        The scheduling instance.
    intervals:
        The time intervals indexing the allocation variables.
    column_machines, column_jobs, column_intervals:
        The ``(machine, job, interval)`` of every ``alpha`` column, in column
        order (offset by one when ``objective_column`` is set).
    objective_column:
        Column of the ``F`` variable of System (3)/(5), or ``None`` for
        fixed-deadline systems.
    sample_objective:
        The objective value used to order the (possibly affine) epochal times.
    name:
        Model name for diagnostics.
    """

    form: MatrixForm
    instance: Instance
    intervals: List[TimeInterval]
    column_machines: np.ndarray
    column_jobs: np.ndarray
    column_intervals: np.ndarray
    objective_column: Optional[int] = None
    sample_objective: float = 0.0
    name: str = "allocation"

    @property
    def num_variables(self) -> int:
        """Number of LP columns (``F`` included)."""
        return self.form.num_variables

    @property
    def num_constraints(self) -> int:
        """Number of LP rows (inequalities and equalities)."""
        return self.form.num_inequalities + self.form.num_equalities

    def fractions(self, solution: LPSolution) -> np.ndarray:
        """The solution's ``alpha`` values, one per column (0.0 when absent)."""
        values = np.zeros(self.num_variables)
        values[list(solution.values)] = list(solution.values.values())
        return values[0 if self.objective_column is None else 1 :]

    def allocation(self, solution: LPSolution) -> Dict[Tuple[int, int, int], float]:
        """Extract the non-negligible allocation fractions from a solution."""
        values = self.fractions(solution)
        keep = np.flatnonzero(values > _FRACTION_DUST)
        machines, jobs = self.column_machines[keep].tolist(), self.column_jobs[keep].tolist()
        keys = zip(machines, jobs, self.column_intervals[keep].tolist())
        return dict(zip(keys, values[keep].tolist()))


def allowed_mask(
    instance: Instance,
    lowers: np.ndarray,
    uppers: np.ndarray,
    deadlines: Optional[np.ndarray],
    tol: float = ABS_TOL,
) -> np.ndarray:
    """Decide structurally which ``alpha[i, j, t]`` may be non-zero.

    Returns a ``(num_intervals, num_jobs, num_machines)`` boolean mask from
    the interval bounds and the per-job deadlines, all evaluated at one
    sample objective.  Encodes constraints (2a)/(2b) (equivalently
    (3b)/(3c), (5d)/(5e)) of the paper: the job must be released no later
    than the interval starts and, if it has a deadline, the interval must
    end no later than the deadline.  Machines that cannot process the job at
    all (infinite ``c_{i,j}``) are excluded as well.
    """
    releases = np.asarray(instance.release_dates, dtype=float)
    window = ~(releases[None, :] > np.asarray(lowers)[:, None] + tol)
    if deadlines is not None:
        window &= ~(np.asarray(deadlines)[None, :] < np.asarray(uppers)[:, None] - tol)
    return window[:, :, None] & np.isfinite(instance.costs).T[None, :, :]


def build_allocation_model(
    instance: Instance,
    intervals: Sequence[TimeInterval],
    deadlines: Optional[Sequence[Affine]] = None,
    objective_bounds: Optional[Tuple[float, Optional[float]]] = None,
    sample_objective: float = 0.0,
    preemptive: bool = False,
    name: str = "",
    tol: float = ABS_TOL,
) -> AllocationModel:
    """Assemble the LP skeleton shared by Systems (2), (3) and (5).

    Parameters
    ----------
    instance:
        The scheduling instance.
    intervals:
        The time intervals (constant or affine bounds).
    deadlines:
        Per-job deadlines as affine functions of the objective, or ``None``
        when jobs have no deadlines (makespan-style formulations).
    objective_bounds:
        When given, a variable ``F`` with these ``(lower, upper)`` bounds is
        created, the interval lengths become affine expressions of ``F`` and
        the model minimises ``F`` (this is System (3)/(5)).  ``upper`` may be
        ``None`` for an unbounded search range.  When omitted, interval
        lengths are evaluated at ``sample_objective`` and the model has a
        constant zero objective (pure feasibility, System (2)).
    sample_objective:
        Objective value used to fix the epochal-time order (must lie strictly
        inside the milestone range when ``objective_bounds`` is given).
    preemptive:
        When ``True``, add the per-job per-interval constraints (5b) that
        forbid a job from receiving more work in an interval than the
        interval's length — the extra requirement of the preemptive
        (non-divisible) model.
    name:
        Model name for diagnostics.
    tol:
        Numerical tolerance for the structural allowed/forbidden decisions.
    """
    intervals = list(intervals)
    num_machines, num_jobs = instance.num_machines, instance.num_jobs
    lower = np.array([(iv.lower.constant, iv.lower.slope) for iv in intervals]).reshape(-1, 2)
    upper = np.array([(iv.upper.constant, iv.upper.slope) for iv in intervals]).reshape(-1, 2)
    deadline_values = None
    if deadlines is not None:
        deadline_values = np.array([d(sample_objective) for d in deadlines], dtype=float)
    mask = allowed_mask(
        instance,
        lower[:, 0] + lower[:, 1] * sample_objective,
        upper[:, 0] + upper[:, 1] * sample_objective,
        deadline_values,
        tol,
    )
    # Interval lengths ``upper - lower`` as affine functions of F.
    length_constants = upper[:, 0] - lower[:, 0]
    length_slopes = upper[:, 1] - lower[:, 1]

    offset = 0 if objective_bounds is None else 1
    f_coefficients: Optional[np.ndarray] = None
    if objective_bounds is None:
        used = mask.any(axis=(1, 2))
        if (length_slopes[used] != 0.0).any():
            raise ValueError(
                "interval length depends on the objective but no objective variable was created"
            )
    else:
        # ``usage <= length.constant + length.slope * F`` moves F to the left.
        f_coefficients = 0.0 - length_slopes
    # ``usage - length <= 0`` lowered with the DSL's sign convention, bit for
    # bit (a zero-length row keeps its -0.0 right-hand side).
    length_rhs = -(0.0 - length_constants)

    t_of, j_of, i_of = np.nonzero(mask)  # (t, j, i)-lexicographic: column order
    num_alpha = len(t_of)
    num_cols = offset + num_alpha
    columns = np.arange(offset, num_cols)
    costs = instance.costs[i_of, j_of].astype(float)

    # Inequality rows, each listing its alpha entries in column order: the
    # capacity rows (1b)/(2c)/(3d)/(5c), one per (t, i) with an allowed
    # column, then the preemptive per-job rows (5b), one per (t, j).
    entries = [np.lexsort((j_of, i_of, t_of))]
    row_keys = [t_of[entries[0]] * num_machines + i_of[entries[0]]]
    if preemptive:
        entries.append(np.arange(num_alpha))
        row_keys.append(len(intervals) * num_machines + t_of * num_jobs + j_of)
    entry = np.concatenate(entries)
    starts = np.flatnonzero(np.diff(np.concatenate(row_keys), prepend=-1))
    row_intervals = t_of[entry[starts]]
    ub_indptr = np.append(starts, len(entry)) + offset * np.arange(len(starts) + 1)
    ub_data, ub_indices = costs[entry], columns[entry]
    if f_coefficients is not None:  # every row opens with its F entry (column 0)
        ub_data = np.insert(ub_data, starts, f_coefficients[row_intervals])
        ub_indices = np.insert(ub_indices, starts, 0)
    a_ub = sp.csr_matrix((ub_data, ub_indices, ub_indptr), shape=(len(starts), num_cols))
    b_ub = length_rhs[row_intervals]

    # Completion rows (1d)/(2d)/(3e)/(5a): a job with no allowed column gets
    # an empty row ``0 == -1`` so the solver reports infeasibility instead of
    # silently dropping the job.
    per_job = np.bincount(j_of, minlength=num_jobs)
    eq_indptr = np.concatenate(([0], np.cumsum(per_job)))
    eq_indices = columns[np.argsort(j_of, kind="stable")]
    a_eq = sp.csr_matrix((np.ones(num_alpha), eq_indices, eq_indptr), shape=(num_jobs, num_cols))
    b_eq = np.where(per_job > 0, 1.0, -1.0)

    bounds = np.empty((num_cols, 2))
    bounds[offset:] = (0.0, 1.0)
    c = np.zeros(num_cols)
    if objective_bounds is not None:
        low, high = objective_bounds
        high = float("inf") if high is None else high
        if low > high:
            raise ValueError(f"variable 'F' has empty domain [{low}, {high}]")
        bounds[0] = (low, high)
        c[0] = 1.0

    return AllocationModel(
        form=MatrixForm(c, 0.0, 1.0, a_ub, b_ub, a_eq, b_eq, bounds),
        instance=instance,
        intervals=intervals,
        column_machines=i_of,
        column_jobs=j_of,
        column_intervals=t_of,
        objective_column=None if objective_bounds is None else 0,
        sample_objective=sample_objective,
        name=name or "allocation",
    )


# --------------------------------------------------------------------------- #
# Schedule reconstruction                                                     #
# --------------------------------------------------------------------------- #
def divisible_schedule_from_solution(
    alloc: AllocationModel,
    solution: LPSolution,
    objective_value: float = 0.0,
) -> Schedule:
    """Build a divisible schedule from an allocation solution.

    Inside every interval the fractions assigned to a machine are laid out
    one after the other starting at the interval's lower bound; the resource
    constraints guarantee they fit.  Jobs are laid out in index order — any
    order is valid in the divisible model, as the paper observes.
    """
    instance = alloc.instance
    schedule = Schedule(instance=instance, divisible=True)
    values = alloc.fractions(solution)
    keep = np.flatnonzero(values > _FRACTION_DUST)
    keep = keep[
        np.lexsort(
            (alloc.column_jobs[keep], alloc.column_machines[keep], alloc.column_intervals[keep])
        )
    ]
    machines = alloc.column_machines[keep]
    jobs = alloc.column_jobs[keep]
    durations = values[keep] * instance.costs[machines, jobs]

    starts = [interval.lower_at(objective_value) for interval in alloc.intervals]
    lane = None
    cursor = 0.0
    for t, i, j, fraction, duration in zip(
        alloc.column_intervals[keep].tolist(),
        machines.tolist(),
        jobs.tolist(),
        values[keep].tolist(),
        durations.tolist(),
    ):
        if lane != (t, i):
            lane = (t, i)
            cursor = starts[t]
        schedule.add_piece(j, i, cursor, cursor + duration, fraction)
        cursor += duration
    return schedule.compact()


def preemptive_schedule_from_solution(
    alloc: AllocationModel,
    solution: LPSolution,
    objective_value: float = 0.0,
) -> Schedule:
    """Build a preemptive (non-divisible) schedule from an allocation solution.

    Every interval's allocation matrix is handed to the Lawler–Labetoulle
    reconstruction (:mod:`repro.core.lawler_labetoulle`); the per-interval
    schedules are then concatenated, exactly as in Section 4.4 of the paper.
    """
    instance = alloc.instance
    schedule = Schedule(instance=instance, divisible=False)
    values = alloc.fractions(solution)
    keep = np.flatnonzero(values > _FRACTION_DUST)  # column order: grouped by interval
    machines = alloc.column_machines[keep]
    jobs = alloc.column_jobs[keep]
    work = values[keep] * instance.costs[machines, jobs]
    bounds = np.searchsorted(alloc.column_intervals[keep], np.arange(len(alloc.intervals) + 1))

    for t, interval in enumerate(alloc.intervals):
        window_start = interval.lower_at(objective_value)
        window_length = interval.length_at(objective_value)
        if window_length <= 0:
            continue

        times = np.zeros((instance.num_machines, instance.num_jobs))
        piece = slice(bounds[t], bounds[t + 1])
        times[machines[piece], jobs[piece]] = work[piece]
        if times.sum() <= _FRACTION_DUST:
            continue

        # LP rounding can leave row/column sums a hair above the window
        # length; rescale the whole matrix by the (tiny) excess so that the
        # Lawler-Labetoulle preconditions hold exactly.
        max_load = max(times.sum(axis=1).max(), times.sum(axis=0).max())
        if max_load > window_length:
            relative_excess = (max_load - window_length) / max(window_length, 1e-30)
            if relative_excess > 1e-4:
                raise ValueError(
                    "allocation exceeds the interval length by more than the LP tolerance "
                    f"({max_load:.9g} > {window_length:.9g})"
                )
            times *= window_length / max_load

        for machine_index, job_index, start, end in build_preemptive_pieces(
            times, window_length, window_start
        ):
            cost = float(instance.costs[machine_index, job_index])
            schedule.add_piece(job_index, machine_index, start, end, (end - start) / cost)

    return schedule.compact()
