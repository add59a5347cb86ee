"""Byte identity of the CSR allocation assembler against the frozen DSL oracle.

:func:`repro.core.formulations.build_allocation_model` assembles Systems
(2)/(3)/(5) and LP (1) straight into CSR.  The store digests, the
template-identity contract of :class:`repro.core.replanning.ReplanProbe`
and the warm-start contract of the probes all rest on that form being the
one the symbolic LP layer used to produce, so every test here compares the
assembled form with ``to_matrix_form`` of the frozen DSL builder
(``tests/allocation_oracle.py``) array for array: ``c``, ``bounds``,
``b_ub``, ``b_eq`` (values, dtypes and zero signs) and the CSR ``indptr``,
``indices`` and ``data`` of both blocks — plus the dense lowering against
``form.densified()`` for the tableau path.

The builds are intercepted on the production paths themselves (the
milestone probe, ``check_deadline_feasibility``, ``minimize_makespan`` and
the replanning probe's template and refresh path), so the suite pins what
the solvers actually receive.  The same solutions then pin the vectorised
schedule extraction against the dict-based extraction of the DSL era.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allocation_oracle import (
    build_dsl_allocation,
    dsl_divisible_schedule,
    dsl_preemptive_schedule,
)
from repro.core import Instance, Job, check_deadline_feasibility, minimize_makespan
from repro.core import deadline as deadline_module
from repro.core import makespan as makespan_module
from repro.core import maxflow as maxflow_module
from repro.core.formulations import (
    divisible_schedule_from_solution,
    preemptive_schedule_from_solution,
)
from repro.core.maxflow import FeasibilityProbe, minimize_max_weighted_flow
from repro.core.replanning import ReplanProbe, remaining_subinstance
from repro.lp import to_matrix_form
from repro.lp.scipy_backend import solve_matrix_form
from repro.workload import available_scenarios, make_scenario, random_unrelated_instance

Build = Tuple[tuple, dict, object]


# --------------------------------------------------------------------------- #
# Helpers                                                                     #
# --------------------------------------------------------------------------- #
def assert_forms_identical(form, reference) -> None:
    """Every array of ``form`` equals ``reference``'s, bit for bit."""
    for name in ("c", "bounds", "b_ub", "b_eq"):
        ours, theirs = getattr(form, name), getattr(reference, name)
        assert ours.dtype == theirs.dtype, name
        assert np.array_equal(ours, theirs), name
        assert np.array_equal(np.signbit(ours), np.signbit(theirs)), name
    assert form.objective_constant == reference.objective_constant
    assert form.objective_sign == reference.objective_sign
    for block in ("a_ub", "a_eq"):
        ours, theirs = getattr(form, block), getattr(reference, block)
        assert ours.shape == theirs.shape, block
        if reference.is_sparse:
            for part in ("indptr", "indices", "data"):
                assert getattr(ours, part).dtype == getattr(theirs, part).dtype, (block, part)
                assert np.array_equal(getattr(ours, part), getattr(theirs, part)), (block, part)
        else:
            assert np.array_equal(ours, theirs), block


def check_against_oracle(args: tuple, kwargs: dict, alloc) -> object:
    """Pin one assembled model on the oracle; return the oracle model."""
    oracle = build_dsl_allocation(*args, **kwargs)
    assert_forms_identical(alloc.form, to_matrix_form(oracle.model, sparse=True))
    assert_forms_identical(alloc.form.densified(), to_matrix_form(oracle.model, sparse=False))
    keys = list(
        zip(
            alloc.column_machines.tolist(),
            alloc.column_jobs.tolist(),
            alloc.column_intervals.tolist(),
        )
    )
    assert keys == list(oracle.variables)
    offset = 0 if alloc.objective_column is None else 1
    assert [var.index for var in oracle.variables.values()] == list(
        range(offset, offset + len(keys))
    )
    if oracle.objective_variable is None:
        assert alloc.objective_column is None
    else:
        assert alloc.objective_column == oracle.objective_variable.index
    return oracle


def check_extraction(alloc, oracle) -> None:
    """Both extractions of one solution produce the same schedule bytes."""
    solution = solve_matrix_form(alloc.form)
    if not solution.is_optimal:
        return
    objective = 0.0
    if alloc.objective_column is not None:
        objective = solution.values[alloc.objective_column]
    assert alloc.allocation(solution) == oracle.allocation(solution)
    ours = divisible_schedule_from_solution(alloc, solution, objective)
    theirs = dsl_divisible_schedule(oracle, solution, objective)
    assert ours.pieces == theirs.pieces
    try:
        theirs = dsl_preemptive_schedule(oracle, solution, objective)
    except ValueError:
        # A divisible solution may overload a job's window; both sides refuse.
        with pytest.raises(ValueError):
            preemptive_schedule_from_solution(alloc, solution, objective)
        return
    assert preemptive_schedule_from_solution(alloc, solution, objective).pieces == theirs.pieces


@contextmanager
def recorded_builds(module) -> Iterator[List[Build]]:
    """Record every ``build_allocation_model`` call made through ``module``."""
    calls: List[Build] = []
    original = module.build_allocation_model

    def spy(*args, **kwargs):
        alloc = original(*args, **kwargs)
        calls.append((args, kwargs, alloc))
        return alloc

    with mock.patch.object(module, "build_allocation_model", spy):
        yield calls


# --------------------------------------------------------------------------- #
# System (3)/(5): every milestone range of a scenario                         #
# --------------------------------------------------------------------------- #
def _check_every_range(instance: Instance) -> int:
    checked = 0
    for preemptive in (False, True):
        probe = FeasibilityProbe(instance, preemptive=preemptive, max_cached_ranges=1)
        with recorded_builds(maxflow_module) as calls:
            for k in range(len(probe.milestones) + 1):
                probe._build_range(k)
        for args, kwargs, alloc in calls:
            check_against_oracle(args, kwargs, alloc)
            checked += 1
    return checked


def test_every_milestone_range_of_a_scenario_matches_the_oracle():
    instance = make_scenario("hotspot")
    assert _check_every_range(instance) == 2 * (len(FeasibilityProbe(instance).milestones) + 1)


@pytest.mark.tier2
@pytest.mark.parametrize("scenario", available_scenarios())
def test_every_milestone_range_of_every_scenario_matches_the_oracle(scenario):
    assert _check_every_range(make_scenario(scenario)) > 0


@pytest.mark.tier2
def test_every_milestone_range_of_a_30x6_instance_matches_the_oracle():
    assert _check_every_range(random_unrelated_instance(30, 6, seed=2005)) > 0


@pytest.mark.parametrize("preemptive", [False, True])
def test_extraction_identity_on_the_search_optimum(preemptive):
    instance = random_unrelated_instance(12, 4, forbidden_probability=0.2, seed=3)
    with recorded_builds(maxflow_module) as calls:
        result = minimize_max_weighted_flow(instance, preemptive=preemptive)
    assert calls and result.schedule.pieces
    for args, kwargs, alloc in calls:
        check_extraction(alloc, check_against_oracle(args, kwargs, alloc))


# --------------------------------------------------------------------------- #
# Random systems on every production path                                     #
# --------------------------------------------------------------------------- #
@st.composite
def small_instance(draw) -> Instance:
    """1-4 jobs on 1-3 machines, with forbidden (infinite-cost) pairs."""
    num_jobs = draw(st.integers(min_value=1, max_value=4))
    num_machines = draw(st.integers(min_value=1, max_value=3))
    jobs = [
        Job(
            f"J{j}",
            draw(st.sampled_from([0.0, 0.0, 1.0, 2.5, 4.0])),
            weight=draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])),
        )
        for j in range(num_jobs)
    ]
    costs = [
        [draw(st.sampled_from([1.0, 2.0, 3.5, 6.0, float("inf")])) for _ in range(num_jobs)]
        for _ in range(num_machines)
    ]
    for j in range(num_jobs):  # every job needs one machine able to run it
        if all(costs[i][j] == float("inf") for i in range(num_machines)):
            costs[draw(st.integers(0, num_machines - 1))][j] = 2.0
    return Instance.from_costs(jobs, costs)


@st.composite
def random_system(draw):
    instance = draw(small_instance())
    kind = draw(st.sampled_from(["range", "deadline", "makespan"]))
    # Slack 0.0 gives a job a zero-length window: no allowed column at all.
    slack = [draw(st.sampled_from([0.0, 1.0, 3.0, 8.0, 30.0])) for _ in instance.jobs]
    deadlines = [job.release_date + s for job, s in zip(instance.jobs, slack)]
    return instance, kind, deadlines, draw(st.booleans())


def _run_system(instance: Instance, kind: str, deadlines, preemptive: bool) -> List[Build]:
    if kind == "range":
        with recorded_builds(maxflow_module) as calls:
            minimize_max_weighted_flow(instance, preemptive=preemptive)
    elif kind == "deadline":
        with recorded_builds(deadline_module) as calls:
            check_deadline_feasibility(instance, deadlines, preemptive=preemptive)
    else:
        with recorded_builds(makespan_module) as calls:
            minimize_makespan(instance, preemptive=preemptive)
    assert calls
    return calls


def _check_system(system) -> None:
    for args, kwargs, alloc in _run_system(*system):
        check_extraction(alloc, check_against_oracle(args, kwargs, alloc))


@settings(max_examples=25, deadline=None)
@given(random_system())
def test_random_systems_match_the_oracle(system):
    _check_system(system)


@pytest.mark.tier2
@settings(max_examples=300, deadline=None)
@given(random_system())
def test_random_systems_match_the_oracle_at_depth(system):
    _check_system(system)


# --------------------------------------------------------------------------- #
# Named edges                                                                 #
# --------------------------------------------------------------------------- #
INF = float("inf")
EDGES = {
    "one-machine": ([Job("A", 0.0), Job("B", 1.0, weight=2.0)], [[3.0, 2.0]]),
    "one-job": ([Job("A", 0.5, weight=0.5)], [[4.0], [1.5], [7.0]]),
    "forbidden-pairs": (
        [Job("A", 0.0), Job("B", 0.0), Job("C", 2.0)],
        [[2.0, INF, 1.0], [INF, 3.0, 4.0]],
    ),
}


@pytest.mark.parametrize("edge", sorted(EDGES))
@pytest.mark.parametrize("kind", ["range", "deadline", "makespan"])
@pytest.mark.parametrize("preemptive", [False, True])
def test_named_edges_match_the_oracle(edge, kind, preemptive):
    jobs, costs = EDGES[edge]
    instance = Instance.from_costs(jobs, costs)
    deadlines = [job.release_date + 5.0 for job in instance.jobs]
    _check_system((instance, kind, deadlines, preemptive))


def test_makespan_lp1_carries_the_sloped_last_interval():
    instance = Instance.from_costs([Job("A", 0.0), Job("B", 2.0)], [[3.0, 2.0], [5.0, 1.0]])
    with recorded_builds(makespan_module) as calls:
        minimize_makespan(instance)
    (args, kwargs, alloc), = calls
    check_against_oracle(args, kwargs, alloc)
    # Every capacity row opens with its F entry: an explicit 0.0 on the
    # constant-length rows, -1.0 on the open-ended last interval's rows (its
    # length is Delta itself).
    a_ub = alloc.form.a_ub
    first = a_ub.indptr[:-1]
    assert (a_ub.indices[first] == alloc.objective_column).all()
    assert set(a_ub.data[first].tolist()) == {0.0, -1.0}


def test_job_without_allowed_column_gets_the_empty_infeasible_row():
    instance = Instance.from_costs([Job("A", 0.0), Job("B", 1.0)], [[2.0, 3.0]])
    with recorded_builds(deadline_module) as calls:
        result = check_deadline_feasibility(instance, [10.0, 1.0])  # B: zero-length window
    (args, kwargs, alloc), = calls
    check_against_oracle(args, kwargs, alloc)
    assert not result.feasible
    a_eq = alloc.form.a_eq
    assert np.diff(a_eq.indptr).tolist()[1] == 0
    assert alloc.form.b_eq.tolist() == [1.0, -1.0]


# --------------------------------------------------------------------------- #
# System (2) on the replanning template path                                  #
# --------------------------------------------------------------------------- #
def _replan_checks(backend: str, preemptive: bool) -> int:
    """Drive a probe through misses and refreshed hits; pin every solved form."""
    instance = random_unrelated_instance(6, 3, forbidden_probability=0.2, seed=11)
    probe = ReplanProbe(preemptive=preemptive, backend=backend)
    seen: List[tuple] = []
    original = ReplanProbe._solve_template

    def spy(self, template, form):
        seen.append((self._event_instance, form))
        return original(self, template, form)

    checked = 0
    rng = np.random.default_rng(5)
    with mock.patch.object(ReplanProbe, "_solve_template", spy):
        for step in range(12):
            active = sorted(rng.choice(6, size=4, replace=False).tolist())
            remaining = rng.uniform(0.2, 1.0, size=4).tolist()
            sub, _ = remaining_subinstance(instance, float(step), active, remaining)
            for scale in (2.0, 5.0, 40.0):
                deadlines = [float(step) + scale / job.weight for job in sub.jobs]
                probe.check(sub, deadlines, build_schedule=False)
                checked_instance, form = seen[-1]
                assert checked_instance is sub
                with recorded_builds(deadline_module) as calls:
                    check_deadline_feasibility(sub, deadlines, preemptive=preemptive)
                (args, kwargs, _alloc), = calls
                oracle = build_dsl_allocation(*args, **kwargs)
                assert_forms_identical(
                    form, to_matrix_form(oracle.model, sparse=backend != "tableau")
                )
                checked += 1
    assert probe.cache_hits > 0 and probe.model_constructions > 0
    return checked


@pytest.mark.parametrize("preemptive", [False, True])
def test_replan_templates_and_refreshes_match_the_oracle(preemptive):
    assert _replan_checks("scipy", preemptive) == 36


@pytest.mark.parametrize("preemptive", [False, True])
def test_replan_dense_templates_match_the_dense_lowering(preemptive):
    assert _replan_checks("tableau", preemptive) == 36
