"""E7 — Ablation: LP backend (SciPy/HiGHS vs the in-house simplex).

Any exact LP solver yields the same scheduling optima; this bench verifies it
on the actual System (3) programs and records the performance gap between the
production backend and the from-scratch simplex (which exists for
self-containedness and cross-validation, not speed).

The lowering bench measures the LP DSL's matrix *lowering*: the CSR path
must be at least twice as fast as the dense path on the largest System (3)
program the bench builds, and both lowerings must solve to identical
objectives.  The production path no longer lowers anything — the allocation
programs are assembled straight into CSR — so the assembler bench pins that
step against the DSL build plus lowering it replaced, on the same program,
byte for byte.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

from repro.analysis import format_table
from repro.core import minimize_max_weighted_flow
from repro.core.affine import Affine
from repro.core.formulations import build_allocation_model
from repro.core.intervals import build_affine_intervals
from repro.core.milestones import compute_milestones, deadline_function
from repro.core.tolerances import ABS_TOL
from repro.lp import to_matrix_form
from repro.lp.scipy_backend import solve_matrix_form
from repro.workload import random_unrelated_instance

#: The frozen DSL builder lives with the tests that pin the assembler on it.
_TESTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)

from allocation_oracle import build_dsl_allocation  # noqa: E402


def _solve_with(backend: str, instances):
    values = []
    for instance in instances:
        values.append(minimize_max_weighted_flow(instance, backend=backend).objective)
    return values


def test_lp_backend_equivalence(benchmark, bench_scale):
    num_instances = 4 if bench_scale == "full" else 2
    num_jobs = 7 if bench_scale == "full" else 5
    instances = [
        random_unrelated_instance(num_jobs, 3, seed=seed) for seed in range(num_instances)
    ]

    start = time.perf_counter()
    simplex_values = _solve_with("simplex", instances)
    simplex_seconds = time.perf_counter() - start

    scipy_values = benchmark.pedantic(
        _solve_with, args=("scipy", instances), rounds=1, iterations=1
    )
    start = time.perf_counter()
    _solve_with("scipy", instances)
    scipy_seconds = time.perf_counter() - start

    rows = [
        (seed, scipy_value, simplex_value, abs(scipy_value - simplex_value))
        for seed, (scipy_value, simplex_value) in enumerate(zip(scipy_values, simplex_values))
    ]
    print()
    print(
        format_table(
            ["seed", "HiGHS optimum", "simplex optimum", "abs difference"],
            rows,
            title="E7: the two LP backends find the same scheduling optima",
            float_format=".6g",
        )
    )
    print(f"wall-clock: HiGHS {scipy_seconds:.2f}s vs in-house simplex {simplex_seconds:.2f}s "
          f"({simplex_seconds / max(scipy_seconds, 1e-9):.1f}x slower)")

    for scipy_value, simplex_value in zip(scipy_values, simplex_values):
        assert abs(scipy_value - simplex_value) <= 1e-5 * (1.0 + abs(scipy_value))


def _bench_range(num_jobs: int, num_machines: int):
    """Arguments of the parametric System (3) LP of a mid-search milestone range."""
    instance = random_unrelated_instance(num_jobs, num_machines, seed=0)
    deadlines = [deadline_function(job) for job in instance.jobs]
    epochal = deadlines + [Affine.const(job.release_date) for job in instance.jobs]
    milestones = compute_milestones(instance.jobs)
    mid = len(milestones) // 2
    low, high = milestones[mid], milestones[mid + 1]
    sample = 0.5 * (low + high)
    intervals = build_affine_intervals(epochal, sample)
    return (instance, intervals), dict(
        deadlines=deadlines, objective_bounds=(low, high), sample_objective=sample
    )


def _largest_bench_alloc(num_jobs: int, num_machines: int):
    """The mid-search System (3) program, assembled as the solvers see it."""
    args, kwargs = _bench_range(num_jobs, num_machines)
    return build_allocation_model(*args, **kwargs)


def _largest_bench_lp(num_jobs: int, num_machines: int):
    """The same program stated in the LP DSL (the lowering benches' input)."""
    args, kwargs = _bench_range(num_jobs, num_machines)
    return build_dsl_allocation(*args, **kwargs).model


def test_revised_simplex_beats_dense_tableau_without_densifying(monkeypatch):
    """ISSUE 9 acceptance: the revised simplex wins on the big lowering LP.

    The 774x13225 mid-milestone System (3) program (num_jobs=60,
    num_machines=6).  The revised simplex must consume the sparse lowering
    directly — ``MatrixForm.densified`` is poisoned for the duration — agree
    with HiGHS on the objective, and beat the frozen dense tableau so
    decisively that a full revised solve (~1100 pivots) finishes before the
    tableau clears even 25 of its own pivots (each tableau pivot rewrites the
    full rows x cols array, ~10M entries here).
    """
    from repro.lp.revised_simplex import solve_matrix_form_revised
    from repro.lp.simplex import solve_matrix_form_tableau
    from repro.lp.standard_form import MatrixForm

    alloc = _largest_bench_alloc(60, 6)
    assert (alloc.num_constraints, alloc.num_variables) == (774, 13225)
    sparse_form = alloc.form
    dense_form = alloc.form.densified()
    reference = solve_matrix_form(alloc.form)

    monkeypatch.setattr(
        MatrixForm,
        "densified",
        lambda self: (_ for _ in ()).throw(
            AssertionError("the revised simplex must not densify")
        ),
    )
    start = time.perf_counter()
    revised = solve_matrix_form_revised(sparse_form)
    revised_seconds = time.perf_counter() - start
    monkeypatch.undo()

    start = time.perf_counter()
    partial = solve_matrix_form_tableau(dense_form, max_iterations=25)
    tableau_25_pivots_seconds = time.perf_counter() - start

    print()
    print(
        format_table(
            ["solver", "seconds", "outcome"],
            [
                ("revised (full solve)", revised_seconds,
                 f"optimal, {revised.solution.iterations} pivots"),
                ("tableau (25 pivots)", tableau_25_pivots_seconds,
                 str(partial.status)),
            ],
            title="Revised simplex vs dense tableau on the 774x13225 bench LP",
            float_format=".3g",
        )
    )

    assert revised.solution.is_optimal
    assert abs(revised.solution.objective_value - reference.objective_value) <= 1e-6 * (
        1.0 + abs(reference.objective_value)
    )
    assert not partial.is_optimal  # 25 pivots are nowhere near enough
    assert revised_seconds < tableau_25_pivots_seconds, (
        f"revised full solve {revised_seconds:.2f}s vs tableau 25-pivot "
        f"partial {tableau_25_pivots_seconds:.2f}s"
    )


def _best_lowering_time(model, sparse: bool, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        to_matrix_form(model, sparse=sparse)
        best = min(best, time.perf_counter() - start)
    return best


def test_sparse_vs_dense_lowering(bench_scale):
    # Sizes chosen with headroom over the 2x gate: the dense cost grows with
    # rows x cols while the sparse cost grows with nnz, so the ratio widens
    # with size (~2.4x at 100 jobs, ~2.9x at 120 on the reference machine).
    num_jobs, num_machines = (140, 8) if bench_scale == "full" else (120, 8)
    model = _largest_bench_lp(num_jobs, num_machines)
    model.bounds_array()  # warm the shared bounds cache for a fair comparison
    repeats = 10 if bench_scale == "full" else 5

    dense_seconds = _best_lowering_time(model, sparse=False, repeats=repeats)
    sparse_seconds = _best_lowering_time(model, sparse=True, repeats=repeats)
    speedup = dense_seconds / max(sparse_seconds, 1e-12)

    dense_solution = solve_matrix_form(to_matrix_form(model, sparse=False))
    sparse_solution = solve_matrix_form(to_matrix_form(model, sparse=True))

    print()
    print(
        format_table(
            ["lowering", "best seconds", "objective"],
            [
                ("dense", dense_seconds, dense_solution.objective_value),
                ("sparse (CSR)", sparse_seconds, sparse_solution.objective_value),
            ],
            title=f"Dense vs sparse lowering of the largest bench LP "
            f"({model.num_variables} variables, {model.num_constraints} constraints, "
            f"{speedup:.1f}x)",
            float_format=".6g",
        )
    )

    assert dense_solution.is_optimal and sparse_solution.is_optimal
    assert abs(dense_solution.objective_value - sparse_solution.objective_value) <= ABS_TOL * (
        1.0 + abs(dense_solution.objective_value)
    )
    assert speedup >= 2.0, (
        f"sparse lowering expected >= 2x faster than dense, got {speedup:.2f}x"
    )


def test_assembler_beats_dsl_build_and_lowering():
    """The CSR assembler against the DSL build + sparse lowering it replaced.

    Same 774x13225 program as the revised-simplex bench: the two paths must
    agree on every array of the form, and the assembler must be at least
    10x faster (about 70x on a two-core x86-64 box).
    """
    args, kwargs = _bench_range(60, 6)
    assembled = build_allocation_model(*args, **kwargs)
    lowered = to_matrix_form(build_dsl_allocation(*args, **kwargs).model, sparse=True)
    for name in ("c", "bounds", "b_ub", "b_eq"):
        assert np.array_equal(getattr(assembled.form, name), getattr(lowered, name)), name
    for block in ("a_ub", "a_eq"):
        ours, theirs = getattr(assembled.form, block), getattr(lowered, block)
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(ours, part), getattr(theirs, part)), (block, part)

    def best(build, repeats=3):
        seconds = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            build()
            seconds = min(seconds, time.perf_counter() - start)
        return seconds

    assembler_seconds = best(lambda: build_allocation_model(*args, **kwargs))
    dsl_seconds = best(
        lambda: to_matrix_form(build_dsl_allocation(*args, **kwargs).model, sparse=True)
    )
    speedup = dsl_seconds / max(assembler_seconds, 1e-12)
    print()
    print(
        format_table(
            ["path", "best seconds"],
            [("CSR assembler", assembler_seconds), ("DSL build + lowering", dsl_seconds)],
            title=f"Allocation LP assembly, 774x13225 ({speedup:.1f}x)",
            float_format=".3g",
        )
    )
    assert speedup >= 10.0, f"assembler expected >= 10x faster, got {speedup:.2f}x"
