"""The scipy backend against ``scipy.optimize.linprog(method="highs")``.

:func:`repro.lp.scipy_backend.solve_matrix_form` calls scipy's bundled
HiGHS directly with the model and options linprog would pass it, so both
must report the same status and, when optimal, the same ``x`` and objective
bit for bit.  linprog is the reference here and nowhere else in the
package.
"""

from __future__ import annotations

import subprocess
import sys
from typing import List
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.core import check_deadline_feasibility
from repro.core import deadline as deadline_module
from repro.core import maxflow as maxflow_module
from repro.core.maxflow import minimize_max_weighted_flow
from repro.core.replanning import ReplanProbe
from repro.lp import LPStatus, MatrixForm
from repro.lp.scipy_backend import solve_matrix_form
from repro.workload import scenario_grid

#: linprog status code → ours.
_LINPROG_STATUS = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}


def _form(c, a_ub, b_ub, a_eq, b_eq, bounds) -> MatrixForm:
    return MatrixForm(
        c=np.asarray(c, dtype=float),
        objective_constant=0.0,
        objective_sign=1.0,
        a_ub=a_ub,
        b_ub=np.asarray(b_ub, dtype=float),
        a_eq=a_eq,
        b_eq=np.asarray(b_eq, dtype=float),
        bounds=np.asarray(bounds, dtype=float),
    )


def assert_matches_linprog(form: MatrixForm) -> LPStatus:
    """Solve ``form`` both ways; same status, bit-identical optimum."""
    ours = solve_matrix_form(form)
    reference = linprog(
        c=form.c,
        A_ub=form.a_ub if form.num_inequalities else None,
        b_ub=form.b_ub if form.num_inequalities else None,
        A_eq=form.a_eq if form.num_equalities else None,
        b_eq=form.b_eq if form.num_equalities else None,
        bounds=form.bounds,
        method="highs",
    )
    assert ours.status is _LINPROG_STATUS.get(reference.status, LPStatus.ERROR)
    if ours.is_optimal:
        x = np.array([ours.values[i] for i in range(form.num_variables)])
        assert x.tobytes() == reference.x.tobytes()
        assert ours.objective_value == form.restore_objective(float(reference.fun))
    return ours.status


def _random_form(seed: int, sparse: bool) -> MatrixForm:
    """A feasible bounded LP with ``<=`` and ``==`` rows and some zero entries."""
    rng = np.random.default_rng(seed)
    n, m_ub, m_eq = int(rng.integers(3, 30)), int(rng.integers(1, 15)), int(rng.integers(0, 6))
    lower = np.where(rng.random(n) < 0.2, -rng.uniform(0, 3, n), 0.0)
    upper = np.where(rng.random(n) < 0.2, np.inf, rng.uniform(1, 5, n))
    x0 = lower + rng.random(n) * (np.minimum(upper, lower + 5) - lower)
    a_ub = rng.uniform(-1, 2, (m_ub, n)) * (rng.random((m_ub, n)) < 0.4)
    a_eq = rng.uniform(-1, 2, (m_eq, n)) * (rng.random((m_eq, n)) < 0.4)
    b_ub = a_ub @ x0 + rng.uniform(0, 1, m_ub)
    b_eq = a_eq @ x0
    c = rng.uniform(-1, 1, n)
    c[np.isinf(upper)] = np.abs(c[np.isinf(upper)])  # bounded: no improving ray
    if sparse:
        a_ub, a_eq = sp.csr_matrix(a_ub), sp.csr_matrix(a_eq)
    return _form(c, a_ub, b_ub, a_eq, b_eq, np.column_stack((lower, upper)))


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("seed", range(12))
def test_random_bounded_lps_match(seed, sparse):
    assert assert_matches_linprog(_random_form(seed, sparse)) is LPStatus.OPTIMAL


def test_csr_blocks_with_explicit_zeros_match():
    form = _random_form(3, sparse=True)
    form.a_ub.data[::3] = 0.0  # stored zeros stay in the CSC HiGHS loads
    assert form.a_ub.nnz > np.count_nonzero(form.a_ub.data)
    assert assert_matches_linprog(form) is LPStatus.OPTIMAL


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
def test_zero_row_forms_match(sparse):
    empty = sp.csr_matrix((0, 3)) if sparse else np.zeros((0, 3))
    form = _form([1.0, -2.0, 0.5], empty, [], empty, [], [(-1.0, 2.0), (0.0, 4.0), (1.0, 3.0)])
    assert assert_matches_linprog(form) is LPStatus.OPTIMAL


def test_infeasible_lp_matches():
    form = _form([1.0, 1.0], np.array([[1.0, 1.0]]), [-1.0], np.zeros((0, 2)), [],
                 [(0.0, np.inf)] * 2)
    assert assert_matches_linprog(form) is LPStatus.INFEASIBLE


def test_unbounded_lp_matches():
    form = _form([-1.0, 0.0], sp.csr_matrix([[1.0, -1.0]]), [1.0], sp.csr_matrix((0, 2)), [],
                 [(0.0, np.inf)] * 2)
    assert assert_matches_linprog(form) is LPStatus.UNBOUNDED


def test_nan_bounds_are_infinite_like_linprog():
    form = _form([1.0, 1.0], np.array([[-1.0, -1.0]]), [-2.0], np.zeros((0, 2)), [],
                 [(0.0, np.nan), (np.nan, 1.5)])
    assert assert_matches_linprog(form) is LPStatus.OPTIMAL


def _system_forms() -> List[MatrixForm]:
    """Every form Systems (2), (3) and (5) hand the backend on the scenario grid."""
    forms: List[MatrixForm] = []

    def record(solve):
        def recorded(form, *args):
            forms.append(form)
            return solve(form, *args)

        return recorded

    with mock.patch.object(
        maxflow_module, "_scipy_solve_form", record(maxflow_module._scipy_solve_form)
    ), mock.patch.object(deadline_module, "solve_form", record(deadline_module.solve_form)):
        for spec in scenario_grid(base_seed=5):
            instance = spec.build()
            optimum = None
            for preemptive in (False, True):
                optimum = minimize_max_weighted_flow(instance, preemptive=preemptive).objective
            deadlines = [job.release_date + optimum / job.weight for job in instance.jobs]
            check_deadline_feasibility(instance, deadlines)
            check_deadline_feasibility(instance, [d * 0.5 for d in deadlines])
    return forms


def test_allocation_systems_on_the_scenario_grid_match():
    forms = _system_forms()
    assert len(forms) > 20
    statuses = {assert_matches_linprog(form) for form in forms}
    assert statuses == {LPStatus.OPTIMAL, LPStatus.INFEASIBLE}


def test_replanning_event_forms_share_one_column_layout():
    """Within one event the refreshed forms reuse the first one's CSC."""
    instance = scenario_grid(base_seed=5)[0].build()
    probe = ReplanProbe()
    forms: List[MatrixForm] = []
    with mock.patch(
        "repro.core.replanning._scipy_solve_form",
        lambda form: forms.append(form) or solve_matrix_form(form),
    ):
        for scale in (4.0, 2.0, 1.5):
            probe.check(instance, [job.release_date + scale * 100.0 for job in instance.jobs])
    assert len(forms) == 3 and probe.event_refresh_reuses == 2
    assert forms[1].stacked_columns() is forms[0].stacked_columns()
    assert forms[2].stacked_columns() is forms[0].stacked_columns()
    for form in forms:
        assert_matches_linprog(form)


# --------------------------------------------------------------------------- #
# Malformed forms and refused models                                           #
# --------------------------------------------------------------------------- #
def _valid_parts(sparse: bool) -> dict:
    block = sp.csr_matrix if sparse else np.array
    return dict(
        c=[1.0, 2.0],
        a_ub=block([[1.0, 1.0]]),
        b_ub=[3.0],
        a_eq=block([[1.0, -1.0]]),
        b_eq=[0.0],
        bounds=[(0.0, 5.0)] * 2,
    )


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize(
    "field, value",
    [
        ("c", [np.nan, 2.0]),
        ("c", [np.inf, 2.0]),
        ("b_ub", [np.inf]),
        ("b_eq", [np.nan]),
        ("b_ub", [3.0, 4.0]),
        ("b_eq", []),
        ("bounds", [(0.0, 5.0)] * 3),
        ("a_ub", [[1.0, np.inf]]),
        ("a_eq", [[np.nan, 1.0]]),
        ("a_ub", [[1.0, 1.0, 1.0]]),
    ],
)
def test_malformed_forms_raise_value_error(field, value, sparse):
    parts = _valid_parts(sparse)
    if field in ("a_ub", "a_eq"):
        value = sp.csr_matrix(value) if sparse else np.array(value)
    parts[field] = value
    with pytest.raises(ValueError):
        solve_matrix_form(_form(**parts))


def test_model_highs_refuses_is_an_error():
    """HiGHS rejects a coefficient above its ``large_matrix_value``.

    linprog reports such a model as infeasible; the backend reports an
    error, so a probe raises instead of treating the question as answered.
    """
    form = _form([1.0, 1.0], np.array([[1e16, 1.0]]), [5.0], np.zeros((0, 2)), [],
                 [(0.0, 1.0)] * 2)
    solution = solve_matrix_form(form)
    assert solution.status is LPStatus.ERROR
    assert solution.iterations == 0


def test_missing_bindings_fail_at_import_naming_the_module():
    code = (
        "import sys; sys.modules['scipy.optimize._highspy._core'] = None\n"
        "import repro.lp.scipy_backend\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert child.returncode != 0
    assert "ImportError" in child.stderr
    assert "scipy.optimize._highspy._core" in child.stderr
