"""HiGHS backend for the LP modelling layer, through scipy's bundled bindings.

This is the production backend.  It hands the matrix form produced by
:mod:`repro.lp.standard_form` (or assembled by
:mod:`repro.core.formulations`) straight to the HiGHS bindings scipy ships as
``scipy.optimize._highspy._core``: the model and options are exactly the ones
``scipy.optimize.linprog(method="highs")`` passes HiGHS, so the solutions are
bit for bit the same (``tests/lp/test_scipy_backend_oracle.py`` pins this),
without linprog's per-call Python wrapper.  What that wrapper did, and where
it went:

* the column-major ``[A_ub; A_eq]`` HiGHS loads is built once per constraint
  matrix (:meth:`MatrixForm.stacked_columns`) instead of by a ``vstack`` and
  a CSC conversion per call, so the bisection of a replanning event, which
  only moves right-hand sides, converts its matrix once;
* its input checks are kept, vectorised: a non-finite ``c``, ``A`` or ``b``
  and mismatched shapes raise :class:`ValueError`, a NaN bound is infinite;
* its post-solve check is ported: an "optimal" answer that is NaN or
  violates a bound or a row by more than ``sqrt(1e-9) * 10`` is an error.

Every solve runs on a fresh ``_Highs`` object.  A kept-alive model would
warm-start from the previous basis and can return a different vertex of a
degenerate LP (the native ``highspy`` backend does that, on purpose).

Two entry points are exposed:

* :func:`solve_with_scipy` — lower a :class:`~repro.lp.model.LinearProgram`
  and solve it (what :meth:`LinearProgram.solve` dispatches to);
* :func:`solve_matrix_form` — solve an already-lowered
  :class:`~repro.lp.standard_form.MatrixForm`.  This is the re-solve path of
  the feasibility probes of :mod:`repro.core.maxflow` and
  :mod:`repro.core.replanning`, which keep one constraint matrix and swap
  bounds or right-hand sides between solves.
"""

from __future__ import annotations

import numpy as np
import scipy

from ..obs.metrics import get_recorder
from .model import LinearProgram
from .solution import LPSolution, LPStatus
from .standard_form import MatrixForm, solve_constant_form, to_matrix_form

try:
    from scipy.optimize._highspy import _core as _highs

    _MODEL_STATUS = _highs.HighsModelStatus
    _COLWISE = _highs.MatrixFormat.kColwise
    _HIGHS_ERROR = _highs.HighsStatus.kError
    _HIGHS_INF = _highs.kHighsInf
    _DUAL_SIMPLEX = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    _NO_DEBUG = _highs.HighsDebugLevel.kHighsDebugLevelNone
except (ImportError, AttributeError) as error:  # pragma: no cover - depends on scipy
    raise ImportError(
        "repro.lp.scipy_backend calls scipy.optimize._highspy._core, the HiGHS "
        f"bindings bundled with scipy >= 1.15; scipy {scipy.__version__} does not "
        f"provide what it needs ({error})"
    ) from error

__all__ = ["solve_with_scipy", "solve_matrix_form"]

_BACKEND = "scipy-highs"

#: HiGHS model status → ours.  Anything else, ``kUnboundedOrInfeasible`` and
#: a model HiGHS refuses to load included, is an error.
_STATUS = {
    _MODEL_STATUS.kOptimal: LPStatus.OPTIMAL,
    _MODEL_STATUS.kInfeasible: LPStatus.INFEASIBLE,
    _MODEL_STATUS.kUnbounded: LPStatus.UNBOUNDED,
}

#: linprog's post-solve feasibility tolerance: ``sqrt(tol) * 10`` at its
#: default ``tol`` of ``1e-9``.
_CHECK_TOL = np.sqrt(1e-9) * 10


def _linprog_options() -> "_highs.HighsOptions":
    """The options ``linprog(method="highs")`` sets; HiGHS defaults otherwise."""
    options = _highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = _DUAL_SIMPLEX
    options.highs_debug_level = _NO_DEBUG
    options.output_flag = False
    options.log_to_console = False
    return options


#: Copied into every fresh solver by ``passOptions``; never mutated.
_OPTIONS = _linprog_options()


def _checked_vectors(form: MatrixForm):
    """``(c, b_ub, b_eq, lower, upper)`` after linprog's input checks."""
    n = form.num_variables
    c = np.asarray(form.c, dtype=float)
    b_ub = np.asarray(form.b_ub, dtype=float)
    b_eq = np.asarray(form.b_eq, dtype=float)
    bounds = np.asarray(form.bounds, dtype=float)
    if c.shape != (n,) or form.a_ub.shape[1] != n or form.a_eq.shape[1] != n:
        raise ValueError(
            f"the cost vector {c.shape} and the constraint blocks {form.a_ub.shape}, "
            f"{form.a_eq.shape} must all have {n} columns"
        )
    if b_ub.shape != (form.num_inequalities,) or b_eq.shape != (form.num_equalities,):
        raise ValueError(
            f"right-hand sides of shapes {b_ub.shape} and {b_eq.shape} do not match "
            f"blocks of {form.num_inequalities} and {form.num_equalities} rows"
        )
    if bounds.shape != (n, 2):
        raise ValueError(f"expected a ({n}, 2) bounds array, got {bounds.shape}")
    if not (np.isfinite(c).all() and np.isfinite(b_ub).all() and np.isfinite(b_eq).all()):
        raise ValueError("the cost vector and right-hand sides must be finite")
    lower = np.where(np.isnan(bounds[:, 0]), -np.inf, bounds[:, 0])
    upper = np.where(np.isnan(bounds[:, 1]), np.inf, bounds[:, 1])
    return c, b_ub, b_eq, lower, upper


def _satisfies_constraints(x, fun, slack, num_inequalities, lower, upper) -> bool:
    """linprog's ``_check_result``: no NaN, every bound and row within tolerance."""
    if np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any():
        return False
    return not (
        (x < lower - _CHECK_TOL).any()
        or (x > upper + _CHECK_TOL).any()
        or (slack[:num_inequalities] < -_CHECK_TOL).any()
        or (np.abs(slack[num_inequalities:]) > _CHECK_TOL).any()
    )


def solve_matrix_form(form: MatrixForm) -> LPSolution:
    """Solve a lowered :class:`MatrixForm` with HiGHS, as ``linprog`` would.

    ``form`` may hold dense or CSR constraint blocks.  Raises
    :class:`ValueError` on a malformed form (see the module docstring).
    """
    if form.num_variables == 0:
        # HiGHS needs a column; a variable-free program is feasible iff its
        # constant rows hold.
        return solve_constant_form(form, _BACKEND)

    c, b_ub, b_eq, lower, upper = _checked_vectors(form)
    columns = form.stacked_columns()
    if not np.isfinite(columns.data).all():
        raise ValueError("the constraint blocks must be finite")
    rhs = np.concatenate((b_ub, b_eq))
    m, n = columns.shape

    lp = _highs.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = m
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = _COLWISE
    lp.col_cost_ = c
    # HiGHS reads bounds at or beyond kHighsInf as infinite.
    lp.col_lower_ = np.clip(lower, -_HIGHS_INF, _HIGHS_INF)
    lp.col_upper_ = np.clip(upper, -_HIGHS_INF, _HIGHS_INF)
    lp.row_lower_ = np.concatenate((np.full(b_ub.shape, -_HIGHS_INF), b_eq))
    lp.row_upper_ = rhs
    # Integer vectors load element by element; from a list that is about
    # twice as fast as from an int32 array (float arrays load as buffers).
    lp.a_matrix_.start_ = columns.indptr.tolist()
    lp.a_matrix_.index_ = columns.indices.tolist()
    lp.a_matrix_.value_ = columns.data

    highs = _highs._Highs()
    highs.passOptions(_OPTIONS)
    if highs.passModel(lp) == _HIGHS_ERROR:
        model_status = _MODEL_STATUS.kModelError
    else:
        highs.run()
        model_status = highs.getModelStatus()
    info = highs.getInfo()
    # The counts are -1 when HiGHS refused the model and never ran.
    iterations = max(0, int(info.simplex_iteration_count or info.ipm_iteration_count))
    status = _STATUS.get(model_status, LPStatus.ERROR)
    message = highs.modelStatusToString(model_status)

    values = {}
    objective = None
    if status is LPStatus.OPTIMAL:
        solution = highs.getSolution()
        x = np.array(solution.col_value)
        fun = info.objective_function_value
        slack = rhs - np.array(solution.row_value)
        if _satisfies_constraints(x, fun, slack, b_ub.shape[0], lower, upper):
            values = dict(enumerate(x.tolist()))
            objective = form.restore_objective(float(fun))
        else:
            status = LPStatus.ERROR
            message = (
                "HiGHS reported an optimum that violates the constraints by more "
                f"than {_CHECK_TOL:.2E}"
            )

    recorder = get_recorder()
    if recorder.enabled:
        recorder.count("lp.solves")
        recorder.observe("lp.iterations", float(iterations))

    return LPSolution(
        status=status,
        objective_value=objective,
        values=values,
        backend=_BACKEND,
        iterations=iterations,
        message=message,
    )


def solve_with_scipy(model: LinearProgram) -> LPSolution:
    """Lower ``model`` to a sparse :class:`MatrixForm` and solve it with HiGHS."""
    # Zero-variable models are legal and handled by solve_matrix_form via
    # solve_constant_form.
    return solve_matrix_form(to_matrix_form(model, sparse=True))
