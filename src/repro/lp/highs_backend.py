"""Optional native-HiGHS backend with kept-alive warm models (``highspy``).

Gated exactly like numba in :mod:`repro.simulation._compiled` and mypy in
:mod:`repro.lint.typecheck`: ``highspy`` is **not** a dependency of the
package — it is the ``repro[highs]`` extra in ``setup.cfg`` — and when it is
absent this module degrades explicitly: :data:`HIGHSPY_AVAILABLE` is
``False`` and every entry point raises a :class:`SolverError` naming the
extra (callers never silently downgrade; availability is surfaced by
``repro-sched info --lp-backends``).

What the extra buys over the ``scipy`` backend (which also solves with
HiGHS, scipy's bundled copy, with one fresh solver per LP) is the
**kept-alive model**: :class:`HighsWarmModel` lowers a :class:`MatrixForm`
into a ``highspy.Highs`` instance once and then re-solves after in-place
bound/right-hand-side/coefficient updates, letting HiGHS warm-start its dual
simplex from the previous basis — the same re-solve discipline
:func:`repro.lp.revised_simplex.solve_matrix_form_revised` implements for
the in-house backend.

Everything in this module is a thin translation layer; it is exercised by
tier-2 tests that ``skipif`` on :data:`HIGHSPY_AVAILABLE`, mirroring the
numba twins.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..exceptions import SolverError
from ..obs.metrics import get_recorder
from .model import LinearProgram
from .solution import LPSolution, LPStatus
from .standard_form import MatrixForm, solve_constant_form, to_matrix_form

__all__ = [
    "HIGHSPY_AVAILABLE",
    "HighsWarmModel",
    "solve_with_highspy",
    "solve_matrix_form",
]

try:  # pragma: no cover - exercised only when the extra is installed
    import highspy  # type: ignore

    HIGHSPY_AVAILABLE = True
except Exception:  # pragma: no cover - ImportError and broken installs alike
    highspy = None  # type: ignore
    HIGHSPY_AVAILABLE = False

_BACKEND = "highspy"


def _require_highspy() -> None:
    if not HIGHSPY_AVAILABLE:
        raise SolverError(
            "the 'highspy' LP backend requires the repro[highs] extra "
            "(pip install repro[highs]); install it or pick another backend "
            "(see repro-sched info --lp-backends)"
        )


def _combined_rows(form: MatrixForm):  # pragma: no cover - needs highspy
    """CSR of ``[A_ub; A_eq]`` plus row lower/upper bound arrays."""
    blocks = []
    num_ub = form.num_inequalities
    num_eq = form.num_equalities
    if num_ub:
        blocks.append(form.a_ub if sp.issparse(form.a_ub) else sp.csr_matrix(form.a_ub))
    if num_eq:
        blocks.append(form.a_eq if sp.issparse(form.a_eq) else sp.csr_matrix(form.a_eq))
    rows = sp.vstack(blocks, format="csr") if blocks else sp.csr_matrix(
        (0, form.num_variables)
    )
    row_lower = np.concatenate(
        [np.full(num_ub, -np.inf), np.asarray(form.b_eq, dtype=float)]
    )
    row_upper = np.concatenate(
        [np.asarray(form.b_ub, dtype=float), np.asarray(form.b_eq, dtype=float)]
    )
    return rows, row_lower, row_upper


class HighsWarmModel:  # pragma: no cover - every method needs highspy
    """A kept-alive ``highspy.Highs`` model for warm-started re-solves.

    Built once from a lowered :class:`MatrixForm`; subsequent probes call
    :meth:`update_bounds` / :meth:`update_rows` and then :meth:`solve` — the
    solver keeps its factorised basis between calls, so a bounds-only change
    costs a handful of dual-simplex iterations.
    """

    def __init__(self, form: MatrixForm) -> None:
        _require_highspy()
        self._form = form
        self._num_variables = form.num_variables
        model = highspy.Highs()
        model.setOptionValue("output_flag", False)
        model.setOptionValue("presolve", "off")  # keep the basis reusable
        rows, row_lower, row_upper = _combined_rows(form)
        bounds = np.asarray(form.bounds, dtype=float)
        lp = highspy.HighsLp()
        lp.num_col_ = form.num_variables
        lp.num_row_ = rows.shape[0]
        lp.col_cost_ = np.asarray(form.c, dtype=float)
        lp.col_lower_ = bounds[:, 0]
        lp.col_upper_ = bounds[:, 1]
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        lp.a_matrix_.format_ = highspy.MatrixFormat.kRowwise
        lp.a_matrix_.start_ = rows.indptr
        lp.a_matrix_.index_ = rows.indices
        lp.a_matrix_.value_ = rows.data
        model.passModel(lp)
        self._model = model
        self.solves = 0

    def update_bounds(self, bounds: np.ndarray) -> None:
        """Replace every column's bounds (the FeasibilityProbe refresh)."""
        bounds = np.asarray(bounds, dtype=float)
        indices = np.arange(self._num_variables, dtype=np.int32)
        self._model.changeColsBounds(
            self._num_variables, indices, bounds[:, 0], bounds[:, 1]
        )

    def update_rows(self, form: MatrixForm) -> None:
        """Re-lower refreshed constraint rows (the ReplanProbe refresh)."""
        rows, row_lower, row_upper = _combined_rows(form)
        num_rows = rows.shape[0]
        indices = np.arange(num_rows, dtype=np.int32)
        self._model.changeRowsBounds(num_rows, indices, row_lower, row_upper)
        coo = rows.tocoo()
        for r, c, v in zip(coo.row, coo.col, coo.data):
            self._model.changeCoeff(int(r), int(c), float(v))

    def solve(self) -> LPSolution:
        """Re-solve from the kept-alive state and map to :class:`LPSolution`."""
        self._model.run()
        self.solves += 1
        recorder = get_recorder()
        status = self._model.getModelStatus()
        if status == highspy.HighsModelStatus.kOptimal:
            lp_status = LPStatus.OPTIMAL
        elif status == highspy.HighsModelStatus.kInfeasible:
            lp_status = LPStatus.INFEASIBLE
        elif status == highspy.HighsModelStatus.kUnbounded:
            lp_status = LPStatus.UNBOUNDED
        else:
            lp_status = LPStatus.ERROR
        info = self._model.getInfo()
        iterations = int(info.simplex_iteration_count)
        if recorder.enabled:
            recorder.count("lp.solves")
            recorder.observe("lp.iterations", float(iterations))
            if self.solves > 1:
                recorder.count("lp.warm_start_hits")
        if lp_status is not LPStatus.OPTIMAL:
            return LPSolution(
                status=lp_status, backend=_BACKEND, iterations=iterations
            )
        values = self._model.getSolution().col_value
        minimised = float(
            np.asarray(self._form.c, dtype=float) @ np.asarray(values)[: self._num_variables]
        )
        return LPSolution(
            status=LPStatus.OPTIMAL,
            objective_value=self._form.restore_objective(minimised),
            values={j: float(values[j]) for j in range(self._num_variables)},
            backend=_BACKEND,
            iterations=iterations,
        )


def solve_matrix_form(form: MatrixForm, **_: object) -> LPSolution:
    """One-shot native-HiGHS solve of a lowered form (no warm state kept)."""
    _require_highspy()
    if form.num_variables == 0:  # pragma: no cover - needs highspy
        return solve_constant_form(form, _BACKEND)
    return HighsWarmModel(form).solve()  # pragma: no cover - needs highspy


def solve_with_highspy(model: LinearProgram, **kwargs: object) -> LPSolution:
    """Solve a :class:`LinearProgram` with native HiGHS (``repro[highs]``)."""
    _require_highspy()
    return solve_matrix_form(  # pragma: no cover - needs highspy
        to_matrix_form(model, sparse=True), **kwargs
    )
