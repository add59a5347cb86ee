"""The matrix form every LP backend solves, and the lowering of DSL models to it.

:class:`MatrixForm` is the backends' common input: a minimisation problem
with

* an inequality block ``A_ub @ x <= b_ub`` (all ``<=`` and negated ``>=`` rows),
* an equality block ``A_eq @ x == b_eq``,
* per-variable bounds.

It has two producers.  The scheduling modules' allocation LPs (Systems
(2)/(3)/(5), LP (1)) are assembled straight into it by
:func:`repro.core.formulations.build_allocation_model`, with no symbolic
model in between.  Programs stated in the LP DSL (:class:`LinearProgram`)
are lowered to it by :func:`to_matrix_form`.

The constraint blocks come in two flavours, selected for lowered models by
the ``sparse`` flag of :func:`to_matrix_form`:

* **dense** (`numpy.ndarray`) — the historical representation, still required
  by the frozen reference tableau simplex
  (:mod:`repro.lp._tableau_legacy`) and convenient for small
  cross-validation LPs;
* **sparse** (`scipy.sparse.csr_matrix`) — the production representation.  The
  allocation LPs have a few non-zeros per row but thousands of columns, so
  dense blocks waste O(rows x cols) work and memory where the sparse path
  is O(nnz).  Both production solvers consume CSR blocks directly: HiGHS
  via :mod:`repro.lp.scipy_backend` (HiGHS methods only — legacy scipy
  methods densify with a one-time warning) and the in-house revised simplex
  of :mod:`repro.lp.revised_simplex`, which works on the CSR/CSC blocks
  without ever materialising a dense tableau.  :meth:`MatrixForm.densified`
  converts back for the frozen tableau reference.

Lowering is vectorised in both flavours: coefficients are collected as COO
triplets in flat Python lists and scattered into the target matrix in one
NumPy/SciPy call, instead of materialising one dense row per constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import List, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .constraint import Constraint
from .model import LinearProgram
from .solution import LPSolution, LPStatus

__all__ = ["MatrixForm", "to_matrix_form", "solve_constant_form"]

#: A constraint block: dense 2-D array or CSR matrix.
ConstraintBlock = Union[np.ndarray, sp.csr_matrix]


@dataclass
class MatrixForm:
    """Matrix representation of a linear program (minimisation form).

    Attributes
    ----------
    c:
        Objective coefficient vector (already negated for maximisation models;
        always a dense 1-D array).
    objective_constant:
        Constant term of the objective, to be added back to the backend's
        optimal value.
    objective_sign:
        ``+1`` when the original model minimises, ``-1`` when it maximises
        (the matrices always describe a minimisation).
    a_ub, b_ub:
        Inequality block, possibly empty.  ``a_ub`` is dense or CSR depending
        on the ``sparse`` flag given to :func:`to_matrix_form`.
    a_eq, b_eq:
        Equality block, possibly empty, same flavour as ``a_ub``.
    bounds:
        ``(num_variables, 2)`` float array of ``(lower, upper)`` pairs, with
        ``±inf`` for infinite bounds (consumed as-is by
        :func:`scipy.optimize.linprog`).
    """

    c: np.ndarray
    objective_constant: float
    objective_sign: float
    a_ub: ConstraintBlock
    b_ub: np.ndarray
    a_eq: ConstraintBlock
    b_eq: np.ndarray
    bounds: np.ndarray

    @property
    def num_variables(self) -> int:
        """Number of decision variables (columns)."""
        return self.c.shape[0]

    @property
    def num_inequalities(self) -> int:
        """Number of rows in the inequality block."""
        return self.a_ub.shape[0]

    @property
    def num_equalities(self) -> int:
        """Number of rows in the equality block."""
        return self.a_eq.shape[0]

    @property
    def is_sparse(self) -> bool:
        """``True`` when the constraint blocks are CSR matrices."""
        return sp.issparse(self.a_ub) or sp.issparse(self.a_eq)

    def densified(self) -> "MatrixForm":
        """Return an equivalent form with dense constraint blocks.

        Only the frozen tableau reference (:mod:`repro.lp._tableau_legacy`)
        and scipy's legacy non-HiGHS methods need this; the production
        solvers (HiGHS, the in-house revised simplex) consume the CSR blocks
        directly.  Returns ``self`` when the form is already dense; the
        vectors and the bounds list are shared either way (they are never
        mutated by the backends).
        """
        if not self.is_sparse:
            return self
        return replace(
            self,
            a_ub=self.a_ub.toarray() if sp.issparse(self.a_ub) else self.a_ub,
            a_eq=self.a_eq.toarray() if sp.issparse(self.a_eq) else self.a_eq,
        )

    def with_bounds(self, bounds: np.ndarray) -> "MatrixForm":
        """Return a copy of the form with replaced variable bounds.

        The constraint matrices are shared with ``self``, which makes this
        the cheap re-solve entry point used by the feasibility probes of
        :mod:`repro.core.maxflow`: only the bounds differ between probes.
        """
        bounds = np.array(bounds, dtype=float)  # np.array (not asarray): always copy
        if bounds.shape != (self.num_variables, 2):
            raise ValueError(
                f"expected a ({self.num_variables}, 2) bounds array, got {bounds.shape}"
            )
        return replace(self, bounds=bounds)

    def restore_objective(self, minimised_value: float) -> float:
        """Map the backend's minimised value back to the model's objective."""
        return self.objective_sign * minimised_value + self.objective_constant


def solve_constant_form(form: MatrixForm, backend: str, tol: float = 1e-9) -> LPSolution:
    """Decide a zero-variable form: feasible iff the constant rows hold.

    Both backends' form-level entry points delegate degenerate variable-free
    programs here instead of handing an empty cost vector to their solvers.
    """
    violated = bool((form.b_ub < -tol).any() or (abs(form.b_eq) > tol).any())
    if violated:
        return LPSolution(
            status=LPStatus.INFEASIBLE,
            backend=backend,
            message="constant constraints are violated",
        )
    return LPSolution(
        status=LPStatus.OPTIMAL,
        objective_value=form.objective_constant,
        values={},
        backend=backend,
    )


def _lower_block(
    constraints: Sequence[Constraint],
    flips: Sequence[float],
    num_cols: int,
    sparse: bool,
) -> Tuple[ConstraintBlock, np.ndarray]:
    """Lower one constraint block to ``(matrix, rhs)``.

    ``flips`` holds ``+1.0``/``-1.0`` per constraint (``>=`` rows are negated
    into the ``<=`` block).  The COO triplets are extracted with vectorised
    NumPy primitives so that the per-row Python overhead is O(rows), not
    O(nnz); materialisation is then a single CSR construction (O(nnz)) or a
    single dense fancy-index scatter (O(rows x cols) memory traffic).
    """
    num_rows = len(constraints)
    flip_arr = np.asarray(flips, dtype=float)
    rhs = np.fromiter(
        (con.expression.constant for con in constraints), dtype=float, count=num_rows
    )
    rhs = -flip_arr * rhs if num_rows else np.zeros(0)
    counts = np.fromiter(
        (len(con.expression.coefficients) for con in constraints),
        dtype=np.intp,
        count=num_rows,
    )
    nnz = int(counts.sum()) if num_rows else 0
    rows = np.repeat(np.arange(num_rows), counts)
    cols = np.fromiter(
        chain.from_iterable(con.expression.coefficients for con in constraints),
        dtype=np.intp,
        count=nnz,
    )
    data = np.fromiter(
        chain.from_iterable(con.expression.coefficients.values() for con in constraints),
        dtype=float,
        count=nnz,
    )
    data *= np.repeat(flip_arr, counts)

    if sparse:
        matrix: ConstraintBlock = sp.csr_matrix(
            (data, (rows, cols)), shape=(num_rows, num_cols)
        )
    else:
        matrix = np.zeros((num_rows, num_cols))
        if nnz:
            # Within one constraint the variable indices are dict keys
            # (unique), so plain fancy-index scatter is exact.
            matrix[rows, cols] = data
    return matrix, rhs


def to_matrix_form(model: LinearProgram, *, sparse: bool = False) -> MatrixForm:
    """Lower ``model`` to its :class:`MatrixForm`.

    Parameters
    ----------
    model:
        The linear program to lower.
    sparse:
        When ``True`` the constraint blocks are built as CSR matrices in
        O(nnz) time; when ``False`` (default) they are dense arrays.
    """
    n = model.num_variables

    # Objective ----------------------------------------------------------
    sign = 1.0 if model.sense == "min" else -1.0
    c = np.zeros(n)
    for idx, coeff in model.objective.terms():
        c[idx] = sign * coeff
    objective_constant = model.objective.constant

    # Constraint blocks -----------------------------------------------------
    ub_cons: List[Constraint] = []
    ub_flips: List[float] = []
    eq_cons: List[Constraint] = []

    for con in model.constraints:
        if con.sense == "==":
            eq_cons.append(con)
        else:
            ub_cons.append(con)
            ub_flips.append(1.0 if con.sense == "<=" else -1.0)  # >= rows are negated

    a_ub, b_ub = _lower_block(ub_cons, ub_flips, n, sparse)
    a_eq, b_eq = _lower_block(eq_cons, [1.0] * len(eq_cons), n, sparse)

    # Bounds ----------------------------------------------------------------
    # Cached on the model (variables are append-only); shared by reference —
    # mutate only through MatrixForm.with_bounds, which copies.
    bounds = model.bounds_array()

    return MatrixForm(
        c=c,
        objective_constant=objective_constant,
        objective_sign=sign,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
    )
