"""Solution and status objects returned by the LP backends."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..exceptions import InfeasibleProblemError, SolverError, UnboundedProblemError
from .expression import LinearExpression, Variable

__all__ = ["LPStatus", "LPSolution"]


class LPStatus(enum.Enum):
    """Termination status of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def is_optimal(self) -> bool:
        """Return ``True`` when the solve produced a proven optimum."""
        return self is LPStatus.OPTIMAL


@dataclass
class LPSolution:
    """Result of solving a :class:`~repro.lp.model.LinearProgram`.

    Attributes
    ----------
    status:
        Termination status.
    objective_value:
        Optimal objective value (``None`` unless ``status`` is optimal).
    values:
        Mapping from variable index to optimal value (empty unless optimal).
    backend:
        Name of the backend that produced the solution (``"scipy-highs"`` or
        ``"simplex"``), recorded for diagnostics and the backend-ablation
        bench.
    iterations:
        Iteration count reported by the backend, when available.
    message:
        Free-form backend message (useful when ``status`` is ``ERROR``).
    """

    status: LPStatus
    objective_value: Optional[float] = None
    values: Dict[int, float] = field(default_factory=dict)
    backend: str = ""
    iterations: Optional[int] = None
    message: str = ""

    # -- convenience accessors ----------------------------------------------
    def __getitem__(self, var: Variable) -> float:
        """Return the optimal value of ``var`` (0.0 when absent)."""
        return self.values.get(var.index, 0.0)

    def value(self, item) -> float:
        """Return the value of a variable or evaluate an expression.

        Accepts a :class:`Variable`, a :class:`LinearExpression` or a plain
        number; numbers are returned unchanged so callers can treat constants
        and expressions uniformly.
        """
        if isinstance(item, Variable):
            return self.values.get(item.index, 0.0)
        if isinstance(item, LinearExpression):
            return item.evaluate(self.values)
        if isinstance(item, (int, float)):
            return float(item)
        raise TypeError(f"cannot evaluate object of type {type(item).__name__}")

    @property
    def is_optimal(self) -> bool:
        """Return ``True`` when the solve produced a proven optimum."""
        return self.status.is_optimal

    def raise_unless_optimal(self, label: str) -> "LPSolution":
        """Return ``self`` when optimal, else raise the status's typed exception."""
        label = label or "<unnamed>"
        if self.status is LPStatus.INFEASIBLE:
            raise InfeasibleProblemError(f"LP {label} is infeasible")
        if self.status is LPStatus.UNBOUNDED:
            raise UnboundedProblemError(f"LP {label} is unbounded")
        if self.status is not LPStatus.OPTIMAL:
            raise SolverError(f"LP {label} failed: {self.message or 'unknown backend error'}")
        return self

    @property
    def is_infeasible(self) -> bool:
        """Return ``True`` when the problem was proven infeasible."""
        return self.status is LPStatus.INFEASIBLE

    def as_dense(self, num_variables: int) -> list:
        """Return the solution as a dense list of length ``num_variables``."""
        return [self.values.get(i, 0.0) for i in range(num_variables)]

    def restricted(self, predicate) -> Mapping[int, float]:
        """Return the sub-mapping of values whose index satisfies ``predicate``."""
        return {idx: val for idx, val in self.values.items() if predicate(idx)}
