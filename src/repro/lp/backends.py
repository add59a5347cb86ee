"""LP backend registry: canonical names, availability and warm-start support.

ISSUE 9 grew the backend roster from two (scipy / in-house tableau) to four;
this module is the single place that knows what exists, which aliases map to
which solver and what is importable in the current environment — mirroring
the availability-detection pattern of :mod:`repro.simulation._compiled`
(numba) and :mod:`repro.lint.typecheck` (mypy).  ``repro-sched info
--lp-backends`` renders :func:`backend_inventory`; the probe constructors in
:mod:`repro.core` validate their ``backend`` argument with
:func:`canonical_backend` / :data:`BACKEND_LABELS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .solution import LPSolution
from .standard_form import MatrixForm

__all__ = [
    "BACKEND_LABELS",
    "BackendInfo",
    "backend_inventory",
    "canonical_backend",
    "solve_form",
]

#: Requested-name → canonical solution-backend label.  The label is what a
#: solve through that backend stamps on :class:`repro.lp.LPSolution.backend`
#: (and what records produced without reaching a solver must match).
BACKEND_LABELS = {
    "scipy": "scipy-highs",
    "highs": "scipy-highs",
    "scipy-highs": "scipy-highs",
    "simplex": "simplex-revised",
    "pure-python": "simplex-revised",
    "revised": "simplex-revised",
    "simplex-revised": "simplex-revised",
    "tableau": "simplex",
    "simplex-tableau": "simplex",
    "highspy": "highspy",
}


def canonical_backend(name: str) -> str:
    """Resolve a requested backend name/alias to its canonical label.

    Raises ``ValueError`` for unknown names, listing what is accepted.
    """
    try:
        return BACKEND_LABELS[name]
    except KeyError:
        raise ValueError(
            f"unknown LP backend {name!r}; accepted: "
            + ", ".join(sorted(BACKEND_LABELS))
        ) from None


def solve_form(form: MatrixForm, backend: str = "scipy") -> LPSolution:
    """Cold one-shot solve of a matrix form with any accepted backend name."""
    from . import _tableau_legacy, highs_backend, revised_simplex, scipy_backend

    return {
        "scipy-highs": scipy_backend,
        "simplex-revised": revised_simplex,
        "simplex": _tableau_legacy,
        "highspy": highs_backend,
    }[canonical_backend(backend)].solve_matrix_form(form)


@dataclass(frozen=True)
class BackendInfo:
    """One row of the ``info --lp-backends`` inventory."""

    label: str
    aliases: Tuple[str, ...]
    available: bool
    warm_start: bool
    description: str


def backend_inventory() -> List[BackendInfo]:
    """Every known backend with its availability in this environment."""
    from .highs_backend import HIGHSPY_AVAILABLE

    return [
        BackendInfo(
            label="scipy-highs",
            aliases=("scipy", "highs"),
            available=True,
            warm_start=False,
            description="scipy's bundled HiGHS, one fresh solver per LP (production default)",
        ),
        BackendInfo(
            label="simplex-revised",
            aliases=("simplex", "revised", "pure-python"),
            available=True,
            warm_start=True,
            description="in-house sparse revised simplex (warm dual re-solves)",
        ),
        BackendInfo(
            label="simplex",
            aliases=("tableau",),
            available=True,
            warm_start=False,
            description="frozen dense tableau simplex (byte-identity reference)",
        ),
        BackendInfo(
            label="highspy",
            aliases=("highspy",),
            available=HIGHSPY_AVAILABLE,
            warm_start=True,
            description="native HiGHS with kept-alive warm models (repro[highs] extra)",
        ),
    ]
