"""Content-addressed digests for campaign cells.

Every cell of a campaign — one (workload, policy) measurement — is identified
by a deterministic digest of everything that determines its value:

* the **workload key** (scenario name + seed for lazy scenario sweeps, or a
  digest of the full instance payload for concrete instances),
* the **policy name** and its **parameters** (the built-in campaign path uses
  no parameters; custom callers may key variants),
* the **code epoch** — a manually bumped marker of the engine/policy
  semantics.  Two runs of the same cell under the same epoch are guaranteed to
  produce the same record (the engine is deterministic), which is what makes
  ``INSERT OR IGNORE`` on the digest a *resume* rather than a collision.

Digests are hex SHA-256 over a canonical JSON payload (sorted keys, no
whitespace), so they are stable across Python versions and platforms.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Optional, Protocol

__all__ = ["CODE_EPOCH", "canonical_digest", "instance_digest", "record_digest"]


class _DigestableInstance(Protocol):
    """Anything with the :meth:`~repro.core.instance.Instance.to_dict` contract."""

    def to_dict(self) -> Dict[str, Any]: ...

#: Epoch of the engine/policy semantics baked into every record digest.
#: Bump whenever a change alters the metrics a cell produces (engine event
#: ordering, policy behaviour, normalisation); stored cells from older epochs
#: then stop matching and are transparently recomputed.  The manifest of
#: modules whose edits require a bump is declared in
#: :data:`repro.lint.epoch.SEMANTIC_MANIFEST` and enforced, git-diff-aware,
#: by the ``epoch-guard`` lint rule (see ROADMAP.md, "Project invariants").
#: 2005.7 is a conservative bump: the allocation LPs are now assembled straight
#: into CSR, bit-identical to the former LP-DSL lowering, so no metric moves.
CODE_EPOCH = "2005.7"


def canonical_digest(payload: Mapping[str, Any]) -> str:
    """Hex SHA-256 of the canonical JSON encoding of ``payload``.

    The encoding sorts keys and forbids NaN/Infinity, so logically equal
    payloads digest identically regardless of construction order.
    """
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def instance_digest(instance: _DigestableInstance) -> str:
    """Digest of a concrete instance's full content (jobs, machines, costs).

    ``instance`` is anything with the :meth:`~repro.core.instance.Instance.to_dict`
    contract; infinite costs are serialised as ``None`` there, keeping the
    payload JSON-canonical.
    """
    return canonical_digest(instance.to_dict())


def record_digest(
    workload_key: str,
    policy: str,
    *,
    params: Optional[Mapping[str, Any]] = None,
    code_epoch: str = CODE_EPOCH,
) -> str:
    """Digest identifying one campaign cell.

    Parameters
    ----------
    workload_key:
        Stable identity of the workload — ``WorkloadSpec.content_key()`` /
        ``ScenarioSpec.content_key()`` for campaign workloads.
    policy:
        Registry name of the policy (``"offline-optimal"`` for the optimum).
    params:
        Policy parameters, when a caller keys variants of the same name
        (campaigns resolve bare names, i.e. ``{}``).
    code_epoch:
        See :data:`CODE_EPOCH`.
    """
    payload: Dict[str, Any] = {
        "workload": workload_key,
        "policy": policy,
        "params": dict(params) if params else {},
        "epoch": code_epoch,
    }
    return canonical_digest(payload)
