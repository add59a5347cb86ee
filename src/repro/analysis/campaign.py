"""Experiment campaigns: (workload, policy) cells normalised by the optimum.

The benches of this repository each reproduce one paper artefact; a *campaign*
is the general-purpose version a downstream user needs: sweep a family of
workloads, run the off-line optimum and a set of policies on each, collect
normalised metrics and render a report.

Policies resolve by name through :mod:`repro.heuristics.registry` and the
on-line ones run on the array-backed :mod:`repro.simulation` kernel.  A
sweep is enumerated as cheap :class:`WorkloadSpec` descriptors (a scenario
name and seed, or a concrete instance), materialised where the cell runs,
and cut into per-(workload, policy-chunk) items (``chunk_size=1`` gives
per-policy parallelism).  Every item of a workload reuses one
:class:`~repro.core.maxflow.FeasibilityProbe` and one off-line optimum
through a per-process LRU context cache.

Dispatch, resume, store writes, the run journal and the metrics fold belong
to the cell executor (:mod:`repro.analysis.executor`), which this module
feeds as a cell factory; its group dependency ships each workload's optimum
into the workload's later items, so the LP optimum is solved **exactly once
per workload at any worker count**.

:func:`run_policy_campaign` and :func:`run_scenario_campaign` collect a
whole campaign (sequential and parallel runs produce identical records in
identical order); :func:`stream_campaign` exposes the incremental record
stream, and :class:`CampaignStats` reports the throughput trajectory
(scenarios/sec, peak in-flight items, probe constructions, off-line solves,
resumed records) recorded by ``benchmarks/run_quick_bench.py``.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.instance import Instance
from ..core.maxflow import FeasibilityProbe
from ..exceptions import WorkloadError
from ..obs.journal import RunJournal
from ..obs.metrics import get_recorder
from ..heuristics import PolicyOutcome, make_policy
from ..heuristics.registry import (
    OFFLINE_OPTIMAL,
    SchedulingPolicy,
    policy_spec,
    resolve_policy_variant,
)
from ..simulation import SimulationKernel
from ..workload.scenarios import ScenarioSpec, make_scenario, scenario_grid
from .executor import Cell, CellExecutor, CellFactory, CellPlan, Outcome
from .stats import geometric_mean, summarize
from .tables import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only (runtime import would cycle)
    from ..store import ExperimentStore, StoredRecord

__all__ = [
    "CampaignRecord",
    "CampaignResult",
    "CampaignStats",
    "WorkloadSpec",
    "run_policy_campaign",
    "run_scenario_campaign",
    "stream_campaign",
]


@dataclass(frozen=True)
class CampaignRecord:
    """One (workload, policy) measurement.

    Attributes
    ----------
    workload:
        Label of the workload (e.g. ``"seed 3"`` or a scenario name).
    policy:
        Policy name (``"offline-optimal"`` for the LP optimum itself).
    max_weighted_flow, max_stretch, makespan:
        Raw metric values of the executed (or optimal) schedule.
    normalised:
        ``max_weighted_flow`` divided by the off-line optimum of the same
        workload (1.0 for the optimum itself).
    preemptions:
        Preemption count (0 for off-line schedules).
    """

    workload: str
    policy: str
    max_weighted_flow: float
    max_stretch: float
    makespan: float
    normalised: float
    preemptions: int = 0


@dataclass
class CampaignStats:
    """Throughput trajectory of one campaign dispatch.

    Attributes
    ----------
    workloads, items, records:
        Work volume: distinct workloads, dispatched (workload, policy-chunk)
        items, and emitted records.
    probe_constructions:
        Total :class:`FeasibilityProbe` constructions across all workers —
        strictly fewer than ``workloads × policies`` whenever the per-
        workload sharing pays off.
    offline_solves:
        Off-line optimum LP searches performed — exactly one per computed
        workload at any worker count (the parent ships the pinned optimum
        into a workload's later items), and zero for workloads fully
        resumed from a store.  Explicitly requested ``offline-optimal``
        cells reuse the context's outcome where possible; when a pinned
        parallel item cannot, its extra solve is counted here too.
    resumed_records, computed_records:
        Split of ``records`` into cells loaded from the experiment store
        (``resume=True``) and cells actually computed this dispatch.
    store_new_records:
        Content rows newly inserted into the store (0 without a store).
    store_run_id:
        Run id allocated in the store for this dispatch (``None`` without).
    peak_in_flight:
        Maximum number of items simultaneously submitted to the pool (0 for
        in-process runs); bounded by ``max_inflight`` by construction.
    peak_pending_records:
        Maximum number of records buffered while waiting for an earlier item
        to finish (deterministic emission order), also bounded.
    elapsed_seconds:
        Wall-clock time of the dispatch.
    max_workers, chunk_size:
        The dispatch parameters, for the bench trajectory record.
    """

    workloads: int = 0
    items: int = 0
    records: int = 0
    probe_constructions: int = 0
    offline_solves: int = 0
    resumed_records: int = 0
    computed_records: int = 0
    store_new_records: int = 0
    store_run_id: Optional[int] = None
    peak_in_flight: int = 0
    peak_pending_records: int = 0
    elapsed_seconds: float = 0.0
    max_workers: Optional[int] = None
    chunk_size: int = 1

    @property
    def scenarios_per_second(self) -> float:
        """Workloads processed per wall-clock second."""
        return self.workloads / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    @property
    def records_per_second(self) -> float:
        """Records produced per wall-clock second."""
        return self.records / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    @property
    def resume_skip_rate(self) -> float:
        """Fraction of records served from the store instead of computed."""
        return self.resumed_records / self.records if self.records > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly view (used by the quick-bench trajectory files)."""
        return {
            "workloads": self.workloads,
            "items": self.items,
            "records": self.records,
            "probe_constructions": self.probe_constructions,
            "offline_solves": self.offline_solves,
            "resumed_records": self.resumed_records,
            "computed_records": self.computed_records,
            "resume_skip_rate": self.resume_skip_rate,
            "store_new_records": self.store_new_records,
            "store_run_id": self.store_run_id,
            "peak_in_flight": self.peak_in_flight,
            "peak_pending_records": self.peak_pending_records,
            "elapsed_seconds": self.elapsed_seconds,
            "scenarios_per_second": self.scenarios_per_second,
            "records_per_second": self.records_per_second,
            # None (in-process) stays null in JSON; 0 means "one per CPU".
            "max_workers": self.max_workers,
            "chunk_size": self.chunk_size,
        }


@dataclass(frozen=True)
class WorkloadSpec:
    """A lazy, picklable campaign workload.

    Either a concrete ``instance`` or a ``(scenario, seed)`` pointer that the
    worker materialises on demand (keeping huge sweeps out of the parent's
    memory).
    """

    label: str
    scenario: Optional[str] = None
    seed: Optional[int] = None
    instance: Optional[Instance] = None

    @classmethod
    def from_instance(cls, label: str, instance: Instance) -> "WorkloadSpec":
        """Wrap an already-built instance."""
        return cls(label=label, instance=instance)

    @classmethod
    def from_scenario(cls, spec: ScenarioSpec) -> "WorkloadSpec":
        """Wrap a lazy :class:`~repro.workload.scenarios.ScenarioSpec`."""
        return cls(label=spec.label, scenario=spec.scenario, seed=spec.seed)

    def materialise(self) -> Instance:
        """Build (or return) the instance."""
        if self.instance is not None:
            return self.instance
        if self.scenario is None:
            raise WorkloadError(f"workload {self.label!r} has neither instance nor scenario")
        return make_scenario(self.scenario, self.seed)

    def content_key(self) -> str:
        """Stable identity of the workload for content-addressed storage.

        Scenario workloads are keyed by (scenario name, seed) — the pair
        that fully determines the generated instance; concrete instances by
        a digest of their full payload (jobs, machines, costs).
        """
        if self.scenario is not None:
            # One format, owned by ScenarioSpec: diverging copies would
            # silently stop matching previously stored cells.
            return ScenarioSpec(
                label=self.label, scenario=self.scenario, seed=self.seed
            ).content_key()
        if self.instance is None:
            raise WorkloadError(f"workload {self.label!r} has neither instance nor scenario")
        from ..store.digest import instance_digest  # deferred: avoids module cycle

        return f"instance-sha256={instance_digest(self.instance)}"


# --------------------------------------------------------------------------- #
# Result container                                                             #
# --------------------------------------------------------------------------- #
@dataclass
class CampaignResult:
    """All the records of a campaign plus aggregation helpers."""

    records: List[CampaignRecord] = field(default_factory=list)
    stats: Optional[CampaignStats] = None

    def policies(self) -> List[str]:
        """Distinct policy names, off-line optimum first."""
        names = sorted({record.policy for record in self.records})
        if OFFLINE_OPTIMAL in names:
            names.remove(OFFLINE_OPTIMAL)
            names.insert(0, OFFLINE_OPTIMAL)
        return names

    def records_for(self, policy: str) -> List[CampaignRecord]:
        """All records of one policy."""
        return [record for record in self.records if record.policy == policy]

    def mean_degradation(self, policy: str) -> float:
        """Geometric-mean normalised max weighted flow of one policy."""
        values = [record.normalised for record in self.records_for(policy)]
        if not values:
            raise WorkloadError(f"no records for policy {policy!r}")
        return geometric_mean(values)

    def ranking(self) -> List[str]:
        """Policies ordered from best (lowest mean degradation) to worst."""
        return sorted(
            (p for p in self.policies() if p != OFFLINE_OPTIMAL),
            key=self.mean_degradation,
        )

    def as_table(self) -> str:
        """Aggregate table: one row per policy."""
        rows = []
        for policy in self.policies():
            values = [record.normalised for record in self.records_for(policy)]
            stats = summarize(values)
            rows.append((policy, geometric_mean(values), stats.minimum, stats.maximum))
        return format_table(
            ["policy", "geo-mean vs optimum", "min", "max"],
            rows,
            title="Campaign summary (max weighted flow normalised by the off-line optimum)",
            float_format=".3f",
        )


# --------------------------------------------------------------------------- #
# Work items and the per-process workload context                              #
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _CampaignItem:
    """One dispatch unit: a chunk of policies over one workload.

    ``pinned_optimum`` carries a workload's already-known off-line optimum
    (from the parent's first finished item of the workload, or from a
    resumed store record) into the worker, which then skips the LP search
    entirely.
    """

    dispatch_id: int
    workload_index: int
    spec: WorkloadSpec
    policies: Tuple[str, ...]
    emit_offline: bool
    pinned_optimum: Optional[float] = None


@dataclass
class _ItemResult:
    records: List[CampaignRecord]
    probe_constructions: int
    offline_solves: int
    optimum: float


#: Per-process LRU of workload contexts: (dispatch id, workload index) ->
#: (instance, offline outcome or None, optimum, probe or None).  Small by
#: design — consecutive items of the same workload are what it exists for.
_CONTEXT_CACHE: "OrderedDict[Tuple[int, int], Tuple[Instance, Optional[PolicyOutcome], float, Optional[FeasibilityProbe]]]" = (
    OrderedDict()
)
_CONTEXT_CACHE_SIZE = 4
#: Guards the cache's dict operations only (concurrent in-process campaigns);
#: the LP work itself runs unlocked, so two threads may build the same
#: context redundantly — wasteful but correct.
_CONTEXT_LOCK = threading.Lock()

#: Per-thread simulation kernels; every on-line run in a given worker thread
#: reuses one kernel's allocated array state (kernels are not thread-safe, so
#: concurrent in-process campaigns each get their own).
_KERNELS = threading.local()


def _thread_kernel() -> SimulationKernel:
    kernel = getattr(_KERNELS, "kernel", None)
    if kernel is None:
        kernel = _KERNELS.kernel = SimulationKernel()
    return kernel


def _policy_base_name(token: str) -> str:
    """Base registry name of a (possibly parameterised) policy token."""
    return token.partition(":")[0] if ":" in token else token


def _policy_cell_identity(token: str) -> Tuple[str, Dict]:
    """The ``(policy name, params)`` identity a cell token digests under.

    Registered policies resolve their variant tokens to the canonical base
    name plus non-default params (so ``"name:param=default"`` digests like a
    bare ``"name"``); unregistered names digest the raw token with empty
    params (the cell itself then fails in :func:`make_policy`).
    """
    try:
        policy_spec(_policy_base_name(token))
    except KeyError:
        return token, {}
    variant = resolve_policy_variant(token)
    return variant.base, dict(variant.params)


def _item_needs_probe(item: _CampaignItem) -> bool:
    """Whether any of the item's policies is off-line (wants a shared probe)."""
    for name in item.policies:
        try:
            if policy_spec(_policy_base_name(name)).kind == "offline":
                return True
        except KeyError:
            return True  # unknown name: build the probe, let make_policy raise
    return False


def _workload_context(
    item: _CampaignItem,
) -> Tuple[Instance, Optional[PolicyOutcome], float, Optional[FeasibilityProbe], int, int]:
    """Instance, off-line optimum and shared probe of the item's workload.

    Returns two trailing counters: probe constructions and off-line LP
    solves performed by this call (both 0 on a context-cache hit).  Items
    carrying a ``pinned_optimum`` skip the LP search — and the probe
    construction, unless one of their policies is itself off-line.
    """
    key = (item.dispatch_id, item.workload_index)
    with _CONTEXT_LOCK:
        cached = _CONTEXT_CACHE.get(key)
        # A pinned context (offline outcome None) cannot serve an item that
        # must emit the off-line record; fall through and solve.
        if cached is not None and not (item.emit_offline and cached[1] is None):
            _CONTEXT_CACHE.move_to_end(key)
            return cached[0], cached[1], cached[2], cached[3], 0, 0
    instance = cached[0] if cached is not None else item.spec.materialise()
    probe = cached[3] if cached is not None else None
    constructed = 0
    solved = 0
    if item.pinned_optimum is not None and not item.emit_offline:
        offline: Optional[PolicyOutcome] = None
        optimum = item.pinned_optimum
        if probe is None and _item_needs_probe(item):
            probe = FeasibilityProbe(instance)
            constructed = 1
    else:
        if probe is None:
            probe = FeasibilityProbe(instance)
            constructed = 1
        offline = make_policy(OFFLINE_OPTIMAL).run(instance, probe=probe)
        solved = 1
        if offline.objective is None or offline.objective <= 0:
            raise WorkloadError(
                f"degenerate workload {item.spec.label!r}: zero optimal objective"
            )
        optimum = offline.objective
    with _CONTEXT_LOCK:
        _CONTEXT_CACHE[key] = (instance, offline, optimum, probe)
        while len(_CONTEXT_CACHE) > _CONTEXT_CACHE_SIZE:
            _CONTEXT_CACHE.popitem(last=False)
    return instance, offline, optimum, probe, constructed, solved


def _record_from_outcome(
    label: str, outcome: PolicyOutcome, optimum: float
) -> CampaignRecord:
    return CampaignRecord(
        workload=label,
        policy=outcome.policy,
        max_weighted_flow=outcome.max_weighted_flow,
        max_stretch=outcome.max_stretch,
        makespan=outcome.makespan,
        normalised=1.0 if outcome.kind == "offline" else outcome.max_weighted_flow / optimum,
        preemptions=outcome.preemptions,
    )


def _compatible_probe(
    probe: Optional[FeasibilityProbe], policy: SchedulingPolicy
) -> Optional[FeasibilityProbe]:
    """The shared workload probe, unless the policy's LP model mismatches it.

    Parameterised off-line variants (``offline-optimal:preemptive=true``) use
    a different parametric model than the workload's shared probe; handing
    them the mismatched probe would raise, so they solve standalone instead.
    """
    if probe is None or policy.kind != "offline":
        return probe
    if getattr(policy, "preemptive", False) != probe.preemptive:
        return None
    if getattr(policy, "backend", probe.backend) != probe.backend:
        return None
    return probe


def _run_campaign_item(item: _CampaignItem) -> _ItemResult:
    """Measure one item: (workload, policy chunk) over a shared context.

    Module-level so the executor's process pool can pickle it.
    """
    instance, offline, optimum, probe, constructed, solved = _workload_context(item)
    records: List[CampaignRecord] = []
    if item.emit_offline:
        records.append(_record_from_outcome(item.spec.label, offline, optimum))
    kernel = _thread_kernel()
    for name in item.policies:
        if name == OFFLINE_OPTIMAL:
            # An explicitly requested optimum cell reuses the context's
            # outcome; a pinned context (no outcome) solves once — counted —
            # and backfills the cache for the workload's later items.
            if offline is None:
                if probe is None:
                    probe = FeasibilityProbe(instance)
                    constructed += 1
                offline = make_policy(OFFLINE_OPTIMAL).run(instance, probe=probe)
                solved += 1
                with _CONTEXT_LOCK:
                    _CONTEXT_CACHE[(item.dispatch_id, item.workload_index)] = (
                        instance,
                        offline,
                        optimum,
                        probe,
                    )
            records.append(_record_from_outcome(item.spec.label, offline, optimum))
            continue
        policy = make_policy(name)
        outcome = policy.run(
            instance, probe=_compatible_probe(probe, policy), kernel=kernel
        )
        records.append(_record_from_outcome(item.spec.label, outcome, optimum))
    return _ItemResult(
        records=records,
        probe_constructions=constructed,
        offline_solves=solved,
        optimum=optimum,
    )


_DISPATCH_COUNTER = itertools.count()


# --------------------------------------------------------------------------- #
# The campaign as a cell factory                                               #
# --------------------------------------------------------------------------- #
class _CampaignCells(CellFactory):
    """(workload, policy-chunk) items as executor units.

    Every item of a workload is grouped on the workload: an item that does
    not emit the off-line record waits for the workload's first item and
    takes its optimum pinned, so the LP search runs once per workload.
    """

    kind = "campaign"
    work = staticmethod(_run_campaign_item)
    seconds_metric = "campaign.chunk_seconds"
    inflight_gauge = "campaign.in_flight"

    def __init__(
        self,
        specs: Iterable[WorkloadSpec],
        policies: Sequence[str],
        *,
        include_offline: bool,
        chunk_size: int,
        stats: CampaignStats,
        keyed: bool,
        run_label: str,
        config: Dict[str, object],
    ) -> None:
        self.specs = specs
        self.policies = tuple(policies)
        self.include_offline = include_offline
        self.chunk_size = chunk_size
        self.stats = stats
        self.keyed = keyed
        self.run_label = self.journal_label = run_label
        self.run_meta = config
        self.journal_config = dict(config)
        chunks = max(1, -(-len(self.policies) // chunk_size))
        try:
            spec_count: Optional[int] = len(specs)  # type: ignore[arg-type]
        except TypeError:
            spec_count = None  # generator sweep: cell count unknown up front
        if spec_count is not None:
            self.total_units = spec_count * chunks
            self.journal_config["total_cells"] = spec_count * (
                len(self.policies) + (1 if include_offline else 0)
            )
        self.recorder = get_recorder()
        self._identities: Dict[str, Tuple[str, Dict]] = {}
        from ..store.digest import record_digest  # deferred: repro.store imports us

        self._record_digest = record_digest

    def digest(self, key: str, token: str) -> str:
        """Cell digest: (base policy, non-default params) of the token."""
        identity = self._identities.get(token)
        if identity is None:
            identity = self._identities[token] = _policy_cell_identity(token)
        return self._record_digest(key, identity[0], params=identity[1])

    def plans(self) -> Iterator[CellPlan]:
        chunks = [
            self.policies[start : start + self.chunk_size]
            for start in range(0, len(self.policies), self.chunk_size)
        ] or [()]
        dispatch_id = next(_DISPATCH_COUNTER)
        index = 0
        key, lookups = "", ()
        for workload_index, spec in enumerate(self.specs):
            if self.keyed:
                # For concrete instances the key digests the full payload:
                # once per workload, never once per policy chunk.
                key = spec.content_key()
                # The off-line cell pins the optimum even for items that do
                # not emit it.
                lookups = (self.digest(key, OFFLINE_OPTIMAL),)
            for position, chunk in enumerate(chunks):
                emit_offline = self.include_offline and position == 0
                names = ((OFFLINE_OPTIMAL,) if emit_offline else ()) + chunk
                yield CellPlan(
                    key=key,
                    cells=[
                        Cell(name, self.digest(key, name) if self.keyed else "")
                        for name in names
                    ],
                    work=_CampaignItem(dispatch_id, workload_index, spec, chunk, emit_offline),
                    journal=dict(
                        cell=f"{spec.label}#{index}",
                        workload=spec.label,
                        item=index,
                        policies=list(names),
                    ),
                    group=workload_index,
                    waits=not emit_offline,
                    lookups=lookups,
                    unit=(workload_index, spec),
                )
                index += 1

    def resume(self, plan: CellPlan, found: Mapping[str, "StoredRecord"]) -> None:
        item = plan.work
        for cell in plan.cells:
            hit = found.get(cell.digest)
            if hit is not None:
                # The digest deliberately ignores labels (same content, any
                # label); re-label the cell for the *current* sweep.
                cell.stored = replace(hit.to_campaign_record(), workload=item.spec.label)
        offline = found.get(plan.lookups[0])
        pinned = offline.objective if offline is not None else None
        first = 1 if item.emit_offline else 0
        missing = tuple(cell.name for cell in plan.cells[first:] if cell.stored is None)
        offline_needed = item.emit_offline and plan.cells[0].stored is None
        if not missing and not offline_needed:
            plan.work = None
            return
        plan.work = replace(
            item, policies=missing, emit_offline=offline_needed, pinned_optimum=pinned
        )
        plan.journal["policies"] = ([OFFLINE_OPTIMAL] if offline_needed else []) + list(missing)
        plan.group = item.workload_index if pinned is None else None
        plan.waits = not offline_needed

    def rewrite(self, work: _CampaignItem, earlier: _ItemResult) -> _CampaignItem:
        return replace(work, pinned_optimum=earlier.optimum)

    def emit(
        self, plan: CellPlan, outcome: Optional[Outcome]
    ) -> Iterator[Tuple[CampaignRecord, Dict]]:
        stats = self.stats
        workload_index, spec = plan.unit
        stats.workloads = workload_index + 1
        result: Optional[_ItemResult] = outcome.value if outcome is not None else None
        computed: Iterator[CampaignRecord] = iter(())
        optimum = None
        if result is not None:
            stats.items += 1
            stats.probe_constructions += result.probe_constructions
            stats.offline_solves += result.offline_solves
            if self.recorder.enabled:
                self.recorder.count("campaign.items")
                self.recorder.count(
                    "campaign.probe_constructions", float(result.probe_constructions)
                )
                self.recorder.count("campaign.offline_solves", float(result.offline_solves))
            computed, optimum = iter(result.records), result.optimum
        for cell in plan.cells:
            record = cell.stored
            if record is None:
                record = next(computed)
                stats.computed_records += 1
            else:
                stats.resumed_records += 1
            stats.records += 1
            yield record, dict(
                digest=cell.digest,
                record=record,
                workload_key=plan.key,
                scenario=spec.scenario,
                seed=spec.seed,
                objective=optimum if cell.name == OFFLINE_OPTIMAL else None,
                computed=cell.stored is None,
            )

    def finish(self, execution: CellExecutor) -> Dict:
        stats = self.stats
        stats.elapsed_seconds = execution.elapsed_seconds
        stats.store_run_id = execution.run_id
        stats.store_new_records = execution.inserted
        stats.peak_in_flight = execution.peak_in_flight
        stats.peak_pending_records = execution.peak_pending_cells
        return stats.as_dict()


def stream_campaign(
    specs: Iterable[WorkloadSpec],
    policies: Sequence[str],
    *,
    include_offline: bool = True,
    max_workers: Optional[int] = None,
    chunk_size: int = 1,
    max_inflight: Optional[int] = None,
    stats: Optional[CampaignStats] = None,
    store: Optional[Union[str, Path, "ExperimentStore"]] = None,
    resume: bool = False,
    run_label: Optional[str] = None,
    journal: Optional[Union[str, Path, RunJournal]] = None,
) -> Iterator[CampaignRecord]:
    """Yield campaign records incrementally, in deterministic order.

    Parameters
    ----------
    specs:
        Lazy workload descriptors; consumed incrementally, so generators of
        arbitrarily large sweeps are fine.
    policies:
        Policy names resolved through the registry.
    include_offline:
        Also emit the off-line optimum record of every workload (the optimum
        is computed either way — every normalisation is relative to it).
    max_workers:
        ``None`` runs in-process; any other value fans items out over a
        :class:`ProcessPoolExecutor` (``0`` means "one per CPU").
    chunk_size:
        Policies per dispatched item.  ``1`` (default) gives per-(workload,
        policy) granularity; larger chunks trade parallelism for less
        shipping of workload state.
    max_inflight:
        Cap on items submitted-but-not-yet-aggregated (default
        ``4 × workers``); bounds parent-side memory on huge sweeps.
    stats:
        Optional :class:`CampaignStats` filled in while streaming (the
        dispatch-level figures — elapsed time, peaks, store counts — are
        set when the stream closes).
    store:
        Persist every record into this :class:`~repro.store.ExperimentStore`
        (a path opens — and closes — a store for the duration).  The
        dispatch registers as a new *run*; records are content-addressed, so
        re-computing a known cell never duplicates data.  Batches commit
        incrementally: a killed process loses at most one batch.
    resume:
        Skip cells whose digests are already present in ``store`` *before*
        dispatch — stored records are emitted in place (flagged in
        ``stats.resumed_records``) and only the missing cells are computed.
    run_label:
        Label of the run registered in the store (default ``"campaign"``).
    journal:
        Append lifecycle events (run started/finished, cell dispatched /
        completed / skipped-by-resume, worker heartbeats, batch commits)
        to this :class:`~repro.obs.journal.RunJournal` (a path opens — and
        closes — one for the duration).  The journal is a reporting
        artefact on the wall clock: records, digests and fingerprints are
        byte-identical with journaling on or off.

    Yields
    ------
    CampaignRecord
        In the same order a sequential run would produce: workload-major,
        off-line optimum first, then ``policies`` in the given order.
    """
    if chunk_size < 1:
        raise WorkloadError("chunk_size must be at least 1")
    own_stats = stats if stats is not None else CampaignStats()
    own_stats.max_workers = max_workers
    own_stats.chunk_size = chunk_size
    cells = _CampaignCells(
        specs,
        policies,
        include_offline=include_offline,
        chunk_size=chunk_size,
        stats=own_stats,
        keyed=store is not None,
        run_label=run_label or "campaign",
        config={
            "policies": list(policies),
            "include_offline": include_offline,
            "chunk_size": chunk_size,
            "max_workers": max_workers,
            "resume": resume,
        },
    )
    executor = CellExecutor(
        cells,
        store=store,
        resume=resume,
        journal=journal,
        max_workers=max_workers,
        max_inflight=max_inflight,
    )
    yield from executor.run()


# --------------------------------------------------------------------------- #
# Public campaign runners                                                      #
# --------------------------------------------------------------------------- #
def run_policy_campaign(
    instances: Iterable[Instance],
    policies: Sequence[str],
    *,
    labels: Optional[Sequence[str]] = None,
    include_offline: bool = True,
    max_workers: Optional[int] = None,
    chunk_size: int = 1,
    max_inflight: Optional[int] = None,
    store: Optional[Union[str, Path, "ExperimentStore"]] = None,
    resume: bool = False,
    run_label: Optional[str] = None,
    journal: Optional[Union[str, Path, RunJournal]] = None,
) -> CampaignResult:
    """Run every policy on every instance and collect normalised metrics.

    Parameters
    ----------
    instances:
        The workloads to schedule.
    policies:
        Policy names understood by the registry (custom schedulers register
        through :func:`repro.heuristics.register_online_scheduler`).
    labels:
        Optional workload labels (defaults to ``"workload 0"``, ...).
    include_offline:
        Also record the off-line optimum itself (policy ``"offline-optimal"``),
        which every normalisation is relative to.
    max_workers:
        ``None`` (default) runs sequentially in-process.  Any other value
        fans the (workload, policy) items out over a
        :class:`ProcessPoolExecutor` with that many workers (``0`` means
        "one per CPU").  Record order is deterministic and identical to the
        sequential path.
    chunk_size, max_inflight:
        Streaming-dispatch knobs, see :func:`stream_campaign`.
    store, resume, run_label, journal:
        Experiment-store sink, resume mode and run-journal sink, see
        :func:`stream_campaign`.
    """
    instances = list(instances)
    if not instances:
        raise WorkloadError("a campaign needs at least one instance")
    if labels is None:
        labels = [f"workload {index}" for index in range(len(instances))]
    if len(labels) != len(instances):
        raise WorkloadError("labels and instances must have the same length")

    specs = [
        WorkloadSpec.from_instance(label, instance)
        for label, instance in zip(labels, instances)
    ]
    stats = CampaignStats()
    result = CampaignResult(stats=stats)
    for record in stream_campaign(
        specs,
        policies,
        include_offline=include_offline,
        max_workers=max_workers,
        chunk_size=chunk_size,
        max_inflight=max_inflight,
        stats=stats,
        store=store,
        resume=resume,
        run_label=run_label,
        journal=journal,
    ):
        result.records.append(record)
    return result


def run_scenario_campaign(
    scenario_names: Optional[Sequence[str]],
    policies: Sequence[str],
    *,
    seeds: Optional[Sequence[Optional[int]]] = (None,),
    base_seed: Optional[int] = None,
    seeds_per_scenario: int = 1,
    include_offline: bool = True,
    max_workers: Optional[int] = None,
    chunk_size: int = 1,
    max_inflight: Optional[int] = None,
    store: Optional[Union[str, Path, "ExperimentStore"]] = None,
    resume: bool = False,
    run_label: Optional[str] = None,
    journal: Optional[Union[str, Path, RunJournal]] = None,
) -> CampaignResult:
    """Sweep named workload scenarios (optionally over several seeds).

    Enumerates the ``(scenario, seed)`` grid lazily via
    :func:`repro.workload.scenarios.scenario_grid` — instances are built
    inside the workers — and streams the records through
    :func:`stream_campaign`.  Labels are ``"<scenario>#<seed>"`` (just the
    scenario name when a single default seed is used).  Pass ``base_seed``
    (with ``seeds_per_scenario``) instead of explicit ``seeds`` to spawn
    per-scenario seed streams that are reproducible independent of worker
    count and chunking.  ``store``/``resume`` persist the sweep and top up a
    partial one (see :func:`stream_campaign`).
    """
    if base_seed is not None and seeds == (None,):
        seeds = None  # the default sentinel must not conflict with base_seed
    grid = scenario_grid(
        scenario_names, seeds, base_seed=base_seed, seeds_per_scenario=seeds_per_scenario
    )
    specs = [WorkloadSpec.from_scenario(spec) for spec in grid]
    stats = CampaignStats()
    result = CampaignResult(stats=stats)
    for record in stream_campaign(
        specs,
        policies,
        include_offline=include_offline,
        max_workers=max_workers,
        chunk_size=chunk_size,
        max_inflight=max_inflight,
        stats=stats,
        store=store,
        resume=resume,
        run_label=run_label,
        journal=journal,
    ):
        result.records.append(record)
    return result
