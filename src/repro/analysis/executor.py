"""The cell executor: one dispatcher under campaigns and stream sweeps.

A driver (:func:`~repro.analysis.campaign.stream_campaign`,
:func:`~repro.analysis.stream_sweep.run_stream_sweep`) is a
:class:`CellFactory`: it enumerates :class:`CellPlan` units (output cells
under their content digests plus a picklable work payload), resumes stored
cells and turns finished units into records and store rows.
:class:`CellExecutor` does the rest, the same way for both drivers:

* **plan** — units are taken in rounds; with ``resume=True`` each round's
  digests go to the store in one ``lookup`` and the factory shrinks every
  unit to its missing cells (a unit left without work is skipped);
* **dispatch** — in-process, or over a process pool with at most
  ``max_inflight`` units (default ``4 × workers``) in flight.  A unit of a
  ``group`` may wait for an earlier unit of the group and be rewritten from
  its result (the campaign's once-per-workload LP optimum);
* **envelope** — with a merge-capable ambient recorder (or a factory that
  keeps snapshots) every unit runs under a scoped ``collecting()`` and
  ships its snapshot back with the worker pid and elapsed time;
* **emit** — units leave in plan order whatever order they finish in;
  snapshots fold at emission, so the merged snapshot is byte-identical at
  any worker count;
* **persist and journal** — a ``BulkWriter`` adds every emitted cell to a
  run bracketed by ``begin_run``/``finish_run`` (``completed=False`` on
  abort), and the run journal records run-started, cell-dispatched /
  -completed / -skipped, worker-heartbeat (pool units), batch-commit and
  run-finished.  Stores and journals given as paths are opened and closed
  here.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..exceptions import WorkloadError
from ..obs.clock import wall_clock
from ..obs.journal import RunJournal
from ..obs.metrics import collecting, get_recorder

if TYPE_CHECKING:  # pragma: no cover - typing only (runtime import would cycle)
    from ..store import ExperimentStore

__all__ = ["Cell", "CellExecutor", "CellFactory", "CellPlan", "Outcome"]

#: Units planned per store-lookup round on the in-process path (the pool
#: path rounds by its in-flight budget instead).
PLAN_BATCH = 64


@dataclass
class Cell:
    """One output cell of a unit: its name, digest and (resumed) stored copy."""

    name: str
    digest: str = ""
    stored: Any = None


@dataclass
class CellPlan:
    """One dispatch unit: the cells it emits and the work that computes them.

    ``work`` is the payload handed to the factory's work function, ``None``
    once the store served every cell.  ``journal`` holds the unit's
    ``cell``/``workload``/``item``/``policies`` journal fields.  A unit with
    a ``group`` that ``waits`` is held back while another unit of the group
    runs, then rewritten from that unit's result (:meth:`CellFactory.rewrite`);
    a group unit that does not wait marks the group as running.
    ``lookups`` are digests resolved beside the cells' own; ``unit`` is the
    factory's own description of the unit, never read by the executor.
    """

    key: str
    cells: List[Cell]
    work: Any
    journal: Dict[str, object]
    group: Optional[Hashable] = None
    waits: bool = False
    lookups: Tuple[str, ...] = ()
    unit: Any = None

    @property
    def computed(self) -> int:
        """Cells the work computes (those the store did not serve)."""
        return sum(1 for cell in self.cells if cell.stored is None)


@dataclass
class Outcome:
    """A finished unit: the work's value plus its telemetry envelope."""

    value: Any
    snapshot: Optional[Dict[str, Dict[str, object]]]
    worker_pid: int
    elapsed_seconds: float


def _run_unit(work: Callable[[Any], Any], payload: Any, collect: bool) -> Outcome:
    """Run one unit's work, under a scoped recorder when ``collect``.

    Module-level so the process pool can pickle it; also the in-process
    path, so both paths measure the same thing the same way.
    """
    started = wall_clock()
    if collect:
        with collecting() as unit_recorder:
            value = work(payload)
        snapshot: Optional[Dict] = unit_recorder.snapshot()
    else:
        value = work(payload)
        snapshot = None
    return Outcome(value, snapshot, os.getpid(), wall_clock() - started)


class CellFactory:
    """A driver's side of the executor: its units, records and run metadata.

    Subclasses set the attributes and implement :meth:`plans`, :meth:`emit`
    and :meth:`finish`; :meth:`resume` and :meth:`rewrite` are needed only
    for resumable and grouped units.
    """

    #: Journal run kind and labels of the store run and the journal run.
    kind: str
    run_label: str
    journal_label: str
    #: Store-run metadata and journal run configuration.
    run_meta: Dict[str, object]
    journal_config: Dict[str, object]
    #: Module-level (picklable) function computing a unit from its payload.
    work: Callable[[Any], Any]
    #: Histogram of per-unit wall-clock seconds; optional in-flight gauge.
    seconds_metric: str
    inflight_gauge: Optional[str] = None
    #: Collect a snapshot for every unit even when nothing folds it.
    keep_snapshots: bool = False
    #: Number of units, when known up front (caps the pool's workers).
    total_units: Optional[int] = None

    def plans(self) -> Iterator[CellPlan]:
        """The units in emission order (consumed lazily, round by round)."""
        raise NotImplementedError

    def resume(self, plan: CellPlan, found: Mapping[str, Any]) -> None:
        """Serve ``plan``'s cells from ``found`` and shrink its work."""
        raise NotImplementedError

    def rewrite(self, work: Any, earlier: Any) -> Any:
        """A waiting unit's work, given its group's first finished value."""
        raise NotImplementedError

    def emit(self, plan: CellPlan, outcome: Optional[Outcome]) -> Iterator[Tuple[Any, Dict]]:
        """Yield ``(record, store row)`` per cell (``outcome`` None: skipped).

        The row holds the keyword arguments of
        :meth:`~repro.store.BulkWriter.add`.
        """
        raise NotImplementedError

    def finish(self, execution: "CellExecutor") -> Dict:
        """Fill the driver's stats at the end; return them for ``finish_run``."""
        raise NotImplementedError


class CellExecutor:
    """Run a :class:`CellFactory`'s units: plan, dispatch, emit, persist, journal.

    After (or during) :meth:`run`, the attributes report the dispatch:
    ``run_id`` (store run), ``records`` emitted, ``inserted`` new store
    rows, ``peak_in_flight`` units, ``peak_pending_cells`` (finished cells
    buffered for in-order emission) and ``elapsed_seconds``.
    """

    def __init__(
        self,
        factory: CellFactory,
        *,
        store: Optional[Union[str, Path, "ExperimentStore"]] = None,
        resume: bool = False,
        journal: Optional[Union[str, Path, RunJournal]] = None,
        max_workers: Optional[int] = None,
        max_inflight: Optional[int] = None,
    ) -> None:
        self.factory = factory
        #: Opened by :meth:`run` when given as paths.
        self.store = store
        self.journal = journal
        self.resume = resume
        self.max_workers = max_workers
        self.max_inflight = max_inflight
        self.run_id: Optional[int] = None
        self.records = 0
        self.inserted = 0
        self.peak_in_flight = 0
        self.peak_pending_cells = 0
        self.elapsed_seconds = 0.0
        self._writer = None
        self._commits = 0  # journalled batch-commit watermark
        self._worker_units: Dict[str, int] = {}  # heartbeat counts per worker
        self._recorder = get_recorder()
        # When the ambient recorder can fold snapshots, EVERY unit — the
        # in-process ones too — runs under a scoped recorder and is folded
        # at emission.  Recorders without ``merge_snapshot`` record
        # in-process units directly.
        self._merge = (
            getattr(self._recorder, "merge_snapshot", None) if self._recorder.enabled else None
        )
        self._collect = self._merge is not None or factory.keep_snapshots

    # ------------------------------------------------------------------ #
    # The run                                                             #
    # ------------------------------------------------------------------ #
    def run(self) -> Iterator[Any]:
        """Yield every record in plan order, persisting and journalling it."""
        factory = self.factory
        if self.resume and self.store is None:
            raise WorkloadError("resume=True needs a store to resume from")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise WorkloadError("max_inflight must be at least 1")
        from ..store import ExperimentStore  # deferred: repro.store imports repro.analysis

        started = wall_clock()
        own_store = own_journal = None
        if self.store is not None and not isinstance(self.store, ExperimentStore):
            self.store = own_store = ExperimentStore(self.store)
        completed = False
        try:
            if self.store is not None:
                self.run_id = self.store.begin_run(factory.run_label, meta=factory.run_meta)
                self._writer = self.store.writer(self.run_id)
            if self.journal is not None:
                if not isinstance(self.journal, RunJournal):
                    self.journal = own_journal = RunJournal(self.journal)
                config = dict(factory.journal_config)
                if self.run_id is not None:
                    config["store_run_id"] = self.run_id
                self.journal.begin_run(factory.kind, factory.journal_label, config)
            if self.max_workers is None:
                yield from self._run_in_process(factory.plans())
            else:
                yield from self._run_pool(factory.plans())
            completed = True
        finally:
            self.elapsed_seconds = wall_clock() - started
            if self._writer is not None:
                self._writer.close()
                self.inserted = self._writer.inserted
                self.store.finish_run(self.run_id, completed=completed, stats=factory.finish(self))
            else:
                factory.finish(self)
            if own_store is not None:
                own_store.close()
            if self.journal is not None:
                self.journal.record(
                    "run-finished",
                    status="completed" if completed else "aborted",
                    records=self.records,
                    elapsed=self.elapsed_seconds,
                )
                if own_journal is not None:
                    own_journal.close()

    # ------------------------------------------------------------------ #
    # Planning, journalling, emission                                     #
    # ------------------------------------------------------------------ #
    def _plan_round(self, plans: Iterator[CellPlan], size: int) -> List[CellPlan]:
        """Take up to ``size`` units and resolve them against the store at once."""
        batch = list(itertools.islice(plans, size))
        if self.resume and batch:
            wanted: Set[str] = set()
            for plan in batch:
                wanted.update(cell.digest for cell in plan.cells)
                wanted.update(plan.lookups)
            found = self.store.lookup(wanted) if wanted else {}
            for plan in batch:
                self.factory.resume(plan, found)
        return batch

    def _journal_unit(self, event: str, plan: CellPlan, **fields: object) -> None:
        if self.journal is not None:
            self.journal.record(event, **plan.journal, **fields)

    def _completed(self, plan: CellPlan, outcome: Outcome, pooled: bool) -> None:
        if self._recorder.enabled:
            self._recorder.observe(self.factory.seconds_metric, outcome.elapsed_seconds)
        worker = f"p{outcome.worker_pid}"
        self._journal_unit(
            "cell-completed",
            plan,
            cells=plan.computed,
            elapsed=outcome.elapsed_seconds,
            worker=worker,
        )
        if pooled and self.journal is not None:
            self._worker_units[worker] = self._worker_units.get(worker, 0) + 1
            self.journal.record(
                "worker-heartbeat", worker=worker, items=self._worker_units[worker]
            )

    def _emit(self, plan: CellPlan, outcome: Optional[Outcome]) -> Iterator[Any]:
        """Fold the unit's snapshot, then persist and yield its cells in order."""
        if outcome is not None and outcome.snapshot is not None and self._merge is not None:
            self._merge(outcome.snapshot)
        writer = self._writer
        for record, row in self.factory.emit(plan, outcome):
            self.records += 1
            if writer is not None:
                writer.add(**row)
                if self.journal is not None and writer.commits > self._commits:
                    self._commits = writer.commits
                    self.journal.record(
                        "batch-commit", commits=self._commits, records=self.records
                    )
            yield record

    # ------------------------------------------------------------------ #
    # Dispatch                                                            #
    # ------------------------------------------------------------------ #
    def _run_in_process(self, plans: Iterator[CellPlan]) -> Iterator[Any]:
        work = self.factory.work
        while True:
            batch = self._plan_round(plans, PLAN_BATCH)
            if not batch:
                return
            for plan in batch:
                if plan.work is None:
                    self._journal_unit("cell-skipped", plan, cells=len(plan.cells))
                    yield from self._emit(plan, None)
                    continue
                self._journal_unit("cell-dispatched", plan)
                outcome = _run_unit(work, plan.work, self._collect)
                self._completed(plan, outcome, pooled=False)
                yield from self._emit(plan, outcome)

    def _run_pool(self, plans: Iterator[CellPlan]) -> Iterator[Any]:
        factory = self.factory
        workers = self.max_workers if self.max_workers > 0 else (os.cpu_count() or 1)
        if factory.total_units is not None:
            # The pool spawns a worker per submission up to its size; never
            # size it beyond the units there are to run.
            workers = max(1, min(workers, factory.total_units))
        cap = self.max_inflight if self.max_inflight is not None else 4 * workers

        pool: Optional[ProcessPoolExecutor] = None
        pending: Dict = {}  # future -> index
        admitted: Dict[int, CellPlan] = {}  # admitted, not yet emitted
        #: Finished (or skipped: None) units waiting for their emission turn.
        ready: Dict[int, Optional[Outcome]] = {}
        deferred: Dict[Hashable, List[int]] = {}  # group -> waiting units
        release: Deque[int] = deque()
        known: Dict[Hashable, Any] = {}  # group -> its first finished value
        running: Set[Hashable] = set()  # groups with a unit in flight
        counter = itertools.count()
        next_emit = 0
        exhausted = False

        def submit(index: int) -> None:
            nonlocal pool
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=workers)
            plan = admitted[index]
            self._journal_unit("cell-dispatched", plan)
            pending[pool.submit(_run_unit, factory.work, plan.work, self._collect)] = index
            self.peak_in_flight = max(self.peak_in_flight, len(pending))
            if factory.inflight_gauge is not None and self._recorder.enabled:
                self._recorder.gauge(factory.inflight_gauge, float(len(pending)))

        def admit(plan: CellPlan) -> None:
            """Route one unit: mark it ready, submit it, or hold it for its group."""
            index = next(counter)
            admitted[index] = plan
            if plan.work is None:
                self._journal_unit("cell-skipped", plan, cells=len(plan.cells))
                ready[index] = None
                return
            group = plan.group
            if group is not None:
                if plan.waits and group in known:
                    plan.work = factory.rewrite(plan.work, known[group])
                elif plan.waits and group in running:
                    deferred.setdefault(group, []).append(index)
                    return
                else:
                    running.add(group)
            submit(index)

        def fill() -> None:
            nonlocal exhausted
            # Released units are gated on the pending count only: the unit
            # blocking in-order emission may itself sit in the release
            # queue, so counting finished-but-unemitted units here would
            # livelock the stream under an adverse completion order.
            while release and len(pending) < cap:
                index = release.popleft()
                plan = admitted[index]
                plan.work = factory.rewrite(plan.work, known[plan.group])
                submit(index)
            while len(pending) + len(ready) < cap and not release and not exhausted:
                budget = cap - len(pending) - len(ready)
                batch = self._plan_round(plans, budget)
                exhausted = len(batch) < budget
                for plan in batch:
                    admit(plan)

        try:
            fill()
            while pending or ready or release or not exhausted:
                while next_emit in ready:
                    outcome = ready.pop(next_emit)
                    yield from self._emit(admitted.pop(next_emit), outcome)
                    next_emit += 1
                    fill()  # emission freed in-flight budget
                fill()
                if not pending:
                    # Nothing in flight: more work just became ready or
                    # releasable (loop again), or the run is drained.
                    if ready or release or not exhausted:
                        continue
                    break
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = pending.pop(future)
                    outcome = future.result()  # propagate worker exceptions
                    plan = admitted[index]
                    self._completed(plan, outcome, pooled=True)
                    ready[index] = outcome
                    group = plan.group
                    if group is not None:
                        running.discard(group)
                        known.setdefault(group, outcome.value)
                        release.extend(deferred.pop(group, ()))
                self.peak_pending_cells = max(
                    self.peak_pending_cells,
                    sum(
                        admitted[index].computed
                        for index, outcome in ready.items()
                        if outcome is not None
                    ),
                )
            # Emission order is dense, so nothing can remain buffered.
            assert not ready and not deferred, "cell executor lost a unit"
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
