"""Wall-clock span tracing of the program's layers, from outside the program.

A traced run wraps the functions and methods of each layer at the names
their callers look them up under (a module attribute such as
``repro.core.replanning.build_allocation_model``, or a method on its
class), so every call becomes a span: name, start, end and parent.
Spans stay in memory and are written out when the run ends.  A layer's
*self time* is the duration of its spans minus the part covered by their
child spans, accumulated per span path while the run goes, so the
numbers do not depend on how many raw spans are kept.

The untraced end-to-end runs install nothing from this module.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_clock = time.perf_counter

#: Raw spans kept in memory per tracer; later spans still count in the
#: aggregates, only their individual records are dropped.
MAX_KEPT_SPANS = 100_000


class SpanTracer:
    """Nested wall-clock spans with per-path self times and counts."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.dropped = 0
        #: path (tuple of span names from the root) -> [count, total, self]
        self.paths: Dict[Tuple[str, ...], List[float]] = {}
        #: Wall time covered by root spans (spans with no open parent).
        self.root_seconds = 0.0
        #: Counters fed by result hooks (e.g. MaxWeightedFlowResult fields).
        self.counters: Dict[str, float] = {}
        self._stack: List[list] = []
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._next_id += 1
        path = (self._stack[-1][4] + (name,)) if self._stack else (name,)
        # [name, start, child seconds, span id, path]
        self._stack.append([name, _clock(), 0.0, self._next_id, path])

    def exit(self) -> None:
        end = _clock()
        name, start, child, span_id, path = self._stack.pop()
        duration = end - start
        stats = self.paths.get(path)
        if stats is None:
            stats = self.paths[path] = [0, 0.0, 0.0]
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        else:
            self.root_seconds += duration
            parent = 0
        if len(self.spans) < MAX_KEPT_SPANS:
            self.spans.append((span_id, parent, name, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    # -- aggregates ------------------------------------------------------
    def self_seconds(self, name: str) -> float:
        """Self time of every span called ``name``, wherever it nests."""
        return sum(stats[2] for path, stats in self.paths.items() if path[-1] == name)

    def calls(self, name: str) -> int:
        return int(sum(stats[0] for path, stats in self.paths.items() if path[-1] == name))

    def tree(self) -> List[Dict[str, object]]:
        """The span tree as rows in depth-first order (by total time)."""
        children: Dict[Tuple[str, ...], List[Tuple[str, ...]]] = {}
        for path in self.paths:
            children.setdefault(path[:-1], []).append(path)
        rows: List[Dict[str, object]] = []

        def visit(parent: Tuple[str, ...]) -> None:
            for path in sorted(children.get(parent, ()), key=lambda p: -self.paths[p][1]):
                count, total, own = self.paths[path]
                rows.append(
                    {
                        "path": "/".join(path),
                        "depth": len(path) - 1,
                        "calls": int(count),
                        "total_s": total,
                        "self_s": own,
                    }
                )
                visit(path)

        visit(())
        return rows

    def write_spans(self, path: str) -> None:
        """Write the kept raw spans as JSON lines (ids, parent id, seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )


# --------------------------------------------------------------------------- #
# Wrapping the layers                                                          #
# --------------------------------------------------------------------------- #
def _spanned(tracer: SpanTracer, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if hook is not None:
            hook(tracer, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _spanned_generator(tracer: SpanTracer, name: str, fn: Callable) -> Callable:
    """Time every ``next`` of the returned iterator (lazy producers)."""

    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)

        def traced():
            while True:
                tracer.enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                yield item

        return traced()

    wrapper.__wrapped__ = fn
    return wrapper


def _maxflow_result_hook(tracer: SpanTracer, result) -> None:
    tracer.count("offline.probes", result.feasibility_checks)
    tracer.count("offline.lp_solves", result.lp_solves)
    tracer.count("offline.builds", result.model_constructions)


#: (module, attribute path as callers resolve it, span name, kind).
#: ``kind`` is ``"call"``, ``"generator"`` or ``"maxflow"`` (a call whose
#: MaxWeightedFlowResult feeds the off-line counters).
LAYER_TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    # core.maxflow / core.milestones / core.formulations / lp (off-line path)
    ("repro.core.maxflow", "minimize_max_weighted_flow", "offline.search", "maxflow"),
    ("repro.heuristics.registry", "minimize_max_weighted_flow", "offline.search", "maxflow"),
    ("repro.core.maxflow", "FeasibilityProbe.__init__", "offline.search", "call"),
    ("repro.core.maxflow", "compute_milestones", "offline.milestones", "call"),
    ("repro.core.maxflow", "build_allocation_model", "offline.build", "call"),
    ("repro.core.maxflow", "to_matrix_form", "offline.lower", "call"),
    ("repro.core.maxflow", "_scipy_solve_form", "offline.solve", "call"),
    ("repro.core.maxflow", "divisible_schedule_from_solution", "offline.extract", "call"),
    ("repro.core.maxflow", "preemptive_schedule_from_solution", "offline.extract", "call"),
    # core.replanning / lp (on-line replanning path)
    ("repro.core.replanning", "ReplanProbe.check", "replan.check", "call"),
    ("repro.core.replanning", "build_allocation_model", "replan.build", "call"),
    ("repro.core.replanning", "to_matrix_form", "replan.lower", "call"),
    ("repro.core.replanning", "_scipy_solve_form", "replan.solve", "call"),
    # heuristics
    ("repro.heuristics.registry", "OnlinePolicy.run", "policy.run", "call"),
    ("repro.heuristics.registry", "OfflineOptimalPolicy.run", "policy.run", "call"),
    # simulation
    ("repro.simulation.stream", "StreamingSimulator.run", "sim.loop", "call"),
    ("repro.simulation.window", "StreamWindow.admit_batch", "window.admit", "call"),
    ("repro.simulation.window", "StreamWindow.compact", "window.compact", "call"),
    # workload
    ("repro.workload.streams", "WorkloadStream.jobs", "workload.generate", "generator"),
    ("repro.workload.streams", "StreamSpec.platform_instance", "workload.generate", "call"),
    ("repro.analysis.campaign", "make_scenario", "workload.generate", "call"),
    # analysis
    ("repro.analysis.stream_sweep", "analyse_stream", "steady.analyse", "call"),
    # store
    ("repro.store.store", "ExperimentStore.__init__", "store.open", "call"),
    ("repro.store.store", "ExperimentStore.begin_run", "store.write", "call"),
    ("repro.store.store", "ExperimentStore.finish_run", "store.write", "call"),
    ("repro.store.store", "ExperimentStore.close", "store.open", "call"),
    ("repro.store.store", "BulkWriter.add", "store.write", "call"),
    ("repro.store.store", "BulkWriter.flush", "store.write", "call"),
    ("repro.store.store", "ExperimentStore.lookup", "store.lookup", "call"),
    # obs
    ("repro.obs.journal", "RunJournal.__init__", "journal.open", "call"),
    ("repro.obs.journal", "RunJournal.record", "journal.write", "call"),
    ("repro.obs.journal", "RunJournal.close", "journal.open", "call"),
)


def _decide_targets(policies: Sequence[str]) -> List[Tuple[object, str]]:
    """``(class, method)`` pairs defining the policies' decision methods."""
    from repro.heuristics import make_scheduler
    from repro.heuristics.base import OnlineScheduler

    targets: List[Tuple[object, str]] = []
    for name in policies:
        for cls in type(make_scheduler(name)).__mro__:
            if not issubclass(cls, OnlineScheduler) or cls is OnlineScheduler:
                continue  # the abstract base only forwards to the subclass
            for method in ("decide", "decide_arrays"):
                if method in vars(cls) and (cls, method) not in targets:
                    targets.append((cls, method))
    return targets


@contextmanager
def layers_traced(tracer: SpanTracer, policies: Sequence[str]) -> Iterator[SpanTracer]:
    """Install the layer wrappers for the scope; restore the originals after."""
    undo: List[Tuple[object, str, object]] = []

    def patch(owner: object, attr: str, name: str, kind: str) -> None:
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind == "generator":
            replacement = _spanned_generator(tracer, name, original)
        else:
            hook = _maxflow_result_hook if kind == "maxflow" else None
            replacement = _spanned(tracer, name, original, hook)
        undo.append((owner, attr, original))
        setattr(owner, attr, replacement)

    try:
        for module_name, dotted, name, kind in LAYER_TARGETS:
            owner = importlib.import_module(module_name)
            *classes, attr = dotted.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            patch(owner, attr, name, kind)
        for cls, method in _decide_targets(policies):
            patch(cls, method, "policy.decide", "call")
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
