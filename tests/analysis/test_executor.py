"""The cell-executor contract shared by campaigns and stream sweeps.

Both drivers run their cells through one executor, so these tests pin what
that executor must keep identical for either of them: the sequential
journal event sequence (wall-clock fields aside), the stored rows at any
worker count, and the state an aborted run leaves behind for resume.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis import (
    CampaignStats,
    WorkloadSpec,
    run_policy_campaign,
    run_stream_sweep,
    stream_campaign,
)
from repro.obs import read_journal
from repro.store import ExperimentStore
from repro.workload import StreamSpec, random_restricted_instance, scenario_grid

SWEEP_SPEC = StreamSpec(label="sweep", scenario="small-cluster", seed=5)

#: Journal fields that carry wall-clock time, pids or random run ids.
VOLATILE_FIELDS = ("ts", "elapsed", "worker", "run")


def _events(path):
    """The journal as comparable tuples, one per event (volatile fields out)."""
    shaped = []
    for event in read_journal(path):
        fields = {k: v for k, v in event.items() if k not in VOLATILE_FIELDS + ("seq",)}
        assert fields.pop("v") == 1
        name = fields.pop("event")
        if name == "run-started":
            shaped.append((name, fields.pop("kind"), fields.pop("label"), fields.pop("config")))
        elif name == "run-finished":
            shaped.append((name, fields.pop("status"), fields.pop("records")))
        else:
            shaped.append(
                (
                    name,
                    fields.pop("cell"),
                    fields.pop("workload"),
                    fields.pop("item"),
                    tuple(fields.pop("policies")),
                    fields.pop("cells", None),
                )
            )
        assert not fields, f"unexpected journal fields {fields}"
    return shaped


def _campaign_instances():
    return [random_restricted_instance(4, 2, seed=seed) for seed in range(2)]


def _run_campaign(policies, **kwargs):
    return run_policy_campaign(_campaign_instances(), policies=policies, **kwargs)


def _run_sweep(policies, **kwargs):
    kwargs.setdefault("max_arrivals", 200)
    return run_stream_sweep(SWEEP_SPEC, policies, rhos=(0.3, 0.7), **kwargs)


class TestSequentialJournal:
    def test_campaign_cold_and_resumed_event_sequence(self, tmp_path):
        journal, store = tmp_path / "run.jsonl", tmp_path / "run.sqlite"
        _run_campaign(("mct",), store=store, journal=journal, run_label="cold")
        _run_campaign(
            ("mct", "fifo"), store=store, journal=journal, resume=True, run_label="warm"
        )
        config = dict(chunk_size=1, include_offline=True, max_workers=None)
        both = ("offline-optimal", "mct")
        assert _events(journal) == [
            ("run-started", "campaign", "cold",
             dict(config, policies=["mct"], resume=False, store_run_id=1, total_cells=4)),
            ("cell-dispatched", "workload 0#0", "workload 0", 0, both, None),
            ("cell-completed", "workload 0#0", "workload 0", 0, both, 2),
            ("cell-dispatched", "workload 1#1", "workload 1", 1, both, None),
            ("cell-completed", "workload 1#1", "workload 1", 1, both, 2),
            ("run-finished", "completed", 4),
            ("run-started", "campaign", "warm",
             dict(config, policies=["mct", "fifo"], resume=True, store_run_id=2,
                  total_cells=6)),
            ("cell-skipped", "workload 0#0", "workload 0", 0, both, 2),
            ("cell-dispatched", "workload 0#1", "workload 0", 1, ("fifo",), None),
            ("cell-completed", "workload 0#1", "workload 0", 1, ("fifo",), 1),
            ("cell-skipped", "workload 1#2", "workload 1", 2, both, 2),
            ("cell-dispatched", "workload 1#3", "workload 1", 3, ("fifo",), None),
            ("cell-completed", "workload 1#3", "workload 1", 3, ("fifo",), 1),
            ("run-finished", "completed", 6),
        ]

    def test_sweep_cold_and_resumed_event_sequence(self, tmp_path):
        journal, store = tmp_path / "run.jsonl", tmp_path / "run.sqlite"
        _run_sweep(("srpt",), store=store, journal=journal)
        _run_sweep(("srpt", "mct"), store=store, journal=journal, resume=True)
        config = dict(max_arrivals=200, max_workers=None, rhos=[0.3, 0.7])
        low, high = "sweep@rho=0.30", "sweep@rho=0.70"
        assert _events(journal) == [
            ("run-started", "stream-sweep", "sweep",
             dict(config, policies=["srpt"], resume=False, store_run_id=1, total_cells=2)),
            ("cell-dispatched", f"{low}/srpt", low, 0, ("srpt",), None),
            ("cell-completed", f"{low}/srpt", low, 0, ("srpt",), 1),
            ("cell-dispatched", f"{high}/srpt", high, 1, ("srpt",), None),
            ("cell-completed", f"{high}/srpt", high, 1, ("srpt",), 1),
            ("run-finished", "completed", 2),
            ("run-started", "stream-sweep", "sweep",
             dict(config, policies=["srpt", "mct"], resume=True, store_run_id=2,
                  total_cells=4)),
            ("cell-skipped", f"{low}/srpt", low, 0, ("srpt",), 1),
            ("cell-dispatched", f"{low}/mct", low, 0, ("mct",), None),
            ("cell-completed", f"{low}/mct", low, 0, ("mct",), 1),
            ("cell-skipped", f"{high}/srpt", high, 1, ("srpt",), 1),
            ("cell-dispatched", f"{high}/mct", high, 1, ("mct",), None),
            ("cell-completed", f"{high}/mct", high, 1, ("mct",), 1),
            ("run-finished", "completed", 4),
        ]


def _row_content(row):
    """A stored row minus its run id and the report's wall-clock throughput."""
    content = dataclasses.asdict(row)
    content.pop("run_id")
    if content["extra"] is not None:
        report = dict(content["extra"]["report"])
        report.pop("arrivals_per_second")
        content["extra"] = dict(content["extra"], report=report)
    return content


@pytest.mark.parametrize("driver", ["campaign", "sweep"])
def test_parallel_stored_rows_match_sequential(tmp_path, driver):
    run = _run_campaign if driver == "campaign" else _run_sweep
    policies = ("mct", "fifo") if driver == "campaign" else ("srpt", "greedy-weighted-flow")
    rows = {}
    for name, workers in (("seq", None), ("par", 2)):
        path = tmp_path / f"{name}.sqlite"
        result = run(policies, store=path, run_label=name, max_workers=workers)
        assert result.stats.max_workers == workers
        with ExperimentStore(path) as store:
            rows[name] = [_row_content(row) for row in store.run_records(name)]
    assert len(rows["seq"]) == (6 if driver == "campaign" else 4)
    assert rows["par"] == rows["seq"]


def _run_state(store_path, journal_path):
    """(completed flag of the store run, journal run-finished status) of run 1."""
    with ExperimentStore(store_path) as store:
        completed = store.runs()[0].completed
    finished = [e for e in read_journal(journal_path) if e["event"] == "run-finished"]
    return completed, finished[0]["status"]


class TestAbortedRuns:
    def test_cell_raising_mid_sweep_aborts_and_resume_tops_up(self, tmp_path, monkeypatch):
        import repro.analysis.stream_sweep as sweep_module

        store, journal = tmp_path / "sweep.sqlite", tmp_path / "sweep.jsonl"
        policies = ("srpt", "mct")
        real = sweep_module.analyse_stream
        calls = []

        def failing_third_cell(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("cell failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "analyse_stream", failing_third_cell)
        with pytest.raises(RuntimeError, match="cell failed"):
            _run_sweep(policies, store=store, journal=journal)
        monkeypatch.undo()
        assert _run_state(store, journal) == (False, "aborted")

        resumed = _run_sweep(policies, store=store, resume=True)
        assert resumed.stats.resumed_cells == 2
        assert resumed.stats.computed_cells == 2
        reference = _run_sweep(policies)
        assert [(r.workload, r.policy) for r in resumed.records] == [
            (r.workload, r.policy) for r in reference.records
        ]

    def test_parallel_campaign_closed_early_aborts_and_resume_tops_up(self, tmp_path):
        store, journal = tmp_path / "campaign.sqlite", tmp_path / "campaign.jsonl"
        grid = scenario_grid(("unrelated-stress",), base_seed=11, seeds_per_scenario=3)
        specs = [WorkloadSpec.from_scenario(spec) for spec in grid]
        policies = ("mct", "fifo")
        reference = list(stream_campaign(specs, policies))

        stream = stream_campaign(specs, policies, store=store, journal=journal, max_workers=2)
        partial = [next(stream) for _ in range(4)]
        stream.close()
        assert partial == reference[:4]
        assert _run_state(store, journal) == (False, "aborted")

        stats = CampaignStats()
        resumed = list(
            stream_campaign(specs, policies, store=store, resume=True, stats=stats)
        )
        assert resumed == reference
        assert stats.resumed_records == 4
        assert stats.computed_records == len(reference) - 4
