"""Tiny-scale smoke twins of the bench assertion paths (``bench_smoke`` tier).

The acceptance benches under ``benchmarks/`` are tier-2: they only run when
selected explicitly (``-m bench``), so a refactor that breaks a bench
*assertion* — not just its numbers — used to surface only at the PR gate.
Each test here exercises one bench's assertion path on toy sizes, cheap
enough for tier-1: engine byte-identity, replanning probe economy, streamed
vs sequential campaign identity, store resume skip rate, and the streaming
runtime's O(active) window bound.

These are smoke tests, not benches: they assert *correctness conditions*
(identity, counters, bounds), never wall-clock performance.
"""

from __future__ import annotations

import os
import sys

import pytest

#: The bench modules import each other by bare name from their directory.
_BENCH_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..", "benchmarks")
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)

pytestmark = pytest.mark.bench_smoke


def test_engine_regression_smoke():
    """bench_engine_regression: kernel output equals the frozen seed engine."""
    from _seed_engine import simulate as seed_simulate

    from repro.heuristics import make_scheduler
    from repro.simulation import SimulationKernel
    from repro.workload import random_unrelated_instance

    instance = random_unrelated_instance(8, 3, seed=1)
    kernel = SimulationKernel()
    for policy in ("fifo", "srpt", "round-robin"):
        seed_result = seed_simulate(instance, make_scheduler(policy))
        kernel_result = kernel.run(instance, make_scheduler(policy))
        assert kernel_result.schedule.pieces == seed_result.schedule.pieces, policy
        assert kernel_result.completion_times == seed_result.completion_times, policy


def test_replanning_probe_smoke():
    """bench_replanning: probe path is byte-identical and builds fewer models."""
    from repro.heuristics import OnlineOfflineAdaptationScheduler
    from repro.simulation import simulate
    from repro.workload import random_unrelated_instance

    instance = random_unrelated_instance(
        8, 3, cost_range=(2.0, 12.0), forbidden_probability=0.0, seed=7
    )
    scratch_sched = OnlineOfflineAdaptationScheduler(parametric=False)
    probe_sched = OnlineOfflineAdaptationScheduler(parametric=True)
    scratch = simulate(instance, scratch_sched)
    probed = simulate(instance, probe_sched)
    assert probed.schedule.pieces == scratch.schedule.pieces
    assert probed.events == scratch.events
    assert probe_sched.replanning_model_builds < scratch_sched.replanning_model_builds


def test_campaign_dispatcher_smoke():
    """bench_campaign_dispatcher: streamed records equal the sequential run."""
    from repro.analysis import run_scenario_campaign

    sequential = run_scenario_campaign(
        ("unrelated-stress",), ("srpt", "mct"), base_seed=11, seeds_per_scenario=2
    )
    chunked = run_scenario_campaign(
        ("unrelated-stress",),
        ("srpt", "mct"),
        base_seed=11,
        seeds_per_scenario=2,
        chunk_size=2,
        max_inflight=2,
    )
    assert chunked.records == sequential.records
    assert sequential.stats.offline_solves == sequential.stats.workloads


def test_store_roundtrip_smoke(tmp_path):
    """bench_store_roundtrip: a warm re-run resumes at a 100% skip rate."""
    from repro.analysis import run_scenario_campaign

    path = tmp_path / "smoke.sqlite"
    cold = run_scenario_campaign(
        ("unrelated-stress",), ("srpt",), base_seed=3, store=path, run_label="cold"
    )
    warm = run_scenario_campaign(
        ("unrelated-stress",),
        ("srpt",),
        base_seed=3,
        store=path,
        resume=True,
        run_label="warm",
    )
    assert warm.stats.resume_skip_rate == 1.0
    assert warm.records == cold.records
    assert warm.stats.offline_solves == 0


def test_streaming_runtime_smoke():
    """bench_streaming: deterministic O(active) windows on a small stream."""
    from repro.heuristics import make_scheduler
    from repro.simulation import StreamingSimulator
    from repro.workload import StreamSpec, open_stream

    spec = StreamSpec(label="smoke", scenario="small-cluster", seed=1).with_utilisation(0.6)
    first = StreamingSimulator().run(open_stream(spec), make_scheduler("srpt"), max_arrivals=400)
    second = StreamingSimulator().run(open_stream(spec), make_scheduler("srpt"), max_arrivals=400)
    assert first.completions == 400
    assert first.peak_window <= 2 * first.peak_active + 16
    assert first.fingerprint() == second.fingerprint()


def test_rank_keyed_probe_smoke():
    """bench_replanning rank-keyed assertion: hit rate rises, schedules equal."""
    from repro.heuristics import DeadlineDrivenScheduler
    from repro.simulation import simulate_many
    from repro.workload import random_unrelated_instance

    instances = [
        random_unrelated_instance(8, 3, forbidden_probability=0.0, seed=s) for s in range(3)
    ]
    plain_sched = DeadlineDrivenScheduler(lp_targets=True, rank_keyed_probe=False)
    ranked_sched = DeadlineDrivenScheduler(lp_targets=True, rank_keyed_probe=True)
    plain = simulate_many(instances, plain_sched)
    ranked = simulate_many(instances, ranked_sched)
    for a, b in zip(plain, ranked):
        assert a.schedule.pieces == b.schedule.pieces
    assert (
        ranked_sched.replan_probe.model_constructions
        <= plain_sched.replan_probe.model_constructions
    )


def test_revised_simplex_smoke(monkeypatch):
    """bench_lp_backends: the revised-simplex assertion path at toy size.

    The tier-2 bench asserts the revised solver beats the dense tableau on
    the big lowering LP; tier-1 never times anything, so this twin pins the
    structural claims that speed rests on: the revised solve consumes the
    sparse System (3) lowering *without densifying it* and agrees with both
    scipy and the frozen tableau on the objective.
    """
    from bench_lp_backends import _largest_bench_alloc

    from repro.lp.revised_simplex import solve_matrix_form_revised
    from repro.lp.scipy_backend import solve_matrix_form as scipy_solve
    from repro.lp.simplex import solve_matrix_form_tableau
    from repro.lp.standard_form import MatrixForm

    # (6, 3) lands on an infeasible milestone range, (12, 4) on a feasible
    # one: both verdicts must agree with scipy before any timing means much.
    infeasible_form = _largest_bench_alloc(6, 3).form
    assert (
        solve_matrix_form_revised(infeasible_form).solution.status
        is scipy_solve(infeasible_form).status
    )

    sparse_form = _largest_bench_alloc(12, 4).form
    assert sparse_form.is_sparse
    tableau = solve_matrix_form_tableau(sparse_form.densified())
    reference = scipy_solve(sparse_form)

    monkeypatch.setattr(
        MatrixForm,
        "densified",
        lambda self: (_ for _ in ()).throw(
            AssertionError("revised simplex must not densify")
        ),
    )
    revised = solve_matrix_form_revised(sparse_form)
    assert revised.solution.is_optimal
    for other in (tableau, reference):
        assert abs(
            revised.solution.objective_value - other.objective_value
        ) <= 1e-6 * (1.0 + abs(other.objective_value))


def test_lp_warm_start_smoke():
    """bench_replanning warm-start identity: warm probes equal cold answers.

    The tier-2 bench asserts the >= 2x replanning speedup; this twin pins
    the identity contract underneath it: a ``revised``-backed probe re-solving
    a drifting objective sequence must (a) actually hit the warm-start path
    and (b) return the same verdicts as the scipy-backed from-scratch
    reference at every step.
    """
    from repro.core import check_deadline_feasibility
    from repro.core.replanning import ReplanProbe
    from repro.obs.metrics import MetricsRecorder, install_recorder
    from repro.workload import random_unrelated_instance

    instance = random_unrelated_instance(6, 3, forbidden_probability=0.0, seed=5)
    probe = ReplanProbe(backend="revised")
    recorder = MetricsRecorder()
    previous = install_recorder(recorder)
    try:
        for objective in (5.0, 8.0, 12.0, 20.0, 35.0, 60.0):
            deadlines = [job.release_date + objective for job in instance.jobs]
            warm = probe.check(instance, deadlines, build_schedule=False)
            scratch = check_deadline_feasibility(
                instance, deadlines, build_schedule=False, backend="scipy"
            )
            assert warm.feasible == scratch.feasible, objective
    finally:
        install_recorder(previous)
    counters = recorder.snapshot()["counters"]
    assert counters.get("lp.warm_start_hits", 0.0) > 0
    assert counters["lp.solves"] > counters["lp.cold_solves"]


def test_quick_bench_lp_row_smoke():
    """run_quick_bench.bench_lp_warm_start: the LP row's asserts hold at toy size.

    The tier-2 speedup floor stays in ``bench_replanning.py``; this twin
    pins the row's structure: the kept-alive fast path dominates (more warm
    hits than cold solves), the per-phase timings include the warm dual
    re-solve, and the counters are mutually consistent.
    """
    import importlib

    module = importlib.import_module("run_quick_bench")
    row = module.bench_lp_warm_start(num_jobs=8)
    assert row["warm_start_hits"] > row["cold_solves"] > 0
    assert 0.0 < row["warm_hit_rate"] <= 1.0
    assert row["pivots"] > 0
    assert "revised.dual" in row["phase_seconds"]
    assert row["lp_solves"] >= row["warm_start_hits"] + row["cold_solves"]


def test_obs_overhead_smoke():
    """bench_obs_overhead: the structural zero-overhead contract at toy size.

    The wall-clock ≤ 3 % bound stays in tier-2 (bench_smoke never asserts
    timing); what this twin pins down is the *structure* that bound rests
    on: a disabled sink is never called at all, aggregate recorder traffic
    is constant in the arrival count, and results and traces are identical
    with obs on or off.
    """
    from repro.heuristics import make_scheduler
    from repro.obs import NullRecorder, collecting, trace_stream_result
    from repro.simulation import StreamingSimulator
    from repro.workload import StreamSpec, open_stream

    class Spy(NullRecorder):
        def __init__(self, enabled):
            self.enabled = enabled
            self.aggregate_calls = 0
            self.observe_calls = 0

        def count(self, name, value=1.0):
            self.aggregate_calls += 1

        def gauge(self, name, value):
            self.aggregate_calls += 1

        def observe(self, name, value):
            self.observe_calls += 1

    spec = StreamSpec(label="obs", scenario="small-cluster", seed=1).with_utilisation(0.6)

    # A disabled sink sees zero calls, regardless of the stream's length.
    aggregates = {}
    for arrivals in (100, 400):
        off_spy = Spy(enabled=False)
        StreamingSimulator(recorder=off_spy).run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=arrivals
        )
        assert off_spy.aggregate_calls == 0
        assert off_spy.observe_calls == 0

        on_spy = Spy(enabled=True)
        StreamingSimulator(recorder=on_spy).run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=arrivals
        )
        aggregates[arrivals] = on_spy.aggregate_calls
    # O(1) aggregate traffic: same count/gauge calls at 4x the stream.
    assert aggregates[100] == aggregates[400] > 0

    # Results and traces are identical with obs off and on.
    plain = StreamingSimulator().run(
        open_stream(spec), make_scheduler("srpt"), max_arrivals=400
    )
    with collecting() as recorder:
        observed = StreamingSimulator().run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=400
        )
    assert observed.fingerprint() == plain.fingerprint()
    assert trace_stream_result(observed).to_jsonl() == trace_stream_result(plain).to_jsonl()
    assert recorder.snapshot()["counters"]["stream.arrivals"] == 400.0


def test_quick_bench_journal_row_smoke():
    """run_quick_bench.bench_journal: the flight-recorder row at toy size.

    The ≥ 97 % journal-on/off throughput floor stays in the tier-2 bench
    invocation (bench_smoke never asserts timing); this twin runs the row
    with a deliberately slack floor and pins its structure: records are
    byte-identical with the journal attached, every journal line parses
    (no torn tail), and the folded fleet status accounts for every cell.
    """
    import importlib

    module = importlib.import_module("run_quick_bench")
    row = module.bench_journal(seeds_per_scenario=1, repeats=1, ratio_floor=0.25)
    assert row["records_identical"] is True
    assert row["journal_truncated_lines"] == 0
    assert row["journal_events_per_second"] > 0
    assert row["journal_events"] > row["journal_cells"] > 0
    assert row["enabled_over_disabled_ratio"] >= 0.25


def test_quick_bench_stream_row_smoke():
    """run_quick_bench.bench_stream: the streaming row's asserts hold at toy size.

    This is the tier-1 twin of the streaming-speed acceptance: both engines
    run, the results are byte-identical, and the zero-copy view path beats
    the legacy rebuild loop even on a 300-arrival stream (the floor is
    deliberately slack — startup noise dominates toy runs; the real ≥ 4×
    floor lives in ``bench_streaming.py``).
    """
    import importlib

    module = importlib.import_module("run_quick_bench")
    record = module.bench_stream(arrivals=300, speed_floor=1.5)
    assert record["arrivals"] == 300
    assert record["saturated"] is False
    assert record["peak_window"] <= 2 * record["peak_active"] + 16
    assert record["arrivals_per_second"] > 0
    assert record["engines_identical"] is True
    assert record["engine_speed_ratio"] >= 1.5
    assert record["legacy_arrivals_per_second"] > 0
