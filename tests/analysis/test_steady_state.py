"""Tests for the steady-state estimators (repro.analysis.steady_state)."""

import math

import numpy as np
import pytest

from repro.analysis import (
    analyse_stream,
    batch_means,
    detect_saturation,
    saturation_scan,
)
from repro.analysis.steady_state import SteadyStateEstimate, SteadyStateReport
from repro.exceptions import WorkloadError
from repro.heuristics import make_scheduler
from repro.simulation import StreamingSimulator
from repro.workload import StreamSpec, open_stream


class TestBatchMeans:
    def test_iid_sample_interval_contains_the_mean(self):
        rng = np.random.default_rng(1)
        series = rng.normal(5.0, 1.0, size=4000)
        estimate = batch_means(series, warmup_fraction=0.0, num_batches=20)
        assert estimate.lower <= 5.0 <= estimate.upper
        assert estimate.mean == pytest.approx(5.0, abs=0.2)
        assert estimate.half_width < 0.2

    def test_warmup_truncation_removes_the_transient(self):
        # A biased head followed by a stationary tail: truncation must
        # recover the tail mean.
        series = np.concatenate([np.full(500, 100.0), np.full(1500, 2.0)])
        biased = batch_means(series, warmup_fraction=0.0, num_batches=10)
        truncated = batch_means(series, warmup_fraction=0.25, num_batches=10)
        assert biased.mean > 20.0
        assert truncated.mean == pytest.approx(2.0)
        assert truncated.warmup_dropped == 500
        assert truncated.samples == 1500

    def test_batch_layout_accounting(self):
        estimate = batch_means(np.arange(100.0), warmup_fraction=0.0, num_batches=8)
        assert estimate.num_batches == 8
        assert estimate.batch_size == 12  # 100 // 8, remainder dropped
        assert estimate.samples == 100

    def test_tiny_samples_degrade_to_one_per_batch(self):
        estimate = batch_means([1.0, 2.0, 3.0], warmup_fraction=0.0, num_batches=16)
        assert estimate.num_batches == 3
        assert estimate.batch_size == 1
        assert math.isfinite(estimate.half_width)

    def test_empty_series_yields_an_infinite_interval_not_an_error(self):
        estimate = batch_means([], num_batches=8)
        assert math.isnan(estimate.mean)
        assert math.isinf(estimate.half_width)
        assert estimate.samples == 0

    def test_invalid_parameters_raise(self):
        with pytest.raises(WorkloadError):
            batch_means([1.0], warmup_fraction=1.0)
        with pytest.raises(WorkloadError):
            batch_means([1.0], num_batches=1)
        with pytest.raises(WorkloadError):
            batch_means([1.0], confidence=1.5)

    def test_round_trips_through_dict(self):
        estimate = batch_means(np.arange(64.0), num_batches=4)
        assert SteadyStateEstimate.from_dict(estimate.as_dict()) == estimate


class TestSaturationDetection:
    def test_flat_queue_is_not_saturated(self):
        rng = np.random.default_rng(2)
        assert not detect_saturation(rng.poisson(5.0, size=500))

    def test_growing_queue_is_saturated(self):
        assert detect_saturation(np.linspace(0, 400, 500))

    def test_short_series_never_trigger(self):
        assert not detect_saturation(np.linspace(0, 400, 10))

    def test_empty_system_never_triggers(self):
        # Means 0 -> 0.4: relative growth is large but absolute occupancy is
        # trivial; the +1 slack must keep it quiet.
        lengths = np.concatenate([np.zeros(200), np.full(200, 0.4)])
        assert not detect_saturation(lengths)

    def test_initial_transient_is_not_misreported(self):
        # A queue that rings up during warmup and then settles: MSER-5
        # truncates the transient (its optimal cut sits early, not in the
        # second half), so the stationary tail is not read as growth.  A
        # naive first-half/second-half mean comparison would flag this.
        rng = np.random.default_rng(7)
        transient = np.linspace(0.0, 30.0, 120)
        tail = 30.0 + rng.normal(0.0, 1.0, size=600)
        assert not detect_saturation(np.concatenate([transient, tail]))

    def test_noisy_ramp_is_still_flagged(self):
        # Sustained growth survives the noise: the MSER statistic keeps
        # improving as more of the ramp is cut, pushing the optimal
        # truncation into the second half of the batch series.
        rng = np.random.default_rng(8)
        ramp = np.linspace(0.0, 200.0, 600) + rng.normal(0.0, 3.0, size=600)
        assert detect_saturation(ramp)

    def test_recovered_busy_period_is_not_saturation(self):
        # A near-critical queue that builds mid-run and then drains: the
        # MSER cut lands late (the hump keeps the head noisy) but the
        # trajectory ends well below its peak — a busy period, not growth.
        hump = np.concatenate(
            [
                np.full(100, 5.0),
                np.linspace(5.0, 15.0, 100),
                np.linspace(15.0, 7.0, 150),
                np.full(50, 7.0),
            ]
        )
        assert not detect_saturation(hump)

    def test_occupancy_slack_guards_marginal_drift(self):
        # A late, sub-slack occupancy rise must stay quiet even when the
        # MSER cut lands late; raising the bar confirms the slack is the
        # deciding guard, not the truncation point.
        drift = np.concatenate([np.full(300, 5.0), np.full(100, 5.6)])
        assert not detect_saturation(drift)
        # Tightening the slack flips the verdict: the cut point was already
        # late, only the occupancy guard was holding it back.
        assert detect_saturation(drift, occupancy_slack=0.1)


class TestSaturationScan:
    """PR 8 satellite: the scan exposes the MSER-5 evidence behind the verdict."""

    def test_scan_verdict_always_equals_detect_saturation(self):
        # detect_saturation is now a projection of saturation_scan; sweep a
        # seeded zoo of trajectories (flat, ramps, humps, noise) to pin the
        # byte-identity of the verdict refactor.
        rng = np.random.default_rng(2005)
        series = [
            rng.poisson(5.0, size=400),
            np.linspace(0, 300, 400),
            np.concatenate([np.linspace(0, 30, 100), np.full(300, 30.0)]),
            np.concatenate([np.full(200, 4.0), np.linspace(4, 40, 200)]),
            rng.normal(10.0, 2.0, size=400).clip(min=0.0),
            np.zeros(400),
            np.linspace(0, 400, 10),
        ]
        for lengths in series:
            scan = saturation_scan(lengths)
            assert scan.saturated == detect_saturation(lengths)

    def test_scan_carries_the_evidence(self):
        scan = saturation_scan(np.linspace(0, 400, 500))
        assert scan.saturated
        assert scan.num_batches == 100
        assert scan.batch_size == 5
        assert scan.truncation is not None and scan.truncation > scan.num_batches // 2
        assert len(scan.trajectory) == scan.num_batches
        assert scan.final_occupancy > scan.early_occupancy
        # The trajectory is the batch-means series itself.
        assert scan.trajectory[0] == pytest.approx(np.linspace(0, 400, 500)[:5].mean())

    def test_short_series_scan_is_empty(self):
        scan = saturation_scan(np.linspace(0, 400, 10))
        assert not scan.saturated
        assert scan.truncation is None
        assert scan.trajectory == ()

    def test_long_trajectories_are_decimated_deterministically(self):
        lengths = np.linspace(0, 1000, 5000)  # 1000 batches
        first = saturation_scan(lengths)
        second = saturation_scan(lengths)
        assert len(first.trajectory) <= 160
        assert first == second

    def test_analyse_stream_surfaces_the_scan(self):
        spec = StreamSpec(label="a", scenario="small-cluster", seed=6).with_utilisation(0.6)
        result = StreamingSimulator().run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=1200
        )
        report = analyse_stream(result)
        scan = saturation_scan(result.queue_lengths)
        assert report.mser_truncation == scan.truncation
        assert report.occupancy_trajectory == scan.trajectory
        # Evidence only: the verdict bytes are unchanged by the fields.
        assert report.saturated == (result.saturated or scan.saturated)

    def test_stable_cell_spiking_at_the_cut_is_not_saturated(self):
        # A light cell (utilisation 0.35, peak 10 jobs) whose MSER cut lands
        # at batch 398 of 400 because its last batch spikes to the
        # trajectory maximum.  The guards read the mean of the final
        # num_batches // 20 batches, so a burst at the cut is not growth.
        spec = StreamSpec(
            label="replicated-portal-5", scenario="replicated-portal", seed=2737364336
        ).with_utilisation(0.5)
        result = StreamingSimulator().run(
            open_stream(spec), make_scheduler("greedy-weighted-flow"), max_arrivals=2000
        )
        scan = saturation_scan(result.queue_lengths)
        assert (scan.truncation, scan.num_batches) == (398, 400)
        assert not scan.saturated
        assert scan.final_occupancy < 0.8 * max(scan.trajectory)
        assert not analyse_stream(result).saturated

    def test_pre_pr8_payloads_still_round_trip(self):
        spec = StreamSpec(label="a", scenario="small-cluster", seed=6).with_utilisation(0.6)
        result = StreamingSimulator().run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=600
        )
        report = analyse_stream(result)
        payload = report.as_dict()
        del payload["mser_truncation"]
        del payload["occupancy_trajectory"]
        old = SteadyStateReport.from_dict(payload)
        assert old.mser_truncation is None
        assert old.occupancy_trajectory == ()
        assert old.saturated == report.saturated


class TestAnalyseStream:
    @pytest.fixture(scope="class")
    def stream_result(self):
        spec = StreamSpec(label="a", scenario="small-cluster", seed=6).with_utilisation(0.6)
        return StreamingSimulator().run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=1200
        )

    def test_report_fields_are_consistent(self, stream_result):
        report = analyse_stream(stream_result)
        assert report.policy == "srpt"
        assert report.completions == 1200
        assert not report.saturated
        assert report.mean_stretch.mean >= 1.0
        assert report.mean_stretch.half_width < report.mean_stretch.mean
        assert report.max_stretch >= report.mean_stretch.mean
        assert 0.0 < report.utilisation <= 1.0
        assert report.arrivals_per_second > 0

    def test_post_warmup_maxima_ignore_the_transient(self, stream_result):
        report = analyse_stream(stream_result, warmup_fraction=0.5)
        dropped = report.mean_stretch.warmup_dropped
        assert report.max_stretch == pytest.approx(
            float(stream_result.stretches[dropped:].max())
        )

    def test_report_round_trips_through_dict(self, stream_result):
        report = analyse_stream(stream_result)
        assert SteadyStateReport.from_dict(report.as_dict()) == report

    def test_saturated_run_is_flagged_in_the_report(self):
        spec = StreamSpec(label="a", scenario="small-cluster", seed=6).with_utilisation(1.6)
        result = StreamingSimulator(max_active=120).run(
            open_stream(spec), make_scheduler("srpt"), max_arrivals=50_000
        )
        report = analyse_stream(result)
        assert report.saturated
