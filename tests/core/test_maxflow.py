"""Unit tests for max-weighted-flow minimisation (Theorem 2 and Section 4.4)."""

from __future__ import annotations

import pytest

import math

from repro.core import (
    FeasibilityProbe,
    Instance,
    Job,
    check_deadline_feasibility,
    minimize_max_stretch,
    minimize_max_weighted_flow,
    minimize_max_weighted_flow_bisection,
    minimize_max_weighted_flow_preemptive,
)


class TestKnownOptima:
    def test_single_job_optimum_is_fluid_time(self, single_job_instance):
        result = minimize_max_weighted_flow(single_job_instance)
        assert result.objective == pytest.approx(3.0, abs=1e-6)
        result.schedule.validate()

    def test_single_job_with_weight(self):
        jobs = [Job("J", 2.0, weight=4.0)]
        costs = [[8.0]]
        result = minimize_max_weighted_flow(Instance.from_costs(jobs, costs))
        # Flow is 8 seconds, weighted flow is 32.
        assert result.objective == pytest.approx(32.0, abs=1e-6)

    def test_tiny_instance_reference_value(self, tiny_instance):
        # Reference optimum of the shared 3-job/2-machine fixture.
        result = minimize_max_weighted_flow(tiny_instance)
        assert result.objective == pytest.approx(10.0 / 3.0, abs=1e-6)
        result.schedule.validate()
        assert result.schedule.max_weighted_flow <= result.objective + 1e-5

    def test_two_identical_jobs_one_machine(self):
        # Both released at 0, unit weight, both need 2 seconds on the only
        # machine.  Any schedule finishes the pair at t = 4, so the optimal
        # max flow is 4 (the divisible model cannot do better on one machine).
        jobs = [Job("a", 0.0), Job("b", 0.0)]
        costs = [[2.0, 2.0]]
        result = minimize_max_weighted_flow(Instance.from_costs(jobs, costs))
        assert result.objective == pytest.approx(4.0, abs=1e-6)


class TestOptimalityCertificates:
    def test_schedule_achieves_the_reported_objective(self, random_instances):
        for instance in random_instances(count=4):
            result = minimize_max_weighted_flow(instance)
            result.schedule.validate()
            assert result.schedule.max_weighted_flow <= result.objective + 1e-5

    def test_objective_is_a_feasibility_threshold(self, tiny_instance):
        result = minimize_max_weighted_flow(tiny_instance)
        n = tiny_instance.num_jobs
        slightly_above = [
            job.deadline_for_flow(result.objective * (1 + 1e-6)) for job in tiny_instance.jobs
        ]
        slightly_below = [
            job.deadline_for_flow(result.objective * (1 - 1e-3)) for job in tiny_instance.jobs
        ]
        assert check_deadline_feasibility(tiny_instance, slightly_above, build_schedule=False).feasible
        assert not check_deadline_feasibility(
            tiny_instance, slightly_below, build_schedule=False
        ).feasible
        assert len(slightly_above) == n

    def test_bisection_agrees_with_milestone_search(self, random_instances):
        for instance in random_instances(count=3):
            exact = minimize_max_weighted_flow(instance).objective
            approx, _checks = minimize_max_weighted_flow_bisection(instance, precision=1e-5)
            assert approx >= exact - 1e-5
            assert approx <= exact + max(1e-4, 1e-3 * exact)

    def test_simplex_backend_agrees(self, tiny_instance):
        scipy_result = minimize_max_weighted_flow(tiny_instance, backend="scipy")
        simplex_result = minimize_max_weighted_flow(tiny_instance, backend="simplex")
        assert simplex_result.objective == pytest.approx(scipy_result.objective, abs=1e-6)

    def test_search_metadata_is_consistent(self, tiny_instance):
        result = minimize_max_weighted_flow(tiny_instance)
        low, high = result.search_range
        assert low <= result.objective + 1e-9
        if high is not None:
            assert result.objective <= high + 1e-9
        assert result.feasibility_checks >= 1
        assert result.lp_variables > 0


class TestSearchBookkeeping:
    def test_probe_budget_is_logarithmic(self, random_instances):
        # Regression for the old dead `leftmost_feasible = hi` bookkeeping:
        # the last milestone could be probed twice when feasible.  The fixed
        # search needs at most 1 (pre-check) + ceil(log2(milestones)) probes.
        for instance in random_instances(count=4):
            result = minimize_max_weighted_flow(instance)
            if len(result.milestones) > 1:
                budget = math.ceil(math.log2(len(result.milestones))) + 2
                assert result.feasibility_checks <= budget

    def test_no_milestone_is_probed_twice(self, random_instances):
        instance = next(iter(random_instances(count=1)))
        probe = FeasibilityProbe(instance)
        lp_probes = []
        original = probe._probe_lp
        probe._probe_lp = lambda objective: lp_probes.append(objective) or original(objective)
        minimize_max_weighted_flow(instance, probe=probe)
        assert len(lp_probes) == len(set(lp_probes))

    def test_model_constructions_never_exceed_probes(self, random_instances):
        for instance in random_instances(count=3):
            result = minimize_max_weighted_flow(instance)
            # One construction for the final range solve is always allowed on
            # top of at most one per probe.
            assert result.model_constructions <= result.feasibility_checks + 1
            assert result.lp_solves <= result.feasibility_checks + 1


class TestFeasibilityProbe:
    def test_probe_agrees_with_direct_feasibility_test(self, tiny_instance):
        probe = FeasibilityProbe(tiny_instance)
        exact = minimize_max_weighted_flow(tiny_instance).objective
        for factor in (0.5, 0.9, 1.1, 2.0, 10.0):
            objective = exact * factor
            deadlines = [job.deadline_for_flow(objective) for job in tiny_instance.jobs]
            direct = check_deadline_feasibility(
                tiny_instance, deadlines, build_schedule=False
            ).feasible
            assert probe.probe(objective) == direct

    def test_probe_memoises_repeated_objectives(self, tiny_instance):
        probe = FeasibilityProbe(tiny_instance)
        objective = 2.5
        first = probe.probe(objective)
        solves = probe.lp_solves
        assert probe.probe(objective) == first
        assert probe.lp_solves == solves
        assert probe.probes == 2

    def test_nonpositive_objectives_are_rejected_without_lp(self, tiny_instance):
        probe = FeasibilityProbe(tiny_instance)
        assert not probe.probe(0.0)
        assert not probe.probe(-1.0)
        assert probe.lp_solves == 0
        assert probe.model_constructions == 0

    def test_shared_probe_reuses_search_results(self, tiny_instance):
        probe = FeasibilityProbe(tiny_instance)
        result = minimize_max_weighted_flow(tiny_instance, probe=probe)
        solves = probe.lp_solves
        value, checks = minimize_max_weighted_flow_bisection(
            tiny_instance, precision=1e-5, probe=probe
        )
        # The search pinned the exact optimum; the bisection needs no new LPs.
        assert probe.lp_solves == solves
        assert checks > 0
        assert value >= result.objective - 1e-5
        assert value <= result.objective + 1e-4

    def test_pinned_optimum_matches_result(self, tiny_instance):
        probe = FeasibilityProbe(tiny_instance)
        result = minimize_max_weighted_flow(tiny_instance, probe=probe)
        pinned = probe.pinned_optimum()
        assert pinned is not None
        threshold, alloc, solution = pinned
        assert threshold == pytest.approx(result.objective, abs=1e-9)
        assert solution.is_optimal
        assert alloc.num_variables == result.lp_variables

    def test_probe_rejects_empty_instance(self):
        with pytest.raises(Exception):
            FeasibilityProbe(Instance.from_costs([], [[]]))

    def test_mismatched_probe_is_rejected(self, tiny_instance, single_job_instance):
        probe = FeasibilityProbe(tiny_instance)
        with pytest.raises(ValueError, match="different instance"):
            minimize_max_weighted_flow(single_job_instance, probe=probe)
        with pytest.raises(ValueError, match="preemptive"):
            minimize_max_weighted_flow(tiny_instance, preemptive=True, probe=probe)
        with pytest.raises(ValueError, match="backend"):
            minimize_max_weighted_flow_bisection(
                tiny_instance, backend="simplex", probe=probe
            )
        # Backend aliases are not a mismatch.
        minimize_max_weighted_flow(tiny_instance, backend="highs", probe=probe)

    def test_probe_with_simplex_backend(self, tiny_instance):
        probe = FeasibilityProbe(tiny_instance, backend="simplex")
        exact = minimize_max_weighted_flow(tiny_instance).objective
        assert probe.probe(exact * 1.5)
        assert not probe.probe(exact * 0.5)


class TestRangeCacheEviction:
    """The per-range parametric model cache honours its LRU size cap."""

    @staticmethod
    def _window_midpoints(probe):
        """Midpoints of every milestone range overlapping the probe's
        (analytic lower bound, trivial upper bound) window — the only values
        that can require an LP solve, hence a range model."""
        bounds = [0.0] + probe.milestones
        low, high = probe._strict_below, probe._feasible_min
        return [
            0.5 * (bounds[k] + bounds[k + 1])
            for k in range(len(bounds) - 1)
            if bounds[k + 1] > low and bounds[k] < high
        ]

    def test_cap_is_honoured_and_answers_are_unchanged(self):
        from repro.workload import random_unrelated_instance

        instance = random_unrelated_instance(8, 2, seed=7)
        capped = FeasibilityProbe(instance, max_cached_ranges=2)
        uncapped = FeasibilityProbe(instance)
        midpoints = self._window_midpoints(capped)
        assert len(midpoints) >= 4  # the fixture spans several ranges

        # Descending probes keep hitting fresh ranges until the optimum's
        # range is solved, so several models are built under the cap.
        for objective in reversed(midpoints):
            assert capped.probe(objective) == uncapped.probe(objective)
            assert capped.cached_range_count <= 2
        assert capped.model_constructions >= 3  # eviction actually happened
        assert capped.model_constructions == uncapped.model_constructions
        assert uncapped.cached_range_count == uncapped.model_constructions

        # Evicted ranges do not corrupt later answers.
        for objective in midpoints:
            assert capped.probe(objective) == uncapped.probe(objective)
        assert capped.cached_range_count <= 2

    def test_capped_probe_still_finds_the_exact_optimum(self):
        from repro.workload import random_unrelated_instance

        instance = random_unrelated_instance(8, 2, seed=7)
        reference = minimize_max_weighted_flow(instance)
        capped = FeasibilityProbe(instance, max_cached_ranges=1)
        result = minimize_max_weighted_flow(instance, probe=capped)
        assert result.objective == pytest.approx(reference.objective, abs=1e-9)
        assert capped.cached_range_count <= 1

    def test_invalid_cap_is_rejected(self, tiny_instance):
        with pytest.raises(ValueError):
            FeasibilityProbe(tiny_instance, max_cached_ranges=0)


class TestWeightsAndStretch:
    def test_weights_change_the_optimum(self):
        jobs_unit = [Job("a", 0.0, weight=1.0), Job("b", 0.0, weight=1.0)]
        jobs_skewed = [Job("a", 0.0, weight=1.0), Job("b", 0.0, weight=10.0)]
        costs = [[4.0, 4.0]]
        unit = minimize_max_weighted_flow(Instance.from_costs(jobs_unit, costs)).objective
        skewed = minimize_max_weighted_flow(Instance.from_costs(jobs_skewed, costs)).objective
        assert skewed > unit  # the heavy job forces a worse weighted flow

    def test_heavier_job_finishes_earlier(self):
        jobs = [Job("light", 0.0, weight=1.0), Job("heavy", 0.0, weight=5.0)]
        costs = [[4.0, 4.0]]
        result = minimize_max_weighted_flow(Instance.from_costs(jobs, costs))
        schedule = result.schedule
        assert schedule.completion_time(1) < schedule.completion_time(0)

    def test_max_stretch_uses_inverse_size_weights(self):
        jobs = [Job("small", 0.0, size=2.0), Job("big", 0.0, size=8.0)]
        costs = [[2.0, 8.0]]
        result = minimize_max_stretch(Instance.from_costs(jobs, costs))
        result.schedule.validate()
        # The stretch-weighted optimum equalises stretches; both jobs share
        # the machine and the max stretch is well below the FIFO value of
        # (2+8)/8 vs 2/2... check it is at least 1 and achieved.
        assert result.objective >= 1.0 - 1e-9
        assert result.schedule.max_stretch <= result.objective + 1e-4

    def test_max_stretch_without_sizes_falls_back_to_min_cost(self, tiny_instance):
        result = minimize_max_stretch(tiny_instance)
        result.schedule.validate()
        assert result.objective > 0


class TestPreemptiveMaxFlow:
    def test_preemptive_never_beats_divisible(self, random_instances):
        for instance in random_instances(count=3):
            divisible = minimize_max_weighted_flow(instance).objective
            preemptive = minimize_max_weighted_flow_preemptive(instance).objective
            assert preemptive >= divisible - 1e-6

    def test_preemptive_schedule_is_valid_and_achieves_objective(self, batch_instance):
        result = minimize_max_weighted_flow_preemptive(batch_instance)
        assert result.schedule.divisible is False
        result.schedule.validate()
        assert result.schedule.max_weighted_flow <= result.objective + 1e-5

    def test_single_job_preemptive_equals_fastest_machine(self, single_job_instance):
        result = minimize_max_weighted_flow_preemptive(single_job_instance)
        assert result.objective == pytest.approx(4.0, abs=1e-5)

    def test_preemptive_equals_divisible_on_single_machine(self):
        # With one machine divisibility buys nothing.
        jobs = [Job("a", 0.0, weight=2.0), Job("b", 1.0, weight=1.0), Job("c", 3.0, weight=1.0)]
        costs = [[2.0, 3.0, 1.0]]
        instance = Instance.from_costs(jobs, costs)
        divisible = minimize_max_weighted_flow(instance).objective
        preemptive = minimize_max_weighted_flow_preemptive(instance).objective
        assert preemptive == pytest.approx(divisible, abs=1e-5)


class TestEdgeCases:
    def test_all_jobs_identical(self):
        jobs = [Job(f"J{k}", 0.0) for k in range(4)]
        costs = [[2.0] * 4, [2.0] * 4]
        result = minimize_max_weighted_flow(Instance.from_costs(jobs, costs))
        result.schedule.validate()
        assert result.objective == pytest.approx(4.0, abs=1e-6)

    def test_widely_spaced_release_dates(self):
        jobs = [Job("a", 0.0), Job("b", 1000.0)]
        costs = [[5.0, 5.0]]
        result = minimize_max_weighted_flow(Instance.from_costs(jobs, costs))
        # The jobs never interact: each has flow 5.
        assert result.objective == pytest.approx(5.0, abs=1e-6)

    def test_restricted_availability_instance(self, restricted_instance):
        result = minimize_max_weighted_flow(restricted_instance)
        result.schedule.validate()
        # No piece may run on a machine that lacks the databank.
        for piece in result.schedule.pieces:
            assert restricted_instance.cost(piece.machine_index, piece.job_index) != float("inf")
