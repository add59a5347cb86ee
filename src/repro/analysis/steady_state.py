"""Steady-state metric estimation over streaming simulations.

A rolling-horizon run (:class:`~repro.simulation.stream.StreamResult`)
produces per-completion metric *series* rather than a single schedule, and
the quantity of interest is the **steady-state** behaviour — what the paper's
portal sees under sustained load — not the transient of the first arrivals.
This module supplies the standard simulation-output machinery:

* **Warmup truncation** — the first ``warmup_fraction`` of completions is
  discarded (the initial transient: an empty system filling up biases every
  mean downward).
* **Batch-means confidence intervals** — the truncated series is cut into
  ``num_batches`` equal batches; batch means of a (weakly dependent)
  stationary series are approximately i.i.d., so a Student-t interval over
  them gives an honest half-width despite the autocorrelation of the raw
  per-job values.
* **Saturation detection** — a super-critical stream has no steady state:
  its queue grows without bound and every estimate is meaningless.  The
  simulator flags hard saturation (queue cap exceeded); here the recorded
  queue-length trajectory is additionally put through MSER-5
  initialisation-bias truncation, and a run whose optimal truncation point
  falls in the second half of the trajectory (the rule's "no steady state
  detected" verdict) is flagged instead of reported as converged — without
  mistaking a long warmup transient for drift.

:func:`analyse_stream` bundles the three into a :class:`SteadyStateReport`
(the payload the streaming load-sweep campaigns persist into the experiment
store).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy import stats as _scipy_stats

from ..exceptions import WorkloadError
from ..simulation.stream import StreamResult

__all__ = [
    "SaturationScan",
    "SteadyStateEstimate",
    "SteadyStateReport",
    "analyse_stream",
    "batch_means",
    "detect_saturation",
    "saturation_scan",
]

#: Reported occupancy trajectories are decimated beyond this many points
#: (report/``records.extra`` hygiene; the verdict always sees every batch).
_SCAN_TRAJECTORY_CAP = 160


def _as_float_array(series: Sequence[float]) -> np.ndarray:
    """Float view of ``series`` without round-tripping ndarrays through a list."""
    if isinstance(series, np.ndarray):
        return series.astype(float, copy=False)
    return np.asarray(list(series), dtype=float)


@dataclass(frozen=True)
class SteadyStateEstimate:
    """A batch-means point estimate with its confidence half-width.

    Attributes
    ----------
    metric:
        Name of the estimated quantity (``"mean_stretch"``, ...).
    mean:
        Point estimate: the grand mean of the post-warmup batch means.
    half_width:
        Student-t half-width of the ``confidence`` interval over the batch
        means (``inf`` when fewer than two batches were available).
    confidence:
        Confidence level of the interval.
    num_batches, batch_size:
        Batch-means layout actually used.
    samples:
        Post-warmup samples the estimate is built from.
    warmup_dropped:
        Samples discarded as warmup.
    """

    metric: str
    mean: float
    half_width: float
    confidence: float
    num_batches: int
    batch_size: int
    samples: int
    warmup_dropped: int

    @property
    def lower(self) -> float:
        """Lower confidence bound."""
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        """Upper confidence bound."""
        return self.mean + self.half_width

    def as_dict(self) -> Dict:
        """JSON-friendly view (round-trips through :meth:`from_dict`)."""
        return {
            "metric": self.metric,
            "mean": self.mean,
            "half_width": self.half_width,
            "confidence": self.confidence,
            "num_batches": self.num_batches,
            "batch_size": self.batch_size,
            "samples": self.samples,
            "warmup_dropped": self.warmup_dropped,
        }

    @staticmethod
    def from_dict(data: Dict) -> "SteadyStateEstimate":
        """Rebuild an estimate from :meth:`as_dict` output."""
        return SteadyStateEstimate(
            metric=str(data["metric"]),
            mean=float(data["mean"]),
            half_width=float(data["half_width"]),
            confidence=float(data["confidence"]),
            num_batches=int(data["num_batches"]),
            batch_size=int(data["batch_size"]),
            samples=int(data["samples"]),
            warmup_dropped=int(data["warmup_dropped"]),
        )


def batch_means(
    series: Sequence[float],
    *,
    metric: str = "value",
    warmup_fraction: float = 0.25,
    num_batches: int = 16,
    confidence: float = 0.95,
) -> SteadyStateEstimate:
    """Batch-means estimate of the steady-state mean of ``series``.

    The first ``warmup_fraction`` of the series is discarded; the remainder
    is cut into ``num_batches`` equal batches (a trailing remainder shorter
    than a batch is dropped) and a Student-t confidence interval is computed
    over the batch means.  Degenerate inputs degrade gracefully: with fewer
    than two non-empty batches the half-width is infinite rather than an
    error, so saturated or tiny runs still produce a report.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise WorkloadError("warmup_fraction must be in [0, 1)")
    if num_batches < 2:
        raise WorkloadError("batch means need at least two batches")
    if not 0.0 < confidence < 1.0:
        raise WorkloadError(f"confidence must be in (0, 1), got {confidence}")
    values = _as_float_array(series)
    dropped = int(values.size * warmup_fraction)
    kept = values[dropped:]
    if kept.size == 0:
        return SteadyStateEstimate(
            metric=metric,
            mean=math.nan,
            half_width=math.inf,
            confidence=confidence,
            num_batches=0,
            batch_size=0,
            samples=0,
            warmup_dropped=dropped,
        )
    batch_size = kept.size // num_batches
    if batch_size == 0:
        # Too few samples for the requested layout: one sample per batch.
        batch_size = 1
        num_batches = kept.size
    used = kept[: num_batches * batch_size]
    means = used.reshape(num_batches, batch_size).mean(axis=1)
    grand_mean = float(means.mean())
    if num_batches < 2:
        half_width = math.inf
    else:
        sem = float(means.std(ddof=1) / math.sqrt(num_batches))
        quantile = float(_scipy_stats.t.ppf(0.5 + confidence / 2.0, num_batches - 1))
        half_width = quantile * sem
    return SteadyStateEstimate(
        metric=metric,
        mean=grand_mean,
        half_width=half_width,
        confidence=confidence,
        num_batches=num_batches,
        batch_size=batch_size,
        samples=int(kept.size),
        warmup_dropped=dropped,
    )


@dataclass(frozen=True)
class SaturationScan:
    """Full outcome of one MSER-5 saturation scan (verdict + evidence).

    :func:`detect_saturation` historically returned only the boolean and
    discarded the truncation point and the batch-means trajectory; this
    carries them so reports (and ``repro-sched obs report``) can show *why*
    a run was or wasn't flagged.  The verdict logic is byte-identical to
    the boolean-only rule.

    Attributes
    ----------
    saturated:
        The verdict (exactly :func:`detect_saturation`'s return value).
    truncation:
        MSER-5 optimal truncation point ``d*`` (batch index), or ``None``
        when the trajectory was too short to scan.
    num_batches, batch_size:
        Batch layout of the scan (``num_batches`` is 0 when unscanned).
    trajectory:
        The MSER-5 batch-means occupancy trajectory (decimated beyond
        ``_SCAN_TRAJECTORY_CAP`` points), as plain floats.
    early_occupancy, final_occupancy:
        The occupancy-guard operands: mean of the first-quarter batches
        and mean of the final ``max(1, num_batches // 20)`` batches (both
        0.0 when unscanned).
    """

    saturated: bool
    truncation: Optional[int]
    num_batches: int
    batch_size: int
    trajectory: Tuple[float, ...]
    early_occupancy: float
    final_occupancy: float


def _decimated(batches: np.ndarray) -> Tuple[float, ...]:
    """Stride-decimate a batch-means trajectory to the reporting cap."""
    stride = 1
    while batches.size // stride > _SCAN_TRAJECTORY_CAP:
        stride *= 2
    return tuple(float(v) for v in batches[::stride])


def _unscanned(saturated: bool = False) -> SaturationScan:
    return SaturationScan(
        saturated=saturated,
        truncation=None,
        num_batches=0,
        batch_size=0,
        trajectory=(),
        early_occupancy=0.0,
        final_occupancy=0.0,
    )


def saturation_scan(
    queue_lengths: Sequence[float],
    *,
    batch_size: int = 5,
    min_samples: int = 24,
    occupancy_slack: float = 1.0,
) -> SaturationScan:
    """MSER-5 unbounded-growth test on a queue-length trajectory.

    The marginal standard error rule (White 1997; the MSER-5 variant
    averages the series into non-overlapping batches of five) picks the
    truncation point ``d*`` minimising the marginal standard error of the
    retained batch means,

    ``z(d) = sum_{i>d} (Y_i - mean(Y_{d:}))^2 / (m - d)^2``.

    A trajectory that is stationary after an initial transient puts ``d*``
    in the first half of the series — the rule finds a steady-state window.
    When ``d*`` lands in the **second half**, the rule could not: the series
    is still drifting at its end, the MSER literature's "no steady state
    detected" verdict, and exactly the signature of a near-critical queue
    growing without bound.  That verdict — plus an absolute occupancy guard
    (the final occupancy must sit ``occupancy_slack`` jobs above the early
    occupancy, so empty-ish systems never trigger) and a peak guard (the
    final occupancy must sit near the trajectory's running maximum: a busy
    period that peaked mid-run and *recovered* is a burst, not growth) —
    is the saturation flag.  The *final occupancy* is the mean of the last
    ``max(1, num_batches // 20)`` batches, not the last batch alone: a
    stable queue whose single final batch spikes to its maximum is a burst
    at the cut, not growth.

    Deliberately conservative, like the two-window mean test it replaces:
    the hard ``max_active`` cap in the simulator catches runaway queues;
    this catches the near-critical runs that merely trend upward without
    misreporting a long warmup transient as drift.
    """
    values = _as_float_array(queue_lengths)
    if values.size < min_samples:
        return _unscanned()
    num_batches = values.size // batch_size
    if num_batches < 4:
        return _unscanned()
    batches = values[: num_batches * batch_size].reshape(num_batches, batch_size).mean(axis=1)
    # MSER statistic for every truncation point d with >= 2 retained
    # batches, via reversed cumulative sums (O(m), deterministic).
    counts = num_batches - np.arange(num_batches, dtype=np.int64)
    tail_sums = np.cumsum(batches[::-1])[::-1]
    tail_squares = np.cumsum((batches * batches)[::-1])[::-1]
    tail_means = tail_sums / counts
    sse = np.maximum(tail_squares - counts * tail_means * tail_means, 0.0)
    statistic = (sse / (counts * counts))[: num_batches - 1]
    truncation = int(np.argmin(statistic))
    head = num_batches // 4 if num_batches >= 4 else 1
    early_occupancy = float(batches[:head].mean())
    final = float(batches[-max(1, num_batches // 20) :].mean())
    if truncation <= num_batches // 2:
        saturated = False
    elif final <= early_occupancy + occupancy_slack:
        saturated = False
    else:
        # Sustained growth ends at (or near) its running maximum; a queue
        # that peaked mid-run and came back down was a busy period, not
        # saturation.
        saturated = final >= 0.8 * float(batches.max())
    return SaturationScan(
        saturated=saturated,
        truncation=truncation,
        num_batches=num_batches,
        batch_size=batch_size,
        trajectory=_decimated(batches),
        early_occupancy=early_occupancy,
        final_occupancy=final,
    )


def detect_saturation(
    queue_lengths: Sequence[float],
    *,
    batch_size: int = 5,
    min_samples: int = 24,
    occupancy_slack: float = 1.0,
) -> bool:
    """Boolean MSER-5 saturation verdict (see :func:`saturation_scan`).

    Kept as the stable public predicate; :func:`saturation_scan` returns
    the same verdict plus the evidence behind it.
    """
    return saturation_scan(
        queue_lengths,
        batch_size=batch_size,
        min_samples=min_samples,
        occupancy_slack=occupancy_slack,
    ).saturated


@dataclass(frozen=True)
class SteadyStateReport:
    """Steady-state summary of one streamed (stream, policy) measurement.

    Attributes
    ----------
    policy, label:
        Policy and stream identity.
    mean_stretch, mean_weighted_flow:
        Batch-means estimates of the per-job stretch and weighted flow.
    max_stretch, max_weighted_flow:
        Post-warmup maxima (the paper's worst-case objectives).
    utilisation:
        Achieved machine utilisation over the simulated span.
    saturated:
        Hard cap exceeded, or sustained queue growth detected.
    arrivals, completions, peak_active:
        Volume counters from the simulation.
    arrivals_per_second:
        Simulation throughput (wall-clock; bench trajectory food).
    mser_truncation:
        MSER-5 optimal truncation point of the saturation scan (batch
        index), ``None`` when the trajectory was too short to scan.
        Evidence channel only — never part of the verdict or any digest.
    occupancy_trajectory:
        The scan's batch-means queue-occupancy trajectory (decimated).
        Empty for unscanned runs and for reports stored before PR 8
        (:meth:`from_dict` tolerates the missing keys).
    """

    policy: str
    label: str
    mean_stretch: SteadyStateEstimate
    mean_weighted_flow: SteadyStateEstimate
    max_stretch: float
    max_weighted_flow: float
    utilisation: float
    saturated: bool
    arrivals: int
    completions: int
    peak_active: int
    arrivals_per_second: float
    mser_truncation: Optional[int] = None
    occupancy_trajectory: Tuple[float, ...] = ()

    def as_dict(self) -> Dict:
        """JSON-friendly view (round-trips through :meth:`from_dict`)."""
        return {
            "policy": self.policy,
            "label": self.label,
            "mean_stretch": self.mean_stretch.as_dict(),
            "mean_weighted_flow": self.mean_weighted_flow.as_dict(),
            "max_stretch": self.max_stretch,
            "max_weighted_flow": self.max_weighted_flow,
            "utilisation": self.utilisation,
            "saturated": self.saturated,
            "arrivals": self.arrivals,
            "completions": self.completions,
            "peak_active": self.peak_active,
            "arrivals_per_second": self.arrivals_per_second,
            "mser_truncation": self.mser_truncation,
            "occupancy_trajectory": list(self.occupancy_trajectory),
        }

    @staticmethod
    def from_dict(data: Dict) -> "SteadyStateReport":
        """Rebuild a report from :meth:`as_dict` output.

        Tolerates payloads stored before the scan-evidence fields existed
        (pre-PR 8 cells resume with ``mser_truncation=None`` and an empty
        trajectory).
        """
        truncation = data.get("mser_truncation")
        return SteadyStateReport(
            policy=str(data["policy"]),
            label=str(data["label"]),
            mean_stretch=SteadyStateEstimate.from_dict(data["mean_stretch"]),
            mean_weighted_flow=SteadyStateEstimate.from_dict(data["mean_weighted_flow"]),
            max_stretch=float(data["max_stretch"]),
            max_weighted_flow=float(data["max_weighted_flow"]),
            utilisation=float(data["utilisation"]),
            saturated=bool(data["saturated"]),
            arrivals=int(data["arrivals"]),
            completions=int(data["completions"]),
            peak_active=int(data["peak_active"]),
            arrivals_per_second=float(data["arrivals_per_second"]),
            mser_truncation=int(truncation) if truncation is not None else None,
            occupancy_trajectory=tuple(
                float(v) for v in data.get("occupancy_trajectory", ())
            ),
        )


def analyse_stream(
    result: StreamResult,
    *,
    warmup_fraction: float = 0.25,
    num_batches: int = 16,
    confidence: float = 0.95,
) -> SteadyStateReport:
    """Windowed steady-state estimation over one streaming simulation."""
    stretch = batch_means(
        result.stretches,
        metric="mean_stretch",
        warmup_fraction=warmup_fraction,
        num_batches=num_batches,
        confidence=confidence,
    )
    wflow = batch_means(
        result.weighted_flows,
        metric="mean_weighted_flow",
        warmup_fraction=warmup_fraction,
        num_batches=num_batches,
        confidence=confidence,
    )
    dropped = stretch.warmup_dropped
    tail_stretch = result.stretches[dropped:]
    tail_wflow = result.weighted_flows[dropped:]
    scan = saturation_scan(result.queue_lengths)
    saturated = result.saturated or scan.saturated
    return SteadyStateReport(
        policy=result.policy,
        label=result.label,
        mean_stretch=stretch,
        mean_weighted_flow=wflow,
        max_stretch=float(tail_stretch.max()) if tail_stretch.size else 0.0,
        max_weighted_flow=float(tail_wflow.max()) if tail_wflow.size else 0.0,
        utilisation=result.utilisation,
        saturated=saturated,
        arrivals=result.arrivals,
        completions=result.completions,
        peak_active=result.peak_active,
        arrivals_per_second=result.arrivals_per_second,
        mser_truncation=scan.truncation,
        occupancy_trajectory=scan.trajectory,
    )
