"""Tiny-scale self-test of the benchmark: every workload, untraced and traced.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root (the tier-1 run collects it too).  It checks the result
shape against ``BENCHMARK.json`` and that the output checks pass; it makes
no timing claim.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, run
from perfbench.workloads import (
    CampaignConfig,
    OfflineConfig,
    StreamConfig,
    campaign_workload,
    offline_workload,
    stream_workload,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "offline": lambda seed, workdir: offline_workload(
        seed, workdir,
        OfflineConfig(scenarios=("hotspot",), seeds_per_scenario=1,
                      large_jobs=6, large_machines=2, large_instances=1),
    ),
    "campaign": lambda seed, workdir: campaign_workload(
        seed, workdir, CampaignConfig(scenarios=("hotspot",), policies=("mct",))
    ),
    "stream": lambda seed, workdir: stream_workload(
        seed, workdir,
        StreamConfig(light_streams=1, overload_streams=1,
                     light_arrivals=200, overload_arrivals=200),
    ),
}


def test_declares_the_workloads_it_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(TINY) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_checks(name, trace, tmp_path):
    bench = TINY[name](3, str(tmp_path))
    bench.warm_up()
    measured = run.measure(bench, seconds=0.0, trace=trace)
    attempted, failed = run.outcome(measured, bench.cross_check())
    assert attempted > 0
    assert failed == 0
    if trace:
        metrics, tree = layers.layer_metrics(bench, measured)
        assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
        root = {"offline": "offline.search", "campaign": "campaign.dispatch", "stream": "stream.sweep"}
        assert any(row.get("path") == root[name] for row in tree)
    else:
        metrics = run.end_to_end_metrics(bench, measured, setup_samples=[1.0, 2.0, 3.0])
        assert sorted(metrics) == sorted(m["name"] for m in SPEC["end_to_end"])
        assert all(entry["value"] > 0 for entry in metrics.values())
    assert all(isinstance(entry["value"], float) for entry in metrics.values())


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    child = subprocess.run(
        [sys.executable, *SPEC["command"][1:],
         "--workload", "offline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
