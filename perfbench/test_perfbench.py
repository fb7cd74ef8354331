"""Self-test of the benchmark: contract shape, smoke runs and the bare-directory exit.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload at its smoke size (one unit each, about a minute in
all).  Not part of the repository's tier-1 suite, which collects tests/ only.
"""

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

CHECKS = {
    "fiber3d": {"residual", "identity", "case_ii_cells", "report_json", "recursion_depth"},
    "holder2d": {"residual", "identity", "case_ii_cells", "holder_growth"},
    "lab": {"control_distance_finite", "control_distance_reference", "delta_1", "delta_1_stable",
            "restarts_reference"},
}


def smoke(workload, seed, trace):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.1, trace=trace, smoke=True)
    return run.run_workload(args)


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and w["why"] == metrics.WORKLOADS[w["name"]]
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row[:3]) for row in metrics.PER_LAYER
    ]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])


@pytest.fixture(scope="module")
def runs():
    out = {}
    for w in metrics.WORKLOADS:
        out[w, 1, 0] = smoke(w, 1, 0)
        out[w, 2, 0] = smoke(w, 2, 0)
        out[w, 1, 1] = smoke(w, 1, 1)
    return out


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_smoke_run_reports_every_metric_and_check(runs, workload):
    for trace, table in ((0, metrics.END_TO_END_UNITS), (1, metrics.PER_LAYER_UNITS)):
        res = runs[workload, 1, trace]
        result = res["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == table
        ran = {name.split("[")[0] for name, _, _ in res["provenance"]["checks"]}
        assert ran == CHECKS[workload]
    per_layer = runs[workload, 1, 1]["result"]["metrics"]
    for name, *_, homes in metrics.PER_LAYER:
        if workload in homes:
            assert per_layer[name]["value"] > 0, name


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_seed_changes_inputs_not_metric_names(runs, workload):
    a, b = runs[workload, 1, 0], runs[workload, 2, 0]
    assert a["provenance"]["inputs_sha256"] != b["provenance"]["inputs_sha256"]
    assert a["result"]["metrics"].keys() == b["result"]["metrics"].keys()
    for key in ("versions", "nproc", "blas_threads", "source_sha256", "seed", "sizes"):
        assert key in a["provenance"]


def test_speed_sampler_scales_by_the_kernel_it_samples():
    import time

    import speed

    sampler = speed.Sampler()
    sampler.start()
    sampler.take()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.5:
        sum(i * i for i in range(1000))
    samples, overhead, scaled = sampler.take()
    wall = time.perf_counter() - t0 - overhead
    sampler.stop()
    assert len(samples) >= 5
    assert 0 < overhead < 0.1 * wall
    ratio = scaled / wall * statistics.median(samples) / speed.REF_KERNEL_S
    assert 0.7 < ratio < 1.3


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lab", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
