"""Self-test of the benchmark runner at smoke sizes.

Run with ``python -m pytest perfbench -q`` from the repository root
(the tier-1 suite only collects ``tests/``).  The smoke runs use n~300
and the minimum traffic per workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def report(workload: str, trace: int) -> dict:
    path = HERE / "out" / f"{workload}-seed42-trace{trace}-smoke.json"
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def smoke():
    proc = run("--smoke")
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def smoke_traced():
    proc = run("--smoke", "--trace")
    assert proc.returncode == 0, proc.stderr
    return proc


def units_of(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_end_to_end_names_and_units_match_spec(smoke):
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for workload in WORKLOADS:
        result = report(workload, 0)["result"]
        assert result["correct"] and result["failed"] == 0
        assert units_of(result["metrics"]) == want
    final = json.loads(smoke.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["attempted"] >= 1


def test_per_layer_names_units_and_coverage(smoke_traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        rep = report(workload, 1)
        assert units_of(rep["result"]["metrics"]) == want
        for cover in rep["coverage_per_process"]:
            assert 0.9 <= cover <= 1.1
        assert (HERE / "out" / f"trace-{workload}.jsonl").stat().st_size > 0


def test_percentile_needs_ten_samples_beyond():
    sys.path.insert(0, str(HERE))
    import measure

    assert measure.percentile([1.0] * 99, 90) is None
    assert measure.percentile([1.0] * 100, 90) == 1.0
    assert measure.percentile([1.0] * 19, 50) is None


def test_reported_percentiles_have_their_samples(smoke):
    for workload in WORKLOADS:
        rep = report(workload, 0)
        samples = rep["samples"]["query"]
        for point in (50, 90):
            if f"latency_p{point}_ms" in rep["result"]["metrics"]:
                assert samples * (100 - point) >= 10 * 100


@pytest.mark.parametrize("values, code", [
    ([1.0, 1.01, 0.99, 1.0], 0),
    ([1.0, 1.0, 2.0, 3.0], 1),  # IQR/median 0.875, above every bound
])
def test_repeat_fails_when_a_spread_exceeds_its_bound(monkeypatch, values, code):
    sys.path.insert(0, str(HERE))
    import run as runner

    draws = iter(values)

    def fake_child(*args):
        value = next(draws)
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}, 0

    monkeypatch.setattr(runner, "run_child", fake_child)
    argv = ["--workload", WORKLOADS[0], "--repeat", str(len(values))]
    assert runner.main(argv) == code


def test_corrupted_digest_fails_the_run(tmp_path):
    name = "point-spatial-seed42-smoke.json"
    data = json.loads((HERE / "expected" / name).read_text())
    data["digests"][0] = "0" * 64
    (tmp_path / name).write_text(json.dumps(data))
    proc = run("--smoke", "--workload", "point-spatial", "--expected-dir", str(tmp_path))
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] > 0 and not result["correct"]
    assert report("point-spatial", 0)["check"]["error_rate"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = run("--workload", "point-spatial", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
