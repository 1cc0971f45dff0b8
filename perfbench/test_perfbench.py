"""The benchmark's own tests (not part of the repository's tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload is smoke-run on the small preset for under a second of
measurement, traced and untraced; every metric named in BENCHMARK.json
must come out with its unit.  A corrupted allocation must be counted as
a failed op, and a directory without the program must make the
benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import functools
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

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@functools.lru_cache(maxsize=None)
def bench(workload: str, trace: int, cwd: Path = ROOT, scale: str = "smoke"):
    cmd = [
        sys.executable, str(cwd / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--scale", scale,
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER
    assert set(WORKLOADS) == set(workloads.WORKLOADS)
    assert SPEC["command"][1:] == ["perfbench/run.py"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    proc = bench(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    proc = bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["trace.overhead_share"] > 0
    assert (HERE / "out" / f"{workload}-seed3-spans.json").is_file()
    simulation = ("replay.s", "lru.s")
    planner = ("restoration.storage_s", "restoration.processing_s", "offload.s")
    if workload == "plan-cold":
        assert value["trace.coverage"] >= 0.95
        assert all(value[k] == 0 for k in simulation)
        assert all(value[k] > 0 for k in planner)
    elif workload == "evaluate-replay":
        assert all(value[k] == 0 for k in planner)
        assert all(value[k] > 0 for k in simulation)
        assert 0 <= value["lru.hit_rate"] <= 1
    elif workload == "replan-drift":
        assert value["incremental.epoch_s"] > 0 and value["incremental.audit_s"] > 0
        assert value["drift.replace_s"] > 0
    elif workload == "offload-negotiate":
        assert value["offload.rounds"] >= 1 and value["offload.s"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_plan_quality(workload):
    """Two runs of one seed (untraced and traced) give bit-identical
    objectives and replayed page times."""
    quality = [
        line for trace in (0, 1)
        for line in bench(workload, trace=trace).stdout.splitlines()
        if line.startswith("# quality ")
    ]
    assert len(quality) == 2 and quality[0] == quality[1]


def test_corrupted_allocation_counts_as_failed_op(monkeypatch, capsys):
    honest = workloads.PlanCold.run

    def corrupt(self, prep, tr):
        result = honest(self, prep, tr)
        result.allocation.replicas[0].clear()  # marks without replicas
        return result

    monkeypatch.setattr(workloads.PlanCold, "run", corrupt)
    code = run.main(
        ["--workload", "plan-cold", "--seed", "3", "--seconds", "0.2", "--scale", "smoke"]
    )
    assert code == 0
    result = last_json(capsys.readouterr().out)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_without_the_program_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = bench("plan-cold", trace=0, cwd=tmp_path, scale="bench")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_is_the_slowest_quarter():
    assert harness.tail([1.0, 3.0, 2.0]) == (3.0, 1)
    assert harness.tail([float(i) for i in range(1, 13)]) == (11.0, 3)


def test_summarize_scales_by_the_probe():
    ref = harness.PROBE_REFERENCE_S
    # input 0 timed once at reference speed and once on a machine twice
    # as slow: both scale to the same 1 s
    samples = [(0, 1.0, ref), (0, 2.0, 2 * ref), (1, 3.0, ref)]
    assert harness.summarize(samples) == (2.0, 3.0, 1)
