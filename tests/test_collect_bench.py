"""The bench-record collector (``scripts/collect_bench.py``)."""

import importlib.util
import json
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "collect_bench.py"

_FEASIBILITY = {
    "feasible": False,
    "repo_load": 752.5,
    "repo_capacity": 199.7,
    "repo_slack": -552.8,
}


@pytest.fixture
def collector(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("collect_bench", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
    return module


def _plant(tmp_path, scale: str, payload: dict) -> pathlib.Path:
    out = tmp_path / "benchmarks" / "out"
    (out / scale).mkdir(parents=True, exist_ok=True)
    record = {"bench": "policy_end_to_end", "git_sha": "0" * 40, **payload}
    (out / scale / "BENCH_policy_end_to_end.json").write_text(json.dumps(record))
    return out


def test_complete_paper_record_passes(collector, tmp_path):
    out = _plant(tmp_path, "paper", {"policy_s": 4.4, **_FEASIBILITY})
    doc = collector.collect(out, strict=True)
    headline = doc["scales"]["paper"]["policy_end_to_end"]["headline"]
    assert headline["repo_slack"] == -552.8


@pytest.mark.parametrize("field", sorted(_FEASIBILITY))
def test_paper_record_without_feasibility_field_fails_check(collector, tmp_path, field):
    payload = {k: v for k, v in _FEASIBILITY.items() if k != field}
    out = _plant(tmp_path, "paper", {"policy_s": 4.4, **payload})
    with pytest.raises(ValueError, match=field):
        collector.collect(out, strict=True)


def test_check_mode_reports_the_missing_field(collector, tmp_path, monkeypatch, capsys):
    payload = {k: v for k, v in _FEASIBILITY.items() if k != "repo_capacity"}
    out = _plant(tmp_path, "paper", payload)
    monkeypatch.setattr(collector, "OUT_DIR", out)
    # collect() binds its default out-dir at definition time
    monkeypatch.setattr(collector.collect, "__defaults__", (out, False))
    assert collector.main(["--check", "--out", str(tmp_path / "T.json")]) == 1
    assert "repo_capacity" in capsys.readouterr().err


def test_smaller_scales_need_no_feasibility_fields(collector, tmp_path):
    out = _plant(tmp_path, "tiny", {"policy_s": 0.005})
    doc = collector.collect(out, strict=True)
    assert "policy_end_to_end" in doc["scales"]["tiny"]
