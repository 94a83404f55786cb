"""``tools/bench_pairs.py`` on two stub trees whose ``perfbench/run.py``
prints canned results: the schema of the ``BENCH_*.json`` it writes, and
its exit status on a met claim, a failed claim and a regression."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: A stand-in for ``perfbench/run.py``: the metrics of seed S are the base
#: values times ``scale.json``'s factor per metric, plus 1 % per seed mod 5,
#: so that the pairs differ.
_STUB = """
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
scale = json.load(open("scale.json"))
base = {"run_s": 0.3, "setup_s": 0.02, "step_ms_p50": 11.0, "peak_rss_mb": 100.0,
        "l2_error_rel": 5e-5}
units = {"run_s": "s", "setup_s": "s", "step_ms_p50": "ms", "peak_rss_mb": "MiB",
         "l2_error_rel": "1"}
jitter = 1.0 + 0.01 * (seed % 5)
print("env: " + json.dumps({"nproc": 2, "cpu": "stub", "commit": scale["commit"],
                            "numpy": "x", "seed": seed}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    k: {"value": v * scale.get(k, 1.0) * jitter, "unit": units[k]} for k, v in base.items()}}))
"""


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(path: Path, commit: str, **scale) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(_STUB)
    (path / "scale.json").write_text(json.dumps(dict(scale, commit=commit)))
    shutil.copy(ROOT / "BENCHMARK.json", path / "BENCHMARK.json")
    return path


def _run(tmp_path, monkeypatch, label, claim, **change_scale):
    parent = _tree(tmp_path / "parent", "aaa")
    change = _tree(tmp_path / "change", "bbb", **change_scale)
    monkeypatch.chdir(tmp_path)
    argv = [str(parent), str(change), "--label", label, "--seeds", "1-10",
            "--workloads", "diffusive2d-bug"] + (["--claim", claim] if claim else [])
    status = _tool().main(argv)
    return status, json.loads((tmp_path / f"BENCH_{label}.json").read_text())


def test_met_claim_exits_zero_and_writes_the_shared_schema(tmp_path, monkeypatch):
    status, doc = _run(tmp_path, monkeypatch, "fast", "step_ms_p50:diffusive2d-bug",
                       step_ms_p50=0.7)
    assert status == 0
    assert doc["label"] == "fast" and doc["parent_commit"] == "aaa"
    assert doc["change_commit"] == "bbb" and doc["machine"] == {"nproc": 2, "cpu": "stub",
                                                                "numpy": "x"}
    assert doc["claim"].startswith("step_ms_p50 on diffusive2d-bug: met")
    w = doc["workloads"]["diffusive2d-bug"]
    assert w["seeds"] == list(range(1, 11)) and len(w["runs"]) == 10
    assert [r["parent_first"] for r in w["runs"]] == [True, False] * 5
    step = w["summary"]["step_ms_p50"]
    for key in ("parent_median", "parent_q1", "parent_q3", "change_median", "change_q1",
                "change_q3", "change_lower_pairs", "equal_pairs", "pairs",
                "median_rel_change", "bound", "unit"):
        assert key in step
    assert step["change_lower_pairs"] == 10 and step["pairs"] == 10
    assert step["median_rel_change"] == pytest.approx(-0.3)
    assert w["summary"]["run_s"]["equal_pairs"] == 10
    assert w["summary"]["fail_rate"] == {"parent_failed": 0, "parent_attempted": 30,
                                         "change_failed": 0, "change_attempted": 30}


def test_claim_without_a_gain_exits_one(tmp_path, monkeypatch):
    status, doc = _run(tmp_path, monkeypatch, "same", "step_ms_p50:diffusive2d-bug")
    assert status == 1
    assert doc["claim"].startswith("step_ms_p50 on diffusive2d-bug: NOT met")
    assert doc["result"].startswith("FAIL")


def test_regression_beyond_the_bound_exits_one(tmp_path, monkeypatch):
    status, doc = _run(tmp_path, monkeypatch, "slow", None, run_s=1.3)
    assert status == 1
    assert "run_s" in doc["result"] and doc["claim"] == "none"
    # within the bound: no regression
    shutil.rmtree(tmp_path / "parent")
    shutil.rmtree(tmp_path / "change")
    status, _ = _run(tmp_path, monkeypatch, "slower", None, run_s=1.2)
    assert status == 0


def test_a_repeated_workload_exits_two_before_any_run(tmp_path, monkeypatch):
    # its runs would not alternate, and each seed would count twice
    parent = _tree(tmp_path / "parent", "aaa")
    change = _tree(tmp_path / "change", "bbb", step_ms_p50=0.7)
    monkeypatch.chdir(tmp_path)
    argv = [str(parent), str(change), "--label", "twice", "--seeds", "1-5",
            "--workloads", "diffusive2d-bug", "diffusive2d-bug",
            "--claim", "step_ms_p50:diffusive2d-bug"]
    assert _tool().main(argv) == 2
    assert not (tmp_path / "BENCH_twice.json").exists()
