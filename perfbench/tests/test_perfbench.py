"""Tests of the benchmark harness itself (not of the solver).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bench
from tracer import Tracer
from workloads import END_TO_END, LAYER_MAP, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[2]

#: (mesh divisor, steps) of each workload's smoke run.
SMOKE = {
    "diffusive2d-bug": (16, 5),
    "kinetic2d-abug": (16, 5),
    "diffusive2d-full": (16, 3),
}


def make_harness(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    return bench.Harness(ROOT, work, time.monotonic() + 120.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reduced_mesh_smoke_run(tmp_path, name):
    workload = WORKLOADS[name].reduced(*SMOKE[name])
    harness = make_harness(tmp_path)
    started = time.monotonic()
    ref_meta = harness.reference(workload)
    run = harness.run(workload, 3, ref_meta, False, 0, tmp_path / "spans")
    assert time.monotonic() - started < 30.0
    assert run["failures"] == []
    assert 1 <= run["steps_completed"] <= SMOKE[name][1]
    assert len(run["step_ms"]) == run["steps_completed"]
    assert run["setup_s"] > 0 and run["run_s"] > run["setup_s"]
    assert 0 < run["l2_error_rel"] < 1 and run["peak_rss_mb"] > 0
    assert run["zero_density_max"] < 1e-11


def test_diverging_manifest_counts_as_failed(tmp_path, capsys):
    unstable = Workload(
        name="unstable", reference="diffusion", source_free=True, l2_pinned=None,
        manifest=dict(scenario="gaussian1d-diff", scheme="IMEX-BUG", mesh_div=1,
                      rank=3, max_steps=1000, dt_mult=8.0),
        why="explicit coupling far past its step bound",
    )
    harness = make_harness(tmp_path)
    ref_meta, runs = bench.measure(harness, unstable, 1, 0.0, False, tmp_path / "spans")
    assert len(runs) == bench.MIN_RUNS
    assert all("status diverged" in r["failures"] for r in runs)
    args = bench.parse_args(["--workload", "diffusive2d-bug", "--seed", "1",
                             "--seconds", "0"])
    result = bench.report(unstable, args, ref_meta, runs, {})
    assert result["attempted"] == len(runs) and result["failed"] == len(runs)
    assert result["correct"] is False
    assert "fail_rate 1" in capsys.readouterr().out


def test_tracer_restores_every_wrapped_function():
    import scipy.sparse.linalg as spla

    from lrtrans import grid, lowrank, ops
    from lrtrans.fullrank import SchurOperator

    def snapshot():
        mods = {k: m for k, m in sys.modules.items() if k.startswith("lrtrans")}
        return ({(k, name): id(v) for k, m in mods.items() for name, v in vars(m).items()},
                SchurOperator.__dict__["solve"], spla.cg)

    before = snapshot()
    diff = grid.diff
    tracer = Tracer("t")
    tracer.install()
    try:
        assert ops.diff is not diff and ops.diff.__wrapped__ is diff
        assert ops.diff is lowrank.diff is grid.diff
        assert SchurOperator.solve is not before[1] and spla.cg is not before[2]
        assert tracer.absent == []
    finally:
        tracer.restore()
    assert snapshot() == before


def test_tracer_reports_missing_target_as_absent():
    import lrtrans  # noqa: F401

    tracer = Tracer("t")
    tracer.install(targets=(("grid", "no_such_function"), ("lowrank", "Nope.solve")))
    tracer.restore()
    assert tracer.absent == ["grid.no_such_function", "lowrank.Nope.solve"]


def test_tracer_self_time_subtracts_children():
    tracer = Tracer("t")
    tracer.spans = [["outer", 0.0, 10.0, -1, "t", 0], ["inner", 2.0, 5.0, 0, "t", 0],
                    ["inner", 6.0, 7.0, 0, "t", 0]]
    assert tracer.self_times() == [6.0, 3.0, 1.0]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_unit(monkeypatch, capsys, trace):
    workload = WORKLOADS["diffusive2d-bug"].reduced(16, 4)
    monkeypatch.setitem(bench.WORKLOADS, workload.name, workload)
    monkeypatch.chdir(ROOT)
    code = bench.main(["--workload", workload.name, "--seed", "5", "--seconds", "0",
                       "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = {k: v[0] for k, v in (LAYER_MAP if trace else END_TO_END).items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        metrics = result["metrics"]
        assert metrics["grid.diff.calls_per_step"]["value"] > 0
        assert metrics["fullrank.SchurOperator.solve.cg_iters_per_solve"]["value"] >= 0
        absent = next(line for line in out if line.startswith("absent"))
        for name in ("ops.advect", "ops.flux_div", "fullrank.imex_s_step"):
            assert f"{name}.self_ms_per_step" in absent
    else:
        assert "fail_rate" in "\n".join(out)


def test_benchmark_json_records_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == f"{WORKLOADS[w['name']].describe()}: {WORKLOADS[w['name']].why}"
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert {m["name"]: (m["unit"], m["bound"]) for m in spec["end_to_end"]} == END_TO_END
    assert all(m["better"] == "lower" and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        k: v[:2] for k, v in LAYER_MAP.items()}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diffusive2d-bug",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
