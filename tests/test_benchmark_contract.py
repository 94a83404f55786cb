"""What the benchmark in ``perfbench/`` reads of the solver.

``perfbench/tracer.py`` wraps the functions it names in ``TARGETS`` by object
identity in the globals of every ``lrtrans`` module, and sizes ``grid.diff``
spans from its fourth positional argument.  A rename, a signature change or
a module that stops importing ``diff`` by name would not fail the benchmark;
its per-layer metrics would read "absent" instead.  ``perfbench/child.py``
recomputes a workload's step size with ``scenarios.select_dt`` from its
scheme tag, and ``tracer.layer_metrics`` reads ``rank`` and
``pre_truncation_rank`` of every ``StepInfo`` in ``RunResult.step_infos``.
These checks fail first.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from lrtrans import diagnostics, grid, lowrank, ops, scenarios
from lrtrans.run import RunManifest, execute_run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _tracer():
    return _load("tracer")


def test_every_traced_target_resolves_to_a_callable():
    tracer = _tracer()
    assert tracer.PACKAGE == "lrtrans"
    for module_name, path in tracer.TARGETS:
        obj = importlib.import_module(f"lrtrans.{module_name}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        assert callable(obj), f"{module_name}.{path}"


def test_diff_takes_the_field_fourth():
    assert list(inspect.signature(grid.diff).parameters)[:4] == ["grid", "axis", "side", "field"]


def test_solver_modules_import_diff_by_name():
    assert ops.diff is lowrank.diff is grid.diff


def test_energy_evaluated_once_per_record(monkeypatch):
    # the benchmark times steps between calls of diagnostics.energy
    calls = []
    energy = diagnostics.energy
    monkeypatch.setattr(diagnostics, "energy", lambda *a, **k: calls.append(1) or energy(*a, **k))
    result = execute_run(RunManifest(scenario="gaussian1d-diff", scheme="IMEX-S-BUG",
                                     mesh_div=8, max_steps=3, with_error=False))
    assert len(calls) == len(result.records) == 4


def test_full_rank_workload_marks_every_step_and_reports_no_step_infos(monkeypatch):
    # a full-rank record takes its norms from the step's last sweep, but still
    # evaluates the energy once per record; a non-empty step_infos would make
    # the tracer treat the run as low-rank
    calls = []
    energy = diagnostics.energy
    monkeypatch.setattr(diagnostics, "energy", lambda *a, **k: calls.append(1) or energy(*a, **k))
    m = _load("workloads").WORKLOADS["diffusive2d-full"].reduced(mesh_div=8, max_steps=3).manifest
    result = execute_run(RunManifest(**m, with_error=False))
    steps = result.summary["steps_completed"]
    assert steps == 3
    assert len(calls) == steps + 1
    assert result.step_infos == []


@pytest.mark.parametrize("name", ["diffusive2d-bug", "kinetic2d-abug", "diffusive2d-full"])
def test_workload_run_exposes_step_size_and_ranks(name):
    # a reduced copy of each workload: its step size follows from the scheme
    # tag alone, and a low-rank run reports one StepInfo per step
    m = _load("workloads").WORKLOADS[name].reduced(mesh_div=8, max_steps=3).manifest
    scen = scenarios.get_scenario(m["scenario"], m["mesh_div"])
    grid_, quad, material = scenarios.build_objects(scen)
    dt = scenarios.select_dt(scen, m["scheme"], grid_, material, scen.epsilon)
    result = execute_run(RunManifest(**m, with_error=False))
    assert result.summary["dt"] == dt
    infos = result.step_infos
    if "BUG" not in m["scheme"]:
        assert infos == []
        return
    assert len(infos) == result.summary["steps_completed"] == 3
    for info, rec in zip(infos, result.records[1:]):
        assert isinstance(info.rank, int) and isinstance(info.pre_truncation_rank, int)
        assert info.rank == rec.rank <= info.pre_truncation_rank
