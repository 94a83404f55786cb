"""What the benchmark in ``perfbench/`` reads of the solver.

``perfbench/tracer.py`` wraps the functions it names in ``TARGETS`` by object
identity in the globals of every ``lrtrans`` module, and sizes ``grid.diff``
spans from its fourth positional argument.  A rename, a signature change or
a module that stops importing ``diff`` by name would not fail the benchmark;
its per-layer metrics would read "absent" instead.  These checks fail first.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from lrtrans import diagnostics, grid, lowrank, ops
from lrtrans.run import RunManifest, execute_run

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
