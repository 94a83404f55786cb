"""Outside-in tracing of lrtrans module functions.

The solver modules import each other's functions by name
(``from .grid import diff``), so a function is wrapped by object identity in
the globals of every loaded ``lrtrans.*`` module.  ``SchurOperator.solve`` is
wrapped on its class.  Conjugate-gradient iterations are counted by a
callback chained onto ``scipy.sparse.linalg.cg``.  Spans are kept in memory
as ``[name, start, end, parent, run_id, amount]`` and written out at the end;
``amount`` holds computed bytes for ``grid.diff`` and CG iterations for
``SchurOperator.solve``.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from pathlib import Path

#: Traced functions as ``(module, attribute path)`` below the ``lrtrans`` package.
TARGETS = (
    ("grid", "diff"),
    ("ops", "advect"),
    ("ops", "project_out_mean"),
    ("ops", "flux_div"),
    ("ops", "flux_div_factored"),
    ("ops", "density_grad"),
    ("lowrank", "factorize_micro"),
    ("lowrank", "galerkin_stage"),
    ("lowrank", "constrained_qr"),
    ("lowrank", "lowrank_macro_coupled_step"),
    ("fullrank", "build_schur"),
    ("fullrank", "SchurOperator.solve"),
    ("fullrank", "imex_s_step"),
    ("diagnostics", "energy"),
    ("diagnostics", "micro_norm_w"),
    ("diagnostics", "zero_density_residual"),
    ("diagnostics", "mass"),
    ("scenarios", "build_objects"),
    ("run", "write_artifacts"),
    ("run", "execute_run"),
)

PACKAGE = "lrtrans"
NAME, START, END, PARENT, RUN_ID, AMOUNT = range(6)


def _diff_bytes(args, kwargs):
    """Bytes read and written by ``diff(grid, axis, side, field)``."""
    field = kwargs["field"] if "field" in kwargs else args[3]
    return 2 * field.nbytes


class Tracer:
    """Installs span-recording wrappers; :meth:`restore` removes every one."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.absent: list = []
        self.cg_iters = 0
        self._stack: list = []
        self._patches: list = []   # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for module_name, path in targets:
            name = f"{module_name}.{path}"
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(
                name, original, _diff_bytes if name == "grid.diff" else None,
                counts_cg=name == "fullrank.SchurOperator.solve",
            )
            if owner is module:
                self._replace_everywhere(original, wrapper)
            else:
                self._patch(owner, attr, wrapper)
        import scipy.sparse.linalg as spla

        self._patch(spla, "cg", self._counting_cg(spla.cg))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _wrap(self, name, fn, size=None, counts_cg=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id,
                    size(args, kwargs) if size is not None else 0]
            iters0 = self.cg_iters
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
                if counts_cg:
                    span[AMOUNT] = self.cg_iters - iters0

        return wrapper

    def _counting_cg(self, cg):
        @functools.wraps(cg)
        def counting_cg(*args, callback=None, **kwargs):
            def count(xk):
                self.cg_iters += 1
                if callback is not None:
                    callback(xk)

            return cg(*args, callback=count, **kwargs)

        return counting_cg

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list:
        """Duration of each span minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent", "run_id", "amount"])
            out.writerows(self.spans)


def layer_metrics(tracer: Tracer, loop_start: float, loop_end: float, steps: int,
                  records, step_infos) -> dict:
    """Per-layer metrics of one traced run; ``None`` marks an absent metric.

    Per-step figures cover spans inside the step loop, between the end of
    the initial-state record and the end of the last step's record.
    """
    selfs = tracer.self_times()
    calls: dict = {}
    loop_self: dict = {}
    amount: dict = {}
    total: dict = {}
    total_self: dict = {}
    for s, own in zip(tracer.spans, selfs):
        name = s[NAME]
        total[name] = total.get(name, 0.0) + s[END] - s[START]
        total_self[name] = total_self.get(name, 0.0) + own
        if s[START] >= loop_start and s[END] <= loop_end:
            calls[name] = calls.get(name, 0) + 1
            loop_self[name] = loop_self.get(name, 0.0) + own
            amount[name] = amount.get(name, 0) + s[AMOUNT]

    def per_step_ms(name):
        return 1e3 * loop_self[name] / steps if name in loop_self and steps else None

    out = {
        "grid.diff.calls_per_step": calls["grid.diff"] / steps
        if "grid.diff" in calls and steps else None,
        "grid.diff.self_ms_per_step": per_step_ms("grid.diff"),
        "grid.diff.mb_per_step": amount["grid.diff"] / steps / 1e6
        if "grid.diff" in amount and steps else None,
    }
    for name in ("ops.advect", "ops.project_out_mean", "ops.flux_div",
                 "ops.flux_div_factored", "ops.density_grad", "lowrank.galerkin_stage",
                 "lowrank.constrained_qr", "lowrank.lowrank_macro_coupled_step",
                 "fullrank.SchurOperator.solve", "fullrank.imex_s_step"):
        out[f"{name}.self_ms_per_step"] = per_step_ms(name)
    for name in ("lowrank.factorize_micro", "fullrank.build_schur",
                 "scenarios.build_objects", "run.write_artifacts"):
        out[f"{name}.s"] = total.get(name)
    out["run.execute_run.self_s"] = total_self.get("run.execute_run")

    solve = "fullrank.SchurOperator.solve"
    out[f"{solve}.cg_iters_per_solve"] = (
        amount[solve] / calls[solve] if calls.get(solve) and amount[solve] else None
    )
    record = [n for n in ("diagnostics.energy", "diagnostics.micro_norm_w",
                          "diagnostics.zero_density_residual", "diagnostics.mass")
              if n in loop_self]
    out["diagnostics.record_ms_per_step"] = (
        1e3 * sum(loop_self[n] for n in record) / steps if record and steps else None
    )

    lowrank = bool(step_infos)
    ranks = [r.rank for r in records[1:]]
    out["lowrank.rank_mean"] = sum(ranks) / len(ranks) if lowrank and ranks else None
    out["lowrank.rank_max"] = max(ranks) if lowrank and ranks else None
    pre = sum(i.pre_truncation_rank for i in step_infos)
    out["lowrank.kept_ratio"] = sum(i.rank for i in step_infos) / pre if pre else None
    return out
