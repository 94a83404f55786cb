"""One benchmark job in a fresh interpreter: a workload run or its reference.

Usage: ``python3 child.py JOB.json``.  The job file names the mode, the
workload manifest, the seed and where to write the result.  The parent sets
single-threaded BLAS and ``PYTHONPATH`` before this interpreter starts.

A run job times one ``lrtrans.run.execute_run`` and observes step boundaries
with a thin wrapper on ``lrtrans.diagnostics.energy``, which the run loop
calls once for the initial state and once after every step.  The correctness
checks and the error against the reference run after the timed region.
Exceptions raised by the solver are recorded as a failed run; anything else
that goes wrong ends this process with a nonzero code.
"""

from __future__ import annotations

import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics
from workloads import ENERGY_RISE_RTOL, L2_CHECK_RTOL, ZERO_DENSITY_TOL


def _import_solver(src: Path):
    import lrtrans

    where = Path(lrtrans.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"lrtrans imported from {where}, not from {src}")
    return lrtrans


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def reference_job(job: dict) -> dict:
    """Density the workload's final state is compared with, and its time."""
    import numpy as np
    from lrtrans import diagnostics, scenarios
    from lrtrans.run import RunManifest, execute_run

    m = job["manifest"]
    if job["reference"] == "fullrank":
        res = execute_run(RunManifest(
            scenario=m["scenario"], scheme="IMEX-S", mesh_div=m["mesh_div"],
            dt_mult=m.get("dt_mult", 1.0), max_steps=m.get("max_steps"), with_error=False,
        ))
        if res.summary["status"] != "completed":
            raise SystemExit(f"full-rank reference ended {res.summary['status']}")
        t_final, ref = res.summary["t_final"], res.rho_final
    else:
        scen = scenarios.get_scenario(m["scenario"], m["mesh_div"])
        grid, quad, material = scenarios.build_objects(scen)
        dt = scenarios.select_dt(scen, m["scheme"], grid, material, scen.epsilon)
        dt *= m.get("dt_mult", 1.0)
        n_steps = max(1, math.ceil(scen.t_final / dt - 1e-9))
        if m.get("max_steps") is not None:
            n_steps = min(n_steps, m["max_steps"])
        t_final = n_steps * dt
        dt_ref = 0.75 * min(grid.spacing) ** 2
        n = max(1, math.ceil(t_final / dt_ref - 1e-9))
        rho0, _ = scen.init(grid, quad, scen.epsilon)
        ref = diagnostics.diffusion_reference(
            grid, quad, material, np.asarray(rho0, dtype=float), t_final / n, n
        )
    np.save(job["reference_path"], ref)
    return {"t_final": t_final, "env": environment()}


def run_job(job: dict) -> dict:
    """Time one run, then check it; the result feeds every metric."""
    from lrtrans import diagnostics
    from lrtrans import run as lrun

    tracer = Tracer(job["run_id"]) if job["trace"] else None
    if tracer is not None:
        tracer.install()
    marks: list = []
    energy = diagnostics.energy

    def observed_energy(*args, **kwargs):
        value = energy(*args, **kwargs)
        marks.append(time.perf_counter())
        return value

    diagnostics.energy = observed_energy
    manifest = lrun.RunManifest(
        **job["manifest"], seed=job["seed"], out=job["out"], with_error=False
    )
    result, raised = None, None
    t0 = time.perf_counter()
    try:
        result = lrun.execute_run(manifest)
    except Exception as exc:  # a raising run is a failed run, recorded as data
        raised = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    diagnostics.energy = energy
    if tracer is not None:
        tracer.restore()

    out = {"run_s": t1 - t0, "failures": []}
    if raised is not None:
        out["failures"].append(f"raised {raised}")
        return out
    summary = result.summary
    steps = summary["steps_completed"]
    out["steps_completed"] = steps
    if len(marks) == steps + 1:
        out["setup_s"] = marks[0] - t0
        out["step_ms"] = [1e3 * (b - a) for a, b in zip(marks, marks[1:])]
    else:
        out["step_marks"] = f"energy fired {len(marks)} times for {steps} steps"
    out.update(check_run(job, result))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        loop = (marks[0], marks[-1]) if "step_ms" in out else (t0, t0)
        layers = layer_metrics(tracer, *loop, steps, result.records, result.step_infos)
        layers["diagnostics.energy_max_rel_increase"] = out["energy_max_rel_increase"]
        layers["diagnostics.zero_density_max"] = out["zero_density_max"]
        out["layers"] = layers
        out["absent_targets"] = tracer.absent
        tracer.write(Path(job["spans_path"]))
    return out


def check_run(job: dict, result) -> dict:
    """Correctness checks on a finished run, outside the timed region."""
    import numpy as np
    from lrtrans import diagnostics

    summary, records = result.summary, result.records
    failures = []
    if summary["status"] != "completed":
        failures.append(f"status {summary['status']}")
    if summary["steps_completed"] != summary["steps_planned"]:
        failures.append(f"stopped after {summary['steps_completed']} steps")

    energies = [r.energy for r in records]
    rises = [(b - a) / abs(a) for a, b in zip(energies, energies[1:]) if a != 0.0]
    rise = max(rises) if rises else None
    if job["source_free"] and rise is not None and rise > ENERGY_RISE_RTOL:
        failures.append(f"energy increased by {rise:.3e} (relative)")
    zero = max(r.zero_density_residual for r in records)
    scale = max([1.0] + [r.micro_norm_w for r in records])
    if not zero <= ZERO_DENSITY_TOL * scale:
        failures.append(f"zero-density residual {zero:.3e}")

    ref_meta = job["reference_meta"]
    l2 = None
    if abs(summary["t_final"] - ref_meta["t_final"]) > 1e-12 * ref_meta["t_final"]:
        failures.append("reference horizon differs from the run's")
    else:
        ref = np.load(job["reference_path"])
        err = diagnostics.l2_error(result.grid, result.rho_final, ref)
        l2 = err / diagnostics.l2_error(result.grid, np.zeros_like(ref), ref)
        pinned = job["l2_pinned"]
        if not math.isfinite(l2):
            failures.append("l2 error is not finite")
        elif pinned is not None and abs(l2 - pinned) > L2_CHECK_RTOL * pinned:
            failures.append(f"l2_error_rel {l2:.6e} differs from pinned {pinned:.6e}")
    return {
        "failures": failures,
        "l2_error_rel": l2,
        "energy_max_rel_increase": rise,
        "zero_density_max": zero,
    }


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text())
    _import_solver(Path(job["src"]))
    out = reference_job(job) if job["mode"] == "reference" else run_job(job)
    Path(job["result_path"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
