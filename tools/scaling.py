"""Mesh scaling of the solver on the manufactured solution (the C6 cost curve).

    python tools/scaling.py [--out BENCH_scaling.json]

Runs IMEX-S, IMEX-S-BUG and IMEX-S-aBUG on each ``mms2d-N`` mesh, every
point in its own fresh interpreter with single-threaded BLAS and
``PYTHONPATH`` set to this checkout's ``src``, one point at a time.  Each
run takes at most :data:`STEPS` steps (``max_steps``) and computes its
error against the manufactured solution.  A point records the set-up time (from the start
of ``execute_run`` to the initial record), the per-step wall times (between
consecutive records), the peak RSS of its process and the final
``l2_error``.  The full-rank scheme runs only up to ``mms2d-128``
(:data:`FULL_RANK_MAX`): its dense state at ``mms2d-256`` (131,072 points x
2,048 ordinates) would take 2 GiB, so that point is recorded as skipped.

The JSON document holds the machine, the library versions and one entry per
point.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMES = ("IMEX-S", "IMEX-S-BUG", "IMEX-S-aBUG")
SIZES = (16, 32, 64, 128, 256)
STEPS = 6
#: Largest mesh of the full-rank scheme.
FULL_RANK_MAX = 128
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: One point: its manifest as JSON in ``argv[1]``, its result as JSON on stdout.
_CHILD = """
import json, resource, sys, time
from lrtrans import diagnostics
from lrtrans.run import RunManifest, execute_run

marks, energy = [], diagnostics.energy

def observed(*args, **kwargs):
    value = energy(*args, **kwargs)
    marks.append(time.perf_counter())
    return value

diagnostics.energy = observed
t0 = time.perf_counter()
summary = execute_run(RunManifest(**json.loads(sys.argv[1]))).summary
print(json.dumps({
    "status": summary["status"],
    "steps": summary["steps_completed"],
    "rank_final": summary["rank_final"],
    "l2_error": summary.get("l2_error"),
    "setup_s": marks[0] - t0,
    "step_ms": [1e3 * (b - a) for a, b in zip(marks, marks[1:])],
    "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
}))
"""

def shape(size: int) -> tuple:
    """``(points, ordinates)`` of ``mms2d-<size>``: two point families of
    ``size^2`` cells, and ``2 (size/8)^2`` Chebyshev-Legendre ordinates."""
    return 2 * size * size, 2 * (size // 8) ** 2


def plan(sizes) -> list:
    """``(size, scheme, skip_reason)`` of every point, mesh by mesh."""
    def skip(size, scheme):
        if scheme == "IMEX-S" and size > FULL_RANK_MAX:
            return f"dense state of {8 * math.prod(shape(size)) / 2**30:g} GiB"
        return None

    return [(size, scheme, skip(size, scheme)) for size in sizes for scheme in SCHEMES]


def run_point(size: int, scheme: str, steps: int) -> dict:
    """One point in a fresh single-threaded interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{v: "1" for v in THREAD_VARS})
    manifest = dict(scenario=f"mms2d-{size}", scheme=scheme, max_steps=steps, with_error=True)
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(manifest)], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    out["step_ms_mean"] = statistics.fmean(out["step_ms"]) if out["step_ms"] else None
    return out


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in
              (cpuinfo.read_text().splitlines() if cpuinfo.exists() else [])
              if line.startswith("model name")]
    return {
        "nproc": os.cpu_count(),
        "cpu": models[0] if models else platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": "OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_scaling.json"))
    args = parser.parse_args(argv)

    points = []
    for size, scheme, skip in plan(SIZES):
        n_points, ordinates = shape(size)
        point = dict(scenario=f"mms2d-{size}", scheme=scheme, points=n_points,
                     ordinates=ordinates)
        if skip:
            point.update(status="skipped", reason=skip)
        else:
            point.update(run_point(size, scheme, STEPS))
        points.append(point)
        print(json.dumps(point if skip else {k: v for k, v in point.items() if k != "step_ms"}),
              flush=True)
    doc = {"tool": "tools/scaling.py", "steps": STEPS, "machine": machine(),
           "points": points}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
