"""Compare the run artifacts of two lrtrans source trees.

    python tools/compare_traces.py SRC_A SRC_B [--steps 120] [--work DIR] [--rtol TOL]

``SRC_A`` and ``SRC_B`` are checkouts of the repository (each holding
``src/lrtrans``).  Every scenario/scheme pair of :data:`RUNS` is run in both
trees through ``execute_run``, capped at ``--steps`` steps, one
single-threaded interpreter per tree (the two trees run side by side).  For
each run the script then reports, per artifact (``trace.csv``,
``rho_final.csv``, the ``slice_*.csv`` files and ``summary.txt`` without its
wall-clock entries; a summary entry is a one-value column), either
``identical`` or the largest relative difference ``|a - b| / max(|a|, |b|)``
of each column that differs; for ``trace.csv`` it adds whether the rank
columns agree and the largest zero-density residual of each tree.  The exit
status is 0 when every ``trace.csv`` is byte-identical and 1 otherwise.

With ``--rtol TOL`` (for changes that state a rounding change) a run passes
instead when its ranks are equal on every row; every value of every
artifact is within ``TOL`` times the largest magnitude of its column in
either tree (the report then shows these scaled differences, since
per-value relative differences blow up on near-zero densities); and every
zero-density residual is at most ``ZERO_DENSITY_BOUND * max(1,
micro_norm_w)`` in both trees.  That column holds roundoff, so it is held to
the bound and not compared; only where ``SRC_A`` itself breaks the bound
(unweighted aBUG, whose angular basis does not carry the constraint) is it
compared like the others.  The exit status is 0 when every run passes.

Under the verdict the script prints the line count of ``src/lrtrans/*.py``
in each tree, the size of the solver that the roadmap tracks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCHEMES = ("IMEX", "IMEX-S", "IMEX-BUG", "IMEX-S-BUG", "IMEX-aBUG", "IMEX-S-aBUG")
LOW_RANK = tuple(s for s in SCHEMES if "BUG" in s)

#: ``(label, manifest overrides)``: the behaviour-preservation gate of the
#: roadmap, all six schemes on reduced scenarios plus the unweighted mode;
#: the two full-rank schemes on ``gaussian2d --mesh-div 2`` (8192 points x
#: 512 ordinates, the benchmark's ordinate count, many blocks of the
#: full-rank sweep); and two runs that compute their reference error: the
#: conjugate-gradient branch of the diffusion reference (``gaussian2d``, 8192
#: unknowns) and the refined full-rank self reference
#: (``gaussian1d-kinetic``).
RUNS = (
    [(f"gaussian1d-diff {s}", dict(scenario="gaussian1d-diff", scheme=s)) for s in SCHEMES]
    + [(f"bimodal1d {s}", dict(scenario="bimodal1d", scheme=s)) for s in SCHEMES]
    + [(f"bimodal1d-unweighted {s}", dict(scenario="bimodal1d", scheme=s, unweighted=True))
       for s in LOW_RANK]
    + [(f"mms2d-16 {s}", dict(scenario="mms2d-16", scheme=s)) for s in SCHEMES]
    + [(f"lattice2d-md8 {s}", dict(scenario="lattice2d", scheme=s, mesh_div=8))
       for s in SCHEMES]
    + [(f"gaussian2d-md2 {s}", dict(scenario="gaussian2d", scheme=s, mesh_div=2))
       for s in ("IMEX", "IMEX-S")]
    + [("gaussian2d-md2-error IMEX-S-BUG",
        dict(scenario="gaussian2d", scheme="IMEX-S-BUG", mesh_div=2, with_error=True)),
       ("gaussian1d-kinetic-md8-error IMEX-S-BUG",
        dict(scenario="gaussian1d-kinetic", scheme="IMEX-S-BUG", mesh_div=8,
             with_error=True))]
)

#: Summary entries that hold wall-clock times.
WALL_KEYS = {"total_wall_s", "per_step_mean_s"}

#: Largest accepted zero-density residual, relative to ``max(1, micro_norm_w)``.
ZERO_DENSITY_BOUND = 1e-11

_RUNNER = """
import json, sys, traceback
from lrtrans.run import RunManifest, execute_run
for spec in json.loads(sys.argv[1]):
    try:
        execute_run(RunManifest(**spec))
    except Exception:
        print(spec["out"], traceback.format_exc(), file=sys.stderr)
"""


def run_tree(src: Path, out: Path, steps: int) -> subprocess.Popen:
    specs = [
        dict(manifest, max_steps=steps, seed=0, out=str(out / _slug(label)))
        for label, manifest in RUNS
    ]
    env = dict(os.environ, PYTHONPATH=str(src / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-c", _RUNNER, json.dumps(specs)], env=env)


def _slug(label: str) -> str:
    return label.replace(" ", "_")


def _num(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _columns(path: Path) -> dict:
    """Column name -> list of value strings; ``summary.txt`` is one row."""
    text = path.read_text()
    if path.suffix == ".csv":
        header, *rows = [line.split(",") for line in text.splitlines()]
        return {name: [row[i] for row in rows] for i, name in enumerate(header)}
    pairs = (line.split(" = ", 1) for line in text.splitlines())
    return {k: [v] for k, v in pairs if k not in WALL_KEYS}


def _deviation(va, vb, scaled: bool) -> float:
    """Largest difference of two value columns: relative per value
    (``|a - b| / max(|a|, |b|)``) or, with ``scaled``, over the column's
    largest magnitude in either tree; ``inf`` if they cannot be compared."""
    fa, fb = [_num(v) for v in va or []], [_num(v) for v in vb or []]
    if va is None or vb is None or len(fa) != len(fb) or None in fa + fb:
        return float("inf")
    if scaled:
        scale = max(map(abs, fa + fb), default=0.0)
        return max((abs(a - b) for a, b in zip(fa, fb)), default=0.0) / scale if scale else 0.0
    return max((abs(a - b) / max(abs(a), abs(b)) for a, b in zip(fa, fb) if a != b),
               default=0.0)


def compare_artifact(path_a: Path, path_b: Path, scaled: bool = False) -> tuple:
    """``(report, deviations)``: ``identical`` or the largest difference of
    each differing column (see :func:`_deviation`), and those differences
    by column name (empty when identical)."""
    a, b = _columns(path_a), _columns(path_b)
    if list(a.items()) == list(b.items()):
        return "identical", {}
    worst, notes = {}, []
    for name in list(a) + [k for k in b if k not in a]:
        va, vb = a.get(name), b.get(name)
        if va == vb:
            continue
        worst[name] = _deviation(va, vb, scaled)
        if worst[name] < float("inf"):
            notes.append(f"{name} {worst[name]:.2g}")
        elif len(va or []) <= 1 and len(vb or []) <= 1:  # a summary entry
            notes.append(f"{name} {(va or [None])[0]!r} vs {(vb or [None])[0]!r}")
        else:
            notes.append(f"{name} not comparable ({len(va or [])} vs {len(vb or [])} rows)")
    kind = "scaled" if scaled else "rel"
    return f"max {kind} diff " + ", ".join(notes), worst


def zero_density_bound_ok(trace: dict) -> bool:
    """Every row's zero-density residual is at most
    ``ZERO_DENSITY_BOUND * max(1, micro_norm_w)``."""
    return all(
        float(z) <= ZERO_DENSITY_BOUND * max(1.0, float(m))
        for z, m in zip(trace["zero_density_residual"], trace["micro_norm_w"])
    )


def trace_extras(path_a: Path, path_b: Path) -> str:
    ta, tb = _columns(path_a), _columns(path_b)
    equal = "equal" if ta["rank"] == tb["rank"] else "DIFFER"
    zdr = " / ".join(f"{max(map(float, t['zero_density_residual'])):.2g}" for t in (ta, tb))
    return f"ranks {equal}; zero-density max {zdr}"


def rtol_failures(dir_a: Path, dir_b: Path, deviations: dict, tol: float) -> list:
    """Why a run fails the tolerance gate (empty if it passes): unequal ranks,
    a zero-density residual above the bound in ``dir_b`` where ``dir_a``
    holds it, or a value farther than ``tol`` times its column's largest
    magnitude.  The zero-density column is compared like the others only
    where ``dir_a`` breaks the bound (the unweighted aBUG runs, whose
    angular basis does not carry the constraint).  ``deviations`` maps each
    artifact name to its scaled deviations (:func:`compare_artifact`)."""
    ta, tb = _columns(dir_a / "trace.csv"), _columns(dir_b / "trace.csv")
    failures = []
    if ta.get("rank") != tb.get("rank"):
        failures.append("ranks differ")
    bounded = zero_density_bound_ok(ta)
    if bounded and not zero_density_bound_ok(tb):
        failures.append("zero-density residual above bound in b")
    for name, worst in deviations.items():
        failures += [f"{name} {col} {d:.2g}" for col, d in worst.items()
                     if not d <= tol and not (bounded and col == "zero_density_residual")]
    return failures


def compare_run(dir_a: Path, dir_b: Path, rtol=None) -> tuple:
    """Report lines of one run and whether it passes: a byte-identical
    ``trace.csv``, or with ``rtol`` the tolerance gate of :func:`rtol_failures`."""
    if not (dir_a / "trace.csv").exists() or not (dir_b / "trace.csv").exists():
        return [f"  missing artifacts (a: {dir_a.exists()}, b: {dir_b.exists()})"], False
    scaled = rtol is not None
    names = (["trace.csv", "rho_final.csv"]
             + sorted(p.name for p in dir_a.glob("slice_*.csv")) + ["summary.txt"])
    lines, identical, deviations = [], False, {}
    for name in names:
        report, deviations[name] = compare_artifact(dir_a / name, dir_b / name, scaled)
        if name == "trace.csv":
            identical = report == "identical"
            report += f"; {trace_extras(dir_a / name, dir_b / name)}"
        lines.append(f"  {name:14} {report}")
    if not scaled:
        return lines, identical
    failures = rtol_failures(dir_a, dir_b, deviations, rtol)
    lines.append(f"  {'rtol gate':14} " + ("pass" if not failures else "FAIL: " + "; ".join(failures)))
    return lines, not failures


def src_lines(tree: Path) -> int:
    """Lines of ``src/lrtrans/*.py`` in ``tree`` (``cat ... | wc -l``)."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "lrtrans").glob("*.py"))


def line_counts(src_a: Path, src_b: Path) -> str:
    a, b = src_lines(src_a), src_lines(src_b)
    return f"src/lrtrans lines: {a} in {src_a}, {b} in {src_b} ({b - a:+d})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--steps", type=int, default=120, help="step cap of every run")
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the run directories here (default: a temporary directory)")
    parser.add_argument("--rtol", type=float, default=None,
                        help="pass a run on the tolerance gate instead of byte identity")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        outs = [work / "a", work / "b"]
        procs = [run_tree(src.resolve(), out, args.steps)
                 for src, out in zip((args.src_a, args.src_b), outs)]
        for proc in procs:
            proc.wait()
        passed = 0
        for label, _ in RUNS:
            lines, ok = compare_run(outs[0] / _slug(label), outs[1] / _slug(label), args.rtol)
            passed += ok
            print(label)
            print("\n".join(lines))
        rule = "byte-identical" if args.rtol is None else f"within --rtol {args.rtol:g}"
        print(f"{passed} of {len(RUNS)} runs {rule}")
        print(line_counts(args.src_a, args.src_b))
    return 0 if passed == len(RUNS) else 1


if __name__ == "__main__":
    sys.exit(main())
