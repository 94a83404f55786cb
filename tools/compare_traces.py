"""Compare the run artifacts of two lrtrans source trees.

    python tools/compare_traces.py SRC_A SRC_B [--steps 120] [--work DIR]

``SRC_A`` and ``SRC_B`` are checkouts of the repository (each holding
``src/lrtrans``).  Every scenario/scheme pair of :data:`RUNS` is run in both
trees through ``execute_run``, capped at ``--steps`` steps, one
single-threaded interpreter per tree (the two trees run side by side).  For
each run the script then reports, per artifact (``trace.csv``,
``rho_final.csv``, the ``slice_*.csv`` files and ``summary.txt`` without its
wall-clock entries), either ``identical`` (byte for byte) or the largest
relative difference ``|a - b| / max(|a|, |b|)`` of each column that differs;
for ``trace.csv`` it adds whether the rank columns agree and the largest
zero-density residual of each tree.  The exit status is 0 when every
``trace.csv`` is byte-identical and 1 otherwise.
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


def _num(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def compare_csv(path_a: Path, path_b: Path) -> str:
    """``identical`` or the largest relative difference of each differing column."""
    if path_a.read_bytes() == path_b.read_bytes():
        return "identical"
    rows_a = [line.split(",") for line in path_a.read_text().splitlines()]
    rows_b = [line.split(",") for line in path_b.read_text().splitlines()]
    if rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return f"shape differs: {len(rows_a) - 1} vs {len(rows_b) - 1} rows, " \
               f"columns {rows_a[0]} vs {rows_b[0]}"
    worst = {}
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        for name, a, b in zip(rows_a[0], ra, rb):
            if a != b:
                fa, fb = _num(a), _num(b)
                d = _rel(fa, fb) if fa is not None and fb is not None else float("inf")
                worst[name] = max(worst.get(name, 0.0), d)
    return "max rel diff " + ", ".join(f"{k} {v:.2g}" for k, v in worst.items())


def trace_extras(path_a: Path, path_b: Path) -> str:
    cols = []
    for path in (path_a, path_b):
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        cols.append((
            [r[header.index("rank")] for r in rows],
            max(float(r[header.index("zero_density_residual")]) for r in rows),
        ))
    (ranks_a, zdr_a), (ranks_b, zdr_b) = cols
    equal = "equal" if ranks_a == ranks_b else "DIFFER"
    return f"ranks {equal}; zero-density max {zdr_a:.2g} / {zdr_b:.2g}"


def compare_summary(path_a: Path, path_b: Path) -> str:
    def read(path):
        pairs = (line.split(" = ", 1) for line in path.read_text().splitlines())
        return {k: v for k, v in pairs if k not in WALL_KEYS}

    a, b = read(path_a), read(path_b)
    diffs = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        fa, fb = _num(va or ""), _num(vb or "")
        if fa is not None and fb is not None:
            diffs.append(f"{key} {_rel(fa, fb):.2g}")
        else:
            diffs.append(f"{key} {va!r} vs {vb!r}")
    return "identical" if not diffs else "differs: " + ", ".join(diffs)


def compare_run(dir_a: Path, dir_b: Path) -> tuple:
    """Report lines of one run and whether its ``trace.csv`` is byte-identical."""
    if not (dir_a / "trace.csv").exists() or not (dir_b / "trace.csv").exists():
        return [f"  missing artifacts (a: {dir_a.exists()}, b: {dir_b.exists()})"], False
    lines = []
    trace = compare_csv(dir_a / "trace.csv", dir_b / "trace.csv")
    lines.append(f"  trace.csv      {trace}; {trace_extras(dir_a / 'trace.csv', dir_b / 'trace.csv')}")
    names = ["rho_final.csv"] + sorted(p.name for p in dir_a.glob("slice_*.csv"))
    for name in names:
        lines.append(f"  {name:14} {compare_csv(dir_a / name, dir_b / name)}")
    lines.append(f"  {'summary.txt':14} {compare_summary(dir_a / 'summary.txt', dir_b / 'summary.txt')}")
    return lines, trace == "identical"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--steps", type=int, default=120, help="step cap of every run")
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the run directories here (default: a temporary directory)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        outs = [work / "a", work / "b"]
        procs = [run_tree(src.resolve(), out, args.steps)
                 for src, out in zip((args.src_a, args.src_b), outs)]
        for proc in procs:
            proc.wait()
        identical = 0
        for label, _ in RUNS:
            lines, same = compare_run(outs[0] / _slug(label), outs[1] / _slug(label))
            identical += same
            print(label)
            print("\n".join(lines))
        print(f"{identical} of {len(RUNS)} traces byte-identical")
    return 0 if identical == len(RUNS) else 1


if __name__ == "__main__":
    sys.exit(main())
