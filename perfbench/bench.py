"""Benchmark harness for lrtrans: end-to-end runs and the traced per-layer run.

Run from the repository root::

    python3 perfbench/run.py --workload diffusive2d-bug --seed 1 --seconds 25 --trace 0

One invocation computes the workload's reference once, then runs the
workload closed-loop, one fresh interpreter at a time, until the next run
would end after ``--seconds``.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced runs and
reports the per-layer metrics plus the tracing overhead.  Every line but the
last is a human-readable report; the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import END_TO_END, LAYER_MAP, WORKLOADS

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Wall-clock budget of one invocation; no child may run past it.
DEADLINE_S = 170.0
#: Untraced runs always made with ``--trace 0``, so set-up is timed several times.
MIN_RUNS = 3


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Harness:
    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.update({v: "1" for v in THREAD_VARS})
        self._jobs = 0

    def child(self, job: dict):
        """Run one job in a fresh interpreter; ``None`` if it timed out."""
        self._jobs += 1
        job = dict(job, src=str(self.root / "src"),
                   result_path=str(self.work / f"result-{self._jobs}.json"))
        job_path = self.work / f"job-{self._jobs}.json"
        job_path.write_text(json.dumps(job))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_path)],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0:
            raise HarnessError(f"{job['mode']} job exited {proc.returncode}:\n"
                               + proc.stderr[-2000:])
        return json.loads(Path(job["result_path"]).read_text())

    def reference(self, workload) -> dict:
        meta = self.child({
            "mode": "reference", "manifest": workload.manifest,
            "reference": workload.reference,
            "reference_path": str(self.work / "reference.npy"),
        })
        if meta is None:
            raise HarnessError("reference computation ran out of time")
        return meta

    def run(self, workload, seed: int, ref_meta: dict, traced: bool, index: int,
            spans_dir: Path) -> dict:
        out_dir = self.work / f"run-{index}"
        result = self.child({
            "mode": "run", "manifest": workload.manifest, "seed": seed,
            "out": str(out_dir), "trace": traced,
            "run_id": f"{workload.name}-{seed}-{index}",
            "spans_path": str(spans_dir / f"spans-{index}.csv"),
            "reference_path": str(self.work / "reference.npy"),
            "reference_meta": ref_meta,
            "source_free": workload.source_free, "l2_pinned": workload.l2_pinned,
        })
        shutil.rmtree(out_dir, ignore_errors=True)
        if result is None:
            result = {"failures": ["timed out"]}
        result["traced"] = traced
        return result


def measure(harness: Harness, workload, seed: int, seconds: float, trace: bool,
            spans_dir: Path):
    """Reference once, then closed-loop runs until the next would overrun."""
    ref_meta = harness.reference(workload)
    runs = []
    end = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        traced = trace and len(runs) % 2 == 1
        runs.append(harness.run(workload, seed, ref_meta, traced, len(runs), spans_dir))
        took = time.monotonic() - started
        if "timed out" in runs[-1]["failures"]:
            break
        minimum = 2 if trace else MIN_RUNS
        if len(runs) >= minimum and time.monotonic() + took > end:
            break
        if time.monotonic() + took > harness.deadline:
            break
    return ref_meta, runs


# ---------------------------------------------------------------------------
# aggregation and report
# ---------------------------------------------------------------------------

def quartiles(values):
    """``(median, q1, q3, n)`` of a non-empty sample."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3, len(values)


def end_to_end_samples(runs) -> dict:
    """Samples of each end-to-end metric over the successful untraced runs."""
    ok = [r for r in runs if not r["failures"] and not r["traced"]]
    samples = {name: [r[name] for r in ok if r.get(name) is not None]
               for name in ("run_s", "setup_s", "peak_rss_mb", "l2_error_rel")}
    samples["step_ms_p50"] = [ms for r in ok for ms in r.get("step_ms", [])]
    return samples


def layer_values(runs) -> dict:
    traced = [r for r in runs if r["traced"] and not r["failures"]]
    plain = [r["run_s"] for r in runs if not r["traced"] and not r["failures"]]
    values = {}
    for name in LAYER_MAP:
        got = [r["layers"][name] for r in traced if r["layers"].get(name) is not None]
        values[name] = statistics.median(got) if got else None
    if traced and plain:
        values["trace.overhead_frac"] = (
            statistics.median(r["run_s"] for r in traced) / statistics.median(plain) - 1.0
        )
    return values


def machine_info(root: Path) -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        caches = {}
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                (index / "size").read_text().strip())
        info["caches"] = caches
    except OSError:
        pass
    info["commit"] = git_commit(root)
    return info


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def report(workload, args, ref_meta, runs, info) -> dict:
    attempted = len(runs)
    failed = sum(1 for r in runs if r["failures"])
    print(f"perfbench workload={workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}")
    print(f"manifest: {workload.describe()} (closed loop, one fresh interpreter per run, "
          f"single-threaded BLAS)")
    print("env: " + json.dumps(dict(info, **ref_meta["env"], seed=args.seed,
                                    steps_per_run=workload.manifest.get("max_steps"))))
    for i, r in enumerate(runs):
        if r["failures"]:
            print(f"run {i} failed: " + "; ".join(r["failures"]))
        if "step_marks" in r:
            print(f"run {i}: step metrics missing ({r['step_marks']})")
    print(f"runs: attempted {attempted}, failed {failed}, "
          f"fail_rate {failed / attempted:.4g}")

    metrics = {}
    if not args.trace:
        print(f"{'metric':<16}{'unit':<6}{'median':>14}{'q1':>14}{'q3':>14}{'n':>7}")
        for name, samples in end_to_end_samples(runs).items():
            unit = END_TO_END[name][0]
            if not samples:
                print(f"{name:<16}{unit:<6}{'missing':>14}")
                continue
            med, q1, q3, n = quartiles(samples)
            print(f"{name:<16}{unit:<6}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{n:>7}")
            metrics[name] = {"value": med, "unit": unit}
        print(f"{'fail_rate':<16}{'1':<6}{failed / attempted:>14.6g}{'':>28}{attempted:>7}")
    else:
        values = layer_values(runs)
        absent = []
        for name, (unit, _, moves) in LAYER_MAP.items():
            value = values.get(name)
            if value is None:
                absent.append(name)
                value = 0.0
            print(f"{name:<52}{unit:<6}{value:>14.6g}   -> {moves}")
            metrics[name] = {"value": value, "unit": unit}
        print("absent (layer did not run; reported as 0): " + (", ".join(absent) or "none"))
        missing = sorted({t for r in runs for t in r.get("absent_targets", [])})
        if missing:
            print("targets no longer in lrtrans: " + ", ".join(missing))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lrtrans" / "__init__.py").is_file():
        print(f"perfbench: no lrtrans sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    (root / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root / ".perfbench_work"))
    spans_dir = root / ".perfbench_out" / workload.name
    if args.trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
    try:
        harness = Harness(root, work, deadline)
        ref_meta, runs = measure(harness, workload, args.seed, args.seconds,
                                 bool(args.trace), spans_dir)
        result = report(workload, args, ref_meta, runs, machine_info(root))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another invocation still uses it
            pass
    print(json.dumps(result))
    return 0
