"""Alternated parent/change benchmark pairs and their verdict.

    python tools/bench_pairs.py PARENT CHANGE --label L --seeds A-B
        [--workloads W [W ...]] [--claim METRIC:WORKLOAD]

``PARENT`` and ``CHANGE`` are checkouts of the repository.  For every seed
of ``A-B`` (outer) and every workload (inner; by default all of the
change's ``BENCHMARK.json``), one pair is two whole
``perfbench/run.py --workload W --seed S --seconds 25 --trace 0``
invocations, one from each tree's root, one after the other; the parent
runs first on even pairs (counted from 0 per workload) and the change on
odd ones, so that slow drift of the host favours neither side.

The script writes ``BENCH_<label>.json`` into the current directory: the
command, both commits, the pairing, the machine and library versions (as
the first invocation reports them), and per workload the seeds, a summary
and every run.  The summary gives, for each end-to-end metric, the parent
and change medians and quartiles over the pairs, ``change_lower_pairs``,
``equal_pairs``, ``pairs``, ``median_rel_change`` and the metric's bound;
``fail_rate`` counts failed and attempted runs on each side.

The exit status is 1 when an invocation fails, when the change fails a
larger share of runs than the parent, when the change's median of an
end-to-end metric is worse than the parent's by more than its
``BENCHMARK.json`` bound on any workload, or when the
``--claim`` fails the gain rule: the change better in at least nine of
every ten pairs (and at least ten pairs), and its median better than the
parent's by more than the parent's interquartile range.  It is 2, before
any invocation, for an unknown or repeated workload or a ``--claim`` that is
no end-to-end metric of a chosen workload, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 25
#: Share of pairs the change must win for a claimed gain.
WIN_SHARE = 0.9
MIN_CLAIM_PAIRS = 10


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="A-B, inclusive")
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--claim", help="METRIC:WORKLOAD of a claimed gain")
    return parser.parse_args(argv)


def invoke(tree: Path, workload: str, seed: int) -> tuple:
    """``(result, env)`` of one benchmark invocation from ``tree``'s root: its
    final JSON line and its ``env:`` line; ``(None, None)`` if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{tree} {workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
        return None, None
    env = next((json.loads(line[5:]) for line in lines if line.startswith("env: ")), {})
    return json.loads(lines[-1]), env


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(sorted(values), n=4, method="inclusive")
    return q2, q1, q3


def summarize(runs, metrics) -> dict:
    """Per end-to-end metric of ``metrics`` (``BENCHMARK.json`` entries), the
    pair statistics of ``runs``; then the fail counts."""
    summary = {}
    for spec in metrics:
        name, sign = spec["name"], (1.0 if spec["better"] == "lower" else -1.0)
        pairs = [(r["parent"]["metrics"][name]["value"], r["change"]["metrics"][name]["value"])
                 for r in runs
                 if name in r["parent"]["metrics"] and name in r["change"]["metrics"]]
        if not pairs:
            continue
        p_med, p_q1, p_q3 = _quartiles([p for p, _ in pairs])
        c_med, c_q1, c_q3 = _quartiles([c for _, c in pairs])
        summary[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
            "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
            "change_lower_pairs": sum(c < p for p, c in pairs),
            "change_better_pairs": sum(sign * (p - c) > 0 for p, c in pairs),
            "equal_pairs": sum(c == p for p, c in pairs),
            "pairs": len(pairs),
            "median_rel_change": (c_med - p_med) / p_med if p_med else 0.0,
            "bound": spec["bound"],
        }
    summary["fail_rate"] = {
        f"{side}_{key}": sum(r[side][key] for r in runs)
        for side in ("parent", "change") for key in ("failed", "attempted")
    }
    return summary


def regressions(workload: str, summary: dict) -> list:
    """Messages for the metrics whose change median is worse than the
    parent's by more than the metric's bound."""
    out = []
    for name, s in summary.items():
        if name == "fail_rate":
            continue
        worse = s["median_rel_change"] if s["better"] == "lower" else -s["median_rel_change"]
        if worse > s["bound"]:
            out.append(f"{workload} {name}: {s['parent_median']:.6g} -> "
                       f"{s['change_median']:.6g} ({100 * worse:+.1f} % worse, bound "
                       f"{100 * s['bound']:.0f} %)")
    rates = summary["fail_rate"]
    if rates["change_failed"] * max(rates["parent_attempted"], 1) > (
            rates["parent_failed"] * max(rates["change_attempted"], 1)):
        out.append(f"{workload}: a larger share of runs failed ({rates})")
    return out


def gain_verdict(s: dict) -> tuple:
    """``(met, text)`` of the gain rule on one metric's summary."""
    sign = 1.0 if s["better"] == "lower" else -1.0
    gap = sign * (s["parent_median"] - s["change_median"])
    iqr = s["parent_q3"] - s["parent_q1"]
    need = math.ceil(WIN_SHARE * s["pairs"])
    met = s["pairs"] >= MIN_CLAIM_PAIRS and s["change_better_pairs"] >= need and gap > iqr
    text = (f"{s['parent_median']:.6g} -> {s['change_median']:.6g} "
            f"({100 * s['median_rel_change']:+.1f} %), better in {s['change_better_pairs']} "
            f"of {s['pairs']} pairs (needs {need}, and at least {MIN_CLAIM_PAIRS} pairs), "
            f"median gap {gap:.4g} against the parent's interquartile range {iqr:.4g}")
    return met, text


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    known = {w["name"] for w in bench["workloads"]}
    claim = None
    if args.claim:
        metric, _, claim_workload = args.claim.partition(":")
        metrics = {m["name"] for m in bench["end_to_end"]}
        if claim_workload not in workloads or metric not in metrics:
            print(f"--claim {args.claim}: not an end-to-end metric of a chosen workload",
                  file=sys.stderr)
            return 2
        claim = (metric, claim_workload)
    if not set(workloads) <= known:
        print(f"unknown workloads {sorted(set(workloads) - known)}", file=sys.stderr)
        return 2
    if len(set(workloads)) < len(workloads):  # its pairs would not alternate
        print(f"a workload is given twice in {workloads}", file=sys.stderr)
        return 2

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {w: [] for w in workloads}
    envs, errors = {}, []
    for i, seed in enumerate(args.seeds):
        for workload in workloads:
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "workload": workload, "parent_first": i % 2 == 0}
            for side in order:
                pair[side], env = invoke(trees[side], workload, seed)
                if pair[side] is None:
                    errors.append(f"{side} {workload} seed {seed}: invocation failed")
                else:
                    envs.setdefault(side, env)
            if pair["parent"] is not None and pair["change"] is not None:
                runs[workload].append(pair)
            print(f"seed {seed} {workload}: " + ", ".join(
                f"{side} step_ms_p50 "
                f"{pair[side]['metrics'].get('step_ms_p50', {}).get('value', float('nan')):.4g}"
                for side in order if pair[side] is not None), flush=True)

    doc_workloads, lines = {}, []
    verdict = {"regressions": [], "claim": None}
    for workload in workloads:
        summary = summarize(runs[workload], bench["end_to_end"])
        verdict["regressions"] += regressions(workload, summary)
        doc_workloads[workload] = {"seeds": [r["seed"] for r in runs[workload]],
                                   "summary": summary, "runs": runs[workload]}
        for name, s in summary.items():
            if name != "fail_rate":
                lines.append(f"{workload} {name}: {s['parent_median']:.6g} -> "
                             f"{s['change_median']:.6g} ({100 * s['median_rel_change']:+.2f} %, "
                             f"{s['change_lower_pairs']} of {s['pairs']} lower)")
    met = True
    if claim is not None:
        s = doc_workloads[claim[1]]["summary"].get(claim[0])
        met, text = gain_verdict(s) if s else (False, "no pairs")
        verdict["claim"] = f"{claim[0]} on {claim[1]}: {'met' if met else 'NOT met'}: {text}"
    ok = not errors and not verdict["regressions"] and met

    machine = {k: v for k, v in envs.get("change", {}).items() if k not in ("commit", "seed")}
    doc = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "parent_commit": envs.get("parent", {}).get("commit"),
        "change_commit": envs.get("change", {}).get("commit"),
        "pairing": (f"tools/bench_pairs.py: one parent and one change invocation per seed and "
                    f"workload, seeds {args.seeds[0]}-{args.seeds[-1]}, seed outer and workload "
                    f"inner; the parent runs first on even pairs, the change on odd ones"),
        "claim": verdict["claim"] or "none",
        "result": ("pass" if ok else "FAIL") + ": " + "; ".join(
            errors + verdict["regressions"] or ["no end-to-end metric worse than its bound"]),
        "machine": machine,
        "workloads": doc_workloads,
    }
    Path(f"BENCH_{args.label}.json").write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(lines))
    for line in errors + verdict["regressions"]:
        print("FAIL " + line)
    if verdict["claim"]:
        print("claim " + verdict["claim"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
