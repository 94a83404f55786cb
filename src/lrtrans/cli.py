"""Command-line front end: ``run``, ``sweep``, and ``list-scenarios``."""

from __future__ import annotations

import argparse
import itertools
import sys
import typing
from dataclasses import fields, replace
from pathlib import Path

from . import scenarios
from .fullrank import SCHEMES
from .run import _CSV_FMT, RunManifest, execute_run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrtrans",
        description="Multiscale kinetic transport solver with low-rank micro states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one scenario/scheme pair")
    _add_run_flags(run_p)
    run_p.add_argument("--config", type=str, default=None,
                       help="plain 'key = value' file; flags override its entries")

    sweep_p = sub.add_parser("sweep", help="execute a cartesian product of runs")
    _add_run_flags(sweep_p)
    sweep_p.add_argument(
        "--vary",
        action="append",
        default=[],
        metavar="KEY=V1,V2,...",
        help="axis of the sweep; may be given several times",
    )

    sub.add_parser("list-scenarios", help="print the scenario vocabulary")
    return parser


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--scenario", type=str, default=None)
    p.add_argument("--scheme", type=str, default=None, choices=SCHEMES)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--dt-mult", type=float, default=None)
    p.add_argument("--mesh-div", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None,
                   help="override the scenario Knudsen number")
    p.add_argument("--unweighted", action="store_true", default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--error", dest="with_error", action="store_true", default=None,
                   help="force the reference-error computation")
    p.add_argument("--no-error", dest="with_error", action="store_false",
                   help="skip the reference-error computation")


def parse_config_file(path: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _parse_bool(text) -> bool:
    """``1/true/yes/on`` or ``0/false/no/off`` in any case; ``ValueError`` else."""
    try:
        return _BOOLS[str(text).strip().lower()]
    except KeyError:
        raise ValueError(f"expected true/false, yes/no, on/off or 1/0, got {text!r}") from None


def _manifest_parsers() -> dict:
    """Parser of every ``RunManifest`` field from its (possibly Optional) type."""
    hints = typing.get_type_hints(RunManifest)
    parsers = {}
    for f in fields(RunManifest):
        args = [a for a in typing.get_args(hints[f.name]) if a is not type(None)]
        base = args[0] if args else hints[f.name]
        parsers[f.name] = _parse_bool if base is bool else base
    return parsers


#: Config-file keys and sweep axes: every ``RunManifest`` field.
_MANIFEST_TYPES = _manifest_parsers()


def manifest_from_args(args) -> RunManifest:
    values = {}
    if getattr(args, "config", None):
        for key, val in parse_config_file(args.config).items():
            if key not in _MANIFEST_TYPES:
                raise ValueError(f"unknown configuration key {key!r}")
            values[key] = _MANIFEST_TYPES[key](val)
    for key in _MANIFEST_TYPES:  # a flag that is absent reads None
        arg = getattr(args, key, None)
        if arg is not None:
            values[key] = arg
    if "scenario" not in values or values["scenario"] is None:
        raise ValueError("a scenario is required (flag --scenario or config key)")
    values.setdefault("scheme", "IMEX-S-BUG")
    return RunManifest(**values)


def _print_summary(summary: dict, stream=None):
    for key, val in summary.items():
        print(f"{key} = {val}", file=stream or sys.stdout)


def cmd_run(args) -> int:
    manifest = manifest_from_args(args)
    result = execute_run(manifest)
    _print_summary(result.summary)
    return 0 if result.summary["status"] == "completed" else 1


def cmd_sweep(args) -> int:
    # a scenario supplied through a sweep axis satisfies the template too
    for axis_arg in args.vary:
        if axis_arg.startswith("scenario=") and getattr(args, "scenario", None) is None:
            args.scenario = axis_arg.split("=", 1)[1].split(",")[0]
    template = manifest_from_args(args)
    axes = {}
    for axis_arg in args.vary:
        if "=" not in axis_arg:
            raise ValueError(f"--vary expects KEY=V1,V2,..., got {axis_arg!r}")
        key, vals = axis_arg.split("=", 1)
        key = key.replace("-", "_")
        if key not in _MANIFEST_TYPES:
            raise ValueError(f"unknown sweep key {key!r}")
        if key in axes:
            raise ValueError(f"sweep key {key!r} is given twice")
        conv = _MANIFEST_TYPES[key]
        axes[key] = [(key, conv(v)) for v in vals.split(",") if v != ""]
        if not axes[key]:
            raise ValueError(f"sweep key {key!r} has no values")
    combos = list(itertools.product(*axes.values())) if axes else [()]

    out_root = Path(template.out) if template.out else None
    rows = []
    for i, combo in enumerate(combos):
        member = replace(template, **dict(combo))
        tag = "_".join(f"{k}-{v}" for k, v in combo) or "single"
        if out_root is not None:
            member = replace(member, out=str(out_root / tag))
        try:
            result = execute_run(member)
            summary = result.summary
        except ValueError as exc:
            summary = {"scenario": member.scenario, "scheme": member.scheme,
                       "status": f"failed: {exc}"}
        row = {
            "run": tag,
            "scenario": summary.get("scenario", member.scenario),
            "scheme": summary.get("scheme", member.scheme),
            "status": summary.get("status", "failed"),
            "steps": summary.get("steps_completed", ""),
            "dt": summary.get("dt", ""),
            "total_s": summary.get("total_wall_s", ""),
            "per_step_s": summary.get("per_step_mean_s", ""),
            "final_rank": summary.get("rank_final", ""),
            "l2_error": summary.get("l2_error", ""),
        }
        rows.append(row)
        print(f"[{i + 1}/{len(combos)}] {tag}: {row['status']}")

    if rows:
        header = list(rows[0].keys())
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(row[k]) for k in header))
        table = "\n".join(lines) + "\n"
        if out_root is not None:
            out_root.mkdir(parents=True, exist_ok=True)
            (out_root / "combined.csv").write_text(table)
        else:
            print(table, end="")
    ok = all(r["status"] == "completed" for r in rows)
    return 0 if ok else 1


def _fmt(v) -> str:
    if isinstance(v, float):
        return _CSV_FMT % v
    return str(v)


def cmd_list(_args) -> int:
    for name in scenarios.scenario_names():
        print(name)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_list(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
