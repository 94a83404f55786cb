"""Run driver and command-line front end: artifacts, reproducibility, sweeps."""

import csv
import math
import os
import subprocess
import sys
import warnings
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrtrans
from lrtrans import cli as cli_module
from lrtrans import diagnostics, fullrank
from lrtrans import run as run_module
from lrtrans.cli import main, parse_config_file
from lrtrans.fullrank import LinearSolveError, SchurOperator
from lrtrans.run import RunManifest, RunResult, execute_run, extract_slice


def quick_manifest(**kw):
    base = dict(scenario="gaussian1d-diff", scheme="IMEX-S-BUG", mesh_div=8)
    base.update(kw)
    return RunManifest(**base)


def test_trace_row_count_and_schema(tmp_path):
    out = tmp_path / "run"
    res = execute_run(quick_manifest(out=str(out)))
    dt = res.summary["dt"]
    scen_T = res.scenario.t_final
    expected_rows = math.ceil(scen_T / dt - 1e-9) + 1
    lines = (out / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "step,time,dt,energy,rho_norm,micro_norm_w,rank,zero_density_residual,mass"
    assert len(lines) - 1 == expected_rows
    assert (out / "rho_final.csv").exists()
    assert (out / "summary.txt").exists()
    summary_text = (out / "summary.txt").read_text()
    assert "status = completed" in summary_text
    assert "total_wall_s = " in summary_text


def test_density_file_coordinates(tmp_path):
    out = tmp_path / "run"
    res = execute_run(quick_manifest(out=str(out)))
    lines = (out / "rho_final.csv").read_text().strip().splitlines()
    assert lines[0] == "x,rho"
    assert len(lines) - 1 == res.grid.n_points
    x0, rho0 = map(float, lines[1].split(","))
    assert x0 == pytest.approx(res.grid.rho_coords[0, 0])
    assert rho0 == pytest.approx(res.rho_final[0])


def test_bitwise_reproducibility(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        execute_run(quick_manifest(out=str(out), seed=7))
        outs.append((out / "trace.csv").read_bytes())
    assert outs[0] == outs[1]


def test_slices_written(tmp_path):
    out = tmp_path / "g2"
    res = execute_run(
        RunManifest(scenario="gaussian2d", scheme="IMEX-S-BUG", mesh_div=8,
                    out=str(out), with_error=False)
    )
    slice_file = out / "slice_y=0.csv"
    assert slice_file.exists()
    lines = slice_file.read_text().strip().splitlines()
    assert lines[0] == "x,rho"
    pos, vals = extract_slice(res.grid, res.rho_final, "y", 0.0)
    assert len(lines) - 1 == len(pos)
    assert np.all(np.diff(pos) > 0)


def _per_row_csv(header, fmt, rows):
    """The artifact bytes of one ``fmt % row`` per row, the reference layout."""
    return (header + "\n" + "".join(fmt % row + "\n" for row in rows)).encode()


_SPECIAL = [-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf, 0.1, -1.0 / 3.0]


@pytest.mark.parametrize("scenario, mesh_div", [("gaussian1d-diff", 8), ("lattice2d", 4)])
def test_artifacts_match_the_per_row_format(tmp_path, scenario, mesh_div):
    # rho_final.csv, the slices and trace.csv, byte for byte, on a 1D grid
    # (every coordinate distinct) and a 2D grid, with non-finite, signed-zero,
    # subnormal and huge densities and trace values
    res = execute_run(RunManifest(scenario=scenario, scheme="IMEX-S-BUG", mesh_div=mesh_div,
                                  max_steps=2, rank=3, with_error=False))
    res.rho_final = np.resize(np.array(_SPECIAL), res.grid.n_points)
    res.records.append(replace(res.records[-1], step=3, energy=math.nan, mass=-0.0,
                               rho_norm=math.inf, zero_density_residual=5e-324))
    out = tmp_path / "run"
    run_module.write_artifacts(res, out)

    f17 = "%.17g"
    names = [f.name for f in fields(res.records[0])]
    fmt = ",".join("%d" if n in ("step", "rank") else f17 for n in names)
    assert (out / "trace.csv").read_bytes() == _per_row_csv(
        ",".join(names), fmt, [astuple(r) for r in res.records])
    dim = res.grid.dim
    assert (out / "rho_final.csv").read_bytes() == _per_row_csv(
        "x,rho" if dim == 1 else "x,y,rho", ",".join([f17] * (dim + 1)),
        zip(*res.grid.rho_coords.T.tolist(), res.rho_final.tolist()))
    for axis, value in res.scenario.slices:
        pos, vals = extract_slice(res.grid, res.rho_final, axis, value)
        assert (out / f"slice_{axis}={value:g}.csv").read_bytes() == _per_row_csv(
            f"{'y' if axis == 'x' else 'x'},rho", f"{f17},{f17}",
            zip(pos.tolist(), vals.tolist()))
    assert len(res.scenario.slices) == (2 if dim == 2 else 0)


def test_density_coordinates_formatted_by_their_bits(tmp_path):
    # -0.0 and 0.0 compare equal but print differently; each keeps its text
    res = execute_run(quick_manifest(max_steps=1))
    coords = res.grid.rho_coords.copy()
    coords[:2, 0] = (-0.0, 0.0)
    res.grid = replace(res.grid, rho_coords=coords)
    run_module._write_density(res, tmp_path / "rho.csv")
    lines = (tmp_path / "rho.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:3]] == ["-0", "0"]


def test_slice_picks_nearest_line():
    res = execute_run(
        RunManifest(scenario="lattice2d", scheme="IMEX-S-BUG", mesh_div=4,
                    max_steps=1, rank=5)
    )
    pos, vals = extract_slice(res.grid, res.rho_final, "y", 4.047)
    coords = res.grid.rho_coords
    ys = np.unique(coords[:, 1])
    nearest = ys[np.argmin(np.abs(ys - 4.047))]
    sel = np.isclose(coords[:, 1], nearest)
    assert len(pos) == int(np.sum(sel))


@pytest.mark.parametrize("scheme", ["IMEX", "IMEX-BUG", "IMEX-aBUG"])
def test_divergence_recorded(tmp_path, scheme):
    # a deliberately unstable explicit run overflows and is reported, even
    # where every numpy warning is an error
    out = tmp_path / "div"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = execute_run(
            RunManifest(scenario="gaussian1d-mid", scheme=scheme, dt_mult=30.0,
                        out=str(out))
        )
    assert res.summary["status"] == "diverged"
    assert res.summary["failed_step"] >= 1
    assert "failed_step" in (out / "summary.txt").read_text()
    # every surviving trace row is finite
    rows = (out / "trace.csv").read_text().strip().splitlines()[1:]
    assert all(math.isfinite(float(r.split(",")[3])) for r in rows)


@pytest.mark.parametrize(
    "owner,attr,exc,status",
    [
        (SchurOperator, "solve",
         LinearSolveError("conjugate gradients stopped", 1e-3), "solve_stalled"),
    ],
)
def test_step_failure_recorded_as_status(tmp_path, monkeypatch, owner, attr, exc, status):
    # a failing step ends the run with a status and partial artifacts, never
    # an escaped exception
    original = getattr(owner, attr)
    calls = []

    def fake(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise exc
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, fake)
    out = tmp_path / status
    res = execute_run(quick_manifest(out=str(out), max_steps=5))
    assert res.summary["status"] == status
    assert res.summary["failed_step"] == 3
    assert res.summary["steps_completed"] == 2
    summary_text = (out / "summary.txt").read_text()
    assert f"status = {status}" in summary_text
    assert "failed_step = 3" in summary_text
    assert len((out / "trace.csv").read_text().strip().splitlines()) == 1 + 3


def test_error_requested_without_reference_is_rejected(tmp_path, capsys):
    # gaussian1d-mid has no reference solution: --error is an input error,
    # raised before any step or artifact
    out = tmp_path / "mid"
    with pytest.raises(ValueError, match="no reference"):
        execute_run(RunManifest(scenario="gaussian1d-mid", scheme="IMEX", mesh_div=8,
                                with_error=True, out=str(out)))
    assert not out.exists()
    rc = main(["run", "--scenario", "gaussian1d-mid", "--mesh-div", "8", "--error"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "no reference" in captured.err and "status" not in captured.out


def test_cli_sweep_records_member_without_reference(capsys):
    rc = main([
        "sweep", "--scheme", "IMEX-S-BUG", "--mesh-div", "8", "--error",
        "--vary", "scenario=gaussian1d-mid,gaussian1d-diff", "--vary", "max_steps=2",
    ])
    assert rc == 1
    rows = capsys.readouterr().out.splitlines()
    mid = next(r for r in rows if r.startswith("scenario-gaussian1d-mid"))
    diff = next(r for r in rows if r.startswith("scenario-gaussian1d-diff"))
    assert "failed: scenario 'gaussian1d-mid' has no reference" in mid
    assert ",completed," in diff and float(diff.split(",")[-1]) > 0


def test_cli_unweighted_flag_selects_plain_abug(capsys):
    # the diffusive scenario runs IMEX-aBUG as AP-aBUG on weighted factors
    # and as plain aBUG with --unweighted; full-rank schemes reject the flag
    base = ["run", "--scenario", "gaussian1d-diff", "--mesh-div", "8", "--no-error"]
    for flags, integrator in (([], "AP-aBUG"), (["--unweighted"], "aBUG")):
        assert main(base + ["--scheme", "IMEX-aBUG"] + flags) == 0
        assert f"integrator = {integrator}\n" in capsys.readouterr().out
    assert main(base + ["--scheme", "IMEX", "--unweighted"]) == 2
    assert "--unweighted only applies to low-rank schemes" in capsys.readouterr().err


def test_config_unweighted_selects_plain_abug(tmp_path, capsys):
    # "unweighted = true" in a config file does what the flag does, and the
    # absent flag does not override it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("unweighted = true\n")
    argv = ["run", "--scenario", "gaussian1d-diff", "--mesh-div", "8", "--no-error",
            "--scheme", "IMEX-aBUG", "--config", str(cfg)]
    assert main(argv) == 0
    assert "integrator = aBUG\n" in capsys.readouterr().out


def test_self_reference_error():
    # kinetic scenario compares against a four-times-refined full-rank run,
    # restricted to coincident density points
    res = execute_run(
        RunManifest(scenario="gaussian1d-kinetic", scheme="IMEX-S-BUG",
                    mesh_div=8, with_error=True)
    )
    assert "l2_error_rel" in res.summary
    assert 0.0 < res.summary["l2_error_rel"] < 0.5
    # off by default for this scenario (the reference costs a refined run)
    res2 = execute_run(
        RunManifest(scenario="gaussian1d-kinetic", scheme="IMEX-S-BUG",
                    mesh_div=8, max_steps=2)
    )
    assert "l2_error_rel" not in res2.summary


def test_failed_reference_solve_recorded_as_status(tmp_path, monkeypatch):
    # the diffusion reference's CG solve stalls, and only that solve: the run
    # keeps its steps and artifacts, records reference_failed and no error,
    # and the command line exits 1.  The reference's medium is homogeneous,
    # so the stall is injected at its solver factory, which is sent to the
    # stencil CG solve with too few iterations instead of the FFT one
    def stalling_solver(grid, diag, coef, c):
        monkeypatch.setattr(fullrank, "CG_MAXITER_PER_UNKNOWN", 2 / grid.n_points)
        return fullrank.spd_solver(*fullrank._density_stencil(grid, diag, coef, c))

    monkeypatch.setattr(diagnostics, "density_solver", stalling_solver)
    out = tmp_path / "ref"
    res = execute_run(quick_manifest(out=str(out), max_steps=3, with_error=True))
    assert res.summary["status"] == "reference_failed"
    assert res.summary["steps_completed"] == 3
    assert "l2_error" not in res.summary and "l2_error_rel" not in res.summary
    summary_text = (out / "summary.txt").read_text()
    assert "status = reference_failed" in summary_text and "l2_error" not in summary_text
    assert len((out / "trace.csv").read_text().strip().splitlines()) == 1 + 4
    rc = main(["run", "--scenario", "gaussian1d-diff", "--mesh-div", "8", "--error",
               "--out", str(tmp_path / "cli")])
    assert rc == 1
    assert (tmp_path / "cli" / "rho_final.csv").exists()


@pytest.mark.parametrize("scheme", ["IMEX-S", "IMEX-S-BUG"])
def test_step_constants_formed_once_per_run(monkeypatch, scheme):
    # the step context, and with it the sweep's block plan, is built once
    # per run, not once per step or sweep
    calls = {"context": 0, "blocks": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(run_module, "step_context", counting("context", run_module.step_context))
    monkeypatch.setattr(fullrank, "_row_blocks", counting("blocks", fullrank._row_blocks))
    res = execute_run(quick_manifest(scheme=scheme, max_steps=5, with_error=False))
    assert res.summary["steps_completed"] == 5
    assert calls == {"context": 1, "blocks": 1}


def test_manifest_validation():
    with pytest.raises(ValueError):
        execute_run(RunManifest(scenario="nope", scheme="IMEX"))
    with pytest.raises(ValueError):
        execute_run(RunManifest(scenario="bimodal1d", scheme="IMEX-X"))
    with pytest.raises(ValueError):
        execute_run(RunManifest(scenario="bimodal1d", scheme="IMEX", rank=0))
    with pytest.raises(ValueError):
        execute_run(RunManifest(scenario="bimodal1d", scheme="IMEX", unweighted=True))
    for max_steps in (0, -3):
        with pytest.raises(ValueError, match="max_steps"):
            execute_run(quick_manifest(max_steps=max_steps))


def test_cli_config_file_rejects_nonpositive_max_steps(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = gaussian1d-diff\nscheme = IMEX\nmesh_div = 8\nmax_steps = -2\n")
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "max_steps" in captured.err
    assert "status = completed" not in captured.out


def test_rank_and_tau_overrides():
    res = execute_run(quick_manifest(rank=2, max_steps=2))
    assert res.summary["rank_final"] == 2
    res2 = execute_run(
        RunManifest(scenario="gaussian1d-mid", scheme="IMEX-aBUG", mesh_div=8,
                    tau=0.5, max_steps=5)
    )
    assert res2.summary["rank_final"] <= 2


def test_theta_recorded():
    res = execute_run(quick_manifest(max_steps=1))
    assert res.summary["theta"] == 0.0
    res = execute_run(quick_manifest(scheme="IMEX-BUG", max_steps=1))
    assert res.summary["theta"] == 1.0


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "gaussian1d-diff" in out and "lattice2d" in out


def test_cli_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "cli"
    rc = main([
        "run", "--scenario", "gaussian1d-diff", "--scheme", "IMEX-S-BUG",
        "--mesh-div", "8", "--out", str(out),
    ])
    assert rc == 0
    assert (out / "trace.csv").exists()
    printed = capsys.readouterr().out
    assert "status = completed" in printed
    # monotone energy column per the diffusive-regime guarantee
    rows = (out / "trace.csv").read_text().strip().splitlines()[1:]
    energies = np.array([float(r.split(",")[3]) for r in rows])
    assert np.all(np.diff(energies) <= 1e-12 * energies[0])


def test_cli_unknown_scenario_exit_code(capsys):
    assert main(["run", "--scenario", "nope"]) == 2


def test_cli_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reduced diffusive run\n"
        "scenario = gaussian1d-diff\n"
        "scheme = IMEX-S-BUG\n"
        "mesh-div = 8\n"
        "seed = 3\n"
    )
    parsed = parse_config_file(str(cfg))
    assert parsed == {"scenario": "gaussian1d-diff", "scheme": "IMEX-S-BUG",
                      "mesh_div": "8", "seed": "3"}
    out = tmp_path / "from_config"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    assert (out / "summary.txt").read_text().count("seed = 3") == 1


def test_cli_config_file_bad_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scenario gaussian1d-diff\n")
    assert main(["run", "--config", str(cfg)]) == 2


def test_cli_config_that_is_a_directory_is_an_input_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_output_path_under_a_file_is_rejected_before_any_work(tmp_path, monkeypatch, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")

    def no_work(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(run_module.scenarios, "build_objects", no_work)
    for out in (taken, taken / "run"):
        with pytest.raises(ValueError, match="not a directory"):
            execute_run(quick_manifest(out=str(out)))
        rc = main(["run", "--scenario", "gaussian1d-diff", "--mesh-div", "8", "--out", str(out)])
        assert rc == 2
        assert "not a directory" in capsys.readouterr().err
    assert taken.read_text() == "keep\n"


def test_cli_sweep_into_a_file_records_each_member_as_failed(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    rc = main(["sweep", "--scenario", "gaussian1d-diff", "--mesh-div", "8",
               "--vary", "scheme=IMEX,IMEX-S", "--vary", "max_steps=2", "--out", str(taken)])
    captured = capsys.readouterr()
    assert captured.out.count("failed: output path") == 2
    # nor can the combined table be written there
    assert rc == 2 and captured.err.startswith("error: ")
    assert taken.read_text() == "keep\n"


def test_cli_sweep_combined_table(tmp_path):
    out = tmp_path / "sweep"
    rc = main([
        "sweep", "--scenario", "gaussian1d-diff", "--mesh-div", "8",
        "--vary", "scheme=IMEX-BUG,IMEX-S-BUG", "--out", str(out),
    ])
    assert rc == 0
    table = (out / "combined.csv").read_text().strip().splitlines()
    assert table[0].startswith("run,scenario,scheme,status")
    assert len(table) == 3
    assert (out / "scheme-IMEX-BUG" / "trace.csv").exists()
    assert (out / "scheme-IMEX-S-BUG" / "trace.csv").exists()


def test_cli_sweep_mesh_refinement_order(tmp_path):
    # sweeping the manufactured meshes produces a combined table whose
    # fitted error slope reflects the first-order kinetic regime
    out = tmp_path / "order"
    rc = main([
        "sweep", "--scheme", "IMEX-S-BUG",
        "--vary", "scenario=mms2d-16,mms2d-32,mms2d-64", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "combined.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    i_err, i_scen = header.index("l2_error"), header.index("scenario")
    errs = {}
    for line in lines[1:]:
        cells = line.split(",")
        errs[int(cells[i_scen].split("-")[1])] = float(cells[i_err])
    ns = sorted(errs)
    slope = np.polyfit(np.log(ns), np.log([errs[n] for n in ns]), 1)[0]
    assert -1.3 <= slope <= -0.7


def test_cli_sweep_records_member_failure(tmp_path):
    # one stable member, one that overflows (at step 97); the sweep finishes
    # and reports both
    out = tmp_path / "sweepfail"
    rc = main([
        "sweep", "--scenario", "gaussian1d-mid", "--scheme", "IMEX",
        "--vary", "dt_mult=1.0,30.0", "--vary", "max_steps=120", "--out", str(out),
    ])
    assert rc == 1
    table = (out / "combined.csv").read_text()
    assert "completed" in table and "diverged" in table


def test_cli_sweep_records_invalid_member(capsys):
    # a member whose manifest fails validation is recorded as failed; the
    # other member still runs
    rc = main([
        "sweep", "--scenario", "gaussian1d-diff", "--scheme", "IMEX-S-BUG",
        "--mesh-div", "8", "--vary", "rank=0,2", "--vary", "max_steps=2",
    ])
    assert rc == 1
    rows = capsys.readouterr().out.splitlines()
    assert "failed: rank override must be >= 1" in next(r for r in rows if r.startswith("rank-0"))
    assert ",completed," in next(r for r in rows if r.startswith("rank-2"))


def test_cli_sweep_quotes_a_failure_message_with_commas(tmp_path):
    # the unknown-scheme message lists the schemes, comma-separated
    out = tmp_path / "sweep"
    rc = main([
        "sweep", "--scenario", "gaussian1d-diff", "--mesh-div", "8",
        "--vary", "scheme=IMEX,bogus", "--vary", "max_steps=2", "--out", str(out),
    ])
    assert rc == 1
    with open(out / "combined.csv", newline="") as f:
        header, *rows = csv.reader(f)
    assert [len(row) for row in rows] == [len(header)] * 2
    status = header.index("status")
    assert rows[0][status] == "completed"
    assert rows[1][status].startswith("failed: unknown scheme 'bogus'")


def test_cli_empty_sweep_is_single_run(tmp_path, capsys):
    rc = main([
        "sweep", "--scenario", "gaussian1d-diff", "--scheme", "IMEX-S-BUG",
        "--mesh-div", "8",
    ])
    assert rc == 0
    assert "single" in capsys.readouterr().out


def test_console_entry_point():
    # the subprocess imports this tree's lrtrans, installed or not
    src = str(Path(lrtrans.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "lrtrans.cli", "list-scenarios"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "bimodal1d" in proc.stdout


def test_cli_config_file_accepts_every_manifest_field(tmp_path):
    # with_error and max_steps are RunManifest fields, so a config file may set them
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "scenario = gaussian1d-diff\n"
        "scheme = IMEX-S-BUG\n"
        "mesh_div = 8\n"
        "with_error = false\n"
        "max_steps = 3\n"
    )
    out = tmp_path / "capped"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "steps_completed = 3\n" in summary
    assert "l2_error" not in summary


def test_cli_sweep_varies_max_steps(tmp_path):
    out = tmp_path / "steps"
    rc = main([
        "sweep", "--scenario", "gaussian1d-diff", "--scheme", "IMEX-S-BUG",
        "--mesh-div", "8", "--vary", "max_steps=1,2", "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "combined.csv").read_text().strip().splitlines()
    steps = lines[0].split(",").index("steps")
    assert [line.split(",")[steps] for line in lines[1:]] == ["1", "2"]


# overrides that are rejected up front, because unchecked they fail late or
# not at all: a nan tau makes the truncation rule meaningless, a nan dt_mult
# breaks the step count, an infinite dt_mult or epsilon diverges at the first
# step, an epsilon whose square underflows or overflows and a dt_mult too small
# for a finite step count raise inside the set-up or the first step, a dt_mult
# whose one step passes the horizon runs to t = dt (and its reference that
# far), and a negative seed raises inside the random generator
@pytest.mark.parametrize(
    "flag, value, message",
    [
        pytest.param("--tau", "nan", "tau", id="tau-nan"),
        pytest.param("--tau", "inf", "tau", id="tau-inf"),
        pytest.param("--dt-mult", "nan", "dt multiplier", id="dt_mult-nan"),
        pytest.param("--dt-mult", "inf", "dt multiplier", id="dt_mult-inf"),
        pytest.param("--epsilon", "nan", "epsilon", id="epsilon-nan"),
        pytest.param("--epsilon", "inf", "epsilon", id="epsilon-inf"),
        pytest.param("--epsilon", "1e-300", "epsilon", id="epsilon-square-underflows"),
        pytest.param("--epsilon", "1e300", "epsilon", id="epsilon-square-overflows"),
        pytest.param("--dt-mult", "1e-320", "dt multiplier", id="dt_mult-step-count-overflows"),
        pytest.param("--dt-mult", "1e4", "at most t_final", id="dt_mult-step-past-horizon"),
        pytest.param("--seed", "-1", "seed", id="seed-negative"),
    ],
)
def test_cli_run_rejects_non_finite_or_negative_override(capsys, flag, value, message):
    rc = main(["run", "--scenario", "bimodal1d", "--scheme", "IMEX-aBUG", flag, value])
    assert rc == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "status" not in captured.out


# 10**u over the whole double exponent range, from 0 (underflow) to 1.8e308
_POWERS_OF_TEN = st.floats(-324.0, 308.25).map(lambda u: 10.0**u)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    where=st.sampled_from([("bimodal1d", 25), ("mms2d-16", 4)]),
    scheme=st.sampled_from(list(fullrank.SCHEMES)),
    epsilon=st.none() | _POWERS_OF_TEN,
    dt_mult=_POWERS_OF_TEN,
)
def test_no_override_escapes_execute_run(where, scheme, epsilon, dt_mult):
    # a run either ends with a recorded status or is refused with ValueError
    scenario, mesh_div = where
    manifest = RunManifest(
        scenario=scenario, scheme=scheme, mesh_div=mesh_div, epsilon=epsilon,
        dt_mult=dt_mult, max_steps=2, with_error=False,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            result = execute_run(manifest)
        except ValueError:
            return
    assert isinstance(result, RunResult)


def test_parse_bool_accepts_known_words_in_any_case():
    for text in ("1", "true", "TRUE", "Yes", "on", " On "):
        assert cli_module._parse_bool(text) is True
    for text in ("0", "false", "False", "NO", "off"):
        assert cli_module._parse_bool(text) is False
    for text in ("tru", "maybe", "", "2", "y"):
        with pytest.raises(ValueError, match="expected"):
            cli_module._parse_bool(text)


def test_cli_config_file_rejects_unknown_boolean(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = bimodal1d\nscheme = IMEX-S-BUG\nunweighted = tru\n")
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "'tru'" in captured.err
    assert "status" not in captured.out


def test_cli_sweep_rejects_unknown_boolean(tmp_path, capsys):
    rc = main([
        "sweep", "--scenario", "bimodal1d", "--scheme", "IMEX-S-BUG",
        "--vary", "unweighted=maybe", "--out", str(tmp_path / "sweep"),
    ])
    assert rc == 2
    assert "'maybe'" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_cli_sweep_rejects_an_axis_without_values(tmp_path, capsys):
    rc = main([
        "sweep", "--scenario", "bimodal1d", "--scheme", "IMEX-S-BUG",
        "--vary", "rank=", "--out", str(tmp_path / "sweep"),
    ])
    assert rc == 2
    assert "'rank' has no values" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_cli_sweep_rejects_a_key_given_twice(tmp_path, capsys):
    rc = main([
        "sweep", "--scenario", "bimodal1d", "--scheme", "IMEX-S-BUG",
        "--vary", "rank=2", "--vary", "rank=3", "--out", str(tmp_path / "sweep"),
    ])
    assert rc == 2
    assert "'rank' is given twice" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("axis", ["dt_mult=1,1.0", "unweighted=yes,true", "rank=2,3,2"])
def test_cli_sweep_rejects_a_value_repeated_on_one_axis(tmp_path, capsys, axis):
    # the members would share a tag, and the second would overwrite the first
    rc = main([
        "sweep", "--scenario", "bimodal1d", "--scheme", "IMEX-S-BUG",
        "--vary", axis, "--out", str(tmp_path / "sweep"),
    ])
    assert rc == 2
    assert f"{axis.split('=')[0]!r} repeats a value" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()
