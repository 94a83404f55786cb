"""The trace gate of ``tools/compare_traces.py`` on synthetic run directories
(no solver runs): byte identity by default, the ``--rtol`` tolerance gate
otherwise; and its line count of the two source trees."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_traces.py"
_spec = importlib.util.spec_from_file_location("compare_traces", _PATH)
ct = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ct)

TRACE = [
    # step, energy, micro_norm_w, rank, zero_density_residual, mass
    (0, 1.0, 0.0, 3, 0.0, 2.0),
    (1, 0.9, 0.5, 4, 3.1e-17, 2.0),
    (2, 0.8, 2.0, 4, 1.2e-16, 2.0),
]
RHO = [(0.0, 1.0), (0.5, 1e-17), (1.0, -0.5)]
SUMMARY = {"status": "completed", "rank_final": 4, "energy_final": 0.8,
           "total_wall_s": 1.25}


def write_run(path, trace=TRACE, rho=RHO, summary=SUMMARY):
    path.mkdir(parents=True)
    lines = ["step,energy,micro_norm_w,rank,zero_density_residual,mass"]
    lines += [f"{s},{e!r},{m!r},{r},{z!r},{ma!r}" for s, e, m, r, z, ma in trace]
    (path / "trace.csv").write_text("\n".join(lines) + "\n")
    lines = ["x,rho"] + [f"{x!r},{v!r}" for x, v in rho]
    (path / "rho_final.csv").write_text("\n".join(lines) + "\n")
    (path / "slice_y=0.5.csv").write_text("\n".join(lines) + "\n")
    (path / "summary.txt").write_text("".join(f"{k} = {v}\n" for k, v in summary.items()))
    return path


def with_row(rows, i, col, value):
    out = [list(r) for r in rows]
    out[i][col] = value
    return [tuple(r) for r in out]


def gate(tmp_path, rtol=None, **changes):
    a = write_run(tmp_path / "a")
    b = write_run(tmp_path / "b", **changes)
    return ct.compare_run(a, b, rtol)


@pytest.mark.parametrize("rtol", [None, 1e-10])
def test_identical_runs_pass(tmp_path, rtol):
    lines, ok = gate(tmp_path, rtol, summary=dict(SUMMARY, total_wall_s=9.0))
    assert ok
    assert all("identical" in line for line in lines if "rtol gate" not in line)


def test_rounding_within_tolerance_passes_only_the_rtol_gate(tmp_path):
    trace = with_row(TRACE, 2, 1, 0.8 * (1 + 1e-13))
    assert not gate(tmp_path / "bytes", trace=trace)[1]
    lines, ok = gate(tmp_path / "rtol", 1e-10, trace=trace)
    assert ok, lines


def test_value_beyond_tolerance_fails(tmp_path):
    lines, ok = gate(tmp_path, 1e-10, trace=with_row(TRACE, 1, 5, 2.0 + 1e-8))
    assert not ok
    assert "trace.csv mass" in lines[-1]


def test_unequal_ranks_fail(tmp_path):
    lines, ok = gate(tmp_path, 1e-10, trace=with_row(TRACE, 1, 3, 5))
    assert not ok
    assert "ranks differ" in lines[-1]


def test_near_zero_value_is_scaled_by_its_column(tmp_path):
    # 1e-17 -> 3e-17 is an O(1) relative change but 2e-17 of the column's
    # largest magnitude; in a column of near-zero values it fails
    assert gate(tmp_path / "mixed", 1e-10, rho=with_row(RHO, 1, 1, 3e-17))[1]
    a = write_run(tmp_path / "tiny" / "a", rho=[(0.0, 1e-17)])
    b = write_run(tmp_path / "tiny" / "b", rho=[(0.0, 3e-17)])
    assert not ct.compare_run(a, b, 1e-10)[1]


def test_zero_density_residual_is_held_to_its_bound(tmp_path):
    # roundoff values differ freely below 1e-11 * max(1, micro_norm_w) ...
    assert gate(tmp_path / "roundoff", 1e-10, trace=with_row(TRACE, 2, 4, 1.9e-11))[1]
    # ... and fail above it
    lines, ok = gate(tmp_path / "above", 1e-10, trace=with_row(TRACE, 1, 4, 2e-11))
    assert not ok
    assert "zero-density residual above bound in b" in lines[-1]


def test_held_zero_density_residual_is_labelled_not_scaled(tmp_path):
    # under --rtol a residual held to its bound is roundoff: its scaled
    # difference (0.26 here) says nothing, so the report names the bound
    trace = with_row(TRACE, 2, 4, 1.2e-16 * 0.74)
    lines, ok = gate(tmp_path / "rtol", 1e-10, trace=trace)
    assert ok
    assert "zero_density_residual held to bound" in lines[0]
    assert "zero_density_residual 0." not in lines[0]
    # byte identity reports the relative difference as before
    lines, ok = gate(tmp_path / "bytes", trace=trace)
    assert not ok and "zero_density_residual 0.26" in lines[0]


def test_zero_density_residual_above_bound_in_a_fails(tmp_path):
    # every run holds the constraint, so a run that breaks the bound in the
    # first tree fails even where both trees agree on every value
    broken = with_row(TRACE, 2, 4, 0.7)
    a = write_run(tmp_path / "a", trace=broken)
    lines, ok = ct.compare_run(a, write_run(tmp_path / "b", trace=broken), 1e-10)
    assert not ok
    assert "zero-density residual above bound in a" in lines[-1]
    assert "above bound in b" in lines[-1]
    lines, ok = ct.compare_run(a, write_run(tmp_path / "c"), 1e-10)
    assert not ok
    assert "above bound in a" in lines[-1] and "above bound in b" not in lines[-1]


def test_summary_entries_are_compared(tmp_path):
    lines, ok = gate(tmp_path / "status", 1e-10,
                     summary=dict(SUMMARY, status="diverged"))
    assert not ok
    assert "'completed' vs 'diverged'" in "\n".join(lines)
    assert not gate(tmp_path / "energy", 1e-10,
                    summary=dict(SUMMARY, energy_final=0.8 * (1 + 1e-9)))[1]
    assert not gate(tmp_path / "missing", 1e-10,
                    summary={k: v for k, v in SUMMARY.items() if k != "rank_final"})[1]


def test_missing_run_fails(tmp_path):
    a = write_run(tmp_path / "a")
    assert not ct.compare_run(a, tmp_path / "b", 1e-10)[1]


def write_tree(path, files):
    pkg = path / "src" / "lrtrans"
    pkg.mkdir(parents=True)
    for name, text in files.items():
        (pkg / name).write_text(text)
    return path


def test_line_counts_of_both_trees(tmp_path):
    a = write_tree(tmp_path / "a", {"grid.py": "x = 1\ny = 2\n", "ops.py": "z = 3\n"})
    b = write_tree(tmp_path / "b", {"grid.py": "x = 1\n", "__init__.py": ""})
    # only the package's Python files count
    (b / "src" / "lrtrans" / "notes.txt").write_text("a\nb\nc\n")
    (b / "tests").mkdir()
    (b / "tests" / "test_grid.py").write_text("a\nb\n")
    assert ct.src_lines(a) == 3
    assert ct.src_lines(b) == 1
    assert ct.line_counts(a, b) == f"src/lrtrans lines: 3 in {a}, 1 in {b} (-2)"
    assert ct.line_counts(b, a).endswith("(+2)")
