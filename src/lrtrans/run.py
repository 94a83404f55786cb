"""Run orchestration: manifests, the step loop, traces, and artifacts.

A :class:`RunManifest` names a scenario/scheme pair plus overrides; crossing
one with :func:`execute_run` produces a :class:`RunResult` holding the trace
records, final fields, and a summary dictionary.  Artifact layout (when an
output directory is given): ``trace.csv`` with one row per step including the
initial state, ``rho_final.csv`` with coordinate-indexed density values,
``slice_<axis>=<value>.csv`` per configured slice line, and ``summary.txt``
with ``key = value`` pairs.  Traces are bit-for-bit reproducible for a fixed
seed under single-threaded execution; wall-clock numbers live only in the
summary.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics, scenarios
from .diagnostics import UNCONDITIONAL, EnergyRecord
from .fullrank import (
    DivergenceError,
    LinearSolveError,
    Scheme,
    SolverConfig,
    build_schur,
    imex_s_step,
    imex_step,
    parse_scheme,
    step_context,
)
from .lowrank import MicroStateLowRank, factorize_micro, lowrank_macro_coupled_step

_CSV_FMT = "%.17g"


@dataclass
class RunManifest:
    """One run request: scenario, scheme, and overrides."""

    scenario: str
    scheme: str
    rank: Optional[int] = None
    tau: Optional[float] = None
    dt_mult: float = 1.0
    mesh_div: int = 1
    epsilon: Optional[float] = None     # Knudsen number override
    unweighted: bool = False
    out: Optional[str] = None
    seed: int = 0
    with_error: Optional[bool] = None   # None = automatic per reference kind
    max_steps: Optional[int] = None     # testing hook: stop the loop early

    def validate(self) -> Scheme:
        scheme = parse_scheme(self.scheme)
        if self.scenario not in scenarios.SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.rank is not None and self.rank < 1:
            raise ValueError("rank override must be >= 1")
        # written so that nan fails each comparison
        if self.tau is not None and not 0 < self.tau < math.inf:
            raise ValueError("tau override must be positive and finite")
        if not 0 < self.dt_mult < math.inf:
            raise ValueError("dt multiplier must be positive and finite")
        if self.mesh_div < 1:
            raise ValueError("mesh divisor must be >= 1")
        if self.epsilon is not None and not (
                0 < self.epsilon and 0 < self.epsilon * self.epsilon < math.inf):
            raise ValueError("epsilon override must be positive with a finite, non-zero square")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.unweighted and scheme.micro == "full":
            raise ValueError("--unweighted only applies to low-rank schemes")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.out is not None:  # the artifacts' nearest existing ancestor
            path = next(p for p in (Path(self.out), *Path(self.out).parents) if p.exists())
            if not path.is_dir():
                raise ValueError(f"output path {self.out!r}: {str(path)!r} is not a directory")
        return scheme


@dataclass
class RunResult:
    manifest: RunManifest
    records: list
    rho_final: np.ndarray
    summary: dict
    grid: object
    scenario: object
    step_infos: list = field(default_factory=list)

    @property
    def energies(self) -> np.ndarray:
        return np.array([r.energy for r in self.records])


def execute_run(manifest: RunManifest) -> RunResult:
    """Execute one run and (optionally) write its artifacts.

    A step that fails ends the loop with ``summary["status"]`` set to
    ``diverged`` (non-finite state or a singular dense solve) or
    ``solve_stalled`` (the Schur CG solve did not converge), and
    ``summary["failed_step"]`` set; the steps done so far are still recorded
    and written.  A reference solve that fails (a stalled CG solve, a
    diverging self reference) sets ``reference_failed`` and no ``l2_error``;
    the artifacts are written all the same.  A low-rank initial state has
    ``C = None``; its first step forms the Galerkin stack.  ``with_error=True``
    on a scenario without a reference raises ``ValueError`` before any work, and
    so does an ``out`` that exists, or lies under a path that exists, but is
    not a directory; a step size too small for a finite step count raises it
    before the first step.
    """
    scheme = manifest.validate()
    scen = scenarios.get_scenario(manifest.scenario, manifest.mesh_div)
    if manifest.with_error and scen.reference is None:
        raise ValueError(f"scenario {manifest.scenario!r} has no reference solution")
    eps = manifest.epsilon if manifest.epsilon is not None else scen.epsilon
    grid, quad, material = scenarios.build_objects(scen, epsilon=eps)

    dt = scenarios.select_dt(scen, manifest.scheme, grid, material, eps) * manifest.dt_mult
    if not (0 < dt and scen.t_final / float(dt) < math.inf):
        raise ValueError(f"dt multiplier {manifest.dt_mult!r} gives step size {float(dt):g}, "
                         "too small for a finite step count")
    n_steps = max(1, math.ceil(scen.t_final / dt - 1e-9))
    if manifest.max_steps is not None:
        n_steps = min(n_steps, manifest.max_steps)
    theta = 0.0 if scheme.schur else 1.0  # the energy's theta for this coupling
    config = SolverConfig(epsilon=eps, dt=dt)

    rank = manifest.rank if manifest.rank is not None else scen.rank
    tau = manifest.tau if manifest.tau is not None else scen.tau
    integrator = None if scheme.micro == "full" else scheme.micro
    if (scheme.micro == "aBUG" and not manifest.unweighted
            and diagnostics.dt_implicit(grid, material, eps) == UNCONDITIONAL):
        integrator = "AP-aBUG"

    schur = build_schur(grid, quad, material, config) if scheme.schur else None
    ctx = step_context(grid, quad, material, config, schur, integrator, tau)
    rho, (P, A) = scen.init(grid, quad, eps)
    rho = np.asarray(rho, dtype=float)
    if integrator is None:
        micro = _dense(ctx, P, A)
    else:
        micro = factorize_micro(
            grid, quad, (P, A), rank, weighted=not manifest.unweighted, seed=manifest.seed
        )

    records = [_record(0, 0.0, ctx, rho, micro, theta)]
    step_infos = []
    status = "completed"
    failed_step = None

    # the step, chosen once: (ctx, rho, micro, t_next) -> (rho, micro[, StepInfo])
    step = (lowrank_macro_coupled_step if integrator is not None
            else imex_s_step if schur is not None else imex_step)

    t0 = time.perf_counter()
    for k in range(1, n_steps + 1):
        t_next = k * dt
        try:
            rho, micro, *info = step(ctx, rho, micro, t_next)
            step_infos.extend(info)
        except (DivergenceError, np.linalg.LinAlgError):
            status = "diverged"
        except LinearSolveError:
            status = "solve_stalled"
        if status != "completed":
            failed_step = k
            break
        rec = _record(k, t_next, ctx, rho, micro, theta)
        if not all(
            np.isfinite(v)
            for v in (rec.energy, rec.rho_norm, rec.micro_norm_w, rec.mass)
        ):
            status = "diverged"
            failed_step = k
            break
        records.append(rec)
    wall = time.perf_counter() - t0
    steps_done = records[-1].step

    summary = {
        "scenario": manifest.scenario,
        "scheme": manifest.scheme,
        "status": status,
        "dt": dt,
        "theta": theta,
        "steps_planned": n_steps,
        "steps_completed": steps_done,
        "t_final": steps_done * dt,
        "seed": manifest.seed,
        "rank_final": records[-1].rank,
        "energy_final": records[-1].energy,
        "total_wall_s": wall,
        "per_step_mean_s": wall / max(steps_done, 1),
    }
    if integrator is not None:
        summary["integrator"] = integrator
    if failed_step is not None:
        summary["failed_step"] = failed_step

    if status == "completed" and _want_error(manifest, scen):
        try:
            err, rel = _reference_error(
                scen, grid, quad, material, rho, summary["t_final"], eps
            )
        except (DivergenceError, LinearSolveError):
            summary["status"] = "reference_failed"
            err = None
        if err is not None:
            summary["l2_error"] = err
            summary["l2_error_rel"] = rel

    result = RunResult(
        manifest=manifest,
        records=records,
        rho_final=rho,
        summary=summary,
        grid=grid,
        scenario=scen,
        step_infos=step_infos,
    )
    if manifest.out is not None:
        write_artifacts(result, Path(manifest.out))
    return result


def _dense(ctx, P, A) -> np.ndarray:
    """The dense micro state ``P A^T`` of initial factors, C-contiguous.

    It is written into a fresh zero array, so a state with no columns is
    left to the zero pages of the allocation, which the first step faults
    in as it writes them, rather than written here.  The record norms go to
    ``ctx.swept`` from the factors (exact zeros for no columns), not from ``G``.
    """
    G = np.zeros((len(P), len(A)))
    if P.shape[1]:
        np.matmul(P, A.T, out=G)
    w = ctx.quad.w  # ||G||_w^2 = vol sum((P^T P) * (A^T diag(w) A)), G w = P (A^T w)
    gram = ctx.grid.cell_volume * float(np.sum((P.T @ P) * ((A.T * w) @ A)))
    ctx.swept[:] = np.sqrt(max(gram, 0.0)), np.max(np.abs(P @ (A.T @ w)))
    return G


def _want_error(manifest, scen) -> bool:
    if manifest.with_error is not None:
        return manifest.with_error
    return scen.reference in ("diffusion", "manufactured")


@np.errstate(over="ignore", invalid="ignore")
def _record(step, t, ctx, rho, micro, theta) -> EnergyRecord:
    """The trace row of ``step``.  A dense state's micro norms are read from
    ``ctx.swept``, where :func:`_dense` left those of the initial factors and
    each step's last sweep those of ``G``, bit for bit a fresh evaluation."""
    grid, quad, config = ctx.grid, ctx.quad, ctx.config
    is_lr = isinstance(micro, MicroStateLowRank)
    if not is_lr:
        gw, zero = ctx.swept
    else:
        gw = diagnostics.micro_norm_w(grid, quad, micro)
        zero = diagnostics.zero_density_residual(quad, micro)
    return EnergyRecord(
        step=step,
        time=t,
        dt=config.dt,
        energy=diagnostics.energy(
            grid, quad, rho, micro, config, ctx.material, theta, micro_norm=gw
        ),
        rho_norm=math.sqrt(grid.cell_volume) * float(np.linalg.norm(rho)),
        micro_norm_w=gw,
        rank=micro.rank if is_lr else min(grid.n_points, quad.n),
        zero_density_residual=zero,
        mass=diagnostics.mass(grid, rho),
    )


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _reference_error(scen, grid, quad, material, rho, t_final, eps):
    if scen.reference == "manufactured":
        ref = scen.exact_rho(t_final, grid.rho_coords)
    elif scen.reference == "diffusion":
        dt_ref = 0.75 * min(grid.spacing) ** 2
        n = max(1, math.ceil(t_final / dt_ref - 1e-9))
        rho0, _ = scen.init(grid, quad, eps)
        ref = diagnostics.diffusion_reference(
            grid, quad, material, np.asarray(rho0, dtype=float), t_final / n, n
        )
    else:  # "self"
        ref = _self_reference(scen, grid, t_final, eps)
    err = diagnostics.l2_error(grid, rho, ref)
    scale = diagnostics.l2_error(grid, np.zeros_like(ref), ref)
    return err, err / scale if scale > 0 else math.inf


def _self_reference(scen, grid, t_final, eps):
    """Full-rank explicit-coupled solution on a four-times finer mesh,
    restricted to the coincident density points of the coarse mesh."""
    fine_cells = tuple(c * 4 for c in scen.cells)
    fine, quad, material = scenarios.build_objects(replace(scen, cells=fine_cells), eps)
    rho0, (P, A) = scen.init(fine, quad, eps)
    dt = diagnostics.dt_explicit(fine, material, eps)
    n = max(1, math.ceil(t_final / dt - 1e-9))
    dt = t_final / n
    ctx = step_context(fine, quad, material, SolverConfig(epsilon=eps, dt=dt))
    rho, G = np.asarray(rho0, dtype=float), _dense(ctx, P, A)
    for k in range(1, n + 1):
        rho, G = imex_step(ctx, rho, G, k * dt)

    # match coarse density points to fine ones through half-step lattice indices
    lo = np.array([b[0] for b in fine.bounds])
    h_fine = np.array([fine.spacing[j] / 2 for j in range(fine.dim)])
    wrap = np.array([2 * c for c in fine_cells])
    fine_idx = np.rint((fine.rho_coords - lo[None, :]) / h_fine[None, :]).astype(int) % wrap
    coarse_idx = np.rint((grid.rho_coords - lo[None, :]) / h_fine[None, :]).astype(int) % wrap
    lut = {tuple(k): i for i, k in enumerate(fine_idx)}
    sel = np.array([lut[tuple(k)] for k in coarse_idx])
    return rho[sel]


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def write_artifacts(result: RunResult, out_dir: Path) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_trace(result.records, out_dir / "trace.csv")
    _write_density(result, out_dir / "rho_final.csv")
    for axis, value in result.scenario.slices:
        _write_slice(result, axis, value, out_dir)
    _write_summary(result.summary, out_dir / "summary.txt")


def _write_csv(path: Path, header: str, fmts, columns) -> None:
    """``header``, then row ``i`` as cell ``columns[j][i]`` formatted with
    ``fmts[j]``, joined by commas; the rows are one ``%`` over the interleaved
    cells (Python scalars or text)."""
    cells = tuple(itertools.chain.from_iterable(zip(*columns)))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write((",".join(fmts) + "\n") * len(columns[0]) % cells)


def _write_trace(records, path: Path):
    names = [f.name for f in fields(EnergyRecord)]
    fmts = ["%d" if name in ("step", "rank") else _CSV_FMT for name in names]
    _write_csv(path, ",".join(names), fmts, list(zip(*map(astuple, records))))


def _write_density(result: RunResult, path: Path):
    """``rho_final.csv``, each distinct coordinate (by its bits) formatted once."""
    grid = result.grid
    header = "x,rho" if grid.dim == 1 else "x,y,rho"
    columns = []
    for coord in grid.rho_coords.T:
        bits, where = np.unique(coord.view(np.int64), return_inverse=True)
        texts = [_CSV_FMT % v for v in bits.view(float).tolist()]
        columns.append([texts[i] for i in where.tolist()])
    _write_csv(path, header, ["%s"] * grid.dim + [_CSV_FMT],
               columns + [result.rho_final.tolist()])


def extract_slice(grid, rho, axis: str, value: float):
    """Density values along the mesh line of the rho family nearest ``value``.

    Returns ``(positions, values)`` sorted along the free coordinate.
    """
    if grid.dim != 2:
        raise ValueError("slices are defined for 2D grids")
    fixed = 0 if axis == "x" else 1
    free = 1 - fixed
    coords = grid.rho_coords
    span = grid.bounds[fixed][1] - grid.bounds[fixed][0]
    dist = np.abs(coords[:, fixed] - value)
    dist = np.minimum(dist, span - dist)  # periodic distance
    best = dist.min()
    mask = dist <= best + 1e-12
    order = np.argsort(coords[mask, free], kind="stable")
    return coords[mask][order][:, free], rho[mask][order]


def _write_slice(result: RunResult, axis: str, value: float, out_dir: Path):
    pos, vals = extract_slice(result.grid, result.rho_final, axis, value)
    free = "y" if axis == "x" else "x"
    _write_csv(out_dir / f"slice_{axis}={value:g}.csv", f"{free},rho",
               [_CSV_FMT] * 2, [pos.tolist(), vals.tolist()])


def _write_summary(summary: dict, path: Path):
    lines = []
    for key, val in summary.items():
        if isinstance(val, float):
            lines.append(f"{key} = {_CSV_FMT % val}")
        else:
            lines.append(f"{key} = {val}")
    path.write_text("\n".join(lines) + "\n")
