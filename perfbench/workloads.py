"""Workloads and metric definitions of the lrtrans benchmark.

Each workload is one :class:`lrtrans.run.RunManifest` (minus ``seed``,
``out`` and ``with_error``, which the harness sets) plus the reference its
final density is compared with.  The metric tables name every reported
metric with its unit; ``LAYER_MAP`` records, for every per-layer metric,
which end-to-end metric on which workload it is expected to move.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

#: Two-sided relative tolerance of the ``l2_error_rel`` correctness check
#: around the value the workload pins.
L2_CHECK_RTOL = 0.05

#: Largest accepted relative energy increase per step on source-free workloads.
ENERGY_RISE_RTOL = 1e-12

#: Largest accepted zero-density residual, relative to ``max(1, micro_norm_w)``.
ZERO_DENSITY_TOL = 1e-11


@dataclass(frozen=True)
class Workload:
    name: str
    manifest: dict
    reference: str                  # "diffusion" | "fullrank"
    source_free: bool               # energy must not increase
    l2_pinned: Optional[float]      # l2_error_rel of the unmodified solver
    why: str

    def reduced(self, mesh_div: int, max_steps: int) -> "Workload":
        """Smaller copy for smoke runs; its pinned error no longer applies."""
        manifest = dict(self.manifest, mesh_div=mesh_div, max_steps=max_steps)
        return replace(self, manifest=manifest, l2_pinned=None)

    def describe(self) -> str:
        m = self.manifest
        parts = [m["scenario"], m["scheme"]] + [
            f"{k}={m[k]}" for k in ("mesh_div", "rank", "max_steps") if k in m
        ]
        return " ".join(parts)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="diffusive2d-bug",
            manifest=dict(scenario="gaussian2d", scheme="IMEX-S-BUG", mesh_div=1,
                          rank=10, max_steps=20),
            reference="diffusion",
            source_free=True,
            l2_pinned=5.607608e-05,
            why="paper headline regime at fixed rank; Galerkin products, grid.diff and CG"
                " solve dominate steps, dense zero SVD dominates setup",
        ),
        Workload(
            name="kinetic2d-abug",
            manifest=dict(scenario="lattice2d", scheme="IMEX-S-aBUG", mesh_div=2,
                          rank=2, max_steps=12),
            reference="fullrank",
            source_free=False,
            l2_pinned=1.630040e-02,
            why="rank-adaptive path at rising rank with heterogeneous sigma; galerkin_stage"
                " and QR of augmented bases dominate",
        ),
        Workload(
            name="diffusive2d-full",
            manifest=dict(scenario="gaussian2d", scheme="IMEX-S", mesh_div=1, max_steps=2),
            reference="diffusion",
            source_free=True,
            l2_pinned=1.791737e-05,
            why="full-rank path on dense arrays; bypasses every low-rank optimisation and"
                " anchors the C6 full-rank versus low-rank comparison",
        ),
    )
}


#: End-to-end metrics: name -> (unit, bound).  All are lower-is-better.
END_TO_END = {
    "run_s": ("s", 0.25),
    "setup_s": ("s", 0.25),
    "step_ms_p50": ("ms", 0.25),
    "peak_rss_mb": ("MiB", 0.25),
    "l2_error_rel": ("1", 0.1),
}

#: Per-layer metrics: name -> (unit, better, end-to-end metric and workloads it moves).
LAYER_MAP = {
    "grid.diff.calls_per_step": (
        "count", "lower", "step_ms_p50 on diffusive2d-full and diffusive2d-bug"),
    "grid.diff.self_ms_per_step": (
        "ms", "lower", "step_ms_p50 on diffusive2d-full and diffusive2d-bug"),
    "grid.diff.mb_per_step": (
        "MB", "lower", "step_ms_p50 on diffusive2d-full and diffusive2d-bug"),
    "ops.advect.self_ms_per_step": ("ms", "lower", "step_ms_p50 on diffusive2d-full"),
    "ops.project_out_mean.self_ms_per_step": (
        "ms", "lower", "step_ms_p50 on diffusive2d-full"),
    "ops.flux_div.self_ms_per_step": ("ms", "lower", "step_ms_p50 on diffusive2d-full"),
    "ops.flux_div_factored.self_ms_per_step": (
        "ms", "lower", "step_ms_p50 on the low-rank workloads"),
    "ops.density_grad.self_ms_per_step": (
        "ms", "lower", "step_ms_p50 on the low-rank workloads"),
    "lowrank.factorize_micro.s": (
        "s", "lower", "setup_s and peak_rss_mb on diffusive2d-bug and kinetic2d-abug"),
    "lowrank.galerkin_stage.self_ms_per_step": (
        "ms", "lower",
        "step_ms_p50 on kinetic2d-abug and diffusive2d-bug"),
    "lowrank.constrained_qr.self_ms_per_step": (
        "ms", "lower",
        "step_ms_p50 on kinetic2d-abug and diffusive2d-bug"),
    "lowrank.lowrank_macro_coupled_step.self_ms_per_step": (
        "ms", "lower", "step_ms_p50 on the low-rank workloads (truncation, Schur rhs)"),
    "lowrank.rank_mean": ("count", "lower", "step_ms_p50 on kinetic2d-abug"),
    "lowrank.rank_max": ("count", "lower", "step_ms_p50 on kinetic2d-abug"),
    "lowrank.kept_ratio": ("1", "higher", "step_ms_p50 on kinetic2d-abug"),
    "fullrank.build_schur.s": ("s", "lower", "setup_s on the IMEX-S workloads"),
    "fullrank.SchurOperator.solve.self_ms_per_step": (
        "ms", "lower", "step_ms_p50 on diffusive2d-bug and kinetic2d-abug"),
    "fullrank.SchurOperator.solve.cg_iters_per_solve": (
        "count", "lower", "step_ms_p50 on diffusive2d-bug and kinetic2d-abug"),
    "fullrank.imex_s_step.self_ms_per_step": (
        "ms", "lower", "step_ms_p50 on diffusive2d-full"),
    "diagnostics.record_ms_per_step": ("ms", "lower", "step_ms_p50 on diffusive2d-full"),
    "diagnostics.energy_max_rel_increase": ("1", "lower", "fail_rate"),
    "diagnostics.zero_density_max": ("1", "lower", "fail_rate"),
    "scenarios.build_objects.s": ("s", "lower", "setup_s"),
    "run.write_artifacts.s": (
        "s", "lower", "run_s on diffusive2d-bug and diffusive2d-full"),
    "run.execute_run.self_s": ("s", "lower", "run_s (orchestration remainder)"),
    "trace.overhead_frac": ("1", "lower", "none: traced run_s / untraced run_s - 1"),
}
