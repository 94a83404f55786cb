"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <id>: PASS/FAIL`` line.  Stated runtime
budgets are asserted with a 5x headroom factor to absorb machine variation;
all numerical tolerances are asserted exactly as specified.
"""

import time

import numpy as np
import pytest

import lrtrans as lt
from lrtrans import scenarios
from lrtrans.diagnostics import UNCONDITIONAL, dt_explicit, dt_implicit
from lrtrans.fullrank import (
    SCHEMES,
    SolverConfig,
    build_schur,
    imex_s_step,
    imex_step,
    step_context,
)
from lrtrans.grid import build_grid, diff
from lrtrans.lowrank import (
    factorize_micro,
    galerkin_stage,
    lowrank_macro_coupled_step,
)
from lrtrans.ops import (
    advect,
    density_grad,
    inner_w,
    norm_w,
    project_out_mean,
    sample_material,
)
from lrtrans.run import RunManifest, execute_run
from oracles import advect_adjoint, dense_diff_matrix, dense_factors, inner, q_abs


def report(cid: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{cid}: {detail}"


# ---------------------------------------------------------------------------
# C1: one IMEX and one IMEX-S step match a dense monolithic block solve
# ---------------------------------------------------------------------------

def test_c1_small_instance_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    grid = build_grid(1, (0.0, 1.0), 8)
    quad = lt.gauss_legendre_1d(4)
    material = sample_material(
        grid,
        lambda c: 1.0 + 0.3 * np.sin(2 * np.pi * c[:, 0]),
        lambda c: 0.2 + 0.1 * np.cos(2 * np.pi * c[:, 0]),
        0.7,
    )
    config = SolverConfig(epsilon=0.5, dt=0.01)
    rho = rng.standard_normal(grid.n_points)
    G = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
    n, no = grid.n_points, quad.n
    eps2 = config.epsilon**2

    dp = dense_diff_matrix(grid, 0, +1)
    Hmat = np.zeros((n, n * no))
    for i in range(n):
        for k in range(no):
            E = np.zeros((n, no))
            E[i, k] = 1.0
            Hmat[:, i * no + k] = lt.flux_div(grid, quad, E)
    Jmat = np.zeros((n * no, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        Jmat[:, i] = np.outer(dp @ e, quad.q(0)).reshape(-1)
    A11 = np.diag(1.0 / config.dt + material.sigma_a_rho)
    A22 = np.diag(np.repeat(1.0 / config.dt + material.sigma_s_g / eps2
                            + material.sigma_a_g, no))
    explicit = (
        G / config.dt
        - project_out_mean(quad, advect(grid, quad, G)) / config.epsilon
    ).reshape(-1)

    # explicit-density step: lower-triangular block solve
    G_o = np.linalg.solve(A22, explicit - Jmat @ rho / eps2).reshape(n, no)
    rho_o = np.linalg.solve(A11, rho / config.dt - lt.flux_div(grid, quad, G_o))
    r1, G1 = imex_step(step_context(grid, quad, material, config), rho, G.copy())
    err_imex = max(np.abs(r1 - rho_o).max(), np.abs(G1 - G_o).max())

    # implicit-density step: full coupled block solve
    Afull = np.block([[A11, Hmat], [Jmat / eps2, A22]])
    sol = np.linalg.solve(Afull, np.concatenate([rho / config.dt, explicit]))
    schur = build_schur(grid, quad, material, config)
    r2, G2 = imex_s_step(step_context(grid, quad, material, config, schur), rho, G)
    err_s = max(np.abs(r2 - sol[:n]).max(), np.abs(G2 - sol[n:].reshape(n, no)).max())

    elapsed = time.perf_counter() - t0
    ok = err_imex <= 1e-10 and err_s <= 1e-10 and elapsed < 5.0
    report("C1", ok, f"imex_err={err_imex:.2e} imex_s_err={err_s:.2e} t={elapsed:.2f}s")


# ---------------------------------------------------------------------------
# C2 + C7: energy decay and constraint preservation across the 18-run suite
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def suite2_runs():
    runs = {}
    t0 = time.perf_counter()
    for scen in ("gaussian1d-kinetic", "gaussian1d-mid", "gaussian1d-diff"):
        for scheme in SCHEMES:
            runs[(scen, scheme)] = execute_run(
                RunManifest(scenario=scen, scheme=scheme, mesh_div=2)
            )
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def test_c2_energy_stability_suite(suite2_runs):
    failures = []
    for key, res in suite2_runs.items():
        if key == "elapsed":
            continue
        E = res.energies
        bad = np.where(np.diff(E) > 1e-12 * E[0])[0]
        if len(bad):
            failures.append((key, bad[:3]))
    elapsed = suite2_runs["elapsed"]
    ok = not failures and elapsed < 600.0
    report("C2", ok, f"18 runs, worst={failures[:2]} t={elapsed:.0f}s")


def test_c7_constraint_preservation(suite2_runs):
    worst = 0.0
    for key, res in suite2_runs.items():
        if key == "elapsed":
            continue
        vol = res.grid.cell_volume
        for rec in res.records:
            gm_fro = rec.micro_norm_w / np.sqrt(vol)
            if gm_fro > 0:
                worst = max(worst, rec.zero_density_residual / gm_fro)
            else:
                worst = max(worst, rec.zero_density_residual)

    # rank-deficient constrained-orthonormalization path: a rank-1 state
    # carried at rank 4 through adaptive steps
    scen = scenarios.get_scenario("gaussian1d-mid", mesh_div=4)
    grid, quad, material = scenarios.build_objects(scen)
    eps = scen.epsilon
    dt = scenarios.select_dt(scen, "IMEX-aBUG", grid, material, eps)
    config = SolverConfig(epsilon=eps, dt=dt)
    x = grid.g_coords[:, 0]
    G = project_out_mean(quad, np.outer(np.sin(2 * np.pi * x / 3), quad.q(0)))
    st = factorize_micro(grid, quad, dense_factors(G), 4, seed=0)  # numerical rank 1 of 4
    rho, _ = scen.init(grid, quad, eps)
    ctx = step_context(grid, quad, material, config, integrator="aBUG")
    for k in range(25):
        rho, st, _ = lowrank_macro_coupled_step(ctx, rho, st, (k + 1) * dt)
        fro = np.linalg.norm(st.S)
        res = lt.zero_density_residual(quad, st)
        if fro > 0:
            worst = max(worst, res / fro)
    ok = worst <= 1e-11
    report("C7", ok, f"max residual / |S|_F = {worst:.2e}")


# ---------------------------------------------------------------------------
# C3: energy-alignment counterexample on the two-beam state
# ---------------------------------------------------------------------------

def test_c3_unweighted_counterexample():
    t0 = time.perf_counter()
    res_u = execute_run(
        RunManifest(scenario="bimodal1d", scheme="IMEX-BUG", unweighted=True,
                    max_steps=50)
    )
    res_w = execute_run(
        RunManifest(scenario="bimodal1d", scheme="IMEX-BUG", max_steps=50)
    )
    Eu, Ew = res_u.energies, res_w.energies
    grow_u = np.any(Eu[1:] > Eu[:-1] * (1 + 1e-10))
    grow_w = np.any(Ew[1:] > Ew[:-1] * (1 + 1e-10))
    elapsed = time.perf_counter() - t0
    ok = grow_u and not grow_w and elapsed < 150.0
    first = int(np.argmax(Eu[1:] > Eu[:-1] * (1 + 1e-10))) + 1 if grow_u else -1
    report("C3", ok, f"unweighted grows at step {first}, weighted monotone={not grow_w}, t={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# C4: diffusion-limit agreement in 1D and 2D
# ---------------------------------------------------------------------------

def test_c4_diffusion_limit():
    t0 = time.perf_counter()
    res1 = execute_run(RunManifest(scenario="gaussian1d-diff", scheme="IMEX-S-BUG"))
    rel1 = res1.summary["l2_error_rel"]
    assert res1.summary["dt"] == pytest.approx(
        10 * dt_explicit(res1.grid,
                         scenarios.build_objects(res1.scenario)[2], 1e-6)
    )
    res2 = execute_run(
        RunManifest(scenario="gaussian2d", scheme="IMEX-S-BUG", mesh_div=4)
    )
    rel2 = res2.summary["l2_error_rel"]
    elapsed = time.perf_counter() - t0
    ok = rel1 <= 0.05 and rel2 <= 0.05 and elapsed < 600.0
    report("C4", ok, f"rel_1d={rel1:.3e} rel_2d={rel2:.3e} t={elapsed:.0f}s")


# ---------------------------------------------------------------------------
# C5: convergence orders on the manufactured solution
# ---------------------------------------------------------------------------

def test_c5_convergence_orders():
    t0 = time.perf_counter()
    orders = {}
    for eps in (1.0, 1e-6):
        errs = []
        for n in (16, 32, 64):
            res = execute_run(
                RunManifest(scenario=f"mms2d-{n}", scheme="IMEX-S-BUG", epsilon=eps)
            )
            errs.append(res.summary["l2_error"])
        slope = np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
        orders[eps] = -slope
    elapsed = time.perf_counter() - t0
    ok = (
        abs(orders[1.0] - 1.0) <= 0.3
        and abs(orders[1e-6] - 2.0) <= 0.3
        and elapsed < 3000.0
    )
    report("C5", ok, f"order(eps=1)={orders[1.0]:.2f} order(eps=1e-6)={orders[1e-6]:.2f} t={elapsed:.0f}s")


# ---------------------------------------------------------------------------
# C6: cost scaling and wall-time ordering
# ---------------------------------------------------------------------------

def test_c6_cost_scaling():
    t0 = time.perf_counter()
    # warm the code paths once so first-call overhead is excluded
    execute_run(RunManifest(scenario="mms2d-16", scheme="IMEX-S", max_steps=2))
    execute_run(RunManifest(scenario="mms2d-16", scheme="IMEX-S-BUG", max_steps=2))
    ratios = {}
    for n, mult in ((16, 0.2), (64, 0.6)):
        per = {}
        for scheme in ("IMEX-S", "IMEX-S-BUG"):
            res = execute_run(
                RunManifest(scenario=f"mms2d-{n}", scheme=scheme, dt_mult=mult,
                            max_steps=40)
            )
            per[scheme] = res.summary["per_step_mean_s"]
        ratios[n] = per["IMEX-S"] / per["IMEX-S-BUG"]

    totals = {}
    per_step = {}
    for scheme in ("IMEX-BUG", "IMEX-S-BUG", "IMEX-aBUG", "IMEX-S-aBUG"):
        res = execute_run(
            RunManifest(scenario="gaussian2d", scheme=scheme, mesh_div=4,
                        with_error=False)
        )
        totals[scheme] = res.summary["total_wall_s"]
        per_step[scheme] = res.summary["per_step_mean_s"]
    pairwise_2x = all(
        max(per_step[a], per_step[b]) <= 2.0 * min(per_step[a], per_step[b])
        for a, b in (("IMEX-BUG", "IMEX-aBUG"), ("IMEX-S-BUG", "IMEX-S-aBUG"))
    )
    elapsed = time.perf_counter() - t0
    ok = (
        ratios[64] >= 2.0 * ratios[16]
        and totals["IMEX-S-BUG"] < totals["IMEX-BUG"]
        and totals["IMEX-S-aBUG"] < totals["IMEX-aBUG"]
        and pairwise_2x
        and all(t < 60.0 for t in totals.values())
        and elapsed < 3000.0
    )
    report(
        "C6",
        ok,
        f"ratio16={ratios[16]:.2f} ratio64={ratios[64]:.2f} "
        f"totals(S-BUG/BUG)={totals['IMEX-S-BUG']:.2f}/{totals['IMEX-BUG']:.2f}s "
        f"t={elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# C8: identity suite, 200 randomized trials per identity
# ---------------------------------------------------------------------------

def test_c8_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    cases = [
        (build_grid(1, (0.0, 1.0), 16), lt.gauss_legendre_1d(8)),
        (build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (6, 6)), lt.chebyshev_legendre_2d(2)),
    ]
    worst = {"sbp": 0.0, "advection": 0.0, "adjoint_bound": -np.inf,
             "moment_bound": -np.inf, "split": 0.0, "galerkin": 0.0}

    for grid, quad in cases:
        material = sample_material(
            grid,
            lambda c: 1.0 + 0.2 * np.cos(2 * np.pi * c[:, 0]),
            lambda c: np.full(c.shape[0], 0.1),
            0.8,
        )
        config = SolverConfig(epsilon=0.9, dt=0.004)
        for j in range(quad.dim):
            worst["split"] = max(
                worst["split"],
                np.abs(quad.q_plus(j) + quad.q_minus(j) - quad.q(j)).max(),
                np.abs(quad.q_plus(j) * quad.q_minus(j)).max(),
            )
        for _ in range(100):
            rho = rng.standard_normal(grid.n_points)
            G = rng.standard_normal((grid.n_points, quad.n))
            G1 = rng.standard_normal((grid.n_points, quad.n))
            # summation by parts between flux divergence and density gradient
            P, A = density_grad(grid, quad, rho)
            lhs = quad.domain_measure * inner(grid, rho, lt.flux_div(grid, quad, G))
            rhs = -inner_w(grid, quad, P @ A.T, G)
            worst["sbp"] = max(worst["sbp"], abs(lhs - rhs) / max(abs(lhs), 1.0))
            # advection energy identity
            lhs = inner_w(grid, quad, advect(grid, quad, G), G1)
            rhs = -inner_w(grid, quad, advect_adjoint(grid, quad, G1), G1 - G)
            for j in range(grid.dim):
                DG = diff(grid, j, +1, G1)
                rhs += 0.5 * grid.spacing[j] * inner_w(
                    grid, quad, DG * q_abs(quad, j)[None, :], DG
                )
            worst["advection"] = max(worst["advection"], abs(lhs - rhs) / max(abs(lhs), 1.0))
            # adjoint advection bound
            lhs = norm_w(grid, quad, advect_adjoint(grid, quad, G)) ** 2
            rhs = 0.0
            for j in range(grid.dim):
                rhs += norm_w(grid, quad, diff(grid, j, +1, G) * q_abs(quad, j)[None, :]) ** 2
            worst["adjoint_bound"] = max(
                worst["adjoint_bound"], lhs - grid.dim * rhs * (1 + 1e-12)
            )
            # flux moment matrix bound
            h = rng.standard_normal(quad.n)
            for j in range(quad.dim):
                cb = float(quad.w @ q_abs(quad, j)) / quad.domain_measure
                lhs = float((quad.q(j) * quad.w) @ h) ** 2
                rhs = cb * quad.domain_measure * float(h @ (q_abs(quad, j) * quad.w * h))
                worst["moment_bound"] = max(worst["moment_bound"], lhs - rhs * (1 + 1e-12))
        # Galerkin residual of the projected implicit update (50 trials per case)
        for _ in range(50):
            Gc = project_out_mean(quad, rng.standard_normal((grid.n_points, quad.n)))
            st = factorize_micro(grid, quad, dense_factors(Gc), 3, seed=int(rng.integers(1 << 30)))
            rho = rng.standard_normal(grid.n_points)
            ctx = step_context(grid, quad, material, config, integrator="BUG")
            stage, S_tilde = galerkin_stage(ctx, st, rho)
            X1, S1, V1 = stage.X, stage.S, stage.V
            PX, PV = X1 @ X1.T, V1 @ V1.T
            m = quad.m[None, :]
            eps, dt = config.epsilon, config.dt
            G_tilde = (X1 @ S_tilde @ V1.T) / m
            G_new = (X1 @ S1 @ V1.T) / m
            PJ, AJ = density_grad(grid, quad, rho)
            sig = material.sigma_s_g / eps**2 + material.sigma_a_g
            lhs_m = (G_new - G_tilde) * m / dt
            rhs_m = -PX @ (project_out_mean(quad, advect(grid, quad, G_tilde)) * m) @ PV / eps
            rhs_m -= PX @ ((PJ @ AJ.T) * m) @ PV / eps**2
            rhs_m -= PX @ (sig[:, None] * G_new * m) @ PV
            worst["galerkin"] = max(
                worst["galerkin"],
                np.abs(lhs_m - rhs_m).max() / max(np.abs(lhs_m).max(), 1.0),
            )

    elapsed = time.perf_counter() - t0
    ok = (
        worst["sbp"] <= 1e-12
        and worst["advection"] <= 1e-11
        and worst["adjoint_bound"] <= 0.0
        and worst["moment_bound"] <= 0.0
        and worst["split"] == 0.0
        and worst["galerkin"] <= 1e-11
        and elapsed < 150.0
    )
    report("C8", ok, " ".join(f"{k}={v:.2e}" for k, v in worst.items()) + f" t={elapsed:.0f}s")


# ---------------------------------------------------------------------------
# C9: closed-form step-size bounds
# ---------------------------------------------------------------------------

def test_c9_step_size_formulas():
    grid1 = build_grid(1, (-1.5, 1.5), 500)
    mat1 = sample_material(grid1, lambda c: np.ones(c.shape[0]),
                           lambda c: np.zeros(c.shape[0]), 1.0)
    spot = dt_explicit(grid1, mat1, 1.0)
    exact = (2.0 / 3.0) * 0.006 + (1.0 / 3.0) * 0.006**2
    ok = spot == pytest.approx(exact, rel=1e-14) and spot == pytest.approx(0.004012, rel=1e-12)

    grid2 = build_grid(2, ((0.0, 1.0), (0.0, 1.0)), (32, 32))
    mat2 = sample_material(grid2, lambda c: np.ones(c.shape[0]),
                           lambda c: np.zeros(c.shape[0]), 1.0)
    ds = 1.0 / 32
    ok = ok and dt_explicit(grid2, mat2, 0.3) == pytest.approx(
        0.3 * ds / 3.0 + ds**2 / 12.0, rel=1e-14
    )
    # implicit bound: finite exactly when eps d / (2 ds) > sigma0 / 4,
    # i.e. above eps = ds / 4 in 2D with unit scattering floor
    ok = ok and dt_implicit(grid2, mat2, 1e-6) == UNCONDITIONAL
    ok = ok and dt_implicit(grid2, mat2, ds / 4) == UNCONDITIONAL  # boundary
    eps = ds / 4 * 1.01
    ok = ok and dt_implicit(grid2, mat2, eps) == pytest.approx(
        (eps**2 / 2.0) / (eps / ds - 0.25), rel=1e-14
    )
    ok = ok and dt_implicit(grid1, mat1, 1.0) == pytest.approx(
        (1.0 / (2 * 0.006) - 0.25) ** -1 * 0.5, rel=1e-14
    )
    report("C9", ok, "closed forms and unconditional branch")
