"""Built-in scenarios: parameters, sources, initial data, self-validation."""

from dataclasses import replace

import numpy as np
import pytest

from lrtrans import scenarios
from lrtrans.diagnostics import UNCONDITIONAL, dt_implicit, zero_density_residual
from lrtrans.fullrank import SCHEMES
from lrtrans.run import RunManifest, execute_run
from lrtrans.scenarios import LATTICE_ABSORBERS, SCENARIOS, get_scenario
from oracles import mms_exact_f, mms_source


def test_gaussian_regimes():
    kin = get_scenario("gaussian1d-kinetic")
    assert (kin.epsilon, kin.t_final, kin.rank) == (1.0, 1.0, 50)
    mid = get_scenario("gaussian1d-mid")
    assert (mid.epsilon, mid.t_final, mid.rank) == (1e-2, 0.2, 10)
    dif = get_scenario("gaussian1d-diff")
    assert (dif.epsilon, dif.t_final, dif.rank) == (1e-6, 0.2, 3)
    assert dif.cells == (500,) and dif.quad_n == 200


def test_unknown_scenario():
    with pytest.raises(ValueError):
        get_scenario("gaussian3d")
    with pytest.raises(ValueError):
        get_scenario("mms2d-17")


def test_bimodal_initial_residual():
    scen = get_scenario("bimodal1d")
    assert scen.cells == (50,) and scen.quad_n == 50 and scen.rank == 2
    grid, quad, _ = scenarios.build_objects(scen)
    rho0, (P, A) = scen.init(grid, quad, scen.epsilon)
    assert P.shape == (grid.n_points, 1) and A.shape == (quad.n, 1)
    G0 = P @ A.T
    assert zero_density_residual(quad, G0) <= 1e-12 * np.abs(G0).max()


def test_mms_angular_factor_is_second_direction():
    scen = get_scenario("mms2d-16")
    grid, quad, _ = scenarios.build_objects(scen)
    theta = np.arctan2(quad.omega[:, 1], quad.omega[:, 0])
    mu_sq = 1.0 - (quad.omega[:, 0] ** 2 + quad.omega[:, 1] ** 2)
    factor = np.sin(theta) * np.sqrt(np.clip(1.0 - mu_sq, 0.0, None))
    assert np.max(np.abs(factor - quad.omega[:, 1])) <= 1e-14


@pytest.mark.parametrize("eps", [1.0, 1e-2])
def test_mms_source_against_finite_difference_oracle(eps, rng):
    # insert the manufactured density into the transport equation with
    # centered finite differences in t, x, y; the sampled source must match
    h = 1e-5
    for _ in range(20):
        t = rng.uniform(0.0, 0.2)
        x, y = rng.uniform(0, 1, 2)
        ox, oy = rng.uniform(-0.7, 0.7, 2)
        f = lambda tt, xx, yy: mms_exact_f(eps, tt, xx, yy, ox, oy)
        dt_f = (f(t + h, x, y) - f(t - h, x, y)) / (2 * h)
        dx_f = (f(t, x + h, y) - f(t, x - h, y)) / (2 * h)
        dy_f = (f(t, x, y + h) - f(t, x, y - h)) / (2 * h)
        rho = 2.0 + np.exp(-t) * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
        collision = (rho - f(t, x, y)) / eps**2  # sigma_s = 1, sigma_a = 0
        oracle = dt_f + (ox * dx_f + oy * dy_f) / eps - collision
        assert abs(mms_source(eps, t, x, y, ox, oy) - oracle) <= 1e-8 * max(abs(oracle), 1.0)


def test_mms_sampled_sources_are_consistent():
    scen = get_scenario("mms2d-16")
    eps = 0.5
    grid, quad, material = scenarios.build_objects(scen, epsilon=eps)
    t = 0.07
    phi = material.phi(t)
    P, A = material.micro_source(t)
    # micro source is exactly mean-free in angle
    assert np.max(np.abs(A.T @ quad.w)) <= 1e-13
    # macro source equals the discrete angular mean of the full source
    full = mms_source(
        eps, t,
        grid.rho_coords[:, 0][:, None], grid.rho_coords[:, 1][:, None],
        quad.omega[None, :, 0], quad.omega[None, :, 1],
    )
    mean = (full @ quad.w) / quad.domain_measure
    assert np.max(np.abs(phi - mean)) <= 1e-11 * np.abs(mean).max()


def test_mms_requires_multiple_of_eight():
    # quad_n = n // 8, so the mesh is a multiple of 8 and at least 16
    for n in (20, 8):
        with pytest.raises(ValueError):
            scenarios.manufactured_2d(n)


def test_gaussian2d_literal_steps():
    scen = get_scenario("gaussian2d")
    grid, quad, material = scenarios.build_objects(scen)
    assert scenarios.select_dt(scen, "IMEX-BUG", grid, material, scen.epsilon) == 2.04e-5
    assert scenarios.select_dt(scen, "IMEX-S-BUG", grid, material, scen.epsilon) == 2.04e-4
    # reduced meshes recompute from the bounds
    scen4 = get_scenario("gaussian2d", mesh_div=4)
    grid4, _, material4 = scenarios.build_objects(scen4)
    dt4 = scenarios.select_dt(scen4, "IMEX-BUG", grid4, material4, scen4.epsilon)
    assert dt4 != 2.04e-5 and dt4 > 0


def test_lattice_layout():
    assert len(LATTICE_ABSORBERS) == 11
    assert len(set(LATTICE_ABSORBERS)) == 11
    scen = get_scenario("lattice2d")
    grid, quad, material = scenarios.build_objects(scen)
    # absorber area fraction: 11 of 49 unit blocks
    frac = np.mean(material.sigma_a_rho > 0)
    assert frac == pytest.approx(11.0 / 49.0, abs=0.02)
    assert material.sigma_s_floor == 0.0
    # source occupies the central unit block
    phi = material.phi(0.0)
    src_frac = np.mean(phi > 0)
    assert src_frac == pytest.approx(1.0 / 49.0, abs=0.01)
    x = grid.rho_coords[phi > 0]
    assert x[:, 0].min() >= 3.0 and x[:, 0].max() <= 4.0
    assert x[:, 1].min() >= 3.0 and x[:, 1].max() <= 4.0


def test_lattice_source_free_energy_monotone():
    scen = replace(scenarios.lattice_2d(), sources=None, cells=(32, 32), mesh_div=4)
    grid, quad, material = scenarios.build_objects(scen)
    from lrtrans.fullrank import SolverConfig, build_schur, step_context
    from lrtrans.lowrank import factorize_micro, lowrank_macro_coupled_step
    from lrtrans.diagnostics import energy

    dt = scenarios.select_dt(scen, "IMEX-S-BUG", grid, material, scen.epsilon)
    config = SolverConfig(epsilon=scen.epsilon, dt=dt)
    schur = build_schur(grid, quad, material, config)
    ctx = step_context(grid, quad, material, config, schur, "BUG")
    rho, factors = scen.init(grid, quad, scen.epsilon)
    st = factorize_micro(grid, quad, factors, 20, seed=0)
    e = energy(grid, quad, rho, st, config, material, 0.0)
    for k in range(15):
        rho, st, _ = lowrank_macro_coupled_step(ctx, rho, st, (k + 1) * dt)
        e_new = energy(grid, quad, rho, st, config, material, 0.0)
        assert e_new <= e * (1 + 1e-12)
        e = e_new


def test_lattice_schur_small_step_approaches_explicit_coupling():
    # the Schur-coupled run at a fifth of its stable step reproduces the
    # explicit-coupled profile along the central vertical line (reduced mesh)
    from lrtrans.run import extract_slice

    res_e = execute_run(
        RunManifest(scenario="lattice2d", scheme="IMEX-BUG", mesh_div=4, rank=60)
    )
    res_i = execute_run(
        RunManifest(scenario="lattice2d", scheme="IMEX-S-BUG", mesh_div=4,
                    rank=60, dt_mult=0.2)
    )
    _, ve = extract_slice(res_e.grid, res_e.rho_final, "x", 3.5)
    _, vi = extract_slice(res_i.grid, res_i.rho_final, "x", 3.5)
    rel = np.linalg.norm(ve - vi) / np.linalg.norm(ve)
    assert rel <= 0.1


def test_ap_enrichment_rule():
    # IMEX-aBUG runs as AP-aBUG exactly where the Schur-type scheme is
    # unconditionally stable, and never on unweighted factors
    cases = [
        ("gaussian1d-diff", 8, True),
        ("gaussian1d-mid", 8, True),  # coarse enough for the diffusive rule
        ("gaussian1d-mid", 1, False),
        ("gaussian1d-kinetic", 8, False),
        ("lattice2d", 4, False),  # sigma_s_floor = 0
    ]
    for name, mesh_div, ap in cases:
        scen = get_scenario(name, mesh_div)
        grid, _, material = scenarios.build_objects(scen)
        assert (dt_implicit(grid, material, scen.epsilon) == UNCONDITIONAL) == ap
        for unweighted in (False, True):
            res = execute_run(RunManifest(scenario=name, scheme="IMEX-aBUG", mesh_div=mesh_div,
                                          unweighted=unweighted, max_steps=1, with_error=False))
            assert res.summary["integrator"] == ("AP-aBUG" if ap and not unweighted else "aBUG")


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_scenarios_self_validate_one_step(name, scheme):
    if name in ("mms2d-128", "mms2d-256"):
        pytest.skip("covered by the smaller manufactured meshes")
    res = execute_run(
        RunManifest(scenario=name, scheme=scheme, mesh_div=4, max_steps=1)
    )
    assert res.summary["status"] == "completed"
    assert res.summary["steps_completed"] == 1
