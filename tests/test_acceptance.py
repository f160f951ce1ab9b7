"""Acceptance gate: one test per shipped guarantee, printed as it runs.

Each test prints a single PASS/FAIL line (visible under pytest -s or in the
captured-output section of a failure) and asserts the same condition, so the
suite doubles as a human-readable checklist. Tolerances and runtime budgets
are stated next to each check; random checks are seeded and deterministic.
"""

import math
import time

import numpy as np
import pytest

from peribond import (
    HorizonConfig,
    MemoryConfig,
    build_bonds,
    build_grid,
    fluid_force,
    internal_force,
    memory_force,
    run,
    zero_state,
)
from peribond import dynamics
from peribond.config import parse_config
from peribond.diagnostics import (
    delta_convergence,
    impenetrability_probe,
    stretch_compare,
)
from peribond.fluidpd import fluid_state
from peribond.kernels import (
    MicroModulus,
    NonlinearP,
    PMB,
    check_kernel_axioms,
    default_models,
)
from peribond.scenarios import build_bar_wave, materialize


def report(number, ok, detail):
    print(f"criterion {number:2d}  {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def test_criterion_01_kernel_axiom_suite():
    # all 8 families, >= 1000 samples each: antisymmetry < 1e-10,
    # collinearity < 1e-12 relative, FD potential gradient < 1e-6 relative,
    # under 10 s for the whole sweep
    start = time.perf_counter()
    worst = {"antisym": 0.0, "collin": 0.0, "grad": 0.0}
    models = default_models(delta=1.0, dim=3)
    assert len(models) == 8
    for name, model in models.items():
        rep = check_kernel_axioms(model, dim=3, n_samples=1000, seed=7)
        worst["antisym"] = max(worst["antisym"], rep.antisymmetry_max)
        worst["collin"] = max(worst["collin"], rep.collinearity_max)
        worst["grad"] = max(worst["grad"], rep.gradient_max)
    elapsed = time.perf_counter() - start
    ok = (worst["antisym"] < 1e-10 and worst["collin"] < 1e-12
          and worst["grad"] < 1e-6 and elapsed < 10.0)
    report(1, ok,
           f"8 families x 1000 samples: antisym {worst['antisym']:.1e}, "
           f"collin {worst['collin']:.1e}, grad {worst['grad']:.1e}, "
           f"{elapsed:.2f} s")


def test_criterion_02_momentum_conservation():
    # 64-point periodic bar, PMB, 1000 steps, no body force: total momentum
    # drift < 1e-12 relative to the integrated force scale, under 5 s
    start = time.perf_counter()
    setup = build_bar_wave(delta=0.0625, m=4, n_steps=1000)
    assert setup.cloud.n_points == 64
    f0 = internal_force(setup.cloud, setup.bonds, setup.model, setup.state.u)
    result = run(setup.cloud, setup.bonds, setup.model, setup.state,
                 setup.dt, 1000, record_every=1)
    elapsed = time.perf_counter() - start

    p = result.series["px"]
    drift = float(np.max(np.abs(p - p[0])))
    scale = float(np.sum(setup.cloud.volumes
                         * np.linalg.norm(f0, axis=1))) * result.state.t
    rel = drift / scale
    ok = rel < 1e-12 and elapsed < 5.0
    report(2, ok, f"momentum drift {drift:.2e} = {rel:.2e} of the force "
                  f"scale {scale:.2e}, {elapsed:.2f} s")


def test_criterion_03_two_body_oscillator():
    # one bond, PMB: measured period within 1% of 2 pi sqrt(rho r / (2 c w))
    rho, c0, spacing = 2.0, 3.0, 0.5
    cloud = build_grid((1.0,), spacing, rho, periodic=(False,))
    bonds = build_bonds(cloud, HorizonConfig(0.6, partial_volume="none"))
    model = PMB(micro=MicroModulus("cylindrical", c0, 0.6))
    # relative elongation e obeys e'' = -(2 c0 w / (r rho)) e with w = V = 0.5
    omega = math.sqrt(2.0 * c0 * 0.5 / (spacing * rho))
    period = 2.0 * math.pi / omega

    state = zero_state(cloud)
    state.u[:, 0] = [-5e-4, 5e-4]
    dt = period / 1000.0
    result = run(cloud, bonds, model, state, dt, 3000, record_every=1)

    gap = []  # elongation trace via the conserved series is not recorded,
    # so rerun the trajectory accumulating it directly
    state = zero_state(cloud)
    state.u[:, 0] = [-5e-4, 5e-4]
    trace = [state.u[1, 0] - state.u[0, 0]]
    times = [0.0]
    op = dynamics.NetworkForce(cloud, bonds, model)
    for _ in range(3000):
        dynamics.step_verlet(cloud, op, state, dt)
        trace.append(state.u[1, 0] - state.u[0, 0])
        times.append(state.t)
    trace = np.asarray(trace)
    times = np.asarray(times)
    sign = np.sign(trace)
    flips = np.flatnonzero(sign[:-1] * sign[1:] < 0.0)
    # linear interpolation of each zero crossing; crossings sit T/2 apart
    t_cross = times[flips] - trace[flips] * dt / (trace[flips + 1] - trace[flips])
    measured = 2.0 * (t_cross[-1] - t_cross[0]) / (len(t_cross) - 1)
    rel = abs(measured - period) / period
    ok = rel < 0.01
    report(3, ok, f"period {measured:.6f} vs analytic {period:.6f} "
                  f"({rel:.2e} relative) at dt = T/1000")


def _energy_drift(periods, dt_scale):
    setup = build_bar_wave(delta=0.1, m=4, periods=periods)
    dt = setup.dt * dt_scale
    n_steps = int(round(setup.n_steps / dt_scale))
    result = run(setup.cloud, setup.bonds, setup.model, setup.state, dt,
                 n_steps, record_every=1)
    total = result.series["total"]
    return total, float(np.max(np.abs(total - total[0])))


def test_criterion_04_energy_inequality_and_step_refinement():
    # conservative sine-pulse bar over 10 periods: max E(t) <= 1.001 E(0);
    # halving dt cuts the drift by about 4 (second-order integrator)
    total, drift = _energy_drift(10.0, 1.0)
    growth = float(np.max(total)) / total[0]
    _, drift_half = _energy_drift(10.0, 0.5)
    ratio = drift / drift_half
    ok = growth <= 1.001 and 3.0 < ratio < 6.0
    report(4, ok, f"max E / E0 = {growth:.8f}, drift {drift:.2e} -> "
                  f"{drift_half:.2e} on dt/2 (ratio {ratio:.2f})")


def test_criterion_05_horizon_convergence():
    # traveling wave at delta in {0.2, 0.1, 0.05}, m = 4: strictly
    # decreasing error against the classical oracle, finest under 2%,
    # whole study under 60 s
    start = time.perf_counter()
    result = delta_convergence(deltas=(0.2, 0.1, 0.05), m=4)
    elapsed = time.perf_counter() - start
    decreasing = all(b < a for a, b in zip(result.errors, result.errors[1:]))
    ok = decreasing and result.errors[-1] < 0.02 and elapsed < 60.0
    report(5, ok,
           "errors " + " > ".join(f"{e:.4e}" for e in result.errors)
           + f", rate {result.rate:.2f}, {elapsed:.1f} s")


def test_criterion_06_affine_stretch_exactness():
    # for affine displacement fields the nonlocal stretch must match the
    # fitted-gradient prediction to 1e-12 at every point, in 1D/2D/3D
    worst = 0.0
    for dim in (1, 2, 3):
        cloud = build_grid((1.0,) * dim, 0.125, 1.0, periodic=(False,) * dim)
        bonds = build_bonds(cloud, HorizonConfig(0.375))
        rng = np.random.default_rng(40 + dim)
        grad = 1e-3 * rng.standard_normal((dim, dim))
        state = zero_state(cloud)
        state.u[:] = cloud.positions @ grad.T
        for index in range(cloud.n_points):
            rep = stretch_compare(cloud, bonds, state, index)
            worst = max(worst, rep.max_discrepancy)
    ok = worst <= 1e-12
    report(6, ok, f"max nonlocal-vs-affine discrepancy {worst:.2e} "
                  "over all points in 1D/2D/3D")


def test_criterion_07_infinite_memory_recovers_solid_forces():
    # rebinding the horizon in the remembered (= reference) shape must give
    # the reference-network internal force to 1e-12 on 100 random states
    # for every kernel family
    cloud = build_grid((2.0, 2.0), 0.25, 1.0, periodic=(False, False))
    horizon = HorizonConfig(0.5)
    bonds = build_bonds(cloud, horizon)
    memory = MemoryConfig(mode="infinite")
    rng = np.random.default_rng(11)
    worst = 0.0
    for name, model in default_models(delta=0.5, dim=2).items():
        for _ in range(100):
            state = zero_state(cloud)
            # dyadic displacements make reference + u exact, so the
            # comparison probes the operators, not float lift noise
            state.u[:] = rng.integers(-20971, 20972, state.u.shape) * 2.0**-20
            fs = fluid_state(cloud, state)
            got = memory_force(cloud, fs, model, memory, horizon)
            want = internal_force(cloud, bonds, model, state.u)
            worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst <= 1e-12
    report(7, ok, f"max |memory force - solid force| = {worst:.1e} "
                  "over 8 families x 100 states")


def test_criterion_08_fluid_limit_properties():
    # (a) the velocity-difference kernel is Galilean invariant: boosting all
    # velocities by a constant leaves the force bitwise unchanged;
    # (b) the shipped shear scenario loses kinetic energy monotonically
    # across all 2000 steps
    cloud = build_grid((2.0, 2.0), 0.25, 1.0, periodic=(True, True))
    horizon = HorizonConfig(0.5)
    memory = MemoryConfig(mode="zero", coefficient=50.0)
    rng = np.random.default_rng(21)
    exact = True
    for _ in range(20):
        state = zero_state(cloud)
        state.u[:] = rng.integers(-20971, 20972, state.u.shape) * 2.0**-20
        state.v[:] = rng.integers(-20971, 20972, state.v.shape) * 2.0**-20
        boost = rng.integers(-8, 9, (1, 2)) * 0.25
        fs = fluid_state(cloud, state)
        f = fluid_force(cloud, fs, memory, horizon)
        fs.velocities = fs.velocities + boost
        f_boosted = fluid_force(cloud, fs, memory, horizon)
        exact = exact and bool(np.array_equal(f, f_boosted))

    cfg = parse_config("[scenario]\npreset = fluid-shear\n"
                       "[time]\nrecord_every = 1\n")
    setup = materialize(cfg)
    from peribond import run_fluid

    result = run_fluid(setup.cloud, setup.horizon, setup.model, setup.memory,
                       setup.state, setup.dt, setup.n_steps, record_every=1)
    kin = result.series["kinetic"]
    monotone = bool(np.all(np.diff(kin) <= 0.0))
    ok = exact and monotone and len(kin) == 2001
    report(8, ok, f"Galilean boost exact on 20 states: {exact}; shear "
                  f"kinetic energy {kin[0]:.4f} -> {kin[-1]:.4f} "
                  f"monotone over 2000 steps: {monotone}")


def test_criterion_09_impenetrability_contrast():
    # compressing every bond to |xi + eta| = 0.01 |xi|: the power-law family
    # separates the collapsed state from rest by >= 1e3 in bond potential,
    # while the stretch-linear family stays finite and bounded
    cloud = build_grid((2.0,), 0.25, 1.0, periodic=(False,))
    bonds = build_bonds(cloud, HorizonConfig(0.5))
    state = zero_state(cloud)
    state.u[:] = -0.99 * cloud.positions

    hard = NonlinearP(kappa=1.0, p=2.0, alpha=0.5, dim=1, delta=0.5)
    rep_hard = impenetrability_probe(cloud, bonds, hard, state)
    soft = PMB(micro=MicroModulus("cylindrical", 1.0, 0.5))
    rep_soft = impenetrability_probe(cloud, bonds, soft, state)

    bounded = math.isfinite(rep_soft.max_potential) and rep_soft.max_potential < 1.0
    ok = rep_hard.max_amplification >= 1e3 and bounded
    report(9, ok,
           f"power-law potential contrast {rep_hard.max_amplification:.1e} "
           f"(>= 1e3); linear-in-stretch potential bounded at "
           f"{rep_soft.max_potential:.3f}")


def test_criterion_10_precrack_plate_smoke():
    # shipped 64 x 64 plate with a seeded through-crack under tensile load:
    # damage zero away from the seam at t = 0, strictly increasing along the
    # run, no non-finite values, under 120 s
    start = time.perf_counter()
    cfg = parse_config("[scenario]\npreset = plate2d-precrack\n")
    setup = materialize(cfg)
    assert setup.cloud.n_points == 64 * 64

    dmg0 = setup.bonds.damage()
    y = setup.cloud.positions[:, 1]
    far = np.abs(y - 0.5) > 2.0 * setup.horizon.delta
    clean_far_field = bool(np.allclose(dmg0[far], 0.0)) and dmg0.max() > 0.0

    result = run(setup.cloud, setup.bonds, setup.model, setup.state,
                 setup.dt, setup.n_steps, load=setup.load,
                 record_every=setup.record_every)
    elapsed = time.perf_counter() - start

    dmg = result.series["damage_mean"]
    growing = bool(np.all(np.diff(dmg) > 0.0))
    finite = bool(np.all(np.isfinite(result.state.u))
                  and np.all(np.isfinite(result.state.v))
                  and all(np.all(np.isfinite(col))
                          for col in result.series.values()))
    ok = clean_far_field and growing and finite and elapsed < 120.0
    report(10, ok,
           f"far field clean at t=0: {clean_far_field}; damage "
           f"{dmg[0]:.4f} -> {dmg[-1]:.4f} strictly increasing over "
           f"{setup.n_steps} steps: {growing}; finite: {finite}; "
           f"{elapsed:.1f} s")
