"""Force assembly, loads, the Verlet stepper, and run bookkeeping."""

import math

import numpy as np
import pytest

from peribond import (
    ExternalLoad,
    HorizonConfig,
    NetworkForce,
    build_bonds,
    build_grid,
    internal_force,
    run,
    stable_dt,
    step_verlet,
    zero_state,
)
from peribond.dynamics import (
    bond_stretches,
    kinetic_energy,
    momentum,
    potential_energy,
    series_columns,
)
from peribond.errors import ConfigError, SimulationError
from peribond.kernels import BondBreaker, MicroModulus, PMB, QuadraticPotential


def two_point_cloud():
    # points at 0.25 and 0.75, one bond of length 0.5, volumes 0.5
    return build_grid((1.0,), 0.5, 2.0, periodic=(False,))


def test_external_load_presets():
    pos = np.array([[0.25, 0.2], [0.75, 0.8]])
    const = ExternalLoad("constant", amplitude=(1.0, -2.0))
    assert np.allclose(const.body_force(pos, 0.0), [[1.0, -2.0], [1.0, -2.0]])

    sine = ExternalLoad("sinusoidal-in-x", amplitude=(2.0, 0.0), wavelength=1.0)
    b = sine.body_force(pos, 0.0)
    assert np.allclose(b[:, 0], 2.0 * np.sin(2.0 * math.pi * pos[:, 0]))
    assert np.allclose(b[:, 1], 0.0)

    pull = ExternalLoad("opposing-last-axis", amplitude=(0.0, 3.0), center=0.5)
    b = pull.body_force(pos, 0.0)
    assert np.allclose(b, [[0.0, -3.0], [0.0, 3.0]])
    on_line = pull.body_force(np.array([[0.1, 0.5]]), 0.0)
    assert np.allclose(on_line, 0.0)

    assert np.allclose(ExternalLoad().body_force(pos, 0.0), 0.0)


def test_external_load_callable_and_errors():
    fn = ExternalLoad("constant", amplitude=(9.9,),
                      fn=lambda pos, t: np.full_like(pos, t))
    assert np.allclose(fn.body_force(np.zeros((3, 1)), 2.0), 2.0)
    with pytest.raises(ConfigError):
        ExternalLoad("gravity")
    with pytest.raises(ConfigError):
        ExternalLoad("constant")  # needs an amplitude
    with pytest.raises(ConfigError):
        ExternalLoad("sinusoidal-in-x", amplitude=(1.0,), wavelength=0.0)
    bad = ExternalLoad("constant", amplitude=(1.0, 2.0))
    with pytest.raises(ConfigError, match="component"):
        bad.body_force(np.zeros((3, 1)), 0.0)


@pytest.mark.parametrize("preset", [True, False])
def test_run_evaluates_the_body_force_once_per_instant(preset, monkeypatch):
    # a preset does not depend on t and is evaluated once per run; a
    # callable once per instant, the end of one step being the next's start
    cloud = build_grid((1.0,), 0.0625, 1.0, periodic=(True,))
    bonds = build_bonds(cloud, HorizonConfig(0.25))
    model = QuadraticPotential(alpha=2.0, delta=0.25)
    times, exact = [], ExternalLoad.body_force

    def counted(self, positions, t):
        times.append(t)
        return exact(self, positions, t)

    monkeypatch.setattr(ExternalLoad, "body_force", counted)
    fn = None if preset else (lambda pos, t: np.full_like(pos, math.sin(t)))
    load = ExternalLoad("constant", amplitude=(1e-3,), fn=fn)
    state = zero_state(cloud)
    run(cloud, bonds, model, state, 0.01, 20, load=load, record_every=5)
    instants = [0.0]
    for _ in range(20):
        instants.append(instants[-1] + 0.01)
    assert times == (instants[:1] if preset else instants)
    assert np.any(state.v != 0.0)


def test_bond_stretches():
    cloud = two_point_cloud()
    bonds = build_bonds(cloud, HorizonConfig(0.6))
    u = np.array([[0.0], [0.25]])  # bond stretched from 0.5 to 0.75
    assert np.allclose(bond_stretches(bonds, u), [0.5])


def test_internal_force_balances():
    # pairwise antisymmetry makes the volume-weighted total vanish
    cloud = build_grid((1.0, 1.0), 0.125, 1.0, periodic=(False, False))
    bonds = build_bonds(cloud, HorizonConfig(0.3))
    rng = np.random.default_rng(2)
    u = 0.01 * rng.standard_normal(cloud.positions.shape)
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.3))
    f = internal_force(cloud, bonds, model, u)
    total = (cloud.volumes[:, None] * f).sum(axis=0)
    assert np.max(np.abs(total)) < 1e-15 * np.abs(f).max()


def test_internal_force_translation_invariant():
    cloud = build_grid((1.0,), 0.0625, 1.0, periodic=(True,))
    bonds = build_bonds(cloud, HorizonConfig(0.25))
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.25))
    rng = np.random.default_rng(4)
    # dyadic displacements make u + shift exact, so the forces match bitwise
    u = rng.integers(-1024, 1025, cloud.positions.shape) * 2.0**-15
    shifted = u + 0.25
    assert np.array_equal(internal_force(cloud, bonds, model, u),
                          internal_force(cloud, bonds, model, shifted))


def test_stable_dt_two_point_value():
    cloud = two_point_cloud()
    bonds = build_bonds(cloud, HorizonConfig(0.6, partial_volume="none"))
    model = PMB(micro=MicroModulus("cylindrical", 3.0, 0.6))
    # per point: one bond, weight 0.5, stiffness c/r = 6 -> sum 3
    expected = 0.5 * math.sqrt(2.0 * 2.0 / 3.0)
    assert stable_dt(cloud, bonds, model, safety=0.5) == pytest.approx(expected)


def test_stable_dt_rejects_stiffness_free_network():
    cloud = two_point_cloud()
    with pytest.warns(UserWarning):
        bonds = build_bonds(cloud, HorizonConfig(0.4))  # below the spacing
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.4))
    with pytest.raises(ConfigError, match="stable step undefined"):
        stable_dt(cloud, bonds, model)


def test_verlet_is_time_reversible():
    cloud = build_grid((1.0,), 0.0625, 1.0, periodic=(True,))
    bonds = build_bonds(cloud, HorizonConfig(0.25))
    model = QuadraticPotential(alpha=2.0, delta=0.25)
    state = zero_state(cloud)
    state.u[:, 0] = 1e-3 * np.sin(2.0 * math.pi * cloud.positions[:, 0])
    u0, v0 = state.u.copy(), state.v.copy()
    dt = stable_dt(cloud, bonds, model, safety=0.4)
    op = NetworkForce(cloud, bonds, model)
    for _ in range(50):
        step_verlet(cloud, op, state, dt)
    state.v = -state.v
    for _ in range(50):
        step_verlet(cloud, op, state, dt)
    assert np.max(np.abs(state.u - u0)) < 1e-12
    assert np.max(np.abs(-state.v - v0)) < 1e-12


def test_energy_functions():
    cloud = two_point_cloud()
    bonds = build_bonds(cloud, HorizonConfig(0.6, partial_volume="none"))
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.6))
    v = np.array([[1.0], [-1.0]])
    # 0.5 rho sum V |v|^2 = 0.5 * 2 * (0.5 + 0.5)
    assert kinetic_energy(cloud, v) == 1.0
    assert np.allclose(momentum(cloud, v), 0.0)
    u = np.array([[0.0], [0.5]])  # stretch 1: phi = c s^2 r / 2 = 0.25
    # pair counted once: phi * w * V = 0.25 * 0.5 * 0.5
    assert potential_energy(cloud, bonds, model, u) == pytest.approx(
        0.25 * 0.5 * 0.5)


def test_run_series_layout():
    cloud = build_grid((1.0,), 0.0625, 1.0, periodic=(True,))
    bonds = build_bonds(cloud, HorizonConfig(0.25))
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.25))
    state = zero_state(cloud)
    state.u[:, 0] = 1e-3 * np.sin(2.0 * math.pi * cloud.positions[:, 0])
    dt = stable_dt(cloud, bonds, model)
    result = run(cloud, bonds, model, state, dt, 25, record_every=10)
    assert result.columns == ["t", "kinetic", "potential", "total", "px",
                              "damage_mean"]
    assert series_columns(3) == ["t", "kinetic", "potential", "total",
                                 "px", "py", "pz", "damage_mean"]
    # rows at t = 0 and steps 10, 20, 25 (the final step always records)
    assert len(result.series["t"]) == 4
    assert result.series["t"][0] == 0.0
    assert result.series["t"][-1] == pytest.approx(25 * dt)
    assert np.all(result.series["total"] > 0.0)


def test_run_snapshots_and_zero_steps():
    cloud = two_point_cloud()
    bonds = build_bonds(cloud, HorizonConfig(0.6))
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.6))
    seen = []
    result = run(cloud, bonds, model, zero_state(cloud), 0.01, 0,
                 on_snapshot=lambda step, st, dmg: seen.append((step, st.copy(), dmg)))
    # a zero-step run still emits the initial snapshot
    assert [step for step, _, _ in seen] == [0]
    assert np.array_equal(seen[0][1].u, result.state.u)
    assert np.array_equal(seen[0][2], bonds.damage())
    assert len(result.series["t"]) == 1

    seen.clear()
    run(cloud, bonds, model, zero_state(cloud), 0.01, 5, snapshot_every=2,
        on_snapshot=lambda step, st, dmg: seen.append(step))
    assert seen == [0, 2, 4, 5]


def test_run_argument_validation():
    cloud = two_point_cloud()
    bonds = build_bonds(cloud, HorizonConfig(0.6))
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.6))
    with pytest.raises(ConfigError):
        run(cloud, bonds, model, zero_state(cloud), 0.01, -1)
    with pytest.raises(ConfigError):
        run(cloud, bonds, model, zero_state(cloud), 0.01, 1, record_every=0)


def test_unstable_step_detected():
    cloud = build_grid((1.0,), 0.0625, 1.0, periodic=(True,))
    bonds = build_bonds(cloud, HorizonConfig(0.25))
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.25))
    state = zero_state(cloud)
    state.u[:, 0] = 1e-3 * np.sin(2.0 * math.pi * cloud.positions[:, 0])
    with np.errstate(all="ignore"), pytest.raises(SimulationError,
                                                  match="non-finite"):
        run(cloud, bonds, model, state, 1e4, 2000)


def test_breaker_inside_run_raises_damage():
    cloud = two_point_cloud()
    bonds = build_bonds(cloud, HorizonConfig(0.6, partial_volume="none"))
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.6),
                breaker=BondBreaker("critical-stretch", s0=0.05))
    state = zero_state(cloud)
    state.v[:, 0] = [-0.5, 0.5]  # pull the pair apart
    result = run(cloud, bonds, model, state, 0.01, 20)
    assert np.allclose(bonds.mu, 0.0)
    dmg = result.series["damage_mean"]
    assert dmg[0] == 0.0 and dmg[-1] == 1.0
    # once broken, the bond transmits nothing: forces vanish
    assert np.allclose(internal_force(cloud, bonds, model, state.u), 0.0)


@pytest.mark.parametrize("n_steps, record_every, snapshot_every, on_snapshot, calls", [
    (100, 50, 100, True, 3),   # instants 0, 50, 100 (a row and a snapshot at 0 and 100)
    (100, 50, 100, False, 3),
    (5, 3, 2, True, 5),        # rows 0, 3, 5; snapshots 0, 2, 4, 5
    (7, 10, 0, True, 2),       # rows 0, 7; no snapshot cadence
    (0, 1, 0, True, 1),        # a zero-step run: one row and its one snapshot
])
def test_each_recorded_instant_evaluates_damage_once(monkeypatch, n_steps, record_every,
                                                     snapshot_every, on_snapshot, calls):
    cloud = build_grid((1.0,), 0.0625, 1.0, periodic=(True,))
    bonds = build_bonds(cloud, HorizonConfig(0.25))
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.25))
    state = zero_state(cloud)
    state.u[:, 0] = 1e-3 * np.sin(2.0 * math.pi * cloud.positions[:, 0])
    evaluated, seen = [], []
    exact_damage = NetworkForce.damage

    def counted_damage(self):
        evaluated.append(exact_damage(self))
        return evaluated[-1]

    monkeypatch.setattr(NetworkForce, "damage", counted_damage)
    result = run(cloud, bonds, model, state, 0.01, n_steps, record_every=record_every,
                 snapshot_every=snapshot_every,
                 on_snapshot=(lambda step, st, dmg: seen.append(dmg)) if on_snapshot else None)
    assert len(evaluated) == calls
    rows = len([k for k in range(n_steps + 1) if k % record_every == 0 or k == n_steps])
    assert len(result.series["t"]) == rows
    # a snapshot receives the very array that its instant evaluated
    assert all(any(dmg is e for e in evaluated) for dmg in seen)
