"""Memory modes: ring buffer, rediscovered horizons, and the fluid limit."""

import math

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
    run_fluid,
    step_verlet,
    zero_state,
)
from peribond.errors import ConfigError, SimulationError, SingularConfigurationError
from peribond.fluidpd import FluidState, MemoryForce, fluid_state
from peribond.kernels import Convolution, MicroModulus, PMB


def test_memory_config_validation():
    assert MemoryConfig().mode == "infinite"
    MemoryConfig(mode="finite", s=0.5)
    with pytest.raises(ConfigError):
        MemoryConfig(mode="sticky")
    with pytest.raises(ConfigError):
        MemoryConfig(mode="finite", s=math.inf)
    with pytest.raises(ConfigError):
        MemoryConfig(mode="zero", coefficient=0.0)
    with pytest.raises(ConfigError):
        MemoryConfig(fluid_kernel="cubic")


def test_ring_buffer_depth_and_prehistory():
    pos = np.zeros((2, 1))
    fs = FluidState(positions=pos.copy(), velocities=np.zeros((2, 1)),
                    reference=pos.copy(), stride=2)
    fs.push_snapshot()          # step 0
    for step in (1, 2, 3):
        fs.step = step
        fs.positions += 1.0
        fs.push_snapshot()
    # depth 2 keeps steps 1..3; step 0 was pruned
    assert np.allclose(fs.remembered(1), 1.0)
    assert np.allclose(fs.remembered(3), 3.0)
    with pytest.raises(SimulationError, match="insufficient history"):
        fs.remembered(0)
    # negative steps fall back on the reference shape
    assert fs.remembered(-1) is fs.reference


def test_fluid_state_lifts_displacements():
    cloud = build_grid((1.0,), 0.25, 1.0, periodic=(False,))
    state = zero_state(cloud)
    state.u[:, 0] = 0.125
    state.v[:, 0] = 2.0
    fs = fluid_state(cloud, state, stride=3)
    assert np.allclose(fs.positions[:, 0], cloud.positions[:, 0] + 0.125)
    assert np.allclose(fs.velocities[:, 0], 2.0)
    assert fs.stride == 3
    assert np.allclose(fs.remembered(0), fs.positions)  # initial snapshot


def test_infinite_memory_matches_reference_network_forces():
    cloud = build_grid((2.0, 2.0), 0.25, 1.0, periodic=(False, False))
    horizon = HorizonConfig(0.5)
    bonds = build_bonds(cloud, horizon)
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.5))
    rng = np.random.default_rng(11)
    state = zero_state(cloud)
    # dyadic displacements keep positions = reference + u exact, so the two
    # force paths see identical bond geometry and must agree bitwise
    state.u[:] = rng.integers(-20971, 20972, state.u.shape) * 2.0**-20
    fs = fluid_state(cloud, state)
    got = memory_force(cloud, fs, model, MemoryConfig(), horizon)
    want = internal_force(cloud, bonds, model, state.u)
    assert np.array_equal(got, want)


def test_memory_force_rejects_zero_mode():
    cloud = build_grid((1.0,), 0.25, 1.0, periodic=(False,))
    fs = fluid_state(cloud, zero_state(cloud))
    with pytest.raises(ConfigError, match="fluid_force"):
        memory_force(cloud, fs, None, MemoryConfig(mode="zero"),
                     HorizonConfig(0.5))


def test_finite_memory_rebinds_against_trailing_shape():
    # two particles drift apart; with a short memory the remembered gap, not
    # the reference gap, sets the bond's xi
    cloud = build_grid((1.0,), 0.5, 1.0, periodic=(False,))
    horizon = HorizonConfig(0.6, partial_volume="none")
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.6))
    state = zero_state(cloud)
    fs = fluid_state(cloud, state, stride=1)
    memory = MemoryConfig(mode="finite", s=0.1)

    fs.step = 1
    fs.positions = fs.positions + np.array([[0.0], [0.02]])
    fs.push_snapshot()
    fs.step = 2
    fs.positions = fs.positions + np.array([[0.0], [0.01]])

    # remembered shape is step 1: separation 0.52, eta relative to it is 0.01
    f = memory_force(cloud, fs, model, memory, horizon)
    xi, eta = np.array([0.52]), np.array([0.01])
    expected = model.force(xi, eta)[0] * 0.5  # neighbor volume weight
    assert f[0, 0] == pytest.approx(expected, rel=1e-12)
    assert f[1, 0] == pytest.approx(-expected, rel=1e-12)


def test_fluid_force_linear_kernel_value():
    cloud = build_grid((2.0,), 1.0, 1.0, periodic=(False,))
    state = zero_state(cloud)
    state.v[:, 0] = [0.0, 2.0]
    fs = fluid_state(cloud, state)
    memory = MemoryConfig(mode="zero", coefficient=3.0)
    f = fluid_force(cloud, fs, memory, HorizonConfig(2.0, partial_volume="none"))
    # f = coeff (dv . n) n per bond, weighted by the neighbor volume 1
    assert np.allclose(f, [[6.0], [-6.0]])
    # overriding velocities changes the evaluation point, not the state
    f2 = fluid_force(cloud, fs, memory, HorizonConfig(2.0, partial_volume="none"),
                     velocities=np.zeros((2, 1)))
    assert np.allclose(f2, 0.0)


def test_fluid_force_kernel_mode():
    cloud = build_grid((2.0,), 1.0, 1.0, periodic=(False,))
    state = zero_state(cloud)
    state.v[:, 0] = [0.0, 1.0]
    fs = fluid_state(cloud, state)
    memory = MemoryConfig(mode="zero", coefficient=2.0, fluid_kernel="kernel")
    horizon = HorizonConfig(2.0, partial_volume="none")
    with pytest.raises(ConfigError, match="requires a bond model"):
        fluid_force(cloud, fs, memory, horizon)
    model = Convolution(c=1.0, exponent=3)
    f = fluid_force(cloud, fs, memory, horizon, model=model)
    # bond 0 -> 1: xi = 1, scaled dv = 2, q_vec = 3: f = q^2 q_vec = 27
    assert np.allclose(f, [[27.0], [-27.0]])


def test_coincident_particles_rejected():
    cloud = build_grid((1.0,), 0.5, 1.0, periodic=(False,))
    state = zero_state(cloud)
    state.u[1, 0] = -0.5  # move particle 1 onto particle 0
    fs = fluid_state(cloud, state)
    with pytest.raises(SingularConfigurationError, match="coincide"):
        fluid_force(cloud, fs, MemoryConfig(mode="zero", coefficient=1.0),
                    HorizonConfig(0.6))


def test_run_fluid_refuses_infinite_memory():
    # infinite memory is the solid theory: its caller runs dynamics.run on
    # the setup's own network, which may carry a seeded crack
    cloud = build_grid((1.0,), 0.0625, 1.0, periodic=(True,))
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.25))
    state = zero_state(cloud)
    with pytest.raises(ConfigError, match=r"^\[memory\] mode: .*dynamics\.run"):
        run_fluid(cloud, HorizonConfig(0.25), model, MemoryConfig(), state, 0.01, 40)
    assert state.step == 0


def test_run_fluid_zero_memory_shear_decays():
    cloud = build_grid((1.0, 1.0), 0.125, 1.0, periodic=(True, True))
    memory = MemoryConfig(mode="zero", coefficient=20.0)
    state = zero_state(cloud)
    state.v[:, 0] = np.sin(2.0 * math.pi * cloud.positions[:, 1])
    result = run_fluid(cloud, HorizonConfig(0.375), None, memory, state,
                       0.02, 50, record_every=1)
    kin = result.series["kinetic"]
    assert kin[0] > 0.0
    assert np.all(np.diff(kin) <= 0.0)
    # viscous forces are internal: momentum stays put while energy drains
    assert abs(result.series["px"][-1] - result.series["px"][0]) < 1e-13
    assert np.allclose(result.series["potential"], 0.0)
    # the displacement state was synced back from the advected positions
    assert np.any(state.u != 0.0)
    assert state.step == 50


def test_run_fluid_finite_memory_runs_and_records():
    cloud = build_grid((1.0,), 0.125, 1.0, periodic=(True,))
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.375))
    memory = MemoryConfig(mode="finite", s=0.05)
    state = zero_state(cloud)
    state.v[:, 0] = 0.05 * np.sin(2.0 * math.pi * cloud.positions[:, 0])
    snaps = []
    result = run_fluid(cloud, HorizonConfig(0.375), model, memory, state,
                       0.01, 30, record_every=10, snapshot_every=15,
                       on_snapshot=lambda step, st, dmg: snaps.append(step))
    assert snaps == [0, 15, 30]
    assert len(result.series["t"]) == 4
    assert np.all(np.isfinite(result.series["total"]))
    # finite memory reports the remembered-shape elastic potential
    assert result.series["potential"][-1] >= 0.0


def test_run_fluid_validation():
    cloud = build_grid((1.0,), 0.25, 1.0, periodic=(True,))
    memory = MemoryConfig(mode="zero", coefficient=1.0)
    with pytest.raises(ConfigError):
        run_fluid(cloud, HorizonConfig(0.3), None, memory, zero_state(cloud),
                  0.01, -2)
    with pytest.raises(ConfigError):
        run_fluid(cloud, HorizonConfig(0.3), None, memory, zero_state(cloud),
                  0.01, 2, record_every=0)


def test_only_finite_memory_settles_a_carried_force():
    cloud = build_grid((1.0, 1.0), 0.125, 1.0, periodic=(True, True))
    horizon = HorizonConfig(0.375)
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.375))
    state = zero_state(cloud)
    state.v[:, 0] = np.sin(2.0 * math.pi * cloud.positions[:, 1])
    zero = MemoryForce(cloud, horizon, None, MemoryConfig(mode="zero", coefficient=20.0),
                       state, 0.02)
    # the viscous force depends on velocity: settle returns None ...
    assert zero.settle(state, 0.02, zero.force(state, state.v)) is None
    # ... and step_verlet passes that None on, so the next step recomputes it
    assert step_verlet(cloud, zero, state, 0.02) is None
    assert state.step == 1

    state = zero_state(cloud)
    state.v[:, 0] = 0.01 * np.sin(2.0 * math.pi * cloud.positions[:, 1])
    finite = MemoryForce(cloud, horizon, model, MemoryConfig(mode="finite", s=0.04),
                         state, 0.02)
    force = finite.force(state, state.v)
    assert finite.settle(state, 0.02, force) is force
    carried = step_verlet(cloud, finite, state, 0.02, force=force)
    assert np.array_equal(carried, finite.force(state, state.v))
