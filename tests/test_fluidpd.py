"""Memory modes: ring buffer, rediscovered horizons, and the fluid limit."""

import dataclasses
import math

from hypothesis import given, settings
import numpy as np
import pytest

from peribond import (
    BondBreaker,
    HorizonConfig,
    MemoryConfig,
    build_bonds,
    build_grid,
    fluid_force,
    internal_force,
    memory_force,
    run,
    run_fluid,
    step_verlet,
    zero_state,
)
from peribond import discretization, dynamics, fluidpd, kernels
from peribond.discretization import directed_pairs, neighbor_pairs
from peribond.errors import ConfigError, SimulationError, SingularConfigurationError
from peribond.fluidpd import FluidState, MemoryForce, fluid_state
from peribond.kernels import Convolution, MicroModulus, PMB, default_models
from test_column_arithmetic import broadcast_fluid_force, fluid_cases


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


class CountingModel:
    """A bond model that records how many rows each force call gets."""

    def __init__(self, model):
        self.model, self.rows = model, []

    def force(self, xi, eta, mu=None):
        self.rows.append(len(xi))
        return self.model.force(xi, eta, mu)


@settings(max_examples=60)
@given(case=fluid_cases())
def test_the_kernel_sees_each_unordered_pair_once(case):
    # the broadcast oracle calls the kernel on all M directed rows; fluid_force
    # calls it on the M/2 pairs as found and negates them for the reversed rows
    cloud, state, memory, horizon, model = case
    memory = dataclasses.replace(memory, fluid_kernel="kernel")
    want = broadcast_fluid_force(cloud, state, memory, horizon, model)
    counting = CountingModel(model)
    got = fluid_force(cloud, state, memory, horizon, model=counting)
    m = directed_pairs(state.positions, horizon.delta, cloud.box, cloud.periodic)[0].size
    assert counting.rows == [m // 2]
    assert np.array_equal(got, want)


def test_a_kernel_fluid_run_searches_twice_and_evaluates_half_the_rows_per_step(monkeypatch):
    # directed_pairs wrapped where fluidpd looks it up, as the benchmark's
    # tracing does: each step searches its incoming and its outgoing shape
    cloud = build_grid((1.0, 1.0), 0.125, 1.0, periodic=(True, True))
    horizon = HorizonConfig(0.375)
    memory = MemoryConfig(mode="zero", coefficient=0.5, fluid_kernel="kernel")
    counting = CountingModel(PMB(micro=MicroModulus("cylindrical", 1.0, horizon.delta)))
    searched = []

    def counted(*args, **kwargs):
        found = directed_pairs(*args, **kwargs)
        searched.append(found[0].size)
        return found
    monkeypatch.setattr(fluidpd, "directed_pairs", counted)
    state = zero_state(cloud)
    state.v[:, 0] = np.sin(2.0 * math.pi * cloud.positions[:, 1])
    n_steps = 6
    run_fluid(cloud, horizon, counting, memory, state, 0.01, n_steps)
    assert len(searched) == 2 * n_steps
    assert counting.rows == [m // 2 for m in searched] and min(searched) > 0


def test_coincident_particles_rejected():
    cloud = build_grid((1.0,), 0.5, 1.0, periodic=(False,))
    state = zero_state(cloud)
    state.u[1, 0] = -0.5  # move particle 1 onto particle 0
    fs = fluid_state(cloud, state)
    with pytest.raises(SingularConfigurationError, match="coincide"):
        fluid_force(cloud, fs, MemoryConfig(mode="zero", coefficient=1.0),
                    HorizonConfig(0.6))


@pytest.mark.parametrize("family", ["anti-plane-shear", "pmb"])
def test_a_kernel_fluid_names_the_particles_of_a_zero_deformed_length(family):
    # 4 points on a free line; pair (1, 2) has xi = 0.25 and coefficient * dv
    # = 0.25 * (-1): the kernel's deformed length is zero on that pair alone
    cloud = build_grid((1.0,), 0.25, 1.0, periodic=(False,))
    state = zero_state(cloud)
    state.v[2] = -1.0
    model = default_models(delta=0.3, dim=1)[family]
    memory = MemoryConfig(mode="zero", coefficient=0.25, fluid_kernel="kernel")
    with pytest.raises(SingularConfigurationError) as caught:
        fluid_force(cloud, fluid_state(cloud, state), memory, HorizonConfig(0.3), model=model)
    assert str(caught.value) == f"{family}: coincident deformed points on bond(s) [(1, 2)]"


def test_the_search_and_the_force_share_one_workspace(monkeypatch):
    # directed_pairs fills the workspace's index columns and the force
    # reserves the same entries for its float columns: after the call the
    # index columns the search wrote are still the workspace's, also on a
    # fresh workspace (the search's reserve grew it, the force's did not)
    # and after a smaller second search, whose force is a fresh workspace's
    cloud = build_grid((1.0, 1.0), 0.125, 1.0, periodic=(True, False))
    horizon, memory = HorizonConfig(0.25), MemoryConfig(mode="zero", coefficient=0.5)
    rng = np.random.default_rng(3)
    searched = []

    def kept(*args, **kwargs):
        found = directed_pairs(*args, **kwargs)
        searched.append(found[:2])
        return found
    monkeypatch.setattr(fluidpd, "directed_pairs", kept)
    workspace, sizes = fluidpd.fluid_workspace(cloud.dim), []
    for scale in (1.0, 1.5):
        state = zero_state(cloud)
        state.u[:] = (scale - 1.0) * cloud.positions
        state.v[:] = rng.standard_normal(state.v.shape)
        fs = fluid_state(cloud, state)
        got = fluid_force(cloud, fs, memory, horizon, workspace=workspace)
        source, neighbors = searched[-1]
        ints, floats = workspace.reserve(source.size)
        assert np.shares_memory(source, ints) and np.shares_memory(neighbors, ints)
        assert np.array_equal(ints, np.stack([source, neighbors]))
        assert not np.shares_memory(got, floats)
        assert np.array_equal(got, fluid_force(cloud, fs, memory, horizon))
        sizes.append(source.size)
    assert 0 < sizes[1] < sizes[0]


def test_the_fluid_force_writes_nothing_into_the_held_search():
    # both fluid kernels read xi and dist from the search the workspace
    # holds, a second call at one shape among them; afterwards both are
    # still bitwise a fresh search's
    cloud = build_grid((1.0, 1.0), 0.125, 1.0, periodic=(True, False))
    horizon = HorizonConfig(0.375)
    model = PMB(micro=MicroModulus("cylindrical", 1.0, horizon.delta))
    rng = np.random.default_rng(5)
    state = zero_state(cloud)
    state.u[:] = 0.01 * rng.standard_normal(state.u.shape)
    state.v[:] = rng.standard_normal(state.v.shape)
    fs = fluid_state(cloud, state)
    workspace = fluidpd.fluid_workspace(cloud.dim)
    for fluid_kernel in fluidpd.FLUID_KERNELS:
        memory = MemoryConfig(mode="zero", coefficient=0.5, fluid_kernel=fluid_kernel)
        got = fluid_force(cloud, fs, memory, horizon, model=model, workspace=workspace)
        assert np.array_equal(got, fluid_force(cloud, fs, memory, horizon, model=model))
    _, xi, dist = workspace.search
    _, _, want_xi, want_dist = directed_pairs(fs.positions, horizon.delta, cloud.box,
                                              cloud.periodic)
    assert xi.tobytes() == want_xi.tobytes() and dist.tobytes() == want_dist.tobytes()


def test_a_zero_memory_run_searches_each_shape_once(monkeypatch):
    # fluidpd still asks for the pairs twice per step; the workspace answers
    # the second request at a shape from the search it holds
    cloud = build_grid((1.0, 1.0), 0.125, 1.0, periodic=(True, True))
    asked, searched = [], []

    def counted_directed(*args, **kwargs):
        asked.append(args[0].copy())
        return directed_pairs(*args, **kwargs)

    def counted_search(*args):
        searched.append(args[0].copy())
        return neighbor_pairs(*args)
    monkeypatch.setattr(fluidpd, "directed_pairs", counted_directed)
    monkeypatch.setattr(discretization, "neighbor_pairs", counted_search)
    state = zero_state(cloud)
    state.v[:, 0] = np.sin(2.0 * math.pi * cloud.positions[:, 1])
    n_steps = 6
    run_fluid(cloud, HorizonConfig(0.375), None, MemoryConfig(mode="zero", coefficient=0.5),
              state, 0.01, n_steps)
    assert len(asked) == 2 * n_steps and len(searched) == n_steps + 1
    shapes = [asked[0]] + [x for x, y in zip(asked[1:], asked) if x.tobytes() != y.tobytes()]
    assert len(shapes) == n_steps + 1
    assert all(np.array_equal(x, y) for x, y in zip(shapes, searched))


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


def test_the_loops_evaluate_every_pair_through_network_force(monkeypatch):
    # run and finite-memory run_fluid reach the kernel only through
    # NetworkForce's pass: never through the unbound entry points. Finite
    # memory builds one operator per distinct remembered shape: the
    # reference shape, then the shapes of steps 0 .. n - stride.
    def refused(*args, **kwargs):
        raise AssertionError("a loop called an unbound entry point")

    for owner, name in ((dynamics, "internal_force"), (dynamics, "potential_energy"),
                        (kernels.KernelModel, "force"), (kernels.KernelModel, "potential"),
                        (kernels.PMB, "force")):
        monkeypatch.setattr(owner, name, refused)
    built, init = [], dynamics.NetworkForce.__init__

    def counted(self, *args):
        built.append(args[1])
        init(self, *args)

    monkeypatch.setattr(dynamics.NetworkForce, "__init__", counted)
    cloud = build_grid((1.0, 1.0), 0.125, 1.0, periodic=(True, True))
    horizon = HorizonConfig(0.375)
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.375),
                breaker=BondBreaker("critical-stretch", s0=0.005))
    bonds = build_bonds(cloud, horizon)
    state = zero_state(cloud)
    state.v[:, 0] = 0.2 * np.sin(2.0 * math.pi * cloud.positions[:, 1])
    run(cloud, bonds, model, state, 0.02, 10)
    assert len(built) == 1 and built[0] is bonds
    assert np.any(bonds.mu == 0.0)   # bonds broke, so the row-local refresh ran too

    built.clear()
    n_steps, stride = 10, 2
    state = zero_state(cloud)
    state.v[:, 0] = 0.01 * np.sin(2.0 * math.pi * cloud.positions[:, 1])
    run_fluid(cloud, horizon, model, MemoryConfig(mode="finite", s=stride * 0.02), state,
              0.02, n_steps)
    assert len(built) == 2 + n_steps - stride


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
