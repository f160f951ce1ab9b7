"""Balance laws of the pair network, under hypothesis.

Each bond pair pushes its two ends with equal and opposite forces along the
deformed bond, so the volume-weighted internal forces of a network sum to
zero (linear momentum), and so do their moments about the origin on the
axes where no bond wraps around a periodic boundary (angular momentum).
Both sums are checked against the scale sum_i |V_i f_i|, over every
default_models family, intact, broken and partially damaged bonds, and the
model evaluated call by call and bound to the network.

The force reads displacements only through their differences, so adding a
constant to every displacement leaves it bitwise unchanged wherever the sum
is exact: dyadic displacements and shifts. A central force depends on the
deformed bond alone, so rotating the deformed shape rotates the force, to
rounding, on lattices with walled axes (a periodic box is not rotated with
the shape).

The zero-memory fluid force depends on velocity differences only, so a
constant velocity boost leaves it bitwise unchanged wherever the boost is
exact: dyadic velocities and boosts, every sum and difference exact.
"""

import dataclasses
from itertools import combinations

from hypothesis import assume, given, settings, strategies as st
import numpy as np

from peribond import build_bonds
from peribond.dynamics import NetworkForce, internal_force, zero_state
from peribond.fluidpd import FluidState, MemoryForce, fluid_force
from peribond.kernels import default_models

from test_column_arithmetic import fluid_cases
from test_pair_network import lattices

TOL = 1e-14
ROT_TOL = 1e-12  # the rotated shape rounds anew; 2.2e-14 was the largest of 1,500 draws


def random_mu(rng, n, damage):
    if damage == "intact":
        return np.ones(n)
    if damage == "broken":
        return (rng.random(n) < 0.7).astype(float)
    return rng.uniform(0.0, 1.0, n)


def free_axes(cloud):
    """The same lattice with every axis walled, none periodic."""
    return dataclasses.replace(cloud, periodic=np.zeros(cloud.dim, dtype=bool))


def rotation(rng, dim):
    """A random proper rotation matrix."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def forces(cloud, bonds, model, u, bound):
    if bound:
        state = zero_state(cloud)
        state.u[:] = u
        return NetworkForce(cloud, bonds, model).force(state, state.v)
    return internal_force(cloud, bonds, model, u)


def volume_forces(cloud, horizon, family, seed, damage, bound):
    """The deformed positions and V_i f_i of a random state of a lattice."""
    model = default_models(delta=horizon.delta, dim=cloud.dim)[family]
    bonds = build_bonds(cloud, horizon)
    rng = np.random.default_rng(seed)
    bonds.mu[:] = random_mu(rng, bonds.n_bonds, damage)
    state = zero_state(cloud)
    state.u[:] = 0.05 * cloud.spacing * rng.standard_normal(state.u.shape)
    if bound:
        f = NetworkForce(cloud, bonds, model).force(state, state.v)
    else:
        f = internal_force(cloud, bonds, model, state.u)
    return cloud.positions + state.u, cloud.volumes[:, None] * f


@settings(max_examples=80)
@given(lattice=lattices(), family=st.sampled_from(sorted(default_models())),
       seed=st.integers(0, 2**16), damage=st.sampled_from(["intact", "broken", "partial"]),
       bound=st.booleans(), walled=st.booleans())
def test_internal_forces_conserve_linear_and_angular_momentum(lattice, family, seed,
                                                               damage, bound, walled):
    cloud, horizon = lattice
    if walled:  # every axis free, so every plane's moment is checked
        cloud = free_axes(cloud)
    y, vf = volume_forces(cloud, horizon, family, seed, damage, bound)
    scale = float(np.sum(np.linalg.norm(vf, axis=1)))
    assert np.all(np.abs(vf.sum(axis=0)) <= TOL * scale)
    free = [axis for axis in range(cloud.dim) if not cloud.periodic[axis]]
    for a, b in combinations(free, 2):
        moment = float(np.sum(y[:, a] * vf[:, b] - y[:, b] * vf[:, a]))
        assert abs(moment) <= TOL * scale, (a, b)


@settings(max_examples=60)
@given(lattice=lattices(), family=st.sampled_from(sorted(default_models())),
       seed=st.integers(0, 2**16), damage=st.sampled_from(["intact", "broken", "partial"]),
       bound=st.booleans())
def test_a_constant_displacement_leaves_the_force_unchanged(lattice, family, seed, damage,
                                                            bound):
    cloud, horizon = lattice
    model = default_models(delta=horizon.delta, dim=cloud.dim)[family]
    bonds = build_bonds(cloud, horizon)
    rng = np.random.default_rng(seed)
    bonds.mu[:] = random_mu(rng, bonds.n_bonds, damage)
    # dyadic: |u| <= 2^-10 on a 2^-30 grid, |c| <= 8 on a 2^-4 grid, so u + c is exact
    u = rng.integers(-2**20, 2**20 + 1, (cloud.n_points, cloud.dim)) * 2.0**-30
    c = rng.integers(-128, 129, (1, cloud.dim)) * 2.0**-4
    want = forces(cloud, bonds, model, u, bound)
    assert np.array_equal(forces(cloud, bonds, model, u + c, bound), want)


@settings(max_examples=60)
@given(lattice=lattices(), family=st.sampled_from(sorted(default_models())),
       seed=st.integers(0, 2**16), damage=st.sampled_from(["intact", "broken", "partial"]),
       bound=st.booleans())
def test_rotating_the_deformed_shape_rotates_the_force(lattice, family, seed, damage, bound):
    cloud, horizon = lattice
    assume(cloud.dim >= 2)
    cloud = free_axes(cloud)
    model = default_models(delta=horizon.delta, dim=cloud.dim)[family]
    bonds = build_bonds(cloud, horizon)
    rng = np.random.default_rng(seed)
    bonds.mu[:] = random_mu(rng, bonds.n_bonds, damage)
    u = 0.05 * cloud.spacing * rng.standard_normal((cloud.n_points, cloud.dim))
    q = rotation(rng, cloud.dim)
    f = forces(cloud, bonds, model, u, bound)
    # u' = Q(x + u) - x deforms every bond to Q(xi + eta)
    f_rot = forces(cloud, bonds, model, (cloud.positions + u) @ q.T - cloud.positions, bound)
    scale = float(np.max(np.abs(f)))
    assert np.max(np.abs(f_rot - f @ q.T)) <= ROT_TOL * scale


@settings(max_examples=60)
@given(case=fluid_cases(), seed=st.integers(0, 2**32 - 1))
def test_a_velocity_boost_leaves_the_zero_memory_force_unchanged(case, seed):
    cloud, fluid, memory, horizon, model = case
    rng = np.random.default_rng(seed)
    v = rng.integers(-2**20, 2**20 + 1, fluid.velocities.shape) * 2.0**-20
    boost = rng.integers(-8, 9, (1, cloud.dim)) * 0.25
    state = zero_state(cloud)
    state.u[:] = fluid.positions - cloud.positions
    shape = FluidState(positions=cloud.positions + state.u, velocities=v,
                       reference=cloud.positions)
    want = fluid_force(cloud, shape, memory, horizon, model=model)
    assert np.array_equal(fluid_force(cloud, shape, memory, horizon, model=model,
                                      velocities=v + boost), want)
    # one operator, its buffers resized and refilled by a denser shape in between
    op = MemoryForce(cloud, horizon, model, memory, state, 1.0)
    assert np.array_equal(op.force(state, v), want)
    denser = zero_state(cloud)
    denser.u[:] = 0.5 * (fluid.positions + cloud.positions.mean(axis=0)) - cloud.positions
    op.force(denser, v)
    assert np.array_equal(op.force(state, v + boost), want)
