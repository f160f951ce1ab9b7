"""Balance laws of the pair network, under hypothesis.

Each bond pair pushes its two ends with equal and opposite forces along the
deformed bond, so the volume-weighted internal forces of a network sum to
zero (linear momentum), and so do their moments about the origin on the
axes where no bond wraps around a periodic boundary (angular momentum).
Both sums are checked against the scale sum_i |V_i f_i|, over every
default_models family, intact, broken and partially damaged bonds, and the
model evaluated call by call and bound to the network.
"""

import dataclasses
from itertools import combinations

from hypothesis import given, settings, strategies as st
import numpy as np

from peribond import build_bonds
from peribond.dynamics import NetworkForce, internal_force, zero_state
from peribond.kernels import default_models

from test_pair_network import lattices

TOL = 1e-14


def random_mu(rng, n, damage):
    if damage == "intact":
        return np.ones(n)
    if damage == "broken":
        return (rng.random(n) < 0.7).astype(float)
    return rng.uniform(0.0, 1.0, n)


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
        cloud = dataclasses.replace(cloud, periodic=np.zeros(cloud.dim, dtype=bool))
    y, vf = volume_forces(cloud, horizon, family, seed, damage, bound)
    scale = float(np.sum(np.linalg.norm(vf, axis=1)))
    assert np.all(np.abs(vf.sum(axis=0)) <= TOL * scale)
    free = [axis for axis in range(cloud.dim) if not cloud.periodic[axis]]
    for a, b in combinations(free, 2):
        moment = float(np.sum(y[:, a] * vf[:, b] - y[:, b] * vf[:, a]))
        assert abs(moment) <= TOL * scale, (a, b)
