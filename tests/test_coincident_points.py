"""Coincident points are refused by name, at every layer that can meet them.

A pair of coincident reference points has no bond direction: pair_network
raises SingularConfigurationError naming the two points, and build_bonds
turns that into a ConfigError, since the reference grid comes from the
config. Points that meet in the deformed shape stop a kernel that divides by
the deformed length; internal_force and NetworkForce (the operator of run)
then name the bond pairs, not the rows of their pair arrays.
"""

import dataclasses
import re

import numpy as np
import pytest

from peribond import HorizonConfig, build_bonds, build_grid
from peribond.discretization import pair_network
from peribond.dynamics import NetworkForce, internal_force, run, zero_state
from peribond.errors import ConfigError, SingularConfigurationError
from peribond.kernels import default_models


def test_pair_network_refuses_coincident_points():
    cloud = build_grid((1.0, 1.0), 0.25, 1.0, periodic=(False, True))
    positions = cloud.positions.copy()
    positions[6] = positions[5]
    with pytest.raises(SingularConfigurationError, match=r"^points 5 and 6 coincide$"):
        pair_network(cloud, HorizonConfig(0.3), positions)


def test_build_bonds_refuses_coincident_reference_points_as_a_config_error():
    cloud = build_grid((1.0, 1.0), 0.25, 1.0, periodic=(False, True))
    positions = cloud.positions.copy()
    positions[6] = positions[5]
    cloud = dataclasses.replace(cloud, positions=positions)
    with pytest.raises(ConfigError,
                       match=r"^coincident reference points: points 5 and 6 coincide$"):
        build_bonds(cloud, HorizonConfig(0.3))


def test_internal_force_names_the_coincident_bond_pair():
    cloud = build_grid((1.0,), 0.25, 1.0, periodic=(False,))
    bonds = build_bonds(cloud, HorizonConfig(0.3))
    u = np.zeros_like(cloud.positions)
    u[2] = cloud.positions[1] - cloud.positions[2]  # point 2 lands on point 1
    model = default_models(delta=0.3, dim=1)["pmb"]
    with pytest.raises(SingularConfigurationError,
                       match=r"^pmb: coincident deformed points on bond\(s\) \[\(1, 2\)\]$"):
        internal_force(cloud, bonds, model, u)


def test_internal_force_names_at_most_eight_pairs():
    # dyadic positions, so every point lands on x = 0.5 exactly
    cloud = build_grid((1.0,), 1.0 / 16.0, 1.0, periodic=(False,))
    bonds = build_bonds(cloud, HorizonConfig(0.1))
    assert bonds.n_bonds == 15
    u = 0.5 - cloud.positions
    model = default_models(delta=0.1, dim=1)["nano-fiber"]
    first = [(i, i + 1) for i in range(8)]
    expected = f"nano-fiber: coincident deformed points on bond(s) {first}"
    with pytest.raises(SingularConfigurationError, match=f"^{re.escape(expected)}$"):
        internal_force(cloud, bonds, model, u)


def test_network_force_names_the_coincident_bond_pair():
    cloud = build_grid((1.0,), 0.25, 1.0, periodic=(False,))
    bonds = build_bonds(cloud, HorizonConfig(0.3))
    state = zero_state(cloud)
    state.u[2] = cloud.positions[1] - cloud.positions[2]  # point 2 lands on point 1
    model = default_models(delta=0.3, dim=1)["pmb"]
    expected = r"^pmb: coincident deformed points on bond\(s\) \[\(1, 2\)\]$"
    with pytest.raises(SingularConfigurationError, match=expected):
        run(cloud, bonds, model, state, 0.01, 1)
    with pytest.raises(SingularConfigurationError, match=expected):
        NetworkForce(cloud, bonds, model).potential(state)
