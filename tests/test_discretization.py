"""Grid sampling, neighbor search, and bond-network construction."""

import numpy as np
import pytest

from peribond import HorizonConfig, PointCloud, build_bonds, build_grid
from peribond.discretization import (
    PairBuffers,
    directed_pairs,
    minimum_image,
    neighbor_pairs,
    partial_volume_factor,
)
from peribond.errors import ConfigError


def test_grid_counts_volumes_and_order():
    cloud = build_grid((1.0, 0.5), 0.25, 2.0, periodic=(False, False))
    assert cloud.n_points == 8
    assert cloud.dim == 2
    assert cloud.density == 2.0
    assert np.allclose(cloud.volumes, 0.0625)
    # cell centers, lexicographic with the last axis fastest
    assert np.allclose(cloud.positions[0], [0.125, 0.125])
    assert np.allclose(cloud.positions[1], [0.125, 0.375])
    assert np.allclose(cloud.positions[2], [0.375, 0.125])


def test_grid_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        build_grid((1.0,) * 4, 0.25, 1.0)
    with pytest.raises(ConfigError):
        build_grid((1.0,), -0.1, 1.0)
    with pytest.raises(ConfigError):
        build_grid((1.0,), 0.25, 0.0)
    with pytest.raises(ConfigError, match="axis 0"):
        build_grid((1.0,), 0.3, 1.0)  # 1.0 / 0.3 is not an integer
    with pytest.raises(ConfigError, match="periodic"):
        build_grid((1.0, 1.0), 0.25, 1.0, periodic=(True,))
    with pytest.raises(ConfigError, match=r"box edge lengths must be positive, got \[1.0, 0.0\]"):
        build_grid((1.0, 0.0), 0.25, 1.0)


def test_partial_volume_factor_taper():
    # full weight inside delta - h/2, zero at delta + h/2, linear between
    assert partial_volume_factor(1.4, 1.0, 2.0) == 1.0
    assert partial_volume_factor(2.0, 1.0, 2.0) == 0.5
    assert partial_volume_factor(2.25, 1.0, 2.0) == 0.25
    assert partial_volume_factor(2.5, 1.0, 2.0) == 0.0
    out = partial_volume_factor(np.array([1.0, 2.0, 3.0]), 1.0, 2.0)
    assert np.allclose(out, [1.0, 0.5, 0.0])
    with pytest.raises(ConfigError, match="requires positive distances"):
        partial_volume_factor(0.0, 1.0, 2.0)
    with pytest.raises(ConfigError, match="spacing must be positive, got 0.0"):
        partial_volume_factor(1.0, 0.0, 2.0)
    with pytest.raises(ConfigError, match="delta must be positive, got -2.0"):
        partial_volume_factor(1.0, 1.0, -2.0)


def test_minimum_image_wraps_periodic_axes_only():
    box = np.array([2.0, 2.0])
    diff = np.array([[1.5, 1.5]])
    wrapped = minimum_image(diff, box, np.array([True, False]))
    assert np.allclose(wrapped, [[-0.5, 1.5]])
    # 1D input stays 1D
    assert np.allclose(minimum_image(np.array([1.5, 1.5]), box,
                                     np.array([True, True])), [-0.5, -0.5])


def test_minimum_image_wraps_in_place():
    box = np.array([2.0, 2.0, 4.0])
    diff = np.array([[1.5, 1.5, 3.0], [-1.25, 0.5, -2.5], [0.25, -1.75, 1.0]])
    periodic = np.array([True, False, True])
    want = diff.copy()
    for axis in (0, 2):
        want[:, axis] -= box[axis] * np.round(want[:, axis] / box[axis])
    untouched = diff[:, 1].copy()
    out = minimum_image(diff, box, periodic)
    assert out is diff                       # no copy: the argument is the result
    assert np.array_equal(diff, want)
    assert np.array_equal(diff[:, 1], untouched)
    one = np.array([1.5, -1.5, 3.0])
    assert minimum_image(one, box, periodic) is one
    assert np.array_equal(one, [-0.5, -1.5, -1.0])


def test_neighbor_pairs_basic_counts():
    cloud = build_grid((1.0,), 0.25, 1.0, periodic=(False,))
    pairs, diff, dist = neighbor_pairs(cloud.positions, 0.5, cloud.box,
                                       cloud.periodic)
    # 4 points: 3 adjacent pairs at 0.25 plus 2 pairs at 0.5
    assert len(pairs) == 5
    assert np.all(pairs[:, 0] < pairs[:, 1])
    assert np.all(dist <= 0.5 * (1.0 + 1e-9))
    assert np.allclose(np.linalg.norm(diff, axis=1), dist)


def test_neighbor_pairs_periodic_wrap():
    cloud = build_grid((1.0,), 0.25, 1.0, periodic=(True,))
    pairs, diff, dist = neighbor_pairs(cloud.positions, 0.25, cloud.box,
                                       cloud.periodic)
    # on the ring every point has both neighbors: 4 unordered pairs
    assert len(pairs) == 4
    assert {tuple(p) for p in pairs.tolist()} == {(0, 1), (1, 2), (2, 3), (0, 3)}
    # the wrapped pair (0, 3) has minimum-image separation -0.25, not +0.75
    k = [tuple(p) for p in pairs.tolist()].index((0, 3))
    assert np.isclose(diff[k, 0], -0.25)


def test_neighbor_pairs_rejects_horizon_beyond_half_box():
    cloud = build_grid((1.0,), 0.25, 1.0, periodic=(True,))
    with pytest.raises(ConfigError, match="half the periodic box"):
        neighbor_pairs(cloud.positions, 0.6, cloud.box, cloud.periodic)


def test_marginal_bonds_kept_uniformly():
    # Lattice pairs at exactly r = delta land a few ulps either side of the
    # cutoff depending on which cell centers form them; the shared slack has
    # to keep the stencil identical at every interior point.
    cloud = build_grid((1.0,), 0.025, 1.0, periodic=(True,))
    bonds = build_bonds(cloud, HorizonConfig(0.1))
    assert np.all(bonds.degrees() == bonds.degrees()[0])


def test_directed_pairs_double_and_sort():
    cloud = build_grid((1.0,), 0.25, 1.0, periodic=(False,))
    source, neighbors, xi, dist = directed_pairs(cloud.positions, 0.25,
                                                 cloud.box, cloud.periodic)
    assert len(source) == 6  # 3 unordered adjacent pairs, both directions
    assert np.all(np.diff(source) >= 0)
    # each directed bond's reverse is present with negated offset
    fwd = {(int(s), int(n)): x for s, n, x in zip(source, neighbors, xi[:, 0])}
    for (s, n), x in fwd.items():
        assert fwd[(n, s)] == -x


def test_directed_pairs_fill_the_buffers_they_are_given():
    # the buffers hold exactly the search's columns; a smaller second search
    # refills them and gives the same arrays as a search into fresh buffers
    cloud = build_grid((1.0, 1.0), 0.125, 1.0, periodic=(True, False))
    buffers = PairBuffers(3, cloud.dim + 2)
    first = directed_pairs(cloud.positions, 0.25, cloud.box, cloud.periodic,
                           buffers=buffers)[0].size
    got = directed_pairs(cloud.positions[:40], 0.25, cloud.box, cloud.periodic,
                         buffers=buffers)
    fresh = directed_pairs(cloud.positions[:40], 0.25, cloud.box, cloud.periodic)
    assert 0 < got[0].size < first
    ints, floats = buffers.reserve(got[0].size)
    assert all(np.shares_memory(a, ints) for a in got[:2])
    assert all(np.shares_memory(a, floats) for a in got[2:])
    for a, b in zip(got, fresh):
        assert np.array_equal(a, b)


def test_build_bonds_layout_and_weights():
    cloud = build_grid((1.0,), 0.25, 1.0, periodic=(False,))
    bonds = build_bonds(cloud, HorizonConfig(0.3))
    # each of the 3 adjacent pairs once, sorted, lower index first
    assert bonds.source.tolist() == [0, 1, 2]
    assert bonds.neighbors.tolist() == [1, 2, 3]
    assert bonds.degrees().tolist() == [1, 2, 2, 1]
    assert np.all(bonds.mu == 1.0)
    assert np.allclose(bonds.damage(), 0.0)
    # adjacent bonds (r = 0.25) sit past the taper onset delta - h/2 = 0.175,
    # so each carries volume 0.25 times coverage (0.3 + 0.125 - 0.25) / 0.25
    assert np.allclose(bonds.weights, 0.25 * 0.7)
    assert np.allclose(bonds.reverse_weights, 0.25 * 0.7)


def test_build_bonds_no_partial_volume():
    cloud = build_grid((1.0,), 0.25, 1.0, periodic=(False,))
    bonds = build_bonds(cloud, HorizonConfig(0.3, partial_volume="none"))
    assert np.allclose(bonds.weights, 0.25)


def test_empty_network_when_horizon_below_spacing():
    cloud = build_grid((1.0,), 0.25, 1.0, periodic=(False,))
    with pytest.warns(UserWarning) as rec:
        bonds = build_bonds(cloud, HorizonConfig(0.1))
    messages = [str(w.message) for w in rec]
    assert any("below the grid spacing" in m for m in messages)
    assert any("empty horizons" in m for m in messages)
    assert bonds.n_bonds == 0
    assert np.all(bonds.degrees() == 0)


def test_horizon_config_validation():
    with pytest.raises(ConfigError):
        HorizonConfig(0.0)
    with pytest.raises(ConfigError):
        HorizonConfig(0.1, partial_volume="cubic")
