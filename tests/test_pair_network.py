"""The pair bond network against directed references, under hypothesis.

The network stores each unordered bond pair once and scatters its force onto
both ends. The oracle below uses directed bonds instead: every pair in both
directions from lexsort_directed_pairs below, each bond weighted by its
neighbor's volume, the kernel called on every directed bond and the results
summed per source point. The network's sparse scatter operator is checked
against the bincount scatter and, whole and row-sliced, against an
independently built CSC operator; a model bound
to the network against the same model evaluated call by call, and the
breaker's row-local force refresh against a fresh force. A point's bonds,
read off its operator row, are checked against two scans of all pairs. The
neighbor search itself is checked against an O(N^2) minimum-image brute force,
and the directed search against the pairs it doubles and the two-key lexsort
it replaced; a search held in its buffers against a fresh one. Where one
weight array serves both ends of every pair, the network's force,
potential, damage and stable step are checked bitwise against per-end forms
that read each end's weights from its own array.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_matrix
from scipy.spatial import cKDTree

from peribond import (
    HorizonConfig,
    PointCloud,
    build_bonds,
    build_grid,
    discretization,
    dynamics,
    kernels,
)
from peribond.discretization import (
    PairBuffers,
    directed_pairs,
    neighbor_pairs,
    partial_volume_factor,
)
from peribond.diagnostics import stretch_compare
from peribond.dynamics import (
    NetworkForce,
    internal_force,
    potential_energy,
    stable_dt,
    zero_state,
)
from peribond.kernels import default_models

REL_TOL = 1e-12
SLACK = 1.0 + 1e-9  # horizon slack documented by neighbor_pairs


def rel_err(got, want):
    scale = float(np.max(np.abs(want)))
    return float(np.max(np.abs(np.asarray(got) - want))) / scale


def directed_reference(cloud, horizon, model, u, mu_of):
    """Force, potential, stable step and damage over directed bonds."""
    n, dim = cloud.n_points, cloud.dim
    source, neighbors, xi, dist = lexsort_directed_pairs(cloud.positions, horizon.delta,
                                                         cloud.box, cloud.periodic)
    weights = cloud.volumes[neighbors].copy()
    if horizon.partial_volume == "linear":
        weights *= partial_volume_factor(dist, cloud.spacing, horizon.delta)
    mu = mu_of(source, neighbors)
    eta = u[neighbors] - u[source]

    f = model.force(xi, eta, mu) * weights[:, None]
    force = np.column_stack([np.bincount(source, weights=f[:, k], minlength=n)
                             for k in range(dim)])
    phi = model.potential(xi, eta, mu)
    potential = 0.5 * float(np.sum(phi * weights * cloud.volumes[source]))
    stiffness = np.bincount(source, weights=weights * model.stiffness0(dist), minlength=n)
    dt = 0.5 * math.sqrt(2.0 * cloud.density / stiffness.max())
    wsum = np.bincount(source, weights=weights, minlength=n)
    damage = 1.0 - np.bincount(source, weights=mu * weights, minlength=n) / wsum
    return source.size, force, potential, dt, damage


def bincount_scatter(bonds, f):
    """Per-point sums of +f w_ij onto sources and -f w_ji onto neighbors,
    one bincount per end and component."""
    out = np.empty((bonds.n_points, f.shape[1]))
    for k in range(f.shape[1]):
        fk = f[:, k]
        out[:, k] = bonds.per_point(fk * bonds.weights, -fk * bonds.reverse_weights)
    return out


@st.composite
def lattices(draw):
    """A small grid, its horizon and randomized volumes (nonuniform too)."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(*{1: (4, 12), 2: (3, 7), 3: (3, 5)}[dim]))
    periodic = tuple(draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
    m = draw(st.floats(1.0, 3.0))
    if any(periodic):
        m = min(m, 0.5 * n)  # minimum image needs delta <= half the box
    h = 1.0 / n
    cloud = build_grid((1.0,) * dim, h, 1.0, periodic=periodic)
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**16))
        scale = np.random.default_rng(seed).uniform(0.5, 1.5, cloud.n_points)
        cloud = dataclasses.replace(cloud, volumes=cloud.volumes * scale)
    horizon = HorizonConfig(m * h, partial_volume=draw(st.sampled_from(["linear", "none"])))
    return cloud, horizon


@settings(max_examples=120)
@given(lattice=lattices(), family=st.sampled_from(sorted(default_models())),
       seed=st.integers(0, 2**16))
def test_pair_network_matches_directed_reference(lattice, family, seed):
    cloud, horizon = lattice
    model = default_models(delta=horizon.delta, dim=cloud.dim)[family]
    bonds = build_bonds(cloud, horizon)
    assert np.all(bonds.source < bonds.neighbors)

    rng = np.random.default_rng(seed)
    u = 0.05 * cloud.spacing * rng.standard_normal(cloud.positions.shape)
    bonds.mu[:] = rng.uniform(0.0, 1.0, bonds.n_bonds)
    bonds.mu[rng.random(bonds.n_bonds) < 0.2] = 0.0
    keys = bonds.source * cloud.n_points + bonds.neighbors

    def mu_of(source, neighbors):
        lo, hi = np.minimum(source, neighbors), np.maximum(source, neighbors)
        return bonds.mu[np.searchsorted(keys, lo * cloud.n_points + hi)]

    n_directed, force, potential, dt, damage = directed_reference(
        cloud, horizon, model, u, mu_of)
    assert 2 * bonds.n_bonds == n_directed
    got = internal_force(cloud, bonds, model, u)
    assert rel_err(got, force) <= REL_TOL
    eta = u[bonds.neighbors] - u[bonds.source]
    scattered = bincount_scatter(bonds, model.force(bonds.xi, eta, bonds.mu))
    assert rel_err(got, scattered) <= REL_TOL
    assert rel_err(potential_energy(cloud, bonds, model, u), potential) <= REL_TOL
    assert rel_err(stable_dt(cloud, bonds, model), dt) <= REL_TOL
    assert np.max(np.abs(bonds.damage() - damage)) <= REL_TOL


@settings(max_examples=120)
@given(lattice=lattices(), family=st.sampled_from(sorted(default_models())),
       support=st.sampled_from([1.0, 0.6]), seed=st.integers(0, 2**16))
def test_network_force_is_bitwise_the_unbound_model(lattice, family, support, seed):
    # support 0.6 puts the outer bonds of most networks outside the kernel's
    # support radius, so the operator has to keep the gate
    cloud, horizon = lattice
    model = default_models(delta=support * horizon.delta, dim=cloud.dim)[family]
    bonds = build_bonds(cloud, horizon)
    op = NetworkForce(cloud, bonds, model)

    rng = np.random.default_rng(seed)
    state = zero_state(cloud)
    state.u[:] = 0.05 * cloud.spacing * rng.standard_normal(state.u.shape)
    eta = state.u[bonds.neighbors] - state.u[bonds.source]
    mu = rng.uniform(0.0, 1.0, bonds.n_bonds)
    mu[rng.random(bonds.n_bonds) < 0.2] = 0.0
    for m in (mu, np.ones(bonds.n_bonds)):
        bonds.mu[:] = m
        assert np.array_equal(op.force(state, state.v),
                              internal_force(cloud, bonds, model, state.u))
        assert np.array_equal(op._pass[1], model.force(bonds.xi, eta, bonds.mu))
        assert op.potential(state) == potential_energy(cloud, bonds, model, state.u)


@pytest.mark.parametrize("breaker", ["critical-stretch", "theta-eps"])
@pytest.mark.parametrize("family", sorted(default_models()))
def test_network_force_forms_the_reference_data_once_and_keeps_the_gate(
        family, breaker, monkeypatch):
    # every family, under either breaker, on a network with bonds outside
    # the family's support: force takes only the deformed lengths, and its
    # force, its potential and its refresh after a break are bitwise the
    # unbound model's
    cloud = build_grid((1.0, 1.0), 0.125, 1.0, periodic=(False, False))
    bonds = build_bonds(cloud, HorizonConfig(3 * 0.125))
    model = default_models(delta=0.2, dim=2)[family]
    assert np.any(bonds.xi_norm > model.delta)
    law = kernels.BondBreaker(breaker, s0=0.02, eps=0.05)
    if any(field.name == "breaker" for field in dataclasses.fields(model)):
        model = dataclasses.replace(model, breaker=law)
    else:  # the breaker's marks, set as if by earlier steps
        rng = np.random.default_rng(4)
        marked = rng.random(bonds.n_bonds) < 0.2
        bonds.mu[marked] = (0.0 if breaker == "critical-stretch"
                            else rng.uniform(0.0, 1.0, np.count_nonzero(marked)))
    op = NetworkForce(cloud, bonds, model)
    state = zero_state(cloud)
    state.u[:] = 0.01 * np.random.default_rng(3).standard_normal(state.u.shape)

    calls, lengths = [], kernels.lengths

    def counted(z):
        calls.append(z.shape)
        return lengths(z)

    # the pass forms q in kernels; dynamics forms no lengths of its own here
    monkeypatch.setattr(kernels, "lengths", counted)
    monkeypatch.setattr(dynamics, "lengths", counted)
    force = op.force(state, state.v)
    assert calls == [bonds.xi.shape]  # the deformed lengths only
    f = op._pass[1]
    assert np.array_equal(force, internal_force(cloud, bonds, model, state.u))
    outside = bonds.xi_norm > model.delta * kernels.SUPPORT_SLACK
    assert np.all(f[outside] == 0.0) and np.any(f[~outside] != 0.0)
    assert op.potential(state) == potential_energy(cloud, bonds, model, state.u)
    mu = bonds.mu.copy()
    force = op.settle(state, 1.0, force)
    assert not model.breaker.active or np.any(bonds.mu != mu)
    assert np.array_equal(force, internal_force(cloud, bonds, model, state.u))
    assert op.potential(state) == potential_energy(cloud, bonds, model, state.u)


def csc_scatter(bonds):
    """The column-per-pair CSC operator, built apart from the network: column
    k holds w_ij at row source[k] and -w_ji at row neighbors[k]."""
    m = bonds.n_bonds
    rows = np.empty(2 * m, dtype=np.int32)
    rows[0::2], rows[1::2] = bonds.source, bonds.neighbors
    data = np.empty(2 * m)
    data[0::2], data[1::2] = bonds.weights, -bonds.reverse_weights
    indptr = np.arange(0, 2 * m + 1, 2, dtype=np.int32)
    return csc_matrix((data, rows, indptr), shape=(bonds.n_points, m))


@settings(max_examples=60)
@given(lattice=lattices(), seed=st.integers(0, 2**16))
def test_csr_scatter_is_bitwise_the_csc_product(lattice, seed):
    # a fresh network's operator is already CSR; its row slices and its full
    # products are bitwise the CSC products
    cloud, horizon = lattice
    bonds = build_bonds(cloud, horizon)
    assert bonds.scatter.format == "csr"
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((bonds.n_bonds, cloud.dim))
    oracle = csc_scatter(bonds)
    points = np.flatnonzero(rng.random(bonds.n_points) < 0.3)
    assert np.array_equal(bonds.scatter[points] @ f, (oracle @ f)[points])
    assert np.array_equal(bonds.scatter @ f, oracle @ f)
    assert np.array_equal(bonds.scatter @ f[:, 0], oracle @ f[:, 0])


def test_the_network_operator_cannot_be_replaced():
    cloud = build_grid((1.0, 1.0), 0.25, 1.0, periodic=(False, False))
    bonds = build_bonds(cloud, HorizonConfig(0.5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        bonds.scatter = bonds.scatter.tocsc()
    assert bonds.scatter.format == "csr"
    bonds.mu[0] = 0.5  # the damage state stays writable
    assert bonds.mu[0] == 0.5


@pytest.mark.parametrize("uniform", [True, False])
def test_neither_end_can_write_the_weights(uniform):
    # shared or not, no caller changes one end's weights through either name
    cloud = (build_grid((1.0, 1.0), 0.25, 1.0, periodic=(False, False)) if uniform
             else unequal_volume_cloud())
    bonds = build_bonds(cloud, HorizonConfig(0.5))
    assert (bonds.reverse_weights is bonds.weights) == uniform
    weights = bonds.weights.copy()
    for array in (bonds.weights, bonds.reverse_weights):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            array *= 2.0
    assert np.array_equal(bonds.weights, weights)


def unequal_volume_cloud(n=6):
    """A hand-built free n x n cloud whose volumes differ point by point."""
    h = 1.0 / n
    positions = (np.indices((n, n)).reshape(2, -1).T + 0.5) * h
    volumes = h * h * np.random.default_rng(n).uniform(0.5, 1.5, n * n)
    return PointCloud(positions=positions, volumes=volumes, density=1.0, spacing=h,
                      box=np.ones(2), periodic=np.zeros(2, dtype=bool))


def per_end_reference(cloud, bonds, model, u):
    """Force, potential, damage and stable step with each end's weights read
    from its own array, as two products where one shared array forms one:
    the forms of the network before its two weight arrays could be one."""
    w, rw = bonds.weights.copy(), bonds.reverse_weights.copy()
    eta = np.take(u, bonds.neighbors, axis=0) - np.take(u, bonds.source, axis=0)
    force = csc_scatter(bonds) @ model.force(bonds.xi, eta, bonds.mu)
    phi = model.potential(bonds.xi, eta, bonds.mu)
    potential = float(np.sum(phi * w * cloud.volumes[bonds.source]))
    wsum = bonds.per_point(w, rw)
    intact = bonds.per_point(bonds.mu * w, bonds.mu * rw)
    with np.errstate(invalid="ignore", divide="ignore"):
        damage = np.where(wsum > 0.0, 1.0 - intact / wsum, 0.0)
    c = np.abs(model.stiffness0(bonds.xi_norm))
    dt = 0.5 * math.sqrt(2.0 * cloud.density / np.max(bonds.per_point(w * c, rw * c)))
    return force, potential, damage, dt


def assert_bitwise_the_per_end_forms(cloud, bonds, model, seed):
    rng = np.random.default_rng(seed)
    state = zero_state(cloud)
    state.u[:] = 0.05 * cloud.spacing * rng.standard_normal(state.u.shape)
    bonds.mu[:] = rng.uniform(0.0, 1.0, bonds.n_bonds)
    bonds.mu[rng.random(bonds.n_bonds) < 0.2] = 0.0
    op = NetworkForce(cloud, bonds, model)
    force, potential, damage, dt = per_end_reference(cloud, bonds, model, state.u)
    assert np.array_equal(op.force(state, state.v), force)
    assert op.potential(state) == potential
    assert np.array_equal(op.damage(), damage)
    assert stable_dt(cloud, bonds, model) == dt


@settings(max_examples=80)
@given(lattice=lattices(), family=st.sampled_from(sorted(default_models())),
       seed=st.integers(0, 2**16))
def test_one_weight_array_serves_both_ends_exactly_when_they_are_equal(lattice, family,
                                                                      seed):
    cloud, horizon = lattice
    bonds = build_bonds(cloud, horizon)
    taper = (partial_volume_factor(bonds.xi_norm, cloud.spacing, horizon.delta)
             if horizon.partial_volume == "linear" else 1.0)
    at_source = cloud.volumes[bonds.neighbors] * taper
    at_neighbor = cloud.volumes[bonds.source] * taper
    assert np.array_equal(bonds.weights, at_source)
    assert np.array_equal(bonds.reverse_weights, at_neighbor)
    assert (bonds.reverse_weights is bonds.weights) == np.array_equal(at_source, at_neighbor)
    uniform = np.all(cloud.volumes == cloud.volumes[0])
    assert not uniform or bonds.reverse_weights is bonds.weights  # any build_grid cloud
    model = default_models(delta=horizon.delta, dim=cloud.dim)[family]
    assert_bitwise_the_per_end_forms(cloud, bonds, model, seed)


@pytest.mark.parametrize("family", sorted(default_models()))
def test_unequal_volumes_keep_one_weight_array_per_end(family):
    cloud = unequal_volume_cloud()
    horizon = HorizonConfig(2.5 * cloud.spacing)
    bonds = build_bonds(cloud, horizon)
    taper = partial_volume_factor(bonds.xi_norm, cloud.spacing, horizon.delta)
    assert bonds.reverse_weights is not bonds.weights
    assert np.array_equal(bonds.weights, cloud.volumes[bonds.neighbors] * taper)
    assert np.array_equal(bonds.reverse_weights, cloud.volumes[bonds.source] * taper)
    assert not np.array_equal(bonds.weights, bonds.reverse_weights)
    model = default_models(delta=horizon.delta, dim=cloud.dim)[family]
    assert_bitwise_the_per_end_forms(cloud, bonds, model, 5)


def two_scan_bonds_of(bonds, point):
    """BondNetwork.bonds_of by two scans of all pairs: the pairs where point
    is the neighbor, then those where it is the source."""
    below = np.flatnonzero(bonds.neighbors == point)
    above = np.flatnonzero(bonds.source == point)
    return (
        np.concatenate([below, above]),
        np.concatenate([bonds.source[below], bonds.neighbors[above]]),
        np.concatenate([-bonds.xi[below], bonds.xi[above]]),
        np.concatenate([bonds.reverse_weights[below], bonds.weights[above]]),
    )


@pytest.mark.parametrize("n, periodic, m, partial_volume, uniform", [
    (12, (True,), 3.0, "linear", True),
    (12, (False,), 2.5, "none", False),
    (7, (True, False), 2.2, "linear", False),
    (7, (False, False), 3.0, "none", True),
    (5, (True, True, True), 2.0, "none", True),
    (5, (False, True, False), 1.8, "linear", False),
])
def test_bonds_of_reads_the_operator_row_as_two_scans_do(n, periodic, m, partial_volume,
                                                         uniform):
    h = 1.0 / n
    cloud = build_grid((1.0,) * len(periodic), h, 1.0, periodic=periodic)
    if not uniform:
        scale = np.random.default_rng(n).uniform(0.5, 1.5, cloud.n_points)
        cloud = dataclasses.replace(cloud, volumes=cloud.volumes * scale)
    bonds = build_bonds(cloud, HorizonConfig(m * h, partial_volume=partial_volume))
    for point in range(cloud.n_points):
        got, want = bonds.bonds_of(point), two_scan_bonds_of(bonds, point)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    # a point outside the cloud is refused, not read as a row counted from the end
    n = cloud.n_points
    for point in (-1, -2, n):
        with pytest.raises(IndexError, match=rf"^point {point} is not one of the {n} points"):
            bonds.bonds_of(point)
    with pytest.raises(IndexError, match=r"^point -2 "):
        stretch_compare(cloud, bonds, zero_state(cloud), -2)


MU_CHANGES = ("none", "one", "random zeros", "theta-eps fractions", "all")


@settings(max_examples=150)
@given(lattice=lattices(), family=st.sampled_from(sorted(default_models())),
       change=st.sampled_from(MU_CHANGES), seed=st.integers(0, 2**16))
def test_row_local_refresh_is_bitwise_a_fresh_force(lattice, family, change, seed):
    # the breaker's refresh: re-evaluate the pairs whose mu changed and
    # re-sum the rows of their end points, from the step's own pair forces
    cloud, horizon = lattice
    model = default_models(delta=horizon.delta, dim=cloud.dim)[family]
    bonds = build_bonds(cloud, horizon)
    m = bonds.n_bonds
    rng = np.random.default_rng(seed)
    state = zero_state(cloud)
    state.u[:] = 0.05 * cloud.spacing * rng.standard_normal(state.u.shape)
    bonds.mu[rng.random(m) < 0.1] = 0.0  # bonds broken in earlier steps
    op = NetworkForce(cloud, bonds, model)
    force = op.force(state, state.v)
    _, f = op._pass

    rows = {
        "none": np.arange(0),
        "one": rng.integers(m, size=1),
        "random zeros": np.flatnonzero(rng.random(m) < 0.2),
        "theta-eps fractions": np.flatnonzero(rng.random(m) < 0.3),
        "all": np.arange(m),
    }[change]
    if change in ("theta-eps fractions", "all"):
        bonds.mu[rows] *= rng.uniform(0.0, 1.0, rows.size)
    else:
        bonds.mu[rows] = 0.0
    got = op._refresh(state, force, f, rows)
    assert got is force
    assert np.array_equal(got, internal_force(cloud, bonds, model, state.u))


def brute_force_pairs(positions, delta, box, periodic):
    """Every pair i < j within delta * SLACK, from all N^2 minimum images."""
    n = positions.shape[0]
    i, j = np.triu_indices(n, k=1)
    diff = positions[j] - positions[i]
    for axis in np.flatnonzero(periodic):
        diff[:, axis] -= box[axis] * np.round(diff[:, axis] / box[axis])
    dist = np.sqrt(np.sum(diff * diff, axis=1))
    keep = dist <= delta * SLACK
    return np.column_stack([i[keep], j[keep]]), diff[keep], dist[keep]


# Probe separations as multiples of delta: exactly on it, a few ulps either
# side, inside the documented slack, and past it.
ULP_STEPS = (-3, -1, 0, 1, 3)
INSIDE_SLACK, PAST_SLACK = 1.0 + 0.5e-9, 1.0 + 2e-9


def ulps_off(x, k):
    """x moved k representable doubles up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return x


@settings(max_examples=150)
@given(dim=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2**16),
       n=st.integers(2, 40))
def test_neighbor_pairs_match_brute_force(dim, data, seed, n):
    periodic = np.array(data.draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
    rng = np.random.default_rng(seed)
    box = rng.uniform(1.0, 2.0, dim)
    delta = float(rng.uniform(0.1, 0.45) * box.min())
    positions = rng.uniform(0.0, 1.0, (n, dim)) * box

    # probes: a point at each listed separation from a random base point,
    # along an axis, wrapped back into the box on periodic axes
    separations = [ulps_off(delta, k) for k in ULP_STEPS]
    separations += [delta * INSIDE_SLACK, delta * PAST_SLACK]
    probes, bases = [], []
    for length in separations:
        base = int(rng.integers(n))
        axis = rng.integers(dim)
        p = positions[base].copy()
        p[axis] += length if p[axis] < 0.5 * box[axis] else -length
        p[periodic] = np.mod(p[periodic], box[periodic])
        probes.append(p)
        bases.append(base)
    points = np.vstack([positions, probes])
    # points off the box by whole periods must not matter on periodic axes
    points = points + rng.integers(-1, 2, points.shape) * periodic * box
    # periodic coordinates at -0.0, at L itself, and a hair outside [0, L)
    # either side: a hair below 0 wraps to L, which the tree must not see
    edges = rng.uniform(0.0, 1.0, (5, dim)) * box
    for row, edge in zip(edges, (-0.0, 1.0, -1e-17, 1.0 + 1e-15, -1e-3)):
        row[periodic] = edge * box[periodic]
    points = np.vstack([points, edges])

    got_pairs, got_diff, got_dist = neighbor_pairs(points, delta, box, periodic)
    want_pairs, want_diff, want_dist = brute_force_pairs(points, delta, box, periodic)
    assert np.array_equal(got_pairs, want_pairs)
    assert np.array_equal(got_diff, want_diff)
    np.testing.assert_allclose(got_dist, want_dist, rtol=1e-15)

    # probes on the horizon, a few ulps off it, or inside the slack are
    # bonded to their base point; the probe past the slack is not
    found = {tuple(p) for p in got_pairs.tolist()}
    bonded = [(base, n + k) in found for k, base in enumerate(bases)]
    assert bonded == [length != delta * PAST_SLACK for length in separations]


def test_exact_refilter_drops_what_the_tree_lets_through():
    # found by random search: the k-d tree measures the wrapped coordinates,
    # and accepts point 1, which lies off the box by whole periods, although
    # its exact minimum-image distance from point 0 is past delta * SLACK
    box, periodic = np.array([1.19259497537902]), np.array([True])
    delta = 0.34828779985213265
    points = np.array([[0.34499139879587426], [-1.691910751761745], [0.35]])
    tree = cKDTree(np.mod(points, box), boxsize=box)
    assert (0, 1) in tree.query_pairs(delta * SLACK + 1e-300)
    got_pairs, got_diff, _ = neighbor_pairs(points, delta, box, periodic)
    want_pairs, want_diff, _ = brute_force_pairs(points, delta, box, periodic)
    assert got_pairs.tolist() == want_pairs.tolist() == [[0, 2], [1, 2]]
    assert np.array_equal(got_diff, want_diff)


def argsort_neighbor_pairs(positions, delta, box, periodic):
    """neighbor_pairs as first written: a balanced k-d tree, its pairs put in
    (i, j) order by an argsort of the key i*N + j and a take of the pairs."""
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    periodic = np.asarray(periodic, dtype=bool)
    boxsize = np.where(periodic, box, 0.0)
    wrapped = np.mod(positions, boxsize, out=positions.copy(), where=periodic)
    wrapped[wrapped == boxsize] = 0.0
    tree = cKDTree(wrapped, boxsize=boxsize if boxsize.any() else None)
    raw = tree.query_pairs(delta * SLACK + 1e-300, output_type="ndarray")
    raw = raw.astype(np.int64, copy=False)
    pairs = np.take(raw, np.argsort(raw[:, 0] * n + raw[:, 1]), axis=0)
    diff = np.take(positions, pairs[:, 1], axis=0) - np.take(positions, pairs[:, 0], axis=0)
    for axis in np.flatnonzero(periodic):
        diff[:, axis] -= box[axis] * np.round(diff[:, axis] / box[axis])
    dist = kernels.lengths(diff)
    keep = dist <= delta * SLACK
    return pairs[keep], diff[keep], dist[keep]


@settings(max_examples=200)
@example(dim=1, periodic=[False, False, False], counts=[1, 1, 1], reach=1.0, jitter=0.0,
         coincide=0, shift=False, seed=0)
@example(dim=2, periodic=[True, False, False], counts=[6, 3, 1], reach=0.4, jitter=0.0,
         coincide=0, shift=False, seed=0)
@given(dim=st.integers(1, 3), periodic=st.lists(st.booleans(), min_size=3, max_size=3),
       counts=st.lists(st.integers(1, 9), min_size=3, max_size=3),
       reach=st.sampled_from([0.4, 1.0, 1.5, 2.2]), jitter=st.sampled_from([0.0, 0.3]),
       coincide=st.integers(0, 4), shift=st.booleans(), seed=st.integers(0, 2**16))
def test_neighbor_pairs_match_the_argsort_search_bitwise(dim, periodic, counts, reach,
                                                         jitter, coincide, shift, seed):
    # a lattice of spacing h, jittered or exact (pairs on delta), in shuffled
    # order, with some points moved onto others and, on periodic axes, off
    # the box by whole periods; reach 0.4 on an exact lattice finds nothing
    # but the coincident pairs
    h = 0.1
    periodic = np.array(periodic[:dim])
    delta = reach * h
    # a periodic axis spans more than two horizons (minimum image)
    counts = [max(c, 2 * math.ceil(reach) + 1) if p else c
              for c, p in zip(counts[:dim], periodic)]
    cloud = build_grid(tuple(h * c for c in counts), h, 1.0, periodic=periodic)
    rng = np.random.default_rng(seed)
    points = cloud.positions + jitter * h * rng.uniform(-1.0, 1.0, cloud.positions.shape)
    points = points[rng.permutation(len(points))]
    if coincide and len(points) > 1:
        points[rng.integers(len(points), size=coincide)] = points[rng.integers(len(points))]
    if shift:
        points = points + rng.integers(-1, 2, points.shape) * periodic * cloud.box
    got = neighbor_pairs(points, delta, cloud.box, periodic)
    want = argsort_neighbor_pairs(points, delta, cloud.box, periodic)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)
    if reach == 0.4 and jitter == 0.0 and not coincide:
        assert got[0].shape == (0, 2)


def lexsort_directed_pairs(positions, delta, box, periodic):
    """Both directions of every pair from neighbor_pairs, ordered by a
    two-key lexsort on (source, neighbor): the directed search as first
    written, kept as the reference for each point's order of terms."""
    pairs, diff, dist = neighbor_pairs(positions, delta, box, periodic)
    source = np.concatenate([pairs[:, 0], pairs[:, 1]])
    neighbors = np.concatenate([pairs[:, 1], pairs[:, 0]])
    xi = np.concatenate([diff, -diff], axis=0)
    dist = np.concatenate([dist, dist])
    order = np.lexsort((neighbors, source))
    return source[order], neighbors[order], xi[order], dist[order]


@settings(max_examples=150)
@example(dim=2, periodic=[True, False, False], n=0, reach=0.3, grid=False,
         off_box=False, seed=0)
@example(dim=3, periodic=[False, True, True], n=6, reach=1e-6, grid=False,
         off_box=True, seed=1)
@given(dim=st.integers(1, 3), periodic=st.lists(st.booleans(), min_size=3, max_size=3),
       n=st.integers(0, 60), reach=st.sampled_from([1e-6, 0.1, 0.25, 0.45]),
       grid=st.booleans(), off_box=st.booleans(), seed=st.integers(0, 2**16))
def test_directed_pairs_match_the_lexsort_reference(dim, periodic, n, reach, grid,
                                                    off_box, seed):
    # grid rounds points onto a coarse lattice: coincident points and pairs
    # exactly on delta; off_box moves points by whole periods on periodic axes
    periodic = np.array(periodic[:dim])
    rng = np.random.default_rng(seed)
    box = rng.uniform(1.0, 2.0, dim)
    delta = reach * float(box.min())
    points = rng.uniform(0.0, 1.0, (n, dim)) * box
    if grid:
        points = np.round(points * 8.0) / 8.0
    if off_box:
        points = points + rng.integers(-2, 3, points.shape) * periodic * box

    source, neighbors, xi, dist = directed_pairs(points, delta, box, periodic)
    # the search's pairs, first reversed, then as found; the geometry is
    # the search's own, one row per pair as found
    pairs, diff, found = neighbor_pairs(points, delta, box, periodic)
    p = len(pairs)
    for half, (i, j) in ((slice(0, p), (1, 0)), (slice(p, None), (0, 1))):
        assert np.array_equal(source[half], pairs[:, i])
        assert np.array_equal(neighbors[half], pairs[:, j])
    for g, w in ((xi, diff), (dist, found)):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)
    # ordered by source alone, each point's terms are the lexsort's
    order = np.argsort(source, kind="stable")
    got = (source, neighbors, np.concatenate([-xi, xi]), np.concatenate([dist, dist]))
    want = lexsort_directed_pairs(points, delta, box, periodic)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g[order], w)
    assert source.dtype == np.int64 and xi.shape == (source.size // 2, dim)
    if reach == 1e-6 and not grid:
        assert source.size == 0  # the empty search keeps its shapes and dtypes


@pytest.fixture
def searches(monkeypatch):
    """The argument tuples of every neighbor_pairs call made through
    directed_pairs, which looks it up in discretization."""
    calls = []

    def counted(*args):
        calls.append(args)
        return neighbor_pairs(*args)
    monkeypatch.setattr(discretization, "neighbor_pairs", counted)
    return calls


def held_case():
    """Scattered points, point 0 at the origin, in a box periodic on axis 0."""
    rng = np.random.default_rng(7)
    box, periodic = np.array([1.0, 1.5]), np.array([True, False])
    points = rng.uniform(0.0, 1.0, (40, 2)) * box
    points[0] = 0.0
    return points, 0.3, box, periodic


def assert_a_fresh_search(got, points, delta, box, periodic):
    want = directed_pairs(points, delta, box, periodic)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_a_second_call_at_one_shape_returns_the_held_search(searches):
    points, delta, box, periodic = held_case()
    buffers = PairBuffers(2, 0)
    first = directed_pairs(points, delta, box, periodic, buffers=buffers)
    # equal bits in new arrays: the key is the values, not the objects
    again = directed_pairs(points.copy(), delta, box.copy(), periodic.copy(),
                           buffers=buffers)
    assert len(searches) == 1
    assert again[2] is first[2] and again[3] is first[3]
    assert_a_fresh_search(again, points, delta, box, periodic)


def one_ulp_up(points, delta, box, periodic):
    points = points.copy()
    points[5, 1] = np.nextafter(points[5, 1], np.inf)
    return points, delta, box, periodic


def negative_zero(points, delta, box, periodic):
    # np.array_equal calls the two shapes equal; their bits differ
    points = points.copy()
    points[0, 0] = -0.0
    assert np.array_equal(points, held_case()[0])
    return points, delta, box, periodic


def other_delta(points, delta, box, periodic):
    return points, 0.25, box, periodic


def other_box(points, delta, box, periodic):
    return points, delta, box * np.array([1.25, 1.0]), periodic


def other_periodic(points, delta, box, periodic):
    return points, delta, box, np.array([True, True])


@pytest.mark.parametrize("change", [one_ulp_up, negative_zero, other_delta, other_box,
                                    other_periodic])
def test_any_other_bit_of_the_key_searches_afresh(searches, change):
    buffers = PairBuffers(2, 0)
    directed_pairs(*held_case(), buffers=buffers)
    args = change(*held_case())
    got = directed_pairs(*args, buffers=buffers)
    assert len(searches) == 2 and searches[1][1:] == args[1:]
    assert buffers.search[1] is got[2]
    assert_a_fresh_search(got, *args)


def test_a_reserve_that_reallocates_drops_the_held_search(searches):
    # the held index columns are those of the memory the reserve lets go
    buffers = PairBuffers(2, 0)
    first = directed_pairs(*held_case(), buffers=buffers)
    ints, _ = buffers.reserve(4 * first[0].size)
    assert buffers.search is None and not np.shares_memory(ints, first[0])
    ints[:] = -1  # the next user of the buffers writes them
    got = directed_pairs(*held_case(), buffers=buffers)
    assert len(searches) == 2
    assert np.shares_memory(got[0], ints) and np.shares_memory(got[1], ints)
    assert_a_fresh_search(got, *held_case())
