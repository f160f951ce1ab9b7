"""Column-by-column pair arithmetic against the broadcast expressions it replaced.

fluid_force, KernelModel.force and NetworkForce handle per-pair vectors one
contiguous column per axis. The broadcast forms they replaced are kept here
as slow oracles: fluid_force built (M, dim) arrays, scaled them by per-pair
scalars through [:, None], reduced the dot product with np.sum(axis=1) and
summed per point through _accumulate, over the directed pairs sorted by
(source, neighbor); KernelModel.force scaled z by coef[:, None], and so did
the network's force, through the model. The bond oracle is written out from
the family's own scalars (_radial, _coef) and in_support, not through the
pair pass of kernels under test. Both sides form every value by the
same operations in the same order, so the results must be bitwise equal.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from peribond import outputs
from peribond.discretization import (
    PARTIAL_VOLUME_MODES,
    HorizonConfig,
    build_grid,
    directed_pairs,
    partial_volume_factor,
)
from peribond.dynamics import NetworkForce, zero_state
from peribond.errors import SingularConfigurationError
from peribond.fluidpd import FLUID_KERNELS, FluidState, MemoryConfig, MemoryForce, fluid_force
from peribond.kernels import default_models, in_support, lengths
from test_pair_network import lexsort_directed_pairs


def _accumulate(source, values, n_points):
    return np.column_stack([np.bincount(source, weights=values[:, k], minlength=n_points)
                            for k in range(values.shape[1])])


def broadcast_fluid_force(cloud, state, memory, horizon, model=None):
    v = state.velocities
    source, neighbors, xi, dist = lexsort_directed_pairs(state.positions, horizon.delta,
                                                         cloud.box, cloud.periodic)
    weights = np.take(cloud.volumes, neighbors)
    if horizon.partial_volume == "linear" and dist.size:
        weights *= partial_volume_factor(dist, cloud.spacing, horizon.delta)
    dv = np.take(v, neighbors, axis=0) - np.take(v, source, axis=0)
    if memory.fluid_kernel == "linear":
        n = xi / dist[:, None]
        f = memory.coefficient * np.sum(dv * n, axis=1)[:, None] * n
    else:
        f = model.force(xi, memory.coefficient * dv)
    return _accumulate(source, f * weights[:, None], cloud.n_points)


def broadcast_force(model, xi, eta, mu=None):
    single = np.ndim(xi) == 1
    xi, eta = np.atleast_2d(xi), np.atleast_2d(eta)
    z, r = xi + eta, lengths(xi)
    coef = model._coef(lengths(z), r, model._radial(r), 1.0 if mu is None else mu)
    z *= np.where(in_support(r, model.delta), coef, 0.0)[:, None]
    return z[0] if single else z


@st.composite
def fluid_cases(draw):
    """A jittered 1-3D grid with mixed periodic axes, random velocities, a
    horizon of 1-3 spacings, either partial-volume mode and either fluid
    kernel (with any default family)."""
    dim = draw(st.integers(1, 3))
    m = draw(st.sampled_from((1.0, 1.5, 2.2, 3.0)[:(4, 4, 2)[dim - 1]]))
    periodic = tuple(draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
    # a periodic axis spans more than two horizons (minimum image)
    counts = [draw(st.integers(2 * int(m) + 2 if p else 2, (12, 8, 5)[dim - 1]))
              for p in periodic]
    h = 0.1
    cloud = build_grid(tuple(h * n for n in counts), h, 1.0, periodic=periodic)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = cloud.positions + 0.3 * h * rng.uniform(-1.0, 1.0, cloud.positions.shape)
    velocities = rng.standard_normal(positions.shape) * 10.0 ** rng.uniform(-3, 1)
    state = FluidState(positions=positions, velocities=velocities)
    delta = m * h
    horizon = HorizonConfig(delta, draw(st.sampled_from(PARTIAL_VOLUME_MODES)))
    memory = MemoryConfig(mode="zero", coefficient=draw(st.floats(0.01, 100.0)),
                          fluid_kernel=draw(st.sampled_from(FLUID_KERNELS)))
    models = default_models(delta, dim)
    model = models[draw(st.sampled_from(sorted(models)))]
    return cloud, state, memory, horizon, model


@settings(max_examples=150)
@given(case=fluid_cases())
def test_fluid_force_matches_the_broadcast_oracle(case):
    cloud, state, memory, horizon, model = case
    want = broadcast_fluid_force(cloud, state, memory, horizon, model)
    got = fluid_force(cloud, state, memory, horizon, model=model)
    assert got.shape == (cloud.n_points, cloud.positions.shape[1])
    assert np.array_equal(got, want)


@st.composite
def bond_cases(draw):
    """Random bonds of a default family, some outside its support, with an
    optional per-bond mu, for the model itself or for a bond network's force
    operator."""
    dim = draw(st.integers(1, 3))
    family = draw(st.sampled_from(sorted(default_models())))
    delta = draw(st.sampled_from((0.5, 1.0, 2.0)))
    model = default_models(delta, dim)[family]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 40))
    direction = rng.standard_normal((m, dim))
    direction /= lengths(direction)[:, None]
    reach = draw(st.sampled_from((1.0, 1.3)))   # 1.3: some bonds beyond the support
    xi = direction * (delta * rng.uniform(0.05, reach, m))[:, None]
    eta = 0.3 * delta * rng.uniform(-1.0, 1.0, (m, dim))
    mu = draw(st.sampled_from((None, "ones", "random")))
    mu = {None: None, "ones": np.ones(m), "random": rng.uniform(0.0, 1.0, m)}[mu]
    return model, xi, eta, mu, draw(st.booleans())


def pair_operator(model, xi, eta, mu):
    """A NetworkForce over the pairs (k, m + k) of 2m points, and a state whose
    relative displacements are eta: the source points stay at rest, so
    u[neighbor] - u[source] is eta exactly. mu None is an intact network."""
    m, dim = xi.shape
    bonds = SimpleNamespace(source=np.arange(m), neighbors=np.arange(m, 2 * m), xi=xi,
                            xi_norm=lengths(xi), mu=np.ones(m) if mu is None else mu)
    state = SimpleNamespace(u=np.concatenate([np.zeros_like(eta), eta]))
    return NetworkForce(SimpleNamespace(dim=dim), bonds, model), state


@settings(max_examples=300)
@given(case=bond_cases())
def test_kernel_force_matches_the_broadcast_oracle(case):
    model, xi, eta, mu, network = case
    want = broadcast_force(model, xi, eta, mu)
    if network:
        op, state = pair_operator(model, xi, eta, mu)
        _, got = op._forces(state.u)
    else:
        got = model.force(xi, eta, mu)
    assert np.array_equal(got, want)
    # one bond as a 1-D vector
    assert np.array_equal(model.force(xi[0], eta[0]), broadcast_force(model, xi[0], eta[0]))


def test_a_network_force_hands_over_the_scaled_pairs():
    model = default_models(1.0, 2)["pmb"]
    xi = np.array([[0.5, 0.0], [0.0, 0.25], [0.3, 0.4]])
    eta = np.array([[0.01, 0.0], [0.0, -0.02], [0.03, 0.0]])
    op, state = pair_operator(model, xi, eta, None)
    op.bonds.scatter = np.ones((6, 3))   # any operator: it only sums the pair forces
    force = op.force(state, None)
    q, f = op._pass
    assert np.array_equal(q, lengths(xi + eta))
    assert np.array_equal(f, broadcast_force(model, xi, eta))
    assert np.array_equal(force, op.bonds.scatter @ f)


def test_the_singular_length_verdict_is_the_compare_and_any_verdict():
    for values in ([1.0, 2.0], [1.0, 0.0], [1.0, -0.0], [np.nan, 1.0],
                   [np.nan, 0.0], [np.inf], [5e-324], []):
        a = np.array(values, dtype=float)
        assert (not a.all()) == bool(np.any(a == 0.0))


@pytest.mark.parametrize("family", ["pmb", "rod", "anti-plane-shear", "nano-membrane",
                                    "nano-fiber"])
def test_a_zero_deformed_length_names_its_rows(family):
    model = default_models(2.0, 2)[family]
    xi = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1.0, 1.0]])
    eta = 0.1 * xi
    eta[[1, 3]] = -xi[[1, 3]]
    with pytest.raises(SingularConfigurationError, match=r"bond row\(s\) \[1, 3\]\)$"):
        model.force(xi, eta)


def test_a_coincident_pair_names_its_particles():
    cloud = build_grid((1.0, 1.0), 0.25, 1.0, periodic=(True, False))
    positions = cloud.positions.copy()
    positions[5] = positions[6]
    state = FluidState(positions=positions, velocities=np.zeros_like(positions))
    with pytest.raises(SingularConfigurationError,
                       match=r"^particles 5 and 6 coincide in the deformed configuration$"):
        fluid_force(cloud, state, MemoryConfig(mode="zero"), HorizonConfig(0.3))


@pytest.mark.parametrize("fluid_kernel", FLUID_KERNELS)
def test_one_zero_memory_operator_matches_fresh_calls_as_the_pair_count_moves(fluid_kernel):
    # the operator reuses one workspace: it grows, shrinks in use, empties and
    # grows again; every force is a fresh array equal to a fresh call's
    cloud = build_grid((0.8, 0.8), 0.1, 1.0, periodic=(False, False))
    horizon = HorizonConfig(0.25)
    memory = MemoryConfig(mode="zero", coefficient=3.0, fluid_kernel=fluid_kernel)
    model = default_models(horizon.delta, 2)["pmb"]
    rng = np.random.default_rng(3)
    state = zero_state(cloud)
    op = MemoryForce(cloud, horizon, model, memory, state, 0.01)
    center = cloud.positions.mean(axis=0)
    counts, earlier = [], []
    for scale in (1.0, 0.6, 0.9, 1.3, 3.0, 0.5, 1.0):
        jitter = 0.02 * rng.uniform(-1.0, 1.0, cloud.positions.shape)
        state.u[:] = center + scale * (cloud.positions - center) + jitter - cloud.positions
        v = rng.standard_normal(state.u.shape)
        shape = FluidState(positions=cloud.positions + state.u, velocities=v)
        got = op.force(state, v)
        assert np.array_equal(got, fluid_force(cloud, shape, memory, horizon, model=model))
        assert np.array_equal(got, broadcast_fluid_force(cloud, shape, memory, horizon, model))
        earlier.append((got, got.copy()))
        counts.append(directed_pairs(shape.positions, horizon.delta, cloud.box,
                                     cloud.periodic)[0].size)
    assert counts[1] > counts[0] and counts[3] < counts[2] and counts[4] == 0
    assert counts[5] > max(counts[:5])
    assert all(np.array_equal(f, kept) for f, kept in earlier)

    state.u[:] = 0.0
    state.u[5] = cloud.positions[6] - cloud.positions[5]
    with pytest.raises(SingularConfigurationError,
                       match=r"^particles 5 and 6 coincide in the deformed configuration$"):
        op.force(state, np.zeros_like(state.u))


def row_by_row(path, header, table):
    """The writer that formatted one row per call."""
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row_format % tuple(row.tolist()) for row in table)


@pytest.mark.parametrize("rows", [0, 1, 511, 512, 513])
def test_block_writer_bytes_match_the_row_writer(tmp_path, rows):
    rng = np.random.default_rng(rows)
    table = rng.standard_normal((rows, 7)) * 10.0 ** rng.integers(-300, 300, (rows, 7))
    special = [-0.0, 5e-324, -2.5e-310, 1e300, -1e300, 0.0, 1.0]
    for i in range(min(rows, 3)):
        table[rows - 1 - i] = np.roll(special, i)
    header = [f"c{j}" for j in range(7)]
    row_by_row(tmp_path / "rows.csv", header, table)
    outputs._write_table(str(tmp_path / "blocks.csv"), header, table)
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
