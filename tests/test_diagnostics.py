"""Energy accounting, contact probes, local-limit stretch checks."""

import math

import numpy as np
import pytest

from peribond import (
    HorizonConfig,
    build_bonds,
    build_grid,
    zero_state,
)
from peribond.diagnostics import (
    delta_convergence,
    energy,
    impenetrability_probe,
    stretch_compare,
)
from peribond.dynamics import potential_energy
from peribond.errors import ConfigError
from peribond.kernels import (
    Convolution,
    MicroModulus,
    NanoMembrane,
    NonlinearP,
    PMB,
    default_models,
)


def small_bar():
    cloud = build_grid((1.0,), 0.125, 1.0, periodic=(False,))
    bonds = build_bonds(cloud, HorizonConfig(0.3))
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.3))
    return cloud, bonds, model


def test_energy_report_accounting():
    cloud, bonds, model = small_bar()
    state = zero_state(cloud)
    state.v[:, 0] = 2.0
    rep = energy(cloud, bonds, model, state)
    assert rep.kinetic == pytest.approx(0.5 * 8 * 0.125 * 4.0)
    assert rep.potential == 0.0
    assert rep.total == rep.reference_total
    assert not rep.decay_violated and not rep.impenetrability_flag


def test_energy_decay_flag():
    cloud, bonds, model = small_bar()
    state = zero_state(cloud)
    state.v[:, 0] = 1.0
    baseline = energy(cloud, bonds, model, state).total
    state.v[:, 0] = 1.01
    rep = energy(cloud, bonds, model, state, reference_total=baseline)
    assert rep.decay_violated
    rep = energy(cloud, bonds, model, state, reference_total=baseline, tol=0.1)
    assert not rep.decay_violated


def test_energy_flags_singular_potential():
    cloud = build_grid((1.0,), 0.5, 1.0, periodic=(False,))
    bonds = build_bonds(cloud, HorizonConfig(0.6))
    state = zero_state(cloud)
    state.u[1, 0] = -0.5  # collapse the pair onto each other
    with np.errstate(divide="ignore"):
        rep = energy(cloud, bonds, NanoMembrane(c=1.0), state)
    assert rep.impenetrability_flag
    assert rep.potential == math.inf


def test_stretch_compare_exact_for_affine_fields():
    for dim in (1, 2, 3):
        cloud = build_grid((1.0,) * dim, 0.125, 1.0, periodic=(False,) * dim)
        bonds = build_bonds(cloud, HorizonConfig(0.375))
        rng = np.random.default_rng(dim)
        grad = 1e-3 * rng.standard_normal((dim, dim))
        state = zero_state(cloud)
        state.u[:] = cloud.positions @ grad.T
        rep = stretch_compare(cloud, bonds, state, cloud.n_points // 2)
        assert rep.max_discrepancy < 1e-14
        assert np.allclose(rep.grad, grad, atol=1e-12)
        # the linearized prediction differs at second order in the strain
        assert rep.max_linear_discrepancy < 10.0 * np.abs(grad).max() ** 2 + 1e-14


def test_stretch_compare_degenerate_neighborhoods():
    # three collinear points in 2D cannot pin down a full gradient
    positions = np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0]])
    from peribond.discretization import PointCloud

    cloud = PointCloud(positions=positions, volumes=np.full(3, 1.0),
                       density=1.0, spacing=0.25, box=np.array([1.0, 1.0]),
                       periodic=np.array([False, False]))
    bonds = build_bonds(cloud, HorizonConfig(0.3))
    with pytest.raises(ConfigError, match="fewer than 2 directions"):
        stretch_compare(cloud, bonds, zero_state(cloud), 0)

    lonely = PointCloud(positions=np.array([[0.0, 0.0], [0.9, 0.9]]),
                        volumes=np.ones(2), density=1.0, spacing=0.25,
                        box=np.array([1.0, 1.0]),
                        periodic=np.array([False, False]))
    with pytest.warns(UserWarning):
        empty = build_bonds(lonely, HorizonConfig(0.3))
    with pytest.raises(ConfigError, match="empty horizon"):
        stretch_compare(lonely, empty, zero_state(lonely), 0)


def test_impenetrability_probe_contrast():
    # compress every bond to 1% of its reference length
    cloud = build_grid((2.0,), 0.25, 1.0, periodic=(False,))
    bonds = build_bonds(cloud, HorizonConfig(0.5))
    state = zero_state(cloud)
    state.u[:] = -0.99 * cloud.positions

    hard = NonlinearP(kappa=1.0, p=2.0, alpha=0.5, dim=1, delta=0.5)
    rep = impenetrability_probe(cloud, bonds, hard, state)
    assert len(rep.flagged_pairs) > 0
    assert all(i < j for i, j in rep.flagged_pairs)
    # potential contrast between rest and collapse: (r/q)^p = 100^2
    assert rep.max_amplification == pytest.approx(1e4)

    soft = PMB(micro=MicroModulus("cylindrical", 1.0, 0.5))
    rep = impenetrability_probe(cloud, bonds, soft, state)
    assert math.isfinite(rep.max_potential)
    assert rep.max_potential < 1.0


def probe_loop(bonds, model, state, cut):
    """The probe's flagged tuples, one bond and two single-bond potential
    calls at a time: the per-bond loop the whole-array probe replaced."""
    eta = state.u[bonds.neighbors] - state.u[bonds.source]
    dist = np.linalg.norm(bonds.xi + eta, axis=1)
    pairs, dists, phis, phi0s, amps = [], [], [], [], []
    for k in np.flatnonzero(dist < cut):
        xi_k = bonds.xi[k]
        phi = float(model.potential(xi_k, eta[k]))
        phi0 = float(model.potential(xi_k, np.zeros_like(xi_k)))
        if phi > 0.0:
            amp = phi0 / phi
        else:
            amp = math.inf if phi0 > 0.0 else 1.0
        pairs.append((int(bonds.source[k]), int(bonds.neighbors[k])))
        dists.append(float(dist[k]))
        phis.append(phi)
        phi0s.append(phi0)
        amps.append(amp)
    return tuple(pairs), tuple(dists), tuple(phis), tuple(phi0s), tuple(amps)


def report_tuples(rep):
    return (rep.flagged_pairs, rep.flagged_distances, rep.potentials, rep.baselines,
            rep.amplifications)


@pytest.mark.parametrize("family", sorted(default_models()))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_probe_matches_the_per_bond_loop(family, dim):
    cloud = build_grid((1.0,) * dim, 0.25, 1.0, periodic=(False,) * dim)
    bonds = build_bonds(cloud, HorizonConfig(0.5))
    model = default_models(delta=0.5, dim=dim)[family]
    rng = np.random.default_rng(dim)
    state = zero_state(cloud)
    # squeeze toward the center, unevenly, so some bonds fall below the cut
    squeeze = rng.uniform(0.5, 0.97, (cloud.n_points, 1))
    state.u[:] = -squeeze * (cloud.positions - 0.5)
    rep = impenetrability_probe(cloud, bonds, model, state, threshold=0.4)
    want = probe_loop(bonds, model, state, rep.threshold)
    assert len(want[0]) > 0
    assert report_tuples(rep) == want


def test_probe_amplification_of_a_vanished_potential():
    # every point pulled onto the origin: q = 0 on every bond, exactly
    cloud = build_grid((1.0,), 0.125, 1.0, periodic=(False,))
    bonds = build_bonds(cloud, HorizonConfig(0.375))
    state = zero_state(cloud)
    state.u[:] = -cloud.positions
    # a convolution bond stores no energy at q = 0; inside its support the
    # rest state does (amplification inf), beyond it neither does (1.0)
    model = Convolution(c=1.0, exponent=3, delta=0.3)
    rep = impenetrability_probe(cloud, bonds, model, state)
    assert report_tuples(rep) == probe_loop(bonds, model, state, rep.threshold)
    assert len(rep.flagged_pairs) == bonds.n_bonds
    assert set(rep.potentials) == {0.0}
    inside = bonds.xi_norm <= 0.3
    assert inside.any() and not inside.all()
    assert rep.amplifications == tuple(np.where(inside, math.inf, 1.0).tolist())
    assert rep.max_amplification == math.inf


def compressed_bar():
    # every bond of an 8-point bar squeezed to 1% of its length: all flagged
    cloud = build_grid((1.0,), 0.125, 1.0, periodic=(False,))
    bonds = build_bonds(cloud, HorizonConfig(0.375))
    state = zero_state(cloud)
    state.u[:] = -0.99 * cloud.positions
    return cloud, bonds, state


def test_probe_counts_a_broken_bond_as_storing_nothing():
    cloud, bonds, state = compressed_bar()
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.375))
    assert impenetrability_probe(cloud, bonds, model, state).max_potential > 0.0
    bonds.mu[:] = 0.0
    rep = impenetrability_probe(cloud, bonds, model, state)
    assert len(rep.flagged_pairs) == bonds.n_bonds == 18
    assert potential_energy(cloud, bonds, model, state.u) == 0.0
    assert set(rep.potentials) == set(rep.baselines) == {0.0}
    assert rep.max_potential == 0.0
    assert set(rep.amplifications) == {1.0}


@pytest.mark.parametrize("family", sorted(default_models()))
def test_probe_potentials_are_the_energy_terms(family):
    # theta-eps leaves fractions of mu; each flagged potential is the term
    # that potential_energy sums for its pair
    cloud, bonds, state = compressed_bar()
    model = default_models(delta=0.375, dim=1)[family]
    bonds.mu[:] = np.random.default_rng(3).uniform(0.0, 1.0, bonds.n_bonds)
    rep = impenetrability_probe(cloud, bonds, model, state)
    assert len(rep.flagged_pairs) == bonds.n_bonds
    eta = state.u[bonds.neighbors] - state.u[bonds.source]
    terms = model.potential(bonds.xi, eta, bonds.mu)
    assert rep.potentials == tuple(terms.tolist())
    assert rep.baselines == tuple(
        model.potential(bonds.xi, np.zeros_like(bonds.xi), bonds.mu).tolist())
    weighted = np.array(rep.potentials) * bonds.weights * cloud.volumes[bonds.source]
    assert float(np.sum(weighted)) == potential_energy(cloud, bonds, model, state.u)


def test_probe_refuses_a_non_positive_threshold():
    cloud, bonds, model = small_bar()
    with pytest.raises(ConfigError, match="probe threshold must be positive, got 0"):
        impenetrability_probe(cloud, bonds, model, zero_state(cloud), threshold=0)


def test_probe_clean_state_flags_nothing():
    cloud, bonds, model = small_bar()
    rep = impenetrability_probe(cloud, bonds, model, zero_state(cloud))
    assert rep.flagged_pairs == ()
    assert rep.max_amplification == 0.0
    assert rep.min_distance == pytest.approx(0.125)


def test_delta_convergence_refines():
    result = delta_convergence(deltas=(0.4, 0.2), m=2, periods=0.5)
    assert result.monotone
    assert result.errors[1] < result.errors[0]
    assert result.rate > 1.0
    assert "delta" in result.table()


def test_delta_convergence_needs_two_horizons():
    with pytest.raises(ConfigError, match="needs at least two horizons"):
        delta_convergence(deltas=(0.2,))
