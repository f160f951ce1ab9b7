"""Per-pair memory only where a value varies, against the full arrays it replaced.

A bond constant k that is the same for every bond is held as one number, the
graded-breakage accumulator is made only when theta-eps reads it, a network
operator forms its breaker's per-bond thresholds once, and the crack seeding
finds a crossing point only for the pairs that straddle the seam. The oracles
below are the full-array forms: an operator handed the per-pair k that
model._radial forms, a reference loop on a network whose accumulator exists
from the start, and the crack seeding that formed every pair's crossing.
Every result must be bitwise theirs. Last, the traced high-water of the
network build, the force and the potential on the 64 x 64 plate is bounded
in float columns of the pair count.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peribond import build_bar_wave, build_bonds, build_grid, build_plate_precrack
from peribond import HorizonConfig, discretization, materialize, parse_config, run, scenarios
from peribond.dynamics import NetworkForce, zero_state
from peribond.kernels import (
    MICRO_FAMILIES,
    PMB,
    AntiPlaneShear,
    ConstructiveRod,
    MicroModulus,
    default_models,
    evaluate_pairs,
    in_support,
    lengths,
)

from test_loop_oracle import reference_solid_run
from test_pair_network import lattices


def per_pair_k_operator(cloud, bonds, model):
    """A NetworkForce that holds k as the per-pair array model._radial forms."""
    op = NetworkForce(cloud, bonds, model)
    op.k = model._radial(bonds.xi_norm)
    return op


def per_pair_k_force(model, xi, eta, mu):
    """model.force with k as a per-pair array, through the same pair pass."""
    r = np.linalg.norm(xi, axis=1)
    inside = in_support(r, model.delta)
    z = xi + eta
    coef = evaluate_pairs(model, model._coef, lengths(z), r, model._radial(r),
                          None if inside.all() else inside, mu)
    return z * coef[:, None]


@settings(max_examples=150)
@given(lattice=lattices(), kernel=st.sampled_from([PMB, ConstructiveRod]),
       micro=st.sampled_from(MICRO_FAMILIES), support=st.sampled_from([1.0, 0.6]),
       mu=st.sampled_from(["none", "random", "zero"]), seed=st.integers(0, 2**16))
def test_one_number_k_is_bitwise_the_per_pair_k(lattice, kernel, micro, support, mu, seed):
    # support 0.6 puts the outer bonds of most networks outside the
    # micro-modulus, where k is 0 and the gate stays
    cloud, horizon = lattice
    model = kernel(micro=MicroModulus(micro, 1.7, support * horizon.delta))
    bonds = build_bonds(cloud, horizon)
    k = model._radial(bonds.xi_norm)
    op, oracle = NetworkForce(cloud, bonds, model), per_pair_k_operator(cloud, bonds, model)
    constant = bool(np.all(k == k[0]))
    assert (np.ndim(op.k) == 0) == constant
    assert np.array_equal(np.broadcast_to(op.k, k.shape), k)

    rng = np.random.default_rng(seed)
    m = bonds.n_bonds
    state = zero_state(cloud)
    state.u[:] = 0.05 * cloud.spacing * rng.standard_normal(state.u.shape)
    bonds.mu[:] = {"none": 1.0, "random": rng.uniform(0.0, 1.0, m), "zero": 0.0}[mu]
    force, want = op.force(state, state.v), oracle.force(state, state.v)
    assert np.array_equal(force, want)
    assert np.array_equal(op._pass[1], oracle._pass[1])
    assert op.potential(state) == oracle.potential(state)
    rows = np.flatnonzero(rng.random(m) < 0.3)
    bonds.mu[rows] *= 0.5
    assert np.array_equal(op._refresh(state, force, op._pass[1], rows),
                          oracle._refresh(state, want, oracle._pass[1], rows))

    eta = np.take(state.u, bonds.neighbors, axis=0) - np.take(state.u, bonds.source, axis=0)
    given_mu = None if mu == "none" else bonds.mu
    assert np.array_equal(model.force(bonds.xi, eta, given_mu),
                          per_pair_k_force(model, bonds.xi, eta, given_mu))


def test_k_is_one_number_only_for_a_constant_micro_modulus():
    setup = build_plate_precrack(n=16, n_steps=1)
    cloud, bonds = setup.cloud, setup.bonds
    assert np.ndim(NetworkForce(cloud, bonds, setup.model).k) == 0
    delta = setup.horizon.delta
    for micro in ("triangular", "normal", "quartic"):
        model = PMB(micro=MicroModulus(micro, 1.0, delta))
        assert NetworkForce(cloud, bonds, model).k.shape == (bonds.n_bonds,)
    # bonds past the micro-modulus make a cylindrical k vary too
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.6 * delta))
    assert NetworkForce(cloud, bonds, model).k.shape == (bonds.n_bonds,)
    for family, model in default_models(delta, 2).items():
        if family not in ("pmb", "rod"):
            assert NetworkForce(cloud, bonds, model).k is None


def test_only_theta_eps_makes_the_accumulator():
    plate = build_plate_precrack(n=24, n_steps=40, record_every=10)
    assert plate.model.breaker.mode == "critical-stretch"
    cut = np.count_nonzero(plate.bonds.mu == 0.0)
    run(plate.cloud, plate.bonds, plate.model, plate.state, plate.dt, plate.n_steps,
        load=plate.load, record_every=plate.record_every)
    assert np.count_nonzero(plate.bonds.mu == 0.0) > cut  # the breaker ran and broke bonds
    assert "accum" not in vars(plate.bonds)

    bar = build_bar_wave()
    assert not bar.model.breaker.active
    run(bar.cloud, bar.bonds, bar.model, bar.state, bar.dt, bar.n_steps)
    assert "accum" not in vars(bar.bonds)


class EagerAccumulator:
    """A network whose accumulator is a plain array made with it, as every
    network held one before it was made on first use."""

    def __init__(self, bonds):
        self.bonds, self.accum = bonds, np.zeros(bonds.n_bonds)

    def __getattr__(self, name):
        return getattr(self.bonds, name)


def test_two_theta_eps_runs_on_one_network_keep_its_accumulator():
    cfg = parse_config("[scenario]\npreset = plate2d-precrack\n[breaker]\nmode = theta-eps\n"
                       "eps = 0.001\n[time]\nsteps = 50\n")
    a, b = materialize(cfg), materialize(cfg)
    assert "accum" not in vars(a.bonds)
    eager = EagerAccumulator(b.bonds)
    mus = []
    for _ in range(2):
        run(a.cloud, a.bonds, a.model, a.state, a.dt, a.n_steps, load=a.load,
            record_every=a.record_every)
        reference_solid_run(b.cloud, eager, b.model, b.state, b.dt, b.n_steps, b.load,
                            b.record_every)
        assert np.array_equal(a.bonds.mu, b.bonds.mu)
        assert np.array_equal(a.bonds.accum, eager.accum)
        assert np.array_equal(a.state.u, b.state.u)
        mus.append(a.bonds.mu.copy())
    assert np.any((mus[0] > 0.0) & (mus[0] < 1.0))
    assert np.any(mus[1] < mus[0])  # the second run carries on from the first's accumulator


BAR_SHEAR = ("[scenario]\npreset = bar1d-wave\n"
             "[kernel]\nfamily = anti-plane-shear\nu_star = 0.0003\n")


def test_breaker_thresholds_are_formed_once_per_run(monkeypatch):
    # anti-plane shear breaks each bond at its own stretch u_star/r
    cfg = parse_config(BAR_SHEAR)
    a, b = materialize(cfg), materialize(cfg)
    mu0 = a.bonds.mu.copy()
    calls, exact = [], AntiPlaneShear.breaker_thresholds

    def counted(self, xi_norm):
        calls.append(xi_norm.shape)
        return exact(self, xi_norm)

    monkeypatch.setattr(AntiPlaneShear, "breaker_thresholds", counted)
    result = run(a.cloud, a.bonds, a.model, a.state, a.dt, a.n_steps, load=a.load,
                 record_every=a.record_every)
    assert calls == [a.bonds.xi_norm.shape]
    rows = reference_solid_run(b.cloud, b.bonds, b.model, b.state, b.dt, b.n_steps,
                               b.load, b.record_every)
    assert len(calls) == 1 + b.n_steps  # the reference forms them every step
    assert np.any(a.bonds.mu != mu0)
    assert np.array_equal(a.bonds.mu, b.bonds.mu)
    assert np.array_equal(a.state.u, b.state.u)
    assert np.array_equal(a.state.v, b.state.v)
    for j, name in enumerate(result.columns):
        assert np.array_equal(result.series[name], rows[:, j]), name


def full_array_seed_crack(cloud, bonds, y_c, x0, x1):
    """The crack seeding that formed every pair's crossing point."""
    pos_i = cloud.positions[bonds.source]
    pos_j = pos_i + bonds.xi
    yi = pos_i[:, 1] - y_c
    yj = pos_j[:, 1] - y_c
    straddles = (yi < 0.0) != (yj < 0.0)
    t = np.zeros_like(yi)
    np.divide(-yi, yj - yi, out=t, where=straddles)
    x_cross = pos_i[:, 0] + t * (pos_j[:, 0] - pos_i[:, 0])
    cut = straddles & (x_cross >= x0) & (x_cross <= x1)
    bonds.mu[cut] = 0.0


def plate_crack(n):
    """The plate's cloud, horizon and crack segment (seam y_c, x0, x1)."""
    setup = build_plate_precrack(n=n, n_steps=1)
    box = setup.cloud.box
    return setup, (0.5 * box[1], 0.25 * box[0], 0.75 * box[0])


@pytest.mark.parametrize("n", [15, 16, 17, 64])
def test_crack_seeding_cuts_what_the_full_array_form_cuts(n):
    setup, segment = plate_crack(n)
    cloud, horizon = setup.cloud, setup.horizon
    a, b = build_bonds(cloud, horizon), build_bonds(cloud, horizon)
    scenarios._seed_crack(cloud, a, *segment)
    full_array_seed_crack(cloud, b, *segment)
    assert np.any(a.mu == 0.0)
    assert np.array_equal(a.mu, b.mu)
    assert np.array_equal(a.mu, setup.bonds.mu)


@settings(max_examples=60)
@given(n=st.integers(6, 20), m=st.floats(1.0, 3.0), y_c=st.floats(0.0, 1.0),
       x=st.tuples(st.floats(-0.1, 1.1), st.floats(-0.1, 1.1)))
def test_crack_seeding_matches_the_full_array_form_on_any_seam(n, m, y_c, x):
    cloud = build_grid((1.0, 1.0), 1.0 / n, 1.0, periodic=(False, False))
    horizon = HorizonConfig(m / n)
    a, b = build_bonds(cloud, horizon), build_bonds(cloud, horizon)
    scenarios._seed_crack(cloud, a, y_c, min(x), max(x))
    full_array_seed_crack(cloud, b, y_c, min(x), max(x))
    assert np.array_equal(a.mu, b.mu)


def traced(fn, *args):
    """fn(*args), with the traced bytes its allocations leave live and their
    high-water during the call."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return (out, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def test_crack_seeding_forms_no_full_length_crossings():
    # on the 64 x 64 plate (55,058 pairs, 0.42 MiB per float column) the
    # full-array form peaks near 3.8 MiB
    setup, segment = plate_crack(64)
    cloud, horizon = setup.cloud, setup.horizon
    _, _, peak = traced(scenarios._seed_crack, cloud, build_bonds(cloud, horizon), *segment)
    _, _, full = traced(full_array_seed_crack, cloud, build_bonds(cloud, horizon), *segment)
    assert full > 3.0 * 2**20
    assert peak < 1.5 * 2**20


def test_the_solid_path_holds_each_per_pair_array_once_at_its_high_water():
    # 64 x 64 plate, 55,058 pairs, 0.42 MiB per float column. Before the
    # weights were shared and the transients dropped as their use passed,
    # the build peaked 4.5 columns above the network it left and the force
    # and the potential 5.0 columns above the live network; now 2.5 and 4.0
    setup = build_plate_precrack(n=64, n_steps=1)
    cloud, horizon, model, state = setup.cloud, setup.horizon, setup.model, setup.state
    bonds, network, peak = traced(discretization.pair_network, cloud, horizon,
                                  cloud.positions)
    column = 8.0 * bonds.n_bonds
    assert network >= 10.0 * column  # the traced build holds the network it returns
    assert peak - network < 3.5 * column

    state.u += 1e-4 * cloud.spacing * np.random.default_rng(1).standard_normal(state.u.shape)
    op = NetworkForce(cloud, setup.bonds, model)
    for call, args in ((op.potential, (state,)), (op.force, (state, state.v))):
        _, _, peak = traced(call, *args)
        # z = xi + eta, q and the kernel's output at least
        assert 3.0 * column < peak < 4.5 * column, call.__name__
