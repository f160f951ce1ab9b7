"""Bond force families: pinned point values, gating, breakage, axiom sweep.

Every family gets at least one hand-derived force/potential value at a
specific (xi, eta), so a regression in any formula shows up as a concrete
number and not just a property violation.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peribond.errors import ConfigError, SingularConfigurationError
from peribond.kernels import (
    AntiPlaneShear,
    BondBreaker,
    ConstructiveRod,
    Convolution,
    MicroModulus,
    NanoFiber,
    NanoMembrane,
    NonlinearP,
    PMB,
    QuadraticPotential,
    bond_stretch,
    calibrate_pmb_c,
    check_kernel_axioms,
    default_models,
    in_support,
    theta_ramp,
    update_breaker,
)

XI = np.array([1.0, 0.0])
ETA = np.array([0.5, 0.0])  # q = 1.5, r = 1, stretch 0.5


def test_bond_stretch_values():
    assert bond_stretch(XI, ETA) == 0.5
    assert bond_stretch(np.array([3.0, 4.0]), np.zeros(2)) == 0.0
    s = bond_stretch(np.array([[1.0], [2.0]]), np.array([[1.0], [-1.0]]))
    assert np.allclose(s, [1.0, -0.5])
    with pytest.raises(ValueError):
        bond_stretch(np.zeros(2), ETA)


def test_in_support_keeps_marginal_lattice_bonds():
    assert in_support(1.0, 1.0)
    assert in_support(1.0 + 1e-13, 1.0)  # a few ulps past delta still count
    assert not in_support(1.0 + 1e-8, 1.0)


def test_anti_plane_shear_values_and_cutoff():
    model = AntiPlaneShear(c=2.0, u_star=math.inf, delta=math.inf)
    xi, eta = np.array([3.0, 0.0]), np.array([1.0, 0.0])  # q = 4, r = 3
    assert np.allclose(model.force(xi, eta), [2.0, 0.0])   # c (q - r) n
    assert model.potential(xi, eta) == 1.0                 # c (q - r)^2 / 2
    # elongation above u_star switches the bond off entirely
    capped = AntiPlaneShear(c=2.0, u_star=0.5, delta=math.inf)
    assert np.allclose(capped.force(xi, eta), 0.0)
    assert capped.potential(xi, eta) == 0.0
    # the cutoff doubles as a per-bond critical stretch s0 = u_star / r
    assert capped.breaker is not None
    assert np.allclose(capped.breaker_thresholds(np.array([2.0, 4.0])),
                       [0.25, 0.125])
    assert model.breaker is None


def test_quadratic_potential_values():
    model = QuadraticPotential(alpha=0.5)
    # q^2 - r^2 = 1.25: f = 4 alpha gap (xi + eta), phi = alpha gap^2
    assert np.allclose(model.force(XI, ETA), [3.75, 0.0])
    assert model.potential(XI, ETA) == 0.78125
    assert np.allclose(model.stiffness0(np.array([2.0])), 16.0)  # 8 alpha r^2
    with pytest.raises(ConfigError, match="quadratic alpha must be positive, got 0"):
        QuadraticPotential(alpha=0)


def test_pmb_values():
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 2.0))
    assert np.allclose(model.force(XI, ETA), [0.5, 0.0])  # c s n with s = 0.5
    assert model.potential(XI, ETA) == 0.125              # c s^2 r / 2
    assert np.allclose(model.stiffness0(np.array([1.0, 4.0])), [1.0, 0.0])


def test_rod_values():
    model = ConstructiveRod(micro=MicroModulus("cylindrical", 2.0, math.inf))
    xi, eta = np.array([2.0, 0.0]), np.array([1.0, 0.0])  # q = 3, r = 2
    assert np.allclose(model.force(xi, eta), [0.5, 0.0])  # c (q - r) / r^2 n
    assert model.potential(xi, eta) == 0.25               # c (q - r)^2 / (2 r^2)


def test_convolution_values():
    model = Convolution(c=1.0, exponent=3)
    xi, eta = np.array([1.0, 0.0]), np.array([1.0, 0.0])  # q_vec = (2, 0)
    assert np.allclose(model.force(xi, eta), [8.0, 0.0])  # |q|^2 q_vec
    assert model.potential(xi, eta) == 4.0                # |q|^4 / 4
    with pytest.raises(ConfigError):
        Convolution(c=1.0, exponent=2)
    with pytest.raises(ConfigError):
        Convolution(c=1.0, exponent=1)


def test_nonlinear_p_values():
    model = NonlinearP(kappa=1.0, p=2.0, alpha=0.5, dim=1)
    xi, eta = np.array([1.0]), np.array([0.0])
    assert np.allclose(model.force(xi, eta), [2.0])       # kappa p q^(p-2) q_vec
    assert model.potential(np.array([1.0]), np.array([0.5])) == 2.25
    with pytest.raises(ConfigError):
        NonlinearP(alpha=1.0)   # open interval
    with pytest.raises(ConfigError):
        NonlinearP(p=1.5)
    with pytest.raises(ConfigError):
        model.validate_dim(2)   # built for dim 1
    with pytest.raises(ConfigError, match="kappa must be positive, got 0"):
        NonlinearP(kappa=0)
    with pytest.raises(ConfigError, match="dim must be 1, 2, or 3, got 4"):
        NonlinearP(dim=4)


def test_nano_membrane_values():
    model = NanoMembrane(c=1.0, g=1.0)
    xi, eta = np.array([1.0, 0.0]), np.array([1.0, 0.0])  # q/r = 2
    # (2c/r)(ratio - ratio^-3) = 2 (2 - 1/8) = 3.75
    assert np.allclose(model.force(xi, eta), [3.75, 0.0])
    # (c/r)(q^2/r + r^3/q^2 - 2r) = 4 + 0.25 - 2
    assert model.potential(xi, eta) == 2.25
    assert model.potential(xi, np.zeros(2)) == 0.0   # vanishes undeformed
    # the inverse-cube core diverges as the pair collapses
    crush = model.potential(np.array([1.0, 0.0]), np.array([-0.999, 0.0]))
    assert crush > 1e5
    with pytest.raises(ConfigError, match="nano-membrane c must be positive, got 0"):
        NanoMembrane(c=0)


def test_nano_fiber_values():
    model = NanoFiber(c=1.0, vdw_a=0.5, vdw_b=1.0, delta=1.0, g=1.0)
    xi = np.array([1.0, 0.0])
    # with b = 2a the 12-6 pair force crosses zero exactly at q = delta
    assert np.allclose(model.force(xi, np.zeros(2)), 0.0)
    assert model.potential(xi, np.zeros(2)) == 0.0
    # at q = 2: elastic 3.75 plus vdw -6/8192 + 6/128, both along x
    f = model.force(xi, np.array([1.0, 0.0]))
    assert f[0] == 3.75 + (-12.0 * 0.5 * 2.0**-13 + 6.0 * 2.0**-7)
    assert f[1] == 0.0
    with pytest.raises(ConfigError):
        NanoFiber(c=1.0, delta=math.inf)


def test_micro_modulus_profiles():
    r = np.array([1.0, 2.0, 3.0])
    delta = 2.0
    assert np.allclose(MicroModulus("cylindrical", 1.0, delta).profile(r),
                       [1.0, 1.0, 0.0])
    assert np.allclose(MicroModulus("triangular", 1.0, delta).profile(r),
                       [0.5, 0.0, 0.0])
    assert np.allclose(MicroModulus("normal", 1.0, delta).profile(r),
                       [math.exp(-0.25), math.exp(-1.0), 0.0])
    assert np.allclose(MicroModulus("quartic", 1.0, delta).profile(r),
                       [0.5625, 0.0, 0.0])
    assert MicroModulus("cylindrical", 3.0, delta)(1.0) == 3.0
    with pytest.raises(ConfigError):
        MicroModulus("gaussian", 1.0, delta)


def test_calibrate_pmb_c():
    assert calibrate_pmb_c(1.0, 1.0) == pytest.approx(18.0 / math.pi)
    # c0 ~ delta^-4
    assert calibrate_pmb_c(1.0, 0.5) == pytest.approx(16.0 * 18.0 / math.pi)
    with pytest.raises(ConfigError):
        calibrate_pmb_c(-1.0, 1.0)
    with pytest.raises(ConfigError, match="horizon delta must be positive, got 0"):
        calibrate_pmb_c(1.0, 0.0)


@pytest.mark.parametrize("family", sorted(default_models()))
def test_a_zero_reference_separation_is_refused(family):
    model = default_models(delta=2.0, dim=2)[family]
    xi = np.array([[1.0, 0.0], [0.0, 0.0]])
    message = f"{family}: zero reference separation in bond array"
    with pytest.raises(ValueError, match=message):   # unbound: checked per call
        model.force(xi, np.zeros_like(xi))
    with pytest.raises(ValueError, match=message):   # bound: checked once, by bind
        model.bind(SimpleNamespace(xi=xi, xi_norm=np.linalg.norm(xi, axis=1)))


def test_an_unbound_model_holds_no_pair_state():
    model = QuadraticPotential()
    model.force(XI, ETA)
    assert model.take_pair_state() == (None, None)


def test_support_gating_zeroes_force_outside_delta():
    outside = np.array([3.0, 0.0])  # r = 3 > delta = 2 for every model below
    eta = np.array([0.3, 0.0])
    models = default_models(delta=2.0, dim=2)
    for name, model in models.items():
        f = np.asarray(model.force(outside, eta))
        assert np.allclose(f, 0.0), name


def test_singular_deformed_configuration_raises():
    # families that divide by the deformed length must refuse q = 0
    eta = -XI
    for model in (PMB(micro=MicroModulus("cylindrical", 1.0, 2.0)),
                  ConstructiveRod(),
                  AntiPlaneShear(c=1.0),
                  NanoMembrane(),
                  NanoFiber(c=1.0, delta=2.0)):
        with pytest.raises(SingularConfigurationError):
            model.force(XI, eta)
    # the polynomial families stay finite there
    assert np.allclose(QuadraticPotential(alpha=1.0).force(XI, eta),
                       [0.0, 0.0])
    assert np.allclose(Convolution(c=1.0, exponent=3).force(XI, eta),
                       [0.0, 0.0])


def test_critical_stretch_breaker():
    breaker = BondBreaker("critical-stretch", s0=0.1)
    mu = np.ones(3)
    accum = np.zeros(3)
    update_breaker(breaker, np.array([0.05, 0.1, 0.2]), 0.01, mu, accum)
    assert np.allclose(mu, [1.0, 0.0, 0.0])
    # broken stays broken even if the stretch relaxes
    update_breaker(breaker, np.array([0.0, 0.0, 0.0]), 0.01, mu, accum)
    assert np.allclose(mu, [1.0, 0.0, 0.0])


def test_theta_eps_breaker_fades_linearly():
    breaker = BondBreaker("theta-eps", s0=0.1, eps=0.02)
    mu = np.ones(2)
    accum = np.zeros(2)
    # excess stretch 0.5 over dt = 0.02 accumulates 0.01 = eps / 2
    update_breaker(breaker, np.array([0.6, 0.05]), 0.02, mu, accum)
    assert np.allclose(mu, [0.5, 1.0])
    update_breaker(breaker, np.array([0.6, 0.05]), 0.02, mu, accum)
    assert np.allclose(mu, [0.0, 1.0])
    assert np.allclose(theta_ramp(np.array([-1.0, 0.01, 0.05]), 0.02),
                       [1.0, 0.5, 0.0])


def test_update_breaker_counts_changed_bonds():
    stretch = np.array([0.05, 0.2, 0.3])
    mu = np.ones(3)
    accum = np.zeros(3)
    assert update_breaker(BondBreaker(), stretch, 0.01, mu, accum) == 0
    assert update_breaker(None, stretch, 0.01, mu, accum) == 0
    assert np.all(mu == 1.0)
    critical = BondBreaker("critical-stretch", s0=0.1)
    assert update_breaker(critical, stretch, 0.01, mu, accum) == 2
    # bonds already at zero (broken earlier, or seeded cracks) do not count
    assert update_breaker(critical, stretch, 0.01, mu, accum) == 0
    assert np.allclose(mu, [1.0, 0.0, 0.0])
    graded = BondBreaker("theta-eps", s0=0.1, eps=0.02)
    mu, accum = np.ones(3), np.zeros(3)
    assert update_breaker(graded, stretch, 0.02, mu, accum) == 2
    assert np.allclose(mu, [1.0, 0.9, 0.8])
    # a stretch back below s0 leaves the ramp where it was
    assert update_breaker(graded, np.zeros(3), 0.02, mu, accum) == 0


def test_breaker_validation():
    with pytest.raises(ConfigError):
        BondBreaker("critical-stretch", s0=0.0)
    with pytest.raises(ConfigError):
        BondBreaker("theta-eps", s0=0.1, eps=0.0)
    with pytest.raises(ConfigError):
        BondBreaker("snap")
    assert not BondBreaker().active


def test_per_bond_thresholds_override_s0():
    breaker = BondBreaker("critical-stretch", s0=1.0)
    mu = np.ones(2)
    accum = np.zeros(2)
    update_breaker(breaker, np.array([0.3, 0.3]), 0.01, mu, accum,
                   thresholds=np.array([0.25, 0.35]))
    assert np.allclose(mu, [0.0, 1.0])


S0 = 0.05
N_BONDS = 12
stretch_histories = st.lists(
    st.lists(st.one_of(st.floats(-0.5, 0.5), st.just(S0)),
             min_size=N_BONDS, max_size=N_BONDS),
    min_size=1, max_size=6,
)


@settings(max_examples=60)
@given(law=st.sampled_from(["critical-stretch", "theta-eps", "anti-plane-shear"]),
       history=stretch_histories, dt=st.floats(1e-3, 0.5), seed=st.integers(0, 2**16))
def test_breaker_is_monotone_and_counts_its_changes(law, history, dt, seed):
    # from any damage state, a step never heals a bond or drains its
    # accumulator, the return value counts exactly the mu entries it moved,
    # and the changed mask marks exactly those
    rng = np.random.default_rng(seed)
    thresholds = None
    if law == "anti-plane-shear":
        model = AntiPlaneShear(c=1.0, u_star=S0 * 0.5, delta=1.0)
        breaker = model.breaker
        thresholds = model.breaker_thresholds(rng.uniform(0.2, 1.0, N_BONDS))
    else:
        breaker = BondBreaker(law, s0=S0, eps=0.02)
    mu = np.where(rng.random(N_BONDS) < 0.3, rng.choice([0.0, 1.0], N_BONDS),
                  rng.uniform(0.0, 1.0, N_BONDS))
    accum = rng.uniform(0.0, 0.03, N_BONDS)
    for stretch in history:
        mu_before, accum_before = mu.copy(), accum.copy()
        which = np.zeros(N_BONDS, dtype=bool)
        changed = update_breaker(breaker, np.array(stretch), dt, mu, accum, thresholds,
                                 which)
        assert np.all(mu <= mu_before)
        assert np.all(accum >= accum_before)
        assert changed == np.count_nonzero(mu != mu_before)
        assert np.array_equal(which, mu != mu_before)


def test_axiom_sweep_all_families():
    for name, model in default_models(delta=1.0, dim=3).items():
        report = check_kernel_axioms(model, dim=3, n_samples=200, seed=3)
        assert report.passed, report.summary()
        assert name in report.summary()


def test_axiom_sweep_excludes_cutoff_straddlers():
    # a finite u_star makes the force discontinuous; the FD check must skip
    # samples whose stencil straddles the jump rather than fail on them
    model = AntiPlaneShear(c=1.0, u_star=0.2, delta=1.0)
    report = check_kernel_axioms(model, dim=2, n_samples=500, seed=1)
    assert report.passed, report.summary()
