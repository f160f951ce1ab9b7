"""The shared kernel contract against closed forms, and axioms under hypothesis.

The reference below restates each family's docstring formula as a bond-wise
magnitude along n = (xi + eta)/q, a potential and an undeformed stiffness,
written independently of the classes' scalar hooks. Every family must match
it to 1e-12 relative, outside the horizon included (where all three vanish).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peribond.kernels import (
    KERNEL_FAMILIES,
    MICRO_FAMILIES,
    AntiPlaneShear,
    ConstructiveRod,
    Convolution,
    MicroModulus,
    NanoFiber,
    NanoMembrane,
    NonlinearP,
    PMB,
    QuadraticPotential,
    check_kernel_axioms,
    default_models,
)

REL_TOL = 1e-12


def micro_constant(family, c0, delta, r):
    x = r / delta
    shape = {
        "cylindrical": np.ones_like(x),
        "triangular": 1.0 - x,
        "normal": np.exp(-x * x),
        "quartic": (1.0 - x * x) ** 2,
    }[family]
    return c0 * shape


def reference(model, q, r, mu):
    """(|f| along n, phi, d|f|/dq at q = r) from the docstring formulas."""
    name = model.family
    if name == "anti-plane-shear":
        on = (q - r) <= model.u_star
        return (np.where(on, model.c * (q - r) * mu, 0.0),
                np.where(on, model.c * (q - r) ** 2 * mu / 2.0, 0.0),
                np.full_like(r, model.c))
    if name == "quadratic":
        gap = q * q - r * r
        return 4.0 * model.alpha * gap * q, model.alpha * gap**2, 8.0 * model.alpha * r * r
    if name in ("pmb", "rod"):
        c = micro_constant(model.micro.family, model.micro.c0, model.micro.delta, r)
        if name == "pmb":
            s = q / r - 1.0
            return c * s * mu, c * s * s * r * mu / 2.0, c / r
        return c * (q - r) / r**2, c * (q - r) ** 2 / (2.0 * r**2), c / r**2
    if name == "convolution":
        e = model.exponent
        return model.c * q**e, model.c * q ** (e + 1) / (e + 1), model.c * e * r ** (e - 1)
    if name == "nonlinear-p":
        kp, p = model.kappa, model.p
        scale = r ** -(model.dim + model.alpha * p)
        return (kp * p * q ** (p - 1.0) * scale, kp * q**p * scale,
                kp * p * (p - 1.0) * r ** (p - 2.0) * scale)
    if name in ("nano-membrane", "nano-fiber"):
        c, g = model.c, model.g
        mag = 2.0 * c * g * (q / r - (r / q) ** 3) / r * mu
        phi = c * g * (q * q - r * r) ** 2 / (r * r * q * q) * mu
        k0 = 8.0 * c * g / r**2
        if name == "nano-fiber":
            d, a, b = model.delta, model.vdw_a, model.vdw_b
            mag = mag - 12.0 * a * d**12 / q**13 + 6.0 * b * d**6 / q**7
            phi = phi + a * (d**12 / q**12 - d**12 / r**12) - b * (d**6 / q**6 - d**6 / r**6)
            k0 = k0 + 156.0 * a * d**12 / r**14 - 42.0 * b * d**6 / r**8
        return mag, phi, k0
    raise AssertionError(f"no reference for {name}")


def contract_models(delta, dim):
    models = [
        AntiPlaneShear(c=1.7, u_star=0.15 * delta, delta=delta),
        QuadraticPotential(alpha=0.8, delta=delta),
        ConstructiveRod(micro=MicroModulus("quartic", 2.5, delta)),
        Convolution(c=0.6, exponent=5, delta=delta),
        NonlinearP(kappa=1.3, p=2.7, alpha=0.3, dim=dim, delta=delta),
        NanoMembrane(c=0.9, g=1.4, delta=delta),
        NanoFiber(c=0.9, g=1.2, vdw_a=0.3, vdw_b=0.7, delta=delta),
    ]
    models += [PMB(micro=MicroModulus(f, 3.0, delta)) for f in MICRO_FAMILIES]
    return models


def rel_err(got, want):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_families_match_closed_forms(dim):
    rng = np.random.default_rng(40 + dim)
    delta, n = 0.8, 2000
    r = rng.uniform(0.1, 1.25, n) * delta
    r = r[np.abs(r / delta - 1.0) > 1e-6]  # keep clear of the support slack
    u = rng.standard_normal((r.size, dim))
    xi = r[:, None] * u / np.linalg.norm(u, axis=1, keepdims=True)
    eta = rng.uniform(-0.4, 0.4, xi.shape) * r[:, None]
    mu = rng.uniform(0.0, 1.0, r.size)
    z = xi + eta
    q = np.linalg.norm(z, axis=1)
    inside = r <= delta
    for model in contract_models(delta, dim):
        mag, phi, k0 = (np.where(inside, v, 0.0) for v in reference(model, q, r, mu))
        checks = {
            "force": (model.force(xi, eta, mu), (mag / q)[:, None] * z),
            "potential": (model.potential(xi, eta, mu), phi),
            "stiffness0": (model.stiffness0(r), k0),
        }
        for what, (got, want) in checks.items():
            assert rel_err(got, want) <= REL_TOL, (model.family, what, dim)
        # a single bond goes through the same contract
        assert np.array_equal(model.force(xi[0], eta[0], mu[0]), checks["force"][0][0])


def magnitude_along_n(model, r, q, dim):
    """|f| along n of bonds of reference length r deformed to length q, from
    the library's own force: xi and eta both lie along the first axis."""
    xi = np.zeros((r.size, dim))
    xi[:, 0] = r
    eta = np.zeros_like(xi)
    eta[:, 0] = q - r
    return model.force(xi, eta)[:, 0]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stiffness0_is_the_slope_of_the_force_magnitude(dim):
    # the signed d|f|/dq at q = r, by a central difference of force itself,
    # for every family of default_models and for a nano-fiber whose van der
    # Waals length is one grid spacing of a delta = 4h lattice
    models = list(default_models(1.0, dim).values())
    models.append(NanoFiber(c=0.9, g=1.2, vdw_a=0.3, vdw_b=0.7, delta=0.25))
    for model in models:
        r = np.linspace(0.3, 0.95, 14) * model.delta
        step = 1e-6 * r
        slope = (magnitude_along_n(model, r, r + step, dim)
                 - magnitude_along_n(model, r, r - step, dim)) / (2.0 * step)
        got = model.stiffness0(r)
        assert np.all(np.abs(got - slope) <= 1e-6 * np.abs(slope)), (model.family, dim)


# -- axioms over random valid parameters ------------------------------------

positive = st.floats(0.1, 10.0)
horizon = st.floats(0.5, 2.0)


@st.composite
def valid_model(draw, family, dim):
    delta = draw(horizon)
    if family == "anti-plane-shear":
        u_star = draw(st.one_of(st.just(math.inf), st.floats(0.05, 1.0)))
        return AntiPlaneShear(c=draw(positive), u_star=u_star * delta, delta=delta)
    if family == "quadratic":
        return QuadraticPotential(alpha=draw(positive), delta=delta)
    if family in ("pmb", "rod"):
        micro = MicroModulus(draw(st.sampled_from(MICRO_FAMILIES)), draw(positive), delta)
        return PMB(micro=micro) if family == "pmb" else ConstructiveRod(micro=micro)
    if family == "convolution":
        return Convolution(c=draw(positive), exponent=draw(st.sampled_from([3, 5, 7])),
                           delta=delta)
    if family == "nonlinear-p":
        return NonlinearP(kappa=draw(positive), p=draw(st.floats(2.0, 4.0)),
                          alpha=draw(st.floats(0.05, 0.95)), dim=dim, delta=delta)
    if family == "nano-membrane":
        return NanoMembrane(c=draw(positive), g=draw(positive), delta=delta)
    assert family == "nano-fiber", family
    return NanoFiber(c=draw(positive), g=draw(positive), vdw_a=draw(st.floats(0.0, 1.0)),
                     vdw_b=draw(st.floats(0.0, 1.0)), delta=delta)


@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES))
@settings(max_examples=40)
@given(data=st.data(), dim=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_axioms_hold_for_random_parameters(family, data, dim, seed):
    model = data.draw(valid_model(family, dim))
    report = check_kernel_axioms(model, dim=dim, n_samples=200, seed=seed)
    assert report.passed, (model, report.summary())
