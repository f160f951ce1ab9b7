"""Zero-memory linear modes against a lattice-sum oracle.

On a uniform periodic lattice the linear fluid kernel maps a velocity mode
v = A e sin(k . x) onto itself: pairing each neighbor offset xi with -xi,

    f = -rho lambda v,  lambda = (c / rho) sum_j V_j taper_j (n_j . e)^2 (1 - cos k . xi_j),

summed over the lattice offsets in the horizon, n_j = xi_j / |xi_j|, when
the lattice's reflections make that sum parallel to e. The loop evaluates
the force at v_n and again at v_half, so each step multiplies the mode by
(1 - lambda dt / 2)^2 and KE_n = KE_0 (1 - lambda dt / 2)^(4 n).

The oracle builds its offsets from h, delta and the taper formula alone,
never from a bond network or a pair search. The points move as the fluid
flows, so a longitudinal mode keeps its horizon off the lattice distances
(a pair at exactly delta leaves the horizon at the first step), and its
amplitude small enough that advection stays below the tolerance.

The solid's PMB network maps a displacement mode u = A e sin(k . x) onto
itself the same way, to first order in A:

    rho u'' = -omega^2 rho u,  omega^2 = (1/rho) sum_j (c0 / r_j) V_j taper_j (n_j . e)^2 (1 - cos k . xi_j),

and velocity Verlet started at rest advances the mode amplitude by the
recurrence a_n = A cos(n theta), cos theta = 1 - omega^2 dt^2 / 2.

Every kernel family acts the same way at small amplitude. A bond with the
radial stiffness C(r) = d|f|/dq at q = r, and a force f0(r) along it at
rest, has the transverse stiffness f0(r) / r, so

    omega^2 = (1/rho) sum_j V_j taper_j [C(r_j) (n_j . e)^2 + (f0(r_j) / r_j) (1 - (n_j . e)^2)] (1 - cos k . xi_j).

C and f0 are written here from each family's docstring force, not read
from the library.

Finite memory binds the bonds to the shape a stride of steps back, so the
PMB force of the mode is -omega^2 rho (U_n - U_{n-stride}), with U = 0 (the
reference shape) before t = 0. Velocity Verlet on that acceleration is a
scalar recurrence; the mode is linearly unstable once omega s passes
pi / sqrt(2).
"""

import dataclasses
from itertools import product
import math

import numpy as np
import pytest

from peribond.discretization import HorizonConfig, build_bonds, build_grid
from peribond.dynamics import run, stable_dt, zero_state
from peribond.fluidpd import MemoryConfig, run_fluid
from peribond.kernels import PMB, MicroModulus, default_models

REL_TOL = 1e-10
C = 50.0     # [memory] coefficient, as the fluid-shear preset's
RHO = 1.0
STEPS = 200


def lattice_sum(n, delta_in_h, e_axis, k_axis, dim, radial, tension=None):
    """sum_j V_j taper_j radial(r_j) (n_j . e)^2 (1 - cos k . xi_j) for the
    mode e sin(2 pi x_k) on the unit lattice of n points per axis, over the
    integer offsets within the horizon. tension(r), when given, adds the
    transverse term (tension(r_j) / r_j) (1 - (n_j . e)^2) to radial's."""
    h = 1.0 / n
    delta = delta_in_h * h
    reach = math.ceil(delta_in_h) + 1
    total = 0.0
    for offset in product(range(-reach, reach + 1), repeat=dim):
        xi = h * np.array(offset, dtype=float)
        r = float(np.linalg.norm(xi))
        if r == 0.0 or r > delta * (1.0 + 1e-9):
            continue
        taper = min(1.0, max(0.0, (delta + 0.5 * h - r) / h))
        n_e = xi[e_axis] / r
        stiffness = radial(r) * n_e ** 2
        if tension is not None:
            stiffness += tension(r) / r * (1.0 - n_e ** 2)
        total += h ** dim * taper * stiffness * (1.0 - math.cos(2.0 * math.pi * xi[k_axis]))
    return total


def lattice_lambda(n, delta_in_h, e_axis, k_axis, dim):
    """lambda of the zero-memory mode: the lattice sum at a constant C / rho."""
    return C / RHO * lattice_sum(n, delta_in_h, e_axis, k_axis, dim, lambda r: 1.0)


# (n, dim, delta / h, e axis, k axis, dt, amplitude, the lambda a separate
# scratch calculation gave)
CASES = {
    "fluid-shear lattice, shear": (24, 2, 3.0, 0, 1, 0.02, 1e-6, 0.040305),
    "2D longitudinal": (16, 2, 3.05, 1, 1, 0.02, 1e-7, 0.58402),
    "1D longitudinal": (40, 1, 4.05, 0, 0, 0.002, 1e-6, 0.68822),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_zero_memory_mode_decays_at_the_lattice_rate(case):
    n, dim, delta_in_h, e_axis, k_axis, dt, amplitude, lam_expected = CASES[case]
    lam = lattice_lambda(n, delta_in_h, e_axis, k_axis, dim)
    assert lam == pytest.approx(lam_expected, rel=1e-4)

    h = 1.0 / n
    cloud = build_grid((1.0,) * dim, h, RHO, periodic=(True,) * dim)
    state = zero_state(cloud)
    state.v[:, e_axis] = amplitude * np.sin(2.0 * math.pi * cloud.positions[:, k_axis])
    result = run_fluid(cloud, HorizonConfig(delta_in_h * h), None,
                       MemoryConfig(mode="zero", coefficient=C), state, dt, STEPS)

    kinetic = result.series["kinetic"]
    assert kinetic.size == STEPS + 1
    predicted = kinetic[0] * (1.0 - 0.5 * lam * dt) ** (4 * np.arange(STEPS + 1))
    assert np.max(np.abs(kinetic / predicted - 1.0)) < REL_TOL


C0 = 1.0     # [kernel] c0 of the solid's cylindrical PMB micro-modulus

# (n, dim, delta / h, e axis, k axis, amplitude / h). The 1D PMB force is
# linear in u, so any small amplitude serves; the 2D one is not, and its
# cubic terms move the amplitude by about 0.17 (A / h)^2 while rounding in
# q - r grows as A shrinks (measured error 1.4e-11 at A = 1e-5 h, 1.7e-9 at
# 1e-4 h and 2.2e-10 at 1e-6 h).
SOLID_CASES = {
    "1D": (40, 1, 4.05, 0, 0, 1e-3),
    "2D longitudinal": (16, 2, 3.05, 1, 1, 1e-5),
}


@pytest.mark.parametrize("case", sorted(SOLID_CASES))
def test_solid_mode_oscillates_at_the_lattice_frequency(case):
    n, dim, delta_in_h, e_axis, k_axis, amplitude_in_h = SOLID_CASES[case]
    omega2 = lattice_sum(n, delta_in_h, e_axis, k_axis, dim, lambda r: C0 / r) / RHO

    h = 1.0 / n
    cloud = build_grid((1.0,) * dim, h, RHO, periodic=(True,) * dim)
    horizon = HorizonConfig(delta_in_h * h)
    bonds = build_bonds(cloud, horizon)
    model = PMB(micro=MicroModulus("cylindrical", C0, horizon.delta))
    dt = stable_dt(cloud, bonds, model)
    shape = np.sin(2.0 * math.pi * cloud.positions[:, k_axis])
    amplitude = amplitude_in_h * h
    state = zero_state(cloud)
    state.u[:, e_axis] = amplitude * shape
    measured = []
    run(cloud, bonds, model, state, dt, STEPS, record_every=STEPS, snapshot_every=1,
        on_snapshot=lambda step, s, damage: measured.append(
            float(s.u[:, e_axis] @ shape) / float(shape @ shape)))

    theta = math.acos(1.0 - 0.5 * omega2 * dt * dt)
    assert len(measured) == STEPS + 1 and theta * STEPS > 8.0 * math.pi  # 4+ periods
    predicted = amplitude * np.cos(theta * np.arange(STEPS + 1))
    assert np.max(np.abs(np.array(measured) - predicted)) < REL_TOL * amplitude


def radial_and_tension(model):
    """C(r) = d|f|/dq at q = r and the rest force f0(r), from the docstring
    force |f|(q, r) of the model's family."""
    family = model.family
    if family == "anti-plane-shear":        # c (q - r)
        return lambda r: model.c, None
    if family == "quadratic":               # 4 alpha (q^2 - r^2) q
        return lambda r: 8.0 * model.alpha * r ** 2, None
    if family == "pmb":                     # c0 (q - r) / r, cylindrical
        return lambda r: model.micro.c0 / r, None
    if family == "rod":                     # c0 (1 - r / delta) (q - r) / r^2
        return lambda r: model.micro.c0 * (1.0 - r / model.micro.delta) / r ** 2, None
    if family == "convolution":             # c q^p
        p = model.exponent
        return lambda r: model.c * p * r ** (p - 1), lambda r: model.c * r ** p
    if family == "nonlinear-p":             # kappa p q^(p - 1) / r^(dim + alpha p)
        kappa, p, e = model.kappa, model.p, model.dim + model.alpha * model.p
        return (lambda r: kappa * p * (p - 1.0) * r ** (p - 2.0) / r ** e,
                lambda r: kappa * p * r ** (p - 1.0) / r ** e)
    # nano-membrane: (2 c g / r)(q / r - (q / r)^-3); nano-fiber adds
    # -(12 a / d)(d / q)^13 + (6 b / d)(d / q)^7 with d its delta
    cg8 = 8.0 * model.c * model.g
    if family == "nano-membrane":
        return lambda r: cg8 / r ** 2, None
    a, b, d = model.vdw_a, model.vdw_b, model.delta
    return (lambda r: cg8 / r ** 2 + 156.0 * a * d ** 12 / r ** 14 - 42.0 * b * d ** 6 / r ** 8,
            lambda r: -(12.0 * a / d) * (d / r) ** 13 + (6.0 * b / d) * (d / r) ** 7)


# (n, dim, delta / h, e axis, k axis)
MODES = {
    "1D": (40, 1, 4.05, 0, 0),
    "2D longitudinal": (16, 2, 3.05, 1, 1),
    "2D shear": (16, 2, 3.05, 0, 1),
}
# 1e-5 h: the largest amplitude the cubic terms allow at 1e-9, where the
# rounding in q - r weighs least (ROADMAP item 10)
FAMILY_AMPLITUDE_IN_H = 1e-5


def family_models(delta_in_h, h, dim):
    """default_models, with nano-fiber's van der Waals length at h / 2: at
    default_models it sits at delta, so the rest lattice is pre-compressed
    and buckles (its 2D shear omega^2 is negative). Scaling vdw_a by s^12
    and vdw_b by s^6 moves that length, delta (2 a / b)^(1/6), by s."""
    models = default_models(delta_in_h * h, dim)
    s = 0.5 / delta_in_h
    fiber = models["nano-fiber"]
    models["nano-fiber"] = dataclasses.replace(fiber, vdw_a=fiber.vdw_a * s ** 12,
                                               vdw_b=fiber.vdw_b * s ** 6)
    return models


def mode_amplitudes(run_mode, cloud, e_axis, k_axis, amplitude, n_steps):
    """The mode's amplitude at every step of a run seeded at rest with
    u = amplitude e sin(2 pi x_k)."""
    shape = np.sin(2.0 * math.pi * cloud.positions[:, k_axis])
    state = zero_state(cloud)
    state.u[:, e_axis] = amplitude * shape
    measured = []
    run_mode(state, n_steps, dict(record_every=n_steps, snapshot_every=1,
                                  on_snapshot=lambda step, s, damage: measured.append(
                                      float(s.u[:, e_axis] @ shape) / float(shape @ shape))))
    assert len(measured) == n_steps + 1
    return np.array(measured)


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("family", sorted(default_models()))
def test_every_family_oscillates_at_its_lattice_frequency(family, mode):
    n, dim, delta_in_h, e_axis, k_axis = MODES[mode]
    h = 1.0 / n
    cloud = build_grid((1.0,) * dim, h, RHO, periodic=(True,) * dim)
    horizon = HorizonConfig(delta_in_h * h)
    bonds = build_bonds(cloud, horizon)
    model = family_models(delta_in_h, h, dim)[family]
    radial, tension = radial_and_tension(model)
    omega2 = lattice_sum(n, delta_in_h, e_axis, k_axis, dim, radial, tension) / RHO
    assert omega2 > 0.0
    dt = stable_dt(cloud, bonds, model)
    amplitude = FAMILY_AMPLITUDE_IN_H * h
    measured = mode_amplitudes(
        lambda state, n_steps, options: run(cloud, bonds, model, state, dt, n_steps, **options),
        cloud, e_axis, k_axis, amplitude, STEPS)

    theta = math.acos(1.0 - 0.5 * omega2 * dt * dt)
    assert theta * STEPS > 4.0 * math.pi   # 2+ periods
    predicted = amplitude * np.cos(theta * np.arange(STEPS + 1))
    assert np.max(np.abs(measured - predicted)) < 1e-9 * amplitude


def remembered_recurrence(omega2, dt, stride, amplitude, n_steps):
    """Velocity Verlet from rest on the acceleration -omega^2 (U_n -
    U_{n - stride}), U = 0 before step 0: the loop's own step order."""
    u = [amplitude]
    v, a = 0.0, -omega2 * amplitude
    for n in range(1, n_steps + 1):
        v_half = v + 0.5 * dt * a
        u.append(u[-1] + dt * v_half)
        a = -omega2 * (u[n] - (u[n - stride] if n >= stride else 0.0))
        v = v_half + 0.5 * dt * a
    return np.array(u)


STRIDE = 14
# (mode, amplitude / h, bound relative to the largest predicted amplitude):
# with stride 14 at dt = stable_dt, omega s is 1.80 for the shear mode and
# 3.09 for the longitudinal one, either side of pi / sqrt(2) = 2.22. The
# unstable mode grows about 600x in 200 steps; seeded at 1e-7 h it peaks
# near 6e-5 h, where its cubic terms weigh about 1e-9 (seeded at 1e-5 h they
# reach 3e-6). The stable mode's best amplitude is 1e-6 h (error 1.7e-10):
# at 1e-5 h the cubic terms give 1.2e-8, and at 1e-7 h the rounding in
# q - r gives 9.3e-10 here and 1.5e-8 for the longitudinal mode at stride 5
# (ROADMAP item 10).
FINITE_CASES = {
    "stable shear": ("2D shear", 1e-6, 1e-8),
    "unstable longitudinal": ("2D longitudinal", 1e-7, 1e-6),
}


@pytest.mark.parametrize("case", sorted(FINITE_CASES))
def test_finite_memory_mode_follows_its_remembered_recurrence(case):
    mode, amplitude_in_h, bound = FINITE_CASES[case]
    n, dim, delta_in_h, e_axis, k_axis = MODES[mode]
    h = 1.0 / n
    cloud = build_grid((1.0,) * dim, h, RHO, periodic=(True,) * dim)
    horizon = HorizonConfig(delta_in_h * h)
    model = PMB(micro=MicroModulus("cylindrical", C0, horizon.delta))
    omega2 = lattice_sum(n, delta_in_h, e_axis, k_axis, dim, lambda r: C0 / r) / RHO
    dt = stable_dt(cloud, build_bonds(cloud, horizon), model)
    memory = MemoryConfig(mode="finite", s=STRIDE * dt)
    stable = math.sqrt(omega2) * memory.s < math.pi / math.sqrt(2.0)
    assert stable == case.startswith("stable")
    amplitude = amplitude_in_h * h
    measured = mode_amplitudes(
        lambda state, n_steps, options: run_fluid(cloud, horizon, model, memory, state, dt,
                                                  n_steps, **options),
        cloud, e_axis, k_axis, amplitude, STEPS)

    predicted = remembered_recurrence(omega2, dt, STRIDE, amplitude, STEPS)
    peak = np.max(np.abs(predicted))
    assert (peak > 100.0 * amplitude) != stable
    assert np.max(np.abs(measured - predicted)) < bound * peak
