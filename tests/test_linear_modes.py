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
"""

from itertools import product
import math

import numpy as np
import pytest

from peribond.discretization import HorizonConfig, build_bonds, build_grid
from peribond.dynamics import run, stable_dt, zero_state
from peribond.fluidpd import MemoryConfig, run_fluid
from peribond.kernels import PMB, MicroModulus

REL_TOL = 1e-10
C = 50.0     # [memory] coefficient, as the fluid-shear preset's
RHO = 1.0
STEPS = 200


def lattice_sum(n, delta_in_h, e_axis, k_axis, dim, radial):
    """sum_j V_j taper_j radial(r_j) (n_j . e)^2 (1 - cos k . xi_j) for the
    mode e sin(2 pi x_k) on the unit lattice of n points per axis, over the
    integer offsets within the horizon."""
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
        total += (h ** dim * taper * radial(r) * n_e ** 2
                  * (1.0 - math.cos(2.0 * math.pi * xi[k_axis])))
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
