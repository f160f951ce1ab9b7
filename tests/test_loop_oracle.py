"""The single Verlet loop against the loops it replaced.

Solid runs and memory runs share dynamics.integrate through a force
operator. The references below are the earlier dedicated loops, kept as slow
oracles: the solid loop with its breaker and force refresh (the operator form
must reproduce it bit for bit), and the position-form memory loop that
advanced current coordinates directly (the displacement form rounds
differently, so it is compared at 1e-12 relative).
"""

import math

import numpy as np
import pytest

from peribond import (
    HorizonConfig,
    MemoryConfig,
    build_fluid_shear,
    build_plate_precrack,
    build_grid,
    materialize,
    parse_config,
    run,
    run_fluid,
    zero_state,
)
from peribond import dynamics, fluidpd
from peribond.discretization import pair_network
from peribond.dynamics import (
    bond_stretches,
    internal_force,
    kinetic_energy,
    momentum,
    potential_energy,
)
from peribond.fluidpd import FluidState, fluid_force, fluid_state
from peribond.kernels import MicroModulus, PMB, update_breaker

REL = 1e-12


def reference_solid_run(cloud, bonds, model, state, dt, n_steps, load, record_every):
    """Velocity Verlet on a fixed network, breaker after the second force."""
    inv_rho = 1.0 / cloud.density

    def row():
        kin = kinetic_energy(cloud, state.v)
        pot = potential_energy(cloud, bonds, model, state.u)
        return [state.t, kin, pot, kin + pot, *momentum(cloud, state.v).tolist(),
                float(np.mean(bonds.damage()))]

    def body(t):
        return load.body_force(cloud.positions, t) if load is not None else 0.0

    rows = [row()]
    force = internal_force(cloud, bonds, model, state.u)
    for k in range(1, n_steps + 1):
        v_half = state.v + (0.5 * dt * inv_rho) * (force + body(state.t))
        state.u += dt * v_half
        t_new = state.t + dt
        force = internal_force(cloud, bonds, model, state.u)
        state.v = v_half + (0.5 * dt * inv_rho) * (force + body(t_new))
        state.t = t_new
        state.step += 1
        breaker = model.breaker
        if breaker.active:
            s = bond_stretches(bonds, state.u)
            thresholds = model.breaker_thresholds(bonds.xi_norm)
            if update_breaker(breaker, s, dt, bonds.mu, bonds.accum, thresholds) > 0:
                force = internal_force(cloud, bonds, model, state.u)
        if k % record_every == 0 or k == n_steps:
            rows.append(row())
    return np.asarray(rows)


def reference_memory_run(cloud, horizon, model, memory, state, dt, n_steps, record_every):
    """Position-form Verlet: current coordinates advance directly. Finite
    memory keeps every step's shape and binds step n to the shape of step
    n - stride (the reference shape before step 0), whose pair_network the
    unbound entry points evaluate."""
    stride = max(1, int(round(memory.s / dt))) if memory.mode == "finite" else 0
    fs = fluid_state(cloud, state)
    shapes = [fs.positions.copy()]
    inv_rho = 1.0 / cloud.density
    t = state.t

    def remembered():
        """The remembered shape's network and the displacement since."""
        n = len(shapes) - 1 - stride
        ref = shapes[n] if n >= 0 else cloud.positions
        return pair_network(cloud, horizon, ref), fs.positions - ref

    def force_at(velocities):
        if memory.mode == "finite":
            bonds, u = remembered()
            return internal_force(cloud, bonds, model, u)
        return fluid_force(cloud, FluidState(fs.positions, velocities), memory, horizon,
                           model=model)

    def row():
        kin = kinetic_energy(cloud, fs.velocities)
        pot = 0.0
        if memory.mode == "finite":
            bonds, u = remembered()
            pot = potential_energy(cloud, bonds, model, u)
        return [t, kin, pot, kin + pot, *momentum(cloud, fs.velocities).tolist(), 0.0]

    rows = [row()]
    for k in range(1, n_steps + 1):
        v_half = fs.velocities + 0.5 * dt * force_at(fs.velocities) * inv_rho
        fs.positions += dt * v_half
        t += dt
        shapes.append(fs.positions.copy())
        fs.velocities = v_half + 0.5 * dt * force_at(v_half) * inv_rho
        if k % record_every == 0 or k == n_steps:
            rows.append(row())
    return fs.positions - cloud.positions, fs.velocities, np.asarray(rows)


def assert_close(got, want, scale, what):
    err = float(np.max(np.abs(got - want))) if np.size(want) else 0.0
    assert err <= REL * scale, f"{what}: {err:.3e} over scale {scale:.3e}"


def assert_matches_reference(cloud, result, u, v, rows):
    """u, v and every series column within REL of the reference, each
    relative to its own magnitude; the momentum columns, which sit at
    round-off about zero, relative to the run's momentum unit."""
    p_unit = cloud.density * float(np.sum(cloud.volumes)) * float(np.max(np.abs(v)))
    assert_close(result.state.u, u, float(np.max(np.abs(u))), "u")
    assert_close(result.state.v, v, float(np.max(np.abs(v))), "v")
    assert rows.shape == (len(result.series["t"]), len(result.columns))
    for j, name in enumerate(result.columns):
        want = rows[:, j]
        scale = p_unit if name in ("px", "py", "pz") else float(np.max(np.abs(want)))
        assert_close(result.series[name], want, scale, name)


# A sheared anti-plane-shear plate whose bonds break one by one at their own
# critical stretch u_star/r (74 of its 100 steps break some).
APS_SHEAR = """[domain]
dim = 2
box = 1, 1
h = 0.03125
periodic = false, false
[horizon]
delta = 0.09375
[kernel]
family = anti-plane-shear
c = 10000
u_star = 0.0003
[load]
preset = sinusoidal-in-x
amplitude = 0, 0.002
wavelength = 1
"""


@pytest.mark.parametrize("preset, steps, extra", [
    pytest.param("plate2d-precrack", 100, "", id="plate2d-precrack-100"),
    pytest.param("bar1d-wave", None, "", id="bar1d-wave-None"),
    pytest.param("plate2d-precrack", 100, "[breaker]\nmode = theta-eps\neps = 0.001\n",
                 id="plate2d-precrack-theta-eps"),
    pytest.param("none", 100, APS_SHEAR, id="anti-plane-shear-u_star"),
])
def test_solid_loop_is_bitwise_the_reference_loop(preset, steps, extra):
    text = f"[scenario]\npreset = {preset}\n" + extra
    if steps is not None:
        text += f"[time]\nsteps = {steps}\n"
    cfg = parse_config(text)
    a, b = materialize(cfg), materialize(cfg)
    mu0 = a.bonds.mu.copy()
    result = run(a.cloud, a.bonds, a.model, a.state, a.dt, a.n_steps,
                 load=a.load, record_every=a.record_every)
    rows = reference_solid_run(b.cloud, b.bonds, b.model, b.state, b.dt, b.n_steps,
                               b.load, b.record_every)
    if "theta-eps" in extra:  # the graded breaker leaves bonds part-way
        assert np.any((a.bonds.mu > 0.0) & (a.bonds.mu < 1.0))
    if "u_star" in extra:
        assert np.any(a.bonds.mu != mu0)
    assert np.array_equal(a.state.u, b.state.u)
    assert np.array_equal(a.state.v, b.state.v)
    assert np.array_equal(a.bonds.mu, b.bonds.mu)
    for j, name in enumerate(result.columns):
        assert np.array_equal(result.series[name], rows[:, j]), name


def test_plate_run_evaluates_each_pair_once_per_step(monkeypatch):
    # one full-network kernel call per step (plus step 1's incoming force);
    # a step that breaks bonds re-evaluates just those pairs, in one call.
    # The breaker takes its stretch from the kernel's own lengths, and the
    # operator keeps no per-pair array from one step to the next beyond the
    # reference data it formed once.
    setup = build_plate_precrack(n=32, n_steps=60, record_every=30)
    n_pairs = setup.bonds.n_bonds
    sizes, changed, held = [], [], []
    exact_coef, exact_update = PMB._coef, dynamics.update_breaker
    exact_settle = dynamics.NetworkForce.settle

    def counted_coef(self, q, r, k, mu):
        sizes.append(len(q))
        return exact_coef(self, q, r, k, mu)

    def counted_update(*args, **kwargs):
        changed.append(exact_update(*args, **kwargs))
        return changed[-1]

    def no_stretches(*args, **kwargs):
        raise AssertionError("the loop recomputed the stretches")

    def checked_settle(self, state, dt, force):
        out = exact_settle(self, state, dt, force)
        # k and the support mask are the network's reference data, formed once
        kept = [k for k, v in vars(self).items() if k not in ("k", "inside")
                and isinstance(v, np.ndarray) and v.shape[:1] == (n_pairs,)]
        kept += [] if self._pass is None else list(self._pass)
        held.append(kept)
        return out

    monkeypatch.setattr(PMB, "_coef", counted_coef)
    monkeypatch.setattr(dynamics, "update_breaker", counted_update)
    monkeypatch.setattr(dynamics, "bond_stretches", no_stretches)
    monkeypatch.setattr(dynamics.NetworkForce, "settle", checked_settle)
    run(setup.cloud, setup.bonds, setup.model, setup.state, setup.dt, setup.n_steps,
        load=setup.load, record_every=setup.record_every)

    partial = [n for n in sizes if n != n_pairs]
    assert sizes.count(n_pairs) == setup.n_steps + 1
    assert len(changed) == setup.n_steps
    assert len(partial) == sum(1 for n in changed if n) > 0
    assert partial == [n for n in changed if n]
    assert held == [[]] * setup.n_steps
    assert setup.bonds.scatter.format == "csr"  # rows sliced by the refresh
    op = dynamics.NetworkForce(setup.cloud, setup.bonds, setup.model)
    with pytest.raises(RuntimeError, match="settle needs"):  # no force at this state
        op.settle(setup.state, setup.dt, np.zeros_like(setup.state.u))


def test_zero_memory_run_matches_position_form_loop():
    a, b = build_fluid_shear(n=12), build_fluid_shear(n=12)
    result = run_fluid(a.cloud, a.horizon, a.model, a.memory, a.state, a.dt, 150,
                       record_every=10)
    u, v, rows = reference_memory_run(b.cloud, b.horizon, b.model, b.memory, b.state,
                                      b.dt, 150, 10)
    assert_matches_reference(a.cloud, result, u, v, rows)


def finite_memory_case():
    cloud = build_grid((1.0,), 0.125, 1.0, periodic=(True,))
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 0.375))
    state = zero_state(cloud)
    state.v[:, 0] = 0.05 * np.sin(2.0 * math.pi * cloud.positions[:, 0])
    return cloud, HorizonConfig(0.375), model, MemoryConfig(mode="finite", s=0.05), state


def test_finite_memory_run_matches_position_form_loop():
    cloud, horizon, model, memory, state = finite_memory_case()
    result = run_fluid(cloud, horizon, model, memory, state.copy(), 0.01, 100,
                       record_every=10)
    u, v, rows = reference_memory_run(cloud, horizon, model, memory, state, 0.01, 100, 10)
    assert result.series["potential"][-1] > 0.0
    assert_matches_reference(cloud, result, u, v, rows)


def test_finite_memory_carries_its_force(monkeypatch):
    # one remembered-shape search per distinct remembered shape: the
    # reference shape (before the memory span has elapsed), the step-0
    # snapshot, and the snapshots of steps 1 .. n_steps - stride. The
    # end-of-step force is reused by the next step and each recorded row's
    # energy reuses that step's search. A remembered shape's network holds
    # the same CSR operator as the reference network.
    calls = []

    def counted(*args, **kwargs):
        calls.append(pair_network(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(fluidpd, "pair_network", counted)
    cloud, horizon, model, memory, state = finite_memory_case()
    n_steps = 30
    result = run_fluid(cloud, horizon, model, memory, state, 0.01, n_steps,
                       record_every=10)
    records = len(result.series["t"])
    stride = 5  # memory span 0.05 over dt 0.01
    assert records == 4
    assert len(calls) == 2 + n_steps - stride
    assert {bonds.scatter.format for bonds in calls} == {"csr"}
