"""The benchmark's four workloads: seeded builders and their checks.

Each workload turns a seed into ready-to-run objects (a scenarios.SimSetup)
through the library's public builders, then names the physics it must still
show after the run. The seed only perturbs initial conditions, so every seed
exercises the same code paths with about the same work; on the plate it moves
which steps break bonds, and so the force refreshes, by a few percent.
"""

from dataclasses import dataclass
import math

import numpy as np

from peribond import discretization, dynamics, fluidpd, scenarios
from peribond.kernels import PMB, BondBreaker, MicroModulus

import oracle

FORCE_TOL = 1e-12        # final-state force against the reference, relative
MOMENTUM_TOL = 1e-12     # momentum drift over (force scale x elapsed time)
BAR_ORACLE_TOL = 0.02    # wave error over amplitude, as criterion 05's finest level
BAR_AMPLITUDE = 1e-3     # initial wave amplitude
FLUID_V0 = 1.0


def integrate(setup, on_snapshot):
    """Run a setup through dynamics.run, or fluidpd.run_fluid when it has
    no reference bond network."""
    kwargs = dict(load=setup.load, record_every=setup.record_every,
                  snapshot_every=setup.snapshot_every, on_snapshot=on_snapshot)
    if setup.bonds is None:
        return fluidpd.run_fluid(setup.cloud, setup.horizon, setup.model, setup.memory,
                                 setup.state, setup.dt, setup.n_steps, **kwargs)
    return dynamics.run(setup.cloud, setup.bonds, setup.model, setup.state,
                        setup.dt, setup.n_steps, **kwargs)


def reference_forces(setup, state):
    """(library force, reference force) at a state, from public functions."""
    cloud = setup.cloud
    geometry = (cloud.volumes, cloud.spacing, cloud.box, cloud.periodic,
                setup.horizon.delta)
    if setup.bonds is None:
        fs = fluidpd.fluid_state(cloud, state)
        got = fluidpd.fluid_force(cloud, fs, setup.memory, setup.horizon)
        want = oracle.linear_fluid_force(fs.positions, fs.velocities, *geometry,
                                         setup.memory.coefficient)
        return got, want
    micro = setup.model.micro
    if micro.family != "cylindrical":
        raise ValueError(f"reference covers the cylindrical micro-modulus, not {micro.family}")
    bonds = setup.bonds
    got = dynamics.internal_force(cloud, bonds, setup.model, state.u)
    mu_of = oracle.pair_mu(bonds.source, bonds.neighbors, bonds.mu, cloud.n_points)
    want = oracle.pmb_force(cloud.positions, state.u, *geometry, micro.c0, mu_of)
    return got, want


def _finite(result):
    ok = (np.all(np.isfinite(result.state.u)) and np.all(np.isfinite(result.state.v))
          and all(np.all(np.isfinite(col)) for col in result.series.values()))
    return [] if ok else ["non-finite state or series"]


class _Workload:
    def check_start(self, setup):
        """Problems with the freshly built setup; none by default."""
        return []


@dataclass(frozen=True)
class PlateFracture(_Workload):
    """plate2d-precrack: seeded crack opened by an opposing load."""

    name = "plate-fracture"
    n: int = 64
    n_steps: int = 100
    record_every: int = 50    # sparse, as the preset's; bonds break between records

    def build(self, seed):
        setup = scenarios.build_plate_precrack(n=self.n, n_steps=self.n_steps,
                                               record_every=self.record_every)
        noise = np.random.default_rng(seed).standard_normal(setup.state.u.shape)
        setup.state.u += 1e-4 * setup.cloud.spacing * noise
        setup.snapshot_every = self.n_steps
        return setup

    def check_start(self, setup):
        dmg0 = setup.bonds.damage()
        far = np.abs(setup.cloud.positions[:, 1] - 0.5) > 2.0 * setup.horizon.delta
        if np.allclose(dmg0[far], 0.0) and dmg0.max() > 0.0:
            return []
        return ["far field not clean at t = 0, or no seeded crack"]

    def check_end(self, setup, result, forces):
        dmg = result.series["damage_mean"]
        bad = [] if np.all(np.diff(dmg) > 0.0) else [f"damage not strictly increasing: {dmg}"]
        return bad + _finite(result)


@dataclass(frozen=True)
class FluidShear(_Workload):
    """fluid-shear: zero-memory shear layer with a seeded phase."""

    name = "fluid-shear"
    n: int = 24
    n_steps: int = 150

    def build(self, seed):
        setup = scenarios.build_fluid_shear(n=self.n, n_steps=self.n_steps, v0=FLUID_V0)
        phase = 2.0 * math.pi * np.random.default_rng(seed).random()
        y = setup.cloud.positions[:, 1] / setup.cloud.box[1]
        setup.state.v[:, 0] = FLUID_V0 * np.sin(2.0 * math.pi * y + phase)
        setup.record_every = 1
        setup.snapshot_every = self.n_steps
        return setup

    def check_end(self, setup, result, forces):
        kin = result.series["kinetic"]
        bad = [] if np.all(np.diff(kin) <= 0.0) else ["kinetic energy increased"]
        return bad + _finite(result)


@dataclass(frozen=True)
class Pmb3dPeriodic(_Workload):
    """Periodic PMB cube, m = 3, with a breaker that reads but never trips."""

    name = "pmb3d-periodic"
    n: int = 24
    n_steps: int = 3

    def build(self, seed):
        h = 1.0 / self.n
        cloud = discretization.build_grid((1.0,) * 3, h, 1.0, periodic=(True,) * 3)
        horizon = discretization.HorizonConfig(3.0 * h)
        bonds = discretization.build_bonds(cloud, horizon)
        model = PMB(micro=MicroModulus("cylindrical", 1.0, horizon.delta),
                    breaker=BondBreaker("critical-stretch", s0=0.5))
        dt = dynamics.stable_dt(cloud, bonds, model)
        state = dynamics.zero_state(cloud)
        state.u[:] = 1e-2 * h * np.random.default_rng(seed).standard_normal(state.u.shape)
        return scenarios.SimSetup(
            cloud=cloud, bonds=bonds, model=model, state=state, dt=dt,
            n_steps=self.n_steps, horizon=horizon, record_every=self.n_steps,
            snapshot_every=self.n_steps,
        )

    def check_end(self, setup, result, forces):
        p = np.column_stack([result.series[c] for c in ("px", "py", "pz")])
        drift = float(np.max(np.abs(p - p[0])))
        scale = float(np.sum(setup.cloud.volumes * np.linalg.norm(forces, axis=1)))
        bad = []
        if not drift <= MOMENTUM_TOL * scale * result.state.t:
            bad.append(f"momentum drift {drift:.3e} over scale {scale * result.state.t:.3e}")
        if not np.all(setup.bonds.mu == 1.0):
            bad.append("breaker tripped")
        return bad + _finite(result)


@dataclass(frozen=True)
class BarWaveIO(_Workload):
    """bar1d-wave refined to 640 points, recording every step."""

    name = "bar-wave-io"
    delta: float = 0.0125
    m: int = 8
    n_steps: int = 1000
    snapshot_every: int = 10

    def build(self, seed):
        setup = scenarios.build_bar_wave(delta=self.delta, m=self.m,
                                         n_steps=self.n_steps, amplitude=BAR_AMPLITUDE)
        # Shift the wave by whole cells: the oracle stays exact.
        shift = int(np.random.default_rng(seed).integers(setup.cloud.n_points))
        setup.state.u = np.roll(setup.state.u, -shift, axis=0)
        setup.state.v = np.roll(setup.state.v, -shift, axis=0)
        base, dx = setup.oracle, shift * setup.cloud.spacing
        setup.oracle = lambda x, t: base(np.asarray(x) + dx, t)
        setup.record_every = 1
        setup.snapshot_every = self.snapshot_every
        return setup

    def check_end(self, setup, result, forces):
        x = setup.cloud.positions[:, 0]
        err = np.max(np.abs(result.state.u[:, 0] - setup.oracle(x, result.state.t)))
        bad = []
        if not err <= BAR_ORACLE_TOL * BAR_AMPLITUDE:
            bad.append(f"wave error {err / BAR_AMPLITUDE:.3e} of amplitude")
        return bad + _finite(result)


WORKLOADS = {w.name: w for w in (PlateFracture(), FluidShear(), Pmb3dPeriodic(), BarWaveIO())}
