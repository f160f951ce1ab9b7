"""Fading-memory extension: horizons rediscovered in past or current shapes.

The solid theory binds each point to the neighbors it had in the reference
configuration. Here the horizon ball is re-evaluated against the remembered
configuration a memory span s in the past: infinite memory reproduces the
reference network (standard solid behavior), a finite span rebinds bonds
against the trailing shape, and zero memory rebinds against the current shape
with a velocity-difference kernel — a nonlocal viscous fluid.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from . import dynamics
from .discretization import (
    HorizonConfig,
    PointCloud,
    directed_pairs,
    pair_network,
    partial_volume_factor,
)
from .errors import ConfigError, SimulationError, SingularConfigurationError

MEMORY_MODES = ("infinite", "finite", "zero")
FLUID_KERNELS = ("linear", "kernel")


@dataclass(frozen=True)
class MemoryConfig:
    """Memory span and fluid-limit kernel selection.

    coefficient scales the second argument of the fluid kernel (it absorbs
    the vanishing time increment of the zero-memory limit). fluid_kernel
    'linear' applies f = coefficient (dv . n) n; 'kernel' evaluates the
    configured bond family at (xi_geo, coefficient * dv).
    """

    mode: str = "infinite"
    s: float = math.inf
    coefficient: float = 1.0
    fluid_kernel: str = "linear"

    def __post_init__(self):
        if self.mode not in MEMORY_MODES:
            raise ConfigError(f"memory mode must be one of {MEMORY_MODES}, got {self.mode!r}")
        if self.mode == "finite" and not (self.s > 0.0 and math.isfinite(self.s)):
            raise ConfigError(f"finite memory requires a positive span s, got {self.s}")
        if self.fluid_kernel not in FLUID_KERNELS:
            raise ConfigError(
                f"fluid kernel must be one of {FLUID_KERNELS}, got {self.fluid_kernel!r}"
            )
        if self.mode == "zero" and not self.coefficient > 0.0:
            raise ConfigError(f"fluid coefficient must be positive, got {self.coefficient}")


@dataclass
class FluidState:
    """Current shape, velocities, and the remembered-position ring buffer."""

    positions: np.ndarray   # (N, dim) current coordinates chi(t)
    velocities: np.ndarray  # (N, dim)
    reference: np.ndarray   # (N, dim) reference coordinates (pre-history shape)
    t: float = 0.0
    step: int = 0
    stride: int = 0         # memory depth in steps (finite mode)
    _snaps: dict = field(default_factory=dict)

    def push_snapshot(self):
        self._snaps[self.step] = self.positions.copy()
        for key in [k for k in self._snaps if k < self.step - self.stride]:
            del self._snaps[key]

    def remembered(self, target_step: int) -> np.ndarray:
        """Positions at an earlier step; the reference shape before t = 0."""
        if target_step < 0:
            return self.reference
        try:
            return self._snaps[target_step]
        except KeyError:
            raise SimulationError(
                f"insufficient history: step {target_step} not in the ring "
                f"buffer (depth {self.stride}, current step {self.step})"
            ) from None


def fluid_state(cloud: PointCloud, state: dynamics.SimState, stride=0):
    """Lift a displacement/velocity state onto current coordinates."""
    fs = FluidState(
        positions=cloud.positions + state.u,
        velocities=state.v.copy(),
        reference=cloud.positions,
        t=state.t,
        step=state.step,
        stride=stride,
    )
    fs.push_snapshot()
    return fs


def _remembered_bonds(cloud, state: FluidState, memory: MemoryConfig, horizon: HorizonConfig):
    """The remembered shape and the bond pairs rediscovered in it."""
    if memory.mode == "zero":
        raise ConfigError("zero-memory runs use fluid_force, not memory_force")
    if memory.mode == "infinite":
        ref = state.reference
    else:
        ref = state.remembered(state.step - state.stride)
    return ref, pair_network(cloud, horizon, ref)


def memory_force(cloud, state: FluidState, model, memory: MemoryConfig, horizon: HorizonConfig):
    """Force density with the horizon bound to the remembered configuration.

    Bonds are rediscovered in the shape a memory span in the past; the kernel
    sees xi as the remembered separation and eta as the relative displacement
    accumulated since. With infinite memory this equals the reference-network
    internal force of the solid theory.
    """
    ref, bonds = _remembered_bonds(cloud, state, memory, horizon)
    return dynamics.internal_force(cloud, bonds, model, state.positions - ref)


def fluid_force(cloud, state: FluidState, memory: MemoryConfig, horizon: HorizonConfig,
                model=None, velocities=None):
    """Zero-memory force: kernel over current-configuration neighbors.

    The second kernel argument is the velocity difference scaled by the
    memory coefficient, so the force depends on velocity differences only
    (Galilean invariant by construction). velocities optionally overrides
    state.velocities (used for the half-step evaluation of the integrator).
    """
    v = state.velocities if velocities is None else velocities
    source, neighbors, xi, dist = directed_pairs(
        state.positions, horizon.delta, cloud.box, cloud.periodic
    )
    if np.any(dist == 0.0):
        k = int(np.flatnonzero(dist == 0.0)[0])
        raise SingularConfigurationError(
            f"particles {int(source[k])} and {int(neighbors[k])} coincide "
            "in the deformed configuration"
        )
    weights = cloud.volumes[neighbors].copy()
    if horizon.partial_volume == "linear" and dist.size:
        weights *= partial_volume_factor(dist, cloud.spacing, horizon.delta)
    dv = v[neighbors] - v[source]
    if memory.fluid_kernel == "linear":
        n = xi / dist[:, None]
        f = memory.coefficient * np.sum(dv * n, axis=1)[:, None] * n
    else:
        if model is None:
            raise ConfigError("fluid_kernel 'kernel' requires a bond model")
        f = model.force(xi, memory.coefficient * dv)
    return dynamics._accumulate(source, f * weights[:, None], cloud.n_points)


def run_fluid(
    cloud,
    horizon: HorizonConfig,
    model,
    memory: MemoryConfig,
    state: dynamics.SimState,
    dt: float,
    n_steps: int,
    load=None,
    record_every: int = 1,
    snapshot_every: int = 0,
    on_snapshot=None,
    keep_snapshots: bool = False,
) -> dynamics.RunResult:
    """Advance the memory dynamics, emitting the same series as a solid run.

    infinite memory delegates to the solid integrator on the reference bond
    network (bit-for-bit the same trajectory). finite memory rediscovers
    bonds against the trailing shape each evaluation. zero memory advects
    particles under the velocity-difference kernel; its potential column is
    zero (the viscous kernel stores no elastic energy).
    """
    if memory.mode == "infinite":
        from .discretization import build_bonds

        bonds = build_bonds(cloud, horizon)
        return dynamics.run(
            cloud, bonds, model, state, dt, n_steps,
            load=load, record_every=record_every, snapshot_every=snapshot_every,
            on_snapshot=on_snapshot, keep_snapshots=keep_snapshots,
        )

    if n_steps < 0:
        raise ConfigError(f"step count must be non-negative, got {n_steps}")
    if record_every < 1:
        raise ConfigError(f"record cadence must be >= 1, got {record_every}")
    if memory.mode == "finite":
        stride = max(1, int(round(memory.s / dt)))
    else:
        stride = 0
    fs = fluid_state(cloud, state, stride=stride)
    inv_rho = 1.0 / cloud.density

    def force_at(velocities):
        if memory.mode == "finite":
            return memory_force(cloud, fs, model, memory, horizon)
        return fluid_force(cloud, fs, memory, horizon, model=model, velocities=velocities)

    def series_row():
        kin = dynamics.kinetic_energy(cloud, fs.velocities)
        if memory.mode == "finite":
            ref, bonds = _remembered_bonds(cloud, fs, memory, horizon)
            pot = dynamics.potential_energy(cloud, bonds, model, fs.positions - ref)
        else:
            pot = 0.0
        p = dynamics.momentum(cloud, fs.velocities)
        return [fs.t, kin, pot, kin + pot, *p.tolist(), 0.0]

    def sync_state():
        state.u = fs.positions - fs.reference
        state.v = fs.velocities
        state.t = fs.t
        state.step = fs.step

    cols = dynamics.series_columns(cloud.dim)
    rows = [series_row()]
    result = dynamics.RunResult(columns=cols, series={}, state=state)
    damage = np.zeros(cloud.n_points)

    def emit_snapshot():
        sync_state()
        if on_snapshot is not None:
            on_snapshot(fs.step, state, damage)
        if keep_snapshots:
            result.snapshots.append((fs.step, state.copy(), damage))

    if snapshot_every > 0 or n_steps == 0:
        emit_snapshot()

    for k in range(1, n_steps + 1):
        b = load.body_force(cloud.positions, fs.t) if load is not None else 0.0
        a0 = (force_at(fs.velocities) + b) * inv_rho
        v_half = fs.velocities + 0.5 * dt * a0
        fs.positions += dt * v_half
        fs.t += dt
        fs.step += 1
        fs.push_snapshot()
        b1 = load.body_force(cloud.positions, fs.t) if load is not None else 0.0
        a1 = (force_at(v_half) + b1) * inv_rho
        fs.velocities = v_half + 0.5 * dt * a1
        if not (np.all(np.isfinite(fs.positions)) and np.all(np.isfinite(fs.velocities))):
            raise SimulationError(f"non-finite state detected at step {fs.step}")
        if k % record_every == 0 or k == n_steps:
            rows.append(series_row())
        if snapshot_every > 0 and (k % snapshot_every == 0 or k == n_steps):
            emit_snapshot()

    sync_state()
    table = np.asarray(rows)
    result.series = {name: table[:, j] for j, name in enumerate(cols)}
    return result
