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
    PairBuffers,
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
        step=state.step,
        stride=stride,
    )
    fs.push_snapshot()
    return fs


def _remembered_bonds(cloud, state: FluidState, memory: MemoryConfig, horizon: HorizonConfig,
                      last=None):
    """The remembered shape and the bond pairs rediscovered in it.

    last is an earlier (shape, bonds) result, returned again when its shape
    is the very array remembered now: a remembered shape never changes.
    """
    if memory.mode == "zero":
        raise ConfigError("zero-memory runs use fluid_force, not memory_force")
    if memory.mode == "infinite":
        ref = state.reference
    else:
        ref = state.remembered(state.step - state.stride)
    if last is not None and last[0] is ref:
        return last
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


def fluid_workspace(dim):
    """The per-pair buffers of fluid_force in dim dimensions: its search's
    (directed_pairs), and its own scratch, weights, dot and the dv and f
    columns of every axis."""
    return PairBuffers(3, dim + 2), PairBuffers(0, 2 * dim + 3)


def fluid_force(cloud, state: FluidState, memory: MemoryConfig, horizon: HorizonConfig,
                model=None, velocities=None, workspace=None):
    """Zero-memory force: kernel over current-configuration neighbors.

    The second kernel argument is the velocity difference scaled by the
    memory coefficient, so the force depends on velocity differences only
    (Galilean invariant by construction). velocities optionally overrides
    state.velocities. Every call searches the current shape
    (directed_pairs), also a second call at one shape.

    workspace, a fluid_workspace of the cloud's dimension, holds the
    directed pairs and the per-pair columns; without one a fresh workspace
    serves the call. The result is a fresh (N, dim) array either way, never
    a view into the workspace, which the next call overwrites. Pair vectors
    are handled one contiguous column per axis; the dot product is a running
    column sum, the same additions in the same order as np.sum(dv * n, axis=1).
    """
    v = state.velocities if velocities is None else velocities
    dim = v.shape[1]
    search, own = fluid_workspace(dim) if workspace is None else workspace
    source, neighbors, xi, dist = directed_pairs(state.positions, horizon.delta, cloud.box,
                                                 cloud.periodic, buffers=search)
    if not dist.all():
        k = int(np.flatnonzero(dist == 0.0)[0])
        raise SingularConfigurationError(
            f"particles {int(source[k])} and {int(neighbors[k])} coincide "
            "in the deformed configuration"
        )
    _, columns = own.reserve(dist.size)
    scratch, weights, dot = columns[:3]
    dv, f = columns[3:dim + 3], columns[dim + 3:]
    # indices come from the search, so mode "clip" only spares numpy a copy of out
    np.take(cloud.volumes, neighbors, out=weights, mode="clip")
    if horizon.partial_volume == "linear" and dist.size:
        weights *= partial_volume_factor(dist, cloud.spacing, horizon.delta)
    for v_k, dv_k in zip(v.T, dv):
        np.take(v_k, neighbors, out=dv_k, mode="clip")
        np.take(v_k, source, out=scratch, mode="clip")
        dv_k -= scratch
    if memory.fluid_kernel == "linear":
        for xi_k, n_k in zip(xi.T, f):
            np.divide(xi_k, dist, out=n_k)   # n_k, scaled into f_k below
        np.multiply(dv[0], f[0], out=dot)
        for dv_k, n_k in zip(dv[1:], f[1:]):
            dot += np.multiply(dv_k, n_k, out=scratch)
        dot *= memory.coefficient
        f *= dot
    else:
        if model is None:
            raise ConfigError("fluid_kernel 'kernel' requires a bond model")
        f = model.force(xi, memory.coefficient * dv.T).T
    f *= weights
    return np.column_stack([np.bincount(source, weights=f_k, minlength=cloud.n_points)
                            for f_k in f])


class MemoryForce:
    """Force operator of the finite- and zero-memory dynamics.

    Each evaluation lifts the loop's displacement state onto current
    coordinates (cloud.positions + u) in one FluidState; finite memory pushes
    every step's shape into its ring buffer and keeps the last remembered
    shape with its bonds, so the force and the energy of one step share one
    search. Only finite memory's force is carried over to the next step:
    settle returns None otherwise. The zero-memory force depends on
    velocity, so each shape is searched twice: at the end of one step and
    at the start of the next. (A search reused within the step waits on the
    benchmark's tracing, which counts both searches.)
    Zero memory keeps one fluid_workspace for the operator's lifetime: its
    force calls refill the directed pair arrays (source, neighbors, xi,
    dist) and the force columns instead of allocating them per call.
    """

    def __init__(self, cloud, horizon: HorizonConfig, model, memory: MemoryConfig,
                 state: dynamics.SimState, dt: float):
        stride = max(1, int(round(memory.s / dt))) if memory.mode == "finite" else 0
        self.cloud, self.horizon, self.model, self.memory = cloud, horizon, model, memory
        self.fs = fluid_state(cloud, state, stride=stride)
        self._last = None
        self._workspace = fluid_workspace(cloud.dim) if memory.mode == "zero" else None

    def _lift(self, state, v):
        fs = self.fs
        fs.positions = self.cloud.positions + state.u
        fs.velocities = v
        fs.step = state.step
        return fs

    def _remembered(self, fs):
        self._last = _remembered_bonds(self.cloud, fs, self.memory, self.horizon, self._last)
        return self._last

    def force(self, state, v):
        fs = self._lift(state, v)
        if self.memory.mode == "zero":
            return fluid_force(self.cloud, fs, self.memory, self.horizon, model=self.model,
                               workspace=self._workspace)
        ref, bonds = self._remembered(fs)
        return dynamics.internal_force(self.cloud, bonds, self.model, fs.positions - ref)

    def potential(self, state):
        """Elastic energy against the remembered shape; the viscous kernel
        of zero memory stores none."""
        if self.memory.mode == "zero":
            return 0.0
        fs = self._lift(state, state.v)
        ref, bonds = self._remembered(fs)
        return dynamics.potential_energy(self.cloud, bonds, self.model, fs.positions - ref)

    def damage(self):
        return np.zeros(self.cloud.n_points)

    def settle(self, state, dt, force):
        if self.memory.mode != "finite":
            return None
        self._lift(state, state.v).push_snapshot()
        return force


def run_fluid(cloud, horizon: HorizonConfig, model, memory: MemoryConfig,
              state: dynamics.SimState, dt: float, n_steps: int, load=None,
              record_every: int = 1, snapshot_every: int = 0,
              on_snapshot=None) -> dynamics.RunResult:
    """Advance the memory dynamics through the solid run's loop and series.

    finite memory rediscovers bonds against the trailing shape each
    evaluation. zero memory advects particles under the velocity-difference
    kernel; its potential column is zero (the viscous kernel stores no
    elastic energy). infinite memory is the solid theory on a network this
    function does not hold (a preset's may carry a seeded crack), so it is
    refused: run dynamics.run on that network.
    """
    if memory.mode == "infinite":
        raise ConfigError("[memory] mode: infinite memory runs the reference bond "
                          "network; integrate it with dynamics.run")
    options = dict(load=load, record_every=record_every, snapshot_every=snapshot_every,
                   on_snapshot=on_snapshot)
    op = MemoryForce(cloud, horizon, model, memory, state, dt)
    return dynamics.integrate(cloud, op, state, dt, n_steps, **options)
