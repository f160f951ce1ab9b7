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

    Finite memory is linearly stable when omega_bound s < pi/sqrt(2), a
    sufficient bound. omega_bound^2 = 2 max_i sum_j w C / rho is the sum
    stable_dt uses, so at safety 0.5 it reads s <= 2.22 stable_dt. Longer
    spans may grow without bound; the config does not refuse them.
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


def _remembered_shape(state: FluidState, memory: MemoryConfig):
    """The shape the bonds are found in, a memory span in the past. It never
    changes, so its identity names its bonds."""
    if memory.mode == "zero":
        raise ConfigError("zero-memory runs use fluid_force, not memory_force")
    if memory.mode == "infinite":
        return state.reference
    return state.remembered(state.step - state.stride)


def memory_force(cloud, state: FluidState, model, memory: MemoryConfig, horizon: HorizonConfig):
    """Force density with the horizon bound to the remembered configuration.

    Bonds are rediscovered in the shape a memory span in the past; the kernel
    sees xi as the remembered separation and eta as the relative displacement
    accumulated since. With infinite memory this equals the reference-network
    internal force of the solid theory.
    """
    ref = _remembered_shape(state, memory)
    bonds = pair_network(cloud, horizon, ref)
    return dynamics.internal_force(cloud, bonds, model, state.positions - ref)


def fluid_workspace(dim):
    """The per-pair buffers of fluid_force in dim dimensions: its search's
    source and neighbors (directed_pairs, which also holds the search in
    them), and its own scratch, weights, dot and the dv and f columns of
    every axis, in the same 2P entries."""
    return PairBuffers(2, 2 * dim + 3)


def fluid_force(cloud, state: FluidState, memory: MemoryConfig, horizon: HorizonConfig,
                model=None, velocities=None, workspace=None):
    """Zero-memory force: kernel over current-configuration neighbors.

    The second kernel argument is the velocity difference scaled by the
    memory coefficient, so the force depends on velocity differences only
    (Galilean invariant by construction). velocities optionally overrides
    state.velocities. The current shape's pairs come from directed_pairs
    through the workspace, which holds its last search: a second call at one
    shape, with other velocities, reads the held search instead of searching.

    Each unordered pair is evaluated once: the search's xi and dist hold the
    P pairs as found (source i < neighbor j: directed rows P .. 2P - 1), and
    only they get the velocity gathers, the unit vectors, the dot product and
    the coefficient (or the bond model, which sees P rows). Rows 0 .. P - 1
    hold the same pairs reversed, so dv and n flip sign, the dot product
    does not, and their force is the exact negative of the forward rows'.
    The per-point bincounts then run over all 2P rows, in the directed
    pairs' order, as a kernel call on every row would.

    workspace, a fluid_workspace of the cloud's dimension, holds the search's
    index columns, xi and dist, and the per-pair float columns; without one a
    fresh workspace serves the call, which then always searches. xi and dist
    are only read, so a held search stays a fresh search's bits. The result
    is a fresh (N, dim) array either way, never a view into the workspace.
    Pair vectors are handled one column per axis; the dot product is a
    running column sum, the same additions in the same order as
    np.sum(dv * n, axis=1).
    """
    v = state.velocities if velocities is None else velocities
    dim = v.shape[1]
    workspace = fluid_workspace(dim) if workspace is None else workspace
    source, neighbors, xi, dist = directed_pairs(state.positions, horizon.delta, cloud.box,
                                                 cloud.periodic, buffers=workspace)
    p = dist.size
    lo, hi = source[p:], neighbors[p:]
    if not dist.all():
        k = int(np.flatnonzero(dist == 0.0)[0])
        raise SingularConfigurationError(
            f"particles {int(lo[k])} and {int(hi[k])} coincide "
            "in the deformed configuration"
        )
    _, columns = workspace.reserve(2 * p)
    scratch, weights, dot = columns[0, :p], columns[1], columns[2, :p]
    dv, f = columns[3:dim + 3, :p], columns[dim + 3:]
    forward = f[:, p:]
    # indices come from the search, so mode "clip" only spares numpy a copy of out
    np.take(cloud.volumes, neighbors, out=weights, mode="clip")
    if horizon.partial_volume == "linear" and p:
        taper = partial_volume_factor(dist, cloud.spacing, horizon.delta)
        weights[:p] *= taper
        weights[p:] *= taper
    for v_k, dv_k in zip(v.T, dv):
        np.take(v_k, hi, out=dv_k, mode="clip")
        np.take(v_k, lo, out=scratch, mode="clip")
        dv_k -= scratch
    if memory.fluid_kernel == "linear":
        for xi_k, n_k in zip(xi.T, forward):
            np.divide(xi_k, dist, out=n_k)   # n_k, scaled into f_k below
        np.multiply(dv[0], forward[0], out=dot)
        for dv_k, n_k in zip(dv[1:], forward[1:]):
            dot += np.multiply(dv_k, n_k, out=scratch)
        dot *= memory.coefficient
        forward *= dot
    else:
        if model is None:
            raise ConfigError("fluid_kernel 'kernel' requires a bond model")
        eta = memory.coefficient * dv.T
        try:
            forward[...] = model.force(xi, eta).T
        except SingularConfigurationError:
            raise dynamics.coincident_bonds(model.family, xi + eta, lo, hi) from None
    np.negative(forward, out=f[:, :p])
    f *= weights
    out = np.empty((cloud.n_points, dim))
    for f_k, out_k in zip(f, out.T):
        out_k[:] = np.bincount(source, weights=f_k, minlength=cloud.n_points)
    return out


class MemoryForce:
    """Force operator of the finite- and zero-memory dynamics.

    Each evaluation lifts the loop's displacement state onto current
    coordinates (cloud.positions + u) in one FluidState. Finite memory pushes
    every step's shape into its ring buffer and keeps the last remembered
    shape with a dynamics.NetworkForce on the pairs found in it, so one
    step's force and energy share one search. That operator is never
    settled: it lives for one shape, carries no breaker state, and its last
    pass goes with it. Only finite memory's force is carried over to the
    next step: settle returns None otherwise. The zero-memory force depends
    on velocity, so each shape's force is evaluated twice: at the end of one
    step and at the start of the next.
    Zero memory keeps one fluid_workspace for the operator's lifetime: its
    force calls refill the force columns instead of allocating them per call,
    and the second call at a shape reuses the search the workspace holds
    (directed_pairs), so each shape is searched once.
    """

    def __init__(self, cloud, horizon: HorizonConfig, model, memory: MemoryConfig,
                 state: dynamics.SimState, dt: float):
        stride = max(1, int(round(memory.s / dt))) if memory.mode == "finite" else 0
        self.cloud, self.horizon, self.model, self.memory = cloud, horizon, model, memory
        self.fs = fluid_state(cloud, state, stride=stride)
        self._network = None  # (remembered shape, its NetworkForce)
        self._workspace = fluid_workspace(cloud.dim) if memory.mode == "zero" else None

    def _lift(self, state, v):
        fs = self.fs
        fs.positions = self.cloud.positions + state.u
        fs.velocities = v
        fs.step = state.step
        return fs

    def _remembered(self, state, v):
        """The remembered shape's operator, and state as it sees it."""
        fs = self._lift(state, v)
        ref = _remembered_shape(fs, self.memory)
        if self._network is None or self._network[0] is not ref:
            bonds = pair_network(self.cloud, self.horizon, ref)
            self._network = ref, dynamics.NetworkForce(self.cloud, bonds, self.model)
        return self._network[1], dynamics.SimState(fs.positions - ref, v)

    def force(self, state, v):
        if self.memory.mode == "zero":
            return fluid_force(self.cloud, self._lift(state, v), self.memory, self.horizon,
                               model=self.model, workspace=self._workspace)
        op, remembered = self._remembered(state, v)
        return op.force(remembered, v)

    def potential(self, state):
        """Elastic energy against the remembered shape; the viscous kernel
        of zero memory stores none."""
        if self.memory.mode == "zero":
            return 0.0
        op, remembered = self._remembered(state, state.v)
        return op.potential(remembered)

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

    finite memory runs the solid's NetworkForce on the bonds found in each
    trailing shape. zero memory advects particles under the
    velocity-difference kernel; its potential column is zero (the viscous
    kernel stores no elastic energy). infinite memory is the solid theory on a network this
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
