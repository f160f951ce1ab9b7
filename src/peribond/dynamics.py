"""Explicit time integration of the peridynamic equation of motion.

rho u_tt(x, t) = sum over the horizon of f(xi, eta) weights + b(x, t),
advanced with velocity Verlet. Each bond pair is evaluated once per step and
its force scattered onto both ends; each point sums its terms in pair order
(pairs ascend by source, then neighbor index), so repeated runs of the same
configuration are bitwise reproducible. One loop (integrate) serves every
run: solids hand it a NetworkForce, and the memory modes of fluidpd their
own force operator. The operator's settle(state, dt, force) returns the
next step's incoming force, or None when that force depends on velocity;
on a network whose bonds break, the breaker reads the stretch off that
step's kernel call and the force is refreshed only on the rows the changed
pairs touch. Preset body forces do not depend on t and are evaluated once
per run.
"""

from dataclasses import dataclass
import math

import numpy as np

from .discretization import BondNetwork, PointCloud
from .errors import ConfigError, SimulationError, SingularConfigurationError
from .kernels import lengths, stretch_of, update_breaker

LOAD_PRESETS = ("none", "constant", "sinusoidal-in-x", "opposing-last-axis")


@dataclass
class SimState:
    """Displacements and velocities of every point at one instant."""

    u: np.ndarray  # (N, dim)
    v: np.ndarray  # (N, dim)
    t: float = 0.0
    step: int = 0

    def copy(self) -> "SimState":
        return SimState(self.u.copy(), self.v.copy(), self.t, self.step)


def zero_state(cloud: PointCloud) -> SimState:
    shape = (cloud.n_points, cloud.dim)
    return SimState(np.zeros(shape), np.zeros(shape))


@dataclass(frozen=True)
class ExternalLoad:
    """Body force density b(x, t) evaluated at reference positions.

    Presets: none, constant (uniform amplitude vector), sinusoidal-in-x
    (amplitude vector modulated by sin(2 pi x_0 / wavelength)), and
    opposing-last-axis (amplitude vector signed by which side of `center`
    the last coordinate falls on; points exactly on the line get zero).
    A callable fn(positions, t) -> (N, dim) overrides the preset entirely.
    """

    preset: str = "none"
    amplitude: tuple = ()
    wavelength: float = 1.0
    center: float = 0.5
    fn: object = None

    def __post_init__(self):
        if self.preset not in LOAD_PRESETS:
            raise ConfigError(f"load preset must be one of {LOAD_PRESETS}, got {self.preset!r}")
        if self.preset != "none" and self.fn is None and len(self.amplitude) == 0:
            raise ConfigError(f"load preset {self.preset!r} requires an amplitude vector")
        if self.preset == "sinusoidal-in-x" and not self.wavelength > 0.0:
            raise ConfigError(f"load wavelength must be positive, got {self.wavelength}")

    def body_force(self, positions, t):
        if self.fn is not None:
            return np.asarray(self.fn(positions, t), dtype=float)
        n, dim = positions.shape
        if self.preset == "none":
            return np.zeros((n, dim))
        amp = np.asarray(self.amplitude, dtype=float)
        if amp.shape != (dim,):
            raise ConfigError(
                f"load amplitude needs {dim} component(s), got {amp.shape}"
            )
        if self.preset == "constant":
            return np.tile(amp, (n, 1))
        if self.preset == "opposing-last-axis":
            sign = np.sign(positions[:, -1] - self.center)
            return sign[:, None] * amp[None, :]
        phase = np.sin(2.0 * math.pi * positions[:, 0] / self.wavelength)
        return phase[:, None] * amp[None, :]


def _relative(bonds: BondNetwork, u: np.ndarray) -> np.ndarray:
    """eta = u[neighbor] - u[source] per pair (np.take gathers rows faster
    than fancy indexing)."""
    return np.take(u, bonds.neighbors, axis=0) - np.take(u, bonds.source, axis=0)


def bond_stretches(bonds: BondNetwork, u: np.ndarray) -> np.ndarray:
    """Current stretch of every bond pair for displacement field u. The loop
    does not call it: settle takes the stretch from the lengths that the
    step's own force call formed."""
    return stretch_of(lengths(bonds.xi + _relative(bonds, u)), bonds.xi_norm)


def internal_force(cloud: PointCloud, bonds: BondNetwork, model, u: np.ndarray) -> np.ndarray:
    """Internal force density (force per unit volume) at every point.

    Each pair's force f acts as +f w_ij on its source and -f w_ji on its
    neighbor, summed through the network's scatter operator.
    """
    model.validate_dim(cloud.dim)
    eta = _relative(bonds, u)
    try:
        f = model.force(bonds.xi, eta, bonds.mu)
    except SingularConfigurationError:
        q = lengths(bonds.xi + eta)
        rows = np.flatnonzero(q == 0.0)[:8]
        pairs = [(int(bonds.source[k]), int(bonds.neighbors[k])) for k in rows]
        raise SingularConfigurationError(
            f"{model.family}: coincident deformed points on bond(s) {pairs}"
        ) from None
    return bonds.scatter @ f


def stable_dt(cloud: PointCloud, bonds: BondNetwork, model, safety: float = 0.5) -> float:
    """Conservative stable step from the linearized bond stiffnesses.

    dt = safety * sqrt(2 rho / max_i sum_j weight_ij C_ij) with C_ij the
    undeformed bond stiffness magnitude of the kernel.
    """
    c = model.stiffness0(bonds.xi_norm)
    s = bonds.per_point(bonds.weights * c, bonds.reverse_weights * c)
    smax = float(np.max(s)) if s.size else 0.0
    if not smax > 0.0:
        raise ConfigError("bond stiffness sums to zero; stable step undefined")
    return safety * math.sqrt(2.0 * cloud.density / smax)


class NetworkForce:
    """Force operator of a fixed bond network: the solid theory.

    The loop in integrate drives any object with these members. force(state,
    v) is the internal force density, potential(state) the stored energy,
    damage() the per-point broken fraction, and settle(state, dt, force) runs
    once after each step, right after force at the same state, and returns
    the next step's incoming force, or None when that force depends on
    velocity and cannot be carried (here: updates the breaker and, when
    bonds changed, refreshes force in place).

    The model is bound to the network once, here. settle takes the
    deformed lengths and pair forces of the step's own kernel call from the
    bound model: the stretch comes from those lengths, with no second
    gather, and a break re-evaluates only the changed pairs and re-sums only
    the rows of their end points, sliced from the network's CSR operator.
    Both are bitwise what a fresh evaluation gives. Neither array outlives
    settle.
    """

    def __init__(self, cloud: PointCloud, bonds: BondNetwork, model):
        model.validate_dim(cloud.dim)
        self.cloud, self.bonds, self.model = cloud, bonds, model.bind(bonds)

    def force(self, state, v):
        self.model.take_pair_state()  # free the last call's pair arrays before the gathers
        return internal_force(self.cloud, self.bonds, self.model, state.u)

    def potential(self, state):
        return potential_energy(self.cloud, self.bonds, self.model, state.u)

    def damage(self):
        return self.bonds.damage()

    def settle(self, state, dt, force):
        """Update damage once per step from the post-step stretches; return
        force, refreshed where bonds changed."""
        bonds, model = self.bonds, self.model
        q, f = model.take_pair_state()
        if q is None:
            raise RuntimeError("settle needs the kernel call of force at this state")
        breaker = model.breaker
        if breaker is None or not breaker.active:
            return force
        s = stretch_of(q, bonds.xi_norm, out=q)
        thresholds = model.breaker_thresholds(bonds.xi_norm)
        changed = np.empty(bonds.n_bonds, dtype=bool)
        if update_breaker(breaker, s, dt, bonds.mu, bonds.accum, thresholds, changed) == 0:
            return force
        return self._refresh(state, force, f, np.flatnonzero(changed))

    def _refresh(self, state, force, f, rows):
        """force and the pair forces f at state after the mu of the pairs in
        rows changed: re-evaluates those pairs into f and re-sums the rows of
        their end points into force, in place."""
        bonds = self.bonds
        source, neighbors = bonds.source[rows], bonds.neighbors[rows]
        eta = np.take(state.u, neighbors, axis=0) - np.take(state.u, source, axis=0)
        f[rows] = self.model.force(bonds.xi[rows], eta, bonds.mu[rows])
        points = np.unique(np.concatenate([source, neighbors]))
        force[points] = bonds.scatter[points] @ f
        return force


class _CarriedLoad:
    """A load as the loop reads it. Presets do not depend on t and are
    evaluated once per run; a callable is evaluated once per instant, so
    the end of one step hands its b to the start of the next."""

    def __init__(self, load):
        self.load, self.t, self.b = load, None, None

    def body_force(self, positions, t):
        if self.b is None or (self.load.fn is not None and t != self.t):
            self.t, self.b = t, self.load.body_force(positions, t)
        return self.b


def step_verlet(cloud, op, state: SimState, dt: float, load=None, force=None):
    """Advance one velocity-Verlet step in place under force operator op.

    force is the internal force at the incoming state (recomputed when None).
    Returns what op.settle returns: the force at the outgoing state, for
    reuse as the next step's incoming force, or None when op cannot carry it.
    """
    if force is None:
        force = op.force(state, state.v)
    inv_rho = 1.0 / cloud.density
    b = load.body_force(cloud.positions, state.t) if load is not None else 0.0
    v_half = state.v + (0.5 * dt * inv_rho) * (force + b)
    state.u += dt * v_half
    state.t += dt
    state.step += 1
    force_new = op.force(state, v_half)
    b_new = load.body_force(cloud.positions, state.t) if load is not None else 0.0
    state.v = v_half + (0.5 * dt * inv_rho) * (force_new + b_new)

    if not (np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.v))):
        raise SimulationError(f"non-finite state detected at step {state.step}")
    return op.settle(state, dt, force_new)


def kinetic_energy(cloud: PointCloud, v: np.ndarray) -> float:
    return 0.5 * cloud.density * float(np.sum(cloud.volumes * np.sum(v * v, axis=1)))


def potential_energy(cloud: PointCloud, bonds: BondNetwork, model, u: np.ndarray) -> float:
    """Total bond potential, sum over pairs of phi w_ij V_i (= phi w_ji V_j)."""
    phi = model.potential(bonds.xi, _relative(bonds, u), bonds.mu)
    return float(np.sum(phi * bonds.weights * cloud.volumes[bonds.source]))


def momentum(cloud: PointCloud, v: np.ndarray) -> np.ndarray:
    return cloud.density * (cloud.volumes[:, None] * v).sum(axis=0)


def series_columns(dim: int):
    cols = ["t", "kinetic", "potential", "total"]
    cols += ["px", "py", "pz"][:dim]
    cols.append("damage_mean")
    return cols


@dataclass
class RunResult:
    """Recorded diagnostics series plus the final state."""

    columns: list
    series: dict            # column name -> np.ndarray, aligned rows
    state: SimState


def _series_row(cloud, op, state, damage):
    kin = kinetic_energy(cloud, state.v)
    pot = op.potential(state)
    p = momentum(cloud, state.v)
    row = [state.t, kin, pot, kin + pot]
    row.extend(p.tolist())
    row.append(float(np.mean(damage)))
    return row


def run(cloud, bonds, model, state: SimState, dt: float, n_steps: int, load=None,
        record_every: int = 1, snapshot_every: int = 0, on_snapshot=None) -> RunResult:
    """Run n_steps of velocity Verlet on the reference bond network."""
    return integrate(cloud, NetworkForce(cloud, bonds, model), state, dt, n_steps, load,
                     record_every, snapshot_every, on_snapshot)


def integrate(cloud, op, state: SimState, dt: float, n_steps: int, load=None,
              record_every: int = 1, snapshot_every: int = 0, on_snapshot=None) -> RunResult:
    """Run n_steps of velocity Verlet under force operator op, recording
    diagnostics at a cadence.

    One pass walks the instants k = 0 ... n_steps, stepping first when k > 0.
    Instant k records a series row when k % record_every == 0 or k == n_steps
    (so always the first and the last), and a snapshot, through
    on_snapshot(step, state, damage), when n_steps == 0 or when
    snapshot_every > 0 and k % snapshot_every == 0 or k == n_steps. Both
    share one op.damage() per instant. The state is advanced in place and
    also returned inside the result.
    """
    if n_steps < 0:
        raise ConfigError(f"step count must be non-negative, got {n_steps}")
    if record_every < 1:
        raise ConfigError(f"record cadence must be >= 1, got {record_every}")

    cols = series_columns(cloud.dim)
    rows = []
    force = None
    load = _CarriedLoad(load) if load is not None else None
    for k in range(n_steps + 1):
        if k:
            force = step_verlet(cloud, op, state, dt, load=load, force=force)
        row = k % record_every == 0 or k == n_steps
        snap = on_snapshot is not None and (
            n_steps == 0 or snapshot_every > 0 and (k % snapshot_every == 0 or k == n_steps))
        damage = op.damage() if row or snap else None
        if row:
            rows.append(_series_row(cloud, op, state, damage))
        if snap:
            on_snapshot(state.step, state, damage)

    table = np.asarray(rows)
    return RunResult(columns=cols, series={name: table[:, j] for j, name in enumerate(cols)},
                     state=state)
