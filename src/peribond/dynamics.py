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
from functools import cached_property
import math

import numpy as np

from .discretization import BondNetwork, PointCloud
from .errors import ConfigError, SimulationError, SingularConfigurationError
from .kernels import evaluate_pairs, lengths, reference_factors, stretch_of, update_breaker

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
    A load that depends on t is any object with body_force(positions, t).
    """

    preset: str = "none"
    amplitude: tuple = ()
    wavelength: float = 1.0
    center: float = 0.5

    def __post_init__(self):
        if self.preset not in LOAD_PRESETS:
            raise ConfigError(f"load preset must be one of {LOAD_PRESETS}, got {self.preset!r}")
        if self.preset != "none" and len(self.amplitude) == 0:
            raise ConfigError(f"load preset {self.preset!r} requires an amplitude vector")
        if self.preset == "sinusoidal-in-x" and not self.wavelength > 0.0:
            raise ConfigError(f"load wavelength must be positive, got {self.wavelength}")

    def body_force(self, positions, t):
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
        raise coincident_bonds(model.family, bonds.xi + eta, bonds.source,
                               bonds.neighbors) from None
    return bonds.scatter @ f


def coincident_bonds(family, z, source, neighbors):
    """The error of a kernel call on deformed bonds z, some of zero length,
    whose rows join points source < neighbors: it names up to eight such
    point pairs (i, j), not the rows the kernel saw."""
    rows = np.flatnonzero(lengths(z) == 0.0)[:8]
    pairs = [(int(source[k]), int(neighbors[k])) for k in rows]
    return SingularConfigurationError(
        f"{family}: coincident deformed points on bond(s) {pairs}")


def stable_dt(cloud: PointCloud, bonds: BondNetwork, model, safety: float = 0.5) -> float:
    """Conservative stable step from the linearized bond stiffnesses.

    dt = safety * sqrt(2 rho / max_i sum_j weight_ij |C_ij|) with C_ij the
    kernel's signed undeformed bond stiffness d|f|/dq.
    """
    s = bonds.weighted_sum(np.abs(model.stiffness0(bonds.xi_norm)))
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

    The operator asks the model only for its scalars _coef and _phi, through
    the pair pass of kernels: reference_factors forms k = _radial(|xi|) (one
    number when the family says so) and the support mask once, refusing a
    zero |xi|, and evaluate_pairs runs on the gathered pairs, its
    zero-length refusal named by point pairs (coincident_bonds). force keeps
    its pass's deformed lengths and pair forces until settle takes them: the
    stretch comes from those lengths, with no second gather, and a break
    re-evaluates only the changed pairs and re-sums only the rows of their
    end points, sliced from the network's CSR operator. Both are bitwise
    what a fresh evaluation gives. The breaker's per-bond thresholds are
    formed at the first settle and kept; only theta-eps reads the network's
    accumulator.
    """

    def __init__(self, cloud: PointCloud, bonds: BondNetwork, model):
        model.validate_dim(cloud.dim)
        self.cloud, self.bonds, self.model = cloud, bonds, model
        self.k, self.inside = reference_factors(model, bonds.xi_norm)
        self._pass = None  # (q, f) of the last force call, until settle

    @cached_property
    def thresholds(self):
        """The breaker's per-bond critical stretch (None: its own s0)."""
        return self.model.breaker_thresholds(self.bonds.xi_norm)

    def _deformed(self, u, rows=slice(None)):
        """z = xi + eta of the pairs in rows at displacement u, formed in the
        first gather's own array (eta + xi is bitwise xi + eta). The second
        gather is subtracted half by half: z and half a gather, 1.5 dim
        columns, stay below the dim + 2 that the lengths and the kernel
        need, so the gather never sets the pass's high-water."""
        bonds = self.bonds
        z = np.take(u, bonds.neighbors[rows], axis=0)
        source = bonds.source[rows]
        half = source.shape[0] // 2
        for part in (slice(None, half), slice(half, None)):
            z[part] -= np.take(u, source[part], axis=0)
        z += bonds.xi[rows]
        return z

    def _pairs(self, u, kernel, rows=slice(None), z=None):
        """q = |z| and the gated kernel(q, r, k, mu) of the pairs in rows (all
        of them by default) at displacement u, z being their _deformed. A z
        not given is formed here and dropped once q is formed, before the
        kernel runs."""
        bonds, k, inside = self.bonds, self.k, self.inside
        q = lengths(self._deformed(u, rows) if z is None else z)
        try:
            return q, evaluate_pairs(self.model, kernel, q, bonds.xi_norm[rows],
                                     k[rows] if np.ndim(k) else k,
                                     None if inside is None else inside[rows], bonds.mu[rows])
        except SingularConfigurationError:
            raise coincident_bonds(self.model.family, self._deformed(u, rows),
                                   bonds.source[rows], bonds.neighbors[rows]) from None

    def _forces(self, u, rows=slice(None)):
        """Deformed lengths and pair forces of the pairs in rows."""
        z = self._deformed(u, rows)
        q, coef = self._pairs(u, self.model._coef, rows, z)
        for z_k in z.T:
            z_k *= coef
        return q, z

    def force(self, state, v):
        self._pass = None  # free the last call's pair arrays before the gathers
        self._pass = self._forces(state.u)
        return self.bonds.scatter @ self._pass[1]

    def potential(self, state):
        return _pair_energy(self.cloud, self.bonds, self._pairs(state.u, self.model._phi)[1])

    def damage(self):
        return self.bonds.damage()

    def settle(self, state, dt, force):
        """Update damage once per step from the post-step stretches; return
        force, refreshed where bonds changed."""
        if self._pass is None:
            raise RuntimeError("settle needs the kernel call of force at this state")
        (q, f), self._pass = self._pass, None
        bonds, breaker = self.bonds, self.model.breaker
        if not breaker.active:
            return force
        s = stretch_of(q, bonds.xi_norm, out=q)
        accum = bonds.accum if breaker.mode == "theta-eps" else None
        changed = np.empty(bonds.n_bonds, dtype=bool)
        if update_breaker(breaker, s, dt, bonds.mu, accum, self.thresholds, changed) == 0:
            return force
        return self._refresh(state, force, f, np.flatnonzero(changed))

    def _refresh(self, state, force, f, rows):
        """force and the pair forces f at state after the mu of the pairs in
        rows changed: re-evaluates those pairs into f and re-sums the rows of
        their end points into force, in place."""
        bonds = self.bonds
        f[rows] = self._forces(state.u, rows)[1]
        points = np.unique(np.concatenate([bonds.source[rows], bonds.neighbors[rows]]))
        force[points] = bonds.scatter[points] @ f
        return force


class _CarriedLoad:
    """A load as the loop reads it. An ExternalLoad does not depend on t and
    is evaluated once per run; any other load is evaluated once per instant,
    so the end of one step hands its b to the start of the next."""

    def __init__(self, load):
        self.load, self.t, self.b = load, None, None

    def body_force(self, positions, t):
        if self.b is None or (not isinstance(self.load, ExternalLoad) and t != self.t):
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
    return _pair_energy(cloud, bonds, model.potential(bonds.xi, _relative(bonds, u), bonds.mu))


def _pair_energy(cloud, bonds, phi):
    """The sum of phi w_ij V_i over pairs, formed in phi itself."""
    phi *= bonds.weights
    phi *= cloud.volumes[bonds.source]
    return float(np.sum(phi))


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
