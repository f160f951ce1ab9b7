"""Energy accounting, damage and contact probes, and convergence studies."""

from dataclasses import dataclass
import math

import numpy as np

from . import dynamics
from .errors import ConfigError, SingularConfigurationError
from .kernels import lengths, stretch_of


@dataclass(frozen=True)
class EnergyReport:
    """Kinetic/potential split at one instant, with decay bookkeeping."""

    t: float
    kinetic: float
    potential: float
    total: float
    reference_total: float
    decay_violated: bool        # total > reference * (1 + tol)
    impenetrability_flag: bool  # non-finite bond potential encountered
    tol: float = 1e-3


def energy(cloud, bonds, model, state, reference_total=None, tol=1e-3) -> EnergyReport:
    """Evaluate the energy functional and flag growth beyond the tolerance.

    reference_total defaults to the current total (no violation possible);
    pass E(0) to monitor the decay inequality along a run. A singular bond
    potential (coincident deformed points under a hard-core kernel) is
    reported through impenetrability_flag instead of raising.
    """
    kin = dynamics.kinetic_energy(cloud, state.v)
    try:
        pot = dynamics.potential_energy(cloud, bonds, model, state.u)
    except SingularConfigurationError:
        pot = math.inf
    finite = math.isfinite(pot)
    if not finite:
        pot = math.inf
    total = kin + pot
    ref = total if reference_total is None else float(reference_total)
    violated = bool(finite and total > ref * (1.0 + tol))
    return EnergyReport(
        t=state.t,
        kinetic=kin,
        potential=pot,
        total=total,
        reference_total=ref,
        decay_violated=violated,
        impenetrability_flag=not finite,
        tol=tol,
    )


@dataclass(frozen=True)
class ProbeReport:
    """Near-contact report over the bonded pairs of a deformed state."""

    min_distance: float
    threshold: float              # absolute flag distance (fraction * spacing)
    flagged_pairs: tuple          # ((i, j), ...) with i < j
    flagged_distances: tuple
    potentials: tuple             # current bond potential per flagged pair
    baselines: tuple              # undeformed bond potential per flagged pair
    amplifications: tuple         # baseline / current, inf when current is 0
    max_amplification: float
    max_potential: float


def impenetrability_probe(cloud, bonds, model, state, threshold=0.1) -> ProbeReport:
    """Report near-contact bonded pairs and their potential amplification.

    threshold is a fraction of the grid spacing; a pair is flagged when its
    deformed distance |xi + eta| falls below threshold * h. For each flagged
    pair the report carries the current bond potential, the undeformed
    baseline, and the baseline-to-current amplification factor — large for
    kernels whose potential resolves contact sharply, modest for kernels
    that stay bounded. Both potentials carry the bond's intactness mu, as
    potential_energy counts them. The probe only reports; it enforces
    nothing.
    """
    if not threshold > 0.0:
        raise ConfigError(f"probe threshold must be positive, got {threshold}")
    eta = np.take(state.u, bonds.neighbors, axis=0) - np.take(state.u, bonds.source, axis=0)
    dist = lengths(bonds.xi + eta)
    cut = threshold * cloud.spacing

    rows = np.flatnonzero(dist < cut)
    xi, mu = bonds.xi[rows], bonds.mu[rows]
    phis = model.potential(xi, eta[rows], mu).tolist()
    phi0s = model.potential(xi, np.zeros_like(xi), mu).tolist()
    amps = [phi0 / phi if phi > 0.0 else math.inf if phi0 > 0.0 else 1.0
            for phi, phi0 in zip(phis, phi0s)]

    return ProbeReport(
        min_distance=float(np.min(dist)) if dist.size else math.inf,
        threshold=cut,
        flagged_pairs=tuple(zip(bonds.source[rows].tolist(), bonds.neighbors[rows].tolist())),
        flagged_distances=tuple(dist[rows].tolist()),
        potentials=tuple(phis),
        baselines=tuple(phi0s),
        amplifications=tuple(amps),
        max_amplification=max(amps) if amps else 0.0,
        max_potential=max(phis) if phis else 0.0,
    )


@dataclass(frozen=True)
class StretchCompareReport:
    """Nonlocal bond stretches vs. predictions from a fitted local gradient."""

    index: int
    grad: np.ndarray              # least-squares displacement gradient (dim, dim)
    stretches: np.ndarray         # nonlocal per-bond stretches
    full_prediction: np.ndarray   # (|(I + grad) e| - 1) per unit bond direction
    linear_prediction: np.ndarray # e . sym(grad) e per bond
    max_discrepancy: float        # against the full prediction
    max_linear_discrepancy: float


def stretch_compare(cloud, bonds, state, index) -> StretchCompareReport:
    """Compare bond stretches at one point with its fitted local gradient.

    The displacement gradient A minimizes sum |A xi - eta|^2 over the point's
    bonds. The full prediction |(I + A) e| - 1 matches the nonlocal stretch
    exactly for affine fields; the linearized form e.sym(A)e differs at
    second order in the strain. Raises for neighborhoods that span fewer
    than dim independent directions.
    """
    _, others, xi, _ = bonds.bonds_of(index)
    if others.size == 0:
        raise ConfigError(f"point {index} has an empty horizon")
    eta = state.u[others] - state.u[index]

    gram = xi.T @ xi
    dim = cloud.dim
    if np.linalg.matrix_rank(gram) < dim:
        raise ConfigError(
            f"neighborhood of point {index} spans fewer than {dim} directions; "
            "gradient fit is rank-deficient"
        )
    grad = np.linalg.solve(gram, xi.T @ eta).T

    e = xi / np.linalg.norm(xi, axis=1, keepdims=True)
    s = stretch_of(lengths(xi + eta), lengths(xi))
    full = np.linalg.norm(e @ (np.eye(dim) + grad).T, axis=1) - 1.0
    sym = 0.5 * (grad + grad.T)
    linear = np.einsum("bi,ij,bj->b", e, sym, e)

    return StretchCompareReport(
        index=int(index),
        grad=grad,
        stretches=s,
        full_prediction=full,
        linear_prediction=linear,
        max_discrepancy=float(np.max(np.abs(s - full))),
        max_linear_discrepancy=float(np.max(np.abs(s - linear))),
    )


@dataclass(frozen=True)
class ConvergenceResult:
    """Horizon-refinement study against the classical traveling-wave oracle."""

    deltas: tuple
    errors: tuple          # relative L2 displacement errors at one period
    rate: float            # log-log slope of error vs delta
    monotone: bool         # strictly decreasing toward small delta

    def table(self) -> str:
        lines = ["    delta          L2 error"]
        for d, e in zip(self.deltas, self.errors):
            lines.append(f"    {d:<12.6g}   {e:.6e}")
        lines.append(f"    fitted rate: {self.rate:.3f}   monotone: {self.monotone}")
        return "\n".join(lines)


def delta_convergence(deltas=(0.2, 0.1, 0.05), m=4) -> ConvergenceResult:
    """Run the periodic traveling-wave bar at several horizons, fixed m = delta/h.

    Each run is compared against the classical solution u(x, t) =
    A sin(k (x - c t)) whose wave speed derives from the bond network's own
    linearized modulus, on the bar1d-wave table with a smaller step. Fewer
    than two horizons, or one given twice, is a ConfigError. Non-monotone
    error sequences are reported, never suppressed. A horizon that is not a
    positive number, or whose spacing delta / m does not tile the bar, is a
    ConfigError naming deltas, raised before the first run.
    """
    from .config import PRESET_CONFIGS, check_value
    from .discretization import grid_counts
    from .scenarios import bar_wave_spacing, build_bar_wave

    if len(deltas) < 2:
        raise ConfigError("convergence study needs at least two horizons")
    if len(set(deltas)) < len(deltas):
        raise ConfigError(f"deltas: each horizon must appear once, got {tuple(deltas)}")
    bar = PRESET_CONFIGS["bar1d-wave"]["domain"]["box"]
    for delta in deltas:
        try:
            check_value("horizon", "delta", delta)
        except ConfigError:
            raise ConfigError(f"deltas: horizon {delta} is not a positive number") from None
        h = bar_wave_spacing(delta, m)
        try:
            grid_counts(bar, h)
        except ConfigError:
            raise ConfigError(f"deltas: horizon {delta} at m = {m} gives spacing {h}, "
                              f"which does not tile the bar of length {bar[0]}") from None
    errors = []
    for delta in deltas:
        # the study isolates the horizon (spatial) error; a small step keeps
        # the integrator's phase error out of the measurement
        setup = build_bar_wave(delta=delta, m=m, safety=0.2)
        result = dynamics.run(
            setup.cloud,
            setup.bonds,
            setup.model,
            setup.state,
            setup.dt,
            setup.n_steps,
            record_every=max(1, setup.n_steps),
        )
        u = result.state.u[:, 0]
        exact = setup.oracle(setup.cloud.positions[:, 0], result.state.t)
        num = np.sqrt(np.sum(setup.cloud.volumes * (u - exact) ** 2))
        den = np.sqrt(np.sum(setup.cloud.volumes * exact**2))
        errors.append(float(num / den))

    deltas = tuple(float(d) for d in deltas)
    order = np.argsort(deltas)[::-1]  # largest horizon first
    d_sorted = [deltas[i] for i in order]
    e_sorted = [errors[i] for i in order]
    monotone = all(e_sorted[i + 1] < e_sorted[i] for i in range(len(e_sorted) - 1))
    slope = float(np.polyfit(np.log(d_sorted), np.log(e_sorted), 1)[0])
    return ConvergenceResult(
        deltas=tuple(d_sorted), errors=tuple(e_sorted), rate=slope, monotone=monotone
    )
