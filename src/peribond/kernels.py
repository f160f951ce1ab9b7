"""Pairwise bond force kernels.

Every family maps a reference separation xi and relative displacement eta to a
force density f(xi, eta) that is antisymmetric under (xi, eta) -> (-xi, -eta)
and collinear with the deformed bond xi + eta, and carries a scalar potential
whose eta-gradient reproduces the force wherever the force is smooth. Models
are vectorized over bond arrays: xi and eta have shape (M, dim).

Conventions: r = |xi| (reference length), q = |xi + eta| (deformed length),
stretch s = (q - r)/r, unit vector n = (xi + eta)/q.
"""

from dataclasses import dataclass
from typing import ClassVar
import math

import numpy as np

from .errors import ConfigError, SingularConfigurationError

MICRO_FAMILIES = ("cylindrical", "triangular", "normal", "quartic")
BREAKER_MODES = ("none", "critical-stretch", "theta-eps")

# Horizon-ball membership carries the same 1e-9 relative slack as bond
# construction: lattice bonds at exactly delta land a few ulps either side
# depending on where their endpoints sit, and an exact test would switch
# them off point by point, breaking translation invariance.
SUPPORT_SLACK = 1.0 + 1e-9


def in_support(r, delta):
    return np.asarray(r) <= delta * SUPPORT_SLACK


def _as_bond_arrays(xi, eta):
    """Deformed bonds z = xi + eta as (M, dim) rows, their reference lengths
    |xi|, and whether one bond came as a vector."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    single = xi.ndim == 1
    if single:
        xi = xi[None, :]
        eta = np.atleast_2d(eta)
    return xi + np.broadcast_to(eta, xi.shape), lengths(xi), single


def lengths(z):
    """Euclidean length of every row of an (M, dim) array.

    Summed column by column: the same additions in the same order as
    np.linalg.norm(z, axis=1), so bitwise equal to it, but 4-10x faster on
    bond arrays (and faster than sqrt(einsum), which rounds differently).
    """
    acc = z[:, 0] * z[:, 0]
    for k in range(1, z.shape[1]):
        acc += z[:, k] * z[:, k]
    return np.sqrt(acc)


def stretch_of(q, r, out=None):
    """Stretch s = (q - r)/r of bonds with deformed lengths q and reference
    lengths r: the one stretch formula of the kernels, the breaker and the
    diagnostics. out may be q itself."""
    s = np.subtract(q, r, out=out)
    return np.divide(s, r, out=s)


def bond_stretch(xi, eta):
    """Relative elongation s = (|xi + eta| - |xi|)/|xi| of one or many bonds."""
    z, r, single = _as_bond_arrays(xi, eta)
    if np.any(r == 0.0):
        raise ValueError("bond stretch undefined for zero reference separation")
    s = stretch_of(lengths(z), r)
    return float(s[0]) if single else s


@dataclass(frozen=True)
class MicroModulus:
    """Radial bond-constant profile c(r) = c0 * k(r/delta), zero outside delta.

    Shapes: cylindrical k = 1, triangular k = 1 - r/delta,
    normal k = exp(-(r/delta)^2), quartic k = (1 - (r/delta)^2)^2.
    All attain their maximum k = 1 as r -> 0.
    """

    family: str = "cylindrical"
    c0: float = 1.0
    delta: float = math.inf

    def __post_init__(self):
        if self.family not in MICRO_FAMILIES:
            raise ConfigError(
                f"micro-modulus family must be one of {MICRO_FAMILIES}, "
                f"got {self.family!r}"
            )
        if not self.c0 > 0.0:
            raise ConfigError(f"micro-modulus c0 must be positive, got {self.c0}")
        if not self.delta > 0.0:
            raise ConfigError(f"micro-modulus delta must be positive, got {self.delta}")

    @property
    def constant(self) -> bool:
        """True when c(r) is c0 everywhere on the support (cylindrical)."""
        return self.family == "cylindrical"

    def profile(self, r):
        """Dimensionless shape k(r) in [0, 1], including the horizon indicator."""
        r = np.asarray(r, dtype=float)
        x = r / self.delta
        if self.family == "cylindrical":
            k = np.ones_like(x)
        elif self.family == "triangular":
            k = 1.0 - x
        elif self.family == "normal":
            k = np.exp(-(x**2))
        else:  # quartic
            k = (1.0 - x**2) ** 2
        return np.where(in_support(r, self.delta), k, 0.0)

    def __call__(self, r):
        return self.c0 * self.profile(r)


@dataclass(frozen=True)
class BondBreaker:
    """Irreversible bond-breakage law.

    critical-stretch: mu drops 1 -> 0 the first time s >= s0 and stays 0.
    theta-eps: mu = ramp(accum) with accum(t) accumulating max(0, s - s0) dt,
    so mu fades linearly from 1 to 0 as the accumulator crosses [0, eps].
    """

    mode: str = "none"
    s0: float = math.inf
    eps: float = 0.0

    def __post_init__(self):
        if self.mode not in BREAKER_MODES:
            raise ConfigError(
                f"breaker mode must be one of {BREAKER_MODES}, got {self.mode!r}"
            )
        if self.mode != "none" and not self.s0 > 0.0:
            raise ConfigError(f"critical stretch s0 must be positive, got {self.s0}")
        if self.mode == "theta-eps" and not self.eps > 0.0:
            raise ConfigError(f"theta-eps ramp width must be positive, got {self.eps}")

    @property
    def active(self) -> bool:
        return self.mode != "none"


def theta_ramp(accum, eps):
    """Graded breakage profile: 1 for accum <= 0, 1 - accum/eps on (0, eps), 0 beyond."""
    return np.clip(1.0 - np.asarray(accum, dtype=float) / eps, 0.0, 1.0)


def update_breaker(breaker, stretch, dt, mu, accum, thresholds=None, changed=None):
    """Advance per-bond damage state one step, in place.

    stretch holds the post-step bond stretches. thresholds optionally
    overrides breaker.s0 per bond (used by the displacement-threshold family
    whose critical stretch varies with bond length). mu only ever decreases.
    Returns the number of bonds whose mu changed; under critical-stretch a
    bond already at zero does not count again. changed, when given, is a
    bool array shaped like mu that receives which bonds those are.
    """
    if not breaker.active:
        return 0
    s0 = breaker.s0 if thresholds is None else thresholds
    if changed is None:
        changed = np.empty(mu.shape, dtype=bool)
    if breaker.mode == "critical-stretch":
        np.greater_equal(stretch, s0, out=changed)
        changed &= mu != 0.0
        mu[changed] = 0.0
    else:  # theta-eps
        accum += np.maximum(0.0, stretch - s0) * dt
        ramp = theta_ramp(accum, breaker.eps)
        np.less(ramp, mu, out=changed)
        np.minimum(mu, ramp, out=mu)
    return int(np.count_nonzero(changed))


def reference_factors(model, r):
    """k = model._radial(r) of reference lengths r and their mask of support
    within model.delta, None when every bond lies inside: all that a pair
    pass needs of r. k is one number (0-d) when it is the same for every
    bond, as a cylindrical micro-modulus with every bond inside makes it:
    c0 * s is bitwise c0[i] * s, so the pass holds no per-pair copy of a
    constant. When the family's k is constant on its support
    (radial_constant) and every bond lies inside, k is formed from the
    first bond alone; otherwise from every bond, and kept whole only when
    its values differ. A zero r is refused."""
    if np.any(r == 0.0):
        raise ValueError(f"{model.family}: zero reference separation in bond array")
    inside = in_support(r, model.delta)
    every = bool(inside.all())
    k = model._radial(r[:1] if every and model.radial_constant else r)
    if k is not None and k.size and (k == k[0]).all():
        k = k[0]
    return k, (None if every else inside)


def evaluate_pairs(model, kernel, q, r, k, inside, mu):
    """The one pair pass of every bond evaluation: kernel(q, r, k, mu) of the
    deformed lengths q = |z|, zeroed where the support mask inside is False.
    kernel is model._coef or model._phi, mu None means intact, and a zero q
    is refused, naming its rows, when the family needs_direction."""
    if model.needs_direction and not q.all():
        rows = np.flatnonzero(q == 0.0)[:8].tolist()
        raise SingularConfigurationError(
            f"{model.family}: deformed bond length reached zero (bond row(s) {rows})")
    values = kernel(q, r, k, 1.0 if mu is None else np.asarray(mu, dtype=float))
    if inside is not None:
        values = np.where(inside, values, 0.0)
    return values


class KernelModel:
    """Shared contract of the bond force families.

    Every family is a central force f = coef(q, r) (xi + eta) with a scalar
    potential phi(q, r), and supplies only its scalars: _coef(q, r, k, mu),
    the force magnitude per unit deformed length; _phi(q, r, k, mu); and
    _stiff0(r), the signed d|f|/dq at q = r. k = _radial(r) is the family's
    factor that depends on r alone (the micro-modulus c(r) for PMB and rod,
    None for the others). Families without breakage ignore mu and keep the
    inactive BondBreaker(). force and potential shape the bond arrays and
    run the pair pass that dynamics.NetworkForce runs too (reference_factors,
    evaluate_pairs); it zeroes every bond outside the family's horizon delta.
    """

    needs_direction = False  # True when the force divides by the deformed length
    radial_constant = False  # True when _radial(r) is one value on the support
    breaker = BondBreaker()

    def force(self, xi, eta, mu=None):
        z, r, single = _as_bond_arrays(xi, eta)
        coef = evaluate_pairs(self, self._coef, lengths(z), r, *reference_factors(self, r), mu)
        for z_k in z.T:
            z_k *= coef
        return z[0] if single else z

    def potential(self, xi, eta, mu=None):
        z, r, single = _as_bond_arrays(xi, eta)
        phi = evaluate_pairs(self, self._phi, lengths(z), r, *reference_factors(self, r), mu)
        return float(phi[0]) if single else phi

    def stiffness0(self, xi_norm):
        """The signed bond stiffness d|f|/dq at the undeformed state q = r."""
        r = np.asarray(xi_norm, dtype=float)
        return np.where(in_support(r, self.delta), self._stiff0(r), 0.0)

    def validate_dim(self, dim):
        return None

    def breaker_thresholds(self, xi_norm):
        """Per-bond critical stretch, or None to use the breaker's own s0."""
        return None

    def gradient_exclusion_mask(self, xi, eta, step):
        """Samples to skip in FD gradient checks (force discontinuities)."""
        return np.zeros(len(xi), dtype=bool)

    def _radial(self, r):
        return None


class _MicroFamily(KernelModel):
    """A family whose k = _radial(r) is its micro-modulus c(r), and whose
    horizon is the micro-modulus's."""

    @property
    def delta(self):
        return self.micro.delta

    @property
    def radial_constant(self):
        return self.micro.constant

    def _radial(self, r):
        return self.micro(r)


@dataclass(frozen=True)
class AntiPlaneShear(KernelModel):
    """Elongation-proportional force with an absolute displacement cutoff.

    f = c (q - r) mu n while the elongation q - r stays at or below u_star and
    r <= delta; zero otherwise. The cutoff doubles as a per-bond breakage
    threshold s0 = u_star/r handled through the shared breaker machinery.
    """

    c: float = 1.0
    u_star: float = math.inf
    delta: float = math.inf

    family = "anti-plane-shear"
    needs_direction = True

    def __post_init__(self):
        if not self.c > 0.0:
            raise ConfigError(f"anti-plane-shear c must be positive, got {self.c}")
        if not self.u_star > 0.0:
            raise ConfigError(f"u_star must be positive, got {self.u_star}")

    @property
    def breaker(self):
        if math.isfinite(self.u_star):
            return BondBreaker("critical-stretch", s0=1.0)  # s0 comes per bond
        return BondBreaker()

    def breaker_thresholds(self, xi_norm):
        return self.u_star / np.asarray(xi_norm, dtype=float)

    def _coef(self, q, r, k, mu):
        return self.c * (q - r) * ((q - r) <= self.u_star) * mu / q

    def _phi(self, q, r, k, mu):
        return 0.5 * self.c * (q - r) ** 2 * ((q - r) <= self.u_star) * mu

    def _stiff0(self, r):
        return np.full_like(r, self.c)

    def gradient_exclusion_mask(self, xi, eta, step):
        # an infinite u_star excludes nothing
        elong = np.linalg.norm(xi + eta, axis=1) - np.linalg.norm(xi, axis=1)
        return np.abs(elong - self.u_star) <= 8.0 * step


@dataclass(frozen=True)
class QuadraticPotential(KernelModel):
    """Quartic double-well potential alpha (q^2 - r^2)^2.

    The force 4 alpha (q^2 - r^2)(xi + eta) is its exact eta-gradient;
    alpha is a positive constant.
    """

    alpha: float = 1.0
    delta: float = math.inf

    family = "quadratic"

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ConfigError(f"quadratic alpha must be positive, got {self.alpha}")

    def _coef(self, q, r, k, mu):
        return 4.0 * self.alpha * (q**2 - r**2)

    def _phi(self, q, r, k, mu):
        return self.alpha * (q**2 - r**2) ** 2

    def _stiff0(self, r):
        return 8.0 * self.alpha * r**2


@dataclass(frozen=True)
class PMB(_MicroFamily):
    """Prototype microelastic brittle family: f = c(r) s mu n.

    The bond constant follows the micro-modulus profile; the optional breaker
    makes the response brittle at a critical stretch (or graded via theta-eps).
    """

    micro: MicroModulus = MicroModulus()
    breaker: BondBreaker = BondBreaker()

    family = "pmb"
    needs_direction = True

    # The shared force, bound as PMB's own attribute: the benchmark tracer
    # patches and restores PMB.force by name.
    force = KernelModel.force

    # k s mu / q and k (q - r)^2 / (2 r) mu, each formed in one array
    def _coef(self, q, r, k, mu):
        coef = stretch_of(q, r)
        coef *= k
        coef *= mu
        coef /= q
        return coef

    def _phi(self, q, r, k, mu):
        phi = q - r
        phi **= 2
        phi *= k
        phi /= 2.0 * r
        phi *= mu
        return phi

    def _stiff0(self, r):
        return self.micro(r) / r


@dataclass(frozen=True)
class ConstructiveRod(_MicroFamily):
    """Rod-type family f = c(r) (q - r)/r^2 n with micro-modulus bond constant."""

    micro: MicroModulus = MicroModulus()

    family = "rod"
    needs_direction = True

    def _coef(self, q, r, k, mu):
        return k * (q - r) / r**2 / q

    def _phi(self, q, r, k, mu):
        return k * (q - r) ** 2 / (2.0 * r**2)

    def _stiff0(self, r):
        return self.micro(r) / r**2


@dataclass(frozen=True)
class Convolution(KernelModel):
    """Odd power-law force f = c |q_vec|^(r-1) q_vec with q_vec = xi + eta.

    c is a positive constant; the exponent must be an odd integer above 1.
    In one dimension this reduces to the scalar form c (xi + eta)^r.
    """

    c: float = 1.0
    exponent: int = 3
    delta: float = math.inf

    family = "convolution"

    def __post_init__(self):
        if int(self.exponent) != self.exponent or self.exponent <= 1 or self.exponent % 2 == 0:
            raise ConfigError(
                f"convolution exponent must be an odd integer > 1, got {self.exponent}"
            )
        if not self.c > 0.0:
            raise ConfigError(f"convolution coefficient must be positive, got {self.c}")

    def _coef(self, q, r, k, mu):
        return self.c * q ** (self.exponent - 1)

    def _phi(self, q, r, k, mu):
        return self.c * q ** (self.exponent + 1) / (self.exponent + 1)

    def _stiff0(self, r):
        return self.c * self.exponent * r ** (self.exponent - 1)


@dataclass(frozen=True)
class NonlinearP(KernelModel):
    """Power-law family with singular reference-length denominator.

    phi = kappa q^p / r^(dim + alpha p), f = kappa p q^(p-2) q_vec /
    r^(dim + alpha p). Requires p >= 2 and alpha in (0, 1); the stored dim
    must match the cloud the model is used with.
    """

    kappa: float = 1.0
    p: float = 2.0
    alpha: float = 0.5
    dim: int = 1
    delta: float = math.inf

    family = "nonlinear-p"

    def __post_init__(self):
        if not self.kappa > 0.0:
            raise ConfigError(f"kappa must be positive, got {self.kappa}")
        if not self.p >= 2.0:
            raise ConfigError(f"exponent p must satisfy p >= 2, got {self.p}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(
                f"alpha must lie in the open interval (0, 1), got {self.alpha}"
            )
        if self.dim not in (1, 2, 3):
            raise ConfigError(f"dim must be 1, 2, or 3, got {self.dim}")

    def validate_dim(self, dim):
        if dim != self.dim:
            raise ConfigError(
                f"nonlinear-p model built for dim {self.dim} used with dim {dim}"
            )

    def _denom(self, r):
        return r ** (self.dim + self.alpha * self.p)

    def _coef(self, q, r, k, mu):
        return self.kappa * self.p * q ** (self.p - 2.0) / self._denom(r)

    def _phi(self, q, r, k, mu):
        return self.kappa * q**self.p / self._denom(r)

    def _stiff0(self, r):
        return self.kappa * self.p * (self.p - 1.0) * r ** (self.p - 2.0) / self._denom(r)


@dataclass(frozen=True)
class NanoMembrane(KernelModel):
    """Thin-membrane family with a hard repulsive core.

    f = (2c/r)(q/r - (q/r)^-3) g mu n. The inverse-cube term diverges as
    the deformed length collapses, so coincidence is energetically barred.
    g is a positive constant.
    """

    c: float = 1.0
    g: float = 1.0
    delta: float = math.inf
    breaker: BondBreaker = BondBreaker()

    family = "nano-membrane"
    needs_direction = True

    def __post_init__(self):
        if not self.c > 0.0:
            raise ConfigError(f"{self.family} c must be positive, got {self.c}")
        if not self.g > 0.0:
            raise ConfigError(f"{self.family} g must be positive, got {self.g}")

    def _magnitude(self, q, r, k, mu):
        ratio = q / r
        return (2.0 * self.c / r) * (ratio - ratio**-3) * self.g * mu

    def _coef(self, q, r, k, mu):
        return self._magnitude(q, r, k, mu) / q

    def _phi(self, q, r, k, mu):
        # Antiderivative of the magnitude in q, shifted to vanish at q = r.
        return (self.c * self.g / r) * (q**2 / r + r**3 / q**2 - 2.0 * r) * mu

    def _stiff0(self, r):
        return 8.0 * self.c * self.g / r**2


@dataclass(frozen=True)
class NanoFiber(NanoMembrane):
    """Fiber family: membrane elasticity plus 12-6 van der Waals terms.

    Only the elastic bracket is scaled by g and the breaker factor mu; the
    van der Waals pair -(12 a/delta)(delta/q)^13 + (6 b/delta)(delta/q)^7
    acts along n unconditionally. Requires a finite delta (it sets the van
    der Waals length scale).
    """

    delta: float = 1.0
    vdw_a: float = 0.0
    vdw_b: float = 0.0

    family = "nano-fiber"

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ConfigError(f"nano-fiber delta must be finite positive, got {self.delta}")
        if self.vdw_a < 0.0 or self.vdw_b < 0.0:
            raise ConfigError("van der Waals coefficients must be non-negative")

    def _vdw_potential(self, q):
        d = self.delta
        return self.vdw_a * (d / q) ** 12 - self.vdw_b * (d / q) ** 6

    def _magnitude(self, q, r, k, mu):
        d = self.delta
        vdw = -(12.0 * self.vdw_a / d) * (d / q) ** 13 + (6.0 * self.vdw_b / d) * (d / q) ** 7
        return super()._magnitude(q, r, k, mu) + vdw

    def _phi(self, q, r, k, mu):
        return super()._phi(q, r, k, mu) + (self._vdw_potential(q) - self._vdw_potential(r))

    def _stiff0(self, r):
        d = self.delta
        vdw = 156.0 * self.vdw_a * d**12 / r**14 - 42.0 * self.vdw_b * d**6 / r**8
        return super()._stiff0(r) + vdw


KERNEL_FAMILIES = {
    cls.family: cls
    for cls in (
        AntiPlaneShear,
        QuadraticPotential,
        PMB,
        ConstructiveRod,
        Convolution,
        NonlinearP,
        NanoMembrane,
        NanoFiber,
    )
}


def default_models(delta: float = 1.0, dim: int = 3) -> dict:
    """One representative, axiom-checkable instance per family.

    The same table backs the command-line kernel check and the verification
    suite, so both always exercise identical parameter points.
    """
    return {
        "anti-plane-shear": AntiPlaneShear(c=1.0, u_star=math.inf, delta=delta),
        "quadratic": QuadraticPotential(alpha=1.0, delta=delta),
        "pmb": PMB(micro=MicroModulus("cylindrical", 1.0, delta)),
        "rod": ConstructiveRod(micro=MicroModulus("triangular", 1.0, delta)),
        "convolution": Convolution(c=1.0, exponent=3, delta=delta),
        "nonlinear-p": NonlinearP(kappa=1.0, p=2.5, alpha=0.5, dim=dim, delta=delta),
        "nano-membrane": NanoMembrane(c=1.0, g=1.0, delta=delta),
        "nano-fiber": NanoFiber(c=1.0, vdw_a=0.5, vdw_b=1.0, delta=delta, g=1.0),
    }


@dataclass(frozen=True)
class AxiomReport:
    """Result of the kernel axiom sweep for one family, against fixed tolerances."""

    family: str
    n_samples: int
    antisymmetry_max: float
    collinearity_max: float
    gradient_max: float
    n_excluded: int
    antisymmetry_tol: ClassVar[float] = 1e-10
    collinearity_tol: ClassVar[float] = 1e-12
    gradient_tol: ClassVar[float] = 1e-6

    @property
    def passed(self) -> bool:
        return (
            self.antisymmetry_max < self.antisymmetry_tol
            and self.collinearity_max < self.collinearity_tol
            and self.gradient_max < self.gradient_tol
        )

    def summary(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (
            f"{self.family:>16s}  antisym {self.antisymmetry_max:8.1e}  "
            f"collin {self.collinearity_max:8.1e}  grad {self.gradient_max:8.1e}  "
            f"excluded {self.n_excluded:3d}  [{status}]"
        )


def _unit_vectors(rng, n, dim):
    if dim == 1:
        return rng.choice([-1.0, 1.0], size=(n, 1))
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _cross_residual(z, f):
    """Relative collinearity residual |z x f| / (|z| |f|) per sample."""
    dim = z.shape[1]
    if dim == 1:
        num = np.zeros(z.shape[0])
    elif dim == 2:
        num = np.abs(z[:, 0] * f[:, 1] - z[:, 1] * f[:, 0])
    else:
        num = np.linalg.norm(np.cross(z, f), axis=1)
    denom = np.maximum(np.linalg.norm(z, axis=1) * np.linalg.norm(f, axis=1), 1e-300)
    return num / denom


def check_kernel_axioms(model, dim, n_samples=1000, seed=0):
    """Randomized verification of the structural bond-force axioms.

    Samples reference separations with |xi| in (0.1 L, L) and displacements
    with |eta| <= 0.5 |xi| (L is the model's horizon delta, or 1 when that
    is infinite). Checks antisymmetry f(-xi, -eta) = -f(xi, eta), collinearity
    of f with xi + eta, and the match between f and the central-difference
    eta-gradient of the potential (step 1e-6 max(1, |eta|)). Samples whose FD
    stencil straddles a force discontinuity are excluded from the gradient
    check and counted in the report. An n_samples below 1 or a negative seed
    is a ConfigError.
    """
    if n_samples < 1:
        raise ConfigError(f"n_samples: must be at least 1, got {n_samples}")
    if seed < 0:
        raise ConfigError(f"seed: must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    scale = model.delta if math.isfinite(model.delta) else 1.0
    r = rng.uniform(0.1 * scale, scale, n_samples)
    xi = r[:, None] * _unit_vectors(rng, n_samples, dim)
    eta_mag = rng.uniform(0.0, 0.5, n_samples) * r
    eta = eta_mag[:, None] * _unit_vectors(rng, n_samples, dim)

    f = model.force(xi, eta)
    f_neg = model.force(-xi, -eta)
    antisymmetry_max = float(np.max(np.abs(f_neg + f)))

    collinearity_max = float(np.max(_cross_residual(xi + eta, f)))

    step = 1e-6 * np.maximum(1.0, np.linalg.norm(eta, axis=1))
    grad = np.empty_like(f)
    for k in range(dim):
        bump = np.zeros_like(eta)
        bump[:, k] = step
        grad[:, k] = (model.potential(xi, eta + bump) - model.potential(xi, eta - bump)) / (
            2.0 * step
        )
    exclude = model.gradient_exclusion_mask(xi, eta, step)
    err = np.linalg.norm(f - grad, axis=1)
    force_scale = max(float(np.max(np.linalg.norm(f, axis=1))), 1e-300)
    kept = ~exclude
    gradient_max = float(np.max(err[kept]) / force_scale) if np.any(kept) else 0.0

    return AxiomReport(
        family=model.family,
        n_samples=n_samples,
        antisymmetry_max=antisymmetry_max,
        collinearity_max=collinearity_max,
        gradient_max=gradient_max,
        n_excluded=int(np.sum(exclude)),
    )
