"""Shipped experiment presets and the config -> runnable-objects bridge.

Three presets cover the library's verification surface: a periodic bar
carrying a traveling sine wave (horizon-refinement studies), a plate with a
seeded crack under tensile load (damage growth), and a periodic shear flow
under the zero-memory fluid kernel (viscous decay). Each preset is both a
config table (so the CLI can select and override it) and a builder returning
ready-to-run objects with initial conditions the config format cannot
express.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from . import dynamics
from .config import RunConfig
from .discretization import HorizonConfig, PointCloud, build_bonds, build_grid
from .errors import ConfigError
from .fluidpd import MemoryConfig
from .kernels import (
    AntiPlaneShear,
    BondBreaker,
    ConstructiveRod,
    Convolution,
    MicroModulus,
    NanoFiber,
    NanoMembrane,
    NonlinearP,
    PMB,
    QuadraticPotential,
)


@dataclass
class SimSetup:
    """Everything a run needs, plus the oracle when the scenario has one."""

    cloud: PointCloud
    bonds: object
    model: object
    state: dynamics.SimState
    dt: float
    n_steps: int
    horizon: HorizonConfig
    load: object = None
    memory: object = None
    record_every: int = 1
    snapshot_every: int = 0
    oracle: object = None   # oracle(x, t) -> exact displacement, when known


def linearized_modulus(cloud, bonds, model, point=0, axis=0):
    """Effective small-strain modulus of the bond network at one point.

    E = (1/2) sum_j w_j C(r_j) xi_j_axis^2 over the bonds at the point, at
    either end of their pair; the long-wave speed of the discrete operator
    is sqrt(E / rho).
    """
    rows, _, xi, w = bonds.bonds_of(point)
    c = model.stiffness0(bonds.xi_norm[rows])
    return 0.5 * float(np.sum(w * c * xi[:, axis] ** 2))


def build_bar_wave(
    delta: float = 0.1,
    m: int = 4,
    length: float = 1.0,
    rho: float = 1.0,
    c0: float = 1.0,
    micro: str = "cylindrical",
    amplitude: float = 1e-3,
    periods: float = 1.0,
    safety: float = 0.5,
    dt: float = None,
    n_steps: int = None,
) -> SimSetup:
    """Periodic 1D bar carrying a right-traveling sine wave.

    The wave speed is derived from the bond network's own linearized
    modulus, so the oracle measures the nonlocal operator's dispersion
    (vanishing as delta -> 0), not quadrature noise. One period is one
    domain traversal; dt divides it exactly.
    """
    h = delta / m
    cloud = build_grid((length,), h, rho, periodic=(True,))
    horizon = HorizonConfig(delta)
    model = PMB(micro=MicroModulus(micro, c0, delta))
    bonds = build_bonds(cloud, horizon)

    e_eff = linearized_modulus(cloud, bonds, model)
    if not e_eff > 0.0:
        raise ConfigError("bar has no bond stiffness; check delta and c0")
    c_wave = math.sqrt(e_eff / rho)
    k = 2.0 * math.pi / length
    x = cloud.positions[:, 0]

    state = dynamics.zero_state(cloud)
    state.u[:, 0] = amplitude * np.sin(k * x)
    state.v[:, 0] = -amplitude * k * c_wave * np.cos(k * x)

    period = length / c_wave
    if dt is None:
        per_period = int(math.ceil(period / dynamics.stable_dt(cloud, bonds, model, safety)))
        dt = period / per_period
    else:
        per_period = max(1, int(round(period / dt)))
    if n_steps is None:
        n_steps = int(round(periods * per_period))

    def oracle(xq, t):
        return amplitude * np.sin(k * (np.asarray(xq) - c_wave * t))

    return SimSetup(
        cloud=cloud, bonds=bonds, model=model, state=state, dt=dt,
        n_steps=n_steps, horizon=horizon,
        record_every=max(1, n_steps // 200), oracle=oracle,
    )


def _seed_crack(cloud, bonds, y_c, x0, x1):
    """Zero out bonds whose reference segment crosses the seam y = y_c,
    x in [x0, x1]. Returns the count of bond pairs cut."""
    pos_i = cloud.positions[bonds.source]
    pos_j = pos_i + bonds.xi
    yi = pos_i[:, 1] - y_c
    yj = pos_j[:, 1] - y_c
    straddles = yi * yj < 0.0
    t = np.zeros_like(yi)
    np.divide(-yi, yj - yi, out=t, where=straddles)
    x_cross = pos_i[:, 0] + t * (pos_j[:, 0] - pos_i[:, 0])
    cut = straddles & (x_cross >= x0) & (x_cross <= x1)
    bonds.mu[cut] = 0.0
    return int(np.count_nonzero(cut))


def build_plate_precrack(
    n: int = 64,
    size: float = 1.0,
    m: int = 3,
    rho: float = 1.0,
    modulus: float = 1.0,
    s0: float = 0.03,
    v0: float = 0.005,
    b0: float = 0.05,
    n_steps: int = 800,
    safety: float = 0.5,
    dt: float = None,
    record_every: int = None,
) -> SimSetup:
    """Square plate, seeded through-crack, opened by a tensile pull.

    The crack is the segment y = size/2, x in [size/4, 3 size/4]: every bond
    crossing it starts broken. The two halves are pulled apart by an opposing
    body force plus a small opening velocity, and a critical-stretch breaker
    lets the crack extend. The bond constant is normalized so the linearized
    modulus equals `modulus`, keeping wave speed and time scale near unity
    at any resolution.
    """
    h = size / n
    delta = m * h
    cloud = build_grid((size, size), h, rho, periodic=(False, False))
    horizon = HorizonConfig(delta)
    probe = PMB(micro=MicroModulus("cylindrical", 1.0, delta))
    bonds = build_bonds(cloud, horizon)

    center = cloud.n_points // 2 + n // 2   # an interior point, full horizon
    e_raw = linearized_modulus(cloud, bonds, probe, point=center, axis=1)
    c0 = modulus / e_raw
    model = PMB(
        micro=MicroModulus("cylindrical", c0, delta),
        breaker=BondBreaker("critical-stretch", s0=s0),
    )

    y_c = 0.5 * size
    _seed_crack(cloud, bonds, y_c, 0.25 * size, 0.75 * size)

    state = dynamics.zero_state(cloud)
    state.v[:, 1] = v0 * np.sign(cloud.positions[:, 1] - y_c)
    load = dynamics.ExternalLoad(
        preset="opposing-last-axis", amplitude=(0.0, b0), center=y_c
    )

    if dt is None:
        dt = dynamics.stable_dt(cloud, bonds, model, safety)
    if record_every is None:
        record_every = max(1, n_steps // 8)
    return SimSetup(
        cloud=cloud, bonds=bonds, model=model, state=state, dt=dt,
        n_steps=n_steps, horizon=horizon, load=load,
        record_every=record_every,
    )


def build_fluid_shear(
    n: int = 24,
    size: float = 1.0,
    m: int = 3,
    rho: float = 1.0,
    coefficient: float = 50.0,
    v0: float = 1.0,
    dt: float = 0.02,
    n_steps: int = 2000,
) -> SimSetup:
    """Doubly periodic sheet with a sinusoidal shear velocity profile.

    Under the zero-memory velocity-difference kernel the shear layer decays
    like a viscous fluid's; kinetic energy is monotone non-increasing.
    """
    h = size / n
    delta = m * h
    cloud = build_grid((size, size), h, rho, periodic=(True, True))
    horizon = HorizonConfig(delta)
    memory = MemoryConfig(mode="zero", coefficient=coefficient, fluid_kernel="linear")

    state = dynamics.zero_state(cloud)
    state.v[:, 0] = v0 * np.sin(2.0 * math.pi * cloud.positions[:, 1] / size)

    return SimSetup(
        cloud=cloud, bonds=None, model=None, state=state, dt=dt,
        n_steps=n_steps, horizon=horizon, memory=memory,
        record_every=max(1, n_steps // 200),
    )


# Config-table form of the presets: what the CLI overlays when [scenario]
# preset names one of these. Keys written explicitly by the user win.
PRESET_CONFIGS = {
    "bar1d-wave": {
        "domain": {"dim": 1, "box": (1.0,), "h": 0.025, "rho": 1.0,
                   "periodic": (True,)},
        "horizon": {"delta": 0.1},
        "kernel": {"family": "pmb", "c0": 1.0, "micro": "cylindrical"},
        "time": {"dt": "auto", "steps": 0, "record_every": 10, "safety": 0.5},
        "scenario": {"preset": "bar1d-wave", "amplitude": 1e-3, "m": 4,
                     "periods": 1.0},
    },
    "plate2d-precrack": {
        "domain": {"dim": 2, "box": (1.0, 1.0), "h": 1.0 / 64.0, "rho": 1.0,
                   "periodic": (False, False)},
        "horizon": {"delta": 3.0 / 64.0},
        "kernel": {"family": "pmb", "c0": 1.0, "micro": "cylindrical"},
        "breaker": {"mode": "critical-stretch", "s0": 0.03},
        "load": {"preset": "opposing-last-axis", "amplitude": (0.0, 0.05),
                 "center": 0.5},
        "time": {"dt": "auto", "steps": 800, "record_every": 100,
                 "safety": 0.5},
        "scenario": {"preset": "plate2d-precrack", "m": 3, "v0": 0.005},
    },
    "fluid-shear": {
        "domain": {"dim": 2, "box": (1.0, 1.0), "h": 1.0 / 24.0, "rho": 1.0,
                   "periodic": (True, True)},
        "horizon": {"delta": 0.125},
        "memory": {"mode": "zero", "s": math.inf, "coefficient": 50.0,
                   "fluid_kernel": "linear"},
        "time": {"dt": 0.02, "steps": 2000, "record_every": 10},
        "scenario": {"preset": "fluid-shear", "m": 3, "v0": 1.0},
    },
}

_BREAKER_FAMILIES = ("pmb", "nano-membrane", "nano-fiber")


def model_from_config(cfg: RunConfig, delta: float, dim: int):
    """Instantiate the configured kernel family with the horizon injected."""
    k = cfg.sections["kernel"]
    family = k["family"]
    breaker = BondBreaker(
        cfg.get("breaker", "mode"), s0=cfg.get("breaker", "s0"),
        eps=cfg.get("breaker", "eps"),
    )
    if breaker.mode != "none" and family not in _BREAKER_FAMILIES:
        raise ConfigError(
            f"[breaker] mode: family {family!r} does not take a breaker "
            f"(supported: {', '.join(_BREAKER_FAMILIES)})"
        )
    if family == "anti-plane-shear":
        return AntiPlaneShear(c=k["c"], u_star=k["u_star"], delta=delta)
    if family == "quadratic":
        if not k["alpha"] > 0.0:
            raise ConfigError(
                f"[kernel] alpha: must be positive for the quadratic family, "
                f"got {k['alpha']}"
            )
        return QuadraticPotential(alpha=k["alpha"], delta=delta)
    if family == "pmb":
        return PMB(micro=MicroModulus(k["micro"], k["c0"], delta), breaker=breaker)
    if family == "rod":
        return ConstructiveRod(micro=MicroModulus(k["micro"], k["c0"], delta))
    if family == "convolution":
        return Convolution(c=k["c"], exponent=k["exponent"], delta=delta)
    if family == "nonlinear-p":
        return NonlinearP(kappa=k["kappa"], p=k["p"], alpha=k["alpha"],
                          dim=dim, delta=delta)
    if family == "nano-membrane":
        return NanoMembrane(c=k["c"], g=k["g"], delta=delta, breaker=breaker)
    if family == "nano-fiber":
        return NanoFiber(c=k["c"], vdw_a=k["vdw_a"], vdw_b=k["vdw_b"],
                         delta=delta, g=k["g"], breaker=breaker)
    raise ConfigError(f"[kernel] family: unhandled family {family!r}")


def memory_from_config(cfg: RunConfig) -> MemoryConfig:
    return MemoryConfig(
        mode=cfg.get("memory", "mode"),
        s=cfg.get("memory", "s"),
        coefficient=cfg.get("memory", "coefficient"),
        fluid_kernel=cfg.get("memory", "fluid_kernel"),
    )


def load_from_config(cfg: RunConfig):
    preset = cfg.get("load", "preset")
    if preset == "none":
        return None
    return dynamics.ExternalLoad(
        preset=preset,
        amplitude=tuple(cfg.get("load", "amplitude")),
        wavelength=cfg.get("load", "wavelength"),
        center=cfg.get("load", "center"),
    )


def materialize(cfg: RunConfig) -> SimSetup:
    """Turn a validated config into runnable objects.

    Preset scenarios delegate to their builders (which own the initial
    conditions); explicitly set [time] and [horizon] keys still win. Under
    bar1d-wave, steps = 0 means "derive the count from scenario periods".
    """
    preset = cfg.get("scenario", "preset")
    dt_key = cfg.get("time", "dt")
    dt = None if dt_key == "auto" else float(dt_key)
    steps = cfg.get("time", "steps")

    if preset == "bar1d-wave":
        setup = build_bar_wave(
            delta=cfg.get("horizon", "delta"),
            m=cfg.get("scenario", "m"),
            length=cfg.get("domain", "box")[0],
            rho=cfg.get("domain", "rho"),
            c0=cfg.get("kernel", "c0"),
            micro=cfg.get("kernel", "micro"),
            amplitude=cfg.get("scenario", "amplitude"),
            periods=cfg.get("scenario", "periods"),
            safety=cfg.get("time", "safety"),
            dt=dt,
            n_steps=steps if steps > 0 else None,
        )
        setup.record_every = cfg.get("time", "record_every")
    elif preset == "plate2d-precrack":
        setup = build_plate_precrack(
            n=int(round(cfg.get("domain", "box")[0] / cfg.get("domain", "h"))),
            size=cfg.get("domain", "box")[0],
            m=cfg.get("scenario", "m"),
            rho=cfg.get("domain", "rho"),
            s0=cfg.get("breaker", "s0"),
            v0=cfg.get("scenario", "v0"),
            b0=(cfg.get("load", "amplitude")[-1]
                if cfg.get("load", "preset") != "none" else 0.0),
            n_steps=steps,
            safety=cfg.get("time", "safety"),
            dt=dt,
            record_every=cfg.get("time", "record_every"),
        )
    elif preset == "fluid-shear":
        setup = build_fluid_shear(
            n=int(round(cfg.get("domain", "box")[0] / cfg.get("domain", "h"))),
            size=cfg.get("domain", "box")[0],
            m=cfg.get("scenario", "m"),
            rho=cfg.get("domain", "rho"),
            coefficient=cfg.get("memory", "coefficient"),
            v0=cfg.get("scenario", "v0"),
            dt=dt if dt is not None else 0.02,
            n_steps=steps,
        )
        setup.record_every = cfg.get("time", "record_every")
    else:
        dim = cfg.get("domain", "dim")
        cloud = build_grid(
            cfg.get("domain", "box"), cfg.get("domain", "h"),
            cfg.get("domain", "rho"), periodic=cfg.get("domain", "periodic"),
        )
        horizon = HorizonConfig(
            cfg.get("horizon", "delta"),
            partial_volume=cfg.get("horizon", "partial_volume"),
        )
        model = model_from_config(cfg, horizon.delta, dim)
        memory = memory_from_config(cfg)
        bonds = None
        if memory.mode != "zero":
            bonds = build_bonds(cloud, horizon)
        state = dynamics.zero_state(cloud)
        if dt is None:
            if bonds is None:
                raise ConfigError(
                    "[time] dt: auto needs a bond network; zero-memory runs "
                    "must set dt explicitly"
                )
            dt = dynamics.stable_dt(cloud, bonds, model,
                                    cfg.get("time", "safety"))
        setup = SimSetup(
            cloud=cloud, bonds=bonds, model=model, state=state, dt=dt,
            n_steps=steps, horizon=horizon, load=load_from_config(cfg),
            memory=memory, record_every=cfg.get("time", "record_every"),
        )
    setup.snapshot_every = cfg.get("output", "snapshot_every")
    return setup
