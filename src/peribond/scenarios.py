"""Shipped experiment presets and the config -> runnable-objects bridge.

materialize(cfg) is the one path from a config to a run: it passes cfg
through config.validate_config, then only builds. Every section builds its
object, then the preset's hook in PRESET_SETUPS adds only what the config
format cannot say (initial fields, a seeded crack, an oracle); an auto dt
the hook leaves unset comes from stable_dt last. A hook refuses only a
horizon that reaches no neighbor, which needs the bond network. The preset
tables are config's; a builder overlays on its table the keywords it is given.
"""

from dataclasses import dataclass, fields, replace
import math

import numpy as np

from . import dynamics
from .config import (FAMILY_KEYS, KINDS, RunConfig, check_kernel, check_value, default_config,
                     validate_config)
from .discretization import HorizonConfig, PointCloud, build_bonds, build_grid
from .errors import ConfigError
from .fluidpd import MemoryConfig
from .kernels import KERNEL_FAMILIES, MicroModulus


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


def _preset_setup(preset: str, values: dict) -> SimSetup:
    """Materialize a preset's table overlaid with builder keywords checked by
    RunConfig.set; a keyword left as None keeps the table's value."""
    cfg = default_config(preset)
    for section, keys in values.items():
        for key, value in keys.items():
            if value is not None:
                cfg.set(section, key, value)
    return materialize(cfg)


def _resolution(keyword, value, kind):
    """value if it is a positive value of config kind "int" or "float", else a
    ConfigError naming the keyword, which sets [domain] h and [horizon] delta."""
    if KINDS[kind].test(value) and value > 0:
        return value
    raise ConfigError(f"{keyword}: must be {KINDS[kind].words} above 0, got {value!r}")


def bar_wave_spacing(delta, m):
    """The grid spacing delta / m of build_bar_wave, or a ConfigError naming
    delta or m when either is not a positive number."""
    return check_value("horizon", "delta", delta) / _resolution("m", m, "float")


def build_bar_wave(delta: float = 0.1, m: int = 4, amplitude: float = None,
                   periods: float = None, safety: float = None,
                   n_steps: int = None) -> SimSetup:
    """Periodic 1D bar (h = delta / m) carrying a right-traveling sine wave.

    The wave speed is derived from the bond network's own linearized
    modulus, so the oracle measures the nonlocal operator's dispersion
    (vanishing as delta -> 0), not quadrature noise. One period is one
    domain traversal; dt divides it exactly. n_steps=None runs `periods`
    periods. Every other value is the bar1d-wave table's.
    """
    h = bar_wave_spacing(delta, m)
    return _preset_setup("bar1d-wave", {
        "domain": {"h": h},
        "horizon": {"delta": delta},
        "time": {"steps": n_steps, "safety": safety},
        "scenario": {"amplitude": amplitude, "periods": periods},
    })


def build_plate_precrack(n: int = 64, v0: float = None, b0: float = None,
                         n_steps: int = None, record_every: int = None) -> SimSetup:
    """Unit n x n plate (delta = 3h), seeded through-crack, opened by a tensile pull.

    The crack is the segment y = 1/2, x in [1/4, 3/4]: every bond crossing it
    starts broken. The two halves are pulled apart by an opposing body force
    of magnitude b0 plus an opening velocity v0, and a critical-stretch
    breaker lets the crack extend. The bond constant is normalized so the
    linearized modulus equals [kernel] c0, keeping wave speed and time scale
    near unity at any resolution. Every other value is the plate2d-precrack
    table's.
    """
    h = 1.0 / _resolution("n", n, "int")
    return _preset_setup("plate2d-precrack", {
        "domain": {"h": h},
        "horizon": {"delta": 3 * h},
        "load": {"amplitude": None if b0 is None else (0.0, b0)},
        "time": {"steps": n_steps, "record_every": record_every},
        "scenario": {"v0": v0},
    })


def build_fluid_shear(n: int = 24, coefficient: float = None, v0: float = None,
                      dt: float = None, n_steps: int = None) -> SimSetup:
    """Doubly periodic unit n x n sheet (delta = 3h) with a sinusoidal shear flow.

    Under the zero-memory velocity-difference kernel the shear layer decays
    like a viscous fluid's; kinetic energy is monotone non-increasing. Every
    other value is the fluid-shear table's.
    """
    h = 1.0 / _resolution("n", n, "int")
    return _preset_setup("fluid-shear", {
        "domain": {"h": h},
        "horizon": {"delta": 3 * h},
        "memory": {"coefficient": coefficient},
        "time": {"dt": dt, "steps": n_steps},
        "scenario": {"v0": v0},
    })


def _seed_crack(cloud, bonds, y_c, x0, x1):
    """Zero out bonds whose reference segment crosses the seam y = y_c,
    x in [x0, x1]. A point on the seam counts as above it, so a row of
    points there is cut off from the row below. The two ends' heights are
    the only full-length float arrays: the crossing point is found for the
    straddling pairs alone."""
    yi = np.take(cloud.positions[:, 1], bonds.source)
    yj = yi + bonds.xi[:, 1]
    yj -= y_c
    yi -= y_c
    rows = np.flatnonzero((yi < 0.0) != (yj < 0.0))
    yi, yj = yi[rows], yj[rows]
    x_i = cloud.positions[bonds.source[rows], 0]
    x_j = x_i + bonds.xi[rows, 0]
    x_cross = x_i + -yi / (yj - yi) * (x_j - x_i)
    bonds.mu[rows[(x_cross >= x0) & (x_cross <= x1)]] = 0.0


def _modulus(preset, cloud, bonds, model, point=0, axis=0):
    """linearized_modulus, refused when the horizon reaches no neighbor."""
    e = linearized_modulus(cloud, bonds, model, point, axis)
    if not e > 0.0:
        raise ConfigError(f"[horizon] delta: {preset} has no bond stiffness; "
                          "the horizon must reach a neighbor")
    return e


def _bar_wave(cfg: RunConfig, setup: SimSetup):
    cloud, bonds, model = setup.cloud, setup.bonds, setup.model
    e_eff = _modulus("bar1d-wave", cloud, bonds, model)
    length = float(cloud.box[0])
    c_wave = math.sqrt(e_eff / cloud.density)
    k = 2.0 * math.pi / length
    amplitude = cfg.get("scenario", "amplitude")
    x = cloud.positions[:, 0]
    setup.state.u[:, 0] = amplitude * np.sin(k * x)
    setup.state.v[:, 0] = -amplitude * k * c_wave * np.cos(k * x)

    period = length / c_wave
    if setup.dt is None:
        stable = dynamics.stable_dt(cloud, bonds, model, cfg.get("time", "safety"))
        setup.dt = period / math.ceil(period / stable)
    if setup.n_steps == 0:
        per_period = max(1, round(period / setup.dt))
        setup.n_steps = round(cfg.get("scenario", "periods") * per_period)

    def oracle(xq, t):
        return amplitude * np.sin(k * (np.asarray(xq) - c_wave * t))

    setup.oracle = oracle


def _plate_precrack(cfg: RunConfig, setup: SimSetup):
    cloud, bonds, model = setup.cloud, setup.bonds, setup.model
    n_y = int(round(cloud.box[1] / cloud.spacing))
    probe = replace(model, micro=replace(model.micro, c0=1.0))
    e_raw = _modulus("plate2d-precrack", cloud, bonds, probe,
                     point=cloud.n_points // 2 + n_y // 2, axis=1)
    setup.model = replace(model, micro=replace(model.micro, c0=model.micro.c0 / e_raw))

    y_c = 0.5 * cloud.box[1]
    _seed_crack(cloud, bonds, y_c, 0.25 * cloud.box[0], 0.75 * cloud.box[0])
    setup.state.v[:, 1] = (cfg.get("scenario", "v0")
                           * np.where(cloud.positions[:, 1] < y_c, -1.0, 1.0))


def _fluid_shear(cfg: RunConfig, setup: SimSetup):
    y = setup.cloud.positions[:, 1]
    setup.state.v[:, 0] = (cfg.get("scenario", "v0")
                           * np.sin(2.0 * math.pi * y / setup.cloud.box[1]))


# What each preset adds to its table's setup, in materialize.
PRESET_SETUPS = {
    "bar1d-wave": _bar_wave,
    "plate2d-precrack": _plate_precrack,
    "fluid-shear": _fluid_shear,
}


def model_from_config(cfg: RunConfig, delta: float, dim: int):
    """Build the configured kernel family by one rule: its FAMILY_KEYS from
    [kernel] (micro and c0 as one MicroModulus) plus, where the class has the
    field, the run's delta, dim and [breaker] section. The refusals are
    config.check_kernel's, which validate_config applies too."""
    breaker = check_kernel(cfg)
    family = cfg.get("kernel", "family")
    values = {key: cfg.get("kernel", key) for key in FAMILY_KEYS[family]}
    if "micro" in values:
        values["micro"] = MicroModulus(values["micro"], values.pop("c0"), delta)
    takes = {f.name for f in fields(KERNEL_FAMILIES[family])}
    injected = {"delta": delta, "dim": dim, "breaker": breaker}
    values.update((name, value) for name, value in injected.items() if name in takes)
    return KERNEL_FAMILIES[family](**values)


def materialize(cfg: RunConfig) -> SimSetup:
    """Turn a config into runnable objects.

    validate_config refuses first whatever no run can honour, before
    anything is built; then every section builds its object, the preset's
    hook adds what the config format cannot say, and an auto dt the hook
    leaves unset comes from stable_dt.
    """
    validate_config(cfg)
    memory = MemoryConfig(**cfg.sections["memory"])
    dt = cfg.get("time", "dt")
    cloud = build_grid(
        cfg.get("domain", "box"), cfg.get("domain", "h"),
        cfg.get("domain", "rho"), periodic=cfg.get("domain", "periodic"),
    )
    horizon = HorizonConfig(**cfg.sections["horizon"])
    model = model_from_config(cfg, horizon.delta, cfg.get("domain", "dim"))
    setup = SimSetup(
        cloud=cloud,
        bonds=None if memory.mode == "zero" else build_bonds(cloud, horizon),
        model=model, state=dynamics.zero_state(cloud),
        dt=None if dt == "auto" else float(dt),
        n_steps=cfg.get("time", "steps"), horizon=horizon,
        load=(None if cfg.get("load", "preset") == "none"
              else dynamics.ExternalLoad(**cfg.sections["load"])),
        memory=memory,
        record_every=cfg.get("time", "record_every"),
        snapshot_every=cfg.get("output", "snapshot_every"),
    )
    hook = PRESET_SETUPS.get(cfg.get("scenario", "preset"))
    if hook is not None:
        hook(cfg, setup)
    if setup.dt is None:
        setup.dt = dynamics.stable_dt(cloud, setup.bonds, setup.model,
                                      cfg.get("time", "safety"))
    return setup
