"""Run configuration: line-oriented `[section]` / `key = value` files.

The format is deliberately small: sections in brackets, one key per line,
`#` starts a comment, values are scalars or comma-separated lists. Every
key is declared in the schema below with a type, a default, and an optional
constraint; unknown sections or keys are rejected, duplicates are rejected
naming the line, and every constraint failure names section, key, and the
constraint itself. parse_config(print_config(cfg)) reproduces cfg exactly
(floats are serialized with 17 significant digits).
"""

from dataclasses import dataclass, field, fields
import math

from .discretization import PARTIAL_VOLUME_MODES
from .dynamics import LOAD_PRESETS
from .errors import ConfigError
from .fluidpd import FLUID_KERNELS, MEMORY_MODES
from .kernels import BREAKER_MODES, KERNEL_FAMILIES, MICRO_FAMILIES

_SENTINEL = object()


@dataclass(frozen=True)
class Field:
    kind: str                # int | float | bool | str | float_list | bool_list | dt
    default: object
    choices: tuple = ()
    constraint: str = ""     # human-readable; shown verbatim in errors
    check: object = None     # predicate on the parsed value


def _positive(v):
    return v > 0.0


def _non_negative(v):
    return v >= 0.0


SCHEMA = {
    "domain": {
        "dim": Field("int", 1, constraint="must be 1, 2, or 3",
                     check=lambda v: v in (1, 2, 3)),
        "box": Field("float_list", (1.0,), constraint="entries must be positive",
                     check=lambda v: all(x > 0.0 for x in v)),
        "h": Field("float", 0.025, constraint="must be positive", check=_positive),
        "rho": Field("float", 1.0, constraint="must be positive", check=_positive),
        "periodic": Field("bool_list", (True,)),
    },
    "horizon": {
        "delta": Field("float", 0.1, constraint="must be positive", check=_positive),
        "partial_volume": Field("str", "linear", choices=PARTIAL_VOLUME_MODES),
    },
    "kernel": {
        "family": Field("str", "pmb", choices=tuple(sorted(KERNEL_FAMILIES))),
        "c": Field("float", 1.0, constraint="must be positive", check=_positive),
        "u_star": Field("float", math.inf, constraint="must be positive",
                        check=_positive),
        "alpha": Field("float", 0.5),
        "c0": Field("float", 1.0, constraint="must be positive", check=_positive),
        "micro": Field("str", "cylindrical", choices=MICRO_FAMILIES),
        "exponent": Field("int", 3,
                          constraint="must be an odd integer greater than 1",
                          check=lambda v: v > 1 and v % 2 == 1),
        "kappa": Field("float", 1.0, constraint="must be positive", check=_positive),
        "p": Field("float", 2.0, constraint="must be at least 2",
                   check=lambda v: v >= 2.0),
        "g": Field("float", 1.0, constraint="must be positive", check=_positive),
        "vdw_a": Field("float", 0.0, constraint="must be non-negative",
                       check=_non_negative),
        "vdw_b": Field("float", 0.0, constraint="must be non-negative",
                       check=_non_negative),
    },
    "breaker": {
        "mode": Field("str", "none", choices=BREAKER_MODES),
        "s0": Field("float", math.inf, constraint="must be positive", check=_positive),
        "eps": Field("float", 0.0, constraint="must be non-negative",
                     check=_non_negative),
    },
    "load": {
        "preset": Field("str", "none", choices=LOAD_PRESETS),
        "amplitude": Field("float_list", ()),
        "wavelength": Field("float", 1.0, constraint="must be positive",
                            check=_positive),
        "center": Field("float", 0.5),
    },
    "time": {
        "dt": Field("dt", "auto", constraint="must be finite, positive or 'auto'"),
        "steps": Field("int", 100, constraint="must be non-negative",
                       check=lambda v: v >= 0),
        "record_every": Field("int", 1, constraint="must be at least 1",
                              check=lambda v: v >= 1),
        "safety": Field("float", 0.5, constraint="must be in (0, 1]",
                        check=lambda v: 0.0 < v <= 1.0),
    },
    "memory": {
        "mode": Field("str", "infinite", choices=MEMORY_MODES),
        "s": Field("float", math.inf, constraint="must be positive", check=_positive),
        "coefficient": Field("float", 1.0, constraint="must be positive",
                             check=_positive),
        "fluid_kernel": Field("str", "linear", choices=FLUID_KERNELS),
    },
    "output": {
        "directory": Field("str", "out"),
        "snapshot_every": Field("int", 0, constraint="must be non-negative",
                                check=lambda v: v >= 0),
    },
    "scenario": {
        "preset": Field("str", "none",
                        choices=("none", "bar1d-wave", "plate2d-precrack",
                                 "fluid-shear")),
        "amplitude": Field("float", 1e-3, constraint="must be positive",
                           check=_positive),
        "periods": Field("float", 1.0, constraint="must be positive",
                         check=_positive),
        "v0": Field("float", 0.1, constraint="must be positive", check=_positive),
    },
}

# keys of [kernel] that each family accepts, besides "family": the fields of
# its class in field order, less the values the run injects (delta, dim and
# the [breaker] section), with a micro-modulus field read as c0 and micro
FAMILY_KEYS = {
    family: tuple(key for f in fields(cls) if f.name not in ("delta", "dim", "breaker")
                  for key in (("c0", "micro") if f.name == "micro" else (f.name,)))
    for family, cls in KERNEL_FAMILIES.items()
}

# keys of [scenario] that each preset reads, besides "preset"
PRESET_KEYS = {
    "none": (),
    "bar1d-wave": ("amplitude", "periods"),
    "plate2d-precrack": ("v0",),
    "fluid-shear": ("v0",),
}

# section -> (selector key, {selector value: the other keys it reads}); an
# explicit key its selector does not read is rejected, and print_config
# omits it
SELECTED_KEYS = {
    "kernel": ("family", FAMILY_KEYS),
    "breaker": ("mode", {"none": (), "critical-stretch": ("s0",),
                         "theta-eps": ("s0", "eps")}),
    "load": ("preset", {"none": (), "constant": ("amplitude",),
                        "sinusoidal-in-x": ("amplitude", "wavelength"),
                        "opposing-last-axis": ("amplitude", "center")}),
    "memory": ("mode", {"infinite": (), "finite": ("s",),
                        "zero": ("coefficient", "fluid_kernel")}),
    "scenario": ("preset", PRESET_KEYS),
}


@dataclass
class RunConfig:
    """Validated run configuration: a full table of every schema key."""

    sections: dict = field(default_factory=dict)

    def get(self, section, key):
        return self.sections[section][key]

    def set(self, section, key, value):
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown key [{section}] {key}")
        self.sections[section][key] = value

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.sections == other.sections


def _parse_scalar(section, key, spec, raw, lineno):
    where = f"[{section}] {key}"
    raw = raw.strip()

    def fail(reason):
        at = f" (line {lineno})" if lineno else ""
        return ConfigError(f"{where}: {reason}{at}")

    if spec.kind == "int":
        try:
            value = int(raw)
        except ValueError:
            raise fail(f"expected an integer, got {raw!r}") from None
    elif spec.kind in ("float", "dt"):
        if spec.kind == "dt" and raw == "auto":
            return "auto"
        try:
            value = float(raw)
        except ValueError:
            raise fail(f"expected a number, got {raw!r}") from None
        if spec.kind == "dt" and not 0.0 < value < math.inf:
            raise fail(f"{spec.constraint}, got {raw}")
    elif spec.kind == "bool":
        if raw not in ("true", "false"):
            raise fail(f"expected true or false, got {raw!r}")
        value = raw == "true"
    elif spec.kind == "str":
        value = raw
    elif spec.kind == "float_list":
        parts = [p.strip() for p in raw.split(",")] if raw else []
        try:
            value = tuple(float(p) for p in parts if p != "")
        except ValueError:
            raise fail(f"expected comma-separated numbers, got {raw!r}") from None
    elif spec.kind == "bool_list":
        parts = [p.strip() for p in raw.split(",")] if raw else []
        for p in parts:
            if p not in ("true", "false"):
                raise fail(f"expected comma-separated true/false, got {raw!r}")
        value = tuple(p == "true" for p in parts)
    else:  # pragma: no cover - schema is static
        raise fail(f"unhandled kind {spec.kind}")

    if spec.choices and value not in spec.choices:
        raise fail(f"must be one of {', '.join(spec.choices)}; got {value!r}")
    if spec.check is not None and not spec.check(value):
        raise fail(f"{spec.constraint}, got {raw}")
    return value


def read_keys(cfg: RunConfig, section: str) -> tuple:
    """The keys of section that cfg reads: those its selector value names,
    or every key of a section without a selector."""
    if section not in SELECTED_KEYS:
        return tuple(SCHEMA[section])
    selector, table = SELECTED_KEYS[section]
    return (selector,) + table[cfg.get(section, selector)]


def validate_config(cfg: RunConfig) -> RunConfig:
    """Cross-key consistency checks after per-key parsing."""
    dim = cfg.get("domain", "dim")
    for key in ("box", "periodic"):
        seq = cfg.get("domain", key)
        if len(seq) != dim:
            raise ConfigError(
                f"[domain] {key}: needs exactly {dim} entries for dim = {dim}, "
                f"got {len(seq)}"
            )
    # alpha is also the quadratic coefficient (any positive value, checked
    # where that model is built); (0, 1) bounds only the power-law exponent
    alpha = cfg.get("kernel", "alpha")
    if cfg.get("kernel", "family") == "nonlinear-p" and not 0.0 < alpha < 1.0:
        raise ConfigError(
            f"[kernel] alpha: alpha must lie in the open interval (0, 1) for "
            f"the nonlinear-p family, got {alpha}"
        )
    if cfg.get("breaker", "mode") == "critical-stretch" and not (
        cfg.get("breaker", "s0") > 0.0
    ):
        raise ConfigError("[breaker] s0: must be positive, got "
                          f"{cfg.get('breaker', 's0')}")
    if cfg.get("breaker", "mode") == "theta-eps" and not (
        cfg.get("breaker", "eps") > 0.0
    ):
        raise ConfigError(
            "[breaker] eps: must be positive for the theta-eps breaker, got "
            f"{cfg.get('breaker', 'eps')}"
        )
    memory_mode = cfg.get("memory", "mode")
    if cfg.get("breaker", "mode") != "none" and memory_mode != "infinite":
        raise ConfigError(
            f"[breaker] mode: {memory_mode} memory rediscovers its bonds every "
            "step, so no breaker applies; set [memory] mode = infinite or "
            "[breaker] mode = none"
        )
    amp = cfg.get("load", "amplitude")
    if cfg.get("load", "preset") != "none" and len(amp) != dim:
        raise ConfigError(
            f"[load] amplitude: needs exactly {dim} entries for dim = {dim}, "
            f"got {len(amp)}"
        )
    if cfg.get("memory", "mode") == "finite":
        s = cfg.get("memory", "s")
        if not (s > 0.0 and math.isfinite(s)):
            raise ConfigError(
                f"[memory] s: must be positive and finite for finite memory, got {s}"
            )
    return cfg


def default_config() -> RunConfig:
    sections = {
        section: {key: spec.default for key, spec in keys.items()}
        for section, keys in SCHEMA.items()
    }
    return RunConfig(sections)


def parse_config(text: str, forced_preset: str = None) -> RunConfig:
    """Parse, overlay the scenario preset (explicit keys win), validate.

    The preset's table (scenarios.PRESET_CONFIGS) makes a one-line config
    select a full experiment while any explicitly written key overrides it.
    forced_preset is the command-line preset flag; it conflicts with an
    explicit `[scenario] preset` line rather than silently losing to it.
    """
    explicit = {}   # (section, key) -> (value, lineno)
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("["):
            if not body.endswith("]"):
                raise ConfigError(f"malformed section header {line.strip()!r} "
                                  f"(line {lineno})")
            name = body[1:-1].strip()
            if name not in SCHEMA:
                raise ConfigError(f"unknown section [{name}] (line {lineno})")
            section = name
            continue
        if "=" not in body:
            raise ConfigError(f"expected 'key = value', got {body!r} (line {lineno})")
        if section is None:
            raise ConfigError(f"key outside any section (line {lineno})")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown key [{section}] {key} (line {lineno})")
        if (section, key) in explicit:
            first = explicit[(section, key)][1]
            raise ConfigError(
                f"duplicate key [{section}] {key} (line {lineno}, first set on "
                f"line {first})"
            )
        value = _parse_scalar(section, key, SCHEMA[section][key], raw, lineno)
        explicit[(section, key)] = (value, lineno)

    if forced_preset is not None:
        if ("scenario", "preset") in explicit:
            line = explicit[("scenario", "preset")][1]
            raise ConfigError(
                f"[scenario] preset: set both on the command line "
                f"({forced_preset!r}) and in the config (line {line})"
            )
        spec = SCHEMA["scenario"]["preset"]
        explicit[("scenario", "preset")] = (
            _parse_scalar("scenario", "preset", spec, forced_preset, 0), 0,
        )

    cfg = default_config()
    preset_name = explicit.get(("scenario", "preset"), (None, 0))[0]
    if preset_name and preset_name != "none":
        from .scenarios import PRESET_CONFIGS

        for psection, pkeys in PRESET_CONFIGS[preset_name].items():
            cfg.sections[psection].update(pkeys)
    for (esection, ekey), (value, _) in explicit.items():
        cfg.sections[esection][ekey] = value

    for (esection, ekey), (_, lineno) in explicit.items():
        if ekey not in read_keys(cfg, esection):
            selector, table = SELECTED_KEYS[esection]
            value = cfg.get(esection, selector)
            others = table[value]
            allowed = (f"allowed keys: {', '.join(others)}" if others
                       else f"{selector} {value!r} takes no other key")
            raise ConfigError(
                f"[{esection}] {ekey}: not accepted by {selector} {value!r} "
                f"(line {lineno}); {allowed}"
            )
    return validate_config(cfg)


def _format_value(spec, value):
    if spec.kind == "int":
        return str(int(value))
    if spec.kind == "float" or (spec.kind == "dt" and value != "auto"):
        return "%.17g" % float(value)
    if spec.kind == "dt":
        return "auto"
    if spec.kind == "bool":
        return "true" if value else "false"
    if spec.kind == "float_list":
        return ", ".join("%.17g" % float(v) for v in value)
    if spec.kind == "bool_list":
        return ", ".join("true" if v else "false" for v in value)
    return str(value)


def print_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(print_config(cfg)) == cfg.

    Each section lists only the keys cfg reads (read_keys); the others are
    rejected on input, so a parsed config holds them at their preset or
    default values.
    """
    lines = []
    for section in SCHEMA:
        lines.append(f"[{section}]")
        keys = read_keys(cfg, section)
        for key, spec in SCHEMA[section].items():
            if key in keys:
                lines.append(f"{key} = {_format_value(spec, cfg.get(section, key))}")
        lines.append("")
    return "\n".join(lines)
