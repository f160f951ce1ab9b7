"""Run configuration: line-oriented `[section]` / `key = value` files.

The format is deliberately small: sections in brackets, one key per line,
`#` starts a comment, values are scalars or comma-separated lists. Every
key is declared in the schema below with a kind, a default, and an optional
constraint; unknown sections or keys are rejected, duplicates are rejected
naming the line, and every failure names section, key, and the rule broken.
parse_config(print_config(cfg)) reproduces cfg exactly (floats are
serialized with 17 significant digits).

This module is the one gate. check_value refuses a value of the wrong kind
or out of range, from a file, RunConfig.set or a builder keyword alike;
validate_config refuses every combination of keys that no run can honour,
the presets' needs (PRESET_NEEDS) and the kernel refusals (check_kernel)
included. Each preset is declared once, in PRESET_CONFIGS.
"""

from dataclasses import dataclass, field, fields
import math
import numbers

from .discretization import PARTIAL_VOLUME_MODES
from .dynamics import LOAD_PRESETS
from .errors import ConfigError
from .fluidpd import FLUID_KERNELS, MEMORY_MODES
from .kernels import BREAKER_MODES, KERNEL_FAMILIES, MICRO_FAMILIES, BondBreaker

@dataclass(frozen=True)
class Field:
    kind: str                # a key of KINDS
    default: object
    choices: tuple = ()
    constraint: str = ""     # human-readable; shown verbatim in errors
    check: object = None     # predicate on the parsed value


def _positive(v):
    return v > 0.0


def _non_negative(v):
    return v >= 0.0


# float and int first: they spare the common values the slower ABC checks
def _number(v):
    return isinstance(v, (float, int, numbers.Real)) and not isinstance(v, bool)


_FLAGS = {"true": True, "false": False}


def _items(raw):
    return [p.strip() for p in raw.split(",")] if raw else []


def _number_text(v):
    return "%.17g" % float(v)


@dataclass(frozen=True)
class Kind:
    words: str     # what a value must be, in a refusal's words
    test: object   # True for a value of this kind
    parse: object  # the value of a stripped config text; raises ValueError or KeyError
    text: object   # the config text of a value, which parse reads back exactly


# numpy scalars pass as numbers, ints as floats
KINDS = {
    "int": Kind("an integer",
                lambda v: isinstance(v, (int, numbers.Integral)) and not isinstance(v, bool),
                int, lambda v: str(int(v))),
    "float": Kind("a number", _number, float, _number_text),
    "dt": Kind("a number", lambda v: v == "auto" if isinstance(v, str) else _number(v),
               lambda raw: raw if raw == "auto" else float(raw),
               lambda v: v if v == "auto" else _number_text(v)),
    "str": Kind("a string", lambda v: isinstance(v, str), str, str),
    "float_list": Kind("comma-separated numbers",
                       lambda v: isinstance(v, (tuple, list)) and all(map(_number, v)),
                       lambda raw: tuple(float(p) for p in _items(raw) if p != ""),
                       lambda v: ", ".join(map(_number_text, v))),
    "bool_list": Kind("comma-separated true/false",
                      lambda v: isinstance(v, (tuple, list))
                      and all(isinstance(x, bool) for x in v),
                      lambda raw: tuple(_FLAGS[p] for p in _items(raw)),
                      lambda v: ", ".join("true" if x else "false" for x in v)),
}

# Config-table form of the shipped presets: what parse_config overlays when
# [scenario] preset names one of these (keys written explicitly win), and
# what each builder overlays its keywords on. Their hooks are in scenarios.
PRESET_CONFIGS = {
    "bar1d-wave": {
        "domain": {"dim": 1, "box": (1.0,), "h": 0.025, "rho": 1.0,
                   "periodic": (True,)},
        "horizon": {"delta": 0.1},
        "kernel": {"family": "pmb", "c0": 1.0, "micro": "cylindrical"},
        "time": {"dt": "auto", "steps": 0, "record_every": 10, "safety": 0.5},
        "scenario": {"preset": "bar1d-wave", "amplitude": 1e-3, "periods": 1.0},
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
        "scenario": {"preset": "plate2d-precrack", "v0": 0.005},
    },
    "fluid-shear": {
        "domain": {"dim": 2, "box": (1.0, 1.0), "h": 1.0 / 24.0, "rho": 1.0,
                   "periodic": (True, True)},
        "horizon": {"delta": 0.125},
        "memory": {"mode": "zero", "coefficient": 50.0, "fluid_kernel": "linear"},
        "time": {"dt": 0.02, "steps": 2000, "record_every": 10},
        "scenario": {"preset": "fluid-shear", "v0": 1.0},
    },
}

# Key values each preset's hook cannot honour, refused by validate_config:
# (section, key, values the hook takes, why).
PRESET_NEEDS = {
    "bar1d-wave": [("memory", "mode", ("infinite", "finite"), "bar1d-wave takes its wave "
                    "speed from the bond network, which zero memory does not build")],
    "plate2d-precrack": [
        ("domain", "dim", (2,), "plate2d-precrack is a 2D plate"),
        ("kernel", "family", ("pmb",), "plate2d-precrack scales the pmb bond constant"),
        ("memory", "mode", ("infinite",),
         "plate2d-precrack seeds its crack in the reference bond network")],
    "fluid-shear": [("domain", "dim", (2, 3),
                     "fluid-shear shears along the second axis, so it needs dim >= 2")],
}


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
        "dt": Field("dt", "auto", constraint="must be finite, positive or 'auto'",
                    check=lambda v: v == "auto" or 0.0 < v < math.inf),
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
        "preset": Field("str", "none", choices=("none",) + tuple(PRESET_CONFIGS)),
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

# kernel families whose class takes the [breaker] section
BREAKER_FAMILIES = tuple(family for family, cls in KERNEL_FAMILIES.items()
                         if "breaker" in {f.name for f in fields(cls)})

# keys of [scenario] that each preset reads, besides "preset"
PRESET_KEYS = {"none": ()} | {
    preset: tuple(key for key in table["scenario"] if key != "preset")
    for preset, table in PRESET_CONFIGS.items()
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
        self.sections[section][key] = check_value(section, key, value)


def _refusal(section, key, reason, lineno=0):
    return ConfigError(f"[{section}] {key}: {reason}" + (f" (line {lineno})" if lineno else ""))


def check_value(section, key, value, lineno=0):
    """value if it has its field's kind and meets the choices and the
    constraint of [section] key, else a ConfigError naming the key (and the
    config line, when given). A list comes back as the tuple the parser
    makes, so a config compares equal to its printed and parsed copy."""
    spec = SCHEMA[section][key]
    if not KINDS[spec.kind].test(value):
        reason = f"expected {KINDS[spec.kind].words}, got {value!r}"
    elif spec.choices and value not in spec.choices:
        reason = f"must be one of {', '.join(spec.choices)}; got {value!r}"
    elif spec.check is not None and not spec.check(value):
        reason = f"{spec.constraint}, got {value}"
    else:
        return tuple(value) if isinstance(value, list) else value
    raise _refusal(section, key, reason, lineno)


def read_keys(cfg: RunConfig, section: str) -> tuple:
    """The keys of section that cfg reads: those its selector value names,
    or every key of a section without a selector."""
    if section not in SELECTED_KEYS:
        return tuple(SCHEMA[section])
    selector, table = SELECTED_KEYS[section]
    return (selector,) + table[cfg.get(section, selector)]


def check_kernel(cfg: RunConfig) -> BondBreaker:
    """The [breaker] section as a BondBreaker, after refusing a family
    outside KERNEL_FAMILIES, a breaker on a family that takes none, and a
    non-positive quadratic alpha, in that order."""
    family = cfg.get("kernel", "family")
    if family not in KERNEL_FAMILIES:  # a value written past check_value
        raise ConfigError(f"[kernel] family: unhandled family {family!r}")
    breaker = BondBreaker(**cfg.sections["breaker"])
    if breaker.active and family not in BREAKER_FAMILIES:
        raise ConfigError(
            f"[breaker] mode: family {family!r} does not take a breaker "
            f"(supported: {', '.join(BREAKER_FAMILIES)})"
        )
    if family == "quadratic" and not cfg.get("kernel", "alpha") > 0.0:
        raise ConfigError("[kernel] alpha: must be positive for the quadratic family, "
                          f"got {cfg.get('kernel', 'alpha')}")
    return breaker


def validate_config(cfg: RunConfig) -> RunConfig:
    """Cross-key checks after the per-key ones: cfg if some run can honour
    every key together, else a ConfigError naming the first key that
    cannot be honoured."""
    dim = cfg.get("domain", "dim")
    for key in ("box", "periodic"):
        seq = cfg.get("domain", key)
        if len(seq) != dim:
            raise ConfigError(
                f"[domain] {key}: needs exactly {dim} entries for dim = {dim}, "
                f"got {len(seq)}"
            )
    # alpha is also the quadratic coefficient (any positive value, checked
    # by check_kernel); (0, 1) bounds only the power-law exponent
    alpha = cfg.get("kernel", "alpha")
    if cfg.get("kernel", "family") == "nonlinear-p" and not 0.0 < alpha < 1.0:
        raise ConfigError(
            f"[kernel] alpha: alpha must lie in the open interval (0, 1) for "
            f"the nonlinear-p family, got {alpha}"
        )
    eps = cfg.get("breaker", "eps")
    if cfg.get("breaker", "mode") == "theta-eps" and not eps > 0.0:
        raise ConfigError(f"[breaker] eps: must be positive for the theta-eps breaker, got {eps}")
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
    s = cfg.get("memory", "s")
    if memory_mode == "finite" and not (s > 0.0 and math.isfinite(s)):
        raise ConfigError(f"[memory] s: must be positive and finite for finite memory, got {s}")
    for section, key, allowed, why in PRESET_NEEDS.get(cfg.get("scenario", "preset"), ()):
        if cfg.get(section, key) not in allowed:
            raise ConfigError(f"[{section}] {key}: {why}; got {cfg.get(section, key)!r}")
    if cfg.get("time", "dt") == "auto" and memory_mode == "zero":
        raise ConfigError("[time] dt: auto needs a bond network; zero-memory runs "
                          "must set dt explicitly")
    check_kernel(cfg)
    return cfg


def default_config() -> RunConfig:
    return RunConfig({section: {key: spec.default for key, spec in keys.items()}
                      for section, keys in SCHEMA.items()})


def parse_config(text: str, forced_preset: str = None) -> RunConfig:
    """Parse, overlay the scenario preset (explicit keys win), validate.

    The preset's table (PRESET_CONFIGS) makes a one-line config
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
        kind = KINDS[SCHEMA[section][key].kind]
        try:
            value = kind.parse(raw)
        except (ValueError, KeyError):
            raise _refusal(section, key, f"expected {kind.words}, got {raw!r}", lineno) from None
        explicit[(section, key)] = (check_value(section, key, value, lineno), lineno)

    if forced_preset is not None:
        if ("scenario", "preset") in explicit:
            line = explicit[("scenario", "preset")][1]
            raise ConfigError(
                f"[scenario] preset: set both on the command line "
                f"({forced_preset!r}) and in the config (line {line})"
            )
        explicit[("scenario", "preset")] = (check_value("scenario", "preset", forced_preset), 0)

    cfg = default_config()
    preset_name = explicit.get(("scenario", "preset"), (None, 0))[0]
    for psection, pkeys in PRESET_CONFIGS.get(preset_name, {}).items():
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
    return KINDS[spec.kind].text(value)


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
