"""Config file parsing: schema enforcement, presets, exact round-tripping."""

import math
import re

from hypothesis import given, strategies as st
import numpy as np
import pytest

from peribond.config import (
    BREAKER_FAMILIES,
    FAMILY_KEYS,
    PRESET_NEEDS,
    RunConfig,
    SCHEMA,
    default_config,
    parse_config,
    print_config,
    read_keys,
    validate_config,
)
from peribond.errors import ConfigError


def test_defaults_cover_every_schema_key():
    cfg = default_config()
    for section, keys in SCHEMA.items():
        for key in keys:
            assert cfg.get(section, key) == SCHEMA[section][key].default


def test_parse_minimal_and_comments():
    cfg = parse_config("""
        # oscillator check
        [domain]
        dim = 1
        box = 2.0          # one meter per half
        periodic = false
        [kernel]
        family = pmb
        c0 = 3.5
    """)
    assert cfg.get("domain", "box") == (2.0,)
    assert cfg.get("domain", "periodic") == (False,)
    assert cfg.get("kernel", "c0") == 3.5
    assert cfg.get("time", "dt") == "auto"   # untouched default


def test_duplicate_key_names_both_lines():
    text = "[domain]\ndim = 1\n\ndim = 2\n"
    with pytest.raises(ConfigError,
                       match=r"duplicate key \[domain\] dim \(line 4, first set "
                             r"on line 2\)"):
        parse_config(text)


def test_unknown_section_and_key():
    with pytest.raises(ConfigError, match=r"unknown section \[solver\] \(line 1\)"):
        parse_config("[solver]\n")
    with pytest.raises(ConfigError, match=r"unknown key \[domain\] hh \(line 2\)"):
        parse_config("[domain]\nhh = 0.1\n")
    with pytest.raises(ConfigError, match="outside any section"):
        parse_config("dim = 1\n")
    with pytest.raises(ConfigError, match="malformed section header"):
        parse_config("[domain\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("[domain]\ndim\n")


def test_scalar_errors_name_section_key_and_line():
    with pytest.raises(ConfigError,
                       match=r"\[domain\] dim: expected an integer, got 'one' "
                             r"\(line 2\)"):
        parse_config("[domain]\ndim = one\n")
    with pytest.raises(ConfigError, match=r"\[domain\] h: must be positive"):
        parse_config("[domain]\nh = -0.5\n")
    with pytest.raises(ConfigError, match=r"\[time\] safety: must be in \(0, 1\]"):
        parse_config("[time]\nsafety = 1.5\n")
    with pytest.raises(ConfigError, match="expected comma-separated true/false"):
        parse_config("[memory]\nmode = infinite\n[domain]\nperiodic = yes\n")
    with pytest.raises(ConfigError, match="must be one of"):
        parse_config("[horizon]\npartial_volume = cubic\n")
    with pytest.raises(ConfigError, match="odd integer"):
        parse_config("[kernel]\nfamily = convolution\nexponent = 4\n")


def test_dt_accepts_auto_or_positive():
    assert parse_config("[time]\ndt = auto\n").get("time", "dt") == "auto"
    assert parse_config("[time]\ndt = 0.25\n").get("time", "dt") == 0.25
    for bad in ("0", "inf", "nan"):
        with pytest.raises(ConfigError, match=r"\[time\] dt: must be finite, positive or 'auto'"):
            parse_config(f"[time]\ndt = {bad}\n")


def test_nonlinear_p_alpha_open_interval():
    text = "[kernel]\nfamily = nonlinear-p\nalpha = 1.5\n"
    with pytest.raises(ConfigError,
                       match=r"alpha must lie in the open interval \(0, 1\) for "
                             "the nonlinear-p family, got 1.5"):
        parse_config(text)
    # the same key is legal as the quadratic coefficient
    cfg = parse_config("[kernel]\nfamily = quadratic\nalpha = 1.5\n")
    assert cfg.get("kernel", "alpha") == 1.5


def test_kernel_keys_checked_against_family():
    with pytest.raises(ConfigError,
                       match=r"\[kernel\] c0: not accepted by family 'quadratic'"):
        parse_config("[kernel]\nfamily = quadratic\nc0 = 2.0\n")
    # every family accepts exactly its declared keys
    good = {"micro": "cylindrical", "exponent": "5", "p": "2.5", "alpha": "0.5"}
    for family, keys in FAMILY_KEYS.items():
        lines = ["[kernel]", f"family = {family}"]
        lines += [f"{k} = {good.get(k, '0.5')}" for k in keys]
        parse_config("\n".join(lines) + "\n")


def test_cross_key_validation():
    with pytest.raises(ConfigError, match=r"\[domain\] box: needs exactly 2"):
        parse_config("[domain]\ndim = 2\nbox = 1.0\nperiodic = true, true\n")
    with pytest.raises(ConfigError, match=r"\[load\] amplitude: needs exactly 1"):
        parse_config("[load]\npreset = constant\namplitude = 1.0, 2.0\n")
    with pytest.raises(ConfigError, match=r"\[memory\] s: must be positive"):
        parse_config("[memory]\nmode = finite\n")
    with pytest.raises(ConfigError, match=r"\[breaker\] eps"):
        parse_config("[breaker]\nmode = theta-eps\ns0 = 0.1\n")


def test_breaker_needs_infinite_memory():
    # the memory runner rediscovers bonds and would ignore the breaker
    for mode in ("finite\ns = 0.5", "zero"):
        with pytest.raises(ConfigError, match=r"\[breaker\] mode: "):
            parse_config("[breaker]\nmode = critical-stretch\ns0 = 0.01\n"
                         f"[memory]\nmode = {mode}\n")
    cfg = parse_config("[breaker]\nmode = critical-stretch\ns0 = 0.01\n"
                       "[memory]\nmode = infinite\n")
    assert cfg.get("breaker", "mode") == "critical-stretch"


def test_preset_overlay_and_explicit_override():
    cfg = parse_config("[scenario]\npreset = bar1d-wave\n")
    assert cfg.get("domain", "dim") == 1
    assert cfg.get("time", "record_every") == 10
    # an explicit key beats the preset table
    cfg = parse_config("[time]\nrecord_every = 3\n[scenario]\npreset = bar1d-wave\n")
    assert cfg.get("time", "record_every") == 3
    assert cfg.get("domain", "periodic") == (True,)


def test_forced_preset_flag():
    cfg = parse_config("[time]\nsteps = 12\n", forced_preset="fluid-shear")
    assert cfg.get("scenario", "preset") == "fluid-shear"
    assert cfg.get("memory", "mode") == "zero"
    assert cfg.get("time", "steps") == 12
    with pytest.raises(ConfigError, match="both on the command line"):
        parse_config("[scenario]\npreset = bar1d-wave\n",
                     forced_preset="fluid-shear")
    with pytest.raises(ConfigError, match="must be one of"):
        parse_config("", forced_preset="warp-drive")


def test_default_config_refuses_an_unknown_preset_by_name():
    expected = ("[scenario] preset: must be one of none, bar1d-wave, plate2d-precrack, "
                "fluid-shear; got 'plate-2d'")
    with pytest.raises(ConfigError) as refused:
        default_config("plate-2d")
    assert str(refused.value) == expected
    assert default_config("none") == default_config()
    assert default_config("fluid-shear").get("scenario", "preset") == "fluid-shear"


def test_print_parse_round_trip_exact():
    cfg = default_config()
    assert parse_config(print_config(cfg)) == cfg
    # irrational floats survive the 17-digit serialization bit for bit
    cfg.set("domain", "h", 1.0 / 3.0)
    cfg.set("domain", "rho", math.pi)
    cfg.set("time", "dt", 0.1 + 0.2)
    again = parse_config(print_config(cfg))
    assert again == cfg
    assert again.get("domain", "h") == 1.0 / 3.0
    assert again.get("time", "dt") == 0.30000000000000004


def test_round_trip_every_preset():
    for preset in ("bar1d-wave", "plate2d-precrack", "fluid-shear"):
        cfg = parse_config(f"[scenario]\npreset = {preset}\n")
        assert parse_config(print_config(cfg)) == cfg


def test_round_trip_every_family():
    for family in FAMILY_KEYS:
        extra = "alpha = 0.25\n" if family in ("quadratic", "nonlinear-p") else ""
        cfg = parse_config(f"[kernel]\nfamily = {family}\n{extra}")
        assert parse_config(print_config(cfg)) == cfg


def test_runconfig_set_rejects_unknown():
    cfg = default_config()
    with pytest.raises(ConfigError):
        cfg.set("domain", "volume", 1.0)
    assert cfg != RunConfig(sections={})
    assert cfg != "not a config"


POSITIVE = st.floats(min_value=0.0, exclude_min=True)  # includes inf
FINITE_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
BY_CONSTRAINT = {
    "must be positive": POSITIVE,
    "must be finite and positive": FINITE_POSITIVE,
    "must be non-negative": st.floats(min_value=0.0),
    "must be finite and non-negative": st.floats(min_value=0.0, allow_infinity=False),
    "must be finite": st.floats(allow_nan=False, allow_infinity=False),
    "": st.floats(allow_nan=False),
}
SPECIAL = {
    ("kernel", "exponent"): st.integers(1, 20).map(lambda k: 2 * k + 1),
    ("kernel", "p"): st.floats(min_value=2.0, allow_infinity=False),
    ("time", "dt"): st.one_of(st.just("auto"), FINITE_POSITIVE),
    ("time", "steps"): st.integers(0, 10**6),
    ("time", "record_every"): st.integers(1, 10**4),
    ("time", "safety"): st.floats(0.0, 1.0, exclude_min=True),
    ("output", "directory"): st.text("abcxyz019_-./", min_size=1, max_size=16),
    ("output", "snapshot_every"): st.integers(0, 10**4),
}


@st.composite
def valid_configs(draw):
    """A config as parse_config could return it: a preset overlay, then an
    explicit value for every key print_config writes."""
    preset = draw(st.sampled_from(SCHEMA["scenario"]["preset"].choices))
    cfg = parse_config(f"[scenario]\npreset = {preset}\n")
    # the values the preset's hook honours (PRESET_NEEDS), else every choice
    needs = {(section, key): allowed for section, key, allowed, _ in PRESET_NEEDS.get(preset, ())}
    dim = draw(st.sampled_from(needs.get(("domain", "dim"), (1, 2, 3))))
    family = draw(st.sampled_from(needs.get(("kernel", "family"), sorted(FAMILY_KEYS))))
    memory = draw(st.sampled_from(needs.get(("memory", "mode"),
                                            SCHEMA["memory"]["mode"].choices)))
    # only infinite memory and the brittle families take a breaker
    breakers = (SCHEMA["breaker"]["mode"].choices
                if memory == "infinite" and family in BREAKER_FAMILIES else ("none",))
    breaker = draw(st.sampled_from(breakers))
    load = draw(st.sampled_from(SCHEMA["load"]["preset"].choices))
    # the box is tiled by the spacing, and a horizon sees one image of a
    # neighbor across each periodic axis
    h = draw(st.floats(1e-6, 1e6))
    box = tuple(h * n for n in draw(st.lists(st.integers(1, 10**4), min_size=dim,
                                             max_size=dim)))
    periodic = tuple(draw(st.lists(st.booleans(), min_size=dim, max_size=dim)))
    reach = min((edge for edge, wraps in zip(box, periodic) if wraps), default=math.inf)
    fixed = {
        ("domain", "dim"): dim,
        ("domain", "box"): box,
        ("domain", "h"): h,
        ("domain", "periodic"): periodic,
        ("horizon", "delta"): draw(st.floats(0.0, 0.5 * reach, exclude_min=True,
                                             allow_infinity=False)),
        ("kernel", "family"): family,
        ("memory", "mode"): memory,
        ("breaker", "mode"): breaker,
        ("load", "preset"): load,
        ("load", "amplitude"): tuple(draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=dim if load != "none" else 0,
            max_size=dim))),
    }
    if family == "nonlinear-p":
        fixed[("kernel", "alpha")] = draw(st.floats(0.0, 1.0, exclude_min=True,
                                                    exclude_max=True))
    if family == "quadratic":
        fixed[("kernel", "alpha")] = draw(FINITE_POSITIVE)
    if memory == "zero":  # no bond network to derive an auto dt from
        fixed[("time", "dt")] = draw(FINITE_POSITIVE)
    if breaker == "theta-eps":
        fixed[("breaker", "eps")] = draw(POSITIVE)
    if memory == "finite":
        fixed[("memory", "s")] = draw(FINITE_POSITIVE)
    for section, keys in SCHEMA.items():
        for key, spec in keys.items():
            if (section, key) == ("scenario", "preset"):
                continue
            if key not in read_keys(cfg, section):
                continue  # not printed: keeps its preset or default value
            if (section, key) in fixed:
                value = fixed[(section, key)]
            elif (section, key) in SPECIAL:
                value = draw(SPECIAL[(section, key)])
            elif spec.choices:
                value = draw(st.sampled_from(spec.choices))
            else:
                value = draw(BY_CONSTRAINT[spec.constraint])
            cfg.set(section, key, value)
    return validate_config(cfg)


@given(valid_configs())
def test_round_trip_random_valid_configs(cfg):
    text = print_config(cfg)
    assert parse_config(text) == cfg
    assert print_config(parse_config(text)) == text


@pytest.mark.parametrize("text, key", [
    ("[breaker]\ns0 = 0.1\n", "[breaker] s0"),
    ("[breaker]\nmode = critical-stretch\ns0 = 0.1\neps = 0.5\n", "[breaker] eps"),
    ("[memory]\ns = 0.5\n", "[memory] s"),
    ("[memory]\ncoefficient = 9\n", "[memory] coefficient"),
    ("[memory]\nmode = finite\ns = 0.5\nfluid_kernel = kernel\n", "[memory] fluid_kernel"),
    ("[load]\npreset = constant\namplitude = 1.0\nwavelength = 2.0\n", "[load] wavelength"),
    ("[load]\npreset = constant\namplitude = 1.0\ncenter = 0.2\n", "[load] center"),
    ("[scenario]\nv0 = 1.0\n", "[scenario] v0"),
    ("[scenario]\npreset = plate2d-precrack\namplitude = 0.1\n", "[scenario] amplitude"),
    ("[scenario]\nm = 4\n", "unknown key [scenario] m"),
])
def test_keys_their_selector_does_not_read_are_rejected(text, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(text)


def test_selector_messages_and_printed_keys():
    with pytest.raises(ConfigError,
                       match=r"\[breaker\] s0: not accepted by mode 'none' \(line 2\); "
                             r"mode 'none' takes no other key"):
        parse_config("[breaker]\ns0 = 0.1\n")
    with pytest.raises(ConfigError, match=r"allowed keys: amplitude, center"):
        parse_config("[load]\npreset = opposing-last-axis\nwavelength = 2.0\n")
    def printed(cfg):
        return {line.split(" = ")[0] for line in print_config(cfg).splitlines()}

    unread = {"s0", "eps", "s", "coefficient", "fluid_kernel", "amplitude",
              "wavelength", "center", "v0", "periods"}
    assert not printed(default_config()) & unread
    fluid = parse_config("[scenario]\npreset = fluid-shear\n")
    assert printed(fluid) & unread == {"coefficient", "fluid_kernel", "v0"}
