"""Tables derived from the modules that implement them, against explicit ones.

config.FAMILY_KEYS comes from each kernel family's dataclass fields, and
scenarios.model_from_config builds every family by one rule from them. The
explicit table and the per-family constructor chain they replaced are kept
here as oracles. The config choice lists are the library's own constants, and
every table keyed by a selector or a preset names the same choices.
"""

import math

from hypothesis import given, settings, strategies as st
import pytest

from peribond import discretization, dynamics, fluidpd, scenarios
from peribond.config import (FAMILY_KEYS, PRESET_CONFIGS, PRESET_KEYS, PRESET_NEEDS, SCHEMA,
                             SELECTED_KEYS, default_config)
from peribond.errors import ConfigError
from peribond.kernels import (
    BREAKER_MODES,
    KERNEL_FAMILIES,
    MICRO_FAMILIES,
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
from peribond.scenarios import model_from_config

# keys of [kernel] that each family accepts, besides "family", written out
EXPLICIT_FAMILY_KEYS = {
    "anti-plane-shear": ("c", "u_star"),
    "quadratic": ("alpha",),
    "pmb": ("c0", "micro"),
    "rod": ("c0", "micro"),
    "convolution": ("c", "exponent"),
    "nonlinear-p": ("kappa", "p", "alpha"),
    "nano-membrane": ("c", "g"),
    "nano-fiber": ("c", "g", "vdw_a", "vdw_b"),
}

EXPLICIT_BREAKER_FAMILIES = ("pmb", "nano-membrane", "nano-fiber")


def explicit_model_from_config(cfg, delta, dim):
    """One constructor call per family, each naming its arguments."""
    k = cfg.sections["kernel"]
    family = k["family"]
    breaker = BondBreaker(**cfg.sections["breaker"])
    if breaker.mode != "none" and family not in EXPLICIT_BREAKER_FAMILIES:
        raise ConfigError(
            f"[breaker] mode: family {family!r} does not take a breaker "
            f"(supported: {', '.join(EXPLICIT_BREAKER_FAMILIES)})"
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


def outcome(build, cfg, delta, dim):
    """The model built, or the type and message of the first refusal."""
    try:
        return build(cfg, delta, dim)
    except ConfigError as exc:
        return type(exc), str(exc)


def test_family_keys_are_the_explicit_table_in_order():
    assert FAMILY_KEYS == EXPLICIT_FAMILY_KEYS
    assert list(FAMILY_KEYS.items()) == list(EXPLICIT_FAMILY_KEYS.items())


# in range, by key (the rest take POSITIVE), and off range: most drawn
# configs build a model, the others compare the refusal each path raises
POSITIVE = st.floats(0.05, 4.0)
IN_RANGE = {
    "micro": st.sampled_from(MICRO_FAMILIES),
    "exponent": st.sampled_from((3, 5, 7)),
    "alpha": st.floats(0.05, 0.95),
    "p": st.floats(2.0, 4.0),
}
OFF_RANGE = {
    "micro": st.just("bogus"),
    "exponent": st.sampled_from((-1, 4)),
}
OFF_NUMBERS = st.sampled_from((0.0, -1.0, 1.5, math.inf))
NUMBERS = POSITIVE | OFF_NUMBERS


def put(cfg, section, key, value):
    """Write a value into a config in place, past the per-key check that
    RunConfig.set applies: model_from_config refuses such values itself."""
    cfg.sections[section][key] = value


@st.composite
def kernel_configs(draw):
    """A default config with a family, its keys and a breaker drawn; one
    key in two is drawn off its range in half of the draws."""
    cfg = default_config()
    family = draw(st.sampled_from(sorted(EXPLICIT_FAMILY_KEYS)))
    keys = EXPLICIT_FAMILY_KEYS[family]
    off = draw(st.sampled_from((None,) * len(keys) + keys))
    put(cfg, "kernel", "family", family)
    for key in keys:
        table = OFF_RANGE if key == off else IN_RANGE
        put(cfg, "kernel", key, draw(table.get(key, OFF_NUMBERS if key == off else POSITIVE)))
    put(cfg, "breaker", "mode", draw(st.sampled_from(("none",) * 2 + BREAKER_MODES)))
    put(cfg, "breaker", "s0", draw(NUMBERS))
    put(cfg, "breaker", "eps", draw(NUMBERS))
    return cfg


@settings(max_examples=400)
@given(cfg=kernel_configs(), delta=NUMBERS, dim=st.integers(1, 3))
def test_model_from_config_matches_the_explicit_constructors(cfg, delta, dim):
    built = outcome(model_from_config, cfg, delta, dim)
    expected = outcome(explicit_model_from_config, cfg, delta, dim)
    assert type(built) is type(expected)
    assert built == expected
    assert repr(built) == repr(expected)


def test_the_breaker_refusal_comes_before_the_alpha_refusal():
    cfg = default_config()
    cfg.set("kernel", "family", "quadratic")
    cfg.set("kernel", "alpha", 0.0)
    cfg.set("breaker", "mode", "critical-stretch")
    cfg.set("breaker", "s0", 0.1)
    expected = outcome(explicit_model_from_config, cfg, 0.5, 1)
    assert expected[0] is ConfigError and expected[1].startswith("[breaker] mode")
    assert outcome(model_from_config, cfg, 0.5, 1) == expected


def test_a_family_set_past_the_parser_is_refused_by_name():
    cfg = default_config()
    put(cfg, "kernel", "family", "bogus")
    with pytest.raises(ConfigError, match=r"^\[kernel\] family: unhandled family 'bogus'"):
        model_from_config(cfg, 0.5, 1)


@pytest.mark.parametrize("preset", sorted(PRESET_CONFIGS))
def test_preset_models_match_the_explicit_constructors(preset):
    cfg = default_config()
    for section, keys in PRESET_CONFIGS[preset].items():
        cfg.sections[section].update(keys)
    delta, dim = cfg.get("horizon", "delta"), cfg.get("domain", "dim")
    assert model_from_config(cfg, delta, dim) == explicit_model_from_config(cfg, delta, dim)


def test_schema_choices_are_the_library_constants():
    assert (SCHEMA["horizon"]["partial_volume"].choices
            is discretization.PARTIAL_VOLUME_MODES)
    assert SCHEMA["load"]["preset"].choices is dynamics.LOAD_PRESETS
    assert SCHEMA["memory"]["mode"].choices is fluidpd.MEMORY_MODES
    assert SCHEMA["memory"]["fluid_kernel"].choices is fluidpd.FLUID_KERNELS
    assert SCHEMA["kernel"]["micro"].choices is MICRO_FAMILIES
    assert SCHEMA["breaker"]["mode"].choices is BREAKER_MODES
    assert SCHEMA["kernel"]["family"].choices == tuple(sorted(KERNEL_FAMILIES))


@pytest.mark.parametrize("section", sorted(SELECTED_KEYS))
def test_selected_key_tables_cover_their_selector_choices(section):
    # for [kernel]: every FAMILY_KEYS key is a [kernel] schema key
    selector, table = SELECTED_KEYS[section]
    assert sorted(table) == sorted(SCHEMA[section][selector].choices)
    for keys in table.values():
        assert set(keys) <= set(SCHEMA[section]) - {selector}


def test_preset_tables_name_the_same_presets():
    choices = SCHEMA["scenario"]["preset"].choices
    assert sorted(PRESET_KEYS) == sorted(choices)
    shipped = sorted(set(choices) - {"none"})
    assert sorted(PRESET_CONFIGS) == shipped
    assert sorted(scenarios.PRESET_SETUPS) == shipped
    assert sorted(PRESET_NEEDS) == shipped
    for preset, table in PRESET_CONFIGS.items():
        assert table["scenario"]["preset"] == preset
        keys = tuple(key for key in table["scenario"] if key != "preset")
        assert keys == PRESET_KEYS[preset]
