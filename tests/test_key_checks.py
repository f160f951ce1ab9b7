"""One per-key check for every way a value enters a config.

A value reaches a RunConfig through the parser, through RunConfig.set, or
through a keyword of a preset builder. All three apply config.check_value, so
an out-of-range value gets the same message naming [section] key from each;
the parser adds the line.
"""

import math

from hypothesis import given, strategies as st
import pytest

from peribond import scenarios
from peribond.config import SCHEMA, _format_value, default_config, parse_config
from peribond.errors import ConfigError

# out-of-range values by constraint (and by kind where the constraint is
# shared by int and float keys)
BAD_BY_CONSTRAINT = {
    "must be 1, 2, or 3": (0, 4),
    "entries must be positive": ((-1.0,), (0.0,)),
    "must be positive": (0.0, -1.0, -math.inf),
    "must be an odd integer greater than 1": (1, 4),
    "must be at least 2": (1.5,),
    ("must be non-negative", "int"): (-1,),
    ("must be non-negative", "float"): (-1.0, -1e-300),
    "must be at least 1": (0, -3),
    "must be in (0, 1]": (7.0, 0.0, 1.0000000000000002),
    "must be finite, positive or 'auto'": (-1.0, 0.0, math.inf),
}


def bad_values(spec):
    if spec.choices:
        return ("bogus",)
    return BAD_BY_CONSTRAINT.get(spec.constraint,
                                 BAD_BY_CONSTRAINT.get((spec.constraint, spec.kind), ()))


CHECKED = [(section, key, value)
           for section, keys in SCHEMA.items()
           for key, spec in keys.items()
           for value in bad_values(spec)]


def message(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except ConfigError as exc:
        return str(exc)
    return None


def set_message(section, key, value):
    return message(default_config().set, section, key, value)


def parse_message(section, key, value):
    text = _format_value(SCHEMA[section][key], value)
    return message(parse_config, f"[{section}]\n{key} = {text}\n")


def test_every_checked_key_has_out_of_range_values():
    for section, keys in SCHEMA.items():
        for key, spec in keys.items():
            if spec.choices or spec.check is not None:
                assert bad_values(spec), (section, key)


@pytest.mark.parametrize("section, key, value", CHECKED)
def test_parser_and_set_give_the_same_message(section, key, value):
    expected = set_message(section, key, value)
    assert expected is not None and expected.startswith(f"[{section}] {key}: ")
    assert parse_message(section, key, value) == expected + " (line 2)"


NUMERIC = [(section, key) for section, keys in SCHEMA.items()
           for key, spec in keys.items()
           if spec.check is not None and spec.kind in ("int", "float", "dt")]


@given(where=st.sampled_from(NUMERIC), number=st.floats(allow_nan=False) | st.integers(-9, 9))
def test_parser_and_set_agree_on_any_number(where, number):
    section, key = where
    spec = SCHEMA[section][key]
    if spec.kind == "int" and not math.isfinite(number):
        return
    value = int(number) if spec.kind == "int" else float(number)
    refused = set_message(section, key, value)
    parsed = parse_message(section, key, value)
    if refused is None:
        # the key check passes; the parser may still refuse the key for its
        # selector or a cross-key rule, under another message
        assert parsed is None or not parsed.startswith(f"[{section}] {key}: {spec.constraint}")
    else:
        assert parsed == refused + " (line 2)"


BUILDER_KEYWORDS = [
    (scenarios.build_bar_wave, "safety", "time", "safety"),
    (scenarios.build_bar_wave, "micro", "kernel", "micro"),
    (scenarios.build_bar_wave, "c0", "kernel", "c0"),
    (scenarios.build_bar_wave, "rho", "domain", "rho"),
    (scenarios.build_bar_wave, "amplitude", "scenario", "amplitude"),
    (scenarios.build_bar_wave, "periods", "scenario", "periods"),
    (scenarios.build_bar_wave, "dt", "time", "dt"),
    (scenarios.build_plate_precrack, "s0", "breaker", "s0"),
    (scenarios.build_plate_precrack, "modulus", "kernel", "c0"),
    (scenarios.build_plate_precrack, "v0", "scenario", "v0"),
    (scenarios.build_plate_precrack, "n_steps", "time", "steps"),
    (scenarios.build_plate_precrack, "safety", "time", "safety"),
    (scenarios.build_fluid_shear, "coefficient", "memory", "coefficient"),
    (scenarios.build_fluid_shear, "v0", "scenario", "v0"),
    (scenarios.build_fluid_shear, "dt", "time", "dt"),
    (scenarios.build_fluid_shear, "rho", "domain", "rho"),
]


@pytest.mark.parametrize("builder, keyword, section, key", BUILDER_KEYWORDS)
def test_builder_keywords_give_the_same_message(builder, keyword, section, key):
    for value in bad_values(SCHEMA[section][key]):
        expected = set_message(section, key, value)
        assert message(builder, **{keyword: value}) == expected


def test_safety_out_of_range_is_refused_by_name():
    with pytest.raises(ConfigError, match=r"^\[time\] safety: must be in \(0, 1\], got 7.0$"):
        scenarios.build_bar_wave(safety=7.0)
    cfg = default_config()
    with pytest.raises(ConfigError, match=r"^\[time\] safety: must be in \(0, 1\], got 7.0$"):
        cfg.set("time", "safety", 7.0)
    assert cfg.get("time", "safety") == 0.5


def test_unknown_micro_modulus_is_refused_by_name():
    with pytest.raises(ConfigError, match=r"^\[kernel\] micro: must be one of .*; got 'bogus'$"):
        scenarios.build_bar_wave(micro="bogus")
