"""One per-key check for every way a value enters a config.

A value reaches a RunConfig through the parser, through RunConfig.set, or
through a keyword of a preset builder. All three apply config.check_value, so
an out-of-range value, or a value of the wrong type, gets the same message
naming [section] key from each; the parser adds the line.
"""

import math

from hypothesis import given, strategies as st
import numpy as np
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
    (scenarios.build_bar_wave, "n_steps", "time", "steps"),
    (scenarios.build_plate_precrack, "dt", "time", "dt"),
    (scenarios.build_plate_precrack, "rho", "domain", "rho"),
    (scenarios.build_fluid_shear, "n_steps", "time", "steps"),
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


# what a value of each field kind must be, in the parser's words, and values
# of another type (None stands for "default" in builder keywords)
EXPECTED_BY_KIND = {
    "int": "an integer",
    "float": "a number",
    "dt": "a number",
    "str": "a string",
    "float_list": "comma-separated numbers",
    "bool_list": "comma-separated true/false",
}
WRONG_BY_KIND = {
    "int": ("x", 2.0, True, None),
    "float": ("x", "1.0", True, (1.0,), None),
    "dt": ("x", "Auto", True, None),
    "str": (5, None, b"pmb", ("pmb",)),
    "float_list": ("x", 1.0, ("a",), (True,), None),
    "bool_list": ("x", True, (1,), ("true",), None),
}

WRONG = [(section, key, value)
         for section, keys in SCHEMA.items()
         for key, spec in keys.items()
         for value in WRONG_BY_KIND[spec.kind]]


def wrong_type_message(section, key, value):
    return (f"[{section}] {key}: expected {EXPECTED_BY_KIND[SCHEMA[section][key].kind]}, "
            f"got {value!r}")


def test_every_key_has_values_of_the_wrong_type():
    assert ({(section, key) for section, key, _ in WRONG}
            == {(section, key) for section, keys in SCHEMA.items() for key in keys})


@pytest.mark.parametrize("section, key, value", WRONG)
def test_set_refuses_a_value_of_the_wrong_type_by_name(section, key, value):
    cfg = default_config()
    with pytest.raises(ConfigError) as refused:
        cfg.set(section, key, value)
    assert str(refused.value) == wrong_type_message(section, key, value)
    assert cfg == default_config()


@pytest.mark.parametrize("section, key", [(section, key) for section, keys in SCHEMA.items()
                                          for key, spec in keys.items() if spec.kind != "str"])
def test_parser_and_set_word_a_wrong_type_alike(section, key):
    parsed = message(parse_config, f"[{section}]\n{key} = x\n")
    assert parsed == wrong_type_message(section, key, "x") + " (line 2)"


@pytest.mark.parametrize("builder, keyword, section, key", BUILDER_KEYWORDS)
def test_builder_keywords_refuse_a_value_of_the_wrong_type_alike(builder, keyword, section, key):
    for value in WRONG_BY_KIND[SCHEMA[section][key].kind]:
        if value is not None:
            expected = wrong_type_message(section, key, value)
            assert set_message(section, key, value) == expected
            assert message(builder, **{keyword: value}) == expected


def test_wrong_typed_builder_values_are_refused_by_name():
    with pytest.raises(ConfigError, match=r"^\[memory\] coefficient: expected a number, got 'x'$"):
        scenarios.build_fluid_shear(coefficient="x")
    with pytest.raises(ConfigError, match=r"^\[domain\] h: expected a number, got 'x'$"):
        default_config().set("domain", "h", "x")


FLOAT_KEYS = [(section, key) for section, keys in SCHEMA.items()
              for key, spec in keys.items() if spec.kind == "float"]


@pytest.mark.parametrize("section, key", FLOAT_KEYS)
def test_float_keys_take_ints_and_numpy_scalars(section, key):
    default = SCHEMA[section][key].default
    values = [np.float64(default), np.float32(default)]
    if math.isfinite(default) and default == int(default):
        values += [int(default), np.int64(int(default))]
    for value in values:
        cfg = default_config()
        cfg.set(section, key, value)
        assert cfg.get(section, key) == value


def test_numpy_scalars_pass_as_their_kind():
    cfg = default_config()
    cfg.set("time", "steps", np.int64(5))
    cfg.set("time", "dt", np.float64(0.25))
    cfg.set("domain", "box", [1, np.int64(2), np.float32(0.5)])
    cfg.set("domain", "periodic", (True, False))
    assert cfg.get("time", "steps") == 5 and cfg.get("time", "dt") == 0.25
