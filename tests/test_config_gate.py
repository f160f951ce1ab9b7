"""validate_config is the one gate between a config and a run.

parse_config, the builders and materialize itself all pass a config through
it, so a config that no run can honour is refused before anything is built,
whichever way its values came in. The messages below are the ones
materialize and model_from_config raised when these rules lived there.
"""

import ast
import inspect

import numpy as np
import pytest

from peribond import config, scenarios
from peribond.config import (
    BREAKER_FAMILIES,
    PRESET_CONFIGS,
    PRESET_KEYS,
    SCHEMA,
    _format_value,
    default_config,
    parse_config,
    validate_config,
)
from peribond.errors import ConfigError
from peribond.kernels import KERNEL_FAMILIES

# (preset, keys written explicitly, the refusal word for word)
REFUSED = [
    ("plate2d-precrack", {("domain", "dim"): 1, ("domain", "box"): (1.0,),
                          ("domain", "periodic"): (False,), ("load", "preset"): "none"},
     "[domain] dim: plate2d-precrack is a 2D plate; got 1"),
    ("plate2d-precrack", {("kernel", "family"): "rod", ("breaker", "mode"): "none"},
     "[kernel] family: plate2d-precrack scales the pmb bond constant; got 'rod'"),
    ("plate2d-precrack", {("memory", "mode"): "finite", ("memory", "s"): 0.1,
                          ("breaker", "mode"): "none"},
     "[memory] mode: plate2d-precrack seeds its crack in the reference bond network; "
     "got 'finite'"),
    ("bar1d-wave", {("memory", "mode"): "zero", ("time", "dt"): 0.01},
     "[memory] mode: bar1d-wave takes its wave speed from the bond network, which zero "
     "memory does not build; got 'zero'"),
    ("fluid-shear", {("domain", "dim"): 1, ("domain", "box"): (1.0,),
                     ("domain", "periodic"): (True,)},
     "[domain] dim: fluid-shear shears along the second axis, so it needs dim >= 2; got 1"),
    ("fluid-shear", {("time", "dt"): "auto"},
     "[time] dt: auto needs a bond network; zero-memory runs must set dt explicitly"),
    ("none", {("memory", "mode"): "zero"},
     "[time] dt: auto needs a bond network; zero-memory runs must set dt explicitly"),
    ("none", {("kernel", "family"): "quadratic", ("breaker", "mode"): "critical-stretch",
              ("breaker", "s0"): 0.1},
     "[breaker] mode: family 'quadratic' does not take a breaker "
     "(supported: pmb, nano-membrane, nano-fiber)"),
    ("none", {("kernel", "family"): "quadratic", ("kernel", "alpha"): 0.0},
     "[kernel] alpha: must be positive for the quadratic family, got 0.0"),
    ("none", {("kernel", "family"): "quadratic", ("kernel", "alpha"): -2.5},
     "[kernel] alpha: must be positive for the quadratic family, got -2.5"),
    ("none", {("domain", "h"): 0.3},
     "[domain] h: box edge 1.0 on axis 0 is not an integer multiple of spacing 0.3"),
    ("none", {("domain", "dim"): 2, ("domain", "box"): (1.0, 1.0),
              ("domain", "periodic"): (True, True), ("horizon", "delta"): 0.6},
     "[horizon] delta: horizon delta 0.6 exceeds half the periodic box edge 1.0 on "
     "axis 0 (minimum image invalid)"),
    ("none", {("domain", "h"): 1e-200},
     "[domain] h: spacing 1e-200 gives more grid points than one array can index"),
]


def refusal(fn, *args):
    try:
        fn(*args)
    except ConfigError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("preset, values, expected", REFUSED)
def test_parse_config_refuses_what_no_run_can_honour(preset, values, expected):
    lines = [f"[scenario]\npreset = {preset}"]
    lines += [f"[{section}]\n{key} = {_format_value(SCHEMA[section][key], value)}"
              for (section, key), value in values.items()]
    assert refusal(parse_config, "\n".join(lines) + "\n") == expected


def unbuilt(*args, **kwargs):
    raise AssertionError("built before the config was refused")


@pytest.mark.parametrize("preset, values, expected", REFUSED)
def test_a_config_set_past_the_parser_is_refused_before_anything_is_built(
        monkeypatch, preset, values, expected):
    # as the builders write one: the preset's table, then RunConfig.set
    cfg = default_config()
    for section, keys in PRESET_CONFIGS.get(preset, {}).items():
        cfg.sections[section].update(keys)
    for (section, key), value in values.items():
        cfg.set(section, key, value)
    monkeypatch.setattr(scenarios, "build_grid", unbuilt)
    monkeypatch.setattr(scenarios, "build_bonds", unbuilt)
    assert refusal(scenarios.materialize, cfg) == expected


@pytest.mark.parametrize("family", sorted(KERNEL_FAMILIES) + ["bogus"])
@pytest.mark.parametrize("breaker", ["none", "critical-stretch", "theta-eps"])
@pytest.mark.parametrize("alpha", [0.5, 0.0, -1.0])
def test_validate_config_and_model_from_config_refuse_a_kernel_alike(family, breaker, alpha):
    cfg = default_config()
    cfg.sections["kernel"].update(family=family, alpha=alpha)
    cfg.sections["breaker"].update(mode=breaker, s0=0.1, eps=0.5)
    built = refusal(scenarios.model_from_config, cfg, 0.5, 2)
    if family == "nonlinear-p" and alpha != 0.5:
        return  # refused earlier by validate_config, as the power-law exponent
    assert refusal(validate_config, cfg) == built
    if family == "bogus":
        assert built == "[kernel] family: unhandled family 'bogus'"
    elif breaker != "none" and family not in ("pmb", "nano-membrane", "nano-fiber"):
        assert built.startswith("[breaker] mode: ")
    elif family == "quadratic" and alpha <= 0.0:
        assert built.startswith("[kernel] alpha: ")
    else:
        assert built is None


def test_preset_choices_and_keys_come_from_the_preset_table():
    assert SCHEMA["scenario"]["preset"].choices == (
        "none", "bar1d-wave", "plate2d-precrack", "fluid-shear")
    assert PRESET_KEYS == {"none": (), "bar1d-wave": ("amplitude", "periods"),
                           "plate2d-precrack": ("v0",), "fluid-shear": ("v0",)}
    assert BREAKER_FAMILIES == ("pmb", "nano-membrane", "nano-fiber")
    # the preset tables have one home, config
    assert not hasattr(scenarios, "PRESET_CONFIGS") and not hasattr(scenarios, "PRESET_NEEDS")


def test_config_imports_nothing_from_scenarios():
    tree = ast.parse(inspect.getsource(config))
    imported = [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    assert imported and not any("scenarios" in name for name in imported)


def test_a_grid_that_cannot_be_allocated_is_refused_naming_the_spacing(monkeypatch):
    # numpy's MemoryError stands in for a grid too large for this machine
    def out_of_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(np, "indices", out_of_memory)
    cfg = default_config()
    cfg.set("domain", "h", 0.25)
    assert refusal(scenarios.materialize, cfg) == (
        "[domain] h: the 4 grid at spacing 0.25 does not fit in memory")
    assert refusal(scenarios.build_grid, (1.0, 2.0), 0.25, 1.0) == (
        "[domain] h: the 4 x 8 grid at spacing 0.25 does not fit in memory")
