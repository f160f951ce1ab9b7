"""Preset builders and the config-to-objects bridge."""

import math
import re

import numpy as np
import pytest

from peribond import scenarios
from peribond.config import PRESET_CONFIGS, default_config, parse_config
from peribond.errors import ConfigError
from peribond.kernels import KERNEL_FAMILIES, PMB, BondBreaker, MicroModulus
from peribond.scenarios import (
    build_bar_wave,
    build_fluid_shear,
    build_plate_precrack,
    linearized_modulus,
    materialize,
    model_from_config,
)


def test_bar_wave_setup():
    setup = build_bar_wave(delta=0.1, m=4)
    assert setup.cloud.n_points == 40
    assert setup.cloud.periodic.all()
    # the oracle reproduces the initial condition exactly at t = 0
    x = setup.cloud.positions[:, 0]
    assert np.allclose(setup.oracle(x, 0.0), setup.state.u[:, 0])
    # dt divides one traversal period exactly
    e = linearized_modulus(setup.cloud, setup.bonds, setup.model)
    period = 1.0 / math.sqrt(e)
    n_per = round(period / setup.dt)
    assert n_per * setup.dt == pytest.approx(period, rel=1e-12)
    assert setup.n_steps == n_per


def test_bar_wave_travels_toward_oracle():
    setup = build_bar_wave(delta=0.1, m=4, periods=0.25)
    from peribond import dynamics

    dynamics.run(setup.cloud, setup.bonds, setup.model, setup.state,
                 setup.dt, setup.n_steps, record_every=setup.n_steps)
    x = setup.cloud.positions[:, 0]
    predicted = setup.oracle(x, setup.state.t)
    err = np.linalg.norm(setup.state.u[:, 0] - predicted)
    err /= np.linalg.norm(predicted)
    assert err < 0.06  # delta = 0.1 dispersion level, well under failure


def test_plate_precrack_seeds_a_clean_crack():
    setup = build_plate_precrack(n=16, n_steps=10)
    cloud, bonds = setup.cloud, setup.bonds
    broken = bonds.mu == 0.0
    assert broken.any()
    # every cut bond straddles the seam y = 0.5 inside x in [0.25, 0.75]
    pos_i = cloud.positions[bonds.source[broken]]
    pos_j = pos_i + bonds.xi[broken]
    assert np.all((pos_i[:, 1] - 0.5) * (pos_j[:, 1] - 0.5) < 0.0)
    # damage is confined to a horizon-wide band around the seam
    dmg = bonds.damage()
    far = np.abs(cloud.positions[:, 1] - 0.5) > 2.0 * setup.horizon.delta
    assert np.allclose(dmg[far], 0.0)
    assert dmg.max() > 0.0
    # opening velocities point away from the seam on both sides
    v_y = setup.state.v[:, 1]
    y = cloud.positions[:, 1]
    assert np.all(v_y[y > 0.5] > 0.0) and np.all(v_y[y < 0.5] < 0.0)


def test_fluid_shear_setup():
    setup = build_fluid_shear(n=8)
    # the configured pmb rides along; the linear fluid kernel ignores it
    assert setup.bonds is None
    assert setup.model == PMB(micro=MicroModulus("cylindrical", 1.0, setup.horizon.delta))
    assert setup.memory.mode == "zero"
    assert setup.cloud.periodic.all()
    ke = float(np.sum(setup.state.v ** 2))
    assert ke > 0.0


@pytest.mark.parametrize("preset, builder", [
    ("bar1d-wave", build_bar_wave),
    ("plate2d-precrack", build_plate_precrack),
    ("fluid-shear", build_fluid_shear),
])
def test_builders_record_at_their_preset_tables_cadence(preset, builder):
    setup = builder()
    assert setup.record_every == PRESET_CONFIGS[preset]["time"]["record_every"]
    assert setup.record_every == materialize(
        parse_config(f"[scenario]\npreset = {preset}\n")).record_every


@pytest.mark.parametrize("preset, builder", [
    ("bar1d-wave", build_bar_wave),
    ("plate2d-precrack", build_plate_precrack),
    ("fluid-shear", build_fluid_shear),
])
def test_builder_defaults_are_their_preset_table(preset, builder):
    """A builder's keyword defaults declare its preset a second time; the two
    copies must build the same setup."""
    built = builder()
    table = materialize(parse_config(f"[scenario]\npreset = {preset}\n"))
    for name in ("positions", "volumes", "box", "periodic"):
        assert np.array_equal(getattr(built.cloud, name), getattr(table.cloud, name)), name
    for name in ("horizon", "model", "memory", "load", "dt", "n_steps", "record_every",
                 "snapshot_every"):
        assert getattr(built, name) == getattr(table, name), name
    assert np.array_equal(built.state.u, table.state.u)
    assert np.array_equal(built.state.v, table.state.v)
    if table.bonds is None:   # zero memory holds no reference network
        assert built.bonds is None
    else:
        assert np.array_equal(built.bonds.mu, table.bonds.mu)


def test_the_plate_builder_keeps_its_record_every_keyword():
    assert build_plate_precrack(n=16, n_steps=10, record_every=3).record_every == 3


def test_model_from_config_all_families():
    for family in KERNEL_FAMILIES:
        cfg = default_config()
        cfg.set("kernel", "family", family)
        model = model_from_config(cfg, delta=0.5, dim=1)
        assert model.family == family


def test_breaker_restricted_to_brittle_families():
    cfg = default_config()
    cfg.set("kernel", "family", "quadratic")
    cfg.set("breaker", "mode", "critical-stretch")
    cfg.set("breaker", "s0", 0.1)
    with pytest.raises(ConfigError, match="does not take a breaker"):
        model_from_config(cfg, delta=0.5, dim=1)


def test_materialize_generic_path():
    cfg = parse_config("""
        [domain]
        h = 0.125
        [horizon]
        delta = 0.375
        [time]
        steps = 7
        [output]
        snapshot_every = 3
    """)
    setup = materialize(cfg)
    assert setup.cloud.n_points == 8
    assert setup.n_steps == 7
    assert setup.snapshot_every == 3
    assert setup.dt > 0.0  # auto-derived from the bond stiffness


def test_materialize_zero_memory_requires_explicit_dt():
    with pytest.raises(ConfigError, match="dt explicitly"):
        materialize(parse_config("[memory]\nmode = zero\n[time]\ndt = auto\n"))
    cfg = parse_config("[memory]\nmode = zero\n[time]\ndt = 0.01\n")
    setup = materialize(cfg)
    assert setup.bonds is None
    assert setup.dt == 0.01


def test_materialize_preset_respects_overrides():
    cfg = parse_config("[scenario]\npreset = bar1d-wave\n[time]\nsteps = 9\n")
    setup = materialize(cfg)
    assert setup.n_steps == 9
    cfg = parse_config("[scenario]\npreset = fluid-shear\n[time]\nsteps = 4\n")
    setup = materialize(cfg)
    assert setup.n_steps == 4 and setup.memory.mode == "zero"


def _plate_modulus(setup):
    cloud = setup.cloud
    n_y = int(round(cloud.box[1] / cloud.spacing))
    return linearized_modulus(cloud, setup.bonds, setup.model,
                              point=cloud.n_points // 2 + n_y // 2, axis=1)


# (preset, explicit keys, what must hold in the materialized setup)
OVERRIDES = [
    ("bar1d-wave", "[domain]\nh = 0.05\n", lambda s: s.cloud.n_points == 20),
    ("plate2d-precrack", "[horizon]\ndelta = 0.0625\n",
     lambda s: s.horizon.delta == s.model.micro.delta == 0.0625
     and s.bonds.xi_norm.max() > 3.0 / 64.0),
    ("plate2d-precrack", "[horizon]\npartial_volume = none\n",
     lambda s: np.all(s.bonds.weights == s.cloud.spacing**2)),
    ("plate2d-precrack", "[kernel]\nc0 = 2.0\n",
     lambda s: _plate_modulus(s) == pytest.approx(2.0, rel=1e-12)),
    ("plate2d-precrack", "[kernel]\nmicro = triangular\n",
     lambda s: s.model.micro.family == "triangular"
     and _plate_modulus(s) == pytest.approx(1.0, rel=1e-12)),
    ("plate2d-precrack", "[breaker]\nmode = none\n",
     lambda s: not s.model.breaker.active),
    ("plate2d-precrack", "[breaker]\nmode = theta-eps\neps = 0.01\n",
     lambda s: s.model.breaker == BondBreaker("theta-eps", s0=0.03, eps=0.01)),
    ("plate2d-precrack", "[load]\npreset = none\n", lambda s: s.load is None),
    ("plate2d-precrack", "[domain]\nperiodic = true, true\n",
     lambda s: s.cloud.periodic.all()),
    ("fluid-shear", "[horizon]\ndelta = 0.25\n", lambda s: s.horizon.delta == 0.25),
    ("fluid-shear", "[memory]\nfluid_kernel = kernel\n",
     lambda s: s.memory.fluid_kernel == "kernel"),
]


@pytest.mark.parametrize("preset, text, holds", OVERRIDES)
def test_explicit_keys_reach_the_preset_setup(preset, text, holds):
    cfg = parse_config(f"[scenario]\npreset = {preset}\n{text}")
    assert holds(materialize(cfg))


# (preset, explicit keys, the key the refusal must name)
REFUSALS = [
    ("plate2d-precrack",
     "[domain]\ndim = 1\nbox = 1.0\nperiodic = false\n[load]\npreset = none\n",
     "[domain] dim"),
    ("plate2d-precrack", "[kernel]\nfamily = rod\n[breaker]\nmode = none\n",
     "[kernel] family"),
    ("plate2d-precrack", "[memory]\nmode = finite\ns = 0.1\n[breaker]\nmode = none\n",
     "[memory] mode"),
    ("plate2d-precrack", "[horizon]\ndelta = 0.01\n", "[horizon] delta"),
    ("bar1d-wave", "[memory]\nmode = zero\n[time]\ndt = 0.01\n", "[memory] mode"),
    ("bar1d-wave", "[horizon]\ndelta = 0.01\n", "[horizon] delta"),
    ("fluid-shear", "[domain]\ndim = 1\nbox = 1.0\nperiodic = true\n", "[domain] dim"),
    ("fluid-shear", "[time]\ndt = auto\n", "[time] dt"),
]


@pytest.mark.parametrize("preset, text, key", REFUSALS)
def test_preset_hooks_refuse_keys_they_cannot_honour(recwarn, preset, text, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        materialize(parse_config(f"[scenario]\npreset = {preset}\n{text}"))
    # a horizon that reaches no neighbor is refused after build_bonds warns
    heard = [(w.category, str(w.message)) for w in recwarn]
    expected = ["is below the grid spacing", "have empty horizons"]
    assert len(heard) == (len(expected) if key == "[horizon] delta" else 0)
    for (category, message), part in zip(heard, expected):
        assert category is UserWarning and part in message


@pytest.mark.parametrize("preset, text, key",
                         [r for r in REFUSALS if r[2] != "[horizon] delta"])
def test_refusals_come_before_anything_is_built(monkeypatch, preset, text, key):
    # only the no-neighbor refusal needs the bond network
    def unbuilt(*args, **kwargs):
        raise AssertionError("built before the config was refused")

    monkeypatch.setattr(scenarios, "build_grid", unbuilt)
    monkeypatch.setattr(scenarios, "build_bonds", unbuilt)
    with pytest.raises(ConfigError, match=re.escape(key)):
        materialize(parse_config(f"[scenario]\npreset = {preset}\n{text}"))
