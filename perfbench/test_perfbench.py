"""Tests of the benchmark itself, on tiny versions of its workloads."""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from peribond import kernels  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)

TINY = {
    "plate-fracture": workloads.PlateFracture(n=32, n_steps=30, record_every=15),
    "fluid-shear": workloads.FluidShear(n=12, n_steps=20),
    "pmb3d-periodic": workloads.Pmb3dPeriodic(n=8, n_steps=2),
    "bar-wave-io": workloads.BarWaveIO(delta=0.05, m=4, n_steps=60, snapshot_every=10),
}


def names(group):
    return [m["name"] for m in BENCHMARK[group]]


def test_workload_names_agree():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert set(declared) <= set(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_runs_and_passes_its_checks(name, trace, tmp_path):
    record = harness.run_workload(TINY[name], seed=3, seconds=0.0, trace=bool(trace),
                                  out_root=str(tmp_path))
    assert record["attempted"] >= harness.MIN_RUNS
    assert record["failed"] == 0
    assert record["force_rel_err"] <= workloads.FORCE_TOL
    metrics = record["per_layer"] if trace else record["end_to_end"]
    assert list(metrics) == names("per_layer" if trace else "end_to_end")
    assert all(math.isfinite(value) for value, _ in metrics.values())
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"] + BENCHMARK["end_to_end"]}
    assert all(units[k] == unit for k, (_, unit) in metrics.items())
    if trace:
        assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0


def test_fluid_searches_each_configuration_twice(tmp_path):
    record = harness.run_workload(TINY["fluid-shear"], seed=0, seconds=0.0, trace=True,
                                  out_root=str(tmp_path))
    n = TINY["fluid-shear"].n_steps
    ratio, _ = record["per_layer"]["discretization.directed_pairs.useful_ratio"]
    assert ratio == pytest.approx((n + 1) / (2 * n))
    calls, _ = record["per_layer"]["discretization.directed_pairs.calls_per_step"]
    assert calls == 2.0


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1, 0),
        S("a", 1.0, 3.0, 0, 0),
        S("b", 2.0, 5.0, 0, 0),     # overlaps a: the union [1, 5] counts once
        S("a.leaf", 1.5, 2.5, 1, 0),  # a grandchild does not reduce root
        S("c", 8.0, 12.0, 0, 0),    # only its part inside root counts
        S("other", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 1.0, 4.0, 1.0])


def test_tracer_nests_spans_and_restores_the_library(tmp_path):
    from peribond import dynamics

    original, original_force = dynamics.internal_force, vars(kernels.PMB)["force"]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert dynamics.internal_force is not original
        setup = TINY["bar-wave-io"].build(0)
        with tracer.span("outer"):
            dynamics.internal_force(setup.cloud, setup.bonds, setup.model, setup.state.u)
    assert dynamics.internal_force is original
    assert vars(kernels.PMB)["force"] is original_force
    by_name = {s.name: i for i, s in enumerate(tracer.spans)}
    assert tracer.spans[by_name["dynamics.internal_force"]].parent == by_name["outer"]
    assert tracer.spans[by_name["kernels.force"]].parent == by_name["dynamics.internal_force"]


def test_perturbed_force_is_caught_and_fails_every_run(monkeypatch, tmp_path):
    exact = kernels.PMB.force

    def perturbed(self, xi, eta, mu=None):
        return exact(self, xi, eta, mu) * (1.0 + 1e-9)

    monkeypatch.setattr(kernels.PMB, "force", perturbed)
    record = harness.run_workload(TINY["bar-wave-io"], seed=1, seconds=0.0, trace=False,
                                  out_root=str(tmp_path))
    assert record["force_rel_err"] > workloads.FORCE_TOL
    assert record["failed"] == record["attempted"] >= harness.MIN_RUNS


def test_rerun_that_changes_its_output_counts_as_failed(tmp_path):
    base = TINY["bar-wave-io"]
    calls = []

    class Drifting:
        name = base.name

        def build(self, seed):
            calls.append(seed)
            setup = base.build(seed)
            setup.state.u *= 1.0 + 1e-6 * len(calls)
            return setup

        def __getattr__(self, attr):
            return getattr(base, attr)

    record = harness.run_workload(Drifting(), seed=2, seconds=0.0, trace=False,
                                  out_root=str(tmp_path))
    assert record["failed"] >= 1


def test_without_the_library_sources_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "bar-wave-io",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_metric_map_covers_every_per_layer_metric():
    with open(os.path.join(HERE, "metric_map.json")) as fh:
        mapping = json.load(fh)["per_layer"]
    assert sorted(mapping) == sorted(names("per_layer"))
    known_metrics, known_workloads = set(names("end_to_end")), set(run.WORKLOADS)
    for entry in mapping.values():
        for effect in entry["moves"] + entry["holds"]:
            assert effect["metric"] in known_metrics
            assert set(effect["workloads"]) <= known_workloads


def test_benchmark_file_follows_its_format():
    assert sorted(BENCHMARK) == ["command", "end_to_end", "paths", "per_layer",
                                 "run_seconds", "workloads"]
    assert "setup_s" in names("end_to_end")
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])


def test_oracle_matches_library_on_a_random_state():
    setup = TINY["plate-fracture"].build(5)
    rng = np.random.default_rng(5)
    setup.state.u[:] = 1e-3 * rng.standard_normal(setup.state.u.shape)
    got, want = workloads.reference_forces(setup, setup.state)
    assert oracle.rel_err(got, want) <= workloads.FORCE_TOL
