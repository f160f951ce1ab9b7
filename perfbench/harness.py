"""One workload, one process: repeated runs, checks, and the metrics.

A run of a workload is setup (build from the seed), integration (run or
run_fluid, recording and snapshots included) and output (series.csv). Runs
repeat with the same seed until the time budget is spent, and every run must
write byte-identical files. The untraced mode reports end-to-end medians; the
traced mode alternates untraced and traced runs after the first, so the
tracing overhead is measured in the same process, and reports per-layer
numbers from the spans.
"""

from collections import defaultdict
from contextlib import nullcontext
import hashlib
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

from peribond import outputs

import oracle
import tracing
import workloads

# Run 0 warms the allocator and caches: it is checked like every run but
# not timed. Two more give a rerun for the determinism check and, when
# tracing, one untraced and one traced run to compare.
MIN_RUNS = 3


def _digest_outputs(directory):
    """Hash of every file name and byte a run wrote."""
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _unordered_pairs(bonds):
    lo = np.minimum(bonds.source, bonds.neighbors).astype(np.int64)
    hi = np.maximum(bonds.source, bonds.neighbors).astype(np.int64)
    return int(np.unique(lo * (int(hi.max()) + 1) + hi).size) if lo.size else 0


def _one_run(workload, seed, out_dir, tracer):
    """Setup, integrate and write once; returns timings, objects and problems."""
    def phase(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    t0 = time.perf_counter()
    with phase("bench.setup"):
        setup = workload.build(seed)
    t1 = time.perf_counter()
    problems = workload.check_start(setup)
    writer = outputs.snapshot_writer(out_dir, setup.cloud)
    t2 = time.perf_counter()
    with phase("bench.integrate"):
        result = workloads.integrate(setup, writer)
    t3 = time.perf_counter()
    with phase("bench.output"):
        outputs.write_series(out_dir, result)
    t4 = time.perf_counter()
    return {
        "setup_s": t1 - t0, "integrate_s": t3 - t2, "output_s": t4 - t3,
        "steps": setup.n_steps, "setup": setup, "result": result, "problems": problems,
    }


def run_workload(workload, seed, seconds, trace, out_root):
    """Measure one workload for about `seconds`; returns the result record."""
    os.makedirs(out_root, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    runs, failed, digests = [], set(), []
    pairs = 0   # unordered bond pairs, the same in every run of one seed
    last = None
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        index = len(runs)
        traced = trace and index > 0 and index % 2 == 0
        last = None   # free the previous run's arrays before the next setup
        out_dir = os.path.join(out_root, f"run{index}")
        try:
            if traced:
                tracer.run_id = index
                with tracing.instrument(tracer):
                    last = _one_run(workload, seed, out_dir, tracer)
            else:
                last = _one_run(workload, seed, out_dir, None)
            digest = _digest_outputs(out_dir)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            last = None
            runs.append(None)
            failed.add(index)
            continue
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        last.update(index=index, traced=traced)
        runs.append({k: v for k, v in last.items() if k not in ("setup", "result")})
        if last["problems"]:
            print(f"run {index}: {'; '.join(last['problems'])}", file=sys.stderr)
            failed.add(index)
        if digests and digest != digests[0]:
            print(f"run {index}: outputs differ from run 0's", file=sys.stderr)
            failed.add(index)
        digests.append(digest)
        if traced and not pairs and last["setup"].bonds is not None:
            pairs = _unordered_pairs(last["setup"].bonds)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    force_rel_err = None
    if last is not None:
        try:
            force_rel_err = final_checks(workload, last, failed, runs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed.update(range(len(runs)))
        last = None
    ok = [r for r in runs[1:] if r is not None and r["index"] not in failed]
    plain = [r for r in ok if not r["traced"]]
    record = {
        "attempted": len(runs), "failed": len(failed),
        "force_rel_err": force_rel_err,
        "end_to_end": end_to_end_metrics(plain, peak_rss_mib),
    }
    if trace:
        record["per_layer"] = layer_metrics(tracer.spans, ok, pairs, force_rel_err)
        tracing.write_spans(os.path.join(out_root, "spans.jsonl.gz"), tracer.spans)
    return record


def final_checks(workload, last, failed, runs):
    """Physics checks and the force oracle on the final state.

    Every run of one seed wrote byte-identical outputs, so they share this
    final state; a failure here counts against all of them.
    """
    setup, result = last["setup"], last["result"]
    got, want = workloads.reference_forces(setup, result.state)
    err = oracle.rel_err(got, want)
    problems = workload.check_end(setup, result, want)
    if not err <= workloads.FORCE_TOL:
        problems.append(f"force differs from the reference by {err:.3e} relative")
    if problems:
        print("final state: " + "; ".join(problems), file=sys.stderr)
        failed.update(range(len(runs)))
    return err


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(runs, peak_rss_mib):
    return {
        "setup_s": (_median([r["setup_s"] for r in runs]), "s"),
        "steps_per_s": (_median([r["steps"] / r["integrate_s"] for r in runs]), "1/s"),
        "total_s": (_median([r["setup_s"] + r["integrate_s"] + r["output_s"] for r in runs]), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def _phases(spans):
    """Name of the bench.* phase each span ran under."""
    out = []
    for span in spans:
        if span.name.startswith("bench."):
            out.append(span.name)
        else:
            out.append(out[span.parent] if span.parent >= 0 else None)
    return out


def layer_metrics(spans, runs, pairs, force_rel_err):
    """Per-layer numbers from the traced runs' spans and counts."""
    traced = [r for r in runs if r["traced"]]
    traced_ids = {r["index"] for r in traced}
    plain = [r for r in runs if not r["traced"]]
    keep = [i for i, s in enumerate(spans) if s.run_id in traced_ids]
    selfs = tracing.self_times(spans)
    phases = _phases(spans)

    calls = defaultdict(int)
    loop_calls = defaultdict(int)
    dur = defaultdict(float)
    own = defaultdict(float)
    counts = defaultdict(float)
    configs = set()
    accounted = 0.0
    for i in keep:
        span = spans[i]
        name = span.name
        calls[name] += 1
        dur[name] += span.end - span.start
        own[name] += selfs[i]
        if phases[i] == "bench.integrate":
            loop_calls[name] += 1
            if name not in ("bench.integrate", "dynamics.run", "fluidpd.run_fluid"):
                accounted += selfs[i]
        for key, value in (span.counts or {}).items():
            if key == "config":
                configs.add((span.run_id, value))
            else:
                counts[f"{name}.{key}"] += value

    n_runs = max(len(traced), 1)
    steps = sum(r["steps"] for r in traced) or 1

    def ms_per_call(name, table=dur):
        return 1e3 * table[name] / calls[name] if calls[name] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    plain_sps = _median([r["steps"] / r["integrate_s"] for r in plain])
    traced_sps = _median([r["steps"] / r["integrate_s"] for r in traced])
    plain_integrate = _median([r["integrate_s"] for r in plain])
    return {
        "discretization.build_bonds.ms": (ms_per_call("discretization.build_bonds"), "ms"),
        "discretization.bond_array_mib": (
            ratio(counts["discretization.build_bonds.bytes"], calls["discretization.build_bonds"])
            / 2**20, "MiB"),
        "discretization.directed_pairs.ms_per_call": (
            ms_per_call("discretization.directed_pairs"), "ms"),
        "discretization.directed_pairs.calls_per_step": (
            loop_calls["discretization.directed_pairs"] / steps, "count"),
        "discretization.directed_pairs.useful_ratio": (
            ratio(len(configs), calls["discretization.directed_pairs"]), "ratio"),
        "kernels.force.ns_per_pair": (
            1e9 * ratio(dur["kernels.force"], calls["kernels.force"] * pairs), "ns"),
        "kernels.force.calls_per_step": (loop_calls["kernels.force"] / steps, "count"),
        "kernels.force.bytes_computed": (
            ratio(counts["kernels.force.bytes"], calls["kernels.force"]), "B/call"),
        "kernels.update_breaker.ms_per_call": (ms_per_call("kernels.update_breaker"), "ms"),
        "kernels.update_breaker.bonds_broken": (
            counts["kernels.update_breaker.broken"] / n_runs, "count"),
        "kernels.update_breaker.changed_ratio": (
            ratio(counts["kernels.update_breaker.changed"],
                  counts["kernels.update_breaker.examined"]), "ratio"),
        "dynamics.internal_force.self_ms": (ms_per_call("dynamics.internal_force", own), "ms"),
        "dynamics.bond_stretches.ms_per_call": (ms_per_call("dynamics.bond_stretches"), "ms"),
        "dynamics.step_verlet.self_ms": (ms_per_call("dynamics.step_verlet", own), "ms"),
        "dynamics.potential_energy.ms_per_call": (
            ms_per_call("dynamics.potential_energy"), "ms"),
        "dynamics.potential_energy.calls": (calls["dynamics.potential_energy"] / n_runs, "count"),
        "fluidpd.fluid_force.self_ms": (ms_per_call("fluidpd.fluid_force", own), "ms"),
        "outputs.write_snapshot.ms_per_call": (ms_per_call("outputs.write_snapshot"), "ms"),
        "outputs.write_series.ms": (1e3 * dur["outputs.write_series"] / n_runs, "ms"),
        "outputs.bytes_written": (
            (counts["outputs.write_snapshot.bytes"] + counts["outputs.write_series.bytes"])
            / n_runs, "B"),
        "trace.overhead_pct": (100.0 * (ratio(plain_sps, traced_sps) - 1.0), "%"),
        "trace.accounted_pct": (100.0 * ratio(accounted / n_runs, plain_integrate), "%"),
        "check.force_rel_err": (force_rel_err, "ratio"),
    }
