"""Print the traced memory high-water of each phase of a solid run, to show
which phase sets a run's peak.

Run from a checkout, with or without an installed peribond:

    python tools/memory_peaks.py

It builds two cases: the plate2d-precrack preset (64 x 64 points, 55,058
pairs) and a periodic 3D PMB cube (24^3 points, horizon 3h, a
critical-stretch breaker that never trips: 843,264 pairs). The cloud, the
model and a slightly displaced state are made first; then Python's
tracemalloc traces, in order, these phases:

    search     neighbor_pairs on the reference positions (result dropped)
    build      pair_network: the network the run keeps
    scatter    its CSR scatter operator, formed again from its own arrays
    setup      NetworkForce on that network
    force      NetworkForce.force
    settle     NetworkForce.settle after that force
    damage     NetworkForce.damage
    potential  NetworkForce.potential
    snapshot   outputs.write_snapshot into a temporary directory

The last five run in the order of a step of dynamics.integrate that
records a row and writes a snapshot.

Each line gives the phase, the traced MiB live when it starts and when it
ends, and its high-water; then that high-water above the live bytes at the
start and at the end, in float columns of M (8 M bytes, M the number of
pairs). So the build line's last column is the peak above the network it
leaves, and the force line's first is the peak above the operator it
runs on. numpy allocations are traced, so the figures do not depend on the
allocator or the page cache, and they repeat run to run. No library code
is patched.
"""

import os
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from peribond import discretization, outputs, scenarios  # noqa: E402
from peribond.dynamics import NetworkForce, zero_state  # noqa: E402
from peribond.kernels import PMB, BondBreaker, MicroModulus  # noqa: E402

MIB = 2.0**20


def plate():
    setup = scenarios.build_plate_precrack()
    return setup.cloud, setup.horizon, setup.model, setup.state, setup.dt


def cube(n=24):
    h = 1.0 / n
    cloud = discretization.build_grid((1.0,) * 3, h, 1.0, periodic=(True,) * 3)
    model = PMB(micro=MicroModulus("cylindrical", 1.0, 3.0 * h),
                breaker=BondBreaker("critical-stretch", s0=0.5))
    return cloud, discretization.HorizonConfig(3.0 * h), model, zero_state(cloud), 1e-3


class Phases:
    """Traced start, end and high-water of each phase, in call order."""

    def __init__(self):
        self.rows = []

    def __call__(self, name, fn, *args):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        self.rows.append((name, live, *tracemalloc.get_traced_memory()))
        return out


def trace_case(cloud, horizon, model, state, dt):
    """(pairs, [(phase, start, end, peak bytes)]) of one case."""
    rng = np.random.default_rng(1)
    state.u += 1e-4 * cloud.spacing * rng.standard_normal(state.u.shape)
    geometry = (cloud.positions, horizon.delta, cloud.box, cloud.periodic)
    phase = Phases()
    tracemalloc.start()
    try:
        phase("search", discretization.neighbor_pairs, *geometry)
        bonds = phase("build", discretization.pair_network, cloud, horizon, cloud.positions)
        phase("scatter", discretization._scatter_operator, bonds.source, bonds.neighbors,
              bonds.weights, bonds.reverse_weights, cloud.n_points)
        op = phase("setup", NetworkForce, cloud, bonds, model)
        force = phase("force", op.force, state, state.v)
        phase("settle", op.settle, state, dt, force)
        damage = phase("damage", op.damage)
        phase("potential", op.potential, state)
        with tempfile.TemporaryDirectory() as directory:
            phase("snapshot", outputs.write_snapshot, directory, cloud, 0, state, damage)
        return bonds.n_bonds, phase.rows
    finally:
        tracemalloc.stop()


def main():
    for label, make in (("plate2d-precrack", plate), ("pmb3d-periodic", cube)):
        m, rows = trace_case(*make())
        column = 8.0 * m
        print(f"{label}: {m} pairs, {column / MIB:.3f} MiB per float column")
        print(f"  {'phase':<10} {'start':>8} {'end':>8} {'peak':>8}   columns above start, end")
        for name, start, end, peak in rows:
            print(f"  {name:<10} {start / MIB:8.2f} {end / MIB:8.2f} {peak / MIB:8.2f}   "
                  f"{(peak - start) / column:8.2f} {(peak - end) / column:8.2f}")


if __name__ == "__main__":
    main()
