"""Print one blake2b digest per output of the shipped runs, to show that a
change keeps every output byte-identical.

Run from a checkout, with or without an installed peribond:

    python tools/output_digests.py > digests.txt

It runs `run --preset bar1d-wave`, `run --preset plate2d-precrack`,
`fluid-run --preset fluid-shear`, `fluid-run --preset fluid-shear` once
more with finite memory (`[memory] mode = finite`, `s = 0.04`, `[time]
steps = 200`: a stride of 2 steps at dt 0.02, far inside the stable span),
once more with the bond model as the zero-memory kernel (`[memory]
fluid_kernel = kernel`), and once more in 3D (`dim = 3`, a periodic unit
cube, `h = 0.125`, `delta = 0.375`, 40 steps). Then it runs the plate
once more with the graded breaker (`[breaker] mode = theta-eps`, `eps =
0.01`, 20 steps: fractional mu through the row-local refresh) and the bar
once more with `[kernel] micro = triangular` (a bond constant that varies
with |xi|). Finite-memory fluid-shear runs twice more, with `[kernel]
family = rod`, `micro = triangular` (a k that varies with |xi|) and with
`family = nano-membrane` (a force that divides by q, and its own phi).
Last, the bar runs with `[kernel] family = anti-plane-shear`, `u_star =
0.0003`: bonds break at their own critical stretch u_star/r, through the
row-local refresh.
Each run has `[output] snapshot_every = 100` and writes into a
temporary directory; the script prints one line per file written, under
the run's label. Then it prints one line for the stdout of each of
`kernel-check --samples 200`, `convergence --deltas 0.4,0.2 --m 2` and
`print-config --preset P` for the three presets: the axiom table, the
horizon study and the normalized config. Then it builds each perfbench
workload at seed 7,
integrates it, and prints one line each for the final u, v and every
series column. Last, it prints one line per bond model: the 8 families of
`default_models` and PMB with each of the 4 micro-moduli, whose support
is 0.7 of the horizon (so some bonds lie past it). Each line digests
`stiffness0` over the bonds of a periodic 16 x 16 unit-square lattice with
horizon 3h, and gives `repr` of `stable_dt` on that lattice. Run it on
two commits and diff the two listings: identical outputs print identical
lines.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

from peribond import build_bonds, build_grid, outputs, stable_dt  # noqa: E402
from peribond.cli import cli  # noqa: E402
from peribond.discretization import HorizonConfig  # noqa: E402
from peribond.kernels import MICRO_FAMILIES, PMB, MicroModulus, default_models  # noqa: E402
import workloads  # noqa: E402

# (label, command, preset, config lines beyond the output section)
CLI_RUNS = (("bar1d-wave", "run", "bar1d-wave", ""),
            ("plate2d-precrack", "run", "plate2d-precrack", ""),
            ("fluid-shear", "fluid-run", "fluid-shear", ""),
            ("fluid-shear-finite", "fluid-run", "fluid-shear",
             "[memory]\nmode = finite\ns = 0.04\n[time]\nsteps = 200\n"),
            ("fluid-shear-kernel", "fluid-run", "fluid-shear",
             "[memory]\nfluid_kernel = kernel\n"),
            ("fluid-shear-3d", "fluid-run", "fluid-shear",
             "[domain]\ndim = 3\nbox = 1, 1, 1\nperiodic = true, true, true\n"
             "h = 0.125\n[horizon]\ndelta = 0.375\n[time]\nsteps = 40\n"),
            ("plate2d-precrack-theta-eps", "run", "plate2d-precrack",
             "[breaker]\nmode = theta-eps\neps = 0.01\n[time]\nsteps = 20\n"),
            ("bar1d-wave-triangular", "run", "bar1d-wave",
             "[kernel]\nmicro = triangular\n"),
            ("fluid-shear-finite-rod", "fluid-run", "fluid-shear",
             "[memory]\nmode = finite\ns = 0.04\n[time]\nsteps = 200\n"
             "[kernel]\nfamily = rod\nmicro = triangular\n"),
            ("fluid-shear-finite-nano-membrane", "fluid-run", "fluid-shear",
             "[memory]\nmode = finite\ns = 0.04\n[time]\nsteps = 200\n"
             "[kernel]\nfamily = nano-membrane\n"),
            ("bar1d-wave-anti-plane-shear", "run", "bar1d-wave",
             "[kernel]\nfamily = anti-plane-shear\nu_star = 0.0003\n"))
# commands whose stdout is digested whole
STDOUT_RUNS = (("kernel-check", "--samples", "200"),
               ("convergence", "--deltas", "0.4,0.2", "--m", "2"),
               ("print-config", "--preset", "bar1d-wave"),
               ("print-config", "--preset", "plate2d-precrack"),
               ("print-config", "--preset", "fluid-shear"))
SEED = 7


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def array_digest(a) -> str:
    a = np.ascontiguousarray(a)
    return digest(f"{a.dtype} {a.shape} ".encode() + a.tobytes())


def cli_lines(workdir):
    for label, command, preset, extra in CLI_RUNS:
        outdir = os.path.join(workdir, label)
        config = os.path.join(workdir, f"{label}.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(f"[output]\ndirectory = {outdir}\nsnapshot_every = 100\n{extra}")
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli([command, "--preset", preset, "-c", config])
        if status != 0:
            raise SystemExit(f"{command} --preset {preset} exited {status}")
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                yield f"{label}/{name} {digest(fh.read())}"


def stdout_lines():
    for argv in STDOUT_RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli(list(argv))
        if status != 0:
            raise SystemExit(f"{' '.join(argv)} exited {status}")
        yield f"stdout {' '.join(argv)} {digest(out.getvalue().encode())}"


def workload_lines():
    for name, workload in workloads.WORKLOADS.items():
        result = workloads.integrate(workload.build(SEED), None)
        yield f"{name} u {array_digest(result.state.u)}"
        yield f"{name} v {array_digest(result.state.v)}"
        for column, values in result.series.items():
            yield f"{name} series.{column} {array_digest(values)}"


def stiffness_lines():
    h = 1.0 / 16.0
    horizon = HorizonConfig(delta=3.0 * h)
    cloud = build_grid((1.0, 1.0), h, 1.0)
    bonds = build_bonds(cloud, horizon)
    models = default_models(horizon.delta, 2)
    for micro in MICRO_FAMILIES:
        models[f"pmb-{micro}"] = PMB(micro=MicroModulus(micro, 1.0, 0.7 * horizon.delta))
    for name, model in models.items():
        yield (f"stiffness0 {name} {array_digest(model.stiffness0(bonds.xi_norm))} "
               f"stable_dt {stable_dt(cloud, bonds, model)!r}")


def main():
    os.environ.pop(outputs.ENV_OUTPUT_DIR, None)
    with tempfile.TemporaryDirectory() as workdir:
        for line in cli_lines(workdir):
            print(line)
    for line in stdout_lines():
        print(line)
    for line in workload_lines():
        print(line)
    for line in stiffness_lines():
        print(line)


if __name__ == "__main__":
    main()
