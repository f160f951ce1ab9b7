"""Print one blake2b digest per output of the shipped runs, to show that a
change keeps every output byte-identical.

Run from a checkout, with or without an installed peribond:

    python tools/output_digests.py > digests.txt

It runs `run --preset bar1d-wave`, `run --preset plate2d-precrack` and
`fluid-run --preset fluid-shear`, each with `[output] snapshot_every = 100`,
into a temporary directory and prints one line per file written. Then it
builds each perfbench workload at seed 7, integrates it, and prints one line
each for the final u, v and every series column. Run it on two commits and
diff the two listings: identical outputs print identical lines.
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

from peribond import outputs  # noqa: E402
from peribond.cli import cli  # noqa: E402
import workloads  # noqa: E402

CLI_RUNS = (("run", "bar1d-wave"), ("run", "plate2d-precrack"),
            ("fluid-run", "fluid-shear"))
SEED = 7


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def array_digest(a) -> str:
    a = np.ascontiguousarray(a)
    return digest(f"{a.dtype} {a.shape} ".encode() + a.tobytes())


def cli_lines(workdir):
    for command, preset in CLI_RUNS:
        outdir = os.path.join(workdir, preset)
        config = os.path.join(workdir, f"{preset}.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(f"[output]\ndirectory = {outdir}\nsnapshot_every = 100\n")
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli([command, "--preset", preset, "-c", config])
        if status != 0:
            raise SystemExit(f"{command} --preset {preset} exited {status}")
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                yield f"{preset}/{name} {digest(fh.read())}"


def workload_lines():
    for name, workload in workloads.WORKLOADS.items():
        result = workloads.integrate(workload.build(SEED), None)
        yield f"{name} u {array_digest(result.state.u)}"
        yield f"{name} v {array_digest(result.state.v)}"
        for column, values in result.series.items():
            yield f"{name} series.{column} {array_digest(values)}"


def main():
    os.environ.pop(outputs.ENV_OUTPUT_DIR, None)
    with tempfile.TemporaryDirectory() as workdir:
        for line in cli_lines(workdir):
            print(line)
    for line in workload_lines():
        print(line)


if __name__ == "__main__":
    main()
