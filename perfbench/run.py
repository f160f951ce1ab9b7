"""peribond benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload plate-fracture --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

With --trace 0 a run prints the end-to-end metrics, with --trace 1 the
per-layer metrics from spans around the library's layer boundaries. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. --all runs every workload in both modes, each in a fresh
process, and prints every metric with its unit.

BENCHMARK.json gates plate-fracture and fluid-shear. pmb3d-periodic (bond
memory and setup) and bar-wave-io (recording and CSV output) run the same way
but are not gated: the gated set has to fit its repeated runs into a fixed
time budget at a run length long enough for steady timings.

The library is imported from src/ next to this directory, never from an
installed copy; without it the benchmark exits with status 2. BLAS and
OpenMP pools are pinned to one thread before numpy loads. Outputs and span
files go under .perfbench-out/ in the checkout.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("plate-fracture", "fluid-shear", "pmb3d-periodic", "bar-wave-io")


def llc_mib():
    """Size of the highest cache level of cpu0 in MiB, None when unknown."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = (0, None)
    try:
        for entry in os.listdir(base):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            units = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}
            mib = float(size[:-1]) * units[size[-1]] if size[-1] in units else float(size) / 2**20
            best = max(best, (level, mib))
    except (OSError, ValueError):
        return None
    return best[1]


def environment():
    import numpy
    import scipy

    return {
        "machine": platform.machine(), "system": f"{platform.system()} {platform.release()}",
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "llc_mib": llc_mib(),
    }


def _number(value):
    return value if value is not None and math.isfinite(value) else None


def run_one(args):
    import harness
    from workloads import WORKLOADS as SPECS

    env = environment()
    print("env " + json.dumps(env))
    out_root = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = harness.run_workload(SPECS[args.workload], args.seed, args.seconds,
                                  bool(args.trace), out_root)
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(f"{args.workload} seed {args.seed}: {record['attempted']} runs, "
          f"{record['failed']} failed; force vs reference {record['force_rel_err']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {_number(value)!s:>22} {unit}")
    if args.trace:
        print(f"  (llc_mib {env['llc_mib']} next to discretization.bond_array_mib; "
              "bytes are computed from array sizes, not measured traffic)")
    correct = record["failed"] == 0 and record["attempted"] > 0
    print(json.dumps({
        "correct": correct, "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {name: {"value": _number(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    report = {"env": environment(), "seed": args.seed, "seconds": args.seconds,
              "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = {"attempted": 0, "failed": 0}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}   # the run died before its result line: one failed run
            if proc.returncode != 0 or not result.get("correct"):
                status = 1
            entry["attempted"] += result.get("attempted", 1)
            entry["failed"] += result.get("failed", 1)
            entry["per_layer" if trace else "end_to_end"] = result.get("metrics", {})
        entry["fail_ratio"] = entry["failed"] / max(entry["attempted"], 1)
        report["workloads"][name] = entry
        print(f"{name}: fail_ratio {entry['fail_ratio']:.3g} "
              f"({entry['failed']}/{entry['attempted']})")
        for group in ("end_to_end", "per_layer"):
            for metric, m in entry[group].items():
                print(f"  {metric:44s} {m['value']!s:>22} {m['unit']}")
    print(f"llc_mib {report['env']['llc_mib']} (bond bytes are computed, not measured)")
    print(json.dumps(report))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    if not os.path.isfile(os.path.join(SRC, "peribond", "__init__.py")):
        print(f"peribond sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    import peribond

    if not os.path.abspath(peribond.__file__).startswith(SRC + os.sep):
        print(f"peribond imported from {peribond.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
