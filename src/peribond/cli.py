"""Command-line front end.

Subcommands: run (reference-network dynamics), fluid-run (memory dynamics;
with infinite memory it integrates the scenario's own bond network exactly as
run does, seeded cracks included), convergence (horizon-refinement study),
kernel-check (randomized axiom sweep), print-config (normalized config echo).
Exit codes: 0 success, 1 failed checks, 2 configuration errors,
3 runtime/simulation errors.
"""

import argparse
from functools import partial
import sys

from . import dynamics, fluidpd, outputs
from .config import SCHEMA, parse_config, print_config
from .diagnostics import delta_convergence
from .errors import ConfigError, SimulationError
from .kernels import default_models
from .scenarios import materialize


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="peribond",
        description="meshfree bond-based dynamics: solids, fracture, and "
                    "fading-memory fluids",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("-c", "--config", metavar="FILE",
                       help="configuration file ([section] / key = value)")
        p.add_argument("--preset", metavar="NAME",
                       choices=SCHEMA["scenario"]["preset"].choices[1:],
                       help="scenario preset; explicit config keys override it")

    p_run = sub.add_parser("run", help="integrate the reference-network dynamics")
    add_config_flags(p_run)
    p_run.set_defaults(handler=partial(_execute, fluid=False))

    p_fluid = sub.add_parser("fluid-run", help="integrate the memory dynamics")
    add_config_flags(p_fluid)
    p_fluid.set_defaults(handler=partial(_execute, fluid=True))

    p_conv = sub.add_parser("convergence",
                            help="horizon-refinement study on the traveling wave")
    p_conv.add_argument("--deltas", default="0.2,0.1,0.05",
                        help="comma-separated horizon radii, largest first")
    p_conv.add_argument("--m", type=int, default=4,
                        help="points per horizon radius (delta / h)")
    p_conv.set_defaults(handler=_convergence)

    p_check = sub.add_parser("kernel-check",
                             help="randomized bond-force axiom sweep")
    p_check.add_argument("--family", default="all",
                         help="kernel family tag, or 'all'")
    p_check.add_argument("--samples", type=int, default=1000)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(handler=_kernel_check)

    p_print = sub.add_parser("print-config",
                             help="echo the fully defaulted, normalized config")
    add_config_flags(p_print)
    p_print.set_defaults(handler=_print_config)
    return parser


def _load_config(args):
    text = ""
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    return parse_config(text, forced_preset=args.preset)


def _execute(args, fluid: bool) -> int:
    cfg = _load_config(args)
    setup = materialize(cfg)
    outdir = outputs.resolve_output_dir(cfg.get("output", "directory"))
    writer = outputs.snapshot_writer(outdir, setup.cloud)

    if setup.memory.mode == "infinite":
        # infinite memory is the solid theory: both subcommands run the
        # scenario's own network, seeded cracks included
        result = dynamics.run(
            setup.cloud, setup.bonds, setup.model, setup.state, setup.dt,
            setup.n_steps, load=setup.load, record_every=setup.record_every,
            snapshot_every=setup.snapshot_every, on_snapshot=writer,
        )
    elif not fluid:
        raise ConfigError(
            "[memory] mode: the run command integrates the reference "
            f"network; mode {setup.memory.mode!r} needs fluid-run"
        )
    else:
        result = fluidpd.run_fluid(
            setup.cloud, setup.horizon, setup.model, setup.memory, setup.state,
            setup.dt, setup.n_steps, load=setup.load,
            record_every=setup.record_every,
            snapshot_every=setup.snapshot_every, on_snapshot=writer,
        )

    series_path = outputs.write_series(outdir, result)
    total = result.series["total"]
    print(f"{setup.n_steps} step(s) of dt = {outputs.fmt(setup.dt)}; "
          f"final t = {outputs.fmt(result.state.t)}")
    print(f"total energy {outputs.fmt(total[0])} -> {outputs.fmt(total[-1])}")
    print(f"wrote {series_path} and {len(writer.written)} snapshot(s) in {outdir}")
    return 0


def _convergence(args) -> int:
    try:
        deltas = tuple(float(part) for part in args.deltas.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"--deltas must be comma-separated numbers, "
                          f"got {args.deltas!r}") from None
    result = delta_convergence(deltas, m=args.m)
    print(result.table())
    return 0 if result.monotone else 1


def _kernel_check(args) -> int:
    from .kernels import check_kernel_axioms

    table = default_models()
    if args.family != "all":
        if args.family not in table:
            raise ConfigError(
                f"unknown kernel family {args.family!r}; "
                f"choose from {', '.join(sorted(table))} or 'all'"
            )
        table = {args.family: table[args.family]}
    failed = 0
    for name in sorted(table):
        report = check_kernel_axioms(table[name], dim=3,
                                     n_samples=args.samples, seed=args.seed)
        print(report.summary())
        failed += 0 if report.passed else 1
    if failed:
        print(f"{failed} famil{'y' if failed == 1 else 'ies'} failed")
    return 1 if failed else 0


def _print_config(args) -> int:
    sys.stdout.write(print_config(_load_config(args)))
    return 0


def cli(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
