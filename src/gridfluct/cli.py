"""Command-line interface.

Subcommands: solve, variance, compare, sweep, simulate.  Exit codes:
0 on success, 2 when an input or method assumption is violated, 1 on
internal errors.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import replace

import numpy as np

from .errors import (
    AssumptionViolatedError,
    DisconnectedGraphError,
    GridfluctError,
    InvalidGraphError,
    ValidationError,
)
from .netfile import (
    _check_mc_setting,
    _load_json,
    format_number,
    load_network,
    load_sweep,
    validate_mc_overrides,
)
from .pipeline import (
    EXACT_ROUTES,
    ROUTES,
    _dump_json,
    compare_variance,
    run_sweep,
    run_variance,
    write_comparison,
    write_report,
    write_sweep,
)
from .swing import security_check, solve_synchronous_state

USER_ERRORS = (AssumptionViolatedError, ValidationError, DisconnectedGraphError, InvalidGraphError)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfluct",
        description="Stationary fluctuation covariance of stochastically disturbed power networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="synchronous state and per-line security margins")
    solve.add_argument("network")
    solve.add_argument("--format", choices=("human", "csv", "json"), default="human")

    variance = sub.add_parser("variance", help="stationary covariance by one method")
    variance.add_argument("network")
    variance.add_argument("--method", required=True, choices=tuple(ROUTES))
    variance.add_argument("--format", choices=("csv", "json"), default="csv")
    variance.add_argument("--out", help="output file (default stdout)")
    variance.add_argument("--seed", type=int, help="Monte Carlo master seed, over --mc-config's")
    variance.add_argument("--mc-config", help="JSON file with Monte Carlo overrides")

    compare = sub.add_parser("compare", help="all applicable exact methods plus discrepancy")
    compare.add_argument("network")
    compare.add_argument("--methods", help=f"comma-separated subset of {','.join(EXACT_ROUTES)}")
    compare.add_argument("--format", choices=("csv", "json"), default="csv")
    compare.add_argument("--out")

    sweep = sub.add_parser("sweep", help="evaluate a parameter sweep to CSV")
    sweep.add_argument("--spec", required=True)
    sweep.add_argument("--out")
    sweep.add_argument("--seed", type=int, help="Monte Carlo master seed, over the file's")

    simulate = sub.add_parser("simulate", help="Monte Carlo covariance estimate")
    simulate.add_argument("network")
    simulate.add_argument("--mc-config", help="JSON file with Monte Carlo overrides")
    simulate.add_argument("--seed", type=int, help="Monte Carlo master seed, over --mc-config's")
    simulate.add_argument("--format", choices=("csv", "json"), default="csv")
    simulate.add_argument("--out")
    simulate.set_defaults(method="mc")

    return parser


def _silence_stdout() -> None:
    """Point stdout at devnull, so that the flush at exit stays silent."""
    with open(os.devnull, "w") as devnull:
        os.dup2(devnull.fileno(), sys.stdout.fileno())


@contextlib.contextmanager
def _writing(name: str):
    """Report an output that refuses a write, or the flush of one, as a
    ``ValidationError`` naming ``name``; a closed pipe passes through."""
    try:
        yield
    except BrokenPipeError:
        raise
    except OSError as exc:
        if name == "stdout":
            _silence_stdout()
        raise ValidationError(f"{name}: cannot write: {exc.strerror}") from None


@contextlib.contextmanager
def _output(path: str | None):
    if path is None:
        with _writing("stdout"):
            yield sys.stdout
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise ValidationError(f"--out {path}: cannot open for writing: {exc.strerror}") from None
    with _writing(f"--out {path}"), fh:
        yield fh


def _seeded(overrides: dict, args) -> dict:
    """Monte Carlo ``overrides`` with ``--seed``, when given, as their ``master_seed``."""
    return overrides if args.seed is None else {**overrides, "master_seed": args.seed}


def _cmd_solve(args) -> int:
    net = load_network(args.network)
    state = solve_synchronous_state(net)
    report = security_check(state, net)
    with _writing("stdout"):
        if args.format == "human":
            print(f"synchronous frequency: {format_number(state.sync_frequency)} rad/s")
            print(f"flow residual (sup-norm): {format_number(state.residual_norm)}")
            print(f"secure: {'yes' if report.secure else 'no'}")
            for k, ((i, j, _), margin) in enumerate(zip(net.topology.edges, report.margins), 1):
                print(
                    f"line {k} ({net.labels[i - 1]} -> {net.labels[j - 1]}): "
                    f"margin {format_number(margin)} rad"
                )
        elif args.format == "json":
            payload = {
                "sync_frequency": state.sync_frequency,
                "angles": state.angles.tolist(),
                "residual_norm": state.residual_norm,
                "secure": report.secure,
                "margins": report.margins.tolist(),
            }
            _dump_json(payload, sys.stdout)
        else:
            print("line,from,to,margin")
            for k, ((i, j, _), margin) in enumerate(zip(net.topology.edges, report.margins), 1):
                print(f"{k},{net.labels[i - 1]},{net.labels[j - 1]},{format_number(margin)}")
    return 0


def _cmd_variance(args) -> int:
    net = load_network(args.network)
    # --mc-config is checked whatever the route; only mc uses it.
    config = args.mc_config and validate_mc_overrides(_load_json(args.mc_config), args.mc_config)
    mc_overrides = _seeded(config or {}, args) if args.method == "mc" else None
    report = run_variance(net, args.method, mc_overrides)
    with _output(args.out) as fh:
        write_report(report, fh, args.format)
    return 0


def _cmd_compare(args) -> int:
    net = load_network(args.network)
    methods = args.methods.split(",") if args.methods else None
    comparison = compare_variance(net, methods)
    with _output(args.out) as fh:
        write_comparison(comparison, fh, args.format)
    return 0


def _cmd_sweep(args) -> int:
    spec = load_sweep(args.spec)
    rows = run_sweep(replace(spec, mc_overrides=_seeded(spec.mc_overrides, args)))
    with _output(args.out) as fh:
        write_sweep(rows, spec, fh)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "variance": _cmd_variance,
        "compare": _cmd_compare,
        "sweep": _cmd_sweep,
        "simulate": _cmd_variance,
    }
    try:
        # --seed is checked before any file is read, whether or not it is used.
        if getattr(args, "seed", None) is not None:
            _check_mc_setting("master_seed", args.seed, "--seed")
        # Overflow, invalid operations and division by zero raise, never leave inf or nan.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            code = handlers[args.command](args)
        with _writing("stdout"):
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout, during a write or the flush above.
        _silence_stdout()
        print("gridfluct: output closed before it was complete", file=sys.stderr)
        return 1
    except USER_ERRORS as exc:
        print(f"gridfluct: {exc}", file=sys.stderr)
        return 2
    except GridfluctError as exc:
        print(f"gridfluct: internal error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"gridfluct: internal error: floating-point range exceeded: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
