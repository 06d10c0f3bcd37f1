"""The ``gsteer`` command line, whose contract README.md states: subcommands,
exit codes, tolerances, 17-digit and byte-identical fixed-seed output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from .channels import (
    PREDICATES,
    SamplingAbortError,
    apply,
    channel_from_json,
    classify,
    sample_verify,
)
from .dynamics import BathParameters, sweep
from .linalg import DEFAULT_PSD_TOL, ValidationError, require_count, require_number
from .states import (
    BonaFideError,
    squeezed_vacuum_state,
    state_from_json,
    state_to_json,
    validate_state,
)
from .steering import is_unsteerable, steering_report
from .verify import DEFAULT_SEED, SUITES, run_suite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PHYSICALITY = 3
EXIT_SAMPLING = 4

# sweep's start and bath flags by the names squeezed_vacuum_state and
# BathParameters give them in their errors, which hold the intervals
_SWEEP_FLAGS = {"r": "--r", "n_th": "--nth", "R": "--R", "phi": "--phi", "lam": "--lambda"}
_SWEEP_FIELD = re.compile(r"\b(%s)\b(?: =)?" % "|".join(_SWEEP_FLAGS))


def _resolve_tol(flag: str | None) -> float:
    """The tolerance from ``--tol``, else GSTEER_TOL, else the default, read
    by ``float`` and the real-number rule in [0, inf)."""
    source, text = "--tol", flag
    if text is None:
        source, text = "GSTEER_TOL", os.environ.get("GSTEER_TOL")
        if text is None:
            return DEFAULT_PSD_TOL
    try:
        tol = float(text)
    except ValueError:
        tol = text  # no number: the rule rejects the text itself
    return require_number(tol, source, 0.0)


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path} is not UTF-8 text: {exc.reason} "
                                  f"at byte {exc.start}") from None


def _write_output(text: str, path: str | None) -> None:
    """``text`` to the file at ``path``, or to stdout ending in a newline."""
    if path is None and not text.endswith("\n"):
        text += "\n"
    _write_lines([text], path)


def _write_lines(lines, path: str | None) -> None:
    """Each string of ``lines``, in turn, to the file at ``path`` or stdout."""
    if path is None:
        sys.stdout.writelines(lines)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_check(args) -> int:
    state = state_from_json(_read_file(args.state_file), require_bona_fide=False)
    bona = validate_state(state, args.tol)
    steer = is_unsteerable(state, args.tol)
    print(f"bona_fide: {str(bona.ok).lower()}")
    print(f"bona_fide_min_eigenvalue: {_fmt(bona.min_eigenvalue)}")
    print(f"unsteerable: {str(steer.ok).lower()}")
    print(f"steering_min_eigenvalue: {_fmt(steer.min_eigenvalue)}")
    print(f"tolerance: {_fmt(args.tol)}")
    return EXIT_OK if bona.ok else EXIT_PHYSICALITY


def cmd_quantify(args) -> int:
    state = state_from_json(_read_file(args.state_file))
    print(steering_report(state, args.tol).to_json())
    return EXIT_OK


def cmd_channel(args) -> int:
    if args.output is not None and args.state_file is None:
        raise ValidationError("--output needs a state file to apply the channel to")
    channel = channel_from_json(_read_file(args.channel_file))
    ran_something = False
    if args.classify:
        print(classify(channel, args.tol).to_json())
        ran_something = True
    if args.state_file is not None:
        state = state_from_json(_read_file(args.state_file), require_bona_fide=False)
        out = apply(channel, state)
        report = validate_state(out, args.tol)
        print(f"output_bona_fide: {str(report.ok).lower()}", file=sys.stderr)
        _write_output(state_to_json(out), args.output)
        ran_something = True
    if not ran_something:
        raise ValidationError("nothing to do: pass a state file and/or --classify")
    return EXIT_OK


def cmd_sweep(args) -> int:
    args.dt = require_number(args.dt, "--dt", 0.0, ends="()")
    args.tmax = require_number(args.tmax, "--tmax", 0.0)
    try:
        bath = BathParameters(args.nth, args.R, args.phi, args.lam)
        start = squeezed_vacuum_state(args.r)
    except ValidationError as exc:
        raise ValidationError(_SWEEP_FIELD.sub(lambda m: _SWEEP_FLAGS[m[1]], str(exc))) from None
    try:
        t_grid = np.arange(0.0, args.tmax + args.dt / 2, args.dt)
        trajectory = sweep(start, bath, t_grid, tol=args.tol)
    except ValidationError:  # sweep's own input errors keep their message
        raise
    except (ValueError, MemoryError):  # a grid numpy cannot size, or cannot hold
        raise ValidationError(
            f"--tmax {args.tmax} and --dt {args.dt} give too many grid points") from None
    _write_lines(trajectory._csv_rows(), args.output)
    return EXIT_OK


def cmd_sample(args) -> int:
    channel = channel_from_json(_read_file(args.channel_file))
    report = sample_verify(channel, args.n, args.seed, args.predicate,
                           max_sympl_eigen=args.max_sympl_eigen, tol=args.tol)
    print(f"predicate: {report.predicate}")
    print(f"samples: {report.n_samples}")
    print(f"draws: {report.draws}")
    print(f"violations: {report.violations}")
    print(f"worst_margin: {_fmt(report.worst_margin)}")
    print(f"mean_margin: {_fmt(report.mean_margin)}")
    if report.first_counterexample is not None:
        print("first_counterexample:")
        print(state_to_json(report.first_counterexample))
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    failures = 0
    for result in results:
        print(result.line())
        failures += 0 if result.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``gsteer`` parser, built once: parsing leaves no state on it, so
    each :func:`main` call is independent of the ones before."""
    parser = argparse.ArgumentParser(
        prog="gsteer",
        description="Gaussian steering toolkit: criteria, quantifications, "
                    "channel classification, and decay sweeps at the "
                    "covariance-matrix level.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", default=None,
                        help="PSD tolerance (default from GSTEER_TOL or 1e-9)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="bona fide and unsteerability verdicts")
    p.add_argument("state_file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("quantify", parents=[common],
                       help="steering report (j1, j2, margins) as JSON")
    p.add_argument("state_file")
    p.set_defaults(func=cmd_quantify)

    p = sub.add_parser("channel", parents=[common],
                       help="classify a channel and/or apply it to a state")
    p.add_argument("channel_file")
    p.add_argument("state_file", nargs="?", default=None)
    p.add_argument("--classify", action="store_true",
                   help="print the three certificate verdicts with margins")
    p.add_argument("--output", default=None, help="write the output state here")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("sweep", parents=[common],
                       help="decay trajectory of j2 as CSV (t,j2,bound)")
    p.add_argument("--r", type=float, default=1.0, help="initial squeezing")
    p.add_argument("--nth", type=float, default=0.0, help="bath thermal photon number")
    p.add_argument("--R", type=float, default=1.0, help="bath squeezing magnitude")
    p.add_argument("--phi", type=float, default=0.0, help="bath squeezing phase")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1,
                   help="damping rate")
    p.add_argument("--tmax", type=float, default=60.0)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--output", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sample", parents=[common],
                       help="Monte-Carlo falsification of a channel property")
    p.add_argument("channel_file")
    p.add_argument("--n", type=int, default=10000, help="number of samples")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--predicate", choices=PREDICATES, default="bona-fide")
    p.add_argument("--max-sympl-eigen", type=float, default=5.0,
                   help="upper edge of the sampled symplectic spectrum")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="replay the regression and property suites")
    p.add_argument("--suite", choices=tuple(SUITES), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one ``gsteer`` command and return its exit code, as the entry
    point would; argparse errors and ``--help`` raise SystemExit."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "tol" in vars(args):
            args.tol = _resolve_tol(args.tol)
        if "seed" in vars(args):
            args.seed = require_count(args.seed, "--seed")
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON at line {exc.lineno} column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return EXIT_INPUT
    except BonaFideError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PHYSICALITY
    except SamplingAbortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
