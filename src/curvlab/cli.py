"""Command-line entry point.

    curvlab verify --suite <name> --model <name|config.json> [--t p/q]
                   [--seed N] [--trials N] [--jet-order K] [--tol X]
                   [--exact | --float] [--json PATH]

Exit codes: 0 all checks pass, 1 verification failure, 2 configuration error,
3 internal error (any exception that is not a ``CurvLabError``; the
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from fractions import Fraction

from .errors import CurvLabError
from .suites import MODELS, SUITES, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="pointwise verification lab for conformal curvature "
                    "identities")
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True,
                   help=f"one of {sorted(SUITES) + ['all']}")
    v.add_argument("--model", default=None,
                   help=f"model name ({', '.join(sorted(MODELS))}; flat "
                        "and random take the suite's dimension) or a JSON "
                        "config path")
    v.add_argument("--t", default=None,
                   help="Berger parameter as a rational, e.g. 4 or 1/4")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--jet-order", type=int, default=None, dest="jet_order")
    v.add_argument("--tol", type=float, default=None)
    mode = v.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=None)
    mode.add_argument("--float", action="store_true", default=None,
                      dest="float_mode")
    v.add_argument("--json", default=None, dest="json_path",
                   help="write the JSON report here")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _verify(args)
    except Exception:           # a crash is not a failed verification
        traceback.print_exc()
        return 3


def _verify(args) -> int:
    options = {}
    if args.model is not None:
        options["model"] = args.model
    if args.t is not None:
        try:
            options["t"] = Fraction(args.t)
        except (ValueError, ZeroDivisionError):
            print(f"error: bad rational --t {args.t!r}", file=sys.stderr)
            return 2
    if args.seed is not None:
        options["seed"] = args.seed
    if args.trials is not None:
        options["trials"] = args.trials
    if args.jet_order is not None:
        options["jet_order"] = args.jet_order
    if args.tol is not None:
        options["tol"] = args.tol
    if args.exact:
        options["exact"] = True
    if args.float_mode:
        options["exact"] = False
    try:
        reports = run_suite(args.suite, **options)
    except CurvLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for rep in reports:
        print(rep.table())
    if args.json_path:
        payload = reports[0].to_json() if len(reports) == 1 else \
            "[" + ",".join(r.to_json().rstrip("\n") for r in reports) + "]\n"
        with open(args.json_path, "w") as fh:
            fh.write(payload)
    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
