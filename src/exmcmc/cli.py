"""Command-line entry point for the experiment harness.

A subcommand takes ``--out``, ``--check`` and the flags of the config fields
its runner reads; any other flag is a usage error.  Runners always evaluate
their acceptance thresholds; ``--check`` prints the violated ones to stderr.
Exit codes: 0 on success, 2 on usage and configuration errors and other
package errors (such as a statistic that evaluates to NaN on the given data),
3 when ``--check`` is passed and an acceptance threshold is violated.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ExmcmcError
from .experiments import RUNNERS, ExperimentConfig


# Comma lists: an empty entry is a usage error; an empty value is the empty list.
def floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",")) if text else ()


def ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",")) if text else ()


# Config field -> (flag, argparse options).
FLAGS = {
    "seed": ("--seed", dict(type=int, help="master seed")),
    "reps": ("--reps", dict(type=int, help="replication count")),
    "n_draws": ("--M", dict(type=int, help="comparison draws per test")),
    "step": ("--L", dict(type=int, help="chain steps per draw")),
    "alphas": ("--alpha", dict(type=floats, help="comma-separated significance levels")),
    "rho": ("--rho", dict(type=floats, help="comma-separated correlations")),
    "mu": ("--mu", dict(type=float, help="alternative mean shift")),
    "step_max": ("--L-max", dict(type=int, help="largest chain step count")),
    "x0": ("--x0", dict(type=float, help="conditioning data point")),
    "m_values": ("--m-values", dict(type=ints, help="comma-separated M grid")),
    "rows": ("--rows", dict(type=int, help="matrix rows")),
    "cols": ("--cols", dict(type=int, help="matrix columns")),
    "n": ("--n", dict(type=int, help="sample size per data set")),
    "chain": ("--chain", dict(choices=("two-state", "bimodal"), help="fixture chain")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exmcmc",
        description="Exchangeable MCMC significance-test experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run in RUNNERS.items():
        # Unset flags stay out of the config; no abbreviation (--L for --L-max).
        p = sub.add_parser(
            name, help=run.help, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        for field in run.fields:
            flag, options = FLAGS[field]
            p.add_argument(flag, dest=field, **options)
        p.add_argument("--out", help="CSV output path (default: stdout)")
        p.add_argument("--check", action="store_true", help="exit 3 if a threshold is violated")
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    run = RUNNERS[args.pop("command")]
    out = args.pop("out", None)
    check = args.pop("check", False)
    try:
        result = run(ExperimentConfig(**args))
    except (ExmcmcError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            result.write_csv(handle)
    else:
        result.write_csv(sys.stdout)
    if not (check and result.violations):
        return 0
    for violation in result.violations:
        print(f"check failed: {violation}", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
