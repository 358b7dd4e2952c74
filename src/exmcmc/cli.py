"""Command-line entry point for the experiment harness.

Exit codes: 0 on success, 2 on configuration errors and other package errors
(such as a statistic that evaluates to NaN on the given data), 3 when
``--check`` is passed and an acceptance threshold is violated.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ExmcmcError
from .experiments import RUNNERS, ExperimentConfig


def _add_common(parser: argparse.ArgumentParser, alpha: bool) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--reps", type=int, default=None, help="replication count")
    parser.add_argument("--M", dest="n_draws", type=int, default=None, help="comparison draws per test")
    parser.add_argument("--L", dest="step", type=int, default=None, help="chain steps per draw")
    parser.add_argument("--out", type=str, default=None, help="CSV output path")
    if alpha:
        parser.add_argument(
            "--alpha",
            type=str,
            default=None,
            help="comma-separated significance levels, e.g. 0.01,0.05",
        )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit with status 3 if an acceptance threshold is violated",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exmcmc",
        description="Exchangeable MCMC significance-test experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = {
        "bimodal-table": "rejection table for the bimodal chain",
        "power-curve": "limiting power of the parallel method on the AR chain",
        "consistency": "|p_mc - p_A| against M for the bimodal chain",
        "matrix-gof": "margin-conditioned uniformity test for binary matrices",
        "cpt-demo": "conditional permutation test on synthetic data",
        "sqrt-eps": "sequential sampling with the sqrt(2p) correction",
        "pinfty": "atoms of the limiting parallel-method p-value",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        # consistency and pinfty report no significance level.
        _add_common(p, alpha=name not in ("consistency", "pinfty"))
        if name == "power-curve":
            p.add_argument("--rho", type=str, default=None, help="comma-separated correlations")
            p.add_argument("--mu", type=float, default=None, help="alternative mean shift")
            p.add_argument("--L-max", dest="step_max", type=int, default=None)
        if name == "consistency":
            p.add_argument("--x0", type=float, default=None, help="conditioning data point")
            p.add_argument("--m-values", type=str, default=None, help="comma-separated M grid")
        if name == "matrix-gof":
            p.add_argument("--rows", type=int, default=None)
            p.add_argument("--cols", type=int, default=None)
        if name == "cpt-demo":
            p.add_argument("--n", type=int, default=None, help="sample size per data set")
        if name == "pinfty":
            p.add_argument("--chain", type=str, default=None, choices=("two-state", "bimodal"))
            p.add_argument("--x0", type=float, default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {}
    for key in (
        "seed",
        "reps",
        "n_draws",
        "step",
        "step_max",
        "x0",
        "rows",
        "cols",
        "n",
        "chain",
        "out",
    ):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "alpha", None) is not None:
        overrides["alphas"] = tuple(float(a) for a in args.alpha.split(",") if a)
    if getattr(args, "rho", None):
        overrides["rho"] = tuple(float(r) for r in args.rho.split(","))
    if getattr(args, "mu", None) is not None:
        overrides["mu"] = args.mu
    if getattr(args, "m_values", None):
        overrides["m_values"] = tuple(int(m) for m in args.m_values.split(","))
    overrides["check"] = bool(getattr(args, "check", False))
    return ExperimentConfig(**overrides)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        result = RUNNERS[args.command](config)
    except (ExmcmcError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if config.out:
        result.write_csv(config.out)
    else:
        print(",".join(str(c) for c in result.columns))
        for row in result.rows:
            print(",".join(str(v) for v in row))
    for violation in result.violations:
        print(f"check failed: {violation}", file=sys.stderr)
    if config.check and result.violations:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
