"""Experiment harness reproducing the numerical artifacts.

Each runner is deterministic given its config: replication ``r`` always draws
from the substream ``(seed, r)``, so results do not depend on scheduling or
on how many replications ran before.  Runners return an
:class:`ExperimentResult` and can serialize it as RFC-4180 CSV.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chains import (
    Ar1Kernel,
    BinaryMatrix,
    association_statistic,
    bimodal_target,
    checkerboard_swap_step,
    cpt_pair,
    make_permutation_state,
    mh_pm1_kernel,
)
from .errors import ConfigError, NotReversibleError
from .kernel import KernelPair
from .pvalue import (
    normal_cdf,
    normal_quantile,
    p_analytic,
    p_infinity_discrete,
    p_mc,
    power_parallel_limit,
    sqrt_epsilon,
)
from .rng import substream
from .samplers import sample_parallel, sample_permuted_serial, sample_sequential

VERSION_STRING = "exmcmc-v0.1.0"

# Pilot-calibrated constants (pilot seed 20250824): the planted column-copy
# rate for the matrix alternative and the signal slope for the dependent CPT
# alternative, both chosen so the default alternatives clear their target
# rejection rates with margin.
DEFAULT_MATRIX_EFFECT = 0.9
DEFAULT_CPT_BETA = 1.0


@dataclass
class ExperimentConfig:
    """Shared configuration; runners ignore fields they do not use."""

    seed: int = 20250824
    reps: int | None = None
    n_draws: int | None = None
    step: int | None = None
    alphas: tuple = (0.05,)
    rho: tuple = (0.7, 0.9, 0.99)
    mu: float = 2.0
    step_max: int = 10
    x0: float | None = None
    m_values: tuple = (100, 5000)
    rows: int = 20
    cols: int = 12
    n: int = 40
    effect: float = DEFAULT_MATRIX_EFFECT
    beta: float = DEFAULT_CPT_BETA
    chain: str = "two-state"
    out: str | None = None
    check: bool = False

    def __post_init__(self):
        if self.reps is not None and self.reps < 1:
            raise ConfigError("reps must be >= 1")
        if self.n_draws is not None and self.n_draws < 1:
            raise ConfigError("M (n_draws) must be >= 1")
        if self.step is not None and self.step < 1:
            raise ConfigError("step must be >= 1")
        for a in self.alphas:
            if not 0 < a < 1:
                raise ConfigError(f"alpha values must lie in (0, 1), got {a!r}")


@dataclass
class ExperimentResult:
    name: str
    columns: tuple
    rows: list
    config: ExperimentConfig
    violations: list = field(default_factory=list)

    def write_csv(self, path: str) -> None:
        echo = (
            f"# {VERSION_STRING} {self.name} seed={self.config.seed}"
            f" reps={self.config.reps} n_draws={self.config.n_draws}"
            f" step={self.config.step} alphas={'/'.join(str(a) for a in self.config.alphas)}"
        )
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow([echo])
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow(row)


def _state_x0(config: ExperimentConfig, states: tuple, default):
    """``config.x0`` (or ``default``) as a state of the chain, or ConfigError."""
    x0 = default if config.x0 is None else config.x0
    if x0 not in states:
        raise ConfigError(
            f"x0 must be a state of the chain ({states[0]}..{states[-1]}), got {x0!r}"
        )
    return int(x0)


def _binomial_se(rate: float, count: int) -> float:
    return math.sqrt(max(rate * (1.0 - rate), 1e-12) / count)


# -- Bimodal rejection table ----------------------------------------------


def run_bimodal_table(config: ExperimentConfig) -> ExperimentResult:
    """Rejection percentages of the standard, parallel and permuted-serial
    tests on the bimodal chain, split by which mode the data sits near."""
    reps = config.reps or 2500
    alpha = config.alphas[0]
    target = bimodal_target()
    kernel = mh_pm1_kernel(target)
    pair = KernelPair.from_discrete(kernel, target, config.step or 100)
    states = np.array(target.states)
    m = config.n_draws or 99

    methods = ("standard", "parallel", "permuted_serial")
    hits = {meth: {"low": 0, "high": 0} for meth in methods}
    counts = {"low": 0, "high": 0}

    for rep in range(reps):
        rng = substream(config.seed, rep)
        x0 = target.sample(rng)
        cell = "low" if x0 <= 50 else "high"
        counts[cell] += 1

        iid_draws = states[target.sample_indices(rng, m)]
        p_std = Fraction(int((iid_draws >= x0).sum()) + 1, m + 1)
        if p_std <= alpha:
            hits["standard"][cell] += 1

        par = sample_parallel(pair, x0, m, rng)
        if p_mc(x0, par.draws) <= alpha:
            hits["parallel"][cell] += 1

        ser = sample_permuted_serial(pair, x0, m, rng)
        if p_mc(x0, ser.draws) <= alpha:
            hits["permuted_serial"][cell] += 1

    # Cell percentages are fractions of all replications (the two cells sum
    # to the overall row), matching how the table is usually reported.
    rows = []
    pct = {}
    for meth in methods:
        for cell in ("low", "high", "overall"):
            if cell == "overall":
                n_cell = reps
                n_hit = hits[meth]["low"] + hits[meth]["high"]
            else:
                n_cell = counts[cell]
                n_hit = hits[meth][cell]
            rate = n_hit / reps
            pct[(meth, cell)] = 100.0 * rate
            rows.append(
                (meth, cell, n_cell, round(100.0 * rate, 3), round(100.0 * _binomial_se(rate, reps), 3))
            )

    violations = []
    if config.check:
        window = 1.5  # percentage points
        targets = {
            ("standard", "overall"): 4.4,
            ("parallel", "low"): 2.4,
            ("parallel", "high"): 2.2,
            ("permuted_serial", "low"): 2.6,
            ("permuted_serial", "high"): 2.0,
        }
        if pct[("standard", "low")] != 0.0:
            violations.append("standard sampler rejected in the low cell")
        for key, expected in targets.items():
            if abs(pct[key] - expected) > window:
                violations.append(
                    f"{key[0]}/{key[1]} = {pct[key]:.2f}%, expected {expected}% +- {window}"
                )
        for meth in methods:
            if pct[(meth, "overall")] > 100 * alpha + window:
                violations.append(f"{meth} overall rate exceeds the validity bound")

    return ExperimentResult(
        "bimodal-table",
        ("sampler", "cell", "n", "reject_pct", "se_pct"),
        rows,
        config,
        violations,
    )


# -- Limiting power of the parallel method ---------------------------------


def run_power_curve(config: ExperimentConfig) -> ExperimentResult:
    """Theoretical vs empirical power of the parallel method on the
    autoregressive chain, against a shifted-mean normal alternative.

    The empirical column batches the hub draw and the spokes through
    :meth:`Ar1Kernel.spokes`, the L-step closed form of the chain, which is
    the parallel method's law.
    """
    reps = config.reps or 2000
    m = config.n_draws or 2000
    alpha = config.alphas[0]
    rows = []
    violations = []
    optimal = 1.0 - normal_cdf(normal_quantile(1.0 - alpha) - config.mu)
    for i_rho, rho in enumerate(config.rho):
        kernel = Ar1Kernel(rho)
        for step in range(1, config.step_max + 1):
            theoretical = power_parallel_limit(config.mu, alpha, rho, step)
            rng = substream(config.seed, i_rho, step)
            x0 = config.mu + rng.standard_normal(reps)
            hub = kernel.spokes(x0, reps, step, rng)
            spokes = kernel.spokes(hub[:, None], (reps, m), step, rng)
            counts = (spokes >= x0[:, None]).sum(axis=1)
            reject = (counts + 1) <= alpha * (m + 1)
            empirical = float(reject.mean())
            se = _binomial_se(empirical, reps)
            rows.append((rho, step, round(theoretical, 6), round(empirical, 6), round(se, 6)))
            if config.check:
                if abs(empirical - theoretical) > 0.02:
                    violations.append(
                        f"rho={rho} L={step}: |{empirical:.4f} - {theoretical:.4f}| > 0.02"
                    )
                if rho == 0.7 and step == config.step_max and abs(theoretical - optimal) > 0.01:
                    violations.append("rho=0.7 curve not within 0.01 of optimal power")
    return ExperimentResult(
        "power-curve",
        ("rho", "step", "theoretical", "empirical", "se"),
        rows,
        config,
        violations,
    )


# -- Consistency of the permuted serial method -----------------------------


def run_consistency(config: ExperimentConfig) -> ExperimentResult:
    """|p_mc - p_A| on the bimodal chain at fixed data, as M grows.

    Permuted-serial errors shrink with M; parallel errors plateau at the
    limiting-mixture spread, whose exact atoms are reported alongside.
    """
    reps = config.reps or 100
    target = bimodal_target()
    kernel = mh_pm1_kernel(target)
    pair = KernelPair.from_discrete(kernel, target, config.step or 100)
    x0 = _state_x0(config, target.states, 90)
    p_a = p_analytic(target, lambda s: s, x0)

    rows = []
    errors = {("permuted_serial", m): [] for m in config.m_values}
    for rep in range(reps):
        for m in config.m_values:
            rng = substream(config.seed, rep, m)
            ser = sample_permuted_serial(pair, x0, m, rng)
            p = float(p_mc(x0, ser.draws))
            err = abs(p - p_a)
            errors[("permuted_serial", m)].append(err)
            rows.append(("permuted_serial", rep, m, round(p, 6), round(err, 6)))

            par = sample_parallel(pair, x0, m, rng)
            p_par = float(p_mc(x0, par.draws))
            rows.append(("parallel", rep, m, round(p_par, 6), round(abs(p_par - p_a), 6)))

    atoms = p_infinity_discrete(pair, lambda s: s, x0)
    for i, (value, prob) in enumerate(zip(atoms.values, atoms.probs)):
        rows.append(("pinfty_atom", i, "", round(value, 9), round(prob, 9)))

    violations = []
    if config.check:
        m_small, m_big = min(config.m_values), max(config.m_values)
        big = errors[("permuted_serial", m_big)]
        small = errors[("permuted_serial", m_small)]
        within = sum(1 for e in big if e <= 0.02)
        if within < 0.95 * reps:
            violations.append(
                f"only {within}/{reps} repeats had |p_mc - p_A| <= 0.02 at M={m_big}"
            )
        improved = sum(1 for a, b in zip(big, small) if a < b)
        if improved < 0.95 * reps:
            violations.append(
                f"only {improved}/{reps} paired repeats improved from M={m_small} to M={m_big}"
            )
    return ExperimentResult(
        "consistency",
        ("series", "rep", "m", "p_value", "abs_error"),
        rows,
        config,
        violations,
    )


# -- Margin-conditioned uniformity test for binary matrices ----------------


def _swap_chain_pair(step: int) -> KernelPair:
    return KernelPair(
        checkerboard_swap_step, checkerboard_swap_step, step_size=step, reversible=True
    )


def _advance_swaps(m: BinaryMatrix, steps: int, rng: np.random.Generator) -> BinaryMatrix:
    for _ in range(steps):
        m = checkerboard_swap_step(m, rng)
    return m


def run_matrix_gof(config: ExperimentConfig) -> ExperimentResult:
    """Permuted-serial test of margin-conditioned uniformity.

    The null batch draws data matrices from a long swap-chain run (only the
    histogram depends on this generator; validity of the tested procedure
    does not).  The alternative batch plants a column-pair association.
    """
    reps = config.reps or 500
    alpha = config.alphas[0]
    step = config.step or 50
    m = config.n_draws or 99
    pair = _swap_chain_pair(step)

    gen_rng = substream(config.seed, 10**6)
    base = BinaryMatrix((gen_rng.random((config.rows, config.cols)) < 0.4).astype(int))
    current = _advance_swaps(base, 100_000, gen_rng)

    rows = []
    rejects = {"null": 0, "alternative": 0}
    for rep in range(reps):
        current = _advance_swaps(current, 2000, gen_rng)
        x0 = current
        rng = substream(config.seed, rep)
        ser = sample_permuted_serial(pair, x0, m, rng)
        p = p_mc(association_statistic(x0), [association_statistic(d) for d in ser.draws])
        reject = p <= alpha
        rejects["null"] += reject
        rows.append(("null", rep, float(p), int(reject)))

    for rep in range(reps):
        rng = substream(config.seed, reps + rep)
        grid = (rng.random((config.rows, config.cols)) < 0.35).astype(int)
        # Plant an association block: columns 1..3 copy column 0 at the
        # calibrated rate, concentrating shared rows on a few column pairs.
        for col in range(1, min(4, config.cols)):
            copy_mask = rng.random(config.rows) < config.effect
            grid[copy_mask, col] = grid[copy_mask, 0]
        x0 = BinaryMatrix(grid)
        ser = sample_permuted_serial(pair, x0, m, rng)
        p = p_mc(association_statistic(x0), [association_statistic(d) for d in ser.draws])
        reject = p <= alpha
        rejects["alternative"] += reject
        rows.append(("alternative", rep, float(p), int(reject)))

    violations = []
    if config.check:
        null_rate = rejects["null"] / reps
        if null_rate > alpha + 3 * _binomial_se(alpha, reps):
            violations.append(f"null rejection rate {null_rate:.4f} exceeds the validity bound")
        alt_rate = rejects["alternative"] / reps
        if alt_rate < 0.5:
            violations.append(f"alternative rejection rate {alt_rate:.4f} below 0.5")
    return ExperimentResult(
        "matrix-gof",
        ("batch", "rep", "p_value", "reject"),
        rows,
        config,
        violations,
    )


# -- Conditional permutation test demo -------------------------------------


def run_cpt_demo(config: ExperimentConfig) -> ExperimentResult:
    """Parallel-method conditional independence test on synthetic data.

    The conditional law of the covariate given the confounder is Gaussian
    with known unit slope; only the log-density table crosses into the
    permutation chain.
    """
    reps = config.reps or 500
    alpha = config.alphas[0]
    n = config.n
    step = config.step or 2 * n
    m = config.n_draws or 99

    rows = []
    rejects = {"null": 0, "alternative": 0}
    for batch, dependent in (("null", False), ("alternative", True)):
        for rep in range(reps):
            rng = substream(config.seed, int(dependent), rep)
            z = rng.standard_normal(n)
            x = z + rng.standard_normal(n)
            noise = rng.standard_normal(n)
            y = config.beta * x + noise if dependent else z + noise

            q_log = -0.5 * (x[:, None] - z[None, :]) ** 2
            y_res = y - np.polyval(np.polyfit(z, y, 1), z)

            def statistic(state) -> float:
                perm = np.asarray(state.perm)
                res = x[perm] - z
                return abs(float(np.corrcoef(res, y_res)[0, 1]))

            s0 = make_permutation_state(range(n), q_log)
            pair = cpt_pair(q_log, step)
            par = sample_parallel(pair, s0, m, rng)
            p = p_mc(statistic(s0), [statistic(d) for d in par.draws])
            reject = p <= alpha
            rejects[batch] += reject
            rows.append((batch, rep, float(p), int(reject)))

    violations = []
    if config.check:
        null_rate = rejects["null"] / reps
        if null_rate > alpha + 3 * _binomial_se(alpha, reps):
            violations.append(f"null rejection rate {null_rate:.4f} exceeds the validity bound")
        alt_rate = rejects["alternative"] / reps
        if alt_rate < 0.9:
            violations.append(f"alternative rejection rate {alt_rate:.4f} below 0.9")
    return ExperimentResult(
        "cpt-demo",
        ("batch", "rep", "p_value", "reject"),
        rows,
        config,
        violations,
    )


# -- Square-root correction for sequential sampling ------------------------


def run_sqrt_epsilon_demo(config: ExperimentConfig) -> ExperimentResult:
    """Sequential sampling with the sqrt(2p) correction on the bimodal chain.

    Reports corrected and uncorrected rejection rates; the correction is
    only defined for reversible kernels and is refused otherwise.
    """
    reps = config.reps or 10_000
    target = bimodal_target()
    kernel = mh_pm1_kernel(target)
    pair = KernelPair.from_discrete(kernel, target, config.step or 100)
    if not pair.reversible:
        raise NotReversibleError("the sqrt-epsilon correction requires a reversible kernel")
    m = config.n_draws or 99

    raw_hits = {a: 0 for a in config.alphas}
    corrected_hits = {a: 0 for a in config.alphas}
    monotone = True
    for rep in range(reps):
        rng = substream(config.seed, rep)
        x0 = target.sample(rng)
        seq = sample_sequential(pair, x0, m, rng)
        raw = p_mc(x0, seq.draws)
        corrected = sqrt_epsilon(raw)
        if corrected < float(raw):
            monotone = False
        for a in config.alphas:
            raw_hits[a] += raw <= a
            corrected_hits[a] += corrected <= a

    rows = []
    violations = []
    for a in config.alphas:
        raw_rate = raw_hits[a] / reps
        corr_rate = corrected_hits[a] / reps
        rows.append((a, round(raw_rate, 6), round(corr_rate, 6), round(_binomial_se(corr_rate, reps), 6)))
        if config.check and corr_rate > a + 3 * _binomial_se(a, reps):
            violations.append(f"corrected rate {corr_rate:.4f} exceeds the bound at alpha={a}")
    rows.append(("corrected_ge_raw", int(monotone), "", ""))
    if config.check and not monotone:
        violations.append("corrected p-value fell below the raw p-value")
    return ExperimentResult(
        "sqrt-eps",
        ("alpha", "raw_rate", "corrected_rate", "se"),
        rows,
        config,
        violations,
    )


# -- Limiting mixture atoms ------------------------------------------------


def run_pinfty(config: ExperimentConfig) -> ExperimentResult:
    """Atoms of the limiting parallel-method p-value for a fixture chain."""
    from . import fixtures

    if config.chain == "two-state":
        kernel, target = fixtures.two_state()
        x0 = _state_x0(config, kernel.states, 1)
        statistic = fixtures.state_index_statistic(kernel)
    elif config.chain == "bimodal":
        target = bimodal_target()
        kernel = mh_pm1_kernel(target)
        x0 = _state_x0(config, target.states, 90)
        statistic = lambda s: s
    else:
        raise ConfigError(f"unknown chain {config.chain!r}")
    pair = KernelPair.from_discrete(kernel, target, config.step or 1)
    atoms = p_infinity_discrete(pair, statistic, x0)
    rows = [
        (i, round(v, 12), round(p, 12))
        for i, (v, p) in enumerate(zip(atoms.values, atoms.probs))
    ]
    return ExperimentResult(
        "pinfty", ("atom", "value", "probability"), rows, config, []
    )


RUNNERS = {
    "bimodal-table": run_bimodal_table,
    "power-curve": run_power_curve,
    "consistency": run_consistency,
    "matrix-gof": run_matrix_gof,
    "cpt-demo": run_cpt_demo,
    "sqrt-eps": run_sqrt_epsilon_demo,
    "pinfty": run_pinfty,
}
