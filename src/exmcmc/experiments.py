"""Experiment harness reproducing the numerical artifacts.

Each runner is deterministic given its config: replication ``r`` always draws
from the substream ``(seed, r)``, so results do not depend on scheduling or
on how many replications ran before.  Runners return an
:class:`ExperimentResult` and can serialize it as RFC-4180 CSV.  :data:`RUNNERS`
records the config fields each runner reads, for the CLI flags and the CSV echo.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import __version__, fixtures
from .chains import (
    Ar1Kernel,
    BinaryMatrix,
    association_statistic,
    bimodal_target,
    checkerboard_swap_run,
    checkerboard_swap_step,
    cpt_pair,
    make_permutation_state,
    mh_pm1_kernel,
)
from .errors import ConfigError, NotReversibleError
from .kernel import KernelPair
from .pvalue import (
    exact_level,
    normal_cdf,
    normal_quantile,
    p_analytic,
    p_infinity_discrete,
    p_mc,
    power_parallel_limit,
    sqrt_epsilon,
)
from .rng import substream
from .samplers import sample_iid, sample_parallel, sample_permuted_serial, sample_sequential

# Pilot-calibrated constants (pilot seed 20250824): the planted column-copy
# rate for the matrix alternative and the signal slope for the dependent CPT
# alternative, both chosen so the default alternatives clear their target
# rejection rates with margin.
DEFAULT_MATRIX_EFFECT = 0.9
DEFAULT_CPT_BETA = 1.0


@dataclass
class ExperimentConfig:
    """Shared configuration; each runner reads the fields it is registered with
    and always reports its failed acceptance gates in ``ExperimentResult.violations``."""

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
    chain: str = "two-state"

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        for name, label in (("reps", "reps"), ("n_draws", "M (n_draws)"), ("step", "step")):
            if (value := getattr(self, name)) is not None and value < 1:
                raise ConfigError(f"{label} must be >= 1")
        for name in ("alphas", "rho", "m_values"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must not be empty")
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must be distinct, got {values}")
        for a in self.alphas:
            if not 0 < a < 1:
                raise ConfigError(f"alpha values must lie in (0, 1), got {a!r}")
        for r in self.rho:
            if not -1 < r < 1:
                raise ConfigError(f"rho must lie in (-1, 1), got {r!r}")
        if not math.isfinite(self.mu):
            raise ConfigError(f"mu must be finite, got {self.mu!r}")
        if self.step_max < 1:
            raise ConfigError(f"L-max (step_max) must be >= 1, got {self.step_max}")
        if self.rows < 2 or self.cols < 2:
            raise ConfigError(f"rows and cols must be >= 2, got {self.rows}x{self.cols}")
        if self.n < 3:
            raise ConfigError(f"n must be >= 3, got {self.n}")
        if any(m < 1 for m in self.m_values):
            raise ConfigError(f"m_values must all be >= 1, got {self.m_values}")


@dataclass
class ExperimentResult:
    name: str
    columns: tuple
    rows: list
    config: ExperimentConfig
    violations: list = field(default_factory=list)

    def write_csv(self, handle) -> None:
        """Write the config echo (versions and each field the runner reads), header and rows."""
        echo = [f"# exmcmc-v{__version__}", self.name, f"numpy={np.__version__}"]
        for name in RUNNERS[self.name].fields:
            value = getattr(self.config, name)
            if isinstance(value, tuple):
                value = "/".join(map(str, value))
            echo.append(f"{name}={value}")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([" ".join(echo)])
        writer.writerow(self.columns)
        writer.writerows(self.rows)


# Subcommand name -> runner, filled by @_runner.
RUNNERS = {}


def _runner(name: str, help_text: str, *fields: str):
    """Register a runner as subcommand ``name`` with the config fields it reads."""

    def register(run):
        run.help, run.fields = help_text, fields
        RUNNERS[name] = run
        return run

    return register


def _state_x0(config: ExperimentConfig, states: tuple, default):
    """``config.x0`` (or ``default``) as a state of the chain, or ConfigError."""
    x0 = default if config.x0 is None else config.x0
    if x0 not in states:
        raise ConfigError(
            f"x0 must be a state of the chain ({states[0]}..{states[-1]}), got {x0!r}"
        )
    return int(x0)


def _one_alpha(config: ExperimentConfig, runner: str) -> tuple:
    """The one level of a single-level runner, as a float and as its :func:`exact_level`."""
    if len(config.alphas) > 1:
        raise ConfigError(f"{runner} takes a single alpha level, got {config.alphas}")
    return config.alphas[0], exact_level(config.alphas[0])


def _binomial_se(rate: float, count: int) -> float:
    return math.sqrt(max(rate * (1.0 - rate), 1e-12) / count)


def _bimodal(step: int) -> tuple:
    """The bimodal target and the pair of its +-1 MH chain at super-step ``step``."""
    target = bimodal_target()
    return target, KernelPair.from_discrete(mh_pm1_kernel(target), target, step)


def _two_batches(name: str, config, reps: int, alt_floor: float, p_values) -> ExperimentResult:
    """Rows ``(batch, rep, p, p <= alpha)`` from the ``(batch, rep, p)`` of ``p_values``: a null
    and an alternative batch of ``reps`` tests each.  The null rate must keep the validity
    bound, the alternative's reach ``alt_floor``."""
    alpha, level = _one_alpha(config, name)
    rows = []
    rejects = Counter()
    for batch, rep, p in p_values:
        rejects[batch] += p <= level
        rows.append((batch, rep, float(p), int(p <= level)))
    violations = []
    null_rate = rejects["null"] / reps
    if null_rate > alpha + 3 * _binomial_se(alpha, reps):
        violations.append(f"null rejection rate {null_rate:.4f} exceeds the validity bound")
    alt_rate = rejects["alternative"] / reps
    if alt_rate < alt_floor:
        violations.append(f"alternative rejection rate {alt_rate:.4f} below {alt_floor}")
    return ExperimentResult(name, ("batch", "rep", "p_value", "reject"), rows, config, violations)


# -- Bimodal rejection table ----------------------------------------------


@_runner("bimodal-table", "rejection table for the bimodal chain",
         "seed", "reps", "n_draws", "step", "alphas")
def run_bimodal_table(config: ExperimentConfig) -> ExperimentResult:
    """Rejection percentages of the standard, parallel and permuted-serial
    tests on the bimodal chain, split by which mode the data sits near."""
    reps = config.reps or 2500
    alpha, level = _one_alpha(config, "bimodal-table")
    target, pair = _bimodal(config.step or 100)
    m = config.n_draws or 99

    methods = ("standard", "parallel", "permuted_serial")
    hits = Counter()
    counts = Counter(overall=reps)

    for rep in range(reps):
        rng = substream(config.seed, rep)
        x0 = target.sample(rng)
        cell = "low" if x0 <= 50 else "high"
        counts[cell] += 1
        batches = (
            sample_iid(target, x0, m, rng).draws,
            sample_parallel(pair, x0, m, rng).draws,
            sample_permuted_serial(pair, x0, m, rng).draws,
        )
        for meth, draws in zip(methods, batches):
            if p_mc(x0, draws) <= level:
                hits[meth, cell] += 1
                hits[meth, "overall"] += 1

    # Cell percentages are fractions of all replications (the two cells sum
    # to the overall row), matching how the table is usually reported.
    rows = []
    pct = {}
    for meth in methods:
        for cell in ("low", "high", "overall"):
            rate = hits[meth, cell] / reps
            pct[(meth, cell)] = 100.0 * rate
            rows.append(
                (meth, cell, counts[cell], round(100.0 * rate, 3), round(100.0 * _binomial_se(rate, reps), 3))
            )

    violations = []
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
        "bimodal-table", ("sampler", "cell", "n", "reject_pct", "se_pct"), rows, config, violations
    )


# -- Limiting power of the parallel method ---------------------------------


@_runner("power-curve", "limiting power of the parallel method on the AR chain",
         "seed", "reps", "n_draws", "alphas", "rho", "mu", "step_max")
def run_power_curve(config: ExperimentConfig) -> ExperimentResult:
    """Theoretical vs empirical power of the parallel method on the
    autoregressive chain, against a shifted-mean normal alternative.

    The empirical column batches the hub draw and the spokes through
    :meth:`Ar1Kernel.spokes`, the L-step closed form of the chain, which is
    the parallel method's law.
    """
    reps = config.reps or 2000
    m = config.n_draws or 2000
    alpha, level = _one_alpha(config, "power-curve")
    rows = []
    violations = []
    optimal = 1.0 - normal_cdf(normal_quantile(1.0 - alpha) - config.mu)
    max_count = math.floor(level * (m + 1))
    for i_rho, rho in enumerate(config.rho):
        kernel = Ar1Kernel(rho)
        for step in range(1, config.step_max + 1):
            theoretical = power_parallel_limit(config.mu, alpha, rho, step)
            rng = substream(config.seed, i_rho, step)
            x0 = config.mu + rng.standard_normal(reps)
            hub = kernel.spokes(x0, reps, step, rng)
            spokes = kernel.spokes(hub[:, None], (reps, m), step, rng)
            counts = (spokes >= x0[:, None]).sum(axis=1)
            reject = (counts + 1) <= max_count
            empirical = float(reject.mean())
            se = _binomial_se(empirical, reps)
            rows.append((rho, step, round(theoretical, 6), round(empirical, 6), round(se, 6)))
            if abs(empirical - theoretical) > 0.02:
                violations.append(
                    f"rho={rho} L={step}: |{empirical:.4f} - {theoretical:.4f}| > 0.02"
                )
            if rho == 0.7 and step == config.step_max and abs(theoretical - optimal) > 0.01:
                violations.append("rho=0.7 curve not within 0.01 of optimal power")
    return ExperimentResult(
        "power-curve", ("rho", "step", "theoretical", "empirical", "se"), rows, config, violations
    )


# -- Consistency of the permuted serial method -----------------------------


@_runner("consistency", "|p_mc - p_A| against M for the bimodal chain",
         "seed", "reps", "step", "x0", "m_values")
def run_consistency(config: ExperimentConfig) -> ExperimentResult:
    """|p_mc - p_A| on the bimodal chain at fixed data, as M grows.

    Permuted-serial errors shrink with M; parallel errors plateau at the
    limiting-mixture spread, whose exact atoms are reported alongside.
    """
    reps = config.reps or 100
    target, pair = _bimodal(config.step or 100)
    x0 = _state_x0(config, target.states, 90)
    p_a = p_analytic(target, lambda s: s, x0)

    rows = []
    errors = {}
    for rep in range(reps):
        for m in config.m_values:
            rng = substream(config.seed, rep, m)
            for series, sample in (
                ("permuted_serial", sample_permuted_serial), ("parallel", sample_parallel)
            ):
                p = float(p_mc(x0, sample(pair, x0, m, rng).draws))
                errors.setdefault((series, m), []).append(abs(p - p_a))
                rows.append((series, rep, m, round(p, 6), round(abs(p - p_a), 6)))

    atoms = p_infinity_discrete(pair, lambda s: s, x0)
    for i, (value, prob) in enumerate(zip(atoms.values, atoms.probs)):
        rows.append(("pinfty_atom", i, "", round(value, 9), round(prob, 9)))

    violations = []
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
        "consistency", ("series", "rep", "m", "p_value", "abs_error"), rows, config, violations
    )


# -- Margin-conditioned uniformity test for binary matrices ----------------


@_runner("matrix-gof", "margin-conditioned uniformity test for binary matrices",
         "seed", "reps", "n_draws", "step", "alphas", "rows", "cols")
def run_matrix_gof(config: ExperimentConfig) -> ExperimentResult:
    """Permuted-serial test of margin-conditioned uniformity.

    The null batch draws data matrices from a long swap-chain run (only the
    histogram depends on this generator; validity of the tested procedure
    does not).  The alternative batch plants a column-pair association.
    """
    reps = config.reps or 500
    step = config.step or 50
    m = config.n_draws or 99
    pair = KernelPair(checkerboard_swap_step, checkerboard_swap_step, step, reversible=True)

    def test(x0: BinaryMatrix, rng: np.random.Generator):
        ser = sample_permuted_serial(pair, x0, m, rng)
        return p_mc(association_statistic(x0), [association_statistic(d) for d in ser.draws])

    def p_values():
        gen_rng = substream(config.seed, 10**6)
        base = BinaryMatrix((gen_rng.random((config.rows, config.cols)) < 0.4).astype(int))
        current = checkerboard_swap_run(base, 100_000, gen_rng)
        for rep in range(reps):
            current = checkerboard_swap_run(current, 2000, gen_rng)
            yield "null", rep, test(current, substream(config.seed, rep))

        for rep in range(reps):
            rng = substream(config.seed, reps + rep)
            grid = (rng.random((config.rows, config.cols)) < 0.35).astype(int)
            # Plant an association block: columns 1..3 copy column 0 at the
            # calibrated rate, concentrating shared rows on a few column pairs.
            for col in range(1, min(4, config.cols)):
                copy_mask = rng.random(config.rows) < DEFAULT_MATRIX_EFFECT
                grid[copy_mask, col] = grid[copy_mask, 0]
            yield "alternative", rep, test(BinaryMatrix(grid), rng)

    return _two_batches("matrix-gof", config, reps, 0.5, p_values())


# -- Conditional permutation test demo -------------------------------------


@_runner("cpt-demo", "conditional permutation test on synthetic data",
         "seed", "reps", "n_draws", "step", "alphas", "n")
def run_cpt_demo(config: ExperimentConfig) -> ExperimentResult:
    """Parallel-method conditional independence test on synthetic data.

    The conditional law of the covariate given the confounder is Gaussian
    with known unit slope; only the log-density table crosses into the
    permutation chain.
    """
    reps = config.reps or 500
    n = config.n
    step = config.step or 2 * n
    m = config.n_draws or 99

    def p_values():
        for batch, dependent in (("null", False), ("alternative", True)):
            for rep in range(reps):
                rng = substream(config.seed, int(dependent), rep)
                z = rng.standard_normal(n)
                x = z + rng.standard_normal(n)
                noise = rng.standard_normal(n)
                y = DEFAULT_CPT_BETA * x + noise if dependent else z + noise

                q_log = -0.5 * (x[:, None] - z[None, :]) ** 2
                y_res = y - np.polyval(np.polyfit(z, y, 1), z)

                def statistic(state) -> float:
                    perm = np.asarray(state.perm)
                    res = x[perm] - z
                    return abs(float(np.corrcoef(res, y_res)[0, 1]))

                s0 = make_permutation_state(range(n), q_log)
                pair = cpt_pair(q_log, step)
                par = sample_parallel(pair, s0, m, rng)
                yield batch, rep, p_mc(statistic(s0), [statistic(d) for d in par.draws])

    return _two_batches("cpt-demo", config, reps, 0.9, p_values())


# -- Square-root correction for sequential sampling ------------------------


@_runner("sqrt-eps", "sequential sampling with the sqrt(2p) correction",
         "seed", "reps", "n_draws", "step", "alphas")
def run_sqrt_epsilon_demo(config: ExperimentConfig) -> ExperimentResult:
    """Sequential sampling with the sqrt(2p) correction on the bimodal chain.

    Reports corrected and uncorrected rejection rates; the correction is
    only defined for reversible kernels and is refused otherwise.
    """
    reps = config.reps or 10_000
    target, pair = _bimodal(config.step or 100)
    if not pair.reversible:
        raise NotReversibleError("the sqrt-epsilon correction requires a reversible kernel")
    m = config.n_draws or 99

    levels = {a: exact_level(a) for a in config.alphas}
    hits = Counter()  # (alpha, "raw" or "corrected") -> rejections
    monotone = True
    for rep in range(reps):
        rng = substream(config.seed, rep)
        x0 = target.sample(rng)
        seq = sample_sequential(pair, x0, m, rng)
        raw = p_mc(x0, seq.draws)
        corrected = sqrt_epsilon(raw)
        if corrected < float(raw):
            monotone = False
        for a, level in levels.items():
            hits[a, "raw"] += raw <= level
            hits[a, "corrected"] += corrected <= level

    rows = []
    violations = []
    for a in config.alphas:
        raw_rate = hits[a, "raw"] / reps
        corr_rate = hits[a, "corrected"] / reps
        rows.append((a, round(raw_rate, 6), round(corr_rate, 6), round(_binomial_se(corr_rate, reps), 6)))
        if corr_rate > a + 3 * _binomial_se(a, reps):
            violations.append(f"corrected rate {corr_rate:.4f} exceeds the bound at alpha={a}")
    rows.append(("corrected_ge_raw", int(monotone), "", ""))
    if not monotone:
        violations.append("corrected p-value fell below the raw p-value")
    return ExperimentResult(
        "sqrt-eps", ("alpha", "raw_rate", "corrected_rate", "se"), rows, config, violations
    )


# -- Limiting mixture atoms ------------------------------------------------


@_runner("pinfty", "atoms of the limiting parallel-method p-value", "step", "x0", "chain")
def run_pinfty(config: ExperimentConfig) -> ExperimentResult:
    """Atoms of the limiting parallel-method p-value for a fixture chain."""
    if config.chain == "two-state":
        kernel, target = fixtures.two_state()
        x0 = _state_x0(config, kernel.states, 1)
        statistic = fixtures.state_index_statistic(kernel)
        pair = KernelPair.from_discrete(kernel, target, config.step or 1)
    elif config.chain == "bimodal":
        target, pair = _bimodal(config.step or 1)
        x0 = _state_x0(config, target.states, 90)
        statistic = lambda s: s
    else:
        raise ConfigError(f"unknown chain {config.chain!r}")
    atoms = p_infinity_discrete(pair, statistic, x0)
    rows = [
        (i, round(v, 12), round(p, 12))
        for i, (v, p) in enumerate(zip(atoms.values, atoms.probs))
    ]
    return ExperimentResult(
        "pinfty", ("atom", "value", "probability"), rows, config, []
    )

