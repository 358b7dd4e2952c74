"""Acceptance gate: the ten headline guarantees, one test (and one printed
pass/fail line) per criterion.

Run with ``pytest -v tests/test_acceptance.py`` — the verbose test list is
the per-criterion report; with ``-s`` each criterion also prints its line.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from exmcmc import fixtures
from exmcmc.chains import (
    BinaryMatrix,
    bimodal_target,
    checkerboard_swap_step,
    cpt_target,
    cpt_transition_matrix,
    mh_pm1_kernel,
)
from exmcmc.experiments import (
    ExperimentConfig,
    run_bimodal_table,
    run_consistency,
    run_power_curve,
    run_sqrt_epsilon_demo,
)
from exmcmc.kernel import KernelPair, is_stationary, reversal
from exmcmc.oracle import (
    enumerate_fiber,
    exact_joint,
    exact_rejection_probability,
    exchangeability_distance,
)
from exmcmc.pvalue import p_analytic, p_infinity_discrete
from exmcmc.rng import substream
from exmcmc.samplers import build_path_tree, build_split_star, build_star_tree


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} - {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number}: {description} {detail}"


def test_criterion_01_exact_exchangeability():
    """Every exchangeable sampler's law is permutation invariant to 1e-12."""
    worst = 0.0
    for name, kernel, target in (
        ("lazy_walk_uniform", *fixtures.lazy_walk_uniform()),
        ("biased_cycle", *fixtures.biased_cycle()),
        ("lazy_walk_skewed", *fixtures.lazy_walk_skewed()),
    ):
        methods = [
            exact_joint("parallel", kernel, target, n_draws=2, step=1),
            exact_joint("permuted_serial", kernel, target, n_draws=2, step=1),
            exact_joint(build_path_tree(2, 1), kernel, target),
            exact_joint(build_star_tree(2, 1), kernel, target),
            exact_joint(build_split_star(2, 1, 1), kernel, target),
        ]
        for law in methods:
            worst = max(worst, exchangeability_distance(law))
    _report(
        1,
        "parallel / permuted serial / path / star / split-star laws exchangeable",
        worst <= 1e-12,
        f"max TV {worst:.2e}",
    )


def test_criterion_02_sequential_invalidity():
    """The sequential baseline fails exchangeability and validity."""
    kernel, target = fixtures.drift_cycle_skewed()
    law = exact_joint("sequential", kernel, target, n_draws=2)
    distance = exchangeability_distance(law)
    stat = fixtures.state_index_statistic(kernel)
    rejection = exact_rejection_probability(law, stat, Fraction(1, 3))
    ok = distance > 1e-6 and rejection > 1 / 3
    _report(
        2,
        "sequential sampling non-exchangeable and invalid on the drift-cycle chain",
        ok,
        f"TV {distance:.3f}, P(p<=1/3) = {rejection:.4f}",
    )


def test_criterion_03_bimodal_table():
    """2500-replication rejection table matches the reference percentages."""
    result = run_bimodal_table(ExperimentConfig(check=True))
    _report(
        3,
        "bimodal rejection table within 1.5 pp of reference cells",
        not result.violations,
        "; ".join(result.violations),
    )


def test_criterion_04_power_curve():
    """Empirical parallel-method power tracks the closed form on the AR grid."""
    result = run_power_curve(ExperimentConfig(check=True))
    _report(
        4,
        "power curve within 0.02 of theory; rho=0.7 reaches optimal by L=10",
        not result.violations,
        "; ".join(result.violations),
    )


def test_criterion_05_consistency():
    """Permuted-serial p-values converge to the analytic p-value in M."""
    result = run_consistency(ExperimentConfig(check=True))
    _report(
        5,
        "permuted serial |p_mc - p_A| <= 0.02 at M=5000 and improves over M=100",
        not result.violations,
        "; ".join(result.violations),
    )


def test_criterion_06_limiting_mixture():
    """Exact limiting atoms match a large simulation of the parallel method."""
    kernel, target = fixtures.two_state()
    pair = KernelPair.from_discrete(kernel, target, 1)
    stat = fixtures.state_index_statistic(kernel)
    law = p_infinity_discrete(pair, stat, 1)

    # Simulate the parallel method exactly: hub ~ reverse kernel from x0, then
    # the count of spokes with T >= T(x0) is binomial in the hub's tail mass.
    reps, m = 1_000_000, 10_000
    rng = substream(20250824, 6)
    back_row = pair.reverse_kernel.matrix[kernel.index(1)]
    fwd = kernel.matrix
    tail = np.array([stat(s) >= stat(1) for s in kernel.states], dtype=float)
    hubs = rng.random(reps) < back_row[1]  # True -> hub state 1
    p_values = np.empty(reps)
    for hub_is_one in (False, True):
        mask = hubs == hub_is_one
        tail_mass = float(fwd[1 if hub_is_one else 0] @ tail)
        counts = rng.binomial(m, tail_mass, size=int(mask.sum()))
        p_values[mask] = (counts + 1) / (m + 1)

    # classify each replication to the nearest atom, compare frequencies
    values = np.array(law.values)
    assigned = np.abs(p_values[:, None] - values[None, :]).argmin(axis=1)
    ok = True
    details = []
    for i, prob in enumerate(law.probs):
        freq = float((assigned == i).mean())
        se = math.sqrt(prob * (1 - prob) / reps)
        details.append(f"atom {values[i]:.2f}: {freq:.4f} vs {prob:.4f}")
        ok = ok and abs(freq - prob) <= 4 * se
    _report(6, "limiting mixture matches 10^6-rep parallel simulation", ok, "; ".join(details))


def test_criterion_07_algebraic_identities():
    """Reversal, detailed balance and stationarity hold to 1e-12."""
    worst = 0.0
    fixture_list = fixtures.three_state_fixtures() + [
        ("two_state", *fixtures.two_state()),
        ("bimodal", mh_pm1_kernel(bimodal_target()), bimodal_target()),
    ]
    for name, kernel, target in fixture_list:
        report = is_stationary(kernel, target)
        worst = max(worst, report.max_residual)
        rev = reversal(kernel, target)
        f = target.mass
        residual = float(
            np.max(np.abs(kernel.matrix * f[:, None] - (rev.matrix * f[:, None]).T))
        )
        worst = max(worst, residual)
        double = reversal(rev, target)
        worst = max(worst, float(np.max(np.abs(double.matrix - kernel.matrix))))
    _report(7, "reversal / stationarity / double-reversal residuals <= 1e-12", worst <= 1e-12, f"max {worst:.2e}")


@pytest.mark.soak
def test_criterion_08_margin_conservation():
    """10^6 swaps conserve margins exactly; unit fiber occupancy is uniform."""
    rng = substream(20250824, 8)
    m = BinaryMatrix((rng.random((20, 12)) < 0.4).astype(int))
    rows, cols = m.row_sums.copy(), m.col_sums.copy()
    for _ in range(1_000_000):
        m = checkerboard_swap_step(m, rng)
    margins_ok = np.array_equal(m.entries.sum(axis=1), rows) and np.array_equal(
        m.entries.sum(axis=0), cols
    )

    fiber = enumerate_fiber((1, 1, 1), (1, 1, 1))
    state = fiber[0]
    n = 1_000_000
    counts = {f: 0 for f in fiber}
    for _ in range(n):
        state = checkerboard_swap_step(state, rng)
        counts[state] += 1
    p = 1 / 6
    # The occupancy estimator's standard error includes the chain's
    # integrated autocorrelation time: the walk holds with probability 2/3
    # (worst eigenvalue 2/3), giving tau = (1 + 2/3)/(1 - 2/3) = 5.
    se = math.sqrt(p * (1 - p) / n) * math.sqrt(5.0)
    occupancy_ok = all(abs(c / n - p) <= 4 * se for c in counts.values())
    _report(
        8,
        "margins conserved over 10^6 swaps; unit-margin occupancy uniform",
        margins_ok and occupancy_ok,
        f"occupancy {[round(c / n, 4) for c in counts.values()]}",
    )


def test_criterion_09_cpt_kernel():
    """Permutation chain has the exact target law; constant Q reduces to the
    classical permutation test."""
    rng = substream(20250824, 9)
    q = rng.standard_normal((4, 4))
    chain = cpt_transition_matrix(q)
    target = cpt_target(q)
    residual = float(np.max(np.abs(target.mass @ chain.matrix - target.mass)))

    # constant table, n=3: analytic p-value over the enumerated permutation
    # target equals the exhaustive all-permutations p-value, exactly
    import itertools

    x = np.array([0.3, -1.2, 0.8])
    y = np.array([1.0, -0.5, 0.2])

    def statistic(perm):
        return float(x[list(perm)] @ y)

    uniform_target = cpt_target(np.zeros((3, 3)))
    t0 = statistic((0, 1, 2))
    via_target = p_analytic(uniform_target, statistic, t0)
    exhaustive = Fraction(
        sum(1 for perm in itertools.permutations(range(3)) if statistic(perm) >= t0), 6
    )
    match = via_target == pytest.approx(float(exhaustive), abs=1e-15)
    _report(
        9,
        "CPT chain exactly stationary (n=4); constant-Q equals permutation test",
        residual <= 1e-12 and match,
        f"residual {residual:.2e}, p {via_target} vs {float(exhaustive)}",
    )


def test_criterion_10_sqrt_epsilon_validity():
    """The square-root correction restores validity for sequential sampling."""
    result = run_sqrt_epsilon_demo(
        ExperimentConfig(alphas=(0.01, 0.05, 0.1), check=True)
    )
    monotone_row = result.rows[-1]
    ok = not result.violations and monotone_row[1] == 1
    _report(
        10,
        "corrected sequential rejection <= alpha + 3 SE; corrected p >= raw p",
        ok,
        "; ".join(result.violations),
    )
