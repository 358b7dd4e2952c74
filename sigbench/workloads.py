"""The three significance-test streams the benchmark runs.

Each workload pre-generates its inputs with numpy from the workload seed,
builds its chains and kernels in ``setup()`` through exmcmc's public API, and
runs one significance test (one ``p_mc``) per ``test(i, rng)`` call, the way
the matching experiment runner does.  ``check`` holds the per-test
invariants; the per-run gates live in ``run.py``.

Only names that survive the planned kernel/sampler refactors are used: the
swap-chain pair is built with ``KernelPair(...)``, ``association_statistic``
comes from ``exmcmc.chains``, and no ``from_callables``, ``forward_step``,
``reverse_step``, ``step_power`` or ``SampleSet.y_sequence`` appears here.
"""

from __future__ import annotations

import importlib
from fractions import Fraction
from typing import NamedTuple

import numpy as np

ALPHA = 0.05
M = 99


class Outcome(NamedTuple):
    sampler: str
    batch: str  # "null" or "alternative"
    p: Fraction
    draws: list
    x0: object
    index: int  # position of the input in the workload's pool


def _modules():
    return {
        name: importlib.import_module(f"exmcmc.{name}")
        for name in ("chains", "kernel", "pvalue", "samplers")
    }


def check_p(p, violations: list) -> None:
    """p must be an exact rational in {1/(M+1), ..., 1}."""
    scaled = p * (M + 1) if isinstance(p, Fraction) else None
    if scaled is None or scaled.denominator != 1 or not 1 <= scaled <= M + 1:
        violations.append(f"p_mc returned {p!r}, not in {{1/{M + 1}, ..., 1}}")


class Workload:
    name = ""
    why = ""
    sizes: dict = {}
    power_floors: dict = {}
    statistic_attrs: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def test(self, i: int, rng: np.random.Generator) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> list:
        raise NotImplementedError

    def probe_parallel(self, i: int, rng: np.random.Generator, **kwargs) -> list:
        """Draws of ``sample_parallel`` on this workload's chain and input i."""
        raise NotImplementedError

    @staticmethod
    def state_key(state):
        return state


# -- bimodal ---------------------------------------------------------------


def bimodal_mass() -> np.ndarray:
    """pi on {1..100}: equal mixture of normal bumps at 25 and 75, var 36."""
    x = np.arange(1, 101, dtype=float)
    raw = np.exp(-0.5 * (x - 25.0) ** 2 / 36.0) + np.exp(-0.5 * (x - 75.0) ** 2 / 36.0)
    return raw / raw.sum()


class Bimodal(Workload):
    name = "bimodal"
    why = (
        "matrix-backed bimodal MH chain, three samplers per x0: time sits in kernel "
        "super/unit-step draws and sampler orchestration, no chain base-step code runs"
    )
    SAMPLERS = ("parallel", "serial", "tree")
    sizes = {
        "states": 100, "M": M, "L_parallel": 100, "L_serial": 100,
        "tree": "build_split_star(9, 11, 1)", "tests_per_x0": 3, "x0_pool": 16384,
    }

    def __init__(self, seed: int):
        super().__init__(seed)
        gen = np.random.default_rng([seed, 0])
        self.mass = bimodal_mass()
        states = np.arange(1, 101)
        self.x0s = [int(s) for s in gen.choice(states, size=self.sizes["x0_pool"], p=self.mass)]

    def setup(self) -> None:
        mods = _modules()
        chains, kernel = mods["chains"], mods["kernel"]
        self.samplers, self.pvalue = mods["samplers"], mods["pvalue"]
        target = chains.bimodal_target()
        if np.max(np.abs(np.asarray(target.mass) - self.mass)) > 1e-12:
            raise RuntimeError("bimodal_target() differs from the benchmark's pi")
        k = chains.mh_pm1_kernel(target)
        self.pair = kernel.KernelPair.from_discrete(k, target, 100)
        self.unit_pair = kernel.KernelPair.from_discrete(k, target, 1)
        self.tree = self.samplers.build_split_star(9, 11, 1)

    def test(self, i, rng):
        x0 = self.x0s[(i // 3) % len(self.x0s)]
        kind = i % 3
        if kind == 0:
            draws = self.samplers.sample_parallel(self.pair, x0, M, rng).draws
        elif kind == 1:
            draws = self.samplers.sample_permuted_serial(self.pair, x0, M, rng).draws
        else:
            draws = self.samplers.sample_tree(self.unit_pair, x0, self.tree, rng).draws
        p = self.pvalue.p_mc(x0, draws)
        return Outcome(self.SAMPLERS[kind], "null", p, draws, x0, (i // 3) % len(self.x0s))

    def check(self, outcome):
        violations = []
        check_p(outcome.p, violations)
        if len(outcome.draws) != M:
            violations.append(f"{len(outcome.draws)} draws, expected {M}")
        if not all(type(d) is int and 1 <= d <= 100 for d in outcome.draws):
            violations.append("bimodal draw outside the states 1..100")
        return violations

    def probe_parallel(self, i, rng, **kwargs):
        x0 = self.x0s[i % len(self.x0s)]
        return self.samplers.sample_parallel(self.pair, x0, M, rng, **kwargs).draws


# -- cpt -------------------------------------------------------------------


def residual_correlation(state, x, z, y_res) -> float:
    """The cpt-demo runner's statistic: |corr(x[perm] - z, y residuals)|."""
    res = x[np.asarray(state.perm)] - z
    return abs(float(np.corrcoef(res, y_res)[0, 1]))


class Cpt(Workload):
    name = "cpt"
    why = (
        "conditional permutation test, parallel sampler fanning 99 spokes of 80 scalar "
        "cpt_swap_step calls from one hub: chain base steps dominate, matrix kernels bypassed"
    )
    N, L, BETA, POOL = 40, 80, 1.0, 512
    sizes = {"n": N, "M": M, "L": L, "beta": BETA, "sampler": "sample_parallel",
             "batches": "null and alternative alternate", "data_pool": POOL}
    power_floors = {"alternative": 0.9}
    statistic_attrs = ("statistic",)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.statistic = residual_correlation
        n = self.N
        self.data = []
        for i in range(self.POOL):
            dependent = i % 2 == 1
            gen = np.random.default_rng([seed, 1, i])
            z = gen.standard_normal(n)
            x = z + gen.standard_normal(n)
            noise = gen.standard_normal(n)
            y = self.BETA * x + noise if dependent else z + noise
            q_log = -0.5 * (x[:, None] - z[None, :]) ** 2
            y_res = y - np.polyval(np.polyfit(z, y, 1), z)
            self.data.append((dependent, x, z, q_log, y_res))
        self.identity = tuple(range(n))

    def setup(self) -> None:
        mods = _modules()
        self.chains, self.samplers, self.pvalue = mods["chains"], mods["samplers"], mods["pvalue"]

    def test(self, i, rng):
        dependent, x, z, q_log, y_res = self.data[i % self.POOL]
        s0 = self.chains.make_permutation_state(range(self.N), q_log)
        pair = self.chains.cpt_pair(q_log, self.L)
        draws = self.samplers.sample_parallel(pair, s0, M, rng).draws
        stat = self.statistic
        p = self.pvalue.p_mc(
            stat(s0, x, z, y_res), [stat(d, x, z, y_res) for d in draws]
        )
        return Outcome("parallel", "alternative" if dependent else "null", p, draws, s0,
                       i % self.POOL)

    def check(self, outcome):
        violations = []
        check_p(outcome.p, violations)
        if len(outcome.draws) != M:
            violations.append(f"{len(outcome.draws)} draws, expected {M}")
        q_log = self.data[outcome.index][3]
        cols = np.arange(self.N)
        for d in outcome.draws:
            if tuple(sorted(d.perm)) != self.identity:
                violations.append("cpt draw is not a permutation of 0..n-1")
                break
            if abs(d.log_weight - float(q_log[np.asarray(d.perm), cols].sum())) > 1e-8:
                violations.append("cpt draw's cached log weight disagrees with its permutation")
                break
        return violations

    def probe_parallel(self, i, rng, **kwargs):
        q_log = self.data[i % self.POOL][3]
        s0 = self.chains.make_permutation_state(range(self.N), q_log)
        pair = self.chains.cpt_pair(q_log, self.L)
        return self.samplers.sample_parallel(pair, s0, M, rng, **kwargs).draws

    @staticmethod
    def state_key(state):
        return state.perm


# -- matrix ----------------------------------------------------------------


class Matrix(Workload):
    name = "matrix"
    why = (
        "margin-conditioned GOF, permuted-serial checkerboard swap chain: the same chains "
        "and samplers layers as cpt on a serial chain that cannot batch across spokes"
    )
    ROWS, COLS, L, POOL = 20, 12, 50, 512
    NULL_P, ALT_BASE, ALT_EFFECT = 0.4, 0.35, 0.9
    sizes = {"rows": ROWS, "cols": COLS, "M": M, "L": L, "sampler": "sample_permuted_serial",
             "null": "iid Bernoulli(0.4)", "alternative": "column copy, base 0.35, effect 0.9",
             "batches": "null and alternative alternate", "grid_pool": POOL}
    power_floors = {"alternative": 0.5}
    statistic_attrs = ()

    def __init__(self, seed: int):
        super().__init__(seed)
        self.grids = []
        for i in range(self.POOL):
            gen = np.random.default_rng([seed, 2, i])
            if i % 2 == 0:
                grid = (gen.random((self.ROWS, self.COLS)) < self.NULL_P).astype(np.int8)
            else:
                # The matrix-gof runner's planted association: columns 1..3
                # copy column 0 at the calibrated rate.
                grid = (gen.random((self.ROWS, self.COLS)) < self.ALT_BASE).astype(np.int8)
                for col in range(1, 4):
                    copy = gen.random(self.ROWS) < self.ALT_EFFECT
                    grid[copy, col] = grid[copy, 0]
            self.grids.append(grid)

    def setup(self) -> None:
        mods = _modules()
        self.chains, self.samplers, self.pvalue = mods["chains"], mods["samplers"], mods["pvalue"]
        swap = self.chains.checkerboard_swap_step
        self.pair = mods["kernel"].KernelPair(swap, swap, step_size=self.L, reversible=True)

    def test(self, i, rng):
        grid = self.grids[i % self.POOL]
        x0 = self.chains.BinaryMatrix(grid)
        draws = self.samplers.sample_permuted_serial(self.pair, x0, M, rng).draws
        stat = self.chains.association_statistic
        p = self.pvalue.p_mc(stat(x0), [stat(d) for d in draws])
        return Outcome("serial", "alternative" if i % 2 else "null", p, draws, x0, i % self.POOL)

    def check(self, outcome):
        violations = []
        check_p(outcome.p, violations)
        if len(outcome.draws) != M:
            violations.append(f"{len(outcome.draws)} draws, expected {M}")
        e0 = outcome.x0.entries
        rows, cols = e0.sum(axis=1), e0.sum(axis=0)
        for d in outcome.draws:
            e = d.entries
            if (e.shape != e0.shape or not np.isin(e, (0, 1)).all()
                    or not np.array_equal(e.sum(axis=1), rows)
                    or not np.array_equal(e.sum(axis=0), cols)):
                violations.append("matrix draw does not preserve the margins of x0")
                break
        return violations

    def probe_parallel(self, i, rng, **kwargs):
        x0 = self.chains.BinaryMatrix(self.grids[i % self.POOL])
        return self.samplers.sample_parallel(self.pair, x0, M, rng, **kwargs).draws

    @staticmethod
    def state_key(state):
        return state.entries.tobytes()


WORKLOADS = {w.name: w for w in (Bimodal, Cpt, Matrix)}
