"""Write a committed perf record (``BENCH_<n>.json``) for exmcmc.

    python tools/bench_record.py --base ../exmcmc-parent --out BENCH_17.json

Measures this checkout (``change``) against the checkout of another commit
given by ``--base`` (``parent``), each from its own ``src/`` and
``sigbench/``, on the same machine:

- ``PAIRS`` pairs of ``sigbench/run.py --trace 0`` runs of the benchmark's
  ``run_seconds`` on every workload in ``BENCHMARK.json``, alternating which
  side runs first, with seeds 1..PAIRS.  Each end-to-end metric gets each
  side's median and quartiles and the number of pairs the change won;
- ``PAIRS`` more pairs per workload that stop after the same number of tests
  on both sides (the parent's median count above), through sigbench's own
  setup and test loop: the peak RSS, and whether the two sides' p-values and
  gates are identical.  sigbench keeps records per test, so a timed run's
  peak RSS grows with the tests it completes; at equal counts it does not;
- the microseconds per ``DiscreteKernel.run``, per ``DiscreteKernel.path``
  of 99 links at L = 100 and per sampler call at M = 99 on the bimodal pair,
  per base step of the swap, CPT (n = 40) and AR(1) chains, per 50-step swap
  run, 99-link swap path at L = 50 (the matrix workload's chain call) and
  ``association_statistic`` on 20 x 12, and per ``p_mc`` at M = 99 (best of
  five timed blocks);
- the wall time and exit code of each CLI experiment at its default config
  with ``--check``;
- the tier-1 suite's wall time and counts, and the ``src/`` line count;

and the Python and numpy versions and ``nproc``.  Nothing runs in parallel.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # alternating parent/change pairs; a claimed gain must win nine of them
EXPERIMENTS = (
    "bimodal-table", "power-curve", "consistency", "matrix-gof", "cpt-demo", "sqrt-eps", "pinfty",
)


def micro() -> dict:
    """Microseconds per call of each layer: the bimodal kernel step, its
    99-link chain (on a checkout whose kernel has ``path``) and the samplers
    as sigbench's bimodal workload calls them, each chain's base step, the
    swap chain's 50-step run and its 99-link path at L = 50 (sigbench's matrix
    chain), the matrix statistic and ``p_mc``."""
    import numpy as np
    from exmcmc.chains import (
        Ar1Kernel, BinaryMatrix, association_statistic, bimodal_target, checkerboard_swap_run,
        checkerboard_swap_step, cpt_swap_step, make_permutation_state, mh_pm1_kernel,
    )
    from exmcmc.kernel import KernelPair
    from exmcmc.pvalue import p_mc
    from exmcmc.samplers import (
        build_split_star, sample_parallel, sample_permuted_serial, sample_tree,
    )

    def chain(step, state):
        """A call that moves ``state`` one ``step`` on, as a chain does."""
        def call():
            nonlocal state
            state = step(state)
        return call

    target = bimodal_target()
    kernel = mh_pm1_kernel(target)
    pair = KernelPair.from_discrete(kernel, target, 100)
    unit_pair = KernelPair.from_discrete(kernel, target, 1)
    tree = build_split_star(9, 11, 1)
    rng = np.random.default_rng(17)
    x0s = iter(target.sample_indices(rng, 10**6).tolist())
    grid = BinaryMatrix(rng.random((20, 12)) < 0.4)  # sigbench's matrix null
    z = rng.standard_normal(40)
    x = z + rng.standard_normal(40)
    q_log = -0.5 * (x[:, None] - z[None, :]) ** 2  # sigbench's cpt table
    ar1 = Ar1Kernel(0.8)
    stats = rng.random(99).tolist()
    calls = {
        "kernel_run_L100_us": (lambda: kernel.run(50, 100, rng), 100_000),
        "kernel_run_L1_us": (lambda: kernel.run(50, 1, rng), 100_000),
        "sample_parallel_us": (lambda: sample_parallel(pair, next(x0s) + 1, 99, rng), 1_000),
        "sample_permuted_serial_us": (
            lambda: sample_permuted_serial(pair, next(x0s) + 1, 99, rng), 1_000),
        "sample_tree_split_star_us": (
            lambda: sample_tree(unit_pair, next(x0s) + 1, tree, rng), 1_000),
        "swap_step_20x12_us": (chain(lambda m: checkerboard_swap_step(m, rng), grid), 100_000),
        "swap_run_L50_20x12_us": (
            chain(lambda m: checkerboard_swap_run(m, 50, rng), grid), 10_000),
        "swap_path_99_L50_20x12_us": (
            chain(lambda m: checkerboard_swap_step.path(m, 99, 50, rng)[-1], grid), 100),
        "cpt_swap_step_n40_us": (
            chain(lambda s: cpt_swap_step(s, q_log, rng),
                  make_permutation_state(range(40), q_log)), 100_000),
        "ar1_step_us": (chain(lambda x: ar1.step(x, rng), 0.0), 100_000),
        "association_statistic_20x12_us": (lambda: association_statistic(grid), 20_000),
        "p_mc_M99_us": (lambda: p_mc(0.5, stats), 10_000),
    }
    if hasattr(kernel, "path"):
        calls["kernel_path_99_L100_us"] = (lambda: kernel.path(50, 99, 100, rng), 10_000)
    out = {}
    for name, (call, number) in calls.items():
        call()  # fills the caches
        out[name] = min(timeit.repeat(call, number=number, repeat=5)) / number * 1e6
    return out


def equal_count(workload: str, seed: int, count: int) -> dict:
    """sigbench's setup and test loop for exactly ``count`` tests, from the
    checkout in the working directory: the peak RSS, the gates and a digest
    of the p-values."""
    sys.path[:0] = [str(Path.cwd() / "sigbench"), str(Path.cwd() / "src")]
    import numpy as np

    bench, workloads = importlib.import_module("run"), importlib.import_module("workloads")
    wl = workloads.WORKLOADS[workload](seed)
    bench.measure_setup(wl, np, seed, [])
    phase = bench.Phase()
    rng = np.random.default_rng([seed, 7])
    bench.run_tests(wl, workloads.ALPHA, rng, phase, 0, count=count, reference=True)
    rss_mb = bench.peak_rss_mb()
    return {
        "peak_rss_mb": rss_mb, "tests": phase.attempted, "failed": phase.failed,
        "pvalues_sha256": hashlib.sha256(phase.pvalues.tobytes()).hexdigest(),
        "gates": [f"{g['gate']} {g['rejections']}/{g['tests']} {'ok' if g['ok'] else 'FAILED'}"
                  for g in bench.gates(wl, phase.groups, workloads.ALPHA)],
    }


def run(cmd, cwd, timeout=1800) -> tuple:
    """(exit code, seconds, stdout) of ``cmd`` with ``cwd/src`` on the path."""
    env = dict(os.environ, PYTHONPATH=str(Path(cwd) / "src"))
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    return proc.returncode, perf_counter() - t0, proc.stdout


def quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def paired(sides: dict, call) -> list:
    """``call(side, seed)`` for seeds 1..PAIRS, alternating which side goes first."""
    runs = []
    for seed in range(1, PAIRS + 1):
        for side in (list(sides) if seed % 2 else list(sides)[::-1]):
            runs.append({"side": side, "seed": seed, **call(side, seed)})
            print(json.dumps(runs[-1]), file=sys.stderr)
    return runs


def summary(sides: dict, runs: list, name: str, higher: bool) -> dict:
    """Each side's median and quartiles of ``name``, and the pairs the change won."""
    value = {(r["side"], r["seed"]): r[name] for r in runs}
    out = {side: quartiles([r[name] for r in runs if r["side"] == side]) for side in sides}
    out["change_wins"] = sum(
        (value["change", s] > value["parent", s]) if higher
        else (value["change", s] < value["parent", s])
        for s in range(1, PAIRS + 1)
    )
    return out


def sigbench(sides: dict) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {}
    for workload in (w["name"] for w in bench["workloads"]):
        def timed(side, seed):
            cmd = [sys.executable, "sigbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            code, _, stdout = run(cmd, sides[side])
            result = json.loads(stdout.strip().splitlines()[-1])
            return {"exit": code, "correct": result["correct"], "attempted": result["attempted"],
                    "failed": result["failed"],
                    **{k: v["value"] for k, v in result["metrics"].items()}}

        runs = paired(sides, timed)
        count = round(statistics.median(r["attempted"] for r in runs if r["side"] == "parent"))

        def counted(side, seed):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "count", workload,
                   str(seed), str(count)]
            return json.loads(run(cmd, sides[side])[2])

        counted_runs = paired(sides, counted)
        out[workload] = {
            "metrics": {m["name"]: summary(sides, runs, m["name"], m["better"] == "higher")
                        for m in bench["end_to_end"]},
            "runs": runs,
            "equal_count": {
                "tests": count,
                "peak_rss_mb": summary(sides, counted_runs, "peak_rss_mb", False),
                "same_pvalues_and_gates": sum(
                    len({(r["pvalues_sha256"], tuple(r["gates"]))
                         for r in counted_runs if r["seed"] == s}) == 1
                    for s in range(1, PAIRS + 1)),
                "runs": counted_runs,
            },
        }
    return out


def cli_times(path) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in EXPERIMENTS:
            cmd = [sys.executable, "-m", "exmcmc.cli", name, "--check",
                   "--out", str(Path(tmp) / f"{name}.csv")]
            code, secs, _ = run(cmd, path)
            out[name] = {"seconds": round(secs, 2), "exit": code}
    return out


def tier1(path) -> dict:
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    code, secs, stdout = run(cmd, path, timeout=3600)
    counts = dict((k, int(n)) for n, k in re.findall(r"(\d+) (passed|failed|error)", stdout))
    return {"seconds": round(secs, 1), "exit": code, **counts}


def src_lines(path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (Path(path) / "src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="checkout of the commit to compare against")
    parser.add_argument("--out", help="JSON file to write")
    # One side's measurement, run in that side's checkout: "micro", or
    # "count WORKLOAD SEED TESTS".
    parser.add_argument("--probe", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        kind, *rest = args.probe
        result = micro() if kind == "micro" else equal_count(rest[0], int(rest[1]), int(rest[2]))
        print(json.dumps(result))
        return 0
    if not (args.base and args.out):
        parser.error("--base and --out are required")
    sides = {"parent": Path(args.base).resolve(), "change": ROOT}
    import numpy

    record = {
        "settings": {"pairs": PAIRS, "seeds": f"1..{PAIRS}"},
        "environment": {"python": platform.python_version(), "numpy": numpy.__version__,
                        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()},
        "micro_us": {
            side: json.loads(
                run([sys.executable, str(Path(__file__).resolve()), "--probe", "micro"], path)[2])
            for side, path in sides.items()
        },
        "cli": {side: cli_times(path) for side, path in sides.items()},
        "tier1": {side: tier1(path) for side, path in sides.items()},
        "src_lines": {side: src_lines(path) for side, path in sides.items()},
        "sigbench": sigbench(sides),
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
