"""Significance-test benchmark for exmcmc.

Runs one closed-loop workload (a stream of significance tests, one ``p_mc``
each, one test in flight, one thread) against the exmcmc sources in
``src/`` of the checkout this file sits in, checks every result, and prints
one JSON object as the last line of standard output.

    python3 sigbench/run.py --workload cpt --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs each test untraced and again with spans around the kernel, chains,
statistic, samplers and pvalue entry points, and reports
the per-layer metrics, the tracing overhead and a one-off thread-pool probe
of ``sample_parallel``.  End-to-end times are scaled to a fixed machine speed
measured by a reference block run among the tests (see ``speed.py``); the
per-layer times are plain wall time.  Run metadata, metrics and (traced) the
kept spans are written to ``sigbench/out/``.  Exit code 0 means every correctness gate
held; 1 means one failed; 2 means the exmcmc sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_ROUNDS = 11
# test_ms_tail is a fixed percentile, so runs of different length compare.
# Higher percentiles of the sub-millisecond bimodal tests measure scheduler
# jitter on a shared machine, not exmcmc.  It is taken per speed window and
# medianed: pooled over the run, the tests caught by a change of machine speed
# inside a window (scaled by that window's one factor) make up the tail.
TAIL_PCT = 95.0
KEEP_ERRORS = 5
# A valid continuous-statistic test (cpt) rejects at exactly alpha, so the
# null gate's false-alarm rate per run is that of its se multiple: about 0.3%
# at 3 se with 40-400 tests (it fired once in development), below 0.03% at 4.
# The power gates sit far below the alternatives' power and keep 3 se.
NULL_Z = 4.0
POWER_Z = 3.0
TRACE_BLOCK_S = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bimodal", "cpt", "matrix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# -- measuring ---------------------------------------------------------------


class Phase:
    """Per-test records of one closed-loop pass over the workload's inputs.

    They are kept in flat arrays, so that peak RSS does not grow with the
    number of tests a run gets through."""

    def __init__(self):
        self.starts = array("d")  # perf_counter at each test's start
        self.times = array("d")  # seconds, every attempted test
        self.refs: list[tuple[float, float]] = []  # (start, seconds) of reference blocks
        self.completed = bytearray()  # 1 if the test returned
        self.pvalues = array("d")  # float(p), or -1 for a test that raised
        self.groups: dict[tuple[str, str], list[int]] = {}  # -> [tests, rejections]
        self.violations: list[str] = []
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return self.completed.count(0)


def run_tests(wl, alpha, rng, phase: Phase, start: int, seconds=None, count=None,
              reference=False) -> int:
    """Run tests ``start``, ``start + 1``, ... into ``phase`` until ``seconds``
    have passed or ``count`` tests have run; return the next test index.
    With ``reference``, a speed reference block runs before the first test
    and then between tests every ``speed.REF_EVERY_S``."""
    deadline = None if seconds is None else perf_counter() + seconds
    next_ref = perf_counter()
    i = start
    while ((count is None or i < start + count)
           and (deadline is None or perf_counter() < deadline)):
        if reference and perf_counter() >= next_ref:
            phase.refs.append((perf_counter(), speed.reference_block()))
            next_ref = perf_counter() + speed.REF_EVERY_S
        t0 = perf_counter()
        phase.starts.append(t0)
        try:
            outcome = wl.test(i, rng)
        except Exception:  # a raising test is counted as failed; the run goes on
            phase.times.append(perf_counter() - t0)
            phase.completed.append(0)
            phase.pvalues.append(-1.0)
            if len(phase.errors) < KEEP_ERRORS:
                phase.errors.append(f"test {i}: {traceback.format_exc()}")
        else:
            phase.times.append(perf_counter() - t0)
            phase.completed.append(1)
            phase.pvalues.append(float(outcome.p))
            group = phase.groups.setdefault((outcome.sampler, outcome.batch), [0, 0])
            group[0] += 1
            group[1] += outcome.p <= alpha
            phase.violations.extend(f"test {i}: {v}" for v in wl.check(outcome))
        i += 1
    return i


def traced_run(wl, alpha, rng, tracer, tracing, np, seed: int, seconds: float):
    """Alternate ``TRACE_BLOCK_S`` blocks of untraced tests with the same
    tests traced, from the same sampler stream state, so that a drift in
    machine speed hits both sides of ``trace.overhead_ratio`` alike.
    Returns the (untraced, traced) phases."""
    plain = dict(vars(wl))
    tracing.install(tracer, wl)
    wl.setup()
    wl.test(0, np.random.default_rng([seed, 9, 0]))
    tracer.reset()
    traced_state = dict(vars(wl))

    def use(state):
        vars(wl).clear()
        vars(wl).update(state)

    untraced, traced = Phase(), Phase()
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline:
        stream = rng.bit_generator.state
        tracer.suspend()
        use(plain)
        end = run_tests(wl, alpha, rng, untraced, i, seconds=TRACE_BLOCK_S)
        rng.bit_generator.state = stream
        tracer.resume()
        use(traced_state)
        run_tests(wl, alpha, rng, traced, i, count=end - i)
        i = end
    tracer.suspend()
    use(plain)
    return untraced, traced


def measure_setup(wl, np, seed: int, violations: list) -> tuple[list, list]:
    """Seconds for a fresh import of exmcmc, the workload's chain and kernel
    construction and one warm-up test, ``SETUP_ROUNDS`` times.  numpy is
    already loaded by the benchmark itself.  Returns the wall times and the
    same scaled to reference seconds by a reference block run just before
    and just after each round."""
    speed.reference_block()  # warm the reference's own code paths
    wall, scaled = [], []
    for r in range(SETUP_ROUNDS):
        for name in [m for m in sys.modules if m == "exmcmc" or m.startswith("exmcmc.")]:
            del sys.modules[name]
        before = speed.reference_block()
        t0 = perf_counter()
        importlib.import_module("exmcmc")
        wl.setup()
        warm = wl.test(0, np.random.default_rng([seed, 9, r]))
        secs = perf_counter() - t0
        after = speed.reference_block()
        wall.append(secs)
        scaled.append(secs * speed.REF_NOMINAL_S / ((before + after) / 2.0))
        violations.extend(f"warm-up {r}: {v}" for v in wl.check(warm))
    return wall, scaled


def end_to_end(phase: Phase, np) -> dict:
    """tests_per_s, test_ms_p50 and test_ms_tail in reference seconds, and
    the same figures in wall time for the notes."""
    if not phase.times:
        return dict.fromkeys(("tests_per_s", "test_ms_p50", "test_ms_tail", "windows",
                              "wall_tests_per_s", "wall_ms_p50"), 0)
    scaled, windows = speed.normalise(phase.starts, phase.times, phase.refs)
    done = np.frombuffer(bytes(phase.completed), dtype=np.uint8).astype(bool)
    ms, done_windows = scaled[done] * 1e3, windows[done]
    tails = [float(np.percentile(ms[done_windows == w], TAIL_PCT))
             for w in np.unique(done_windows)]
    wall = np.asarray(phase.times)
    return {
        "tests_per_s": float(done.sum() / scaled.sum()),
        "test_ms_p50": float(np.median(ms)) if len(ms) else 0.0,
        "test_ms_tail": median(tails),
        "windows": len(tails),
        "wall_tests_per_s": float(done.sum() / wall.sum()),
        "wall_ms_p50": float(np.median(wall[done])) * 1e3 if len(ms) else 0.0,
    }


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- gates -------------------------------------------------------------------


def gates(wl, groups, alpha) -> list[dict]:
    """Null rejection rate <= alpha + NULL_Z se on every sampler; alternative
    rejection rate >= the runner's power floor - POWER_Z se.  Both use the
    binomial se at the boundary rate and the group's test count."""
    out = []
    for (sampler, batch), (n, rejections) in sorted(groups.items()):
        rate = rejections / n
        if batch == "null":
            limit = alpha + NULL_Z * math.sqrt(alpha * (1.0 - alpha) / n)
            ok = rate <= limit
            rule = "<="
        else:
            floor = wl.power_floors[batch]
            limit = floor - POWER_Z * math.sqrt(floor * (1.0 - floor) / n)
            ok = rate >= limit
            rule = ">="
        out.append({"gate": f"{batch}/{sampler}", "tests": n, "rejections": rejections,
                    "rate": rate, "rule": rule, "limit": limit, "ok": ok})
    return out


# -- traced run --------------------------------------------------------------


def per_layer(tracer, traced: Phase, untraced: Phase) -> dict:
    tests, test_s, _ = tracer.summary("test")
    tests = max(tests, 1)
    layer_self = tracer.layer_self()

    def share(layer):
        return layer_self[layer] / test_s if test_s > 0 else 0.0

    def per_call(names, inclusive=True):
        calls = sum(tracer.summary(n)[0] for n in names)
        secs = sum(tracer.summary(n)[1 if inclusive else 2] for n in names)
        return calls, (secs / calls * 1e6 if calls else 0.0)

    def ratio(num, den):
        den = tracer.counters.get(den, 0)
        return tracer.counters.get(num, 0) / den if den else 0.0

    supers = ("kernel.super_forward", "kernel.super_reverse")
    bases = ("chains.cpt_swap_step", "chains.checkerboard_swap_step")
    stats = [n for n in tracer.names if n.startswith("stat.")]
    super_calls, super_self_us = per_call(supers, inclusive=False)
    unit_calls, _ = per_call(("kernel.unit_step",))
    base_calls, base_us = per_call(bases)
    stat_calls, stat_us = per_call(stats)
    p_calls, p_us = per_call(("pvalue.p_mc",))

    # Both phases ran the same tests on the same sampler stream, interleaved.
    overhead = sum(traced.times) / sum(untraced.times) if untraced.times else 0.0

    metrics = {
        "kernel.super_steps": (super_calls / tests, "count/test"),
        "kernel.unit_steps": (unit_calls / tests, "count/test"),
        "kernel.super_step_self_us": (super_self_us, "us"),
        "kernel.self_share": (share("kernel"), "ratio"),
        "chains.base_steps": (base_calls / tests, "count/test"),
        "chains.base_step_us": (base_us, "us"),
        "chains.self_share": (share("chains"), "ratio"),
        "chains.accept_ratio": (ratio("chains.accepted", "chains.proposals"), "ratio"),
        "stat.evals": (stat_calls / tests, "count/test"),
        "stat.eval_us": (stat_us, "us"),
        "stat.self_share": (share("stat"), "ratio"),
        "samplers.parallel_us": (per_call(("samplers.sample_parallel",))[1], "us"),
        "samplers.serial_us": (per_call(("samplers.sample_permuted_serial",))[1], "us"),
        "samplers.tree_us": (per_call(("samplers.sample_tree",))[1], "us"),
        "samplers.self_share": (share("samplers"), "ratio"),
        "samplers.stuck_ratio": (ratio("samplers.stuck", "samplers.draws"), "ratio"),
        "pvalue.calls": (p_calls / tests, "count/test"),
        "pvalue.p_mc_us": (p_us, "us"),
        "pvalue.self_share": (share("pvalue"), "ratio"),
        "pvalue.tie_ratio": (ratio("pvalue.ties", "pvalue.draws"), "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.coverage": (sum(share(layer) for layer in layer_self), "ratio"),
    }
    return metrics


def thread_probe(wl, np, seed: int, budget_s: float, violations: list) -> tuple[float, int]:
    """``sample_parallel(..., split_streams=True)`` against ``workers=2`` on
    the same inputs and substreams, alternating, for about ``budget_s``.
    Returns (split-stream seconds / two-worker seconds, pairs run); (0, 0)
    when ``sample_parallel`` no longer has the thread-pool path."""
    params = inspect.signature(wl.samplers.sample_parallel).parameters
    if "workers" not in params or "split_streams" not in params:
        return 0.0, 0
    wl.probe_parallel(0, np.random.default_rng([seed, 3, 0]), split_streams=True)
    split_s = pool_s = 0.0
    pairs = 0
    deadline = perf_counter() + budget_s
    while pairs < 2 or perf_counter() < deadline:
        t0 = perf_counter()
        a = wl.probe_parallel(pairs, np.random.default_rng([seed, 3, pairs]), split_streams=True)
        t1 = perf_counter()
        b = wl.probe_parallel(pairs, np.random.default_rng([seed, 3, pairs]), workers=2)
        t2 = perf_counter()
        split_s += t1 - t0
        pool_s += t2 - t1
        if [wl.state_key(d) for d in a] != [wl.state_key(d) for d in b]:
            violations.append(f"probe {pairs}: workers=2 draws differ from split_streams draws")
        pairs += 1
    return split_s / pool_s, pairs


# -- metadata ----------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def metadata(args, wl, np) -> dict:
    exmcmc = sys.modules["exmcmc"]
    return {
        "workload": args.workload,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": wl.sizes,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "exmcmc": getattr(exmcmc, "__version__", None),
        "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "exmcmc" / "__init__.py").is_file():
        print(f"error: no exmcmc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    violations: list[str] = []
    setup_wall, setup_samples = measure_setup(wl, np, args.seed, violations)
    exmcmc_file = Path(sys.modules["exmcmc"].__file__).resolve()
    if SRC.resolve() not in exmcmc_file.parents:
        print(f"error: imported exmcmc from {exmcmc_file}, not from {SRC}", file=sys.stderr)
        return 2

    alpha = workloads.ALPHA
    errors: list[str] = []
    rng = np.random.default_rng([args.seed, 7])  # the samplers' stream
    notes = []

    if args.trace == 0:
        phase = Phase()
        run_tests(wl, alpha, rng, phase, 0, seconds=args.seconds, reference=True)
        phases = [phase]
        rss_mb = peak_rss_mb()  # before end_to_end's temporary arrays
        e2e = end_to_end(phase, np)
        metrics = {
            "tests_per_s": (e2e["tests_per_s"], "1/s"),
            "test_ms_p50": (e2e["test_ms_p50"], "ms"),
            "test_ms_tail": (e2e["test_ms_tail"], "ms"),
            "setup_s": (median(setup_samples), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        refs_ms = [secs * 1e3 for _, secs in phase.refs]
        notes.append(f"times are in reference seconds ({speed.REF_NOMINAL_S * 1e3:g} ms per "
                     f"reference block); {len(refs_ms)} blocks, median "
                     f"{median(refs_ms):.3f} ms, range {min(refs_ms):.3f}-{max(refs_ms):.3f} ms, "
                     f"{sum(refs_ms) / 1e3:.2f} s of the run")
        notes.append(f"wall time: {e2e['wall_tests_per_s']:.6g} tests/s, "
                     f"p50 {e2e['wall_ms_p50']:.6g} ms, setup {median(setup_wall):.6g} s")
        notes.append(f"test_ms_tail is the median over {e2e['windows']} windows of "
                     f"{speed.WINDOW_S:g} s of each window's p{TAIL_PCT:g}; "
                     f"{sum(phase.completed)} tests completed")
        notes.append(f"test_fail_ratio {phase.failed / max(phase.attempted, 1):.6g} ratio "
                     f"({phase.failed} of {phase.attempted} tests raised)")
        notes.append("setup_s rounds: " + " ".join(f"{s:.4f}" for s in setup_samples))
    else:
        tracer = tracing.Tracer()
        tracer.calibrate()
        untraced, traced = traced_run(wl, alpha, rng, tracer, tracing, np, args.seed,
                                     args.seconds)
        phases = [untraced, traced]
        mismatched = sum(1 for a, b in zip(untraced.pvalues, traced.pvalues) if a != b)
        if mismatched or untraced.attempted != traced.attempted:
            violations.append(f"{mismatched} of {untraced.attempted} p-values changed under "
                              f"tracing ({traced.attempted} traced)")
        metrics = per_layer(tracer, traced, untraced)
        speedup, pairs = thread_probe(wl, np, args.seed, min(2.0, 0.1 * args.seconds), violations)
        metrics["samplers.thread2_speedup"] = (speedup, "ratio")
        OUT.mkdir(exist_ok=True)
        kept = tracer.write_spans(OUT / f"{args.workload}-spans.json")
        notes.append(f"{untraced.attempted} tests, each run untraced and traced in "
                     f"alternating blocks of {TRACE_BLOCK_S:g} s")
        notes.append(f"thread probe: {pairs} sample_parallel pairs, split_streams vs workers=2")
        raw_s = tracer.total[tracer.names.index("test")]
        notes.append(f"tracer cost {raw_s - tracer.summary('test')[1]:.3f} s of {raw_s:.3f} s "
                     f"traced test time; {kept} spans kept of {sum(tracer.calls)}")

    # Gates on the first phase only: a traced run repeats the same tests.
    gate_rows = gates(wl, phases[0].groups, alpha)
    for phase in phases:
        violations.extend(phase.violations)
        errors.extend(phase.errors)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    completed = attempted - failed
    correct = not violations and completed > 0 and all(g["ok"] for g in gate_rows)

    meta = metadata(args, wl, np)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "notes": notes, "gates": gate_rows,
                   "violations": violations[:50], "errors": errors, "result": result},
                  handle, indent=1, default=str)

    print("meta " + json.dumps(meta, default=str))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes:
        print(note)
    for g in gate_rows:
        print(f"gate {g['gate']}: {g['rejections']}/{g['tests']} = {g['rate']:.4f} "
              f"{g['rule']} {g['limit']:.4f} {'ok' if g['ok'] else 'FAILED'}")
    for line in violations[:KEEP_ERRORS]:
        print(f"violation: {line}")
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
