"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public entry points of the ``exmcmc`` layers from the
outside (module attributes and class methods are replaced, never the source)
and records, for every wrapped call, a span with its name, start, end and
parent.  Aggregates (call count, inclusive time, self time) are kept for
every call; the span table itself is kept for the first ``span_cap`` spans,
so that memory stays bounded on long runs, and is written out at the end.

Self time is a span's duration minus the time its child spans cover.  The
wrapper's bookkeeping between its entry and exit clock reads is timed on
every call and charged to no span.  What is left is measured once by
calibration and subtracted: the part inside a span's own clock reads
(entering ``fn``, reading the clock) and the part its parent still sees
(calling the wrapper instead of ``fn`` directly).  Self times of all spans
under a test then add up to that test's duration less the tracer's own cost.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter

LAYERS = ("kernel", "chains", "stat", "samplers", "pvalue")


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.children: list[int] = []
        self.descendants: list[int] = []
        self.gap_within: list[float] = []
        # A frame is [time covered by children, name id, children,
        # descendants, tracer time among the descendants].
        self._stack = [[0.0, -1, 0, 0, 0.0]]
        self._open = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        self.counters: dict[str, int] = {}
        self.inside_s = 0.0  # bookkeeping inside a span's own clock reads
        self.outside_s = 0.0  # bookkeeping a child leaves in its parent's self
        self.span_cap = span_cap
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.layers.append(layer)
        for column, zero in ((self.calls, 0), (self.total, 0.0), (self.self_time, 0.0),
                             (self.children, 0), (self.descendants, 0),
                             (self.gap_within, 0.0)):
            column.append(zero)
        return len(self.names) - 1

    def wrap(self, fn, name: str, layer: str, hook=None):
        """Return ``fn`` wrapped in a span; ``hook(args, result)`` runs after
        the span closes and its time is charged to no span."""
        nid = self.name_id(name, layer)
        stack, open_ = self._stack, self._open
        calls, total, self_time = self.calls, self.total, self.self_time
        children, descendants, gap_within = self.children, self.descendants, self.gap_within
        sp_name, sp_parent = self.sp_name, self.sp_parent
        sp_start, sp_end = self.sp_start, self.sp_end
        cap = self.span_cap

        def traced(*args, **kwargs):
            entry = perf_counter()
            parent = stack[-1]
            frame = [0.0, nid, 0, 0, 0.0]
            stack.append(frame)
            idx = len(sp_start)
            store = idx < cap
            if store:
                sp_name.append(nid)
                sp_parent.append(open_[-1])
                sp_start.append(0.0)
                sp_end.append(0.0)
                open_.append(idx)
            t0 = t1 = perf_counter()
            try:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                if hook is not None:
                    hook(args, result)
            finally:
                stack.pop()
                if store:
                    open_.pop()
                    sp_start[idx] = t0
                    sp_end[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                total[nid] += dur
                self_time[nid] += dur - frame[0]
                children[nid] += frame[2]
                descendants[nid] += frame[3]
                gap_within[nid] += frame[4]
                parent[2] += 1
                parent[3] += frame[3] + 1
                parent[4] += frame[4]
                exit_ = perf_counter()
                parent[0] += exit_ - entry
                parent[4] += exit_ - entry - dur
            return result

        return traced

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def current_name(self) -> int:
        return self._stack[-1][1]

    def reset(self) -> None:
        """Drop everything recorded so far (used after the warm-up test)."""
        for column in (self.calls, self.children, self.descendants):
            column[:] = [0] * len(self.names)
        for column in (self.total, self.self_time, self.gap_within):
            column[:] = [0.0] * len(self.names)
        self.counters.clear()
        for column in (self.sp_name, self.sp_parent, self.sp_start, self.sp_end):
            del column[:]

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, name: str, layer: str, hook=None) -> None:
        self.patch_raw(owner, attr, self.wrap(getattr(owner, attr), name, layer, hook))

    def patch_raw(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), replacement))
        setattr(owner, attr, replacement)

    def suspend(self) -> None:
        """Put the original callables back; ``resume`` re-installs the wrappers."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def resume(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def calibrate(self, rounds: int = 5, calls: int = 20_000) -> None:
        """Measure the bookkeeping left in a wrapped no-op's own duration
        (inside) and in the self time of a parent calling it ``calls`` times,
        beyond a loop of plain no-op calls (outside).  Medians over
        ``rounds``."""
        probe = Tracer(span_cap=0)

        def noop():
            return None

        child = probe.wrap(noop, "child", "calibration")

        def loop():
            for _ in range(calls):
                child()

        parent = probe.wrap(loop, "parent", "calibration")
        inside, outside = [], []
        for _ in range(rounds):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            plain = perf_counter() - t0
            probe.reset()
            parent()
            inside.append(probe.total[0] / calls)
            outside.append((probe.self_time[1] - plain) / calls)
        self.inside_s = sorted(inside)[rounds // 2]
        self.outside_s = sorted(outside)[rounds // 2]

    # -- results -----------------------------------------------------------

    def summary(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) for a name, with the
        tracer's own cost taken out."""
        if name not in self.names:
            return 0, 0.0, 0.0
        i = self.names.index(name)
        spans = self.calls[i] + self.descendants[i]
        inclusive = (self.total[i] - self.gap_within[i] - spans * self.inside_s
                     - self.descendants[i] * self.outside_s)
        own = (self.self_time[i] - self.calls[i] * self.inside_s
               - self.children[i] * self.outside_s)
        return self.calls[i], inclusive, own

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, layer in zip(self.names, self.layers):
            if layer in out:
                out[layer] += self.summary(name)[2]
        return out

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON columns; times in microseconds from
        the first kept span.  Returns the number of spans written."""
        n = len(self.sp_start)
        base = self.sp_start[0] if n else 0.0
        doc = {
            "names": self.names,
            "layers": self.layers,
            "columns": ["name", "parent", "start_us", "end_us"],
            "name": list(self.sp_name),
            "parent": list(self.sp_parent),
            "start_us": [round((t - base) * 1e6, 3) for t in self.sp_start],
            "end_us": [round((t - base) * 1e6, 3) for t in self.sp_end],
            "kept": n,
            "cap": self.span_cap,
            "total_calls": sum(self.calls),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return n


def install(tracer: Tracer, workload) -> None:
    """Wrap the public entry points of the kernel, chains, samplers and
    pvalue layers, plus the workload's statistic and its test function.

    Call before ``workload.setup()``: pairs built afterwards capture the
    wrapped step callables.
    """
    import exmcmc.chains as chains
    import exmcmc.kernel as kernel
    import exmcmc.pvalue as pvalue
    import exmcmc.samplers as samplers

    tracer.patch(kernel.KernelPair, "super_forward", "kernel.super_forward", "kernel")
    tracer.patch(kernel.KernelPair, "super_reverse", "kernel.super_reverse", "kernel")
    super_ids = {tracer.name_id("kernel.super_forward", "kernel"),
                 tracer.name_id("kernel.super_reverse", "kernel")}
    # A matrix-backed super-step draws through DiscreteKernel.step; that draw
    # is the super-step's own work, so only calls made outside a super-step
    # (the tree's one-step draws) get a span of their own.
    raw_step = kernel.DiscreteKernel.step
    unit_step = tracer.wrap(raw_step, "kernel.unit_step", "kernel")

    def step(*args, **kwargs):
        if tracer.current_name() in super_ids:
            return raw_step(*args, **kwargs)
        return unit_step(*args, **kwargs)

    tracer.patch_raw(kernel.DiscreteKernel, "step", step)

    def moved(args, result):
        tracer.count("chains.proposals")
        if result is not args[0]:
            tracer.count("chains.accepted")

    tracer.patch(chains, "cpt_swap_step", "chains.cpt_swap_step", "chains", moved)
    tracer.patch(chains, "checkerboard_swap_step", "chains.checkerboard_swap_step",
                 "chains", moved)
    tracer.patch(chains, "make_permutation_state", "chains.make_permutation_state", "chains")
    tracer.patch(chains, "cpt_pair", "chains.cpt_pair", "chains")
    tracer.patch(chains, "association_statistic", "stat.association_statistic", "stat")

    key = workload.state_key

    def stuck(args, result):
        x0 = key(args[1])
        tracer.count("samplers.draws", len(result.draws))
        tracer.count("samplers.stuck", sum(1 for d in result.draws if key(d) == x0))

    for name in ("sample_parallel", "sample_permuted_serial", "sample_tree"):
        tracer.patch(samplers, name, f"samplers.{name}", "samplers", stuck)

    def ties(args, result):
        t0, draws = args[0], args[1]
        tracer.count("pvalue.draws", len(draws))
        tracer.count("pvalue.ties", sum(1 for t in draws if t == t0))

    tracer.patch(pvalue, "p_mc", "pvalue.p_mc", "pvalue", ties)

    for attr in workload.statistic_attrs:
        tracer.patch(workload, attr, f"stat.{getattr(workload, attr).__name__}", "stat")
    tracer.patch(workload, "test", "test", "harness")
