"""A pin on the random streams of the samplers.

From fixed ``substream`` seeds, each sampler below is called on a chain
whose stream it must keep: the bimodal matrix pair at L = 100 and L = 1, a
CPT pair and the checkerboard swap pair, each also on a split star, the
L = 1 pair on a star whose arms are runs of unmarked edges, and 5,000
single checkerboard swap steps.  One digest covers the draws of every
call (for the steps, each state) together with one ``rng.random()`` taken
after it, so a change to which draws a sampler returns, or to how far it
moves the stream, fails this test.

A change that moves a stream on purpose updates ``DIGEST`` and records the
old and new digests, and the ``--check`` output before and after, in
CHANGES.md.
"""

import hashlib

from exmcmc.chains import (
    BinaryMatrix,
    bimodal_target,
    checkerboard_swap_step,
    cpt_pair,
    make_permutation_state,
    mh_pm1_kernel,
)
from exmcmc.kernel import KernelPair
from exmcmc.rng import substream
from exmcmc.samplers import (
    build_split_star,
    build_star_tree,
    sample_iid,
    sample_parallel,
    sample_permuted_serial,
    sample_sequential,
    sample_tree,
)

SEED = 2024
DIGEST = "07a49d244076bae4cc4b996f9ae8f6468c7e50877e10dd6c26132b3a19b5b64a"


def _record(h, rng, draws, encode) -> None:
    for d in draws:
        h.update(encode(d))
    h.update(repr(rng.random()).encode())


def _stream_digest() -> str:
    h = hashlib.sha256()

    target = bimodal_target()
    kernel = mh_pm1_kernel(target)
    split_star = build_split_star(3, 2, 1)
    for L in (100, 1):
        pair = KernelPair.from_discrete(kernel, target, L)
        calls = (
            lambda x0, rng: sample_parallel(pair, x0, 9, rng),
            lambda x0, rng: sample_permuted_serial(pair, x0, 9, rng),
            lambda x0, rng: sample_tree(pair, x0, split_star, rng),
            lambda x0, rng: sample_sequential(pair, x0, 9, rng),
            lambda x0, rng: sample_iid(target, x0, 9, rng),
        )
        for c, call in enumerate(calls):
            rng = substream(SEED, L, c)
            for x0 in (25, 60, 90):
                _record(h, rng, call(x0, rng).draws, lambda s: repr(s).encode())

    # The loop's last pair (L = 1) on arms of three edges, two into unmarked vertices.
    star = build_star_tree(4, 3)
    rng = substream(SEED, 1, 5)
    for x0 in (25, 60, 90):
        _record(h, rng, sample_tree(pair, x0, star, rng).draws, lambda s: repr(s).encode())

    q_log = substream(SEED, 1000).standard_normal((8, 8))
    pair = cpt_pair(q_log, 16)
    x0 = make_permutation_state(range(8), q_log)
    calls = (
        lambda rng: sample_parallel(pair, x0, 9, rng),
        lambda rng: sample_permuted_serial(pair, x0, 9, rng),
        lambda rng: sample_tree(pair, x0, split_star, rng),
    )
    for c, call in enumerate(calls):
        rng = substream(SEED, 1001, c)
        for _ in range(3):
            _record(h, rng, call(rng).draws, lambda s: repr((s.perm, s.log_weight)).encode())

    entries = (substream(SEED, 2000).random((8, 6)) < 0.5).astype(int)
    swap = checkerboard_swap_step
    pair = KernelPair(swap, swap, step_size=25, reversible=True)
    x0 = BinaryMatrix(entries)
    calls = (
        lambda rng: sample_permuted_serial(pair, x0, 9, rng),
        lambda rng: sample_tree(pair, x0, split_star, rng),
    )
    for c, call in enumerate(calls):
        rng = substream(SEED, 2001 + c)
        for _ in range(3):
            _record(h, rng, call(rng).draws, lambda m: m.entries.tobytes())

    # Single swap steps, apart from the samplers' runs.
    rng = substream(SEED, 3000)
    m = BinaryMatrix(rng.random((20, 12)) < 0.4)
    states = []
    for _ in range(5_000):
        m = checkerboard_swap_step(m, rng)
        states.append(m)
    _record(h, rng, states, lambda m: m.entries.tobytes())

    return h.hexdigest()


def test_sampler_streams_are_pinned():
    assert _stream_digest() == DIGEST
