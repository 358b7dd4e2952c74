"""Seeded, splittable random streams.

Every sampling operation in the package receives an explicit
``numpy.random.Generator``.  Substreams are derived from a master seed and an
integer path, so that replications get independent streams whose output does
not depend on scheduling.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator derived from ``(seed, path)``.

    Streams with distinct paths are statistically independent, and the same
    ``(seed, path)`` always yields the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))
