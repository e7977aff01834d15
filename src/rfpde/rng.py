"""Reproducible random streams.

All randomness in the package flows through Philox, a counter-based 64-bit
generator, so the neuron draws are bit-identical on every platform. The
solutions computed from them repeat bit for bit only at a fixed BLAS build and
thread count, because the least-squares solves round differently with
another blocking. Each subdomain k
draws from its own substream, derived by spawn key so that discovering a new
subdomain never perturbs the draws of existing ones.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for the given seed and substream index.

    Substream k is ``SeedSequence(seed, spawn_key=(k,))`` feeding Philox;
    substreams are statistically independent for distinct k.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.Philox(ss))
