"""Deterministic derivation of nested random streams.

Every stochastic component derives its generator from (user seed, stream
tag, index) so that results are reproducible and independent of the order
in which the streams are consumed.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream tags keep generators derived from the same user seed from colliding.
# Tag 4 is retired (trees draw nothing); the others keep their numbers so
# every stream's draws are unchanged.
SPLIT_STREAM = 1
SYNTH_STREAM = 2
OFFSET_STREAM = 3
BOOTSTRAP_STREAM = 5
TRIAL_STREAM = 6


def derive_seed(*parts: int) -> int:
    """Hash integer parts into a single 64-bit seed (order sensitive)."""
    entropy = [int(p) & _MASK64 for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def make_rng(*parts: int) -> np.random.Generator:
    """Generator seeded deterministically from the given parts."""
    entropy = [int(p) & _MASK64 for p in parts]
    return np.random.default_rng(np.random.SeedSequence(entropy))
