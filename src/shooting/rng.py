"""Deterministic derivation of nested random streams.

Every stochastic component derives its generator from (user seed, stream
tag, index) so that results are reproducible and independent of the order
in which the streams are consumed.
"""

from __future__ import annotations

import numbers

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


def check_int(value, name: str, least: int | None = None) -> None:
    """ValueError unless value is an integer (numpy's too, bool not) of at
    least least: numpy would fail on a count of 2.5 or truncate a seed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


def _entropy(parts) -> list[int]:
    """Each part as 64 bits; ValueError for a bool or a non-integer part,
    which int() would otherwise truncate into another seed's stream."""
    for p in parts:
        check_int(p, "seed")
    return [int(p) & _MASK64 for p in parts]


def derive_seed(*parts: int) -> int:
    """Hash integer parts into a single 64-bit seed (order sensitive)."""
    return int(np.random.SeedSequence(_entropy(parts)).generate_state(1, np.uint64)[0])


def make_rng(*parts: int) -> np.random.Generator:
    """Generator seeded deterministically from the given parts."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(parts)))
