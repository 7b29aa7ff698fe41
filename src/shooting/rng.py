"""Deterministic derivation of nested random streams.

Every stochastic component derives its generator from (user seed, stream
tag, index) so that results are reproducible and independent of the order
in which the streams are consumed.
"""

from __future__ import annotations

import math
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


def check_float(value, name: str, least: float | None = None) -> None:
    """ValueError unless value is a finite real number (numpy's too) of at
    least least: a bool would read as 1.0 or 0.0, a NaN slips past a plain
    "< least" check, and a string or None would fail that check with a
    TypeError that names nothing."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a number, not a boolean")
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value) or (least is not None and value < least):
        raise ValueError(f"{name} must be finite" + ("" if least is None else f" and >= {least}"))


def regular_array(values, name: str, dtype=None) -> np.ndarray:
    """np.asarray(values, dtype); ValueError naming name for a ragged
    sequence, or, converted to a dtype, an object array holding a
    sequence, which numpy refuses in a message that names no argument."""
    try:
        return np.asarray(values, dtype)
    except ValueError:
        raise ValueError(f"{name} must be a regular array, not a ragged sequence") from None


def real_array(values, name: str, shape: tuple | None = None) -> np.ndarray:
    """values as a float array; ValueError for a ragged sequence, for
    complex values, whose imaginary part numpy would drop behind a mere
    ComplexWarning, and for strings and booleans, alone or in an object
    array (np.str_ and np.bool_ too), which numpy would parse as numbers
    or read as 0 and 1. Numeric objects such as Fraction pass. With shape
    (a tuple of lengths, None for a free one) given, also ValueError, in
    this order, for any other rank, any other length and a NaN or an
    infinity, which would otherwise come out of the arithmetic as a NaN
    result."""
    x = regular_array(values, name)
    kind = x.dtype.kind
    if kind == "c":
        raise ValueError(f"{name} must be real numbers, not complex")
    types = set(map(type, x.flat)) if kind == "O" else ()
    if kind in "US" or any(issubclass(t, (str, bytes)) for t in types):
        raise ValueError(f"{name} must be real numbers, not strings")
    if kind == "b" or any(issubclass(t, (bool, np.bool_)) for t in types):
        raise ValueError(f"{name} must be real numbers, not booleans")
    x = regular_array(x, name, float)
    if shape is not None:
        if x.ndim != len(shape):
            raise ValueError(f"{name} must be " + ("a vector" if len(shape) == 1 else "a 2-D matrix"))
        if any(n not in (None, length) for n, length in zip(shape, x.shape)):
            want = ", ".join("*" if n is None else str(n) for n in shape)
            raise ValueError(f"{name} must be of shape ({want}{',' * (len(shape) == 1)}), got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError(f"{name} must be finite")
    return x


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
