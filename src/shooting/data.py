"""Dataset ingestion, holdout splitting, and evaluation statistics."""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .rng import SPLIT_STREAM, SYNTH_STREAM, check_int, make_rng


class ParseError(ValueError):
    """A data file row could not be interpreted."""


class MetricError(ValueError):
    """A score is undefined for the given inputs (e.g. constant targets)."""


class DegenerateTestError(ValueError):
    """The test statistic is undefined (zero-variance differences)."""


MPG_FEATURE_NAMES = [
    "cylinders",
    "displacement",
    "horsepower",
    "weight",
    "acceleration",
    "model_year",
    "origin",
]


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with an aligned regression target."""

    features: np.ndarray
    target: np.ndarray
    feature_names: list[str]

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        target = np.asarray(self.target, dtype=float)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "target", target)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        m, n = features.shape
        if m < 2:
            raise ValueError(f"need at least 2 rows, got {m}")
        if n < 1:
            raise ValueError("need at least 1 feature column")
        if target.shape != (m,):
            raise ValueError("target length must match the number of feature rows")
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        if not np.all(np.isfinite(target)):
            raise ValueError("target contains non-finite values")
        if len(self.feature_names) != n:
            raise ValueError("feature_names must have one entry per column")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def _parse_mpg_line(line: str, lineno: int) -> list[float] | None:
    """One UCI row -> [mpg, 7 features], or None when horsepower is '?'."""
    stripped = line.strip()
    first_quote = stripped.find('"')
    if first_quote < 0 or not stripped.endswith('"') or len(stripped) - 1 == first_quote:
        raise ParseError(f"line {lineno}: expected a trailing quoted car name")
    head = stripped[:first_quote].split()
    if len(head) != 8:
        raise ParseError(
            f"line {lineno}: expected 8 fields before the car name, got {len(head)}"
        )
    if head[3] == "?":
        return None
    values = []
    for token in head:
        try:
            values.append(float(token))
        except ValueError:
            raise ParseError(f"line {lineno}: unparsable field {token!r}") from None
    return values


def load_auto_mpg(path) -> Dataset:
    """Read the whitespace-delimited UCI fuel-economy file.

    The mpg column becomes the target; the seven numeric columns after it
    become the features. Rows whose horsepower entry is "?" are dropped and
    the quoted car-name field is discarded.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parsed = _parse_mpg_line(line, lineno)
        if parsed is not None:
            rows.append(parsed)
    if len(rows) < 2:
        raise ParseError(f"{path}: need at least 2 usable rows, got {len(rows)}")
    table = np.array(rows)
    return Dataset(table[:, 1:], table[:, 0], list(MPG_FEATURE_NAMES))


def make_synthetic(m: int, n: int, noise_sd: float, seed: int) -> Dataset:
    """Gaussian features with a noisy linear response, reproducible per seed."""
    check_int(m, "m", 2)
    check_int(n, "n", 1)
    if noise_sd < 0:
        raise ValueError("noise_sd must be nonnegative")
    rng = make_rng(seed, SYNTH_STREAM)
    weights = rng.standard_normal(n)
    bias = rng.standard_normal()
    features = rng.standard_normal((m, n))
    target = features @ weights + bias + noise_sd * rng.standard_normal(m)
    return Dataset(features, target, [f"x{j}" for j in range(n)])


def _take(d: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset(d.features[idx], d.target[idx], list(d.feature_names))


def split(d: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded random holdout partition: (train, validation)."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError("val_fraction must lie in (0, 1)")
    m = d.n_rows
    n_val = int(round(m * val_fraction))
    n_train = m - n_val
    if n_val < 2 or n_train < 2:
        raise ValueError(
            f"split sizes ({n_train}, {n_val}) too small; both partitions need >= 2 rows"
        )
    perm = make_rng(seed, SPLIT_STREAM).permutation(m)
    return _take(d, perm[n_val:]), _take(d, perm[:n_val])


def _in_range(what: str, *sums: float) -> None:
    """Finite inputs can still subtract or square past the float range:
    such a score is a MetricError, not inf or NaN."""
    if not all(map(isfinite, sums)):
        raise MetricError(f"{what} overflow the float range")


def _vectors(a, b, least: int) -> tuple[np.ndarray, np.ndarray]:
    """a and b as float vectors of one length, at least least; ValueError
    otherwise, or for a NaN or inf entry, before any arithmetic could turn
    it into a NaN result."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or a.size < least:
        raise ValueError(f"need two equal-length vectors, at least {least} long")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("inputs must be finite")
    return a, b


def r_squared(y_true, y_pred) -> float:
    """Coefficient of determination 1 - SSres/SStot."""
    y_true, y_pred = _vectors(y_true, y_pred, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
        ss_res = float(np.sum((y_true - y_pred) ** 2))
    _in_range("squared errors", ss_tot, ss_res)
    if ss_tot == 0.0:
        raise MetricError("R^2 is undefined for a constant target")
    return 1.0 - ss_res / ss_tot


def mse(y_true, y_pred) -> float:
    """Mean squared error."""
    y_true, y_pred = _vectors(y_true, y_pred, 1)
    with np.errstate(over="ignore"):
        value = float(np.mean((y_true - y_pred) ** 2))
    _in_range("squared errors", value)
    return value


def student_t_p(t: float, df: int, sidedness: str = "two-sided") -> float:
    """Tail probability of Student's t via the regularized incomplete beta.

    sidedness "two-sided" gives P(|T| >= |t|); "greater" gives P(T >= t).
    """
    # imported here: scipy.special is most of the package's import time
    from scipy import special

    if not df >= 1:
        raise ValueError("df must be >= 1")
    t = float(t)
    if not isfinite(t):
        raise ValueError("t must be finite")
    x = df / (df + t * t)
    two_sided = float(special.betainc(df / 2.0, 0.5, x))
    if sidedness == "two-sided":
        return two_sided
    if sidedness == "greater":
        return two_sided / 2.0 if t >= 0 else 1.0 - two_sided / 2.0
    raise ValueError(f"unknown sidedness {sidedness!r}")


def paired_t_test(a, b, sidedness: str = "two-sided") -> tuple[float, float]:
    """Paired t statistic and p-value for matched score vectors.

    "greater" tests the alternative mean(a) > mean(b).
    """
    a, b = _vectors(a, b, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = a - b
        sd = float(diff.std(ddof=1))
    # an inf or NaN mean makes sd one too
    _in_range("paired differences", float(np.abs(diff).max()), sd)
    if sd == 0.0:
        raise DegenerateTestError("paired differences have zero variance")
    n = diff.size
    t = float(diff.mean()) / (sd / sqrt(n))
    return t, student_t_p(t, n - 1, sidedness)
