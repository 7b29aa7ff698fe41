"""Dataset ingestion, holdout splitting, and evaluation statistics."""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt

import numpy as np

from .rng import SPLIT_STREAM, SYNTH_STREAM, check_float, check_int, make_rng, real_array


class ParseError(ValueError):
    """A data file row could not be interpreted."""


class MetricError(ValueError):
    """A score is undefined for the given inputs (e.g. constant targets)."""


class DegenerateTestError(ValueError):
    """The test statistic is undefined (zero-variance differences)."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with an aligned regression target."""

    features: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        features = real_array(self.features, "features", 2)
        target = real_array(self.target, "target", 1)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "target", target)
        m, n = features.shape
        if m < 2:
            raise ValueError(f"need at least 2 rows, got {m}")
        if n < 1:
            raise ValueError("need at least 1 feature column")
        if target.size != m:
            raise ValueError("target length must match the number of feature rows")

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
    become the features, in file order: cylinders, displacement,
    horsepower, weight, acceleration, model year and origin. Rows whose
    horsepower entry is "?" are dropped and the quoted car-name field is
    discarded.
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
    return Dataset(table[:, 1:], table[:, 0])


def make_synthetic(m: int, n: int, noise_sd: float, seed: int) -> Dataset:
    """Gaussian features with a noisy linear response, reproducible per seed."""
    check_int(m, "m", 2)
    check_int(n, "n", 1)
    check_float(noise_sd, "noise_sd", 0)
    rng = make_rng(seed, SYNTH_STREAM)
    weights = rng.standard_normal(n)
    bias = rng.standard_normal()
    features = rng.standard_normal((m, n))
    target = features @ weights + bias + noise_sd * rng.standard_normal(m)
    return Dataset(features, target)


def _take(d: Dataset, idx: np.ndarray) -> Dataset:
    return Dataset(d.features[idx], d.target[idx])


def split(d: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded random holdout partition: (train, validation)."""
    check_float(val_fraction, "val_fraction")
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


def _vectors(least: int, **pair) -> tuple[np.ndarray, np.ndarray]:
    """The two keyword arguments as real_array vectors of one length, at
    least least long, checked before any arithmetic could turn a bad entry
    into a NaN result."""
    a, b = (real_array(values, name, 1) for name, values in pair.items())
    if a.size != b.size or a.size < least:
        raise ValueError(f"{' and '.join(pair)} must be equal-length vectors, at least {least} long")
    return a, b


def r_squared(y_true, y_pred) -> float:
    """Coefficient of determination 1 - SSres/SStot."""
    y_true, y_pred = _vectors(2, y_true=y_true, y_pred=y_pred)
    with np.errstate(over="ignore", invalid="ignore"):
        ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
        ss_res = float(np.sum((y_true - y_pred) ** 2))
    _in_range("squared errors", ss_tot, ss_res)
    if ss_tot == 0.0:
        raise MetricError("R^2 is undefined for a constant target")
    return 1.0 - ss_res / ss_tot


def mse(y_true, y_pred) -> float:
    """Mean squared error."""
    y_true, y_pred = _vectors(1, y_true=y_true, y_pred=y_pred)
    with np.errstate(over="ignore"):
        value = float(np.mean((y_true - y_pred) ** 2))
    _in_range("squared errors", value)
    return value


def student_t_p(t: float, df: int, sidedness: str = "two-sided") -> float:
    """Tail probability of Student's t via the regularized incomplete beta.

    sidedness "two-sided" gives P(|T| >= |t|); "greater" gives P(T >= t).
    """
    check_float(df, "df", 1)
    check_float(t, "t")
    t = float(t)
    # imported here: the t-test is the package's one use of scipy
    from scipy import special

    # betainc loses about eps/(1 - x) of relative precision: x near 1 takes the t CDF
    x = df / (df + t * t)
    if x <= 1.0 - 2.0**-20:
        two_sided = float(special.betainc(df / 2.0, 0.5, x))
    else:
        two_sided = float(2.0 * special.stdtr(df, -abs(t)))
    if sidedness == "two-sided":
        return two_sided
    if sidedness == "greater":
        return two_sided / 2.0 if t >= 0 else 1.0 - two_sided / 2.0
    raise ValueError(f"unknown sidedness {sidedness!r}")


def paired_t_test(a, b, sidedness: str = "two-sided") -> tuple[float, float]:
    """Paired t statistic and p-value for matched score vectors.

    "greater" tests the alternative mean(a) > mean(b).
    """
    a, b = _vectors(2, a=a, b=b)
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
