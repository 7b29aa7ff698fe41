"""Versioned JSON serialization for the three model kinds.

Floats ride through json's shortest-repr round trip untouched, so a
loaded model predicts bit-for-bit like the saved one. Files are UTF-8,
and writes go to a temp file in the target directory followed by an
atomic rename.

A document holds only what prediction reads, which is what a
RegressionTree holds: per tree, its feature array in level order, the
thresholds of its internal nodes and the values of its leaves, both in
node order; its width comes from the model. Loading builds each tree
through RegressionTree, whose constructor checks the one structural rule
(n = 2I + 1 nodes for I internal ones with the j-th internal node at an
id <= 2j, so every node's parent comes before it), feature indices in
[0, n_features) and one threshold per internal node and one value per
leaf. This module checks the rest of what a fit can write: finite numbers
and no booleans; at least one tree; (p, k) offsets and nu >= 0 for the
ensemble; a learning_rate in (0, 1] for boosting. So a loaded model never
indexes outside its arrays or stops on an internal node; any file or
document that fails a check raises PersistError.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import replace

import numpy as np

from .baselines import GradientBoosting, RandomForest
from .ensemble import ShootingEnsemble
from .tree import RegressionTree

FORMAT_NAME = "shooting-model"
FORMAT_VERSION = 3


class PersistError(ValueError):
    """Unrecognized or malformed model document."""


def _width(value) -> int:
    """A feature count, the width every tree of the model takes: one that
    no int64 holds is refused here rather than left for predict."""
    if type(value) is not int or not 0 <= value < 2**63:
        raise PersistError(f"expected a feature count, got {value!r}")
    return value


def _numbers(values):
    """values, unless a JSON true or false sits in them (also in nested
    lists): numpy would read it as 1 or 0 and the model would load."""
    types = set(map(type, values)) if isinstance(values, list) else set()
    if bool in types:
        raise PersistError("expected numbers, got a boolean")
    if list in types:
        for row in values:
            _numbers(row)
    return values


def _ints(values) -> np.ndarray:
    arr = np.array(_numbers(values))
    if arr.ndim != 1 or (arr.size and arr.dtype.kind != "i"):
        raise PersistError("expected a list of integers")
    return arr.astype(np.int64)


def _number(value) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise PersistError(f"expected a finite number, got {value!r}")
    return float(value)


def _finite(values) -> np.ndarray:
    arr = np.array(_numbers(values), dtype=float)
    if not np.all(np.isfinite(arr)):
        raise PersistError("expected finite numbers")
    return arr


# tree document field -> decoder
_TREE = {"feature": _ints, "threshold": _finite, "value": _finite}
# kind -> (class, field decoders); "trees" holds the tree documents until
# the model's width is known
_KINDS = {
    "shooting": (
        ShootingEnsemble,
        {"coefficients": _finite, "offsets": _finite, "nu": _number, "trees": tuple},
    ),
    "rf": (RandomForest, {"n_features": _width, "trees": tuple}),
    "gbm": (
        GradientBoosting,
        {"base_value": _number, "learning_rate": _number, "n_features": _width, "trees": tuple},
    ),
}


def _encode(value):
    """A field as JSON: trees as tree documents, arrays as lists."""
    if isinstance(value, tuple):
        return [{name: getattr(tree, name).tolist() for name in _TREE} for tree in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def _fields(fields, doc) -> dict:
    if set(doc) != set(fields):
        raise PersistError(f"expected the fields {sorted(fields)}, got {sorted(doc)}")
    return {name: decode(doc[name]) for name, decode in fields.items()}


def _tree(doc, n_features: int) -> RegressionTree:
    return RegressionTree(**_fields(_TREE, doc), n_features=n_features)


def _check_model(model) -> None:
    if not model.trees:
        raise PersistError("model has no trees")
    if isinstance(model, ShootingEnsemble):
        if np.ndim(model.coefficients) != 1:
            raise PersistError("coefficients must be a vector")
        p = model.coefficients.size
        if np.shape(model.offsets) != (p, model.k):
            raise PersistError(f"offsets must have shape ({p}, {model.k})")
        if model.nu < 0.0:
            raise PersistError("nu must be >= 0")
    if isinstance(model, GradientBoosting) and not 0.0 < model.learning_rate <= 1.0:
        raise PersistError("learning_rate must be in (0, 1]")


def model_to_dict(model) -> dict:
    for kind, (cls, fields) in _KINDS.items():
        if isinstance(model, cls):
            body = {name: _encode(getattr(model, name)) for name in fields}
            return {"format": FORMAT_NAME, "format_version": FORMAT_VERSION, "kind": kind, "model": body}
    raise PersistError(f"cannot serialize {type(model).__name__}")


def model_from_dict(doc: dict):
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise PersistError("not a model document")
    if doc.get("format_version") != FORMAT_VERSION:
        raise PersistError(f"unsupported format_version {doc.get('format_version')!r}")
    kind = doc.get("kind")
    body = doc.get("model")
    if not isinstance(body, dict):
        raise PersistError("missing model body")
    if kind not in _KINDS:
        raise PersistError(f"unknown model kind {kind!r}")
    cls, fields = _KINDS[kind]
    try:
        model = cls(**_fields(fields, body))
        _check_model(model)
        trees = tuple(_tree(tree, model.n_features) for tree in model.trees)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise PersistError(f"malformed {kind} document: {exc}") from exc
    return replace(model, trees=trees)


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename over the target."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_model(model, path: str) -> None:
    doc = model_to_dict(model)
    write_text_atomic(path, json.dumps(doc, allow_nan=False) + "\n")


def load_model(path: str):
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (ValueError, RecursionError) as exc:
            # not UTF-8, not JSON, or nested deeper than the parser recurses
            raise PersistError(f"invalid JSON: {exc}") from exc
    return model_from_dict(doc)
