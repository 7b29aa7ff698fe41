"""Versioned JSON serialization for the three model kinds.

Floats ride through json's shortest-repr round trip untouched, so a
loaded model predicts bit-for-bit like the saved one. Writes go to a
temp file in the target directory followed by an atomic rename.

A document holds only what prediction reads. Loading checks it against
what a fit can write: node arrays of one length, child indices after
their parent's, each node but the root the child of exactly one node,
feature indices below n_features, leaves with no children and no
threshold, finite numbers and no booleans, the stored depth, at least one
tree, every tree as wide as the model, (p, k) offsets and nu >= 0 for the
ensemble, a learning_rate in (0, 1] for boosting. So a loaded model never
indexes outside its arrays or stops on an internal node; any document
that fails a check raises PersistError.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .baselines import GradientBoosting, RandomForest
from .ensemble import ShootingEnsemble
from .tree import LEAF, RegressionTree

FORMAT_NAME = "shooting-model"
FORMAT_VERSION = 2


class PersistError(ValueError):
    """Unrecognized or malformed model document."""


def _int(value) -> int:
    if type(value) is not int:
        raise PersistError(f"expected an integer, got {value!r}")
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


def _trees(docs) -> tuple:
    return tuple(_decode(RegressionTree, _TREE, doc) for doc in docs)


# class field -> decoder; np.array(..., dtype=float) reads null as nan
_TREE = {
    "feature": _ints,
    "threshold": lambda values: np.array(_numbers(values), dtype=float),
    "left": _ints,
    "right": _ints,
    "value": _finite,
    "depth": _int,
    "n_features": _int,
}
# kind -> (class, field decoders); "trees" is common to all kinds
_KINDS = {
    "shooting": (
        ShootingEnsemble,
        {"coefficients": _finite, "offsets": _finite, "nu": _number, "trees": _trees},
    ),
    "rf": (RandomForest, {"n_features": _int, "trees": _trees}),
    "gbm": (
        GradientBoosting,
        {"base_value": _number, "learning_rate": _number, "n_features": _int, "trees": _trees},
    ),
}


def _encode(obj, fields) -> dict:
    doc = {}
    for name in fields:
        value = getattr(obj, name)
        if isinstance(value, tuple):
            value = [_encode(tree, _TREE) for tree in value]
        elif isinstance(value, np.ndarray):
            # JSON has no nan: a leaf's nan threshold is written as null
            value = np.where(np.isnan(value), None, value).tolist()
        doc[name] = value
    return doc


def _decode(cls, fields, doc):
    if set(doc) != set(fields):
        raise PersistError(f"expected the fields {sorted(fields)}, got {sorted(doc)}")
    return cls(**{name: decode(doc[name]) for name, decode in fields.items()})


def _check_tree(tree: RegressionTree, n_features: int) -> None:
    n = tree.feature.size
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    if n == 0 or any(np.shape(a) != (n,) for a in arrays):
        raise PersistError("node arrays must be non-empty and of equal length")
    if tree.n_features != n_features:
        raise PersistError(
            f"tree has {tree.n_features} features, the model {n_features}"
        )
    leaf = tree.feature == LEAF
    if not (
        np.all(tree.left[leaf] == LEAF)
        and np.all(tree.right[leaf] == LEAF)
        and np.all(np.isnan(tree.threshold[leaf]))
    ):
        raise PersistError("a leaf has a child or a threshold")
    node = np.nonzero(~leaf)[0]
    feature, left, right = tree.feature[node], tree.left[node], tree.right[node]
    if not np.all((0 <= feature) & (feature < n_features)):
        raise PersistError("feature index out of range")
    if not np.all((node < left) & (left < n) & (node < right) & (right < n)):
        raise PersistError("child index not after its parent or out of range")
    if np.any(np.bincount(np.concatenate([left, right]), minlength=n)[1:] != 1):
        raise PersistError("every node but the root needs exactly one parent")
    if np.any(np.isnan(tree.threshold[node])):
        raise PersistError("internal node without a threshold")
    depth, level = -1, np.zeros(1, dtype=np.int64)
    while level.size:
        depth += 1
        level = np.concatenate([tree.left[level], tree.right[level]])
        level = level[level != LEAF]
    if depth != tree.depth:
        raise PersistError(f"stored depth {tree.depth} is not the tree's {depth}")


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
    for tree in model.trees:
        _check_tree(tree, model.n_features)


def model_to_dict(model) -> dict:
    for kind, (cls, fields) in _KINDS.items():
        if isinstance(model, cls):
            body = _encode(model, fields)
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
    try:
        model = _decode(*_KINDS[kind], body)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PersistError(f"malformed {kind} document: {exc}") from exc
    _check_model(model)
    return model


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename over the target."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
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
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise PersistError(f"invalid JSON: {exc}") from exc
    return model_from_dict(doc)
