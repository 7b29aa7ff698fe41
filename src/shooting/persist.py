"""Versioned JSON model files for the three model kinds (format_version 5).

A document is UTF-8 JSON: a header (format, format_version, kind) and the
model's fields. Scalars, the ensemble's coefficients and its (p, k)
offsets are JSON numbers, which json's shortest-repr round trip keeps
bit for bit. The trees are one object: "nodes", the node count of each
tree in tree order, "feature_bytes", the width of a stored feature id,
and one string per tree field, "feature" (signed integers of that
width), "threshold" and "value" (float64). Each string is the base64 of
a zlib stream of all trees' arrays joined in tree order as little-endian
bytes; an SR model's leaf values are stored, every other blob deflated.
Floats therefore travel as their IEEE bytes and feature ids widen back
to int64, so a loaded model predicts bit for bit like the saved one by
construction. Format 4 files, which declare no width and hold int64
feature ids, still load. Writes go to a temp file in the target
directory followed by an atomic rename.

A document holds only what prediction reads, which is what a
RegressionTree holds: per tree, its feature array in level order, the
thresholds of its internal nodes and the values of its leaves, both in
node order; its width comes from the model. A tree of n nodes has
(n - 1) / 2 internal ones and (n + 1) / 2 leaves, so the node counts fix
the length of every blob. Loading inflates each blob no further than one
byte past that length and refuses any other length, data after the zlib
stream, and bad base64 or zlib.

This module checks only what JSON itself can get wrong: exactly the
kind's dataclass fields, each read by the one decoder of that field
name, number types, node counts that are positive odd integers, a
feature width of 1, 2, 4 or 8 bytes, and the blobs. A JSON true in a
number list stays a bool, which rng.real_array refuses. Each value is
checked by the class that holds it, for a loaded model as for one built
in code: each tree is built through RegressionTree at the model's width,
which checks the one structural rule (n = 2I + 1 nodes for I internal
ones, the j-th at an id <= 2j, so every node's parent comes before it),
integer feature indices in [0, n_features), the counts, finite floats
and an int64 width; the model's constructor checks its own fields, then
a tuple of trees as wide as the model. So no model that save_model could
be given fails to load, a loaded model never indexes outside its arrays
or stops on an internal node, and a document that fails a check raises
PersistError.
"""

from __future__ import annotations

import base64
import json
import os
import tempfile
import zlib
from dataclasses import fields
from itertools import accumulate

import numpy as np

from .baselines import GradientBoosting, RandomForest
from .ensemble import ShootingEnsemble
from .rng import real_array
from .tree import RegressionTree

FORMAT_NAME = "shooting-model"
FORMAT_VERSION = 5
# format 4 declared no feature width and stored int64 ids
_READABLE = (4, 5)
# zlib level of the deflated tree blobs: on auto-mpg models at k = 100,
# level 1 shrinks one-byte feature ids about 2.5x, thresholds 3x and RF's
# leaf values, which repeat bootstrapped targets, 4.5x. An SR leaf holds
# one training row's gradient target, so its values have no repeats to
# find: level 1 spent 4.5 of 7.5 ms compressing an SR model to save 2.9%
# of them, and they are written at level 0 (stored) instead.
ZLIB_LEVEL = 1
# the (kind, tree field) blobs written at level 0
_STORED = {("shooting", "value")}
# the feature id widths a document may declare, in bytes
_FEATURE_BYTES = (1, 2, 4, 8)
# tree field -> its numpy type at 8-byte feature ids; a blob holds it
# little-endian
_BLOBS = {"feature": "i8", "threshold": "f8", "value": "f8"}


class PersistError(ValueError):
    """Unrecognized or malformed model document."""


def _number(value) -> float:
    if type(value) not in (int, float):
        raise PersistError(f"expected a number, got {value!r}")
    return float(value)


def _blob(arrays, code: str, level: int) -> str:
    raw = np.concatenate(arrays).astype("<" + code, copy=False).tobytes()
    return base64.b64encode(zlib.compress(raw, level)).decode("ascii")


def _inflate(blob, name: str, size: int, code: str) -> np.ndarray:
    """The size entries of field name, of numpy type code, that a blob
    holds, feature ids widened to int64. Inflation stops one byte past
    them, so no blob can expand further than its node counts allow."""
    if type(blob) is not str:
        raise PersistError(f"{name}: expected a base64 string")
    nbytes = size * np.dtype(code).itemsize
    stream = zlib.decompressobj()
    try:
        # a non-ASCII string or bad base64 raises ValueError
        raw = stream.decompress(base64.b64decode(blob, validate=True), nbytes + 1)
    except (ValueError, zlib.error) as exc:
        raise PersistError(f"{name}: bad base64 or zlib data: {exc}") from exc
    if len(raw) != nbytes:
        got = "more" if len(raw) > nbytes else len(raw)
        raise PersistError(f"{name}: the node counts imply {nbytes} bytes, the blob holds {got}")
    if not stream.eof:
        raise PersistError(f"{name}: truncated zlib stream")
    if stream.unused_data:
        raise PersistError(f"{name}: data after the zlib stream")
    return np.frombuffer(raw, "<" + code).astype(_BLOBS[name])


def _trees(doc, version: int) -> tuple:
    """Each tree's (feature, threshold, value) from the trees document of
    a format_version; version 4 declares no feature_bytes and means 8."""
    names = ["nodes", *_BLOBS] + (["feature_bytes"] if version > 4 else [])
    if not isinstance(doc, dict) or set(doc) != set(names):
        raise PersistError(f"format_version {version} trees hold the fields {sorted(names)}")
    width = doc.get("feature_bytes", 8)
    if type(width) is not int or width not in _FEATURE_BYTES:
        raise PersistError(f"feature_bytes must be one of {_FEATURE_BYTES}, got {width!r}")
    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not all(type(n) is int and n > 0 and n % 2 for n in nodes):
        raise PersistError("expected node counts, a list of positive odd integers")
    # a tree of n = 2I + 1 nodes has I thresholds and I + 1 leaf values
    sizes = [nodes, [n // 2 for n in nodes], [n // 2 + 1 for n in nodes]]
    columns = []
    for (name, code), counts in zip({**_BLOBS, "feature": f"i{width}"}.items(), sizes):
        arr = _inflate(doc[name], name, sum(counts), code)
        columns.append([arr[end - n : end] for n, end in zip(counts, accumulate(counts))])
    return tuple(zip(*columns))


_KINDS = {"shooting": ShootingEnsemble, "rf": RandomForest, "gbm": GradientBoosting}
# model field -> its decoder; "trees" stays a document until the
# format_version and the model's width are known, and RegressionTree
# checks that width
_DECODERS = {
    # as objects, so a JSON true stays a bool for real_array to refuse
    "coefficients": lambda v: real_array(np.array(v, dtype=object), "coefficients"),
    "offsets": lambda v: real_array(np.array(v, dtype=object), "offsets"),
    "nu": _number,
    "base_value": _number,
    "learning_rate": _number,
    "n_features": lambda width: width,
    "trees": lambda doc: doc,
}
# kind -> the fields its document holds, in the class's order
_FIELDS = {kind: [f.name for f in fields(cls)] for kind, cls in _KINDS.items()}


def _encode(value, kind: str):
    """A field of a kind's model as JSON: trees as node counts, their
    feature width and blobs, and arrays as lists."""
    if isinstance(value, tuple):
        # the narrowest width whose signed range holds -1 and the largest
        # feature id of the model, which every tree is as wide as
        width = next(w for w in _FEATURE_BYTES if value[0].n_features - 1 < 2 ** (8 * w - 1))
        doc = {"nodes": [tree.n_nodes for tree in value], "feature_bytes": width}
        for name, code in {**_BLOBS, "feature": f"i{width}"}.items():
            level = 0 if (kind, name) in _STORED else ZLIB_LEVEL
            doc[name] = _blob([getattr(tree, name) for tree in value], code, level)
        return doc
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def _fields(names, doc) -> dict:
    if set(doc) != set(names):
        raise PersistError(f"expected the fields {sorted(names)}, got {sorted(doc)}")
    return {name: _DECODERS[name](doc[name]) for name in names}


def model_to_dict(model) -> dict:
    for kind, cls in _KINDS.items():
        if isinstance(model, cls):
            body = {name: _encode(getattr(model, name), kind) for name in _FIELDS[kind]}
            return {"format": FORMAT_NAME, "format_version": FORMAT_VERSION, "kind": kind, "model": body}
    raise PersistError(f"cannot serialize {type(model).__name__}")


def model_from_dict(doc: dict):
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise PersistError("not a model document")
    version = doc.get("format_version")
    if type(version) is not int or version not in _READABLE:
        raise PersistError(f"unsupported format_version {version!r}")
    kind = doc.get("kind")
    body = doc.get("model")
    if not isinstance(body, dict):
        raise PersistError("missing model body")
    # a list or dict kind is unhashable, so test its type first
    if not isinstance(kind, str) or kind not in _KINDS:
        raise PersistError(f"unknown model kind {kind!r}")
    try:
        values = _fields(_FIELDS[kind], body)
        # each tree takes the model's width: the coefficients but the intercept for SR
        width = values["n_features"] if "n_features" in values else values["coefficients"].size - 1
        trees = _trees(values["trees"], version)
        values["trees"] = tuple(RegressionTree(*arrays, n_features=width) for arrays in trees)
        return _KINDS[kind](**values)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise PersistError(f"malformed {kind} document: {exc}") from exc


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
