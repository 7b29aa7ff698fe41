"""Versioned JSON model files for the three model kinds (format_version 4).

A document is UTF-8 JSON: a header (format, format_version, kind) and the
model's fields. Scalars, the ensemble's coefficients and its (p, k)
offsets are JSON numbers, which json's shortest-repr round trip keeps
bit for bit. The trees are one object: "nodes", the node count of each
tree in tree order, and one string per tree field, "feature" (int64),
"threshold" and "value" (float64). Each string is the base64 of a zlib
stream of all trees' arrays joined in tree order as little-endian bytes.
Floats therefore travel as their IEEE bytes, so a loaded model predicts
bit for bit like the saved one by construction. Writes go to a temp file
in the target directory followed by an atomic rename.

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
name, number types, booleans in number lists, node counts that are
positive odd integers, and the blobs. Each value is checked by the class
that holds it, for a loaded model as for one built in code: each tree is
built through RegressionTree at the model's width, which checks the one
structural rule (n = 2I + 1 nodes for I internal ones, the j-th at an id
<= 2j, so every node's parent comes before it), feature indices in
[0, n_features), the counts, finite floats and an int64 width; the
model's constructor checks its own fields, then a tuple of trees as wide
as the model. So no model that save_model could be given fails to load,
a loaded model never indexes outside its arrays or stops on an internal
node, and a document that fails a check raises PersistError.
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
from .tree import RegressionTree

FORMAT_NAME = "shooting-model"
FORMAT_VERSION = 4
# zlib level of the tree blobs. On auto-mpg models at k = 100, level 1
# deflates an SR model's arrays in 7 ms to 306 KB of base64, level 3 in
# 9 ms to 294 KB and level 6 in 20 ms to 285 KB: the leaf values, two
# thirds of the file, barely compress at any level.
ZLIB_LEVEL = 1
# tree field -> its numpy type; a blob holds it little-endian
_BLOBS = {"feature": "i8", "threshold": "f8", "value": "f8"}


class PersistError(ValueError):
    """Unrecognized or malformed model document."""


def _floats(values) -> np.ndarray:
    """values as a float array, unless a JSON true or false sits in them
    (also in nested lists): numpy would read it as 1 or 0 and the model
    would load."""
    types = set(map(type, values)) if isinstance(values, list) else set()
    if bool in types:
        raise PersistError("expected numbers, got a boolean")
    if list in types:
        for row in values:
            _floats(row)
    return np.array(values, dtype=float)


def _number(value) -> float:
    if type(value) not in (int, float):
        raise PersistError(f"expected a number, got {value!r}")
    return float(value)


def _blob(arrays, code: str) -> str:
    raw = np.concatenate(arrays).astype("<" + code, copy=False).tobytes()
    return base64.b64encode(zlib.compress(raw, ZLIB_LEVEL)).decode("ascii")


def _inflate(blob, name: str, size: int) -> np.ndarray:
    """The size entries of field name that a blob holds. Inflation stops
    one byte past them, so no blob can expand further than its node
    counts allow."""
    if type(blob) is not str:
        raise PersistError(f"{name}: expected a base64 string")
    code = _BLOBS[name]
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
    return np.frombuffer(raw, "<" + code).astype(code)


def _trees(doc) -> tuple:
    """Each tree's (feature, threshold, value) from the trees document."""
    if not isinstance(doc, dict) or set(doc) != {"nodes", *_BLOBS}:
        raise PersistError(f"expected trees with the fields {sorted(['nodes', *_BLOBS])}")
    nodes = doc["nodes"]
    if not isinstance(nodes, list) or not all(type(n) is int and n > 0 and n % 2 for n in nodes):
        raise PersistError("expected node counts, a list of positive odd integers")
    # a tree of n = 2I + 1 nodes has I thresholds and I + 1 leaf values
    sizes = [nodes, [n // 2 for n in nodes], [n // 2 + 1 for n in nodes]]
    columns = []
    for name, counts in zip(_BLOBS, sizes):
        arr = _inflate(doc[name], name, sum(counts))
        columns.append([arr[end - n : end] for n, end in zip(counts, accumulate(counts))])
    return tuple(zip(*columns))


_KINDS = {"shooting": ShootingEnsemble, "rf": RandomForest, "gbm": GradientBoosting}
# model field -> its decoder; "trees" holds each tree's arrays until the
# model's width is known, and RegressionTree checks that width
_DECODERS = {
    "coefficients": _floats,
    "offsets": _floats,
    "nu": _number,
    "base_value": _number,
    "learning_rate": _number,
    "n_features": lambda width: width,
    "trees": _trees,
}
# kind -> the fields its document holds, in the class's order
_FIELDS = {kind: [f.name for f in fields(cls)] for kind, cls in _KINDS.items()}


def _encode(value):
    """A field as JSON: trees as node counts and blobs, arrays as lists."""
    if isinstance(value, tuple):
        doc = {"nodes": [tree.n_nodes for tree in value]}
        for name, code in _BLOBS.items():
            doc[name] = _blob([getattr(tree, name) for tree in value], code)
        return doc
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


def _fields(names, doc) -> dict:
    if set(doc) != set(names):
        raise PersistError(f"expected the fields {sorted(names)}, got {sorted(doc)}")
    return {name: _DECODERS[name](doc[name]) for name in names}


def model_to_dict(model) -> dict:
    for kind, cls in _KINDS.items():
        if isinstance(model, cls):
            body = {name: _encode(getattr(model, name)) for name in _FIELDS[kind]}
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
    # a list or dict kind is unhashable, so test its type first
    if not isinstance(kind, str) or kind not in _KINDS:
        raise PersistError(f"unknown model kind {kind!r}")
    try:
        values = _fields(_FIELDS[kind], body)
        # each tree takes the model's width: the coefficients but the intercept for SR
        width = values["n_features"] if "n_features" in values else values["coefficients"].size - 1
        values["trees"] = tuple(RegressionTree(*arrays, n_features=width) for arrays in values["trees"])
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
