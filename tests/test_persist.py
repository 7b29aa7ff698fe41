"""Model documents must survive the disk round trip prediction-exact."""

from __future__ import annotations

import base64
import copy
import hashlib
import json
import math
import pathlib
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shooting import (
    GBMConfig,
    PersistError,
    RandomForest,
    RFConfig,
    RegressionTree,
    SRConfig,
    fit_gbm,
    fit_rf,
    fit_shooting,
    load_model,
    make_synthetic,
    model_from_dict,
    model_to_dict,
    predict,
    predict_gbm,
    predict_rf,
    save_model,
)
from shooting.persist import write_text_atomic


@pytest.fixture(scope="module")
def train():
    return make_synthetic(50, 3, 1.0, 17)


@pytest.fixture(scope="module")
def query():
    return make_synthetic(20, 3, 1.0, 23).features


def test_shooting_round_trip_exact(tmp_path, train, query):
    model = fit_shooting(train, SRConfig(k=5, seed=17))
    path = tmp_path / "sr.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.nu == model.nu
    assert np.array_equal(predict(loaded, query), predict(model, query))


def test_rf_round_trip_exact(tmp_path, train, query):
    model = fit_rf(train, RFConfig(n_trees=4, seed=1))
    path = tmp_path / "rf.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert np.array_equal(predict_rf(loaded, query), predict_rf(model, query))


def test_gbm_round_trip_exact(tmp_path, train, query):
    model = fit_gbm(train, GBMConfig(n_stages=6, seed=2))
    path = tmp_path / "gbm.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.base_value == model.base_value
    assert loaded.learning_rate == model.learning_rate
    assert np.array_equal(predict_gbm(loaded, query), predict_gbm(model, query))


# tree field -> its type in a blob, little-endian
CODES = {"feature": "<i8", "threshold": "<f8", "value": "<f8"}


def blob(values, code: str) -> str:
    """A tree blob as format 4 holds one: base64 of the zlib stream of the
    entries' little-endian bytes."""
    raw = np.asarray(values, dtype=code).tobytes()
    return base64.b64encode(zlib.compress(raw)).decode("ascii")


def unblob(text: str, code: str) -> list:
    return np.frombuffer(zlib.decompress(base64.b64decode(text)), code).tolist()


def tree_lists(doc: dict) -> list[dict]:
    """Each tree of a document as lists: feature, threshold and value."""
    trees = doc["model"]["trees"]
    flat = {name: unblob(trees[name], code) for name, code in CODES.items()}
    starts = dict.fromkeys(CODES, 0)
    out = []
    for n in trees["nodes"]:
        tree = {}
        for name, size in zip(CODES, (n, n // 2, n // 2 + 1)):
            tree[name] = flat[name][starts[name] : starts[name] + size]
            starts[name] += size
        out.append(tree)
    assert starts == {name: len(entries) for name, entries in flat.items()}
    return out


def set_tree_lists(doc: dict, trees: list[dict]) -> None:
    """Write trees, given as lists, into a document as format 4 does."""
    doc["model"]["trees"] = {
        "nodes": [len(tree["feature"]) for tree in trees],
        **{name: blob([v for tree in trees for v in tree[name]], code) for name, code in CODES.items()},
    }


def test_document_shape_and_leaf_thresholds(train):
    model = fit_rf(train, RFConfig(n_trees=2, seed=3))
    doc = model_to_dict(model)
    assert doc["format"] == "shooting-model"
    assert doc["format_version"] == 4
    assert doc["kind"] == "rf"
    trees = doc["model"]["trees"]
    # node counts and one base64 string per tree field, all trees joined
    assert sorted(trees) == ["feature", "nodes", "threshold", "value"]
    assert len(trees["nodes"]) == 2
    for name in CODES:
        base64.b64decode(trees[name], validate=True)
    for n, tree in zip(trees["nodes"], tree_lists(doc)):
        # level order implies the links and the depth; the width is the model's
        internal = sum(f != -1 for f in tree["feature"])
        assert n == len(tree["feature"]) == 2 * internal + 1
        # a threshold per internal node and a value per leaf
        assert len(tree["threshold"]) == internal
        assert len(tree["value"]) == internal + 1
    # nan never appears, so strict JSON encoding must succeed
    json.dumps(doc, allow_nan=False)


def test_reject_wrong_format(train):
    with pytest.raises(PersistError, match="not a model document"):
        model_from_dict({"format": "something-else"})
    with pytest.raises(PersistError, match="not a model document"):
        model_from_dict([1, 2, 3])


def test_reject_wrong_version(train):
    model = fit_rf(train, RFConfig(n_trees=1))
    doc = model_to_dict(model)
    doc["format_version"] = 99
    with pytest.raises(PersistError, match="format_version"):
        model_from_dict(doc)


def test_reject_unknown_kind(train):
    model = fit_rf(train, RFConfig(n_trees=1))
    doc = model_to_dict(model)
    # a JSON list or object is unhashable, so no lookup may see it
    for kind in ["mystery", [], {}, ["rf"]]:
        doc["kind"] = kind
        with pytest.raises(PersistError, match="unknown model kind"):
            model_from_dict(doc)


def test_reject_truncated_body(train):
    model = fit_gbm(train, GBMConfig(n_stages=2))
    doc = model_to_dict(model)
    del doc["model"]["base_value"]
    with pytest.raises(PersistError, match="malformed"):
        model_from_dict(doc)
    doc["model"] = None
    with pytest.raises(PersistError, match="missing model body"):
        model_from_dict(doc)


def test_reject_unserializable_object():
    with pytest.raises(PersistError, match="cannot serialize"):
        model_to_dict({"not": "a model"})


def test_no_model_load_would_refuse_can_be_built(models):
    # each tree and model checks its own fields when built, so save_model
    # is never given one that the loader would refuse
    sr, rf, gbm = (models[kind][0] for kind in ["shooting", "rf", "gbm"])
    p, k = sr.offsets.shape
    with pytest.raises(ValueError, match="^trees"):
        RandomForest((), 3)
    with pytest.raises(ValueError, match="^learning_rate"):
        replace(gbm, learning_rate=2.0)
    for bad in [math.nan, math.inf, -math.inf]:
        with pytest.raises(ValueError, match="^base_value"):
            replace(gbm, base_value=bad)
    with pytest.raises(ValueError, match="^offsets"):
        replace(sr, offsets=np.zeros((p, k + 1)))
    with pytest.raises(ValueError, match="^nu"):
        replace(sr, nu=-1.0)
    # a tree holds finite thresholds and leaf values: a NaN leaf would
    # predict NaN, an inf threshold send every row left
    tree = rf.trees[0]
    for name in ["threshold", "value"]:
        for bad in [math.nan, math.inf, -math.inf]:
            arr = getattr(tree, name).copy()
            arr[-1] = bad
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                replace(tree, **{name: arr})
    # and a width that is an int64 count; a single leaf reads no feature,
    # so no range check stands in for this one
    leaf = RegressionTree(np.array([-1]), np.empty(0), np.array([2.5]), 3)
    for width in [7.5, True, 2**63, 10**400, -1, "3"]:
        with pytest.raises(ValueError, match="^n_features"):
            replace(leaf, n_features=width)
    # every tree as wide as its model: predict would read other rows'
    # features through the flat block index
    for model, width in [(rf, 2), (rf, 6), (gbm, 6)]:
        with pytest.raises(ValueError, match="^trees must be n_features = .* wide"):
            replace(model, n_features=width)
    with pytest.raises(ValueError, match="^trees must be n_features = .* wide"):
        replace(sr, coefficients=np.zeros(p + 4), offsets=np.zeros((p + 4, k)))
    wide = replace(tree, n_features=6)
    for model in [sr, rf, gbm]:
        with pytest.raises(ValueError, match="^trees must be n_features = .* wide"):
            replace(model, trees=(wide,) * len(model.trees))
    # the trees in a tuple: a list predicts but is no JSON document
    for model in [sr, rf, gbm]:
        with pytest.raises(ValueError, match="^trees must be a tuple"):
            replace(model, trees=list(model.trees))
    with pytest.raises(ValueError, match="^trees must be a tuple"):
        replace(rf, trees=(tree, "tree"))
    # finite B and D: predict would blame the features, save_model json
    for name in ["coefficients", "offsets"]:
        for bad in [math.nan, math.inf]:
            arr = getattr(sr, name).copy()
            arr.flat[1] = bad
            with pytest.raises(ValueError, match=f"^{name} must be (a )?finite"):
                replace(sr, **{name: arr})
    # numbers, not booleans: True passes every range check as 1, and the
    # file would hold a JSON true that the loader refuses
    for model, name, bad in [
        (sr, "nu", True),
        (gbm, "learning_rate", np.True_),
        (gbm, "base_value", True),
        (sr, "coefficients", sr.coefficients.astype(bool)),
        (sr, "offsets", sr.offsets.astype(bool)),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must hold numbers"):
            replace(model, **{name: bad})


def test_wider_model_with_rebuilt_trees_round_trips(tmp_path, models, query):
    # a forest may be wider than every feature its trees read, as long as
    # each tree is built at the model's width
    rf = models["rf"][0]
    wide = RandomForest(tuple(replace(tree, n_features=5) for tree in rf.trees), 5)
    path = tmp_path / "wide.json"
    save_model(wide, str(path))
    loaded = load_model(str(path))
    assert loaded.n_features == 5
    for got, built in zip(loaded.trees, wide.trees, strict=True):
        for name in ["feature", "threshold", "value"]:
            assert getattr(got, name).tobytes() == getattr(built, name).tobytes()
        assert got.n_features == 5
    x = np.hstack([query, np.full((query.shape[0], 2), 7.0)])
    assert predict_rf(loaded, x).tobytes() == predict_rf(wide, x).tobytes()
    assert predict_rf(wide, x).tobytes() == predict_rf(rf, query).tobytes()


def test_numpy_integer_width_saves(models):
    # the width as a numpy integer is a count like any other
    rf = models["rf"][0]
    loaded = model_from_dict(json.loads(json.dumps(model_to_dict(replace(rf, n_features=np.int64(3))))))
    assert loaded.n_features == 3 and type(loaded.n_features) is int


@pytest.mark.parametrize("kind", ["rf", "gbm"])
@pytest.mark.parametrize(
    "width", [2**63, 10**400, True, 3.0, -1, "3"], ids=["2^63", "10^400", "true", "3.0", "-1", "string"]
)
def test_reject_width_that_is_not_a_count(saved, kind, width):
    doc = copy.deepcopy(saved[kind][0])
    doc["model"]["n_features"] = width
    with pytest.raises(PersistError, match="n_features"):
        model_from_dict(doc)


@pytest.mark.parametrize("kind", ["shooting", "rf", "gbm"])
def test_documents_hold_exactly_the_model_fields(models, kind):
    model = models[kind][0]
    assert set(model_to_dict(model)["model"]) == {f.name for f in fields(model)}


def test_load_invalid_json(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{ this is not json")
    with pytest.raises(PersistError, match="invalid JSON"):
        load_model(str(path))


def test_load_non_utf8_file(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(PersistError, match="invalid JSON"):
        load_model(str(path))


def test_load_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(PersistError, match="invalid JSON"):
        load_model(str(path))


def test_atomic_write_replaces_and_cleans_up(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    write_text_atomic(str(path), "new")
    assert path.read_text() == "new"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.txt"]
    assert leftovers == []


def test_save_overwrites_previous_model(tmp_path, train, query):
    a = fit_rf(train, RFConfig(n_trees=1, seed=1))
    b = fit_rf(train, RFConfig(n_trees=3, seed=2))
    path = tmp_path / "model.json"
    save_model(a, str(path))
    save_model(b, str(path))
    loaded = load_model(str(path))
    assert len(loaded.trees) == 3
    assert np.array_equal(predict_rf(loaded, query), predict_rf(b, query))


@pytest.fixture(scope="module")
def models(train):
    """kind -> (fitted model, predict function)."""
    return {
        "shooting": (fit_shooting(train, SRConfig(k=3, seed=5)), predict),
        "rf": (fit_rf(train, RFConfig(n_trees=3, seed=5)), predict_rf),
        "gbm": (fit_gbm(train, GBMConfig(n_stages=3, seed=5)), predict_gbm),
    }


@pytest.fixture(scope="module")
def saved(models, query):
    """kind -> (document, predict function, predictions of the fitted model)."""
    return {
        kind: (model_to_dict(model), fn, fn(model, query))
        for kind, (model, fn) in models.items()
    }


@pytest.mark.parametrize("kind", ["shooting", "rf", "gbm"])
def test_tree_documents_hold_the_trees_own_arrays(models, kind):
    model = models[kind][0]
    trees = model_to_dict(model)["model"]["trees"]
    # the node counts, then every tree field but the width, which the model holds
    assert list(trees) == ["nodes"] + [f.name for f in fields(RegressionTree) if f.name != "n_features"]
    assert trees["nodes"] == [tree.n_nodes for tree in model.trees]
    for name, code in CODES.items():
        # every tree's entries in tree order, as their IEEE bytes
        raw = zlib.decompress(base64.b64decode(trees[name]))
        assert raw == np.concatenate([getattr(t, name) for t in model.trees]).astype(code).tobytes()


@pytest.mark.parametrize("kind", ["shooting", "rf", "gbm"])
def test_loaded_trees_equal_fitted_ones(tmp_path, models, kind):
    # every field, and the links and depth derived from the level order
    model = models[kind][0]
    path = tmp_path / "model.json"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert len(loaded.trees) == len(model.trees)
    for got, fitted in zip(loaded.trees, model.trees):
        # bytes, so the sign of a zero leaf counts
        for name in ["feature", "threshold", "value", "left", "right"]:
            assert getattr(got, name).tobytes() == getattr(fitted, name).tobytes()
        assert got.n_features == fitted.n_features
        assert got.depth == fitted.depth


def test_reject_node_before_its_parent(saved):
    # five nodes, two internal: the second internal node (id 3) would be
    # the parent of nodes 3 and 4, itself among them
    doc = copy.deepcopy(saved["rf"][0])
    set_tree_lists(doc, [{"feature": [0, -1, -1, 0, -1], "threshold": [0.0, 1.0], "value": [1.0, 2.0, 3.0]}])
    with pytest.raises(PersistError, match="parent"):
        model_from_dict(doc)


def test_reject_deeply_nested_document(saved):
    # a document built in memory can nest deeper than the boolean check
    # recurses; json.load never returns one this deep
    doc = copy.deepcopy(saved["shooting"][0])
    nested = [1.0]
    for _ in range(5000):
        nested = [nested]
    doc["model"]["offsets"][0] = nested
    with pytest.raises(PersistError, match="malformed"):
        model_from_dict(doc)


def test_reject_version_2_document(saved):
    # version 2 stored links, depth and null leaf thresholds; no reader
    # for it is kept
    doc = copy.deepcopy(saved["rf"][0])
    doc["format_version"] = 2
    with pytest.raises(PersistError, match="format_version"):
        model_from_dict(doc)


def test_reject_version_3_document(saved):
    # version 3 held each tree as a document of JSON number lists; it is
    # refused by its version, and its trees under version 4 are malformed
    doc = copy.deepcopy(saved["rf"][0])
    doc["format_version"] = 3
    doc["model"]["trees"] = tree_lists(doc)
    with pytest.raises(PersistError, match="unsupported format_version 3"):
        model_from_dict(doc)
    doc["format_version"] = 4
    with pytest.raises(PersistError, match="malformed"):
        model_from_dict(doc)


def stream(raw: bytes) -> str:
    return base64.b64encode(zlib.compress(raw)).decode("ascii")


def blob_bytes(doc: dict, name: str) -> bytes:
    return zlib.decompress(base64.b64decode(doc["model"]["trees"][name]))


# a corruption of one blob -> the message it must raise; none is a blob
# save_model writes
BAD_BLOBS = {
    "not base64": (lambda text, raw: "!" + text, "bad base64"),
    "bad padding": (lambda text, raw: text[:-1], "bad base64"),
    "not ASCII": (lambda text, raw: text[:-4] + "\u00e9\u00e9==", "bad base64"),
    "not zlib": (lambda text, raw: base64.b64encode(raw).decode(), "zlib"),
    "truncated": (
        lambda text, raw: base64.b64encode(zlib.compress(raw)[:-4]).decode(),
        "truncated zlib stream",
    ),
    "cut short": (
        lambda text, raw: base64.b64encode(zlib.compress(raw)[:-9]).decode(),
        "the node counts imply",
    ),
    "inflates short": (lambda text, raw: stream(raw[:-8]), "the node counts imply"),
    "inflates long": (lambda text, raw: stream(raw + raw[:8]), "holds more"),
    "trailing data": (
        lambda text, raw: base64.b64encode(zlib.compress(raw) + b"\0").decode(),
        "data after the zlib stream",
    ),
    "second stream": (
        lambda text, raw: base64.b64encode(zlib.compress(raw) + zlib.compress(raw)).decode(),
        "data after the zlib stream",
    ),
    "not a string": (lambda text, raw: list(raw), "expected a base64 string"),
}


@pytest.mark.parametrize("name", list(CODES))
@pytest.mark.parametrize("corruption", list(BAD_BLOBS))
def test_reject_bad_blobs(saved, name, corruption):
    change, message = BAD_BLOBS[corruption]
    doc = copy.deepcopy(saved["shooting"][0])
    trees = doc["model"]["trees"]
    trees[name] = change(trees[name], blob_bytes(doc, name))
    with pytest.raises(PersistError, match=message):
        model_from_dict(doc)


@pytest.mark.parametrize(
    "nodes",
    [
        lambda n: [True] + n[1:],  # a boolean, though True is 1
        lambda n: [float(n[0])] + n[1:],
        lambda n: [str(n[0])] + n[1:],
        lambda n: [0] + n[1:],
        lambda n: [-n[0]] + n[1:],
        lambda n: [n[0] + 1] + n[1:],  # even
        lambda n: [n[0] + 2] + n[1:],  # odd, but no blob holds the nodes
        lambda n: [n[0] - 2] + n[1:],
        lambda n: [2**61 + 1] + n[1:],  # more bytes than any blob or memory holds
        lambda n: [2**70 + 1] + n[1:],
        lambda n: n[:-1],
        lambda n: n + [1],
        lambda n: [],
        lambda n: {"0": n[0]},
    ],
    ids=["true", "float", "string", "zero", "negative", "even", "odd, 2 more",
         "odd, 2 fewer", "2^61 + 1", "2^70 + 1", "one count fewer", "one count more",
         "no counts", "not a list"],
)
def test_reject_node_counts_that_do_not_fit(saved, nodes):
    doc = copy.deepcopy(saved["rf"][0])
    trees = doc["model"]["trees"]
    trees["nodes"] = nodes(trees["nodes"])
    with pytest.raises(PersistError):
        model_from_dict(doc)


def test_single_leaf_trees_round_trip():
    # a one-node tree has no threshold: the threshold blob inflates to 0 bytes
    model = fit_rf(make_synthetic(5, 2, 0.0, 1), RFConfig(n_trees=2, seed=1))
    constant = replace(model, trees=(RegressionTree(np.array([-1]), np.empty(0), np.array([2.5]), 2),) * 2)
    loaded = model_from_dict(json.loads(json.dumps(model_to_dict(constant))))
    assert [tree.value.tolist() for tree in loaded.trees] == [[2.5], [2.5]]
    assert [tree.threshold.size for tree in loaded.trees] == [0, 0]


@pytest.mark.parametrize("name", ["threshold", "value"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_reject_nonfinite_floats_in_blobs(saved, name, bad):
    doc = copy.deepcopy(saved["rf"][0])
    trees = tree_lists(doc)
    trees[-1][name][-1] = bad
    set_tree_lists(doc, trees)
    with pytest.raises(PersistError, match="finite"):
        model_from_dict(doc)


@pytest.mark.parametrize("feature", [-2, 3, 2**40])
def test_reject_feature_out_of_range(saved, feature):
    doc = copy.deepcopy(saved["rf"][0])
    trees = tree_lists(doc)
    trees[0]["feature"][0] = feature
    set_tree_lists(doc, trees)
    with pytest.raises(PersistError, match="feature index out of range"):
        model_from_dict(doc)


def test_inflation_stops_at_the_length_the_counts_imply(saved, monkeypatch):
    # a feature blob that would inflate to 10 times what the counts imply
    doc = copy.deepcopy(saved["rf"][0])
    trees = doc["model"]["trees"]
    nbytes = 8 * sum(trees["nodes"])
    trees["feature"] = stream(bytes(10 * nbytes))
    produced = []
    real = zlib.decompressobj

    class Counting:
        def __init__(self):
            self.inner = real()

        def decompress(self, data, max_length=0):
            out = self.inner.decompress(data, max_length)
            produced.append(len(out))
            return out

        def __getattr__(self, name):
            return getattr(self.inner, name)

    monkeypatch.setattr(zlib, "decompressobj", Counting)
    with pytest.raises(PersistError, match="holds more"):
        model_from_dict(doc)
    assert produced == [nbytes + 1]


# values no field accepts: wrong type, wrong shape, not finite or too large
WRONG = ["x", {}, None, [], [[1.0]], True, float("nan"), 10**400]
# node entries no float blob accepts
NONFINITE = [float("nan"), float("inf"), -float("inf")]


def mutate(doc: dict, data) -> None:
    """One corruption that no document written by save_model contains.

    Changes that keep a document well formed, such as another in-range
    feature, another internal threshold or another leaf value, change the
    predictions legitimately and are not drawn; nor is a wider forest or
    boosting model, whose trees need not read every feature, nor node
    counts moved between trees that still read as trees. Recompressing a
    blob at another zlib level keeps the document well formed, and is
    drawn: it must load the same model.
    """
    body = doc["model"]
    trees = tree_lists(doc)
    tree = data.draw(st.sampled_from(trees))
    features = tree["feature"]
    n = len(features)
    j = data.draw(st.integers(0, n - 1))
    width = len(body["coefficients"]) - 1 if "coefficients" in body else body["n_features"]
    what = data.draw(
        st.sampled_from(
            ["feature", "flip node", "threshold", "value", "resize",
             "node before parent", "model width", "drop last node",
             "drop key", "wrong value", "no trees", "boolean", "kind",
             "node count", "blob", "zlib level"]
        )
    )
    if what == "feature":
        features[j] = data.draw(st.integers(-4, -2) | st.integers(width, width + 3))
    elif what == "flip node":
        # a leaf becomes an internal node or back, so n != 2I + 1
        features[j] = data.draw(st.integers(0, width - 1)) if features[j] == -1 else -1
    elif what in ("threshold", "value"):
        entries = tree[what]
        entries[data.draw(st.integers(0, len(entries) - 1))] = data.draw(st.sampled_from(NONFINITE))
    elif what == "resize":
        # one threshold or value more or fewer than there are nodes for
        entries = tree[data.draw(st.sampled_from(["threshold", "value"]))]
        if data.draw(st.booleans()):
            entries.append(data.draw(st.floats(-10, 10)))
        else:
            entries.pop()
    elif what == "node before parent":
        # the last internal node moves into the slot of one of its
        # children, which are always the last two nodes
        last = max(i for i, f in enumerate(features) if f != -1)
        features.insert(data.draw(st.sampled_from([n - 2, n - 1])), features.pop(last))
    elif what == "model width":
        if "coefficients" in body:
            body["coefficients"].pop(data.draw(st.integers(0, 3)))
        else:
            # narrower than a feature some tree reads
            used = max(f for t in trees for f in t["feature"])
            body["n_features"] = data.draw(st.integers(-1, used))
    elif what == "drop last node":
        # the last node is a leaf
        features.pop()
        tree["value"].pop()
    elif what == "no trees":
        trees.clear()
    if what in ("feature", "flip node", "threshold", "value", "resize",
                "node before parent", "drop last node", "no trees"):
        set_tree_lists(doc, trees)
    blobs = body["trees"]
    if what == "drop key":
        target = data.draw(st.sampled_from([body, blobs]))
        del target[data.draw(st.sampled_from(sorted(target)))]
    elif what == "wrong value":
        target = data.draw(st.sampled_from([body, blobs]))
        target[data.draw(st.sampled_from(sorted(target)))] = data.draw(st.sampled_from(WRONG))
    elif what == "boolean":
        # numpy would read it as 1 or 0: the ensemble's coefficients and
        # rows of D, and the node counts, where True would read as 1
        arrays = [blobs["nodes"]]
        if "coefficients" in body:
            arrays += [body["coefficients"], *body["offsets"]]
        entries = data.draw(st.sampled_from(arrays))
        entries[data.draw(st.integers(0, len(entries) - 1))] = data.draw(st.booleans())
    elif what == "node count":
        # not a positive odd integer, or one the blobs do not hold
        counts = blobs["nodes"]
        i = data.draw(st.integers(0, len(counts) - 1))
        counts[i] = data.draw(
            st.sampled_from([0, -1, counts[i] + 1, counts[i] - 1, counts[i] + 2, float(counts[i])])
        )
    elif what == "blob":
        name = data.draw(st.sampled_from(list(CODES)))
        change, _ = BAD_BLOBS[data.draw(st.sampled_from(sorted(BAD_BLOBS)))]
        blobs[name] = change(blobs[name], blob_bytes(doc, name))
    elif what == "zlib level":
        name = data.draw(st.sampled_from(list(CODES)))
        level = data.draw(st.integers(0, 9))
        blobs[name] = base64.b64encode(zlib.compress(blob_bytes(doc, name), level)).decode()
    elif what == "kind":
        doc["kind"] = data.draw(st.sampled_from(["shooting", "rf", "gbm"]))


@given(kind=st.sampled_from(["shooting", "rf", "gbm"]), data=st.data())
@settings(max_examples=400, deadline=None)
def test_mutated_documents_fail_or_predict_identically(saved, query, kind, data):
    doc, predict_fn, expected = saved[kind]
    doc = copy.deepcopy(doc)
    mutate(doc, data)
    try:
        loaded = model_from_dict(doc)
    except PersistError:
        return
    assert np.array_equal(predict_fn(loaded, query), expected)


def test_offsets_shape_checked(train):
    doc = model_to_dict(fit_shooting(train, SRConfig(k=3, seed=5)))
    for row in doc["model"]["offsets"]:
        row.pop()
    with pytest.raises(PersistError, match="offsets must have shape"):
        model_from_dict(doc)


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("shooting", "nu", -2.0),
        ("gbm", "learning_rate", -5.0),
        ("gbm", "learning_rate", 0.0),
        ("gbm", "learning_rate", 1.5),
    ],
)
def test_out_of_range_settings_rejected(saved, kind, field, value):
    # the same ranges the fit configs enforce: a negative nu or a step
    # outside (0, 1] is no model fit_shooting or fit_gbm could return
    doc = copy.deepcopy(saved[kind][0])
    doc["model"][field] = value
    with pytest.raises(PersistError, match=field):
        model_from_dict(doc)


# Saved format 4 models: a k = 3 SR model, a 3-tree RF and a 3-stage GBM,
# written by save_model from fits on make_synthetic(30, 3, 1.0, 4) with
# seed 4 (GBM at its defaults). They pin what a format 4 file means, so a
# change to the encoding that would strand saved files fails here. Never
# regenerate them to make this test pass. Only decoded values are pinned:
# another zlib build may compress the same bytes differently.
GOLDEN = pathlib.Path(__file__).parent / "data"
# sha256 of each array, trees joined in tree order, little-endian
GOLDEN_DIGESTS = {
    "shooting": {
        "feature": "3485c35892315de1c4004a6035a350ea1ee4a65a9d3d2267d76b37eba4d69414",
        "threshold": "39010394e13180b4bb6dcc183878b608399015c5e54ef07ec8b141db640d4316",
        "value": "19211d6292185a03fb0656bd4736d27f91dd96576673f4312116bdc71d7fff19",
        "coefficients": "d5c6cbf074eacad7a66297f0e9ecf31c6c68b7a748786f35db5d2c059d4bf385",
        "offsets": "5736003742d997c42636a102d12752da7868c2b39f765642250534ea840c21c9",
    },
    "rf": {
        "feature": "5b702967acdf14796002a25171f898f59cfa49fd0c1949f3a039f0e45b0c66bd",
        "threshold": "2d18ce5da7aa7329d9583eeb016e331c4e515abf9d421e9f16ec1f4140253d40",
        "value": "899cd63b2fd7f0f40d9352471ecbee1505a2164df296d197a230f3415650c41a",
    },
    "gbm": {
        "feature": "eec6b5db0eafd40cc7ecbc7974ac38947dbe9018dd1eb3b046b276e0c28fec0e",
        "threshold": "0bdc58c5b9a87ad73077c78ac5ac04812a24ee31d84a40d034eb21dd59965b24",
        "value": "f88408146a5edefd8674b269b8c9153c9289c87e3094b7cddc9d6f74a0869c09",
    },
}
GOLDEN_NODES = {"shooting": [59, 59, 59], "rf": [41, 37, 37], "gbm": [15, 15, 15]}
GOLDEN_SCALARS = {
    "shooting": {"nu": 1.2531275442765217},
    "rf": {"n_features": 3},
    "gbm": {"base_value": 0.5330883479877405, "learning_rate": 0.1, "n_features": 3},
}
GOLDEN_QUERY = np.array([[-1.5, 0.25, 2.0], [0.0, 0.0, 0.0], [0.75, -2.0, -0.5], [3.0, 1.0, -1.25]])
# RF and GBM predictions use no BLAS, so they hold in any environment
GOLDEN_PREDICTIONS = {
    "rf": (predict_rf, [3.333155821646491, -0.7065933772509702, -3.365748487510114, -4.468636445858177]),
    "gbm": (
        predict_gbm,
        [1.3361961379977416, 0.01947115890219786, -0.902807329631026, -0.2278372220420884],
    ),
}


@pytest.mark.parametrize("kind", ["shooting", "rf", "gbm"])
def test_golden_format_4_files_load_to_pinned_values(kind):
    model = load_model(str(GOLDEN / f"{kind}.json"))
    assert [tree.n_nodes for tree in model.trees] == GOLDEN_NODES[kind]
    arrays = {name: np.concatenate([getattr(tree, name) for tree in model.trees]) for name in CODES}
    if kind == "shooting":
        arrays.update(coefficients=model.coefficients, offsets=model.offsets)
    digests = {
        name: hashlib.sha256(arr.astype("<" + arr.dtype.str[1:]).tobytes()).hexdigest()
        for name, arr in arrays.items()
    }
    assert digests == GOLDEN_DIGESTS[kind]
    for name, value in GOLDEN_SCALARS[kind].items():
        assert getattr(model, name) == value
    if kind in GOLDEN_PREDICTIONS:
        predict_fn, expected = GOLDEN_PREDICTIONS[kind]
        assert predict_fn(model, GOLDEN_QUERY).tolist() == expected
