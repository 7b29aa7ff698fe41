"""Model documents must survive the disk round trip prediction-exact."""

from __future__ import annotations

import copy
import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shooting import (
    GBMConfig,
    PersistError,
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
    assert loaded.nu_diagnostics is None  # diagnostics are not persisted
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


def test_document_shape_and_leaf_thresholds(train):
    model = fit_rf(train, RFConfig(n_trees=2, seed=3))
    doc = model_to_dict(model)
    assert doc["format"] == "shooting-model"
    assert doc["format_version"] == 3
    assert doc["kind"] == "rf"
    for tree in doc["model"]["trees"]:
        # level order implies the links and the depth; the width is the model's
        assert sorted(tree) == ["feature", "threshold", "value"]
        internal = sum(f != -1 for f in tree["feature"])
        assert len(tree["feature"]) == 2 * internal + 1
        # a threshold per internal node and a value per leaf, no nulls
        assert len(tree["threshold"]) == internal
        assert len(tree["value"]) == internal + 1
        assert None not in tree["threshold"] + tree["value"]
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
    doc["kind"] = "mystery"
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
    docs = model_to_dict(model)["model"]["trees"]
    assert len(docs) == len(model.trees)
    for doc, tree in zip(docs, model.trees):
        # every field but the width, which the model holds
        assert list(doc) == [f.name for f in fields(RegressionTree) if f.name != "n_features"]
        for name, entries in doc.items():
            assert entries == getattr(tree, name).tolist()


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
    doc["model"]["trees"] = [
        {"feature": [0, -1, -1, 0, -1], "threshold": [0.0, 1.0], "value": [1.0, 2.0, 3.0]}
    ]
    with pytest.raises(PersistError, match="parent"):
        model_from_dict(doc)


def test_reject_deeply_nested_document(saved):
    # a document built in memory can nest deeper than the boolean check
    # recurses; json.load never returns one this deep
    doc = copy.deepcopy(saved["rf"][0])
    nested = [1.0]
    for _ in range(5000):
        nested = [nested]
    doc["model"]["trees"][0]["value"] = nested
    with pytest.raises(PersistError, match="malformed"):
        model_from_dict(doc)


def test_reject_version_2_document(saved):
    # version 2 stored links, depth and null leaf thresholds; no reader
    # for it is kept
    doc = copy.deepcopy(saved["rf"][0])
    doc["format_version"] = 2
    with pytest.raises(PersistError, match="format_version"):
        model_from_dict(doc)


# values no field accepts: wrong type, wrong shape, not finite or too large
WRONG = ["x", {}, None, [], [[1.0]], True, float("nan"), 10**400]
# values no node entry accepts; booleans have their own mutation below
WRONG_ENTRY = ["x", {}, None, [], [1.0], float("nan"), 10**400]


def mutate(doc: dict, data) -> None:
    """One corruption that no document written by save_model contains.

    Changes that keep a document well formed, such as another in-range
    feature, another internal threshold or another leaf value, change the
    predictions legitimately and are not drawn; nor is a wider forest or
    boosting model, whose trees need not read every feature.
    """
    body = doc["model"]
    tree = data.draw(st.sampled_from(body["trees"]))
    features = tree["feature"]
    n = len(features)
    j = data.draw(st.integers(0, n - 1))
    width = len(body["coefficients"]) - 1 if "coefficients" in body else body["n_features"]
    what = data.draw(
        st.sampled_from(
            ["feature", "flip node", "threshold", "value", "resize",
             "node before parent", "model width", "drop last node",
             "drop key", "wrong value", "no trees", "boolean", "kind"]
        )
    )
    if what == "feature":
        features[j] = data.draw(st.integers(-4, -2) | st.integers(width, width + 3))
    elif what == "flip node":
        # a leaf becomes an internal node or back, so n != 2I + 1
        features[j] = data.draw(st.integers(0, width - 1)) if features[j] == -1 else -1
    elif what in ("threshold", "value"):
        entries = tree[what]
        entries[data.draw(st.integers(0, len(entries) - 1))] = data.draw(
            st.sampled_from(WRONG_ENTRY)
        )
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
            used = max(f for t in body["trees"] for f in t["feature"])
            body["n_features"] = data.draw(st.integers(-1, used))
    elif what == "drop last node":
        # the last node is a leaf
        features.pop()
        tree["value"].pop()
    elif what == "drop key":
        target = data.draw(st.sampled_from([body, tree]))
        del target[data.draw(st.sampled_from(sorted(target)))]
    elif what == "wrong value":
        target = data.draw(st.sampled_from([body, tree]))
        target[data.draw(st.sampled_from(sorted(target)))] = data.draw(st.sampled_from(WRONG))
    elif what == "no trees":
        body["trees"] = []
    elif what == "boolean":
        # numpy would read it as 1 or 0; any number array, the ensemble's
        # coefficients and rows of D included
        arrays = [tree[field] for field in ["feature", "threshold", "value"]]
        if "coefficients" in body:
            arrays += [body["coefficients"], *body["offsets"]]
        entries = data.draw(st.sampled_from(arrays))
        entries[data.draw(st.integers(0, len(entries) - 1))] = data.draw(st.booleans())
    else:
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
