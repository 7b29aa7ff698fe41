"""Model documents must survive the disk round trip prediction-exact."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shooting import (
    GBMConfig,
    PersistError,
    RFConfig,
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
    assert doc["format_version"] == 2
    assert doc["kind"] == "rf"
    tree = doc["model"]["trees"][0]
    for f, t in zip(tree["feature"], tree["threshold"]):
        assert (t is None) == (f == -1)
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
def saved(train, query):
    """kind -> (document, predict function, predictions of the fitted model)."""
    models = {
        "shooting": (fit_shooting(train, SRConfig(k=3, seed=5)), predict),
        "rf": (fit_rf(train, RFConfig(n_trees=3, seed=5)), predict_rf),
        "gbm": (fit_gbm(train, GBMConfig(n_stages=3, seed=5)), predict_gbm),
    }
    return {
        kind: (model_to_dict(model), fn, fn(model, query))
        for kind, (model, fn) in models.items()
    }


# values no field accepts: wrong type, wrong shape, not finite or too large
WRONG = ["x", {}, None, [], [[1.0]], True, float("nan"), 10**400]
# values no node entry accepts; booleans have their own mutation below
WRONG_ENTRY = ["x", {}, None, [], [1.0], float("nan"), 10**400]


def mutate(doc: dict, data) -> None:
    """One corruption that no document written by save_model contains.

    Changes that keep a document well formed, such as another in-range
    feature, another internal threshold or another leaf value, change the
    predictions legitimately and are not drawn; an internal node's value,
    which prediction never reads, is.
    """
    body = doc["model"]
    tree = data.draw(st.sampled_from(body["trees"]))
    n = len(tree["feature"])
    j = data.draw(st.integers(0, n - 1))
    leaf = tree["feature"][j] == -1
    what = data.draw(
        st.sampled_from(
            ["child", "feature", "threshold", "value", "depth", "tree width",
             "model width", "short array", "drop last node", "drop key",
             "wrong value", "no trees", "boolean", "kind"]
        )
    )
    if what == "child":
        side = data.draw(st.sampled_from(["left", "right"]))
        tree[side][j] = data.draw(st.integers(-3, n + 3))
    elif what == "feature":
        width = tree["n_features"]
        tree["feature"][j] = data.draw(
            st.integers(-4, -1) | st.integers(width, width + 3)
        )
    elif what == "threshold":
        tree["threshold"][j] = data.draw(
            st.floats(-10, 10) if leaf else st.sampled_from(WRONG_ENTRY)
        )
    elif what == "value":
        tree["value"][j] = data.draw(
            st.sampled_from(WRONG_ENTRY) if leaf else st.floats(-1e6, 1e6)
        )
    elif what == "depth":
        tree["depth"] = data.draw(st.integers(-2, tree["depth"] + 3))
    elif what == "tree width":
        tree["n_features"] = data.draw(st.integers(-1, 6))
    elif what == "model width":
        if "coefficients" in body:
            body["coefficients"].pop(data.draw(st.integers(0, 3)))
        else:
            body["n_features"] = data.draw(st.integers(-1, 6))
    elif what == "short array":
        field = data.draw(st.sampled_from(["feature", "threshold", "left", "right", "value"]))
        del tree[field][j]
    elif what == "drop last node":
        for field in ["feature", "threshold", "left", "right", "value"]:
            tree[field].pop()
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
        arrays = [tree[field] for field in ["feature", "threshold", "left", "right", "value"]]
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
