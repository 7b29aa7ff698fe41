"""Checks on the benchmark's own machinery.

    python3 -m pytest bench/test_bench.py -q

Covers the self-time arithmetic, that instrumenting restores every name it
rebinds, and that a traced run computes exactly what an untraced one does.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402

run.pin_threads()

import shooting  # noqa: E402
import shooting.cli  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    s = spans.Span
    tree = [
        s("root", 0.0, 10.0, -1, 1, "sr"),
        s("a", 1.0, 3.0, 0, 1, "sr"),
        s("b", 2.0, 5.0, 0, 1, "sr"),  # overlaps a: the union counts once
        s("c", 8.0, 12.0, 0, 1, "sr"),  # runs past the parent: clipped
        s("a1", 1.5, 2.5, 1, 1, "sr"),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    leaf = spans.Span("x", 2.0, 2.75, -1, 1, "gbm")
    assert spans.self_times([leaf]) == [0.75]


def _all_bindings():
    found = {}
    for ns in spans._namespaces():
        for key, value in ns.items():
            found[(id(ns), key)] = value
    return found


def test_instrument_rebinds_consumers_and_restores_every_name():
    before = _all_bindings()
    fit_tree = shooting.tree.fit_tree
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with spans.instrument(tracer) as saved:
            # the names each consumer bound at import are all wrapped
            for module in (shooting.ensemble, shooting.baselines, shooting.tree, shooting):
                assert module.fit_tree is not fit_tree
            assert shooting.cli._RUNNERS["nu-curve"] is not before[
                (id(vars(shooting.cli)), "run_nu_curve")
            ]
            assert len(saved) >= len(spans.TRACED)
            raise RuntimeError("boom")
    after = _all_bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


@pytest.fixture
def workdir():
    """A directory inside the checkout, like the benchmark's own."""
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _small_run(monkeypatch, tmp: Path, traced: bool):
    monkeypatch.setattr(W, "K", 4)
    monkeypatch.setattr(W, "NU_CURVE_K", 3)
    monkeypatch.setattr(W, "NU_CURVE_POINTS", 2)
    monkeypatch.setattr(W, "MIN_ROUNDS", {"trial": 1, "predict": 1, "diag": 1})
    monkeypatch.setattr(W, "PROBE", W.ReadPath(3, 2, 50, 1, 1))
    tmp.mkdir()
    b = W.Bench(seed=0, root=ROOT, tmp=tmp)
    result = W.run(b, "diag", 0.0, traced)
    return b, result


def test_traced_and_untraced_runs_give_identical_digests(monkeypatch, workdir):
    plain, plain_result = _small_run(monkeypatch, workdir / "plain", False)
    traced, traced_result = _small_run(monkeypatch, workdir / "traced", True)
    assert plain.failures == [] and traced.failures == []
    assert plain.digests == traced.digests
    assert "csv.pca_diag.csv" in plain.digests and "csv.nu_curve.csv" in plain.digests

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = W.layer_metrics(traced, traced_result)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: entry["unit"] for name, entry in layers.items()
    }
    e2e, _ = W.end_to_end(plain, plain_result)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: entry["unit"] for name, entry in e2e.items()
    }
    # nu=0 gives k identical targets, so trees repeat inside one nu-curve
    assert layers["tree.distinct_ratio.nu_curve"]["value"] < 1.0
    assert layers["tree.distinct_ratio.sr"]["value"] == 1.0
