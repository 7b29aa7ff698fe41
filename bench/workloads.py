"""The three workloads and the operations they time.

Every workload reports every end-to-end metric. Each one repeats its own
focus for the measured window and measures the other metrics at a small
size alongside, so a change to any layer moves some metric on every
workload while the focus decides which layer dominates:

- trial: the ``benchmark`` command's per-trial loop (tree growth);
- predict: the read path over models fitted in set-up (traversal, the
  exact row mean, persist);
- diag: ``nu-curve`` and ``pca-diag`` through the CLI's ``main`` (fixed-nu
  refits that share work between trees, the objective scan, CSV output and
  power-iteration PCA).

Inputs derive only from the seed. Functions are looked up on the package
at call time, so the traced pass sees the instrumented bindings. Every
timing is scaled by the host speed measured around it (see ``clock``); the
report keeps the raw wall times too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

import shooting as S
import shooting.cli
from shooting.nuopt import DEFAULT_NU_HI, DEFAULT_NU_LO
from shooting.rng import TRIAL_STREAM, derive_seed

from clock import Clock
from spans import Tracer, instrument, self_times

K = 100  # estimators per model, the CLI default
VAL_FRACTION = 0.5  # the benchmark command's split
NU_CURVE_K = 5
NU_CURVE_POINTS = 2
# GBM fits in 0.3 s, so each trial fits it three times to give the fit
# metric several samples on every workload; refits must match exactly
GBM_FITS = 3
INPUT_STREAM = 0xBE7C  # keeps benchmark inputs apart from the package's streams
SR_ROW_RTOL = 1e-12  # one-row BLAS products differ from the batch in the last bits


class ReadPath(NamedTuple):
    """Sizes of one pass over the read path."""

    rows: int  # one-row predicts per model
    reps_1k: int  # SR predicts of 1,000 rows
    batch_rows: int
    reps_batch: int  # batch predicts per model
    reps_save: int  # save/load round trips per model


# the predict workload's round (its 1e5-row batches, about 10 s, only in
# even rounds)
PREDICT_FOCUS = ReadPath(60, 10, 100_000, 1, 2)
# trial and diag run this small read path between operations, at most every
# PROBE_EVERY seconds: the host's speed drifts over seconds, so samples
# spread over the whole run give steadier medians than a block at the end
PROBE = ReadPath(5, 1, 5_000, 1, 1)
PROBE_EVERY = 2.5
# one-row predicts cycle through this many seed-drawn rows: a row's cost
# follows its path lengths, so a run's median must cover many rows
ROW_POOL = 60

MIN_ROUNDS = {"trial": 2, "predict": 2, "diag": 3}

MODEL_KINDS = ("sr", "rf", "gbm")
PREDICT_FN = {"sr": "predict", "rf": "predict_rf", "gbm": "predict_gbm"}

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sr_fit_s": "s",
    "rf_fit_s": "s",
    "gbm_fit_s": "s",
    "nu_curve_s": "s",
    "pca_diag_s": "s",
    "sr_predict_row_ms": "ms",
    "rf_predict_row_ms": "ms",
    "gbm_predict_row_ms": "ms",
    "sr_predict_1k_ms": "ms",
    "sr_predict_rows_per_s": "rows/s",
    "rf_predict_rows_per_s": "rows/s",
    "gbm_predict_rows_per_s": "rows/s",
    "sr_save_load_s": "s",
    "sr_model_bytes": "bytes",
}


def digest(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()


@dataclass
class Bench:
    """One run's inputs, samples, checks and digests."""

    seed: int
    root: Path
    tmp: Path
    tracer: Tracer | None = None  # set only while a traced pass runs
    clock: Clock = field(default_factory=Clock)
    samples: dict = field(default_factory=lambda: defaultdict(list))
    traced_samples: dict = field(default_factory=lambda: defaultdict(list))
    raw: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    trial_rows: dict = field(default_factory=dict)
    model_bytes: dict = field(default_factory=dict)
    models: dict | None = None  # the trial-1 models by kind
    probe: object = None  # callable run between operations, or None
    row_cursor: int = 0  # next row of the pool for one-row predicts
    _last_probe: float = -math.inf

    def __post_init__(self):
        self.data_path = str(self.root / "data" / "auto-mpg.data")

    def call(self, label: str, context: str, fn, *args):
        """One timed operation; under tracing it is also a root span."""
        self.attempted += 1
        self._between()
        scope = self.tracer.op(label, context) if self.tracer else contextlib.nullcontext()
        with scope:
            out, elapsed = self.clock.measure(fn, *args)
        self.clock.sample()
        self._between()
        return out, elapsed

    def _between(self) -> None:
        probe, self.probe = self.probe, None  # no probe inside a probe
        try:
            if probe is not None and time.perf_counter() - self._last_probe >= PROBE_EVERY:
                probe()
                self._last_probe = time.perf_counter()
        finally:
            self.probe = probe

    def add_count(self, metric: str, value: int) -> None:
        self._sink(metric).append(value)

    def _sink(self, metric: str) -> list:
        return (self.traced_samples if self.tracer else self.samples)[metric]

    def add_time(self, metric: str, seconds: float, unit: float = 1.0) -> None:
        """A duration that just ended, reported times ``unit`` (1e3 for ms)."""
        end = time.perf_counter()
        self.raw[metric].append(seconds * unit)
        self.clock.add(self._sink(metric), seconds * unit, end - seconds, end)

    def add_rate(self, metric: str, work: float, seconds: float) -> None:
        end = time.perf_counter()
        self.raw[metric].append(work / seconds)
        self.clock.add(self._sink(metric), work / seconds, end - seconds, end, power=-1)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def record(self, key: str, value: str) -> None:
        """Store a digest; a key seen before must carry the same digest."""
        if key in self.digests:
            self.check(self.digests[key] == value, f"{key} changed between repeats")
        else:
            self.digests[key] = value


# ---------------------------------------------------------------- operations


def run_trial(b: Bench, data, t: int) -> float:
    """One trial of ``cli.run_benchmark``: split, fit all three, score.

    Returns the time of the split and the first fit of each model.
    """
    seeds = [derive_seed(b.seed, TRIAL_STREAM, t, j) for j in range(4)]
    (train, val), build_s = b.call("split", "data", S.split, data, VAL_FRACTION, seeds[0])
    configs = {
        "sr": ("fit_shooting", S.SRConfig(k=K, seed=seeds[1])),
        "rf": ("fit_rf", S.RFConfig(n_trees=K, seed=seeds[2])),
        "gbm": ("fit_gbm", S.GBMConfig(n_stages=K, seed=seeds[3])),
    }
    fitted = {}
    for kind, (fn, config) in configs.items():
        fitted[kind], elapsed = b.call("fit", kind, getattr(S, fn), train, config)
        b.add_time(f"{kind}_fit_s", elapsed)
        build_s += elapsed
    for _ in range(GBM_FITS - 1):
        again, elapsed = b.call("fit", "gbm", S.fit_gbm, train, configs["gbm"][1])
        b.add_time("gbm_fit_s", elapsed)
        b.check(
            np.array_equal(S.predict_gbm(again, val.features), S.predict_gbm(fitted["gbm"], val.features)),
            f"trial {t} GBM refit differs",
        )
    cells = []
    for kind in MODEL_KINDS:
        pred, _ = b.call("score", kind, getattr(S, PREDICT_FN[kind]), fitted[kind], val.features)
        score = S.r_squared(val.target, pred)
        b.check(bool(np.all(np.isfinite(pred))), f"trial {t} {kind} predictions not finite")
        b.check(math.isfinite(score), f"trial {t} {kind} R^2 not finite")
        b.record(f"trial.{t}.{kind}.val_predictions", digest(pred))
        cells.append(repr(score))
    nu = float(fitted["sr"].nu)
    b.check(DEFAULT_NU_LO <= nu <= DEFAULT_NU_HI, f"trial {t} nu={nu!r} outside the search range")
    row = ",".join([str(t), *cells, repr(nu)])
    b.trial_rows[t] = row
    b.record(f"trial.{t}.row", digest(row.encode()))
    if t == 1:
        b.models = fitted
    return build_s


def draw_rows(b: Bench, data, n: int, purpose: int):
    """n auto-mpg rows drawn with replacement; the same ones every time."""
    rng = np.random.default_rng([b.seed & (2**64 - 1), INPUT_STREAM, purpose, n])
    return data.features[rng.integers(0, data.n_rows, size=n)]


def row_predicts(b: Bench, data, n: int) -> None:
    """Closed loop, one caller: n one-row predicts per model, then the
    same rows as one batch must agree with them."""
    pool = draw_rows(b, data, ROW_POOL, 1)
    rows = pool[(b.row_cursor + np.arange(n)) % ROW_POOL]
    b.row_cursor += n
    for kind in MODEL_KINDS:
        model = b.models[kind]
        singles = np.empty(n)
        for i in range(n):
            out, elapsed = b.call("predict_row", kind, getattr(S, PREDICT_FN[kind]), model, rows[i : i + 1])
            singles[i] = out[0]
            b.add_time(f"{kind}_predict_row_ms", elapsed, 1e3)
        together = getattr(S, PREDICT_FN[kind])(model, rows)
        if kind == "sr":
            close = np.abs(singles - together) <= SR_ROW_RTOL * np.abs(together)
            b.check(bool(close.all()), "sr single-row predictions differ from the batch")
        else:
            b.check(np.array_equal(singles, together), f"{kind} single-row predictions differ from the batch")


def predict_round(b: Bench, data, sizes: ReadPath) -> None:
    """The read path on the trial-1 models: rows, batches, save/load."""
    if sizes.rows:
        row_predicts(b, data, sizes.rows)
    x1k = draw_rows(b, data, 1000, 2)
    batch = draw_rows(b, data, sizes.batch_rows, 3)
    for kind in MODEL_KINDS:
        model = b.models[kind]
        for _ in range(sizes.reps_batch):
            out, elapsed = b.call("predict_batch", kind, getattr(S, PREDICT_FN[kind]), model, batch)
            b.add_rate(f"{kind}_predict_rows_per_s", sizes.batch_rows, elapsed)
            b.record(f"predict.{kind}.batch{sizes.batch_rows}", digest(out))
    outs = []
    for _ in range(sizes.reps_1k):
        out, elapsed = b.call("predict_1k", "sr", S.predict, b.models["sr"], x1k)
        b.add_time("sr_predict_1k_ms", elapsed, 1e3)
        outs.append(out)
    for out in outs:
        b.record("predict.sr.1k", digest(out))
    for kind in MODEL_KINDS:
        model = b.models[kind]
        path = str(b.tmp / f"{kind}.json")
        expected = getattr(S, PREDICT_FN[kind])(model, x1k)
        for _ in range(sizes.reps_save):
            _, save_s = b.call("save", kind, S.save_model, model, path)
            loaded, load_s = b.call("load", kind, S.load_model, path)
            if kind == "sr":
                b.add_time("sr_save_load_s", save_s + load_s)
            size = os.path.getsize(path)
            b.record(f"persist.{kind}.bytes", str(size))
            b.model_bytes[kind] = size
            again = getattr(S, PREDICT_FN[kind])(loaded, x1k)
            b.check(np.array_equal(again, expected), f"{kind} save/load changed predictions")
    b.add_count("sr_model_bytes", b.model_bytes["sr"])


def diag_round(b: Bench) -> None:
    """``nu-curve`` (reduced k and grid) then ``pca-diag`` at its defaults."""
    out = str(b.tmp / "diag")
    nu_curve = ["nu-curve", f"--data={b.data_path}", f"--k={NU_CURVE_K}",
                f"--points={NU_CURVE_POINTS}", f"--seed={b.seed}", f"--out={out}"]
    pca_diag = ["pca-diag", f"--seed={b.seed}", f"--out={out}"]
    for context, argv, csv in (
        ("nu_curve", nu_curve, "nu_curve.csv"),
        ("pca_diag", pca_diag, "pca_diag.csv"),
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            code, elapsed = b.call("cli", context, S.cli.main, argv)
            b.add_time(f"{context}_s", elapsed)
        b.check(code == 0, f"{argv[0]} exited with {code}")
        text = (Path(out) / csv).read_bytes()
        b.record(f"csv.{csv}", digest(text))
        if csv == "pca_diag.csv" and b.seed == 0:
            committed = (b.root / "results" / "pca_diag" / "pca_diag.csv").read_bytes()
            b.check(text == committed, "pca_diag.csv at seed 0 differs from results/")


# ---------------------------------------------------------------- workloads


def setup(b: Bench, workload: str, import_s: float):
    """Import (timed by the caller), data load (median of several) and, for
    predict, trial 1's split and first fit of each model (not its GBM
    refits, scoring or checks)."""
    loads = []
    for _ in range(5):
        data, elapsed = b.call("load", "data", S.load_auto_mpg, b.data_path)
        loads.append(elapsed)
    build_s = run_trial(b, data, 1) if workload == "predict" else 0.0
    b.add_time("setup_s", import_s + statistics.median(loads) + build_s)
    return data


def focus_round(b: Bench, workload: str, data, index: int) -> None:
    if workload == "trial":
        run_trial(b, data, index + 1)
    elif workload == "predict":
        predict_round(b, data, PREDICT_FOCUS if index % 2 == 0 else PREDICT_FOCUS._replace(reps_batch=0))
    else:
        diag_round(b)


def timed_round(b: Bench, workload: str, data, index: int) -> None:
    start = time.perf_counter()
    focus_round(b, workload, data, index)
    b.add_time("round_s", time.perf_counter() - start)


def side_round(b: Bench, workload: str, data) -> None:
    """The long operations the focus does not cover: trial 1 for diag, a
    diag round otherwise."""
    if workload == "diag":
        run_trial(b, data, 1)
    else:
        diag_round(b)


def run(b: Bench, workload: str, seconds: float, traced: bool, import_s: float = 0.0) -> dict:
    """Set up, then repeat the focus until the window closes.

    Every workload needs the trial-1 models for its read-path samples: the
    predict set-up fits them, trial's round 0 is trial 1, and diag fits
    them first (its side round). On trial and predict a side round follows
    each focus round, so its samples spread over the run; predict also runs
    one before its first round, because it has the fewest rounds. A traced
    run times round 0 untraced, then repeats it, one read-path probe and a
    side round with every public function wrapped in a span; the per-layer
    numbers come from that pass.
    """
    tracer = Tracer() if traced else None
    scope = instrument(tracer) if traced else contextlib.nullcontext()
    with scope:
        b.tracer = tracer
        data = setup(b, workload, import_s)
        b.tracer = None
    probe = lambda: predict_round(b, data, PROBE)  # noqa: E731
    if workload != "trial":
        side_round(b, workload, data)
    deadline = time.perf_counter() + seconds
    rounds = 0
    # a traced run needs one untraced round to compare with, no more
    while rounds < 1 or not traced and (rounds < MIN_ROUNDS[workload] or time.perf_counter() < deadline):
        timed_round(b, workload, data, rounds)
        rounds += 1
        if workload != "predict":  # trial 1 has fitted the models by now
            b.probe = probe
        if workload != "diag":
            side_round(b, workload, data)
    b.probe = None
    if not traced and workload != "predict":
        probe()  # at least one, however long the operations ran
    result = {}
    if traced:
        # the traced pass does the same work for a seed every time: round 0,
        # one read-path probe, one side round
        b.row_cursor = 0
        with instrument(tracer):
            b.tracer = tracer
            timed_round(b, workload, data, 0)
            if workload != "predict":
                probe()
            side_round(b, workload, data)
            b.tracer = None
        result["tracer"] = tracer
    b.clock.finish()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


# ---------------------------------------------------------------- metrics


def summarize(values: list[float]) -> dict:
    """Median, n and a tail: the highest percentile with ten samples beyond
    it, or the max when there are ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = ordered[max(0, math.ceil(pct / 100 * n) - 1)]
    else:
        out["max"] = ordered[-1]
    return out


def end_to_end(b: Bench, result: dict) -> tuple[dict, dict]:
    samples = {**b.samples, "peak_rss_mb": [result["peak_rss_mb"]]}
    metrics, detail = {}, {}
    for name, unit in END_TO_END.items():
        summary = summarize(samples[name])
        detail[name] = summary
        metrics[name] = {"value": summary["median"], "unit": unit}
    return metrics, detail


def layer_metrics(b: Bench, result: dict) -> dict:
    """Per-layer numbers from the traced pass, attributed by root context."""
    tracer: Tracer = result["tracer"]
    spans = tracer.spans
    selfs = self_times(spans)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    trees = defaultdict(set)  # tree digests per (context, operation)
    for span, own in zip(spans, selfs):
        # roots are the benchmark's own operations; "none" is check-only work
        if span.parent < 0 or span.context == "none":
            continue
        total[span.name] += span.duration
        total[(span.name, span.context)] += span.duration
        self_total[span.name] += own
        calls[(span.name, span.context)] += 1
        for key, value in span.counts.items():
            if key == "digest":
                trees[(span.context, span.op)].add(value)
            else:
                counts[(key, span.context)] += value
                counts[key] += value

    out = {}
    for c in ("sr", "rf", "gbm", "nu_curve"):
        grow_s = total[("tree.fit_tree", c)]
        out[f"tree.fit_tree_s.{c}"] = (grow_s, "s")
        out[f"tree.fit_tree_calls.{c}"] = (calls[("tree.fit_tree", c)], "count")
        out[f"tree.nodes.{c}"] = (counts[("nodes", c)], "count")
        out[f"tree.internal_nodes.{c}"] = (counts[("internal_nodes", c)], "count")
        out[f"tree.nodes_per_s.{c}"] = (counts[("nodes", c)] / grow_s, "1/s")
    for c in ("sr", "nu_curve"):
        distinct = sum(len(found) for (context, _), found in trees.items() if context == c)
        out[f"tree.distinct_ratio.{c}"] = (distinct / calls[("tree.fit_tree", c)], "ratio")
    for c in MODEL_KINDS:
        out[f"tree.predict_tree_s.{c}"] = (total[("tree.predict_tree", c)], "s")
    out["tree.rows_routed"] = (counts["rows"], "count")
    out["tree.rows_routed_per_s"] = (counts["rows"] / total["tree.predict_tree"], "1/s")
    for name in (
        "ensemble.predict",
        "ensemble.predict_per_estimator",
        "ensemble.fit_shooting",
        "baselines.fit_rf",
        "baselines.fit_gbm",
        "baselines.predict_rf",
        "baselines.predict_gbm",
        "persist.save_model",
        "persist.load_model",
        "cli.run_nu_curve",
        "cli.run_pca_diag",
    ):
        out[f"{name}.self_s"] = (self_total[name], "s")
    for name in (
        "ensemble.initial_vectors",
        "ensemble.gradient_targets",
        "ensemble.project_trajectories",
        "linear.fit_ols",
        "linear.sample_offsets",
        "nuopt.build_cache",
        "nuopt.minimize_nu",
        "nuopt.objective",
        "persist.model_to_dict",
        "persist.model_from_dict",
        "persist.write_text_atomic",
        "cli.write_csv",
        "data.load_auto_mpg",
        "data.split",
        "data.make_synthetic",
    ):
        out[f"{name}_s"] = (total[name], "s")
    out["nuopt.evaluations"] = (sum(v for (n, _), v in calls.items() if n == "nuopt.objective"), "count")
    for kind in MODEL_KINDS:
        out[f"persist.bytes.{kind}"] = (b.model_bytes[kind], "bytes")
    out["trace.spans"] = (len(spans), "count")
    out["trace.overhead_s"] = (overhead(b)["round_s"], "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def overhead(b: Bench) -> dict:
    """Traced minus untraced median for each timing measured both ways."""
    return {
        name: statistics.median(b.traced_samples[name]) - statistics.median(values)
        for name, values in b.samples.items()
        if b.traced_samples.get(name)
    }
