"""Run one workload over several seeds and check each metric's spread.

    python3 bench/steady.py --workload predict --seeds 0 1 2 3 4 [--trace 0]
    python3 bench/steady.py --workload predict --seeds 10 11 12 13 14 \
        --baseline .bench_out/steady-predict-trace0-seeds0-4.json

Runs ``BENCHMARK.json``'s command once per seed, one at a time, checks
each result line against the declared metric names and units, and prints
per metric the median and the quartile spread (q3 - q1) / median, as
``statistics.quantiles(values, n=4)`` gives the quartiles, next to the
metric's bound. With ``--baseline`` (the runs file an earlier call wrote)
it also prints how much worse each median is than the baseline's, as a
share of the baseline median. A seed listed twice must give the same
exact counts.

Exits 1 when an exact count differs, when a spread other than that of
``setup_s`` exceeds its bound, or when a median is worse than the
baseline's by more than its bound. ``setup_s`` is one sample per run, so
only its median is held to the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# counts that must repeat exactly for the same seed and code
EXACT_PREFIXES = ("tree.nodes.", "tree.internal_nodes.", "tree.fit_tree_calls.", "persist.bytes.")
EXACT_NAMES = ("nuopt.evaluations", "sr_model_bytes", "tree.rows_routed")
SPREAD_EXEMPT = ("setup_s",)


def is_exact(name: str) -> bool:
    return name in EXACT_NAMES or name.startswith(EXACT_PREFIXES)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = json.loads(lines[-2])["report"]
    result["wall_s"] = wall
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != declared:
        sys.exit(f"seed {seed}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))}")
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: {result['failed']} of {result['attempted']} checks failed")
    return result


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def medians(results: list[dict]) -> dict:
    return {
        name: statistics.median(r["metrics"][name]["value"] for r in results)
        for name in results[0]["metrics"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", type=Path, help="runs file of an earlier set to compare medians with")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    baseline = None
    if args.baseline:
        baseline = medians(json.loads(args.baseline.read_text()))

    runs = []
    for seed in args.seeds:
        result = run_once(spec, args.workload, seed, args.trace)
        runs.append((seed, result))
        print(f"seed {seed}: {result['attempted']} operations, 0 failed, {result['wall_s']:.1f} s", flush=True)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    seeds = f"{min(args.seeds)}-{max(args.seeds)}"
    out_path = out_dir / f"steady-{args.workload}-trace{args.trace}-seeds{seeds}.json"
    out_path.write_text(json.dumps([{"seed": seed, **result} for seed, result in runs]))
    print(f"runs written to {out_path.relative_to(ROOT)}")

    problems = []
    for seed in sorted(set(args.seeds)):
        same = [result["metrics"] for s, result in runs if s == seed]
        for name, entry in same[0].items():
            if is_exact(name) and any(m[name]["value"] != entry["value"] for m in same[1:]):
                problems.append(f"exact count differs: seed {seed} {name}")

    now = medians([result for _, result in runs])
    print(f"{'metric':40s} {'median':>14s} {'spread':>8s} {'worse':>8s} {'bound':>6s}")
    for name, median in now.items():
        s = spread([result["metrics"][name]["value"] for _, result in runs])
        metric = declared.get(name)
        bound = metric["bound"] if metric else None
        worse = float("nan")
        if baseline is not None and name in baseline and baseline[name]:
            change = (median - baseline[name]) / baseline[name]
            worse = change if metric is None or metric["better"] == "lower" else -change
        flags = []
        if bound is not None:
            if s > bound:
                flags.append("spread over bound" + (" (exempt)" if name in SPREAD_EXEMPT else ""))
                if name not in SPREAD_EXEMPT:
                    problems.append(f"{name}: spread {s:.4f} over bound {bound}")
            elif s > bound / 3:
                flags.append("spread over a third")
            if worse > bound:
                flags.append("median worse than baseline by more than bound")
                problems.append(f"{name}: median worse by {worse:.4f}, bound {bound}")
        bound_text = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{name:40s} {median:14.6g} {s:8.4f} {worse:8.4f} {bound_text} {'; '.join(flags)}")
    for item in problems:
        print(item)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
