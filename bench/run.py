"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {trial,predict,diag} --seed N \
        --seconds S --trace {0,1}

Run from the repository root (any directory works; paths resolve from
this file). The package is imported from ``src/`` and data from ``data/``;
a directory without them exits with code 2 before printing a result.

With ``--trace 0`` the last line carries every end-to-end metric; with
``--trace 1`` every per-layer metric from a separate traced pass. The line
before it is a report holding the environment, per-metric sample counts
and tail percentiles, output digests, failures and tracing overhead. A
traced run also writes its spans to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

# BLAS must see these before numpy loads; nproc is 2 and the benchmark is
# single-threaded by design
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("trial", "predict", "diag")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    required = (ROOT / "src" / "shooting" / "__init__.py", ROOT / "data" / "auto-mpg.data")
    missing = [str(p.relative_to(ROOT)) for p in required if not p.is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import shooting  # noqa: F401
    import shooting.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads as W

    tmp_parent = ROOT / ".bench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_parent))
    try:
        bench = W.Bench(seed=args.seed, root=ROOT, tmp=tmp)
        result = W.run(bench, args.workload, args.seconds, bool(args.trace), import_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass  # another run still uses it
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "import_s": import_s,
        "kernel_s": W.summarize([d for _, d in bench.clock.kernel_s]),
        "raw": {name: W.summarize(values) for name, values in bench.raw.items()},
        "digests": bench.digests,
        "trial_table": bench.trial_rows,
        "trial_table_sha256": hashlib.sha256(
            "\n".join(bench.trial_rows[t] for t in sorted(bench.trial_rows)).encode()
        ).hexdigest(),
        "failures": bench.failures,
    }
    if args.trace:
        metrics = W.layer_metrics(bench, result)
        report["tracing_overhead"] = W.overhead(bench)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        from spans import to_records

        spans_path.write_text(json.dumps(to_records(result["tracer"].spans)))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, report["samples"] = W.end_to_end(bench, result)

    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": not bench.failures,
                "attempted": bench.attempted,
                "failed": len(bench.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
