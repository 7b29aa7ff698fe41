#!/usr/bin/env python3
"""Run the full evaluation into results/ with one command.

Produces three groups of artifacts under the output directory:

  benchmark/   32-trial comparison on the fuel-economy data: per-trial
               scores, summary table with paired p-values, nu histogram,
               per-model score histograms
  nu_curve/    objective decomposition (corr and gradient-magnitude
               terms) over a log grid of nu, with validation MSE per point
  pca_diag/    initial/terminal projections of a small synthetic run on
               the collection's leading principal axis

Everything is seeded; rerunning overwrites the same files byte-for-byte.
"""

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from shooting import cli  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--data",
        default=str(REPO_ROOT / "data" / "auto-mpg.data"),
        help="fuel-economy file (default: bundled copy)",
    )
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "results"),
        help="output directory (default: results/)",
    )
    parser.add_argument("--seed", help="master seed for every stage (default: the CLI's)")
    parser.add_argument("--trials", help="benchmark trial count (default: the CLI's)")
    args = parser.parse_args()
    out = Path(args.out)
    # forward only what was given, so the CLI's defaults are stated once
    seed = [] if args.seed is None else ["--seed", args.seed]
    trials = [] if args.trials is None else ["--trials", args.trials]

    stages = [
        (
            "benchmark",
            ["benchmark", "--data", args.data, *trials, *seed, "--out", str(out / "benchmark")],
        ),
        (
            "nu_curve",
            ["nu-curve", "--data", args.data, *seed, "--out", str(out / "nu_curve")],
        ),
        ("pca_diag", ["pca-diag", *seed, "--out", str(out / "pca_diag")]),
    ]
    for name, argv in stages:
        print(f"== {name} ==", flush=True)
        code = cli.main(argv)
        if code != 0:
            print(f"{name} failed with exit code {code}", file=sys.stderr)
            return code

    print(f"all outputs under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
