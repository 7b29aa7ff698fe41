#!/usr/bin/env python3
"""Check that every SR tree the CLI commands grow equals fit_tree's.

Runs benchmark (32 trials, k = 100), nu-curve (its default grid) and
pca-diag at their defaults, on the bundled data, into a temporary
directory. Every SR fit goes through fit_at_nu, which grows its trees in
one batched pass once there are enough of them; each tree it returns is
checked against fit_tree on a fresh Presort, one tree at a time, and the
feature, threshold and leaf-value arrays must be equal byte for byte. Exits
1 on the first mismatch, or when a command grew no tree in a batched pass,
and prints one line per command otherwise.

    python scripts/grow_parity.py [--data PATH]
"""

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from shooting import Presort, cli, ensemble, fit_tree, gradient_targets, tree  # noqa: E402


class Mismatch(Exception):
    pass


def checked(fit_at_nu, counts: dict):
    """fit_at_nu that checks each tree of the ensemble it returns."""

    def fit(train, start, nu):
        model = fit_at_nu(train, start, nu)
        targets = gradient_targets(start[2], start[1].projected, nu)
        presort = Presort(train.features)
        for i, tree in enumerate(model.trees):
            alone = fit_tree(presort, targets[:, i])
            for name in ("feature", "threshold", "value"):
                if getattr(tree, name).tobytes() != getattr(alone, name).tobytes():
                    raise Mismatch(f"fit {counts['fits'] + 1}, tree {i}: {name} differs")
        counts["fits"] += 1
        counts["trees"] += len(model.trees)
        return model

    return fit


def counted(grow_batch, counts: dict):
    """tree._grow_batch that counts the trees it grows."""

    def grow(presort, columns):
        counts["batched"] += len(columns)
        return grow_batch(presort, columns)

    return grow


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--data", default=str(REPO_ROOT / "data" / "auto-mpg.data"))
    args = parser.parse_args()
    original, grow_batch = ensemble.fit_at_nu, tree._grow_batch
    with tempfile.TemporaryDirectory() as out:
        commands = [
            ["benchmark", "--data", args.data, "--out", f"{out}/benchmark"],
            ["nu-curve", "--data", args.data, "--out", f"{out}/nu_curve"],
            ["pca-diag", "--out", f"{out}/pca_diag"],
        ]
        for argv in commands:
            counts = {"fits": 0, "trees": 0, "batched": 0}
            # fit_shooting finds fit_at_nu in ensemble, nu-curve in cli
            ensemble.fit_at_nu = cli.fit_at_nu = checked(original, counts)
            tree._grow_batch = counted(grow_batch, counts)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            except Mismatch as exc:
                print(f"{argv[0]}: {exc}")
                return 1
            finally:
                ensemble.fit_at_nu = cli.fit_at_nu = original
                tree._grow_batch = grow_batch
            if code != 0:
                print(f"{argv[0]} exited {code}")
                return 1
            print(
                f"{argv[0]}: {counts['trees']} trees of {counts['fits']} fits equal fit_tree's, "
                f"{counts['batched']} grown in batched passes"
            )
            if not counts["batched"]:
                print(f"{argv[0]}: no tree grew in a batched pass, so the pass went unchecked")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
