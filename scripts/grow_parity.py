#!/usr/bin/env python3
"""Check every SR and RF tree the CLI commands grow against plain fit_tree,
and every SR and RF model's packed walk against its trees' own walks.

Runs benchmark (32 trials, k = 100), nu-curve (its default grid) and
pca-diag at their defaults, on the bundled data, into a temporary
directory. Every SR fit goes through fit_at_nu and every RF fit through
fit_rf, which hand their trees to tree.grow_trees, and it grows them in
one batched pass (tree._grow_batch). The oracle is plain fit_tree, one
tree at a time: it grows node by node, at a cap of the row count, which
never binds, since a tree on m rows is at most m - 1 deep. The two
growers cut with one search (tree._cut_sse), so what this checks is what
the pass adds around it: the dedupe of byte-equal targets, the groups,
node totals, padding to the block width, the partition, RF's stacked
resamples and the assembly of trees from level records. The independent
check of the search is reference_fit_tree in tests/test_tree.py, which
re-sorts every node and searches one feature at a time. Each SR tree is
checked against fit_tree(presort, y) on a fresh Presort, and each RF tree
against fit_tree(x[rows], y[rows]) on its bootstrap rows, a fresh matrix,
one tree at a time; the feature, threshold and leaf-value arrays must be
equal byte for byte. Exits 1 on the first mismatch, when a command grew
no SR tree in a batched pass, or when benchmark grew no RF tree in one,
and prints one line per command otherwise, with the number of distinct
trees the passes grew (byte-equal SR targets of one fit, as at nu = 0,
grow once).

Each of those SR and RF models is also walked: its packed forest's leaf
values on the fit's training rows (Forest.leaves, which walks densely to
the median leaf depth and then walks the (tree, row) pairs still inside a
tree) must equal predict_tree's, one tree at a time, byte for byte. An SR
leaf holds one training row, so those rows end at every leaf depth and
every drop of finished pairs runs. The line per command ends with the
number of models walked.

    python scripts/grow_parity.py [--data PATH]
"""

import argparse
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from shooting import Presort, cli, ensemble, fit_tree, gradient_targets, predict_tree, tree  # noqa: E402
from shooting.rng import BOOTSTRAP_STREAM, make_rng  # noqa: E402


class Mismatch(Exception):
    pass


def compare(tree, alone, where: str) -> None:
    for name in ("feature", "threshold", "value"):
        if getattr(tree, name).tobytes() != getattr(alone, name).tobytes():
            raise Mismatch(f"{where}: {name} differs")


def walk(model, features, where: str, counts: dict) -> None:
    """The packed forest's leaf values on features must be each tree's
    own walk's, byte for byte."""
    packed = np.hstack([values for _, values in model.forest.leaves(features)])
    alone = np.array([predict_tree(tree, features) for tree in model.trees])
    if packed.tobytes() != alone.tobytes():
        raise Mismatch(f"{where}: the packed walk's leaf values differ from predict_tree's")
    counts["walked"] += 1


def checked(fit_at_nu, counts: dict):
    """fit_at_nu that checks each tree of the ensemble it returns against
    the per-node search."""

    def fit(train, start, nu):
        model = fit_at_nu(train, start, nu)
        targets = gradient_targets(start[2], start[1].projected, nu)
        presort = Presort(train.features)
        for i, tree in enumerate(model.trees):
            alone = fit_tree(presort, targets[:, i])
            compare(tree, alone, f"SR fit {counts['fits'] + 1}, tree {i}")
        walk(model, train.features, f"SR fit {counts['fits'] + 1}", counts)
        counts["fits"] += 1
        counts["trees"] += len(model.trees)
        return model

    return fit


def checked_rf(fit_rf, counts: dict):
    """fit_rf that checks each tree of the forest it returns against the
    per-node search on its bootstrap rows."""

    def fit(train, config):
        model = fit_rf(train, config)
        m = train.n_rows
        for i, tree in enumerate(model.trees):
            rows = make_rng(config.seed, BOOTSTRAP_STREAM, i).integers(0, m, size=m)
            alone = fit_tree(train.features[rows], train.target[rows])
            compare(tree, alone, f"RF fit {counts['rf_fits'] + 1}, tree {i}")
        walk(model, train.features, f"RF fit {counts['rf_fits'] + 1}", counts)
        counts["rf_fits"] += 1
        counts["rf_trees"] += len(model.trees)
        return model

    return fit


def counted(grow_batch, counts: dict):
    """tree._grow_batch that counts the distinct SR and RF trees it grows."""

    def grow(presort, columns, rows):
        trees = grow_batch(presort, columns, rows)
        counts["batched" if rows is None else "rf_batched"] += len({id(tree) for tree in trees})
        return trees

    return grow


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--data", default=str(REPO_ROOT / "data" / "auto-mpg.data"))
    args = parser.parse_args()
    original, original_rf, grow_batch = ensemble.fit_at_nu, cli.fit_rf, tree._grow_batch
    with tempfile.TemporaryDirectory() as out:
        commands = [
            ["benchmark", "--data", args.data, "--out", f"{out}/benchmark"],
            ["nu-curve", "--data", args.data, "--out", f"{out}/nu_curve"],
            ["pca-diag", "--out", f"{out}/pca_diag"],
        ]
        for argv in commands:
            counts = dict.fromkeys(["fits", "trees", "batched", "rf_fits", "rf_trees", "rf_batched", "walked"], 0)
            # fit_shooting finds fit_at_nu in ensemble, nu-curve in cli
            ensemble.fit_at_nu = cli.fit_at_nu = checked(original, counts)
            cli.fit_rf = checked_rf(original_rf, counts)
            tree._grow_batch = counted(grow_batch, counts)
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            except Mismatch as exc:
                print(f"{argv[0]}: {exc}")
                return 1
            finally:
                ensemble.fit_at_nu = cli.fit_at_nu = original
                cli.fit_rf = original_rf
                tree._grow_batch = grow_batch
            if code != 0:
                print(f"{argv[0]} exited {code}")
                return 1
            line = (
                f"{argv[0]}: {counts['trees']} SR trees of {counts['fits']} fits equal the "
                f"per-node search's, {counts['batched']} distinct grown in batched passes"
            )
            if counts["rf_fits"]:
                line += (
                    f"; {counts['rf_trees']} RF trees of {counts['rf_fits']} fits equal the per-node "
                    f"search's on their bootstrap rows, {counts['rf_batched']} distinct grown in batched passes"
                )
            line += f"; {counts['walked']} models walk like their trees on their training rows"
            print(line)
            if not counts["batched"]:
                print(f"{argv[0]}: no SR tree grew in a batched pass, so the pass went unchecked")
                return 1
            if argv[0] == "benchmark" and not counts["rf_batched"]:
                print(f"{argv[0]}: no RF tree grew in a batched pass, so the pass went unchecked")
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
