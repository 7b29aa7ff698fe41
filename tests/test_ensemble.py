"""Ensemble assembly: targets, aggregation, the exact-gradient identity."""

from __future__ import annotations

import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shooting import (
    Dataset,
    RegressionTree,
    SRConfig,
    ShootingEnsemble,
    augment,
    balanced_magnitude_weight,
    build_cache,
    ensemble,
    fit_ols,
    fit_shooting,
    fit_tree,
    gradient_targets,
    initial_vectors,
    make_synthetic,
    minimize_nu,
    oracle_predict,
    predict,
    predict_per_estimator,
    project_trajectories,
    sample_offsets,
    shooting_start,
    split,
)
from shooting.tree import LEAF, SMALL_BLOCK


def fitted_pieces(seed=0, m=40, n=3, k=5, noise=1.0):
    d = make_synthetic(m, n, noise, seed)
    return (d, *shooting_start(d, k, seed))


# -------------------------------------------------------- gradient_targets


def test_targets_at_nu_zero_are_plain_residuals():
    d, linear, offsets, z = fitted_pieces()
    want = augment(d.features) @ linear.coefficients - d.target
    g = gradient_targets(z, offsets.projected, 0.0)
    assert g.shape == (40, 5)
    assert np.allclose(g, want[:, None], atol=0)


def test_shooting_start_matches_its_parts():
    d, linear, offsets, _ = fitted_pieces(seed=2)
    ols = fit_ols(d)
    assert np.array_equal(linear.coefficients, ols.coefficients)
    assert np.array_equal(
        offsets.offsets, sample_offsets(ols, d.features, 5, 2).offsets
    )


def test_targets_linear_in_nu():
    _, _, offsets, z = fitted_pieces(seed=3)
    g1 = gradient_targets(z, offsets.projected, 1.0)
    g3 = gradient_targets(z, offsets.projected, 3.0)
    g0 = gradient_targets(z, offsets.projected, 0.0)
    assert np.abs(g0 + 3.0 * (g1 - g0) - g3).max() <= 1e-10


def test_targets_shape_mismatch():
    _, _, offsets, z = fitted_pieces()
    _, _, _, other_z = fitted_pieces(seed=9, m=12)
    with pytest.raises(ValueError):
        gradient_targets(other_z, offsets.projected, 1.0)
    # numpy alone would broadcast a length-1 z over every row
    with pytest.raises(ValueError):
        gradient_targets(z[:1], offsets.projected, 1.0)
    # a length-m vector passed the row check and broadcast to (m, m)
    with pytest.raises(ValueError, match="^projected must be a 2-D matrix"):
        gradient_targets(z, offsets.projected[:, 0], 1.0)
    with pytest.raises(ValueError, match="projected"):
        gradient_targets(z, offsets.projected[None], 1.0)
    with pytest.raises(ValueError, match="z must be a vector"):
        gradient_targets(z[:, None], offsets.projected, 1.0)


def test_noiseless_targets_are_pure_offset_projections():
    # exact linear data: z is 0, so the target IS nu * X~ D_i
    d = make_synthetic(30, 2, 0.0, 5)
    _, offsets, z = shooting_start(d, 4, 5)
    g = gradient_targets(z, offsets.projected, 2.0)
    assert np.abs(g - 2.0 * offsets.projected).max() <= 1e-9


# ------------------------------------------------------------ fit_shooting


def tuned_result(train: Dataset, k: int, seed: int):
    """minimize_nu on the cache of fit_shooting's start, as fit_shooting
    runs it at the balanced magnitude weight."""
    _, offsets, z = shooting_start(train, k, seed)
    cache = build_cache(z, offsets.projected)
    return minimize_nu(cache, magnitude_weight=balanced_magnitude_weight(cache))


def test_fit_smoke_mpg(mpg):
    train, val = split(mpg, 0.5, 17)
    model = fit_shooting(train, SRConfig(k=20, seed=17))
    assert model.k == 20
    assert model.n_features == train.n_features
    assert 0.0 < model.nu < np.inf
    assert tuned_result(train, 20, 17).nu == model.nu
    pred = predict(model, val.features)
    assert pred.shape == (val.n_rows,)
    assert np.all(np.isfinite(pred))


def test_training_predictions_reproduce_targets():
    # deep trees drive every gradient estimate to its exact target on the
    # training rows, so the corrected estimates all collapse onto Y
    d = make_synthetic(60, 3, 1.0, seed=11)
    model = fit_shooting(d, SRConfig(k=7, seed=11))
    per = predict_per_estimator(model, d.features)
    assert np.abs(per - d.target[:, None]).max() <= 1e-9
    assert np.abs(predict(model, d.features) - d.target).max() <= 1e-9


def test_fit_deterministic():
    d = make_synthetic(50, 3, 1.0, 2)
    a = fit_shooting(d, SRConfig(k=6, seed=9))
    b = fit_shooting(d, SRConfig(k=6, seed=9))
    assert a.nu == b.nu
    assert np.array_equal(a.offsets, b.offsets)
    xq = make_synthetic(20, 3, 1.0, 77).features
    assert np.array_equal(predict(a, xq), predict(b, xq))


@given(
    split_seed=st.integers(0, 2),
    y_seed=st.integers(0, 2**32),
    log_scale=st.floats(-3.0, 3.0),
    shift=st.floats(-1e3, 1e3),
)
@settings(max_examples=60, deadline=None)
def test_tuned_nu_ignores_the_target(mpg, split_seed, y_seed, log_scale, shift):
    # z is orthogonal to every projected offset on the training rows and
    # the rest of the objective is invariant to the residual scale, so nu
    # depends on X and the seed only. The search takes the same branches
    # for any Y, so nu is asserted bit-equal; no near-tie has turned up.
    train, _ = split(mpg, 0.5, split_seed)
    config = SRConfig(seed=split_seed)
    y = 10.0**log_scale * np.random.default_rng(y_seed).standard_normal(train.n_rows)
    noise = Dataset(train.features, y + shift)
    with pytest.MonkeyPatch.context() as patch:
        # one-leaf trees: only the tuning is under test, and it precedes them
        patch.setattr(ensemble, "grow_trees", lambda presort, y: tuple(fit_tree(presort, c, 0) for c in y.T))
        assert fit_shooting(noise, config).nu == fit_shooting(train, config).nu


def tuned_nu(train: Dataset) -> float:
    """nu as fit_shooting tunes it (k = 20, seed 1), with one-leaf trees:
    the tuning precedes them."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ensemble, "grow_trees", lambda presort, y: tuple(fit_tree(presort, c, 0) for c in y.T))
        return fit_shooting(train, SRConfig(k=20, seed=1)).nu


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j", [-500, -300, -200, -150, -100, -50, -10, -1, 300, 480])
def test_tuned_nu_is_bit_equal_under_target_scale(mpg, j):
    # Y x 2^j scales z and every offset exactly, so nu is the same double;
    # the OLS exactness test is relative to y.y and no small Y reads as a
    # perfect linear fit, and the correlations scale the variances by a
    # power of two before multiplying them
    train, _ = split(mpg, 0.5, 0)
    scaled = Dataset(train.features, np.ldexp(train.target, j))
    assert tuned_nu(scaled) == tuned_nu(train)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j", [-500, -300, -100, -40, -30, -20, 20, 30, 40, 100, 300, 500])
@pytest.mark.parametrize("column", [3, 6])  # weight and origin
def test_tuned_nu_is_bit_equal_under_feature_units(mpg, column, j):
    # a feature x 2^j is a change of units: OLS and the offset draws are
    # equivariant to it, and the condition estimate, taken on the
    # column-equilibrated design, ignores it
    train, _ = split(mpg, 0.5, 0)
    features = train.features.copy()
    features[:, column] = np.ldexp(features[:, column], j)
    assert tuned_nu(Dataset(features, train.target)) == tuned_nu(train)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j", [-200, -40, 40, 300])
def test_predictions_scale_with_the_target(mpg, j):
    # Y x 2^j scales z, every offset and every gradient target exactly, so
    # the trees keep their cuts and the predictions scale by 2^j
    train, val = split(mpg, 0.5, 0)
    scaled = Dataset(train.features, np.ldexp(train.target, j))
    config = SRConfig(k=20, seed=1)
    want = np.ldexp(predict(fit_shooting(train, config), val.features), j)
    assert np.array_equal(predict(fit_shooting(scaled, config), val.features), want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j", [-40, -20, 20, 40])
@pytest.mark.parametrize("column", [3, 6])  # weight and origin
def test_feature_units_leave_trees_and_predictions(mpg, column, j):
    # the gradient targets do not depend on the units of a feature, and a
    # cut's midpoint scales with its column, so the trees cut the same
    # features and every query routes to the same leaves
    def rescaled(d: Dataset) -> np.ndarray:
        features = d.features.copy()
        features[:, column] = np.ldexp(features[:, column], j)
        return features

    train, val = split(mpg, 0.5, 0)
    config = SRConfig(k=20, seed=1)
    base = fit_shooting(train, config)
    model = fit_shooting(Dataset(rescaled(train), train.target), config)
    assert all(np.array_equal(a.feature, b.feature) for a, b in zip(model.trees, base.trees))
    assert np.array_equal(predict(model, rescaled(val)), predict(base, val.features))


def test_fixed_nu_skips_tuning():
    d = make_synthetic(30, 2, 1.0, 4)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ensemble, "minimize_nu", None)  # a call would fail
        model = fit_shooting(d, SRConfig(k=3, nu=0.5, seed=4))
    assert model.nu == 0.5


def test_k_one_falls_back_with_warning():
    d = make_synthetic(30, 2, 1.0, 6)
    with pytest.warns(RuntimeWarning, match=r"\(need at least 2 offset columns\)"):
        model = fit_shooting(d, SRConfig(k=1, seed=6))
    assert model.nu == 1.0
    assert model.k == 1


def test_noiseless_data_falls_back_with_warning():
    # perfect linear fit leaves a constant-zero residual vector, which the
    # correlation objective cannot score
    d = make_synthetic(30, 2, 0.0, 8)
    with pytest.warns(RuntimeWarning, match="degenerate"):
        model = fit_shooting(d, SRConfig(k=4, seed=8))
    assert model.nu == 1.0


def test_fallback_warning_names_the_caller():
    # the warning points past the package's frames at the line that
    # asked for a fit, not at the warnings.warn call
    with pytest.warns(RuntimeWarning, match="degenerate") as record:
        fit_shooting(make_synthetic(30, 2, 0.0, 8), SRConfig(k=4, seed=8))
    assert [w.filename for w in record] == [__file__]


def test_nu_is_a_python_float_on_every_path():
    # this tuned nu is a golden-section step, not a grid point
    d = make_synthetic(80, 3, 1.0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        models = [
            fit_shooting(d, SRConfig(k=8, seed=0)),  # tuned
            fit_shooting(d, SRConfig(k=8, nu=np.float64(0.5), seed=0)),  # fixed
            fit_shooting(d, SRConfig(k=1, seed=0)),  # fallback: k < 2
            fit_shooting(make_synthetic(30, 2, 0.0, 8), SRConfig(k=4, seed=8)),  # degenerate
        ]
    for model in models:
        assert type(model.nu) is float
    result = tuned_result(d, 8, 0)
    assert result.nu == models[0].nu
    for value in (result.nu, result.objective_value, result.corr_term, result.magnitude_term):
        assert type(value) is float


def test_prediction_invariant_to_estimator_order():
    d = make_synthetic(40, 3, 1.0, 13)
    model = fit_shooting(d, SRConfig(k=9, seed=13))
    xq = make_synthetic(25, 3, 1.0, 99).features
    per = predict_per_estimator(model, xq)
    base = predict(model, xq)
    rng = np.random.default_rng(0)
    for _ in range(5):
        perm = rng.permutation(9)
        shuffled = per[:, perm]
        again = np.array([math.fsum(row) for row in shuffled]) / 9
        assert np.array_equal(base, again)


def test_initial_vectors_match_linear_parts():
    d, linear, offsets, _ = fitted_pieces(seed=21, k=3)
    model = fit_shooting(d, SRConfig(k=3, nu=2.0, seed=21))
    x = augment(d.features)
    want = (x @ linear.coefficients)[:, None] + 2.0 * (x @ offsets.offsets)
    assert np.abs(initial_vectors(model, d.features) - want).max() <= 1e-12


def test_initial_vectors_and_predicts_check_their_features():
    d = make_synthetic(30, 3, 1.0, 21)
    model = fit_shooting(d, SRConfig(k=3, nu=2.0, seed=21))
    # numpy's matmul message named no argument
    with pytest.raises(ValueError, match=r"^features must be of shape \(\*, 3\), got \(30, 2\)"):
        initial_vectors(model, d.features[:, :2])
    with pytest.raises(ValueError, match="^features must be finite"):
        initial_vectors(model, np.full((2, 3), np.nan))
    # numpy dropped the imaginary part behind a ComplexWarning
    for call in (initial_vectors, predict, predict_per_estimator):
        with pytest.raises(ValueError, match="^features must be real numbers, not complex"):
            call(model, d.features + 1j)


# ---------------------------------------------------------- oracle_predict


@pytest.mark.parametrize("nu", [0.0, 0.5, 5.0])
@pytest.mark.parametrize("k", [1, 3, 10])
def test_oracle_collapses_to_target(nu, k):
    for seed in range(20):
        d, linear, offsets, _ = fitted_pieces(seed=seed, m=25, n=2, k=k)
        base = (augment(d.features) @ linear.coefficients)[:, None]
        per, agg = oracle_predict(base + nu * offsets.projected, d.target)
        assert np.abs(per - d.target[:, None]).max() <= 1e-9
        assert np.abs(agg - d.target).max() <= 1e-9


def test_mean_initial_vector_unbiased_for_linear_prediction():
    # averaging over offset draws must reproduce X~ B: no systematic shift
    d = make_synthetic(30, 2, 1.0, 42)
    linear = fit_ols(d)
    x = augment(d.features)
    base = x @ linear.coefficients
    total = np.zeros(d.n_rows)
    draws = 10_000
    for rep in range(draws):
        offsets = sample_offsets(linear, d.features, 1, rep)
        total += base + 1.0 * offsets.projected[:, 0]
    mc_mean = total / draws
    # per-row standard error of the Monte-Carlo mean
    factor = linear.covariance_factor
    var_rows = np.einsum("ij,jk,ik->i", x, factor @ factor.T, x)
    se = np.sqrt(var_rows / draws)
    assert np.all(np.abs(mc_mean - base) <= 4.0 * se + 1e-12)


# ------------------------------------------------------------- projection


def test_projection_rejects_zero_variance():
    flat = np.ones((4, 3))
    with pytest.raises(ValueError, match="zero variance"):
        project_trajectories(flat, flat, np.ones(4))


def test_projection_shape_mismatch():
    with pytest.raises(ValueError):
        project_trajectories(np.zeros((4, 3)), np.zeros((4, 2)), np.zeros(4))


def test_projection_names_the_shapes_it_expects():
    # 1-D inputs of one length used to fail as "collection has zero variance"
    v = np.arange(4.0)
    with pytest.raises(ValueError, match="^initial must be a 2-D matrix"):
        project_trajectories(v, v, v)
    with pytest.raises(ValueError, match="^target must be a vector"):
        project_trajectories(np.ones((4, 3)), np.ones((4, 3)), np.ones((4, 1)))


def test_projection_axis_aligned_collection():
    # vectors differ only in coordinate 0, so the leading axis is e_0 and
    # each projected coordinate is that first entry
    base = np.array([0.0, 7.0, -3.0])
    initial = np.column_stack([base + np.array([s, 0, 0]) for s in (1.0, 2.0, 4.0)])
    terminal = np.column_stack([base + np.array([s, 0, 0]) for s in (-1.0, 0.5, 3.0)])
    target = base + np.array([10.0, 0.0, 0.0])
    diag = project_trajectories(initial, terminal, target)
    shift = base @ np.array([1.0, 0.0, 0.0])
    assert diag.initial_coords - shift == pytest.approx([1.0, 2.0, 4.0], abs=1e-9)
    assert diag.terminal_coords - shift == pytest.approx([-1.0, 0.5, 3.0], abs=1e-9)
    assert diag.target_coord - shift == pytest.approx(10.0, abs=1e-9)


def near_tie_collection(rng) -> np.ndarray:
    """11 rows in 12 dimensions whose covariance has eigenvalues 1, 0.9999,
    0.5, 0.25, ... along random orthogonal axes: the top two nearly tie."""
    scores = rng.standard_normal((11, 10))
    scores -= scores.mean(axis=0)
    variances = np.array([1.0, 0.9999, *0.5 ** np.arange(1, 9)])
    scores = np.linalg.qr(scores)[0] * np.sqrt(11.0 * variances)
    axes = np.linalg.qr(rng.standard_normal((12, 12)))[0][:, :10]
    return scores @ axes.T + rng.standard_normal(12)


def test_projection_matches_dense_eigendecomposition():
    rng = np.random.default_rng(31)
    initial = rng.standard_normal((12, 5))
    terminal = rng.standard_normal((12, 5))
    target = rng.standard_normal(12)
    plain = np.vstack([initial.T, terminal.T, target[None, :]])
    for collection in (plain, near_tie_collection(rng)):
        initial, terminal, target = collection[:5].T, collection[5:10].T, collection[10]
        centered = collection - collection.mean(axis=0)
        cov = centered.T @ centered / collection.shape[0]
        vals, vecs = np.linalg.eigh(cov)
        axis = vecs[:, -1]
        if axis[np.argmax(np.abs(axis))] < 0:
            axis = -axis
        # the angle between the axes, in radians
        got = ensemble._leading_component(collection)
        assert math.atan2(np.linalg.norm(got - (got @ axis) * axis), got @ axis) <= 1e-6
        diag = project_trajectories(initial, terminal, target)
        assert diag.initial_coords == pytest.approx(initial.T @ axis, abs=1e-7)
        assert diag.terminal_coords == pytest.approx(terminal.T @ axis, abs=1e-7)
        assert diag.target_coord == pytest.approx(float(target @ axis), abs=1e-7)


def test_fitted_ensemble_terminal_coords_near_target():
    # deep trees reproduce training targets exactly, so every terminal
    # vector sits on Y and shares Y's projected coordinate
    d = make_synthetic(50, 2, 1.0, seed=19)
    model = fit_shooting(d, SRConfig(k=5, seed=19))
    diag = project_trajectories(
        initial_vectors(model, d.features),
        predict_per_estimator(model, d.features),
        d.target,
    )
    assert diag.initial_coords.shape == (5,)
    assert diag.terminal_coords.shape == (5,)
    assert np.abs(diag.terminal_coords - diag.target_coord).max() <= 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        SRConfig(k=0)
    with pytest.raises(ValueError):
        SRConfig(nu=-1.0)
    # tune_nu always searches at the balanced weight
    with pytest.raises(TypeError):
        SRConfig(magnitude_weight=1.0)


@pytest.mark.parametrize("field, value", [("k", 2.5), ("k", True), ("seed", 1.5)])
def test_config_rejects_counts_that_are_not_integers(field, value):
    # k = 2.5 would fail inside numpy at fit time and seed = 1.5 fit seed 1
    with pytest.raises(ValueError, match=field):
        SRConfig(**{field: value})
    assert SRConfig(k=np.int64(2), seed=np.int64(-3)).k == 2


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["nu"])
def test_config_rejects_nonfinite(field, value):
    # nan would slip past a plain "< 0" check and fit with a wrong nu
    with pytest.raises(ValueError, match="finite"):
        SRConfig(**{field: value})


@pytest.mark.parametrize("value", [True, np.True_, False])
@pytest.mark.parametrize("field", ["nu"])
def test_config_rejects_booleans(field, value):
    # True would fit silently as 1.0
    with pytest.raises(ValueError, match=f"{field} must be a number, not a boolean"):
        SRConfig(**{field: value})


@pytest.mark.parametrize(
    "trees, message",
    [
        (None, "^trees must be a tuple of RegressionTrees$"),
        (3, "^trees must be a tuple of RegressionTrees$"),
        ([], "^trees must be a tuple of RegressionTrees$"),
        ((), "^trees: a model needs at least one tree$"),
    ],
    ids=["None", "int", "empty list", "empty tuple"],
)
def test_trees_are_checked_before_the_offsets_read_k(trees, message):
    # the offsets' shape (p + 1, k) reads k from the trees, so a bad trees
    # must fail on its own check, not as a TypeError or an offsets shape
    with pytest.raises(ValueError, match=message):
        ShootingEnsemble(np.zeros(3), np.zeros((3, 2)), 1.0, trees)


# ------------------------------------------------- features too large


def identity_ensemble(k: int, slope: float) -> ShootingEnsemble:
    """One feature, B = (0, slope), no offsets and one-leaf trees of value
    0: every member estimate is slope * x."""
    leaf = RegressionTree(np.array([LEAF]), np.zeros(0), np.zeros(1), 1)
    return ShootingEnsemble(np.array([0.0, slope]), np.zeros((2, k)), 0.0, (leaf,) * k)


# the second size is past the blocks that row_means sums with fsum alone
@pytest.mark.parametrize("n_rows", [4, SMALL_BLOCK // 3 + 1])
def test_member_sum_overflow_is_a_value_error(n_rows):
    # members of 1e308 are finite; three of them sum past the float range
    model = identity_ensemble(3, 1.0)
    x = np.arange(1.0, n_rows + 1)[:, None]
    x[n_rows - 2 :] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(predict_per_estimator(model, x)[:, 0], x[:, 0])
        with pytest.raises(ValueError, match=f"row {n_rows - 2}: .*overflows"):
            predict(model, x)
        assert np.array_equal(predict(model, x[:-2]), x[:-2, 0])


def test_nonfinite_members_are_a_value_error():
    # 2 * 1e308 overflows in the linear prediction itself
    model = identity_ensemble(3, 2.0)
    x = np.array([[1.0], [-1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (predict, predict_per_estimator):
            with pytest.raises(ValueError, match="row 1: .*not finite"):
                fn(model, x)


@pytest.fixture(scope="module")
def mpg_model(mpg):
    return fit_shooting(mpg, SRConfig(k=100, seed=0))


# at 5e306 the members are finite and their sum overflows (fsum raised
# OverflowError); at 1.7e308 the linear predictions overflow (NaN came out)
@pytest.mark.parametrize("value", [5e306, 1.7e308])
def test_huge_features_never_give_nan(mpg, mpg_model, value):
    x = np.vstack([mpg.features[:3], np.full((1, mpg.n_features), value)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="row 3: features too large"):
            predict(mpg_model, x)


# ---------------------------------------------------------------- README


def test_readme_python_examples_run(monkeypatch, capsys):
    # each python block of the README, run from the repo root as written
    root = pathlib.Path(__file__).resolve().parent.parent
    blocks = re.findall(r"^```python\n(.*?)^```", (root / "README.md").read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(root)
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
