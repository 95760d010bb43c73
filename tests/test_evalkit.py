import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from scipy.special import expit

import sparca
from sparca.evalkit import (
    DEFAULT_LAMBDA_GRID,
    KKT_TOL,
    L1LogRegModel,
    PcaBaseline,
    downstream_eval,
    gen_synthetic,
    l1_logreg_fit,
    l1_logreg_predict,
    noise_robustness,
    participation_ratio,
    profile_runtime,
    select_lambda,
    stratified_split,
    _gaussian_profile,
    _logistic_loss,
)
from sparca.data import standardize_apply
from sparca.horn import HornParams
from sparca.pipeline import fit

import oracles
from conftest import block_factor_data
from oracles import smooth_gradient


class TestGenSynthetic:
    def test_equal_spectrum_identity(self):
        assert participation_ratio(np.ones(17)) == pytest.approx(17.0)

    def test_target_rank_achieved(self):
        X = gen_synthetic(50, 100, 20, seed=7)
        assert X.shape == (50, 100)
        s = np.linalg.svd(X, compute_uv=False)
        measured = participation_ratio(s)
        assert 19.0 <= measured <= 21.0
        assert (np.diff(s) <= 1e-12).all() and (s >= 0).all()

    def test_deterministic(self):
        a = gen_synthetic(30, 40, 8, seed=3)
        b = gen_synthetic(30, 40, 8, seed=3)
        assert np.array_equal(a, b)

    def test_full_rank_equal_singular_values(self):
        X = gen_synthetic(30, 40, 30, seed=1)
        s = np.linalg.svd(X, compute_uv=False)
        assert np.allclose(s, s[0], atol=1e-10)
        assert participation_ratio(s) == pytest.approx(30.0)

    def test_infeasible_rank(self):
        with pytest.raises(ValueError, match="infeasible"):
            gen_synthetic(10, 20, 11, seed=0)
        with pytest.raises(ValueError, match="infeasible"):
            gen_synthetic(10, 20, 0, seed=0)

    def test_zero_spectrum_rejected(self):
        with pytest.raises(ValueError, match="^spectrum is identically zero$"):
            participation_ratio(np.zeros(4))

    def test_rank_near_full_widens_the_bracket(self):
        # At width n_values the profile's ratio is below 95 of 100, so the
        # bisection's upper end is doubled before it starts.
        idx = np.arange(100.0)
        assert participation_ratio(np.exp(-0.5 * (idx / 100.0) ** 2)) < 95
        profile = _gaussian_profile(100, 95)
        assert participation_ratio(profile) == pytest.approx(95, rel=1e-9)

    @pytest.mark.parametrize("seed", [True, 1.5, -1, "1"])
    def test_bad_seed_rejected(self, seed):
        # default_rng would take True as 1 and raise its own TypeError on 1.5.
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            gen_synthetic(10, 5, 2, seed=seed)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((10, 5, True), "effective_rank must be a finite number"),
            ((10, 5, "2"), "effective_rank must be a finite number"),
            ((2.5, 5, 2), "n_samples must be an integer >= 1"),
            ((True, 5, 1), "n_samples must be an integer >= 1"),
            ((10, 5.0, 2), "n_features must be an integer >= 1"),
        ],
        ids=["bool-rank", "text-rank", "float-rows", "bool-rows",
             "float-columns"],
    )
    def test_bad_sizes_and_rank_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            gen_synthetic(*args, seed=0)


def _ten_class_problem():
    """400 samples of 10 overlapping Gaussian classes in 30 features."""
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((10, 30))
    y = np.arange(400) % 10
    return centers[y] + 1.5 * rng.standard_normal((400, 30)), y


def _kkt_residuals(model, X, y):
    """Optimality violations: |G + lam sign(w)| on nonzero weights,
    |G| - lam (floored at 0) on zero weights, |intercept gradient|."""
    G, gb = smooth_gradient(model, X, y)
    W, lam = model.weights, model.lam
    weights = np.where(
        W != 0.0, np.abs(G + lam * np.sign(W)), np.maximum(np.abs(G) - lam, 0.0)
    )
    return np.concatenate([weights.ravel(), np.abs(gb)])


def _objective(model, X, y):
    n = X.shape[0]
    Y = np.zeros((n, model.n_classes))
    Y[np.arange(n), y] = 1.0
    Z = X @ model.weights.T + model.intercepts
    loss = (np.logaddexp(0.0, Z) - Y * Z).mean(axis=0).sum()
    return loss + model.lam * np.abs(model.weights).sum()


def _lam_max(X, y):
    """The smallest penalty at which the null model (zero weights, logit
    class frequencies as intercepts) is optimal: its largest weight
    gradient magnitude."""
    Y = np.eye(y.max() + 1)[y]
    return np.abs(X.T @ (Y.mean(axis=0) - Y)).max() / X.shape[0]


def _count_solver_calls(monkeypatch):
    """Make every L-BFGS-B call of l1_logreg_fit count itself."""
    calls = []
    real = scipy.optimize.minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", counted)
    return calls


def _unbalanced_problem():
    """120 samples of 3 classes of sizes 70, 35 and 15 in 5 features."""
    rng = np.random.default_rng(9)
    y = np.repeat([0, 1, 2], [70, 35, 15])
    X = rng.standard_normal((120, 5))
    X[:, 0] += 0.8 * y
    return X, y


class TestL1LogReg:
    @pytest.mark.parametrize("scale", [1.0 + 1e-9, 1.5, 1e6])
    @pytest.mark.parametrize(
        "problem", [_ten_class_problem, _unbalanced_problem],
        ids=["ten-class", "unbalanced"],
    )
    def test_null_model_in_closed_form_at_lam_max(
        self, monkeypatch, problem, scale
    ):
        X, y = problem()
        calls = _count_solver_calls(monkeypatch)
        model = l1_logreg_fit(X, y, scale * _lam_max(X, y))
        assert not calls
        assert model.weights.shape == (y.max() + 1, X.shape[1])
        assert not model.weights.any()
        freq = np.bincount(y) / y.size
        assert np.allclose(
            model.intercepts, np.log(freq / (1 - freq)), rtol=0, atol=1e-15
        )
        assert _kkt_residuals(model, X, y).max() <= KKT_TOL

    @pytest.mark.parametrize(
        "problem", [_ten_class_problem, _unbalanced_problem],
        ids=["ten-class", "unbalanced"],
    )
    def test_solver_runs_just_below_lam_max(self, monkeypatch, problem):
        X, y = problem()
        calls = _count_solver_calls(monkeypatch)
        model = l1_logreg_fit(X, y, 0.99 * _lam_max(X, y))
        assert len(calls) == 1
        assert model.weights.any()
        assert _kkt_residuals(model, X, y).max() <= KKT_TOL

    def test_select_lambda_solves_only_below_each_folds_lam_max(
        self, monkeypatch
    ):
        paths, below = [], []
        real = sparca.evalkit.l1_logreg_fit

        def recorded(X, y, lam, **kwargs):
            paths.append(len(lam))
            below.append(int((np.asarray(lam) < _lam_max(X, y)).sum()))
            return real(X, y, lam, **kwargs)

        monkeypatch.setattr(sparca.evalkit, "l1_logreg_fit", recorded)
        calls = _count_solver_calls(monkeypatch)
        X, y = _ten_class_problem()
        select_lambda(X, y, np.logspace(-2, 1, 7), n_folds=3, seed=0)
        assert paths == [7, 7, 7]
        assert 0 < len(calls) == sum(below) < 3 * 7

    def test_grid_of_one_matches_scalar_fit(self):
        X, y = _ten_class_problem()
        for lam in (0.001, 0.1, 1e6):
            single = l1_logreg_fit(X, y, lam)
            [member] = l1_logreg_fit(X, y, np.array([lam]))
            assert member.lam == single.lam == lam
            assert member.weights.tobytes() == single.weights.tobytes()
            assert member.intercepts.tobytes() == single.intercepts.tobytes()

    @pytest.mark.parametrize(
        "grid", [[0.01, 0.1, 0.001], [0.01, 0.1, 0.01]],
        ids=["unsorted", "repeated"],
    )
    def test_path_comes_back_in_grid_order(self, grid):
        X, y = _ten_class_problem()
        models = l1_logreg_fit(X, y, grid)
        assert [model.lam for model in models] == grid
        for model in models:
            assert _kkt_residuals(model, X, y).max() <= KKT_TOL

    def test_path_solves_only_below_lam_max(self, monkeypatch):
        X, y = _unbalanced_problem()
        lam_max = _lam_max(X, y)
        calls = _count_solver_calls(monkeypatch)
        scales = [2.0, 0.5, 1.0 + 1e-9, 0.1]
        models = l1_logreg_fit(X, y, [scale * lam_max for scale in scales])
        assert len(calls) == 2
        assert [model.weights.any() for model in models] == [
            False, True, False, True
        ]

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([], "^the lam grid is empty"),
            ([[0.01, 0.1]], "^lam must be a number or a 1-D grid"),
            ([True, False], "^lam must be a number or a 1-D grid"),
            (np.array([True]), "^lam must be a number or a 1-D grid"),
            ([0.1, -0.01], "^lam must be a number or a 1-D grid"),
        ],
        ids=["empty", "2-D", "bool", "bool-array", "negative"],
    )
    def test_bad_grid_rejected_before_any_solve(
        self, monkeypatch, grid, message
    ):
        calls = _count_solver_calls(monkeypatch)
        X, y = _ten_class_problem()
        with pytest.raises(ValueError, match=message):
            l1_logreg_fit(X, y, grid)
        assert not calls

    def test_loss_and_residual_match_reference_formulas(self):
        z = np.array([-800.0, -40.0, -1e-12, 0.0, 1e-12, 40.0, 800.0])
        Z = np.column_stack([z, z[::-1]])
        Y = np.zeros_like(Z)
        Y[::2, 0] = Y[1::2, 1] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, R = _logistic_loss(Z, Y)
        reference = (np.logaddexp(0.0, Z) - Y * Z).sum() / Z.shape[0]
        assert loss == pytest.approx(reference, rel=1e-15, abs=0.0)
        assert np.allclose(R, expit(Z) - Y, rtol=1e-15, atol=0.0)

    def test_separable_1d(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = l1_logreg_fit(X, y, 0.0)
        pred = l1_logreg_predict(model, X)
        assert pred.tolist() == [0, 1]
        assert model.weights[1, 0] > 0 > model.weights[0, 0]

    def test_huge_lambda_gives_majority_class(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 5))
        y = np.array([0] * 28 + [1] * 12)
        model = l1_logreg_fit(X, y, 1e6)
        assert not model.weights.any()
        pred = l1_logreg_predict(model, X)
        assert (pred == 0).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 6))
        y = rng.integers(0, 3, 40)
        model = l1_logreg_fit(X, y, 0.05, max_iter=60)
        G, _ = smooth_gradient(model, X, y)
        Y = np.zeros((40, 3))
        Y[np.arange(40), y] = 1.0

        def loss(W):
            Z = X @ W.T + model.intercepts
            return (np.logaddexp(0.0, Z) - Y * Z).mean(axis=0).sum()

        eps = 1e-6
        picks = np.random.default_rng(2)
        for _ in range(20):
            k, j = int(picks.integers(0, 3)), int(picks.integers(0, 6))
            Wp, Wm = model.weights.copy(), model.weights.copy()
            Wp[k, j] += eps
            Wm[k, j] -= eps
            fd = (loss(Wp) - loss(Wm)) / (2 * eps)
            assert abs(fd - G[k, j]) <= 1e-5 * max(abs(fd), 1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_kkt_certificate(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((40, 6))
        w_true = rng.standard_normal(6) * (rng.random(6) < 0.7)
        y = (X @ w_true + 0.5 * rng.standard_normal(40) > 0).astype(int)
        lam = float(10 ** rng.uniform(-2.5, -0.5))
        model = l1_logreg_fit(X, y, lam)
        G, _ = smooth_gradient(model, X, y)
        zero = model.weights == 0.0
        assert (np.abs(G[zero]) <= lam + 1e-4).all()
        nonzero = ~zero
        if nonzero.any():
            resid = G[nonzero] + lam * np.sign(model.weights[nonzero])
            assert np.abs(resid).max() <= 1e-4

    def test_objective_monotone(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 5))
        y = rng.integers(0, 2, 50)
        lam = 0.05

        def objective(model):
            Z = X @ model.weights.T + model.intercepts
            Y = np.zeros((50, 2))
            Y[np.arange(50), y] = 1.0
            losses = (np.logaddexp(0.0, Z) - Y * Z).mean(axis=0)
            return losses + lam * np.abs(model.weights).sum(axis=1)

        previous = None
        for iters in range(1, 14):
            current = objective(l1_logreg_fit(X, y, lam, max_iter=iters))
            if previous is not None:
                assert (current <= previous + 1e-12).all()
            previous = current

    @pytest.mark.parametrize("lam", [0.1, 0.01, 0.001])
    def test_stops_within_kkt_tol(self, lam):
        X, y = _ten_class_problem()
        model = l1_logreg_fit(X, y, lam)
        assert _kkt_residuals(model, X, y).max() <= KKT_TOL

    @pytest.mark.parametrize("lam", [0.01, 0.001])
    def test_warm_start_reaches_cold_optimum(self, lam):
        X, y = _ten_class_problem()
        cold = l1_logreg_fit(X, y, lam)
        _, warm = l1_logreg_fit(X, y, [0.1, lam])
        assert abs(_objective(warm, X, y) - _objective(cold, X, y)) <= 1e-8
        assert np.array_equal(warm.weights != 0.0, cold.weights != 0.0)

    def test_abnormal_line_search_raises(self, monkeypatch):
        def abnormal(fun, x0, **kwargs):
            return scipy.optimize.OptimizeResult(
                x=x0, status=2, message="ABNORMAL: line search failed"
            )

        monkeypatch.setattr(scipy.optimize, "minimize", abnormal)
        X, y = _ten_class_problem()
        with pytest.raises(RuntimeError, match="ABNORMAL"):
            l1_logreg_fit(X, y, 0.1)

    def test_predict_checks_width(self):
        model = L1LogRegModel(
            weights=np.zeros((3, 2)), intercepts=np.zeros(3), lam=0.0
        )
        with pytest.raises(
            ValueError, match="X has 3 features, but the model was fit on 2"
        ):
            l1_logreg_predict(model, np.ones((4, 3)))

    def test_import_leaves_scipy_optimize_unloaded(self):
        code = (
            "import sys, sparca, sparca.evalkit; "
            "print('scipy.optimize' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sparca.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120,
        )
        assert out.stdout.strip() == "False"

    def test_predictions_permute_with_rows(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 4))
        y = rng.integers(0, 3, 30)
        model = l1_logreg_fit(X, y, 0.01)
        perm = rng.permutation(30)
        direct = l1_logreg_predict(model, X[perm])
        reference = l1_logreg_predict(model, X)
        assert np.array_equal(direct, reference[perm])

    def test_tie_breaks_to_smallest_class(self):
        model = L1LogRegModel(
            weights=np.zeros((3, 2)), intercepts=np.zeros(3), lam=0.0
        )
        pred = l1_logreg_predict(model, np.ones((4, 2)))
        assert pred.tolist() == [0, 0, 0, 0]

    def test_degenerate_labels_rejected(self):
        X = np.ones((5, 2))
        with pytest.raises(ValueError, match="2 classes"):
            l1_logreg_fit(X, np.zeros(5, dtype=int), 0.1)
        with pytest.raises(ValueError, match="2 classes"):
            l1_logreg_fit(X, np.array([0, 0, 2, 2, 2]), 0.1)

    def test_label_count_must_match_rows(self):
        with pytest.raises(
            ValueError, match="^label count does not match sample count$"
        ):
            l1_logreg_fit(np.ones((4, 2)), [0, 1, 0], 0.1)

    def test_bad_lambda_rejected(self):
        X = np.random.default_rng(5).standard_normal((20, 3))
        y = np.arange(20) % 2
        for lam in (-0.1, "0.1", float("nan"), float("inf"), None, False):
            with pytest.raises(ValueError, match="lam must be"):
                l1_logreg_fit(X, y, lam)

    @pytest.mark.parametrize("max_iter", [0, -1, 2.5, True, "5"])
    def test_bad_max_iter_rejected(self, max_iter):
        # max_iter=0 would return the unconverged starting model.
        X = np.random.default_rng(5).standard_normal((60, 3))
        y = np.arange(60) % 3
        with pytest.raises(ValueError, match="^max_iter must be an integer"):
            l1_logreg_fit(X, y, 0.001, max_iter=max_iter)

    def test_protocol_constant_in_grid(self):
        # the small-sample protocol fixes the penalty at 0.1
        assert np.isclose(DEFAULT_LAMBDA_GRID, 0.1).any()
        X = np.random.default_rng(5).standard_normal((20, 3))
        y = np.arange(20) % 2
        model = l1_logreg_fit(X, y, 0.1)
        assert model.lam == 0.1


class TestSplitsAndSelection:
    def test_stratified_split_sizes_and_disjoint(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 5, 300)
        a, b, c = stratified_split(y, (60, 90, 30), seed=1)
        assert (len(a), len(b), len(c)) == (60, 90, 30)
        assert not (set(a) & set(b) or set(a) & set(c) or set(b) & set(c))
        # class shares approximately preserved
        for part in (a, b, c):
            shares = np.bincount(y[part], minlength=5) / len(part)
            overall = np.bincount(y, minlength=5) / len(y)
            assert np.abs(shares - overall).max() < 0.08

    def test_stratified_split_overflow(self):
        y = np.zeros(10, dtype=int)
        y[5:] = 1
        with pytest.raises(ValueError, match="exceeds"):
            stratified_split(y, (8, 8), seed=0)

    def test_stratified_split_negative_size(self, monkeypatch):
        def no_shuffle(*args):
            raise AssertionError("shuffled before rejecting the sizes")

        monkeypatch.setattr(np.random, "default_rng", no_shuffle)
        for sizes in ([-5], [10, -1]):
            with pytest.raises(ValueError, match="sizes must be >= 0"):
                stratified_split(np.arange(60) % 2, sizes)
        # Fractional sizes are as bad: a truncating read would draw 2 and 3.
        for sizes in ([2.7, 3], [True, 3]):
            with pytest.raises(ValueError, match="sizes must be integers"):
                stratified_split(np.arange(60) % 2, sizes)

    def test_stratified_split_matches_the_list_reference(self):
        rng = np.random.default_rng(24)
        cases = [([], [0], 0)]
        for _ in range(300):
            n = int(rng.integers(1, 80))
            classes = rng.choice(12, int(rng.integers(1, 7)), replace=False)
            y = rng.choice(classes, n)
            cuts = np.sort(rng.integers(0, n + 1, int(rng.integers(1, 4))))
            sizes = rng.permutation(np.diff(cuts, prepend=0)).tolist()
            cases.append((y, sizes, int(rng.integers(0, 1000))))
        for y, sizes, seed in cases:
            got = stratified_split(y, sizes, seed=seed)
            expected = oracles.stratified_split(y, sizes, seed)
            assert len(got) == len(expected) == len(sizes)
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_select_lambda_folds_match_the_list_reference(self, monkeypatch):
        # Column 0 holds each row's index, so every fit records its rows.
        trained = []

        def recorded(X, y, lam, **kwargs):
            trained.append(X[:, 0].astype(np.int64))
            k = int(y.max()) + 1
            zeros = np.zeros((k, X.shape[1]))
            return [L1LogRegModel(zeros, np.zeros(k), value) for value in lam]

        monkeypatch.setattr(sparca.evalkit, "l1_logreg_fit", recorded)
        rng = np.random.default_rng(7)
        for _ in range(60):
            counts = rng.integers(2, 15, int(rng.integers(2, 6)))
            y = rng.permutation(np.repeat(np.arange(counts.size), counts))
            n_folds = int(rng.integers(2, counts.max() + 1))
            seed = int(rng.integers(0, 1000))
            X = np.column_stack([np.arange(y.size), np.ones(y.size)])
            trained.clear()
            select_lambda(X, y, [0.1, 1.0], n_folds=n_folds, seed=seed)
            folds = oracles.cv_folds(y, n_folds, seed)
            assert len(trained) == n_folds
            for rows, fold in zip(trained, folds):
                assert np.array_equal(
                    rows, np.setdiff1d(np.arange(y.size), fold)
                )

    def test_select_lambda_returns_grid_member(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 4))
        w = np.array([2.0, -1.5, 0.0, 0.0])
        y = (X @ w > 0).astype(int)
        grid = [1e-3, 1e-2, 1e-1, 1.0]
        best, means = select_lambda(X, y, lambdas=grid, n_folds=3, seed=0)
        assert best in grid
        assert means.shape == (4,)
        assert means.max() > 0.8

    @pytest.mark.parametrize(
        "n_folds, lambdas, message",
        [
            (0, [0.1], "n_folds must be between 2 and the largest class"),
            (1, [0.1], "n_folds must be between 2 and the largest class"),
            (3, [], "grid is empty"),
            (31, [0.1], "largest class size 30, got 31"),
            (2.5, [0.1], "n_folds must be an integer, got 2.5"),
        ],
        ids=[
            "zero-folds", "one-fold", "empty-grid",
            "folds-exceed-largest-class", "fractional-folds",
        ],
    )
    def test_select_lambda_rejects_bad_settings(self, n_folds, lambdas, message):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 4))
        y = np.arange(60) % 2
        with pytest.raises(ValueError, match=message):
            select_lambda(X, y, lambdas=lambdas, n_folds=n_folds, seed=0)


class _NoTransform:
    def transform(self, X):
        raise AssertionError("transformed before rejecting the seed")


@pytest.mark.parametrize("seed", [True, 1.5, -1], ids=["bool", "float", "neg"])
@pytest.mark.parametrize(
    "call",
    [
        lambda seed: stratified_split(np.arange(60) % 2, [10], seed=seed),
        lambda seed: select_lambda(
            np.ones((60, 2)), np.arange(60) % 2, [0.1], n_folds=3, seed=seed
        ),
        lambda seed: downstream_eval(
            _NoTransform(), None, None, None, None, seed=seed
        ),
        lambda seed: noise_robustness(
            [_NoTransform()], [None], np.ones((4, 2)), [0] * 4, [0.0],
            seed=seed,
        ),
    ],
    ids=["stratified_split", "select_lambda", "downstream_eval", "noise"],
)
def test_bad_seed_rejected(seed, call):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        call(seed)


def test_numpy_integer_seeds_accepted():
    y = np.arange(60) % 3
    assert all(
        np.array_equal(a, b)
        for a, b in zip(
            stratified_split(y, [10, 20], seed=np.int64(4)),
            stratified_split(y, [10, 20], seed=4),
        )
    )
    X = np.random.default_rng(0).standard_normal((60, 3))
    assert select_lambda(X, y, [0.1, 1.0], n_folds=3, seed=np.uint8(2))[0] == (
        select_lambda(X, y, [0.1, 1.0], n_folds=3, seed=2)[0]
    )


def _count_fits(monkeypatch):
    """Make every l1_logreg_fit call through evalkit count itself."""
    calls = []
    real = sparca.evalkit.l1_logreg_fit

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sparca.evalkit, "l1_logreg_fit", counted)
    return calls


_X4 = np.arange(8.0).reshape(4, 2)

# Every public evalkit function that takes labels, with the parameter named
# in its error message.
_LABEL_CALLS = pytest.mark.parametrize(
    "call, name",
    [
        (lambda y: l1_logreg_fit(_X4, y, 0.1), "y"),
        (lambda y: stratified_split(y, [2]), "y"),
        (lambda y: select_lambda(_X4, y, [0.1], n_folds=2), "y"),
        (lambda y: downstream_eval(
            _NoTransform(), _X4, y, _X4, [0, 1, 0, 1]), "y_train"),
        (lambda y: downstream_eval(
            _NoTransform(), _X4, [0, 1, 0, 1], _X4, y), "y_test"),
        (lambda y: noise_robustness(
            [_NoTransform()], [None], _X4, y, [0.0]), "y_test"),
    ],
    ids=["l1_logreg_fit", "stratified_split", "select_lambda",
         "downstream_eval-train", "downstream_eval-test", "noise"],
)


class TestLabels:
    @pytest.mark.parametrize(
        "labels", [[0.2, 1.7, 0.4, 1.1], [0, 1, -1, 1], [0, 1, np.nan, 1],
                   ["0", "1", "0", "1"], [True, False, True, False]],
        ids=["fractional", "negative", "nan", "strings", "booleans"],
    )
    @_LABEL_CALLS
    def test_labels_that_are_not_class_ids_rejected(self, labels, call, name):
        # A cast to int64 would fit 0.2, 1.7, 0.4, 1.1 as classes 0, 1, 0, 1.
        with pytest.raises(
            ValueError, match=f"^{name} must hold integer class ids >= 0"
        ):
            call(labels)

    @pytest.mark.parametrize(
        "labels", [np.array([[0, 1], [0, 1]]), np.array([[0], [1], [0], [1]]),
                   np.array(1)],
        ids=["2x2", "column", "scalar"],
    )
    @_LABEL_CALLS
    def test_labels_that_are_not_1d_rejected(self, labels, call, name):
        # A ravel would read a label matrix as the labels of its entries,
        # and stratified_split would return indices into that flattening.
        with pytest.raises(ValueError, match=f"^{name} must be 1-D"):
            call(labels)

    def test_label_of_the_sample_count_rejected(self):
        # The class count is sized from the largest label, so a label of
        # 1e11 used to allocate 745 GiB; one label past the sample count
        # is rejected by the same check without allocating anything.
        with pytest.raises(ValueError, match="y holds class id 4, but 4"):
            l1_logreg_fit(_X4, [0, 1, 0, 4], 0.1)
        # Integral floats and numpy integers are class ids.
        X = np.random.default_rng(0).standard_normal((20, 3))
        y = np.arange(20) % 2
        expected = l1_logreg_fit(X, y, 0.1).weights
        for labels in (y.astype(float), y.astype(np.uint8)):
            assert np.array_equal(
                l1_logreg_fit(X, labels, 0.1).weights, expected
            )

    def test_missing_class_named(self):
        with pytest.raises(ValueError, match="; class 1 has 0$"):
            l1_logreg_fit(_X4, [0, 2, 0, 2], 0.1)

    @pytest.mark.parametrize(
        "y, message",
        [
            ([0] * 10 + [1] + [2] * 10,
             "each with >= 2 samples; class 1 has 1$"),
            ([0] * 10 + [2] * 11, "each with >= 2 samples; class 1 has 0$"),
            ([0] * 20 + [21], "y holds class id 21, but 21 samples"),
            ([0] * 21, "need >= 2 classes, each with >= 2 samples$"),
        ],
        ids=["single-sample-class", "missing-class", "label-past-count",
             "one-class"],
    )
    def test_select_lambda_checks_classes_before_any_fit(
        self, monkeypatch, y, message
    ):
        # One training fold of the first case lacks class 1, which used to
        # fail in the middle of cross-validation.
        calls = _count_fits(monkeypatch)
        X = np.random.default_rng(0).standard_normal((21, 3))
        with pytest.raises(ValueError, match=message):
            select_lambda(X, y, [0.1, 1.0], n_folds=2)
        assert not calls

    @pytest.mark.parametrize(
        "grid",
        [
            [0.1, -1.0], [[0.1, 1.0]], [0.1, np.nan], [np.inf], 0.1,
            [True, 0.1], np.array([True, False]), ["0.1", "1"],
        ],
        ids=["negative", "2-D", "nan", "inf", "scalar", "bool",
             "bool-array", "strings"],
    )
    def test_select_lambda_checks_grid_before_any_fit(self, monkeypatch, grid):
        calls = _count_fits(monkeypatch)
        X = np.random.default_rng(0).standard_normal((20, 3))
        with pytest.raises(ValueError, match="lambdas must be a 1-D grid"):
            select_lambda(X, np.arange(20) % 2, grid, n_folds=2)
        assert not calls

    def test_select_lambda_label_count_mismatch(self, monkeypatch):
        calls = _count_fits(monkeypatch)
        with pytest.raises(ValueError, match="label count does not match"):
            select_lambda(np.ones((20, 3)), np.arange(19) % 2, [0.1])
        assert not calls


@pytest.fixture(scope="module")
def setup():
    X, _ = block_factor_data(300, n_blocks=4, block_size=8, seed=2)
    w = np.array([1.5, -1.0, 0.8, -0.6])
    rng = np.random.default_rng(3)
    factors = np.add.reduceat(X, np.arange(0, 32, 8), axis=1) / 8.0
    y = (factors @ w + 0.3 * rng.standard_normal(300) > 0).astype(int)
    dr = fit(X[:150], n_clusters=4, horn_params=HornParams(seed=0))
    pca = PcaBaseline.fit(X[:150], horn_params=HornParams(seed=0))
    clfs = []
    for model in (dr, pca):
        values = model.transform(X[:150]).values
        clfs.append(l1_logreg_fit(values, y[:150], 0.01))
    return X[150:], y[150:], [dr, pca], clfs


class TestNoiseRobustness:
    def test_sigma_zero_matches_clean(self, setup):
        X_test, y_test, drs, clfs = setup
        table = noise_robustness(drs, clfs, X_test, y_test, [0.0, 1.0], seed=0)
        for mi, (dr, clf) in enumerate(zip(drs, clfs)):
            pred = l1_logreg_predict(clf, dr.transform(X_test).values)
            clean = float(np.mean(pred == y_test))
            assert table[0, mi] == clean

    def test_huge_noise_hits_chance(self, setup):
        X_test, y_test, drs, clfs = setup
        table = noise_robustness(drs, clfs, X_test, y_test, [100.0], seed=0)
        assert (np.abs(table - 0.5) < 0.2).all()

    def test_numpy_integer_seed_accepted(self, setup):
        X_test, y_test, drs, clfs = setup
        args = drs, clfs, X_test, y_test, [1.0]
        assert np.array_equal(
            noise_robustness(*args, seed=np.int32(5)),
            noise_robustness(*args, seed=5),
        )

    def test_misaligned_lists_rejected(self, setup):
        X_test, y_test, drs, clfs = setup
        with pytest.raises(ValueError, match="aligned"):
            noise_robustness(drs, clfs[:1], X_test, y_test, [0.0])

    @pytest.mark.parametrize(
        "sigmas",
        [[True], [0.0, "0.5"], "0.5", [np.nan], [0.0, np.inf], [-1.0], 0.5],
        ids=["bool", "string", "text", "nan", "inf", "negative", "scalar"],
    )
    def test_bad_sigmas_rejected_before_any_transform(self, sigmas):
        with pytest.raises(ValueError, match="^sigmas must be finite"):
            noise_robustness(
                [_NoTransform()], [None], np.ones((4, 2)), [0, 1, 0, 1],
                sigmas,
            )

    def test_empty_model_lists_rejected(self, setup):
        X_test, y_test, _, _ = setup
        with pytest.raises(ValueError, match="at least one model"):
            noise_robustness([], [], X_test, y_test, [0.0])


class TestPcaBaseline:
    def test_component_count_and_shape(self):
        X, _ = block_factor_data(300, seed=4)
        model = PcaBaseline.fit(X, horn_params=HornParams(seed=0))
        assert model.n_reduced == 8  # one component per latent factor
        out = model.transform(X)
        assert out.values.shape == (300, 8)

    def test_transform_gives_values_and_provenance(self):
        X, _ = block_factor_data(200, seed=4)
        X[:, 3] = 1.0  # a constant column is dropped
        model = PcaBaseline.fit(X, horn_params=HornParams(seed=0))
        out = model.transform(X[:50])
        expected = standardize_apply(model.scaler, X[:50]) @ model.loadings
        assert np.array_equal(out.values, expected)
        kept = tuple(i for i in range(X.shape[1]) if i != 3)
        assert out.column_provenance == tuple(
            (0, j, kept) for j in range(model.n_reduced)
        )


class TestProfileRuntime:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="at least 4"):
            profile_runtime([10, 20, 100], [24, 48, 96, 192], repeats=1)
        with pytest.raises(ValueError, match="factor of 8"):
            profile_runtime([10, 20, 40, 79], [24, 48, 96, 192], repeats=1)
        with pytest.raises(ValueError, match="increasing"):
            profile_runtime([10, 20, 20, 100], [24, 48, 96, 192], repeats=1)
        with pytest.raises(ValueError, match="sizes must be integers"):
            profile_runtime([10, 20.5, 40, 100], [24, 48, 96, 192], repeats=1)
        # A size of 0 would otherwise fail inside the first fits.
        with pytest.raises(ValueError, match="sizes must be integers >= 1"):
            profile_runtime([0, 20, 40, 100], [24, 48, 96, 192], repeats=1)

    @pytest.mark.parametrize("repeats", [0, -2, 1.5, 2.0, "3", True])
    def test_repeats_rejected_before_any_fit(self, monkeypatch, repeats):
        # An empty median would report nan slopes instead of failing.
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before checking repeats")

        monkeypatch.setattr(sparca.evalkit, "_timed_fit", no_fit)
        with pytest.raises(ValueError, match="repeats must be an integer"):
            profile_runtime(
                [60, 120, 240, 480], [24, 48, 96, 192], repeats=repeats
            )

    @pytest.mark.parametrize("seed", [True, 1.5, -1])
    def test_bad_seed_rejected_before_any_fit(self, monkeypatch, seed):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before checking the seed")

        monkeypatch.setattr(sparca.evalkit, "_timed_fit", no_fit)
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            profile_runtime(
                [60, 120, 240, 480], [24, 48, 96, 192], repeats=1, seed=seed
            )

    def test_smoke(self):
        report = profile_runtime(
            [60, 120, 240, 480], [24, 48, 96, 192], repeats=1, seed=0
        )
        assert len(report.sample_points) == 4
        assert len(report.feature_points) == 4
        assert all(t > 0 for _, t in report.sample_points)
        assert np.isfinite(report.sample_slope)
        assert np.isfinite(report.feature_slope)
        assert np.isfinite(report.sample_cluster_slope)
        assert np.isfinite(report.feature_cluster_slope)
