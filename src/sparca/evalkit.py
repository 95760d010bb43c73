"""Evaluation harness: synthetic data, sparse logistic regression, noise
robustness sweeps, and runtime profiling.

The classifier is a one-vs-rest logistic regression with an L1 penalty. At
or above ``lam_max``, the largest weight gradient of the null model (zero
weights, logit class frequencies as intercepts), that model is the exact
optimum and is returned in closed form. Below it, with the weights split into
non-negative positive and negative parts the penalty becomes linear, and one
call to scipy's bound-constrained L-BFGS-B solves all classes from the null
model, stopping once the KKT residual is at most ``KKT_TOL``. Each of its
evaluations computes the loss and the residual from one ``exp(-|Z|)``.

Given a grid of strengths, ``l1_logreg_fit`` fits them as one regularization
path: the data are checked and prepared once, and the values are solved from
strongest to weakest, each solve starting from the one before. Cross-validation
(``select_lambda``) makes one such call per fold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cfcurve import FeatureTree
from .compress import pca_fit
from .data import (
    Scaler,
    check_integer,
    check_number,
    check_numbers,
    is_number,
    standardize_apply,
    standardize_fit,
    validate_matrix,
)
from .horn import HornParams, horn_components
from .pipeline import ReducedMatrix
from . import pipeline

DEFAULT_LAMBDA_GRID = np.logspace(-3, 1, 9)

# Sup-norm of L-BFGS-B's projected gradient at which l1_logreg_fit stops;
# for its split-sign problem that is the largest KKT violation.
KKT_TOL = 1e-6


# ---------------------------------------------------------------------------
# synthetic data


def participation_ratio(singular_values) -> float:
    """Effective rank of a spectrum: (sum s^2)^2 / sum s^4."""
    s2 = np.asarray(singular_values, dtype=np.float64) ** 2
    total = s2.sum()
    if total <= 0:
        raise ValueError("spectrum is identically zero")
    return float(total**2 / (s2**2).sum())


def _gaussian_profile(n_values: int, target_rank: int):
    """Gaussian-decay singular value profile with the requested effective rank.

    The width of the half-bell ``s_i = exp(-i^2 / (2 w^2))`` is solved by
    bisection; the participation ratio is monotone in ``w`` and spans
    (1, n_values], so any feasible target is reachable.
    """
    if target_rank == n_values:
        return np.ones(n_values)
    idx = np.arange(n_values, dtype=np.float64)

    def pr(width):
        return participation_ratio(np.exp(-0.5 * (idx / width) ** 2))

    lo, hi = 1e-3, float(n_values)
    while pr(hi) < target_rank:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pr(mid) < target_rank:
            lo = mid
        else:
            hi = mid
    return np.exp(-0.5 * (idx / hi) ** 2)


def gen_synthetic(n_samples, n_features, effective_rank, seed=0):
    """Random ``n_samples x n_features`` matrix with a Gaussian-decay
    spectrum whose participation ratio is ``effective_rank``.

    ``X = U diag(s) V^T`` with ``U`` and ``V`` drawn as QR factors of
    Gaussian matrices from ``seed``; deterministic per seed. The realized
    participation ratio matches ``effective_rank`` to well within 5%; a rank
    outside ``[1, min(n_samples, n_features)]`` raises ``ValueError``.
    """
    check_integer(seed, "seed", 0)
    n = check_integer(n_samples, "n_samples", 1)
    m = check_integer(n_features, "n_features", 1)
    limit = min(n, m)
    if not 1 <= check_number(effective_rank, "effective_rank") <= limit:
        raise ValueError(
            f"effective_rank {effective_rank} infeasible for {n}x{m}"
        )
    rng = np.random.default_rng(seed)
    svals = _gaussian_profile(limit, effective_rank)
    u, _ = np.linalg.qr(rng.standard_normal((n, limit)))
    v, _ = np.linalg.qr(rng.standard_normal((m, limit)))
    return (u * svals) @ v.T


# ---------------------------------------------------------------------------
# L1-regularized one-vs-rest logistic regression


@dataclass(frozen=True, eq=False)
class L1LogRegModel:
    """One-vs-rest weights (n_classes x n_features), intercepts, L1 strength."""

    weights: np.ndarray
    intercepts: np.ndarray
    lam: float

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]


def l1_logreg_fit(X, y, lam, max_iter: int = 5000):
    """Fit one-vs-rest logistic regression with an L1 weight penalty, at one
    strength or along a path of them.

    Each class minimizes ``mean logistic loss + lam * ||w||_1`` (intercept
    unpenalized). ``lam`` is a number >= 0, which gives one model, or a
    non-empty 1-D grid of them, which gives a list of one model per value in
    grid order. The null model, zero weights with each class's logit
    frequency as intercept, is optimal exactly when ``lam`` is at least
    ``lam_max``, the largest entry of its weight gradient's magnitude, and is
    then returned without running the solver (the screening rule of
    Friedman, Hastie & Tibshirani 2010). Below ``lam_max``, split as
    ``W = W+ - W-`` with ``W+, W- >= 0``, the penalty is linear, and one
    L-BFGS-B call (Byrd, Lu, Nocedal & Zhu 1995) solves all classes, which
    share no variable. A grid is solved from strongest to weakest value, as
    glmnet solves its path: inputs are checked and ``lam_max`` is computed
    once, and each solve starts from the solution before it (the first from
    the null model). A solve stops once its projected gradient is at most
    ``KKT_TOL``, which is then the largest KKT violation unless a weight
    part lies strictly inside (0, KKT_TOL). ``max_iter``, an integer >= 1,
    caps each solve's iterations; reaching it keeps the current iterate.
    ``y`` must hold class ids 0..K-1, K >= 2, each at least once. An
    abnormal line-search exit raises ``RuntimeError``. ``scipy.optimize``
    and scipy's BLAS are imported here, not at module level: loading them
    adds about 14 MB of resident memory to every process that imports
    sparca, and about 0.2 s to the start of every ``sparca`` command.
    """
    X = validate_matrix(X)
    y = _check_labels(y, "y")
    n, p = X.shape
    if y.size != n:
        raise ValueError("label count does not match sample count")
    path = not is_number(lam)
    if path:
        lams = check_numbers(
            lam, "lam", 0, what="a number or a 1-D grid of finite numbers"
        )
        if lams.size == 0:
            raise ValueError("the lam grid is empty")
    else:
        lams = np.array([check_number(lam, "lam", 0)], dtype=np.float64)
    check_integer(max_iter, "max_iter", 1)
    counts = _class_counts(y, 1)
    n_classes = counts.size

    from scipy.linalg.blas import dgemm

    # The products go through scipy's BLAS, which L-BFGS-B also calls:
    # numpy's matmul uses a second OpenBLAS whose thread pool would contend
    # with scipy's. Fortran-ordered operands pass to dgemm without a copy;
    # XT is a view when X is C-ordered.
    XT = np.asfortranarray(X.T)
    Y = np.zeros((n, n_classes), order="F")
    Y[np.arange(n), y] = 1.0
    freq = counts / n
    null_intercepts = np.log(freq) - np.log1p(-freq)
    lam_max = np.abs(dgemm(1.0 / n, XT, freq - Y)).max()

    size = p * n_classes
    start = np.zeros(2 * size + n_classes)  # [W+ (p*K), W- (p*K), b (K)]
    start[-n_classes:] = null_intercepts

    def unsplit(v):
        return (v[:size] - v[size:-n_classes]).reshape(p, n_classes)

    from scipy.optimize import Bounds, minimize

    def objective(v, lam):
        Z = dgemm(1.0, XT, unsplit(v), trans_a=True) + v[-n_classes:]
        loss, R = _logistic_loss(Z, Y)
        G = dgemm(1.0 / n, XT, R)
        grad = np.concatenate(
            [(G + lam).ravel(), (lam - G).ravel(), R.mean(axis=0)]
        )
        return loss + lam * v[:-n_classes].sum(), grad

    lower = np.concatenate([np.zeros(2 * size), np.full(n_classes, -np.inf)])
    bounds = Bounds(lower, np.inf)
    models = [None] * lams.size
    for i in np.argsort(-lams):
        lam = float(lams[i])
        if lam >= lam_max:
            models[i] = L1LogRegModel(
                weights=np.zeros((n_classes, p)),
                intercepts=null_intercepts.copy(),
                lam=lam,
            )
            continue
        result = minimize(
            objective, start, args=(lam,), jac=True, method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": max_iter, "ftol": 0.0, "gtol": KKT_TOL},
        )
        if result.status == 2:
            raise RuntimeError(result.message)
        W, b = unsplit(result.x), result.x[-n_classes:].copy()
        models[i] = L1LogRegModel(weights=W.T.copy(), intercepts=b, lam=lam)
        start = np.concatenate([W.clip(0).ravel(), (-W).clip(0).ravel(), b])
    return models if path else models[0]


def _logistic_loss(Z, Y):
    """The logistic loss of scores ``Z`` against 0/1 targets ``Y``, summed
    over classes and averaged over rows, and the residual ``sigmoid(Z) - Y``.

    Both come from one ``E = exp(-|Z|)``, which cannot overflow:
    ``log(1 + e^Z) = log1p(E) + max(Z, 0)`` and ``sigmoid(Z)`` is ``1 / (1 +
    E)`` where ``Z >= 0`` and ``E / (1 + E)`` elsewhere.
    """
    E = np.exp(-np.abs(Z))
    R = np.where(Z >= 0.0, 1.0, E) / (1.0 + E)
    R -= Y
    loss = (np.log1p(E) + np.maximum(Z, 0.0) - Y * Z).sum() / Z.shape[0]
    return loss, R


def l1_logreg_predict(model: L1LogRegModel, X):
    """Predicted labels: the class of the largest linear score.

    Ties resolve to the smallest class id. ``X`` must have the model's
    feature count.
    """
    X = validate_matrix(X)
    width = model.weights.shape[1]
    if X.shape[1] != width:
        raise ValueError(
            f"X has {X.shape[1]} features, but the model was fit on {width}"
        )
    scores = X @ model.weights.T + model.intercepts
    return np.argmax(scores, axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# evaluation protocol helpers


def _check_labels(y, name):
    """``y`` as an int64 array; raises ``ValueError`` naming ``name`` unless
    it is 1-D and holds integer class ids >= 0 (a cast would truncate 1.7
    to 1 and send a negative id to numpy's own errors)."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {y.shape}")
    with np.errstate(invalid="ignore"):
        labels = y.astype(np.int64) if y.dtype.kind in "iuf" else None
    if labels is None or ((labels != y) | (labels < 0)).any():
        raise ValueError(f"{name} must hold integer class ids >= 0")
    return labels


def _class_counts(y, min_count):
    """Samples of each class 0..max(y) of checked labels ``y``.

    Raises ``ValueError`` unless there are at least 2 classes with
    ``min_count`` samples each. A label >= the sample count cannot meet
    that, and is rejected before its class count is allocated.
    """
    top = int(y.max())
    if top >= y.size:
        raise ValueError(
            f"y holds class id {top}, but {y.size} samples cannot fill "
            f"classes 0..{top}"
        )
    counts = np.bincount(y)
    short = np.flatnonzero(counts < min_count)
    if counts.size < 2 or short.size:
        message = f"need >= 2 classes, each with >= {min_count} samples"
        if short.size:
            message += f"; class {short[0]} has {counts[short[0]]}"
        raise ValueError(message)
    return counts


def _check_folds(y, n_folds):
    """Raise ``ValueError`` unless ``select_lambda`` can split checked labels
    ``y`` into ``n_folds`` folds: each class needs a sample in every training
    fold, and a fold count above the largest class size leaves a fold
    empty."""
    counts = _class_counts(y, 2)
    if not 2 <= check_integer(n_folds, "n_folds") <= counts.max():
        raise ValueError(
            f"n_folds must be between 2 and the largest class size "
            f"{counts.max()}, got {n_folds}"
        )


def _shuffled_classes(y, seed):
    """Each class's sample indices, in ``np.unique(y)`` order, shuffled in
    turn by one ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return [rng.permutation(np.flatnonzero(y == cls)) for cls in np.unique(y)]


def stratified_split(y, sizes, seed: int = 0):
    """Disjoint stratified index sets with the requested total sizes.

    Each class contributes in proportion to its frequency (largest-remainder
    rounding); samples are drawn without replacement in a seeded shuffle.
    Returns one index array per requested size. Sizes must be integers
    >= 0 that sum to at most the sample count.
    """
    check_integer(seed, "seed", 0)
    y = _check_labels(y, "y")
    sizes = check_numbers(sizes, "split sizes", integer=True).tolist()
    if min(sizes, default=0) < 0:
        raise ValueError(f"split sizes must be >= 0, got {sizes}")
    if sum(sizes) > y.size:
        raise ValueError("requested split exceeds available samples")
    by_class = _shuffled_classes(y, seed)
    freqs = np.array([idx.size for idx in by_class], dtype=np.float64)
    freqs /= freqs.sum()
    splits = []
    for size in sizes:
        avail = np.array([idx.size for idx in by_class])
        quota = freqs * size
        take = np.minimum(np.floor(quota).astype(int), avail)
        # top up by largest remainder among classes with spare samples
        order = np.argsort(-(quota - take), kind="stable")
        short = size - take.sum()
        cursor = 0
        while short > 0:
            pos = order[cursor % order.size]
            if take[pos] < avail[pos]:
                take[pos] += 1
                short -= 1
            cursor += 1
        chosen = []
        for c, count in enumerate(take):
            chosen.extend(by_class[c][:count])
            by_class[c] = by_class[c][count:]
        splits.append(np.sort(np.asarray(chosen, dtype=np.int64)))
    return tuple(splits)


def select_lambda(X, y, lambdas=None, n_folds: int = 5, seed: int = 0):
    """Pick the L1 strength by stratified k-fold cross-validated accuracy.

    Each class's samples, shuffled as ``stratified_split`` shuffles them,
    are dealt to the folds in turn. Each fold's training rows are fit along
    the whole grid with one ``l1_logreg_fit`` call, which solves it as a
    warm-started path from strongest to weakest value. Ties prefer the
    stronger penalty. Returns ``(best_lambda, mean_accuracies)`` with
    accuracies aligned to the given grid. Raises ``ValueError``, before any
    fit, for a grid that is empty, not 1-D or holds a value that is not a
    finite number >= 0; for labels that are not class ids 0..K-1 with K >= 2
    and at least 2 samples each; and for a fold count that is not an integer
    from 2 to the size of the largest class (a larger count would leave a
    fold empty).
    """
    check_integer(seed, "seed", 0)
    X = validate_matrix(X)
    y = _check_labels(y, "y")
    if y.size != X.shape[0]:
        raise ValueError("label count does not match sample count")
    if lambdas is None:
        lambdas = DEFAULT_LAMBDA_GRID
    lambdas = check_numbers(
        lambdas, "lambdas", 0, what="a 1-D grid of finite numbers"
    )
    if lambdas.size == 0:
        raise ValueError("the lambda grid is empty")
    _check_folds(y, n_folds)
    fold_of = np.empty(y.size, dtype=np.int64)
    for idx in _shuffled_classes(y, seed):
        fold_of[idx] = np.arange(idx.size) % n_folds

    accuracy = np.zeros((n_folds, lambdas.size))
    for fi in range(n_folds):
        train, test = fold_of != fi, fold_of == fi
        models = l1_logreg_fit(X[train], y[train], lambdas)
        X_test, y_test = X[test], y[test]
        for li, model in enumerate(models):
            pred = l1_logreg_predict(model, X_test)
            accuracy[fi, li] = float(np.mean(pred == y_test))
    means = accuracy.mean(axis=0)
    best = np.flatnonzero(means == means.max())
    strongest = best[np.argmax(lambdas[best])]
    return float(lambdas[strongest]), means


def downstream_eval(
    dr_model,
    X_train,
    y_train,
    X_test,
    y_test,
    lambdas=None,
    n_folds: int = 5,
    seed: int = 0,
):
    """Train/validate a classifier on reduced features; score on the test set.

    ``dr_model`` is any reducer with ``transform(X) -> ReducedMatrix``, such
    as a ``SparcaModel`` or a ``PcaBaseline``; the classifier reads the
    result's ``values``. Returns ``(test_accuracy, classifier, best_lambda)``.
    """
    check_integer(seed, "seed", 0)
    y_train = _check_labels(y_train, "y_train")
    y_test = _check_labels(y_test, "y_test")
    R_train = dr_model.transform(X_train).values
    R_test = dr_model.transform(X_test).values
    best_lambda, _ = select_lambda(
        R_train, y_train, lambdas=lambdas, n_folds=n_folds, seed=seed
    )
    clf = l1_logreg_fit(R_train, y_train, best_lambda)
    pred = l1_logreg_predict(clf, R_test)
    return float(np.mean(pred == y_test)), clf, best_lambda


# ---------------------------------------------------------------------------
# baseline PCA behind the same reduce interface


@dataclass(frozen=True, eq=False)
class PcaBaseline:
    """Full-matrix PCA comparator with the component count chosen the same
    permutation-based way as the per-cluster counts."""

    scaler: Scaler
    loadings: np.ndarray

    @classmethod
    def fit(cls, X, horn_params: HornParams | None = None) -> "PcaBaseline":
        scaler = standardize_fit(X)
        Xs = standardize_apply(scaler, X)
        h = horn_components(Xs, horn_params)
        pca = pca_fit(Xs, h)
        return cls(scaler=scaler, loadings=pca.loadings)

    @property
    def n_reduced(self) -> int:
        return self.loadings.shape[1]

    def transform(self, X) -> ReducedMatrix:
        """Component j's provenance is ``(0, j, kept features)``."""
        kept = tuple(self.scaler.kept_features.tolist())
        return ReducedMatrix(
            standardize_apply(self.scaler, X) @ self.loadings,
            tuple((0, j, kept) for j in range(self.n_reduced)),
        )


# ---------------------------------------------------------------------------
# noise robustness


def noise_robustness(
    dr_models, clf_models, X_test, y_test, sigmas, seed: int = 0
):
    """Accuracy of each (reducer, classifier) pair under added Gaussian noise.

    Each reducer has ``transform(X) -> ReducedMatrix`` and a ``scaler``; the
    classifiers read the reduced ``values``. Noise is i.i.d. per feature
    with standard deviation ``sigma`` in standardized units, scaled by the
    first reducer's ``scaler.stds``; the same realization is shared by every
    model at a given sigma so comparisons are paired. Returns an array of
    shape (len(sigmas), len(dr_models)). ``sigmas`` must be finite numbers
    >= 0.
    """
    check_integer(seed, "seed", 0)
    check_numbers(sigmas, "sigmas", 0)
    if len(dr_models) != len(clf_models):
        raise ValueError("model lists must be aligned")
    if not dr_models:
        raise ValueError("need at least one model")
    X_test = validate_matrix(X_test)
    y_test = _check_labels(y_test, "y_test")
    scaler = dr_models[0].scaler
    scale = scaler.stds  # sigma is expressed in standardized units
    rng = np.random.default_rng(seed)
    table = np.zeros((len(sigmas), len(dr_models)))
    for si, sigma in enumerate(sigmas):
        noise = rng.standard_normal(X_test.shape) if sigma else 0.0
        X_noisy = X_test + float(sigma) * noise * scale
        for mi, (dr, clf) in enumerate(zip(dr_models, clf_models)):
            pred = l1_logreg_predict(clf, dr.transform(X_noisy).values)
            table[si, mi] = float(np.mean(pred == y_test))
    return table


# ---------------------------------------------------------------------------
# runtime profiling


@dataclass(frozen=True, eq=False)
class RuntimeReport:
    """Median fit wall times per size and fitted log-log slopes.

    ``sample_cluster_slope`` and ``feature_cluster_slope`` are the slopes of
    the distances-plus-Ward stage alone, timed on the same inputs: the one
    stage whose cost grows as the square of the feature count.
    """

    sample_points: tuple
    feature_points: tuple
    sample_slope: float
    feature_slope: float
    sample_cluster_slope: float
    feature_cluster_slope: float


PROFILE_FEATURES_FIXED = 100
PROFILE_SAMPLES_FIXED = 50
RANK_FRACTION = 5  # effective rank = n_features / 5
CLUSTER_RANK_FACTOR = 2  # clusters = 2 * effective rank


def _validate_grid(grid, name):
    grid = check_numbers(grid, f"{name} sizes", 1, integer=True).tolist()
    if len(grid) < 4:
        raise ValueError(f"{name} needs at least 4 sizes")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    if grid[-1] < 8 * grid[0]:
        raise ValueError(f"{name} must span at least a factor of 8")
    return grid


def _timed_fit(n_samples, n_features, repeats, seed):
    """Median seconds of the whole fit and of its distances-plus-Ward stage,
    the ``linkage`` of a fresh ``FeatureTree`` per repeat."""
    rank = min(max(1, n_features // RANK_FRACTION), min(n_samples, n_features))
    n_clusters = min(CLUSTER_RANK_FACTOR * rank, n_features)
    X = gen_synthetic(n_samples, n_features, rank, seed)
    fit_times, cluster_times = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        pipeline.fit(X, n_clusters=n_clusters, n_threads=1)
        fit_times.append(time.perf_counter() - start)
        tree = FeatureTree(X, n_threads=1)
        start = time.perf_counter()
        tree.linkage
        cluster_times.append(time.perf_counter() - start)
    return float(np.median(fit_times)), float(np.median(cluster_times))


def _loglog_slope(sizes, seconds):
    return float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0])


def profile_runtime(sample_grid, feature_grid, repeats: int = 3, seed: int = 0):
    """Measure fit wall time, and the distances-plus-Ward stage's wall time,
    along a sample axis and a feature axis.

    The sample axis holds features at 100; the feature axis holds samples at
    50. Synthetic inputs use effective rank = features/5 and cluster count =
    2x the rank. Medians over ``repeats`` runs per size; slopes are least
    squares fits on log-log points.
    """
    check_integer(seed, "seed", 0)
    check_integer(repeats, "repeats", 1)
    sample_grid = _validate_grid(sample_grid, "sample_grid")
    feature_grid = _validate_grid(feature_grid, "feature_grid")
    sample_fit, sample_cluster = zip(*(
        _timed_fit(n, PROFILE_FEATURES_FIXED, repeats, seed + i)
        for i, n in enumerate(sample_grid)
    ))
    feature_fit, feature_cluster = zip(*(
        _timed_fit(PROFILE_SAMPLES_FIXED, m, repeats, seed + 100 + i)
        for i, m in enumerate(feature_grid)
    ))
    return RuntimeReport(
        sample_points=tuple(zip(sample_grid, sample_fit)),
        feature_points=tuple(zip(feature_grid, feature_fit)),
        sample_slope=_loglog_slope(sample_grid, sample_fit),
        feature_slope=_loglog_slope(feature_grid, feature_fit),
        sample_cluster_slope=_loglog_slope(sample_grid, sample_cluster),
        feature_cluster_slope=_loglog_slope(feature_grid, feature_cluster),
    )
