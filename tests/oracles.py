"""Independent reference implementations used to cross-check the library.

These deliberately take the slow, direct route: Ward merges are chosen by
brute-force sum-of-squares increase over all cluster pairs, column distances
are norms of column differences taken one pair at a time, cuts replay the
kept merges with Python sets, the matching pursuit path re-solves every
least-squares fit from scratch with ``np.linalg.lstsq``, Horn's null
hashes every sort key with Python integers and permutes one column at a time,
the logistic loss gradient is formed from its textbook formula rather
than the solver's split-sign objective, and a CSV file is read one cell at a
time with ``csv.reader`` and ``float()``. The cf-curve's smoothing runs one
grid point at a time, its default grid fixes its endpoint and deduplicates
twice, and the stratified split and the cross-validation folds deal samples
from per-class lists; the library's array forms must match them bit for bit.
"""

import csv

import numpy as np
from scipy.special import expit


def ward_delta_sse(X, group_a, group_b):
    """Increase in within-cluster sum of squares from merging two groups.

    Groups index columns of ``X``; the SSE of a group is the squared
    deviation of its columns from their centroid column.
    """

    def sse(group):
        block = X[:, list(group)]
        centroid = block.mean(axis=1, keepdims=True)
        return float(((block - centroid) ** 2).sum())

    return sse(group_a | group_b) - sse(group_a) - sse(group_b)


def column_distances(X):
    """Condensed Euclidean distances between columns, ``(0,1), (0,2), ...``,
    each the norm of one column difference."""
    m = X.shape[1]
    return np.array(
        [
            np.sqrt(np.sum((X[:, i] - X[:, j]) ** 2))
            for i in range(m)
            for j in range(i + 1, m)
        ]
    )


def naive_ward(X):
    """Greedy Ward agglomeration straight from the definition.

    Returns ``(partitions, distances)``: ``partitions[i]`` is the set of
    frozenset clusters *before* merge ``i`` (so ``partitions[0]`` is all
    singletons), and ``distances[i]`` the merge height
    ``sqrt(2 * delta_SSE)`` of merge ``i``.
    """
    m = X.shape[1]
    clusters = [frozenset([j]) for j in range(m)]
    partitions = []
    distances = []
    while len(clusters) > 1:
        partitions.append(frozenset(clusters))
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                delta = ward_delta_sse(X, clusters[i], clusters[j])
                if best is None or delta < best[0]:
                    best = (delta, i, j)
        delta, i, j = best
        distances.append(np.sqrt(2.0 * delta))
        merged = clusters[i] | clusters[j]
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        clusters.append(merged)
    partitions.append(frozenset(clusters))
    return partitions, distances


def naive_cut(linkage, k):
    """Clusters left after replaying the first ``m - k`` merges with sets.

    Returns ``{node_id: frozenset_of_leaves}``; merge ``i`` makes node
    ``m + i`` from its two children.
    """
    m = linkage.n_leaves
    clusters = {j: frozenset([j]) for j in range(m)}
    for i in range(m - k):
        left, right = int(linkage.left[i]), int(linkage.right[i])
        clusters[m + i] = clusters.pop(left) | clusters.pop(right)
    return clusters


def omp_reference_path(D, target, variance_threshold):
    """Step-by-step matching pursuit with naive least-squares refits.

    Returns a list of ``(selected_index, residual, evr)`` per step and the
    final weights over the selected columns (in selection order).
    """
    t = np.asarray(target, dtype=np.float64)
    centered = t - t.mean()
    denom = float(centered @ centered)
    selected = []
    residual = t.copy()
    steps = []
    weights = None
    while True:
        corr = np.abs(D.T @ residual)
        corr[selected] = -1.0
        j = int(np.argmax(corr))
        selected.append(j)
        weights, *_ = np.linalg.lstsq(D[:, selected], t, rcond=None)
        residual = t - D[:, selected] @ weights
        evr = 1.0 - float(residual @ residual) / denom
        steps.append((j, residual.copy(), evr))
        if evr >= variance_threshold or len(selected) == D.shape[1]:
            return steps, weights


def minimal_support_size(D, target, variance_threshold, max_size=None):
    """Smallest subset of columns reaching the variance threshold, by
    exhaustive search over subsets in increasing size order."""
    from itertools import combinations

    t = np.asarray(target, dtype=np.float64)
    centered = t - t.mean()
    denom = float(centered @ centered)
    n_atoms = D.shape[1]
    limit = max_size or n_atoms
    for size in range(1, limit + 1):
        for subset in combinations(range(n_atoms), size):
            w, *_ = np.linalg.lstsq(D[:, list(subset)], t, rcond=None)
            residual = t - D[:, list(subset)] @ w
            if 1.0 - float(residual @ residual) / denom >= variance_threshold:
                return size
    return limit


_MASK64 = (1 << 64) - 1


def splitmix64(z):
    """SplitMix64 finalizer on one Python integer, wrapping mod 2**64."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def horn_permutation(seed, trial, col, n_rows):
    """Row permutation of one (trial, column) stream of Horn's null.

    The stable argsort of the keys ``splitmix64(packed ^ splitmix64(seed))``
    with ``packed = trial << 44 | col << 22 | row``.
    """
    seed_key = splitmix64(seed)
    keys = [
        splitmix64(((trial << 44) | (col << 22) | row) ^ seed_key)
        for row in range(n_rows)
    ]
    return np.argsort(np.array(keys, dtype=np.uint64), kind="stable")


def horn_null_eigvals(x, seed, n_repeats):
    """Descending null spectra, shape ``(n_repeats, m)``, of block ``x``.

    Trial ``t`` permutes each column's rows by its own stream, then takes
    ``eigvalsh`` of the permuted copy's population covariance.
    """
    n, m = x.shape
    null = np.empty((n_repeats, m))
    for t in range(n_repeats):
        permuted = np.column_stack(
            [x[horn_permutation(seed, t, c, n), c] for c in range(m)]
        )
        cov = np.cov(permuted, rowvar=False, bias=True)
        null[t] = np.linalg.eigvalsh(cov)[::-1]
    return null


def smooth_gradient(model, X, y):
    """Gradient of the mean one-vs-rest logistic loss at the model's
    parameters, the part of the L1 objective that is smooth.

    Returns ``(weight_grad, intercept_grad)`` with ``weight_grad`` shaped
    like ``model.weights``; optimality certificates compare it to ``lam``.
    """
    y = np.asarray(y, dtype=np.int64).ravel()
    n = X.shape[0]
    Y = np.zeros((n, model.n_classes))
    Y[np.arange(n), y] = 1.0
    P = expit(X @ model.weights.T + model.intercepts)
    return (X.T @ (P - Y) / n).T, (P - Y).mean(axis=0)


def float_csv(path, has_header=False):
    """The matrix of a numeric CSV read with ``csv.reader`` and ``float()``
    per cell, raising ``load_csv``'s messages for the first faulty record.

    Records whose first cell starts, after blanks, with ``#`` and empty
    records are skipped, and so is the next record with ``has_header``.
    """
    rows, width = [], None
    with open(path, encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if has_header:
                has_header = False
                continue
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value on line {lineno}"
                ) from None
            width = width or len(values)
            if len(values) != width:
                raise ValueError(
                    f"{path}: ragged row on line {lineno} "
                    f"({len(values)} cells, expected {width})"
                )
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def cf_derivative(ks, fs):
    """The cf-curve's slope at each grid point, with the ends one-sided."""
    ks = np.asarray(ks).astype(np.float64)
    fs = np.asarray(fs).astype(np.float64)
    if ks.size == 1:
        return np.zeros(1)
    deriv = np.empty(ks.size)
    deriv[0] = (fs[1] - fs[0]) / (ks[1] - ks[0])
    deriv[-1] = (fs[-1] - fs[-2]) / (ks[-1] - ks[-2])
    if ks.size > 2:
        deriv[1:-1] = (fs[2:] - fs[:-2]) / (ks[2:] - ks[:-2])
    return deriv


def plateau_start(ks, deriv, window):
    """The grid value at the first minimum of the derivative averaged over
    ``window`` points, one point at a time; fewer than three points give
    the first grid value."""
    if deriv.size < 3:
        return int(ks[0])
    width = min(window, deriv.size)
    smoothed = np.empty_like(deriv)
    for i in range(deriv.size):
        lo = min(max(i - window // 2, 0), deriv.size - width)
        smoothed[i] = deriv[lo : lo + width].mean()
    return int(ks[int(np.argmin(smoothed))])


def default_grid(n_features, n_points):
    """Geometric grid of cluster counts from 2 to ``n_features``, its last
    value set to ``n_features`` before a second deduplication."""
    if n_features < 2:
        return np.array([1], dtype=np.int64)
    grid = np.unique(
        np.rint(np.geomspace(2, n_features, n_points)).astype(np.int64)
    )
    grid[-1] = n_features
    return np.unique(grid)


def stratified_split(y, sizes, seed):
    """Index sets drawn class by class from per-class lists, with
    largest-remainder rounding of each class's share."""
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng(seed)
    by_class = {}
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        by_class[cls] = list(idx)
    classes = sorted(by_class)
    freqs = np.array([len(by_class[c]) for c in classes], dtype=np.float64)
    freqs /= freqs.sum()
    splits = []
    for size in sizes:
        avail = np.array([len(by_class[c]) for c in classes])
        quota = freqs * size
        take = np.minimum(np.floor(quota).astype(int), avail)
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
        for cls, count in zip(classes, take):
            chosen.extend(by_class[cls][:count])
            by_class[cls] = by_class[cls][count:]
        splits.append(np.sort(np.asarray(chosen, dtype=np.int64)))
    return tuple(splits)


def cv_folds(y, n_folds, seed):
    """Sorted test rows of each cross-validation fold: each class of
    ``0..max(y)`` in turn is shuffled and its samples are dealt to the
    folds one at a time."""
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(n_folds)]
    for cls in range(int(y.max()) + 1):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        for i, sample in enumerate(idx):
            folds[i % n_folds].append(sample)
    return [np.sort(np.asarray(f, dtype=np.int64)) for f in folds]


def squared_correlation_distances(X):
    """Condensed ``sqrt(2 n (1 - rho^2))`` between the columns of ``X``, one
    pair at a time: the distance of standardized columns ``sqrt(2 n (1 -
    rho))`` with the correlation's sign ignored."""
    n, m = X.shape
    rho = np.corrcoef(X, rowvar=False)
    return np.array(
        [
            np.sqrt(max(2.0 * n * (1.0 - rho[i, j] ** 2), 0.0))
            for i in range(m)
            for j in range(i + 1, m)
        ]
    )
