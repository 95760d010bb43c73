"""Permutation-based selection of the number of principal components.

The component count for a feature block is the number of observed covariance
eigenvalues exceeding a percentile of rank-matched eigenvalues from data with
each column's rows independently shuffled, floored at one component.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import validate_matrix


@dataclass(frozen=True)
class HornParams:
    """Permutation-null parameters: trial count, threshold percentile, seed."""

    n_repeats: int = 20
    percentile: float = 95.0
    seed: int = 0

    def __post_init__(self):
        if self.n_repeats < 1:
            raise ValueError("n_repeats must be >= 1")
        if not 0.0 < self.percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")


def _mix64(z):
    """SplitMix64 finalizer, vectorized over uint64 arrays (wrapping mod 2^64)."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _permutations(seed: int, trials, n_cols: int, n_rows: int):
    """Row permutations for every (trial, column) pair, shape (t, c, n).

    Each pair gets its own counter-based stream: sort keys are SplitMix64
    hashes of (seed, trial, column, row), so results do not depend on
    evaluation order or thread scheduling. Trial, column and row are packed
    into 20, 22 and 22 bits; larger values would give two streams the same
    keys, so they are rejected.
    """
    t = np.asarray(trials, dtype=np.uint64).reshape(-1, 1, 1)
    if n_rows >= 1 << 22 or n_cols >= 1 << 22 or t.max() >= 1 << 20:
        raise ValueError(
            "permutation streams need fewer than 2**22 rows, 2**22 columns "
            "and 2**20 trials"
        )
    c = np.arange(n_cols, dtype=np.uint64).reshape(1, -1, 1)
    i = np.arange(n_rows, dtype=np.uint64).reshape(1, 1, -1)
    packed = (t << np.uint64(44)) | (c << np.uint64(22)) | i
    seed_key = _mix64(np.array([seed], dtype=np.uint64))
    keys = _mix64(packed ^ seed_key)
    return np.argsort(keys, axis=-1, kind="stable")


def _sorted_eigvals(x):
    """Descending eigenvalues of the population covariance of ``x``.

    Works through the smaller of the feature-space covariance and the
    sample-space Gram matrix; trailing ranks beyond the data rank are zero.
    """
    n, m = x.shape
    xc = x - x.mean(axis=0)
    if m <= n:
        w = np.linalg.eigvalsh(xc.T @ xc / n)
        vals = w[::-1]
    else:
        w = np.linalg.eigvalsh(xc @ xc.T / n)
        vals = np.concatenate([w[::-1], np.zeros(m - n)])
    return np.maximum(vals, 0.0)


def _null_eigvals(x, params: HornParams):
    n, m = x.shape
    null = np.empty((params.n_repeats, m))
    # Chunk trials so the permuted copies stay within a modest memory budget.
    chunk = max(1, int(4e6 // max(n * m, 1)))
    cols = np.arange(m)
    for start in range(0, params.n_repeats, chunk):
        trials = np.arange(start, min(start + chunk, params.n_repeats))
        perms = _permutations(params.seed, trials, m, n)
        # permuted[t, :, c] = x[perms[t, c, :], c]
        permuted = x[perms.transpose(0, 2, 1), cols[None, None, :]]
        for j, t in enumerate(trials):
            null[t] = _sorted_eigvals(permuted[j])
    return null


def horn_components(x, params: HornParams | None = None) -> int:
    """Number of components to retain for one standardized feature block.

    Parameters
    ----------
    x : array, shape (n_samples, n_cols)
        Standardized columns of a single feature cluster.
    params : HornParams, optional
        Trial count, percentile, and seed; defaults are 20 trials at the
        95th percentile with seed 0.

    Returns
    -------
    int
        Length of the leading run of observed eigenvalues exceeding their
        rank-matched null percentile, floored at 1 and capped at
        ``min(n_samples - 1, n_cols)``.
    """
    x = validate_matrix(x, name="x")
    if params is None:
        params = HornParams()
    n, m = x.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    cap = min(n - 1, m)
    if m == 1:
        # Permuting a single column never changes its variance, so the
        # observed eigenvalue can never exceed the null; the floor applies.
        return 1
    observed = _sorted_eigvals(x)
    null = _null_eigvals(x, params)
    thresholds = np.percentile(null, params.percentile, axis=0)
    exceeds = observed > thresholds
    # Count the leading run: once a rank fails to beat its null quantile,
    # deeper ranks are spurious crossings, not evidence.
    h = int(exceeds.size if exceeds.all() else np.argmin(exceeds))
    return max(1, min(h, cap))
