"""Permutation-based selection of the number of principal components.

The component count for a feature block is the number of observed covariance
eigenvalues exceeding a percentile of rank-matched eigenvalues from data with
each column's rows independently shuffled, floored at one component.

The shuffles are keyed by (seed, trial, block-local column, row), not by the
original feature index. Column j of every block with the same row count draws
the same permutation, so one ``_PermutationTable`` serves every block of a
cut of a feature tree. It also means that reordering a block's columns
changes which stream each column draws: Horn counts are equivariant under
column permutations only in distribution, not draw for draw.

``_permutations`` says how the streams are hashed and why their sort need
not be stable, ``_PermutationTable`` how the shared table is sized, and
``_null_eigvals`` how each trial's permuted copy of a block is gathered.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .data import is_integer, is_number, validate_matrix


@dataclass(frozen=True)
class HornParams:
    """Permutation-null parameters: trial count, threshold percentile, seed."""

    n_repeats: int = 20
    percentile: float = 95.0
    seed: int = 0

    def __post_init__(self):
        # The seed is hashed as one uint64.
        seed = self.seed
        if not (is_integer(seed) and 0 <= seed < 1 << 64):
            raise ValueError(
                f"seed must be an integer in [0, 2**64), got {seed!r}"
            )
        n_repeats = self.n_repeats
        if not (is_integer(n_repeats) and n_repeats >= 1):
            raise ValueError(
                f"n_repeats must be an integer >= 1, got {n_repeats!r}"
            )
        p = self.percentile
        if not (is_number(p) and 0.0 < p <= 100.0):
            raise ValueError(f"percentile must be in (0, 100], got {p!r}")


def _mix64(z):
    """SplitMix64 finalizer, vectorized over uint64 arrays (wrapping mod 2^64)."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


# Entries per chunk of permuted trials, and the cap of a permutation table.
_CHUNK_ENTRIES = 4_000_000
# Sort keys hashed and sorted at a time: a block of columns stays in cache.
_SORT_ENTRIES = 1 << 15


def _permutations(seed: int, trials, n_cols: int, n_rows: int, out=None):
    """Row permutations for every (trial, column) pair, shape (t, c, n).

    Each pair gets its own counter-based stream: sort keys are SplitMix64
    hashes of (seed, trial, block-local column, row), so results do not
    depend on evaluation order or thread scheduling, and the sort runs along
    rows only: the permutations for ``n_cols = c`` are the first ``c``
    columns of those for any wider block. Trial, column and row are packed
    into 20, 22 and 22 bits; larger values would give two streams the same
    keys, so they are rejected. Within a stream the packed values differ in
    the row bits and the SplitMix64 finalizer is a bijection on uint64, so
    its keys are distinct: the sort need not be stable, and numpy's default
    sort gives the permutation a stable one would, several times faster.
    Keys are hashed and sorted for about ``_SORT_ENTRIES`` of them at a
    time, a few columns, so they stay in cache between the two steps. Each
    such block is written straight into ``out`` (any integer dtype that holds
    ``n_rows``; default a new intp array), which is returned.
    """
    t = np.asarray(trials, dtype=np.uint64).reshape(-1, 1, 1)
    if n_rows >= 1 << 22 or n_cols >= 1 << 22 or t.max() >= 1 << 20:
        raise ValueError(
            "permutation streams need fewer than 2**22 rows, 2**22 columns "
            "and 2**20 trials"
        )
    i = np.arange(n_rows, dtype=np.uint64).reshape(1, 1, -1)
    packed = (t << np.uint64(44)) | i
    seed_key = _mix64(np.array([seed], dtype=np.uint64))
    if out is None:
        out = np.empty((t.shape[0], n_cols, n_rows), dtype=np.intp)
    step = max(1, _SORT_ENTRIES // packed.size)
    for c0 in range(0, n_cols, step):
        c1 = min(c0 + step, n_cols)
        c = np.arange(c0, c1, dtype=np.uint64).reshape(1, -1, 1)
        keys = _mix64((packed | (c << np.uint64(22))) ^ seed_key)
        out[:, c0:c1] = np.argsort(keys, axis=-1)
    return out


class _PermutationTable:
    """The null permutations of the blocks of one cut of a feature tree.

    ``columns(m)`` is ``_permutations(seed, range(n_repeats), m, n_rows)``
    as int32 (``n_rows < 2**22``) for a block of ``m`` columns. The table
    holds ``C = min(n_cols, _CHUNK_ENTRIES // (n_repeats * n_rows))``
    columns, at most about 16 MB; a block wider than ``C`` generates its
    permutations per chunk instead, which gives the same permutations.
    Every column is written in ``__init__`` and never again, so threads
    share the table without a lock: they only read an array that was
    complete before they started.

    The table is an anonymous mapping of its own, not a block of the
    allocator's heap: a table there kept the Horn temporaries freed around
    it resident, about 20 MB more peak resident memory in repeated cf-curve
    and fit jobs on 1000 x 96 inputs.
    """

    def __init__(self, params: HornParams, n_rows: int, n_cols: int):
        self.seed = params.seed
        self.n_repeats = params.n_repeats
        self.n_rows = n_rows
        cols = min(n_cols, _CHUNK_ENTRIES // (params.n_repeats * n_rows))
        shape = (params.n_repeats, cols, n_rows)
        size = math.prod(shape)
        buffer = mmap.mmap(-1, 4 * max(size, 1))
        self._perms = np.frombuffer(buffer, np.int32, size).reshape(shape)
        _permutations(
            self.seed, range(self.n_repeats), cols, n_rows, out=self._perms
        )

    def columns(self, m: int):
        """Permutations of columns ``[0, m)``, or ``None`` past the table."""
        return self._perms[:, :m] if m <= self._perms.shape[1] else None


def _sorted_eigvals(xt):
    """Descending eigenvalues of ``xt @ xt.T / n`` for ``xt`` of shape
    ``(..., c, n)``: the population covariance of ``c`` centred variables.

    Stacked matrices go through one ``eigvalsh`` call. Works through the
    smaller of the ``c x c`` covariance and the ``n x n`` Gram matrix;
    trailing ranks beyond the data rank are zero.
    """
    c, n = xt.shape[-2:]
    x = xt.swapaxes(-1, -2)
    if c <= n:
        vals = np.linalg.eigvalsh(xt @ x / n)[..., ::-1]
    else:
        w = np.linalg.eigvalsh(x @ xt / n)
        zeros = np.zeros(w.shape[:-1] + (c - n,))
        vals = np.concatenate([w[..., ::-1], zeros], axis=-1)
    return np.maximum(vals, 0.0)


def _null_eigvals(x, params: HornParams, table=None):
    """Null spectra, shape ``(n_repeats, m)``, of a centred block ``x`` of
    shape ``(n, m)``.

    Permuting a column keeps its mean, so the permuted copies of a centred
    block are centred too. The copies are gathered one column at a time,
    ``permuted[t, j] = x[p[t, j], j]``, into a C-contiguous ``(t, m, n)``
    array whose matrices are the transposed copies, one row per variable:
    each trial's covariance is one product of such a matrix with its
    transpose.
    """
    n, m = x.shape
    xt = np.ascontiguousarray(x.T)
    null = np.empty((params.n_repeats, m))
    # Chunk trials so the permuted copies stay within a modest memory budget.
    chunk = max(1, _CHUNK_ENTRIES // max(n * m, 1))
    perms = None if table is None else table.columns(m)
    for start in range(0, params.n_repeats, chunk):
        stop = min(start + chunk, params.n_repeats)
        if perms is None:
            p = _permutations(params.seed, range(start, stop), m, n)
        else:
            p = perms[start:stop]
        permuted = np.empty((stop - start, m, n))
        for j in range(m):
            np.take(xt[j], p[:, j], out=permuted[:, j])
        null[start:stop] = _sorted_eigvals(permuted)
    return null


def horn_components(
    x,
    params: HornParams | None = None,
    *,
    perms: _PermutationTable | None = None,
) -> int:
    """Number of components to retain for one standardized feature block.

    Parameters
    ----------
    x : array, shape (n_samples, n_cols)
        Standardized columns of a single feature cluster.
    params : HornParams, optional
        Trial count, percentile, and seed; defaults are 20 trials at the
        95th percentile with seed 0.
    perms : _PermutationTable, optional
        Null permutations for this seed, trial count and row count, shared
        by the blocks of one cut (``FeatureTree.cuts`` builds one per call);
        the count is the same with or without it.

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
    if perms is not None and (perms.seed, perms.n_repeats, perms.n_rows) != (
        params.seed, params.n_repeats, n
    ):
        raise ValueError("permutation table does not match params and rows")
    cap = min(n - 1, m)
    if m == 1:
        # Permuting a single column never changes its variance, so the
        # observed eigenvalue can never exceed the null; the floor applies.
        return 1
    xc = x - x.mean(axis=0)
    observed = _sorted_eigvals(xc.T)
    null = _null_eigvals(xc, params, perms)
    thresholds = np.percentile(null, params.percentile, axis=0)
    exceeds = observed > thresholds
    # Count the leading run: once a rank fails to beat its null quantile,
    # deeper ranks are spurious crossings, not evidence.
    h = int(exceeds.size if exceeds.all() else np.argmin(exceeds))
    return max(1, min(h, cap))
