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

Since every block of width ``m`` draws streams ``0..m-1``, ``horn_components``
also takes ``K`` blocks of one width as a ``(K, n, m)`` stack: one centred
transposed ``(K, m, n)`` copy, from which both spectra take ``min(m, n)``
ranks; per chunk of trials and blocks (2 MiB of permuted copies, or one
trial of a larger block), one gather, one stacked product and one
``eigvalsh``; and one percentile. Each block still goes through the same
operations on the same values as alone, so its count does not depend on
the stack it is in; a single ``(n, m)`` block is the stack of one.

``_permutations`` says how the streams are hashed and why their packed-key
sort is exact, ``_PermutationTable`` how the shared table is sized, and
``_null_eigvals`` how the permuted copies of a stack are gathered.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from .data import check_number, is_integer, validate_matrix


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
        # A draw key holds the trial in 20 bits (see _permutations).
        n_repeats = self.n_repeats
        if not (is_integer(n_repeats) and 1 <= n_repeats <= 1 << 20):
            raise ValueError(
                "n_repeats must be an integer in [1, 2**20], "
                f"got {n_repeats!r}"
            )
        check_number(self.percentile, "percentile", 0, 100, open_low=True)


def check_horn_params(params):
    """``params``, or ``HornParams()`` for ``None``; anything else that is
    not a ``HornParams`` raises ``ValueError``."""
    if params is None:
        return HornParams()
    if not isinstance(params, HornParams):
        raise ValueError(
            "Horn parameters must be a HornParams or None, got "
            f"{type(params).__name__}"
        )
    return params


def _mix64(z):
    """SplitMix64 finalizer, in place on a uint64 array (wrapping mod 2^64).

    Returns ``z``.
    """
    shifted = np.empty_like(z)
    z += np.uint64(0x9E3779B97F4A7C15)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= np.uint64(factor)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


# The cap of a permutation table, in entries.
_CHUNK_ENTRIES = 4_000_000
# Entries of a chunk of Horn's null, unless one block has more: its permuted
# copies (float64) and their offsets (intp) take 2 MiB each.
_STACK_ENTRIES = 1 << 18
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
    its keys are distinct and the permutation is their (unique) argsort.

    That argsort is read off one plain sort: the low ``b =
    bit_length(n_rows - 1)`` bits of each key are replaced by its row, and
    the sorted keys' low bits are the permutation. Truncation keeps the
    keys' order wherever their high bits differ; where two of a stream's
    high parts tie, the rows would break the tie instead of the dropped
    bits, so such a stream is sorted again by its full keys. With 1000 rows
    a tie has odds of about 2^-35 per stream.

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
    rows = np.arange(n_rows, dtype=np.uint64)
    packed = (t << np.uint64(44)) | rows
    seed_key = _mix64(np.array([seed], dtype=np.uint64))

    def keys_of(trial_rows, c0, c1):
        c = np.arange(c0, c1, dtype=np.uint64).reshape(-1, 1)
        keys = trial_rows | (c << np.uint64(22))
        keys ^= seed_key
        return _mix64(keys)

    bits = np.uint64((n_rows - 1).bit_length())
    low = (np.uint64(1) << bits) - np.uint64(1)
    if out is None:
        out = np.empty((t.shape[0], n_cols, n_rows), dtype=np.intp)
    step = max(1, _SORT_ENTRIES // packed.size)
    for c0 in range(0, n_cols, step):
        c1 = min(c0 + step, n_cols)
        keys = keys_of(packed, c0, c1)
        keys &= ~low
        keys |= rows
        keys.sort(axis=-1)
        high = keys >> bits
        tied = (high[..., 1:] == high[..., :-1]).any(axis=-1)
        keys &= low
        out[:, c0:c1] = keys
        for i, j in zip(*np.nonzero(tied)):
            full = keys_of(packed[i], c0 + j, c0 + j + 1)[0]
            out[i, c0 + j] = np.argsort(full)
    return out


class _PermutationTable:
    """The null permutations of the blocks of one cut of a feature tree.

    ``columns(m)`` is ``_permutations(seed, range(n_repeats), m, n_rows)``
    for a block of ``m`` columns, in the smallest unsigned type that holds
    a row index: uint8 up to 256 rows, uint16 up to 65,536 and uint32 above
    (``n_rows < 2**22``). The table holds ``C = min(n_cols, _CHUNK_ENTRIES
    // (n_repeats * n_rows))`` columns, at most 4M entries: 4, 8 or 16 MB
    by type. A block wider than ``C`` generates its permutations per chunk
    of trials instead, which gives the same permutations.
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
        dtype = np.min_scalar_type(n_rows - 1)
        buffer = mmap.mmap(-1, dtype.itemsize * max(size, 1))
        self._perms = np.frombuffer(buffer, dtype, size).reshape(shape)
        _permutations(
            self.seed, range(self.n_repeats), cols, n_rows, out=self._perms
        )

    def columns(self, m: int):
        """Permutations of columns ``[0, m)``, or ``None`` past the table."""
        return self._perms[:, :m] if m <= self._perms.shape[1] else None


def _sorted_eigvals(xt):
    """Descending eigenvalues of ``xt @ xt.T / n`` for ``xt`` of shape
    ``(..., c, n)``: the population covariance of ``c`` centred variables.

    Returns the ``min(c, n)`` eigenvalues ``n`` samples can have, clipped
    at 0, from one ``eigvalsh`` call, stacked or not, on the smaller of the
    ``c x c`` covariance and the ``n x n`` Gram matrix.
    """
    c, n = xt.shape[-2:]
    x = xt.swapaxes(-1, -2)
    gram = (xt @ x if c <= n else x @ xt) / n
    return np.maximum(np.linalg.eigvalsh(gram)[..., ::-1], 0.0)


def _null_eigvals(xt, params: HornParams, table=None):
    """Null spectra, shape ``(K, n_repeats, min(m, n))``, of a stack of
    centred blocks given transposed, as ``xt`` of shape ``(K, m, n)``.

    Permuting a column keeps its mean, so the permuted copies of a centred
    block are centred too. Each block of ``xt`` is flattened, so its column
    ``j`` starts at offset ``j * n``, and trial ``t`` reads the offsets
    ``j * n + p[t, j]``. One ``_STACK_ENTRIES`` budget sizes a chunk: as
    many trials of one block as it holds, then as many blocks of those
    trials. A chunk of trials writes its offsets once, into a reused intp
    ``(t, m, n)`` array; a chunk of blocks is then one ``np.take`` of them,
    ``permuted[k, t, j] = x[k][p[t, j], j]``, into a C-contiguous ``(K, t,
    m, n)`` view of one reused buffer. Its matrices are the transposed
    copies, one row per variable, so each trial's covariance is one
    product of such a matrix with its transpose, and the chunk's spectra
    land in ``null`` in its own order.
    """
    k, m, n = xt.shape
    flat = xt.reshape(k, m * n)
    null = np.empty((k, params.n_repeats, min(m, n)))
    trials = min(params.n_repeats, max(1, _STACK_ENTRIES // (n * m)))
    blocks = min(k, max(1, _STACK_ENTRIES // (trials * n * m)))
    buffer = np.empty(blocks * trials * m * n)
    offsets = np.empty((trials, m, n), dtype=np.intp)
    perms = None if table is None else table.columns(m)
    starts = np.arange(0, m * n, n).reshape(m, 1)
    for t0 in range(0, params.n_repeats, trials):
        t1 = min(t0 + trials, params.n_repeats)
        chunk = offsets[: t1 - t0]
        if perms is None:
            _permutations(params.seed, range(t0, t1), m, n, out=chunk)
            chunk += starts
        else:
            np.add(perms[t0:t1], starts, out=chunk)
        for b0 in range(0, k, blocks):
            b1 = min(b0 + blocks, k)
            shape = (b1 - b0,) + chunk.shape
            permuted = buffer[: math.prod(shape)].reshape(shape)
            # The offsets are in range, so "wrap" changes none of them;
            # unlike the default mode it fills ``out`` in place.
            np.take(flat[b0:b1], chunk, axis=1, out=permuted, mode="wrap")
            null[b0:b1, t0:t1] = _sorted_eigvals(permuted)
    return null


def horn_components(
    x,
    params: HornParams | None = None,
    *,
    perms: _PermutationTable | None = None,
):
    """Number of components to retain for a standardized feature block, or
    for each block of a stack of blocks of one width.

    Parameters
    ----------
    x : array, shape (n_samples, n_cols) or (n_blocks, n_samples, n_cols)
        Standardized columns of a single feature cluster, or a stack of
        such blocks; each block's count is the one it gets alone.
    params : HornParams, optional
        Trial count, percentile, and seed; ``None`` gives 20 trials at the
        95th percentile with seed 0, and any other non-``HornParams``
        raises ``ValueError``.
    perms : _PermutationTable, optional
        Null permutations for this seed, trial count and row count, shared
        by the blocks of one cut (``FeatureTree.cuts`` builds one per call);
        the count is the same with or without it.

    Returns
    -------
    int, or list of ``n_blocks`` ints for a stack
        Length of the leading run of observed eigenvalues exceeding their
        rank-matched null percentile, floored at 1 and capped at
        ``min(n_samples - 1, n_cols)``.
    """
    params = check_horn_params(params)
    x = np.asarray(x)
    stacked = x.ndim == 3
    if stacked:
        k, n, m = x.shape
        if k < 1:
            raise ValueError("x must hold at least one block")
        xs = validate_matrix(x.reshape(k * n, m), name="x").reshape(k, n, m)
    else:
        xs = validate_matrix(x, name="x")[np.newaxis]
    _, n, m = xs.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    if perms is not None and (perms.seed, perms.n_repeats, perms.n_rows) != (
        params.seed, params.n_repeats, n
    ):
        raise ValueError("permutation table does not match params and rows")
    if m == 1:
        # Permuting a single column never changes its variance, so the
        # observed eigenvalue can never exceed the null; the floor applies.
        counts = [1] * len(xs)
    else:
        # Strided mean: numpy sums a contiguous axis pairwise, to other bits.
        xt = np.empty((len(xs), m, n))
        np.subtract(xs.swapaxes(1, 2), xs.mean(axis=1)[..., None], out=xt)
        observed = _sorted_eigvals(xt)
        null = _null_eigvals(xt, params, perms)
        thresholds = np.percentile(null, params.percentile, axis=1)
        exceeds = observed > thresholds
        # Count the leading run: once a rank fails to beat its null
        # quantile, deeper ranks are spurious crossings, not evidence.
        h = np.where(exceeds.all(axis=1), m, exceeds.argmin(axis=1))
        counts = np.clip(h, 1, min(n - 1, m)).tolist()
    return counts if stacked else counts[0]
