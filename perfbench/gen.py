"""Seeded input generators for the benchmark workloads.

Everything here depends only on numpy and the seed, so the same seed always
gives the same matrices, whatever the library under test does.
"""

from __future__ import annotations

import numpy as np

# The block layout and the class prototypes are part of a workload's
# definition, not of its seed: a seed redraws the values, not the shape of
# the problem, so run-to-run cost differences stay small.
LAYOUT_SEED = 20230221

# Latent blocks: columns per block, latent factors per block (inclusive
# ranges) and the standard deviation of the noise added to every entry.
BLOCK_SIZES = (2, 40)
BLOCK_RANKS = (1, 3)
BLOCK_NOISE = 1.0

# Stroke images: classes, line strokes per class prototype, and the standard
# deviation in pixels by which each sample moves every stroke endpoint.
N_CLASSES = 10
N_STROKES = 3
STROKE_JITTER = 1.3


def latent_blocks(n_rows, n_cols, seed):
    """Columns in blocks that each share a few latent factors.

    Block sizes are drawn uniformly from ``BLOCK_SIZES`` and block ranks from
    ``BLOCK_RANKS`` (capped at the block size); each block is ``F @ L`` plus
    noise, with the factor loadings scaled so every block is clearly above
    the noise floor. Columns are shuffled so the blocks are not contiguous.
    Returns ``(X, block_of_column)``.
    """
    layout = np.random.default_rng(LAYOUT_SEED)
    lo, hi = BLOCK_SIZES
    block_sizes, block_ranks = [], []
    while sum(block_sizes) < n_cols:
        left = n_cols - sum(block_sizes)
        size = int(layout.integers(lo, hi + 1))
        if left - size < lo:
            size = left
        block_sizes.append(size)
        rank = int(layout.integers(BLOCK_RANKS[0], BLOCK_RANKS[1] + 1))
        block_ranks.append(min(rank, size))
    rng = np.random.default_rng(seed)
    columns = []
    for size, rank in zip(block_sizes, block_ranks):
        factors = rng.standard_normal((n_rows, rank))
        loadings = rng.uniform(0.6, 1.4, size=(rank, size)) * rng.choice(
            [-1.0, 1.0], size=(rank, size)
        )
        columns.append(factors @ loadings)
    X = np.hstack(columns) + BLOCK_NOISE * rng.standard_normal((n_rows, n_cols))
    blocks = np.repeat(np.arange(len(block_sizes)), block_sizes)
    order = rng.permutation(n_cols)
    return X[:, order], blocks[order]


def stroke_images(n_rows, seed, side):
    """Labelled image-like data: each class is a few blurred line strokes.

    A class prototype is ``N_STROKES`` random segments on a ``side x side``
    grid. Every sample moves each endpoint by Gaussian ``STROKE_JITTER`` pixels,
    varies stroke width and ink, and adds pixel noise, so classes overlap
    enough that the classifier's accuracy is well below 1.
    Returns ``(X, y)`` with ``X`` of shape ``(n_rows, side * side)``.
    """
    margin = 2.0
    protos = np.random.default_rng(LAYOUT_SEED).uniform(
        margin, side - 1 - margin, size=(N_CLASSES, N_STROKES, 2, 2)
    )
    rng = np.random.default_rng(seed)
    y = rng.integers(0, N_CLASSES, size=n_rows)
    ends = protos[y] + STROKE_JITTER * rng.standard_normal((n_rows, N_STROKES, 2, 2))
    width = rng.uniform(0.6, 1.1, size=(n_rows, N_STROKES, 1))
    ink = rng.uniform(0.7, 1.3, size=(n_rows, N_STROKES, 1))
    # Render in slices of rows so the (rows, strokes, pixels) temporaries
    # stay small next to the memory of the library under test.
    X = np.vstack(
        [
            _render(ends[lo : lo + 500], width[lo : lo + 500], ink[lo : lo + 500], side)
            for lo in range(0, n_rows, 500)
        ]
    )
    X += 0.08 * rng.standard_normal(X.shape)
    return X, y


def _render(ends, width, ink, side):
    """Blurred strokes on a ``side x side`` grid, one image per row."""
    yy, xx = np.mgrid[0:side, 0:side]
    # Distance from every pixel to every stroke segment, shape (n, s, p).
    ay, ax = ends[:, :, 0, 0, None], ends[:, :, 0, 1, None]
    dy, dx = ends[:, :, 1, 0, None] - ay, ends[:, :, 1, 1, None] - ax
    py, px = yy.ravel() - ay, xx.ravel() - ax
    length2 = np.maximum(dy * dy + dx * dx, 1e-12)
    t = np.clip((py * dy + px * dx) / length2, 0.0, 1.0)
    d2 = (py - t * dy) ** 2 + (px - t * dx) ** 2
    strokes = ink * np.exp(-d2 / (2.0 * width**2))
    return np.clip(strokes.sum(axis=1), 0.0, 1.0)
