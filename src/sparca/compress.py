"""PCA compression of one cluster's feature block via thin SVD."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_integer, validate_matrix


@dataclass(frozen=True, eq=False)
class ClusterPca:
    """Top components of one feature block.

    ``loadings`` is (n_cols, n_components) with orthonormal columns,
    ``scores`` the (n_samples, n_components) projections, ``eigenvalues``
    the matching population covariance eigenvalues in descending order.
    """

    loadings: np.ndarray
    scores: np.ndarray
    eigenvalues: np.ndarray


def pca_fit(x, n_components: int) -> ClusterPca:
    """Fit the top ``n_components`` principal components of a centered block.

    Uses a thin SVD of the data block, which stays stable for both tall and
    wide blocks. Each loading vector is flipped so its largest-magnitude
    entry is positive, making the output deterministic.
    """
    x = validate_matrix(x, name="x")
    n, m = x.shape
    cap = min(n - 1, m)
    if not 1 <= check_integer(n_components, "n_components") <= cap:
        raise ValueError(
            f"n_components {n_components} out of range [1, {cap}] "
            f"for a {n}x{m} block"
        )
    if not x.any():
        raise ValueError("degenerate all-zero block")
    _, svals, vt = np.linalg.svd(x, full_matrices=False)
    loadings = vt[:n_components].T.copy()
    anchor = np.argmax(np.abs(loadings), axis=0)
    flip = np.sign(loadings[anchor, np.arange(n_components)])
    flip[flip == 0] = 1.0
    loadings *= flip
    scores = x @ loadings
    eigenvalues = svals[:n_components] ** 2 / n
    return ClusterPca(loadings=loadings, scores=scores, eigenvalues=eigenvalues)
