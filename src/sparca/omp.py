"""Orthogonal matching pursuit for sparse approximation of score vectors.

Greedily selects the dictionary column most correlated with the residual,
re-fits all selected coefficients by least squares (maintained as a thin QR
factorization), and stops once the explained-variance ratio reaches the
requested threshold or the usable dictionary is exhausted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import check_integer, check_number, check_numbers, validate_matrix

# Candidate atoms whose component orthogonal to the current selection falls
# below this relative norm are collinear with it and permanently rejected.
COLLINEAR_TOL = 1e-10


@dataclass(frozen=True)
class SparseComponent:
    """Sparse surrogate for one PCA score column of one cluster.

    ``entries`` holds ``(feature_index, weight)`` pairs sorted by feature
    index; indices refer to original data columns. ``full_support`` marks
    components that exhausted every usable atom before reaching the
    variance threshold.
    """

    entries: tuple
    achieved_evr: float
    cluster: int
    rank: int
    full_support: bool = False

    @property
    def source(self):
        return (self.cluster, self.rank)

    @property
    def feature_indices(self) -> np.ndarray:
        return np.array([i for i, _ in self.entries], dtype=np.int64)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.entries])

    @property
    def support_size(self) -> int:
        return len(self.entries)


def omp_fit(
    dictionary,
    target,
    variance_threshold: float,
    feature_indices=None,
    cluster: int = 0,
    rank: int = 0,
) -> SparseComponent:
    """Sparsely approximate ``target`` from the columns of ``dictionary``.

    Parameters
    ----------
    dictionary : array, shape (n_samples, n_atoms)
        Standardized cluster columns.
    target : array, shape (n_samples,)
        Score vector to approximate; must have nonzero centered norm.
    variance_threshold : float
        Stop once ``1 - ||residual||^2 / ||target - mean||^2`` reaches this
        value, in (0, 1].
    feature_indices : array, optional
        Original column index (an integer >= 0) of each atom; defaults to
        ``0..n_atoms-1``.
    cluster, rank : int
        Provenance recorded on the returned component, each >= 0.

    Returns
    -------
    SparseComponent
        At least one atom is always selected; weights are the joint
        least-squares coefficients over the final support.
    """
    D = validate_matrix(dictionary, name="dictionary")
    t = np.asarray(target, dtype=np.float64).ravel()
    n, n_atoms = D.shape
    if t.size != n:
        raise ValueError("target length does not match dictionary rows")
    if not np.isfinite(t).all():
        raise ValueError("target contains NaN or infinite values")
    check_number(variance_threshold, "variance_threshold", 0, 1, open_low=True)
    check_integer(cluster, "cluster", 0)
    check_integer(rank, "rank", 0)
    centered = t - t.mean()
    denom = float(centered @ centered)
    if denom <= 0.0:
        raise ValueError("target has no variance (all-zero or constant)")
    if feature_indices is None:
        feature_indices = np.arange(n_atoms)
    feature_indices = check_numbers(
        feature_indices, "feature_indices", 0, integer=True
    )
    if feature_indices.size != n_atoms:
        raise ValueError("feature_indices length does not match dictionary")

    atom_norms = np.linalg.norm(D, axis=0)

    Q = np.empty((n_atoms, n))  # rows are the orthonormalized selected atoms
    rmat = np.zeros((n_atoms, n_atoms))
    qt_target = np.empty(n_atoms)
    selected = []
    rejected = atom_norms == 0.0  # selected, collinear or all-zero atoms
    residual = t.copy()
    evr = 0.0

    while evr < variance_threshold:
        corr = np.abs(D.T @ residual)
        corr[rejected] = -1.0
        j = int(corr.argmax())
        if corr[j] < 0.0:
            break  # every usable atom is selected or collinear
        k = len(selected)
        Qk = Q[:k]
        q = D[:, j].copy()
        if k:
            # Two rounds of classical Gram-Schmidt keep Q orthonormal.
            proj = Qk @ q
            q -= Qk.T @ proj
            proj2 = Qk @ q
            q -= Qk.T @ proj2
            rmat[:k, k] = proj + proj2
        norm = math.sqrt(q @ q)
        rejected[j] = True
        if norm <= COLLINEAR_TOL * atom_norms[j]:
            continue  # collinear with the selection: adds nothing to the span
        rmat[k, k] = norm
        np.divide(q, norm, out=Q[k])
        qt_target[k] = float(Q[k] @ residual)
        residual -= qt_target[k] * Q[k]
        selected.append(j)
        evr = 1.0 - float(residual @ residual) / denom
    if not selected:
        raise ValueError("dictionary has no usable atoms")

    # Imported here, as Ward imports scipy, so that ``import sparca`` does
    # not load scipy.linalg.
    from scipy.linalg import solve_triangular

    # Joint least-squares coefficients over the support: R w = Q^T t.
    k = len(selected)
    w = solve_triangular(rmat[:k, :k], qt_target[:k])

    order = np.argsort(feature_indices[selected])
    entries = tuple(
        (int(feature_indices[selected[i]]), float(w[i])) for i in order
    )
    return SparseComponent(
        entries=entries,
        achieved_evr=float(min(max(evr, 0.0), 1.0)),
        cluster=cluster,
        rank=rank,
        full_support=evr < variance_threshold,
    )
