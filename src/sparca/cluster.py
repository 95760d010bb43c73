"""Agglomerative feature clustering under Ward's minimum-variance criterion.

Features are the *columns* of a standardized data matrix. The merge tree is
scipy's Ward linkage, imported on first use so that ``import sparca`` does not
load ``scipy.spatial``. Node ids follow creation order (leaves ``0..m-1``,
internal nodes ``m..2m-2``) and merges are sorted by distance; among exactly
tied merges, scipy's order is kept. Cuts replay that tree to a requested
cluster count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_integer, validate_matrix


@dataclass(frozen=True, eq=False)
class Linkage:
    """Merge history over ``n_leaves`` features: ``n_leaves - 1`` records.

    ``left[i]``/``right[i]`` are child node ids of internal node
    ``n_leaves + i``; records are sorted by non-decreasing ``distance``.
    """

    left: np.ndarray
    right: np.ndarray
    distance: np.ndarray
    size: np.ndarray
    n_leaves: int


@dataclass(frozen=True, eq=False)
class ClusterAssignment:
    """Cluster id per feature column, ids ``0..n_clusters-1`` ordered by the
    smallest feature index each cluster contains."""

    labels: np.ndarray
    n_clusters: int

    @classmethod
    def from_groups(cls, groups):
        """Label every feature with the index of the group holding it."""
        labels = np.empty(sum(len(group) for group in groups), dtype=np.int64)
        for cid, group in enumerate(groups):
            labels[group] = cid
        return cls(labels=labels, n_clusters=len(groups))

    def members(self, cluster_id) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster_id)


# Inner products ``feature_distances`` holds at once: one block of rows.
_BLOCK_ENTRIES = 1 << 19


def feature_distances(X_std):
    """Pairwise Euclidean distances between columns, condensed row-major.

    Entry order is the standard condensed layout: (0,1), (0,2), ...,
    (m-2,m-1). Requires at least two columns. The vector is written one
    block of rows at a time: block ``[i0, i1)`` takes the inner products
    ``g = X[:, i0:i1].T @ X[:, i0:]``, and each row ``i`` of it becomes
    ``(|x_i|^2 + |x_j|^2) - 2 g_ij`` for ``j > i``, written straight into its
    stretch of the vector. Besides the input, the peak memory is the
    condensed vector, 4*m^2 bytes, plus one block of at most about
    ``_BLOCK_ENTRIES`` float64 entries (4 MB), not an m x m matrix.
    """
    X = validate_matrix(X_std, name="X_std")
    m = X.shape[1]
    if m < 2:
        raise ValueError("need at least 2 features to compute distances")
    sq = np.einsum("ij,ij->j", X, X)
    d = np.empty(m * (m - 1) // 2)
    rows = max(1, _BLOCK_ENTRIES // m)
    pos = 0
    for i0 in range(0, m - 1, rows):
        i1 = min(i0 + rows, m - 1)
        g = X[:, i0:i1].T @ X[:, i0:]
        g *= 2.0
        for r, i in enumerate(range(i0, i1)):
            out = d[pos : pos + m - 1 - i]
            np.add(sq[i], sq[i + 1 :], out=out)
            out -= g[r, r + 1 :]
            pos += out.size
    np.maximum(d, 0.0, out=d)
    return np.sqrt(d, out=d)


def ward_linkage(d, m: int) -> Linkage:
    """Ward merge tree from condensed pairwise distances over ``m`` features.

    ``scipy.cluster.hierarchy.linkage(d, "ward")`` builds the tree
    (nearest-neighbor chain with the Lance-Williams Ward update, Müllner
    2011); its rows map one to one onto the merge records, with the smaller
    child id first. scipy is imported here rather than at module level
    because loading ``scipy.cluster`` pulls in ``scipy.spatial``, which
    would add about 0.13 s to every ``import sparca``.

    Under exact distance ties any of the tied pairs may merge first, so two
    Ward implementations can cut tied data into different, equally valid
    partitions; tie-free input gives one tree.
    """
    from scipy.cluster.hierarchy import linkage

    d = np.asarray(d, dtype=np.float64).ravel()
    check_integer(m, "m", 2)
    if d.size != m * (m - 1) // 2:
        raise ValueError(
            f"condensed array has {d.size} entries, expected {m * (m - 1) // 2}"
        )
    if (d < 0).any():  # linkage itself rejects non-finite distances
        raise ValueError("distances must be non-negative")
    Z = linkage(d, method="ward")
    return Linkage(
        left=Z[:, 0].astype(np.int64),
        right=Z[:, 1].astype(np.int64),
        distance=Z[:, 2].copy(),
        size=Z[:, 3].astype(np.int64),
        n_leaves=m,
    )


def _cut_groups(linkage: Linkage, k: int):
    """Leaf groups after undoing the ``k - 1`` largest-distance merges.

    Node ``m + i`` is made by merge ``i`` and merges are sorted by distance,
    so a cut at ``k`` keeps merges ``0..m-k-1``. Walking those from the last
    one down hands both children their parent's topmost kept node, so every
    leaf ends on the root of its group. Returns ``(node_ids, groups)``
    ordered by smallest contained leaf, where ``node_ids[i]`` is the
    dendrogram node spanning exactly ``groups[i]``, its leaves ascending:
    a stable sort of the leaves by their group's rank lists every group in
    turn, and the group sizes split that list.
    """
    m = linkage.n_leaves
    if not 1 <= k <= m:
        raise ValueError(f"cluster count {k} out of range [1, {m}]")
    left, right = linkage.left.tolist(), linkage.right.tolist()
    top = list(range(2 * m - 1))
    for i in reversed(range(m - k)):
        top[left[i]] = top[right[i]] = top[m + i]
    nodes, first, group = np.unique(
        top[:m], return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    leaves = np.argsort(rank[group], kind="stable")
    sizes = np.bincount(group)[order]
    return nodes[order].tolist(), np.split(leaves, np.cumsum(sizes)[:-1])


def cut_to_k(linkage: Linkage, k: int) -> ClusterAssignment:
    """Partition the leaves into exactly ``k`` clusters.

    Cluster ids are assigned by the smallest feature index each cluster
    contains, so labels are stable and interpretable.
    """
    check_integer(k, "k")
    return ClusterAssignment.from_groups(_cut_groups(linkage, k)[1])
