import tracemalloc

import numpy as np
import pytest

import sparca.cluster
from sparca.cluster import (
    _cut_groups,
    cut_to_k,
    feature_distances,
    ward_linkage,
)
from sparca.data import standardize_apply, standardize_fit

from conftest import partition_sets
from oracles import column_distances, naive_cut, naive_ward, ward_delta_sse


def _standardized(rng, n, m):
    X = rng.standard_normal((n, m))
    return standardize_apply(standardize_fit(X), X)


# The 16 vertices of the unit 4-cube, one per column.
_HYPERCUBE = np.array(
    [[(v >> bit) & 1 for v in range(16)] for bit in range(4)], dtype=np.float64
)


def _assert_greedy_ward(X, linkage):
    """Each merge joins a pair of current clusters with the least SSE increase,
    at height ``sqrt(2 * delta)``, with ``left < right``, the merged size and
    non-decreasing heights."""
    m = X.shape[1]
    clusters = {j: frozenset([j]) for j in range(m)}
    merges = zip(linkage.left, linkage.right, linkage.distance, linkage.size)
    for i, (left, right, dist, size) in enumerate(merges):
        assert left < right
        merged = clusters[left] | clusters[right]
        assert size == len(merged)
        delta = ward_delta_sse(X, clusters[left], clusters[right])
        best = min(
            ward_delta_sse(X, clusters[a], clusters[b])
            for a in clusters
            for b in clusters
            if a < b
        )
        assert np.isclose(delta, best, atol=1e-10)
        assert np.isclose(dist, np.sqrt(2.0 * delta), atol=1e-10)
        del clusters[left], clusters[right]
        clusters[m + i] = merged
    assert (np.diff(linkage.distance) >= 0).all()


class TestFeatureDistances:
    def test_identical_columns_zero(self):
        X = np.tile(np.arange(5.0)[:, None], (1, 2))
        assert feature_distances(X)[0] == 0.0

    def test_unit_axes(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.isclose(feature_distances(X)[0], np.sqrt(2.0))

    def test_correlation_identity(self):
        # for population-standardized columns, d^2 = 2 n (1 - r)
        rng = np.random.default_rng(0)
        X = _standardized(rng, 40, 6)
        n, m = X.shape
        d = feature_distances(X)
        idx = 0
        for j in range(m):
            for k in range(j + 1, m):
                r = float(X[:, j] @ X[:, k]) / n
                assert np.isclose(d[idx] ** 2, 2.0 * n * (1.0 - r), atol=1e-8)
                idx += 1

    def test_condensed_order(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 4))
        d = feature_distances(X)
        direct = [
            np.linalg.norm(X[:, j] - X[:, k])
            for j in range(4)
            for k in range(j + 1, 4)
        ]
        assert np.allclose(d, direct)

    def test_single_column_errors(self):
        with pytest.raises(ValueError, match="at least 2"):
            feature_distances(np.ones((5, 1)))


def _dense_distances(X):
    """Condensed distances through the full m x m Gram and squared-distance
    matrices, in the operation order the row blocks keep."""
    gram = X.T @ X
    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :]
    gram *= 2.0
    d2 -= gram
    d = d2[np.triu_indices(X.shape[1], 1)]
    np.maximum(d, 0.0, out=d)
    return np.sqrt(d, out=d)


# Rows per block when the block budget is patched down for a test.
_WIDTH = 4


class TestBlockedDistances:
    @pytest.mark.parametrize("m", [2, _WIDTH, _WIDTH + 1, 3 * _WIDTH - 1])
    def test_matches_oracle_across_block_edges(self, monkeypatch, m):
        monkeypatch.setattr(sparca.cluster, "_BLOCK_ENTRIES", _WIDTH * m)
        X = np.random.default_rng(m).standard_normal((7, m))
        np.testing.assert_allclose(
            feature_distances(X), column_distances(X), rtol=1e-12, atol=0
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_ward_merges_equal_the_dense_formula(self, seed):
        m = 800
        assert m > sparca.cluster._BLOCK_ENTRIES // m  # several row blocks
        X = _standardized(np.random.default_rng(seed), 20, m)
        blocked = ward_linkage(feature_distances(X), m)
        dense = ward_linkage(_dense_distances(X), m)
        assert np.array_equal(blocked.left, dense.left)
        assert np.array_equal(blocked.right, dense.right)
        assert np.array_equal(blocked.size, dense.size)
        np.testing.assert_allclose(
            blocked.distance, dense.distance, rtol=1e-12, atol=1e-12
        )

    def test_duplicated_columns_in_different_blocks_merge_first(
        self, monkeypatch
    ):
        m = 3 * _WIDTH
        monkeypatch.setattr(sparca.cluster, "_BLOCK_ENTRIES", _WIDTH * m)
        X = _standardized(np.random.default_rng(6), 15, m)
        X[:, 2 * _WIDTH + 1] = X[:, 1]
        linkage = ward_linkage(feature_distances(X), m)
        assert (linkage.left[0], linkage.right[0]) == (1, 2 * _WIDTH + 1)
        assert linkage.distance[0] < 1e-6

    def test_peak_memory_is_the_condensed_vector_plus_one_block(self):
        n, m = 32, 1500
        X = np.random.default_rng(7).standard_normal((n, m))
        condensed_bytes = 8 * (m * (m - 1) // 2)
        tracemalloc.start()
        try:
            feature_distances(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < condensed_bytes + 4 * 8 * sparca.cluster._BLOCK_ENTRIES


class TestWardLinkage:
    def test_nearest_pair_merges_first(self):
        # 3 singletons with pairwise distances (d01, d02, d12) = (1, 10, 10)
        d = np.array([1.0, 10.0, 10.0])
        linkage = ward_linkage(d, 3)
        assert {int(linkage.left[0]), int(linkage.right[0])} == {0, 1}
        assert np.isclose(linkage.distance[0], 1.0)

    def test_two_features(self):
        d = np.array([3.5])
        linkage = ward_linkage(d, 2)
        assert len(linkage.left) == 1
        assert np.isclose(linkage.distance[0], 3.5)
        assert linkage.size[0] == 2

    def test_merge_distances_sorted(self):
        rng = np.random.default_rng(2)
        X = _standardized(rng, 30, 9)
        linkage = ward_linkage(feature_distances(X), 9)
        assert (np.diff(linkage.distance) >= -1e-12).all()

    def test_each_merge_minimizes_sse_increase(self):
        rng = np.random.default_rng(3)
        X = _standardized(rng, 20, 6)
        _assert_greedy_ward(X, ward_linkage(feature_distances(X), 6))

    @pytest.mark.parametrize(
        "X", [np.eye(12), _HYPERCUBE], ids=["eye12", "4cube"]
    )
    def test_exact_ties_keep_the_ward_contract(self, X):
        # Many pairs tie exactly (every pair for eye(12)), so two valid Ward
        # implementations may merge different pairs and cut differently.
        _assert_greedy_ward(X, ward_linkage(feature_distances(X), X.shape[1]))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_greedy_ward(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 13))
        X = _standardized(rng, int(rng.integers(8, 30)), m)
        linkage = ward_linkage(feature_distances(X), m)
        partitions, distances = naive_ward(X)
        assert np.allclose(
            linkage.distance, distances, rtol=1e-9, atol=1e-9
        )
        for k in range(1, m + 1):
            ours = partition_sets(cut_to_k(linkage, k).labels)
            theirs = frozenset(partitions[m - k])
            assert ours == theirs

    def test_bad_condensed_length(self):
        with pytest.raises(ValueError, match="entries"):
            ward_linkage(np.ones(4), 4)

    @pytest.mark.parametrize("m", [1, 2.0, 2.5, True, "3"])
    def test_bad_feature_count_rejected(self, m):
        # 2.0 would pass the length check on one distance and build a tree
        # whose leaf count is a float.
        with pytest.raises(ValueError, match="^m must be an integer >= 2"):
            ward_linkage(np.ones(1), m)

    @pytest.mark.parametrize(
        "bad, match",
        # scipy's linkage raises the non-finite ValueError itself.
        [(np.inf, "finite"), (np.nan, "finite"), (-0.5, "non-negative")],
    )
    def test_bad_distance_rejected(self, bad, match):
        with pytest.raises(ValueError, match=match):
            ward_linkage(np.array([1.0, bad, 2.0]), 3)


# Inputs with many exact distance ties, where the kept-merge set decides the
# cut: every pair ties in eye(12), and the vertices of the 4-cube, 20 unit
# columns over 40 rows and a random 8x16 binary matrix tie in part.
_TIE_INPUTS = {
    "eye12": np.eye(12),
    "4cube": _HYPERCUBE,
    "eye40x20": np.eye(40)[:, :20],
    "binary8x16": np.random.default_rng(0)
    .integers(0, 2, (8, 16))
    .astype(np.float64),
}


class TestCutToK:
    @pytest.fixture()
    def linkage(self):
        rng = np.random.default_rng(4)
        X = _standardized(rng, 25, 8)
        return ward_linkage(feature_distances(X), 8)

    def test_all_singletons(self, linkage):
        assignment = cut_to_k(linkage, 8)
        assert assignment.labels.tolist() == list(range(8))

    def test_single_cluster(self, linkage):
        assignment = cut_to_k(linkage, 1)
        assert assignment.n_clusters == 1
        assert not assignment.labels.any()

    def test_out_of_range(self, linkage):
        for k in (0, 9):
            with pytest.raises(ValueError, match="out of range"):
                cut_to_k(linkage, k)
        for k in (True, 2.5, "2"):
            with pytest.raises(ValueError, match="^k must be an integer"):
                cut_to_k(linkage, k)

    def test_labels_ordered_by_smallest_member(self, linkage):
        for k in range(1, 9):
            labels = cut_to_k(linkage, k).labels
            first_seen = []
            for v in labels:
                if v not in first_seen:
                    first_seen.append(v)
            assert first_seen == sorted(first_seen)

    def test_nested_partitions(self, linkage):
        # every cluster at k must be contained in one cluster at k-1
        for k in range(2, 9):
            fine = cut_to_k(linkage, k).labels
            coarse = cut_to_k(linkage, k - 1).labels
            for cluster in partition_sets(fine):
                parents = {coarse[i] for i in cluster}
                assert len(parents) == 1

    @pytest.mark.parametrize("name", sorted(_TIE_INPUTS))
    def test_cut_groups_match_naive_cut(self, name):
        X = _TIE_INPUTS[name]
        m = X.shape[1]
        linkage = ward_linkage(feature_distances(X), m)
        for k in range(1, m + 1):
            node_ids, groups = _cut_groups(linkage, k)
            expected = sorted(
                naive_cut(linkage, k).items(), key=lambda item: min(item[1])
            )
            assert node_ids == [node for node, _ in expected]
            assert [g.tolist() for g in groups] == [
                sorted(leaves) for _, leaves in expected
            ]

    @pytest.mark.parametrize(
        "name", sorted(_TIE_INPUTS) + ["random30", "random97"]
    )
    def test_cut_groups_equal_one_scan_per_cluster(self, name):
        # The groups as one np.flatnonzero scan per cluster builds them.
        if name.startswith("random"):
            m = int(name[len("random"):])
            X = _standardized(np.random.default_rng(m), 20, m)
        else:
            X = _TIE_INPUTS[name]
            m = X.shape[1]
        linkage = ward_linkage(feature_distances(X), m)
        for k in range(1, m + 1):
            top = list(range(2 * m - 1))
            for i in reversed(range(m - k)):
                top[linkage.left[i]] = top[linkage.right[i]] = top[m + i]
            roots = np.array(top[:m])
            _, first = np.unique(roots, return_index=True)
            expected_ids = roots[np.sort(first)].tolist()
            node_ids, groups = _cut_groups(linkage, k)
            assert node_ids == expected_ids
            assert len(groups) == k
            assert all(type(node) is int for node in node_ids)
            for node, group in zip(node_ids, groups):
                expected = np.flatnonzero(roots == node)
                assert group.dtype == expected.dtype
                assert np.array_equal(group, expected)

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        X = _standardized(rng, 30, 7)
        perm = rng.permutation(7)
        lk_orig = ward_linkage(feature_distances(X), 7)
        lk_perm = ward_linkage(feature_distances(X[:, perm]), 7)
        for k in (2, 3, 5):
            orig = cut_to_k(lk_orig, k).labels
            permuted = cut_to_k(lk_perm, k).labels
            # relabel the permuted clustering back to original column ids
            back = np.empty(7, dtype=np.int64)
            back[perm] = permuted
            assert partition_sets(back) == partition_sets(orig)
