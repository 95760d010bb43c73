import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import sparca.cfcurve
import sparca.pipeline
from sparca.cfcurve import (
    GRID_POINTS,
    SMOOTHING_WINDOW,
    CfCurve,
    cf_curve,
    default_grid,
)
from sparca.cluster import _cut_groups, feature_distances, ward_linkage
from sparca.data import standardize_apply, standardize_fit
from sparca.horn import HornParams, horn_components

import oracles
from conftest import block_factor_data


class TestSelectClusters:
    def test_flat_plateau_then_unit_tail(self):
        # derivative is 0 on the plateau and 1 on the tail; the tie over the
        # plateau resolves to the smallest cluster count
        curve = CfCurve.from_points(
            [2, 4, 6, 8, 10, 12], [8, 8, 8, 8, 10, 12]
        )
        assert curve.selected == 2

    def test_monotone_decreasing_slope(self):
        # concave growth with no plateau: the minimum slope sits at the end,
        # and the anchored smoothing window ties the last two points, so the
        # smallest of them (the last interior point) wins
        curve = CfCurve.from_points([1, 2, 3, 4, 5], [0, 10, 17, 21, 23])
        assert curve.selected == 4

    @pytest.mark.parametrize(
        "ks, fs, name",
        [
            ([1.5, 2.7, 3.2], [1, 2, 3], "n_clusters"),
            ([True, 2, 3], [1, 2, 3], "n_clusters"),
            ([1, 2, 3], [1, 2.5, 3], "n_features"),
            ([1, 2, 3], ["1", 2, 3], "n_features"),
        ],
        ids=["float-counts", "bool-count", "float-features", "text-feature"],
    )
    def test_non_integer_points_rejected(self, ks, fs, name):
        # An int64 cast would truncate 1.5 to 1 and read True as 1.
        with pytest.raises(ValueError, match=f"^{name} must be integers"):
            CfCurve.from_points(ks, fs)

    @pytest.mark.parametrize(
        "ks, fs, message",
        [
            ([1, 2, 3], [1, 2], "need matching, non-empty grids"),
            ([], [], "need matching, non-empty grids"),
            ([1, 3, 2], [1, 2, 3], "cluster grid must be strictly increasing"),
            ([1, 2, 2], [1, 2, 3], "cluster grid must be strictly increasing"),
        ],
        ids=["mismatched", "empty", "unsorted", "repeated"],
    )
    def test_bad_grids_rejected(self, ks, fs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CfCurve.from_points(ks, fs)

    def test_derivative_stencil(self):
        curve = CfCurve.from_points([1, 2, 4, 8], [1, 3, 4, 12])
        # one-sided at the ends, central (non-uniform) inside
        assert np.allclose(
            curve.derivative,
            [2.0, (4 - 1) / (4 - 1), (12 - 3) / (8 - 2), (12 - 4) / (8 - 4)],
        )

    def test_every_grid_size_matches_the_loop_reference(self):
        # Curves of 1-60 points whose feature counts rise, stay flat and
        # fall, so derivatives and smoothed derivatives tie.
        rng = np.random.default_rng(20230221)
        for size in np.tile(np.arange(1, 61), 9):
            ks = np.sort(rng.choice(np.arange(1, 400), size, replace=False))
            steps = rng.choice([-1, 0, 0, 0, 1, 2, 5], size)
            fs = 40 + np.cumsum(steps)
            curve = CfCurve.from_points(ks, fs)
            expected = oracles.cf_derivative(ks, fs)
            assert curve.derivative.tobytes() == expected.tobytes()
            assert curve.selected == oracles.plateau_start(
                ks, expected, SMOOTHING_WINDOW
            )

    @pytest.mark.parametrize(
        "ks, fs", [([5], [3]), ([2, 9], [4, 1]), ([2, 9], [1, 4])],
        ids=["one", "two-falling", "two-rising"],
    )
    def test_short_grids_select_their_first_value(self, ks, fs):
        # The clamped window covers the whole grid, so every smoothed value
        # ties and argmin takes the first.
        assert CfCurve.from_points(ks, fs).selected == ks[0]


@pytest.fixture(scope="module")
def block_data():
    X, _ = block_factor_data(400, seed=1)
    return X


class TestCfCurve:
    def test_singleton_tail_point(self, block_data):
        m = block_data.shape[1]
        curve = cf_curve(
            block_data, grid=[4, m // 2, m], horn_params=HornParams(seed=0)
        )
        assert curve.points[-1] == (m, m)

    def test_block_structure(self, block_data):
        m = block_data.shape[1]
        grid = [2, 4, 8, 12, 20, 40, m]
        curve = cf_curve(block_data, grid=grid, horn_params=HornParams(seed=0))
        by_k = dict(curve.points)
        # plateau at the true factor count for cuts at or below 8 blocks
        assert by_k[2] == 8
        assert by_k[4] == 8
        assert by_k[8] == 8
        # tail: each extra cluster splits a block and adds one feature
        assert by_k[12] == 12
        assert by_k[40] == 40
        assert by_k[m] == m
        assert by_k[curve.selected] == 8

    def test_single_point_grid(self, block_data):
        curve = cf_curve(block_data, grid=[1], horn_params=HornParams(seed=0))
        assert curve.points == [(1, 8)]
        assert curve.selected == 1

    def test_deterministic_per_seed(self, block_data):
        a = cf_curve(block_data, grid=[2, 8, 30], horn_params=HornParams(seed=3))
        b = cf_curve(block_data, grid=[2, 8, 30], horn_params=HornParams(seed=3))
        assert np.array_equal(a.n_features, b.n_features)
        assert a.selected == b.selected

    def test_subsample_stability(self):
        selected = []
        for n in (200, 500, 1000):
            X, _ = block_factor_data(n, seed=7)
            curve = cf_curve(X, horn_params=HornParams(seed=0))
            selected.append(curve.selected)
            assert dict(curve.points)[curve.selected] == 8
        assert len(set(selected)) == 1

    def test_affine_feature_rescaling_invariance(self, block_data):
        scaled = block_data.copy()
        scaled[:, 11] = scaled[:, 11] * 3.5 + 7.0
        grid = [2, 8, 20, 80]
        a = cf_curve(block_data, grid=grid, horn_params=HornParams(seed=0))
        b = cf_curve(scaled, grid=grid, horn_params=HornParams(seed=0))
        assert np.array_equal(a.n_features, b.n_features)
        assert a.selected == b.selected

    def test_grid_validation(self, block_data):
        with pytest.raises(ValueError, match="increasing"):
            cf_curve(block_data, grid=[4, 4, 8])
        with pytest.raises(ValueError, match="lie in"):
            cf_curve(block_data, grid=[0, 4])
        with pytest.raises(ValueError, match="lie in"):
            cf_curve(block_data, grid=[2, 2000])
        with pytest.raises(ValueError, match="^grid is empty$"):
            cf_curve(block_data, grid=[])

    def test_bad_cuts_rejected_before_ward(self, block_data, monkeypatch):
        def no_ward(d, m):
            raise AssertionError("Ward ran before the cut was checked")

        monkeypatch.setattr(sparca.cfcurve, "ward_linkage", no_ward)
        with pytest.raises(ValueError, match="lie in"):
            cf_curve(block_data, grid=[2, 2000])
        with pytest.raises(ValueError, match="out of range"):
            sparca.pipeline.fit(block_data, n_clusters=2000)

    def test_non_integer_cuts_rejected_before_ward(
        self, block_data, monkeypatch
    ):
        def no_ward(d, m):
            raise AssertionError("Ward ran before the cut was checked")

        monkeypatch.setattr(sparca.cfcurve, "ward_linkage", no_ward)
        # np.asarray would read [True, 2, 3] as [1, 2, 3].
        for grid in ([1.5, 2.7, 3.2], [True, 2, 3], [np.True_, 2], [1, "2"]):
            with pytest.raises(
                ValueError, match="grid values must be integers"
            ):
                cf_curve(block_data, grid=grid)
        # Floats are no cluster counts, as for fit's n_clusters below.
        for grid in ([2.0, 8.0], np.array([2.0, 8.0])):
            with pytest.raises(
                ValueError, match="grid values must be integers"
            ):
                cf_curve(block_data, grid=grid)
        for k in (2.5, 2.0, "2"):
            with pytest.raises(ValueError, match="must be an integer"):
                sparca.pipeline.fit(block_data, n_clusters=k)
        monkeypatch.undo()
        # numpy integers are integers.
        horn = HornParams(seed=0)
        curve = cf_curve(block_data, grid=[2, 8, 30], horn_params=horn)
        same = cf_curve(
            block_data, grid=np.array([2, 8, 30], np.int32), horn_params=horn
        )
        assert np.array_equal(curve.n_features, same.n_features)
        model = sparca.pipeline.fit(
            block_data, n_clusters=np.int64(8), horn_params=horn
        )
        assert model.n_clusters == 8

    def test_bad_cut_counts_rejected_before_ward(
        self, block_data, monkeypatch
    ):
        # int() used to read [2.5, True] as cuts of 2 and 1 clusters.
        def no_ward(d, m):
            raise AssertionError("Ward ran before the counts were checked")

        monkeypatch.setattr(sparca.cfcurve, "ward_linkage", no_ward)
        tree = sparca.cfcurve.FeatureTree(block_data, n_threads=1)
        for ks in ([2.5], [True], [0], [2.0]):
            with pytest.raises(ValueError, match="^ks must be integers >= 1"):
                tree.cuts(ks)
        monkeypatch.undo()
        cuts = tree.cuts(np.array([2, 8], np.int64))
        assert [len(groups) for groups, _ in cuts] == [2, 8]

    def test_threads_do_not_change_result(self, block_data):
        # Every node's count, stacked with others of its width on any
        # thread, is the count it gets alone.
        params = HornParams(seed=5)
        grid = [2, 3, 5, 8, 13, 21, 34, 55, 80]
        one, two = (
            sparca.cfcurve.FeatureTree(block_data, params, n_threads).cuts(grid)
            for n_threads in (1, 2)
        )
        Xs = standardize_apply(standardize_fit(block_data), block_data)
        for (groups, counts), (groups2, counts2) in zip(one, two):
            assert [g.tolist() for g in groups] == [g.tolist() for g in groups2]
            assert counts == counts2 == [
                horn_components(Xs[:, cols], params) for cols in groups
            ]

    def test_horn_runs_once_per_distinct_node(self, block_data, monkeypatch):
        grid = [2, 4, 8, 12, 20, 40]
        Xs = standardize_apply(standardize_fit(block_data), block_data)
        linkage = ward_linkage(feature_distances(Xs), Xs.shape[1])
        nodes = {
            node for k in grid for node in _cut_groups(linkage, k)[0]
        }
        blocks = []
        horn = sparca.cfcurve.horn_components

        def recording_horn(x, params, **kwargs):
            # Each call gets one width class of new nodes as a stack.
            assert x.ndim == 3
            blocks.extend(block.tobytes() for block in x)
            return horn(x, params, **kwargs)

        monkeypatch.setattr(sparca.cfcurve, "horn_components", recording_horn)
        cf_curve(block_data, grid=grid, n_threads=1)
        assert len(blocks) == len(set(blocks)) == len(nodes)

    def test_each_cut_sizes_its_own_table(self, monkeypatch):
        # A cap of 10 columns at 60 rows: the first call's table is narrower
        # than the cap, and the coarse cut's widest nodes exceed the cap and
        # fall back to per-chunk permutations.
        monkeypatch.setattr(sparca.horn, "_CHUNK_ENTRIES", 20 * 60 * 10)
        widths = []
        table = sparca.cfcurve._PermutationTable

        def recording_table(params, n_rows, n_cols):
            built = table(params, n_rows, n_cols)
            widths.append(built._perms.shape[1])
            return built

        monkeypatch.setattr(sparca.cfcurve, "_PermutationTable", recording_table)
        X, _ = block_factor_data(60, n_blocks=4, block_size=8, seed=4)
        params = HornParams(seed=2)
        tree = sparca.cfcurve.FeatureTree(X, params, n_threads=2)
        for ks in ([12, 16], [2]):
            for groups, counts in tree.cuts(ks):
                assert counts == [
                    horn_components(tree.Xs[:, cols], params) for cols in groups
                ]
        assert max(map(len, groups)) > 10
        assert widths[0] < widths[1] == 10

    @pytest.mark.parametrize("n_threads", [0, -3, 1.5, "2", True])
    def test_thread_count_below_one_rejected(
        self, block_data, monkeypatch, n_threads
    ):
        def no_work(X):
            raise AssertionError("standardized before rejecting n_threads")

        monkeypatch.setattr(sparca.cfcurve, "standardize_fit", no_work)
        if type(n_threads) is int:
            message = "n_threads must be at least 1"
        else:
            message = "n_threads must be an integer"
        with pytest.raises(ValueError, match=message):
            cf_curve(block_data, n_threads=n_threads)
        with pytest.raises(ValueError, match=message):
            sparca.pipeline.fit(block_data, n_threads=n_threads)

    def test_default_workers_are_the_usable_cpus(self, block_data, monkeypatch):
        # One CPU in the affinity set of a 64-core machine runs no pool.
        def no_pool(*args, **kwargs):
            raise AssertionError("started a pool on one usable CPU")

        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(ThreadPoolExecutor, "__init__", no_pool)
        curve = cf_curve(block_data)
        assert curve.points == cf_curve(block_data, n_threads=1).points

    @pytest.mark.parametrize("cores, usable", [(3, 3), (None, 1)])
    def test_usable_cpus_without_an_affinity_set(
        self, monkeypatch, cores, usable
    ):
        # Where the OS has no affinity call, the core count decides.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        assert sparca.cfcurve._usable_cpus() == usable


class TestDefaultGrid:
    def test_includes_endpoint_and_range(self):
        grid = default_grid(80)
        assert grid[0] == 2
        assert grid[-1] == 80
        assert (np.diff(grid) > 0).all()
        assert grid.size <= 40

    @pytest.mark.parametrize("n_features", [True, 10.5, "10"])
    def test_non_integer_feature_count_rejected(self, n_features):
        with pytest.raises(ValueError, match="^n_features must be an integer"):
            default_grid(n_features)

    def test_tiny_feature_counts(self):
        assert default_grid(1).tolist() == [1]
        assert default_grid(2).tolist() == [2]
        assert default_grid(3)[-1] == 3

    def test_matches_the_reference_formula(self):
        # np.geomspace returns both endpoints exactly, so the reference's
        # endpoint fix-up and second deduplication never change a grid.
        for n in range(1, 5001):
            expected = oracles.default_grid(n, GRID_POINTS)
            got = default_grid(n)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected), n
