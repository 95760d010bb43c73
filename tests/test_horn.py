import tracemalloc

import numpy as np
import pytest

import sparca
import sparca.evalkit
import sparca.horn
from sparca.data import standardize_apply, standardize_fit
from sparca.horn import (
    _CHUNK_ENTRIES,
    HornParams,
    _null_eigvals,
    _PermutationTable,
    _permutations,
    _sorted_eigvals,
    horn_components,
)

from conftest import block_factor_data, rank1_snr_block
from oracles import horn_null_eigvals, horn_permutation, splitmix64


def _standardize(X):
    return (X - X.mean(axis=0)) / X.std(axis=0)


def _cov_eigvals(x):
    """Descending population-covariance eigenvalues of ``x`` (n, m)."""
    return _sorted_eigvals((x - x.mean(axis=0)).T)


def _centred_t(stack):
    """The centred, transposed ``(K, m, n)`` copy of a ``(K, n, m)`` stack
    that ``horn_components`` hands both spectra."""
    xc = stack - stack.mean(axis=1, keepdims=True)
    return np.ascontiguousarray(xc.swapaxes(1, 2))


def _mc_null_quantiles(x, trials=1000, percentile=95.0, seed=999):
    """Independent Monte-Carlo permutation null (plain numpy Generator)."""
    rng = np.random.default_rng(seed)
    n, m = x.shape
    null = np.empty((trials, m))
    for t in range(trials):
        xp = np.column_stack([x[rng.permutation(n), c] for c in range(m)])
        null[t] = _cov_eigvals(xp)
    return np.percentile(null, percentile, axis=0)


@pytest.mark.parametrize(
    "params", [{}, 0, {"seed": 1}, 3, "seed=1", (20, 95.0, 0)],
    ids=["empty-dict", "zero", "dict", "int", "str", "tuple"],
)
@pytest.mark.parametrize(
    "call",
    [
        lambda x, p: sparca.fit(x, n_clusters=2, horn_params=p),
        lambda x, p: sparca.cf_curve(x, horn_params=p),
        lambda x, p: sparca.evalkit.PcaBaseline.fit(x, horn_params=p),
        lambda x, p: horn_components(x, p),
    ],
    ids=["fit", "cf_curve", "PcaBaseline.fit", "horn_components"],
)
def test_params_that_are_not_horn_params_rejected(call, params):
    # A falsy value used to fall back to HornParams() and fit silently; any
    # other ended in an AttributeError.
    x = rank1_snr_block(40, 4, seed=0)
    with pytest.raises(
        ValueError, match="^Horn parameters must be a HornParams or None"
    ):
        call(x, params)


class TestHornComponents:
    def test_single_column_floor(self):
        x = np.random.default_rng(0).standard_normal((50, 1))
        assert horn_components(x) == 1

    def test_rank_one_block(self):
        x = rank1_snr_block(200, 5, snr=5.0, seed=0)
        # oracle: the top observed eigenvalue clears the 1000-trial null at
        # the 95th percentile and the second does not
        observed = _cov_eigvals(x)
        q95 = _mc_null_quantiles(x)
        assert observed[0] > q95[0]
        assert observed[1] <= q95[1]
        assert horn_components(x, HornParams(seed=0)) == 1

    def test_pure_noise_floor(self):
        rng = np.random.default_rng(42)
        x = _standardize(rng.standard_normal((200, 10)))
        observed = _cov_eigvals(x)
        q95 = _mc_null_quantiles(x)
        assert observed[0] <= q95[0]  # raw count 0; floor applies
        assert horn_components(x, HornParams(seed=0)) == 1

    def test_eight_factor_matrix(self):
        X, _ = block_factor_data(500, seed=0)
        assert horn_components(_standardize(X), HornParams(seed=0)) == 8

    def test_deterministic(self):
        x = rank1_snr_block(150, 6, seed=3)
        params = HornParams(n_repeats=15, percentile=90.0, seed=7)
        assert horn_components(x, params) == horn_components(x, params)

    @pytest.mark.parametrize("seed", range(6))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 20))
        x = rng.standard_normal((n, m))
        h = horn_components(x, HornParams(seed=seed))
        assert 1 <= h <= min(n - 1, m)

    def test_wide_block_uses_gram_path(self):
        rng = np.random.default_rng(8)
        x = _standardize(rng.standard_normal((10, 40)))
        h = horn_components(x, HornParams(seed=1))
        assert 1 <= h <= 9

    @pytest.mark.parametrize("seed", range(20))
    def test_duplicate_factor_column_never_decreases(self, seed):
        x = rank1_snr_block(200, 5, snr=5.0, seed=seed)
        params = HornParams(seed=seed)
        base = horn_components(x, params)
        widened = np.column_stack([x, x[:, 0]])
        assert horn_components(widened, params) >= base

    def test_mean_threshold_via_percentile_50(self):
        x = rank1_snr_block(200, 5, seed=11)
        assert horn_components(x, HornParams(percentile=50.0, seed=0)) >= 1

    def test_trial_count_capped_at_key_width(self):
        # A draw key holds the trial in 20 bits; one trial more used to be
        # accepted here and rejected only when the first null was drawn.
        assert HornParams(n_repeats=2**20).n_repeats == 2**20
        for n_repeats in (2**20 + 1, 2**64):
            with pytest.raises(ValueError, match="^n_repeats must be"):
                HornParams(n_repeats=n_repeats)

    def test_param_validation(self):
        # A float count would fail later, inside the permutation draws.
        for n_repeats in (0, -1, 2.5, 2.0, "3", True):
            with pytest.raises(ValueError, match="n_repeats must be"):
                HornParams(n_repeats=n_repeats)
        with pytest.raises(ValueError):
            HornParams(percentile=0.0)
        with pytest.raises(ValueError):
            HornParams(percentile=101.0)
        for percentile in ("50", float("nan"), None, True):
            with pytest.raises(ValueError, match="percentile must be"):
                HornParams(percentile=percentile)
        # The seed is hashed as a uint64.
        for seed in (-1, 2**64, 1.5, "3", np.int64(-2), True):
            with pytest.raises(ValueError, match="seed must be an integer"):
                HornParams(seed=seed)
        x = rank1_snr_block(40, 4, seed=0)
        assert horn_components(x, HornParams(seed=np.uint64(3))) == (
            horn_components(x, HornParams(seed=3))
        )
        horn_components(x, HornParams(seed=2**64 - 1))
        assert horn_components(x, HornParams(n_repeats=np.int64(5))) == (
            horn_components(x, HornParams(n_repeats=5))
        )

    @pytest.mark.parametrize(
        "trials, n_cols, n_rows",
        [([0], 2, 2**22), ([0], 2**22, 2), ([2**20], 2, 2)],
        ids=["rows", "columns", "trials"],
    )
    def test_stream_aliasing_rejected(self, trials, n_cols, n_rows):
        # Raised before the (trials, n_cols, n_rows) key array is allocated.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2\\*\\*22"):
                _permutations(0, trials, n_cols, n_rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="2 samples"):
            horn_components(np.ones((1, 3)))


class TestPermutationTable:
    def test_narrow_blocks_and_column_ranges_are_slices(self):
        trials = [0, 3, 7]
        full = _permutations(5, trials, 9, 13)
        for c in range(1, 10):
            assert np.array_equal(_permutations(5, trials, c, 13), full[:, :c])
        table = _PermutationTable(HornParams(n_repeats=8, seed=5), 13, 9)
        for c in range(1, 10):
            assert np.array_equal(table.columns(c)[trials], full[:, :c])
        assert table.columns(10) is None

    def test_table_is_filled_in_place(self):
        # The uint16 table of 1000 rows is written block by block, with no
        # intp copy of it: at 20 x 96 x 1000 such a copy alone would be 15 MB.
        params = HornParams(seed=6)
        tracemalloc.start()
        try:
            table = _PermutationTable(params, 1000, 96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.array_equal(
            table.columns(96), _permutations(6, range(20), 96, 1000)
        )

    def test_shared_table_gives_the_same_null(self, monkeypatch):
        # A cap of 12 columns at 8 rows: the 14-column block falls back to
        # per-chunk permutations, in two chunks of 10 trials.
        monkeypatch.setattr(sparca.horn, "_CHUNK_ENTRIES", 20 * 12 * 8)
        monkeypatch.setattr(sparca.horn, "_STACK_ENTRIES", 10 * 14 * 8)
        params = HornParams(seed=4)
        X, _ = block_factor_data(8, seed=2)
        table = _PermutationTable(params, *X.shape)
        # m = 1, m < n, m > n (Gram path), above the cap, then narrower again
        for m in (1, 6, 11, 14, 3):
            x = _standardize(X[:, :m])
            xt = _centred_t(x[None])
            assert np.array_equal(
                _null_eigvals(xt, params, table), _null_eigvals(xt, params)
            )
            assert horn_components(x, params, perms=table) == horn_components(
                x, params
            )
        assert table.columns(13) is None
        assert table._perms.shape == (20, 12, 8)

    @pytest.mark.parametrize(
        "n_rows, dtype",
        [(256, np.uint8), (257, np.uint16), (65536, np.uint16),
         (65537, np.uint32)],
    )
    def test_table_holds_rows_in_the_smallest_type(self, n_rows, dtype):
        table = _PermutationTable(HornParams(n_repeats=2, seed=9), n_rows, 2)
        assert table._perms.dtype == dtype
        assert np.array_equal(
            table.columns(2), _permutations(9, range(2), 2, n_rows)
        )

    def test_mismatched_table_rejected(self):
        x = rank1_snr_block(30, 4, seed=0)
        for table in (
            _PermutationTable(HornParams(seed=1), 30, 4),
            _PermutationTable(HornParams(n_repeats=5), 30, 4),
            _PermutationTable(HornParams(), 31, 4),
        ):
            with pytest.raises(ValueError, match="does not match"):
                horn_components(x, HornParams(), perms=table)

    def test_table_never_exceeds_its_cap(self):
        params = HornParams(n_repeats=2)
        n = 20000
        cap_cols = _CHUNK_ENTRIES // (params.n_repeats * n)
        x = np.random.default_rng(0).standard_normal((n, cap_cols + 1))
        table = _PermutationTable(params, *x.shape)
        assert table._perms.nbytes <= 4 * _CHUNK_ENTRIES
        # The table is a mapping of its own, outside the traced heap, and
        # the Horn calls that read it keep nothing.
        tracemalloc.start()
        try:
            for m in (cap_cols // 2, cap_cols, cap_cols + 1):
                horn_components(x[:, :m], params, perms=table)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert table._perms.shape[1] == cap_cols
        assert retained < 1 << 16


class TestNullOracle:
    def test_permutations_equal_stable_argsort_of_the_keys(self):
        # Keys within a row are distinct, so any correct sort agrees with
        # the stable one; 1000 rows take numpy's large-array sort paths.
        for trials, n_cols, n_rows in [(range(4), 5, 23), ([0, 9], 2, 1000)]:
            perms = _permutations(7, trials, n_cols, n_rows)
            for i, t in enumerate(trials):
                for c in range(n_cols):
                    expected = horn_permutation(7, t, c, n_rows)
                    assert np.array_equal(perms[i, c], expected)

    @pytest.mark.parametrize("n, m", [(30, 6), (9, 14)], ids=["cov", "gram"])
    def test_null_eigvals_match_oracle(self, n, m):
        params = HornParams(seed=3)
        x = _standardize(block_factor_data(n, seed=1)[0][:, :m])
        expected = horn_null_eigvals(x, params.seed, params.n_repeats)
        self._assert_close(
            _null_eigvals(_centred_t(x[None]), params)[0], expected, n
        )

    def test_block_wider_than_the_table_matches_oracle(self, monkeypatch):
        # A cap of 12 columns at 8 rows: the 14-column block permutes per
        # chunk of trials, outside the table, in two chunks of 10 trials.
        monkeypatch.setattr(sparca.horn, "_CHUNK_ENTRIES", 20 * 12 * 8)
        monkeypatch.setattr(sparca.horn, "_STACK_ENTRIES", 10 * 14 * 8)
        params = HornParams(seed=4)
        x = _standardize(block_factor_data(8, seed=2)[0][:, :14])
        table = _PermutationTable(params, *x.shape)
        assert table.columns(14) is None
        expected = horn_null_eigvals(x, params.seed, params.n_repeats)
        self._assert_close(
            _null_eigvals(_centred_t(x[None]), params, table)[0],
            expected,
            x.shape[0],
        )

    @staticmethod
    def _assert_close(got, expected, n):
        """``got`` holds the first ``min(m, n)`` of the oracle's ``m``
        ranks, and the oracle's other ranks are zero."""
        ranks = min(expected.shape[-1], n)
        assert got.shape == expected.shape[:-1] + (ranks,)
        # Ranks beyond the data rank are exact zeros here and rounding
        # noise in the oracle, so they are judged against the top value.
        atol = 1e-10 * expected.max()
        np.testing.assert_allclose(
            got, expected[..., :ranks], rtol=1e-10, atol=atol
        )
        np.testing.assert_allclose(expected[..., ranks:], 0.0, atol=atol)


@pytest.mark.parametrize("n, m", [(40, 6), (6, 40), (7, 7)])
@pytest.mark.parametrize("layout", ["C", "F"])
def test_stacked_eigvals_equal_per_matrix_calls(n, m, layout):
    x = np.random.default_rng(n * m).standard_normal((5, m, n))
    # "C": the null's (t, m, n) copies. "F": transposed views of C-ordered
    # (n, m) blocks, the layout of the observed side.
    if layout == "F":
        x = np.ascontiguousarray(x.swapaxes(1, 2)).swapaxes(1, 2)
    per_matrix = np.stack([_sorted_eigvals(xi) for xi in x])
    assert np.array_equal(_sorted_eigvals(x), per_matrix)


def _stack(n, m, k, seed):
    """``k`` standardized ``(n, m)`` blocks of factor data, as one stack."""
    X, _ = block_factor_data(n, seed=seed)
    Xs = standardize_apply(standardize_fit(X), X)
    return np.stack([Xs[:, 5 * i : 5 * i + m] for i in range(k)])


def _oracle_count(x, params):
    """Horn's count of block ``x`` from the oracle's full ``m``-rank
    spectra, observed and null."""
    n, m = x.shape
    null = horn_null_eigvals(x, params.seed, params.n_repeats)
    thresholds = np.percentile(null, params.percentile, axis=0)
    observed = np.linalg.eigvalsh(np.cov(x, rowvar=False, bias=True))[::-1]
    exceeds = observed > thresholds
    h = m if exceeds.all() else int(np.argmin(exceeds))
    return max(1, min(h, n - 1, m))


class TestStacks:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize(
        "n, m, cap",
        [(30, 6, None), (9, 14, None), (30, 1, None), (8, 14, 12)],
        ids=["cov", "gram", "single", "wider-than-table"],
    )
    def test_stacked_counts_equal_blocks_and_oracle(
        self, monkeypatch, k, n, m, cap
    ):
        # "wider-than-table": a cap of 12 columns at 8 rows, so the
        # 14-column blocks permute per chunk of trials, outside the table.
        if cap is not None:
            monkeypatch.setattr(sparca.horn, "_CHUNK_ENTRIES", 20 * cap * n)
        params = HornParams(seed=4)
        stack = _stack(n, m, k, seed=2)
        table = _PermutationTable(params, n, m)
        counts = horn_components(stack, params, perms=table)
        assert counts == horn_components(stack, params)
        assert counts == [horn_components(x, params) for x in stack]
        if m == 1:
            assert counts == [1] * k
            return
        assert counts == [_oracle_count(x, params) for x in stack]
        null = _null_eigvals(_centred_t(stack), params, table)
        for x, got in zip(stack, null):
            expected = horn_null_eigvals(x, params.seed, params.n_repeats)
            TestNullOracle._assert_close(got, expected, n)

    @pytest.mark.parametrize("shared", [False, True], ids=["own", "table"])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("m", [8, 9, 10, 18])
    def test_spectra_stop_at_the_data_rank(self, m, k, shared):
        # Nine rows, and blocks on both sides of m = n: the spectra have
        # min(m, n) ranks, and the counts still match the oracle's, read
        # from m ranks. Factor blocks at the 95th percentile count 1 or 2;
        # noise at the 1st reaches the cap n - 1 for m = 9, 10 and 18,
        # where every rank up to the data rank n - 1 beats its null.
        n = 9
        noise = np.random.default_rng(1).standard_normal((k, n, m))
        for stack, params in [
            (_stack(n, m, k, seed=2), HornParams(seed=4)),
            (noise, HornParams(seed=4, percentile=1.0)),
        ]:
            table = _PermutationTable(params, n, m) if shared else None
            counts = horn_components(stack, params, perms=table)
            assert counts == [_oracle_count(x, params) for x in stack]
            if k == 1:
                single = horn_components(stack[0], params, perms=table)
                assert single == counts[0]
            xt = _centred_t(stack)
            null = _null_eigvals(xt, params, table)
            assert null.shape == (k, params.n_repeats, min(m, n))
            # The observed spectrum reads the contiguous transposed copy;
            # it is that of the strided view of the centred stack, bit for
            # bit.
            xc = stack - stack.mean(axis=1, keepdims=True)
            assert np.array_equal(
                _sorted_eigvals(xt), _sorted_eigvals(xc.swapaxes(1, 2))
            )
        if m > 8:
            assert counts[0] == n - 1  # the noise stack's, counted last

    def test_stack_input_validated(self):
        stack = _stack(30, 4, 2, seed=0)
        with pytest.raises(ValueError, match="at least one block"):
            horn_components(stack[:0])
        bad = stack.copy()
        bad[1, 3, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            horn_components(bad)
        with pytest.raises(ValueError, match="2 samples"):
            horn_components(stack[:, :1])
        with pytest.raises(ValueError, match="2-dimensional"):
            horn_components(stack[None])

    def test_permuted_copies_stay_within_the_stack_budget(self, monkeypatch):
        # Unchunked, the permuted copies of this stack would take 50 * 20 *
        # 4 * 1000 entries, 32 MB; the budget allows 2 blocks of all trials.
        budget = 2 * 20 * 4 * 1000
        monkeypatch.setattr(sparca.horn, "_STACK_ENTRIES", budget)
        params = HornParams(seed=1)
        stack = np.ascontiguousarray(
            np.random.default_rng(0).standard_normal((50, 1000, 4))
        )
        table = _PermutationTable(params, 1000, 4)
        tracemalloc.start()
        try:
            counts = horn_components(stack, params, perms=table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The centred stack and its transposed copy, and one buffer of
        # permuted copies that every chunk reuses.
        assert peak < 2 * stack.nbytes + 8 * budget + (1 << 20)
        assert counts == [horn_components(x, params) for x in stack]

    @pytest.mark.parametrize("shared", [False, True], ids=["own", "table"])
    @pytest.mark.parametrize(
        "n, m, cap",
        [(30, 6, None), (9, 14, None), (8, 14, 12)],
        ids=["cov", "gram", "wider-than-table"],
    )
    def test_null_is_the_same_at_any_budget(
        self, monkeypatch, n, m, cap, shared
    ):
        # Budget 1 takes one trial of one block per chunk, as does n * m,
        # the smallest budget that fits a block; 3 * n * m takes chunks of
        # 3 trials, 40 * n * m all 20 trials of 2 blocks, and the default
        # the whole stack at once. Every chunking gives the same bits.
        if cap is not None:
            monkeypatch.setattr(sparca.horn, "_CHUNK_ENTRIES", 20 * cap * n)
        params = HornParams(seed=4)
        xt = _centred_t(_stack(n, m, 3, seed=2))
        table = _PermutationTable(params, n, m) if shared else None
        expected = _null_eigvals(xt, params, table)
        for budget in (1, n * m, 3 * n * m, 40 * n * m):
            monkeypatch.setattr(sparca.horn, "_STACK_ENTRIES", budget)
            assert np.array_equal(_null_eigvals(xt, params, table), expected)

    @pytest.mark.parametrize("shared", [False, True], ids=["own", "table"])
    def test_working_set_stays_within_the_budget(self, shared):
        # All 20 permuted copies of this block would take 32 MB; a chunk
        # holds one budget of copies and one of their offsets.
        params = HornParams(seed=5)
        block = _standardize(
            np.random.default_rng(3).standard_normal((2000, 100))
        )
        table = _PermutationTable(params, *block.shape) if shared else None
        tracemalloc.start()
        try:
            horn_components(block, params, perms=table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = 2 * 8 * sparca.horn._STACK_ENTRIES
        assert peak < 2 * block.nbytes + budget + (1 << 20)


class TestPackedSort:
    # Seed 2**22 - 1 flips every row bit of the packed values. Under an
    # identity hash the keys of a stream are then ``c << 22 | (2**22 - 1 -
    # row)``: distinct, their high parts all tied, and in descending row
    # order, the reverse of the order a tie broken by row index gives.
    SEED = (1 << 22) - 1

    @staticmethod
    def _keys(t, c, n_rows):
        packed = [
            (t << 44 | c << 22 | row) ^ TestPackedSort.SEED
            for row in range(n_rows)
        ]
        if c % 2 == 1:
            packed = [splitmix64(z) for z in packed]
        return np.array(packed, dtype=np.uint64)

    @pytest.mark.parametrize("n_rows", [23, 1000])
    def test_tied_streams_fall_back_to_the_full_keys(
        self, monkeypatch, n_rows
    ):
        real = sparca.horn._mix64

        def odd_columns_only(z):
            # Odd columns are hashed; even columns (and the seed) are not.
            odd = (z >> np.uint64(22)) & np.uint64(1) == 1
            z[odd] = real(z[odd])
            return z

        monkeypatch.setattr(sparca.horn, "_mix64", odd_columns_only)
        trials = [0, 5]
        perms = _permutations(self.SEED, trials, 4, n_rows)
        for i, t in enumerate(trials):
            for c in range(4):
                expected = np.argsort(self._keys(t, c, n_rows), kind="stable")
                assert np.array_equal(perms[i, c], expected)
            assert np.array_equal(perms[i, 0], np.arange(n_rows)[::-1])
