import tracemalloc

import numpy as np
import pytest

from sparca.horn import (
    HornParams,
    _permutations,
    _sorted_eigvals,
    horn_components,
)

from conftest import block_factor_data, rank1_snr_block


def _standardize(X):
    return (X - X.mean(axis=0)) / X.std(axis=0)


def _mc_null_quantiles(x, trials=1000, percentile=95.0, seed=999):
    """Independent Monte-Carlo permutation null (plain numpy Generator)."""
    rng = np.random.default_rng(seed)
    n, m = x.shape
    null = np.empty((trials, m))
    for t in range(trials):
        xp = np.column_stack([x[rng.permutation(n), c] for c in range(m)])
        null[t] = _sorted_eigvals(xp)
    return np.percentile(null, percentile, axis=0)


class TestHornComponents:
    def test_single_column_floor(self):
        x = np.random.default_rng(0).standard_normal((50, 1))
        assert horn_components(x) == 1

    def test_rank_one_block(self):
        x = rank1_snr_block(200, 5, snr=5.0, seed=0)
        # oracle: the top observed eigenvalue clears the 1000-trial null at
        # the 95th percentile and the second does not
        observed = _sorted_eigvals(x)
        q95 = _mc_null_quantiles(x)
        assert observed[0] > q95[0]
        assert observed[1] <= q95[1]
        assert horn_components(x, HornParams(seed=0)) == 1

    def test_pure_noise_floor(self):
        rng = np.random.default_rng(42)
        x = _standardize(rng.standard_normal((200, 10)))
        observed = _sorted_eigvals(x)
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

    def test_param_validation(self):
        with pytest.raises(ValueError):
            HornParams(n_repeats=0)
        with pytest.raises(ValueError):
            HornParams(percentile=0.0)
        with pytest.raises(ValueError):
            HornParams(percentile=101.0)

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
