import numpy as np
import pytest

from sparca.data import standardize_apply, standardize_fit
from sparca.omp import omp_fit

from oracles import minimal_support_size, omp_reference_path


def _standardized(rng, n, m):
    X = rng.standard_normal((n, m))
    return standardize_apply(standardize_fit(X), X)


def _noisy_mix(seed=0, n=60, n_atoms=4):
    rng = np.random.default_rng(seed)
    D = _standardized(rng, n, n_atoms)
    target = 0.8 * D[:, 0] + 0.2 * D[:, 2] + 0.02 * rng.standard_normal(n)
    return D, target


class TestOmpFit:
    def test_single_atom_identity(self):
        rng = np.random.default_rng(0)
        D = _standardized(rng, 30, 5)
        comp = omp_fit(D, D[:, 3].copy(), 0.95)
        assert comp.entries == ((3, pytest.approx(1.0, abs=1e-12)),)
        assert comp.achieved_evr == pytest.approx(1.0, abs=1e-12)
        assert not comp.full_support

    def test_matches_reference_path(self):
        D, target = _noisy_mix(seed=1)
        comp = omp_fit(D, target, 0.9)
        steps, ref_weights = omp_reference_path(D, target, 0.9)
        ref_selected = [j for j, _, _ in steps]
        assert sorted(ref_selected) == comp.feature_indices.tolist()
        # weights agree with the naive joint least-squares refit
        by_index = dict(zip(ref_selected, ref_weights))
        for idx, weight in comp.entries:
            assert np.isclose(weight, by_index[idx], atol=1e-8)
        assert np.isclose(comp.achieved_evr, steps[-1][2], atol=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_reference_path_randomized(self, seed):
        rng = np.random.default_rng(100 + seed)
        D = _standardized(rng, 40, int(rng.integers(3, 9)))
        weights = rng.standard_normal(D.shape[1]) * (rng.random(D.shape[1]) < 0.6)
        if not weights.any():
            weights[0] = 1.0
        target = D @ weights + 0.05 * rng.standard_normal(40)
        f = float(rng.uniform(0.7, 0.99))
        comp = omp_fit(D, target, f)
        steps, _ = omp_reference_path(D, target, f)
        assert sorted(j for j, _, _ in steps) == comp.feature_indices.tolist()
        # per-step residuals of the reference match a re-run of ours by EVR
        assert np.isclose(comp.achieved_evr, steps[-1][2], atol=1e-8)
        assert comp.full_support == (comp.achieved_evr < f)

    def test_duplicate_atom_never_selected(self):
        rng = np.random.default_rng(2)
        base = _standardized(rng, 50, 3)
        D = np.column_stack([base, base[:, 1]])  # atoms 1 and 3 identical
        target = 0.7 * base[:, 1] + 0.1 * base[:, 0] + 0.05 * base[:, 2]
        comp = omp_fit(D, target, 1.0)
        indices = comp.feature_indices.tolist()
        assert not {1, 3}.issubset(indices)

    def test_duplicated_column_is_rejected_as_collinear(self):
        # The copy of atom 0 is picked once atoms 0 and 1 are spent, found
        # collinear with them, and dropped: the fit is the one without it.
        rng = np.random.default_rng(3)
        base = _standardized(rng, 40, 3)
        D = np.column_stack([base[:, 0], base[:, 1], base[:, 0]])
        target = base.sum(axis=1)
        comp = omp_fit(D, target, 1.0)
        alone = omp_fit(D[:, :2], target, 1.0)
        assert comp.entries == alone.entries
        assert comp.achieved_evr == alone.achieved_evr < 1.0
        assert comp.full_support

    def test_residual_orthogonal_to_selection(self):
        D, target = _noisy_mix(seed=3)
        comp = omp_fit(D, target, 0.9)
        support = comp.feature_indices
        residual = target - D[:, support] @ comp.weights
        assert np.abs(D[:, support].T @ residual).max() < 1e-8

    def test_evr_nondecreasing_along_path(self):
        D, target = _noisy_mix(seed=4)
        steps, _ = omp_reference_path(D, target, 1.0)
        evrs = [evr for _, _, evr in steps]
        assert all(b >= a - 1e-12 for a, b in zip(evrs, evrs[1:]))

    def test_support_minimal_along_greedy_path(self):
        D, target = _noisy_mix(seed=5)
        f = 0.9
        comp = omp_fit(D, target, f)
        if comp.support_size > 1 and comp.support_size < D.shape[1]:
            steps, _ = omp_reference_path(D, target, f)
            selected = [j for j, _, _ in steps]
            trimmed = selected[:-1]
            w, *_ = np.linalg.lstsq(D[:, trimmed], target, rcond=None)
            residual = target - D[:, trimmed] @ w
            centered = target - target.mean()
            evr = 1.0 - float(residual @ residual) / float(centered @ centered)
            assert evr < f

    @pytest.mark.parametrize("seed", range(6))
    def test_greedy_never_beats_exhaustive(self, seed):
        rng = np.random.default_rng(200 + seed)
        D = _standardized(rng, 30, 7)
        target = D @ rng.standard_normal(7) + 0.1 * rng.standard_normal(30)
        f = 0.9
        comp = omp_fit(D, target, f)
        optimum = minimal_support_size(D, target, f)
        assert comp.support_size >= optimum

    def test_exhaustion_flags_full_support(self):
        rng = np.random.default_rng(6)
        D = _standardized(rng, 40, 3)
        # a random 40-vector lies outside the 3-atom span, so the threshold
        # is unreachable and every atom gets used
        outside = rng.standard_normal(40)
        comp = omp_fit(D, outside, 0.999)
        assert comp.achieved_evr < 0.999
        assert comp.full_support
        assert comp.support_size == 3

    def test_global_feature_indices(self):
        D, target = _noisy_mix(seed=7)
        comp = omp_fit(
            D, target, 0.9, feature_indices=[10, 20, 30, 40], cluster=2, rank=1
        )
        assert set(comp.feature_indices) <= {10, 20, 30, 40}
        assert comp.source == (2, 1)
        assert (np.diff(comp.feature_indices) > 0).all()

    def test_errors(self):
        rng = np.random.default_rng(8)
        D = _standardized(rng, 20, 3)
        with pytest.raises(ValueError, match="no variance"):
            omp_fit(D, np.zeros(20), 0.9)
        with pytest.raises(ValueError, match="no variance"):
            omp_fit(D, np.full(20, 3.0), 0.9)
        with pytest.raises(ValueError, match="variance_threshold"):
            omp_fit(D, D[:, 0], 0.0)
        with pytest.raises(ValueError, match="variance_threshold"):
            omp_fit(D, D[:, 0], 1.5)
        for threshold in ("0.9", float("nan"), None, True):
            with pytest.raises(ValueError, match="variance_threshold"):
                omp_fit(D, D[:, 0], threshold)
        # An int64 cast would truncate [0.5, 1.7, 2.2] to [0, 1, 2].
        for indices in ([0.5, 1.7, 2.2], [True, False, True], [0, -1, 2]):
            with pytest.raises(ValueError, match="^feature_indices must be"):
                omp_fit(D, D[:, 0], 0.9, feature_indices=indices)
        for name in ("cluster", "rank"):
            for value in (1.5, True, -1, "1"):
                with pytest.raises(ValueError, match=f"^{name} must be an"):
                    omp_fit(D, D[:, 0], 0.9, **{name: value})
        with pytest.raises(ValueError, match="^target length does not match"):
            omp_fit(D, D[:-1, 0], 0.9)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^target contains NaN or"):
                omp_fit(D, np.r_[D[:-1, 0], bad], 0.9)
        with pytest.raises(ValueError, match="^feature_indices length does"):
            omp_fit(D, D[:, 0], 0.9, feature_indices=[4, 7])
        with pytest.raises(ValueError, match="^dictionary has no usable"):
            omp_fit(np.zeros_like(D), D[:, 0], 0.9)
