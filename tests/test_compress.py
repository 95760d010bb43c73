import numpy as np
import pytest

from sparca.compress import pca_fit
from sparca.data import standardize_apply, standardize_fit


def _standardized(rng, n, m):
    X = rng.standard_normal((n, m))
    return standardize_apply(standardize_fit(X), X)


class TestPcaFit:
    def test_single_column(self):
        rng = np.random.default_rng(0)
        x = _standardized(rng, 40, 1)
        pca = pca_fit(x, 1)
        assert np.allclose(pca.loadings, [[1.0]])
        assert np.allclose(pca.scores[:, 0], x[:, 0])
        assert np.isclose(pca.eigenvalues[0], 1.0)  # unit-variance column

    def test_perfectly_correlated_pair(self):
        rng = np.random.default_rng(1)
        col = rng.standard_normal(60)
        x = np.column_stack([col, col])
        x = standardize_apply(standardize_fit(x), x)
        pca = pca_fit(x, 1)
        assert np.allclose(pca.loadings[:, 0], np.full(2, 1 / np.sqrt(2)))
        assert np.isclose(pca.eigenvalues[0], 2.0)

    def test_matches_covariance_eigendecomposition(self):
        rng = np.random.default_rng(2)
        x = _standardized(rng, 30, 6)
        pca = pca_fit(x, 3)
        cov = x.T @ x / x.shape[0]
        w, v = np.linalg.eigh(cov)
        w, v = w[::-1], v[:, ::-1]
        assert np.allclose(pca.eigenvalues, w[:3], atol=1e-8)
        assert np.allclose(np.abs(pca.loadings), np.abs(v[:, :3]), atol=1e-8)

    def test_orthonormal_loadings_and_score_variance(self):
        rng = np.random.default_rng(3)
        x = _standardized(rng, 50, 8)
        pca = pca_fit(x, 4)
        assert np.allclose(pca.loadings.T @ pca.loadings, np.eye(4), atol=1e-8)
        assert (np.diff(pca.eigenvalues) <= 1e-12).all()
        assert (pca.eigenvalues >= 0).all()
        variances = pca.scores.var(axis=0)  # population convention
        assert np.allclose(variances, pca.eigenvalues, atol=1e-8)

    def test_scores_uncorrelated(self):
        rng = np.random.default_rng(4)
        x = _standardized(rng, 70, 5)
        pca = pca_fit(x, 3)
        gram = pca.scores.T @ pca.scores / x.shape[0]
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-8

    def test_reconstruction_beats_random_rotations(self):
        rng = np.random.default_rng(5)
        x = _standardized(rng, 25, 6)
        h = 2
        pca = pca_fit(x, h)
        best = np.linalg.norm(x - pca.scores @ pca.loadings.T)
        for _ in range(100):
            q, _ = np.linalg.qr(rng.standard_normal((6, h)))
            err = np.linalg.norm(x - (x @ q) @ q.T)
            assert best <= err + 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(6)
        x = _standardized(rng, 40, 5)
        pca = pca_fit(x, 3)
        anchors = np.argmax(np.abs(pca.loadings), axis=0)
        assert (pca.loadings[anchors, np.arange(3)] > 0).all()
        # flipping one input column leaves loadings identical up to that
        # row's sign and the convention's column-wise re-flip
        flipped = x.copy()
        flipped[:, 2] *= -1.0
        pca_f = pca_fit(flipped, 3)
        assert np.allclose(np.abs(pca_f.loadings), np.abs(pca.loadings), atol=1e-8)
        row_signed = pca.loadings.copy()
        row_signed[2] *= -1.0
        for j in range(3):
            col = pca_f.loadings[:, j]
            assert np.allclose(col, row_signed[:, j], atol=1e-8) or np.allclose(
                col, -row_signed[:, j], atol=1e-8
            )

    def test_component_count_out_of_range(self):
        rng = np.random.default_rng(7)
        x = _standardized(rng, 10, 4)
        for h in (0, 5):
            with pytest.raises(ValueError, match="out of range"):
                pca_fit(x, h)
        for h in (1.5, True):
            with pytest.raises(ValueError, match="n_components must be an"):
                pca_fit(x, h)
        # the sample cap binds too: 3 samples allow at most 2 components
        with pytest.raises(ValueError, match="out of range"):
            pca_fit(_standardized(np.random.default_rng(8), 3, 4), 3)

    def test_all_zero_block(self):
        with pytest.raises(ValueError, match="all-zero"):
            pca_fit(np.zeros((10, 3)), 1)
