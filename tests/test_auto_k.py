"""A measurement, not a gate: how well ``fit(X)``'s automatic cluster count
recovers the generating blocks of latent-factor data.

Run ``pytest -s tests/test_auto_k.py`` to print the table: per input, the
chosen k, the true block count, the adjusted Rand index (ARI) of the
clusters against the blocks, and their purity. The only assertion is that
each ARI is a number in [-1, 1]. Criterion 1 fixes k at the true count
instead; this measures the rule that picks k when it is not given.
"""

import numpy as np

from sparca.horn import HornParams
from sparca.pipeline import fit

from conftest import adjusted_rand_index, block_factor_data


def _purity(labels, blocks):
    """Share of features whose cluster's majority block is their own."""
    majority = [np.bincount(blocks[labels == c]).max() for c in set(labels)]
    return sum(majority) / labels.size


def _inputs():
    """``(name, seed, X, blocks)``: criterion 1's data, 8 blocks of 12 at
    1000 rows, and the same with every column's sign flipped at random."""
    for seed in range(5):
        yield ("500 x 80", seed, *block_factor_data(500, seed=seed))
    wide = [block_factor_data(1000, block_size=12, seed=s) for s in range(2)]
    for seed, (X, blocks) in enumerate(wide):
        yield "1000 x 96", seed, X, blocks
    for seed, (X, blocks) in enumerate(wide):
        signs = np.random.default_rng(seed).choice([-1.0, 1.0], X.shape[1])
        yield "1000 x 96, random signs", seed, X * signs, blocks


def test_automatic_k_recovery_is_measured():
    lines = [f"{'input':<24}{'seed':>5}{'k':>4}{'blocks':>7}{'ARI':>8}"
             f"{'purity':>8}"]
    for name, seed, X, blocks in _inputs():
        model = fit(X, horn_params=HornParams(seed=seed), n_threads=1)
        labels = model.assignment.labels
        truth = blocks[model.scaler.kept_features]
        ari = adjusted_rand_index(labels, truth)
        assert np.isfinite(ari) and -1.0 <= ari <= 1.0
        lines.append(
            f"{name:<24}{seed:>5}{model.n_clusters:>4}"
            f"{np.unique(truth).size:>7}{ari:>8.3f}"
            f"{_purity(labels, truth):>8.3f}"
        )
    print("\n" + "\n".join(lines))
