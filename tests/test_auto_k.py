"""A measurement, not a gate: how well ``fit(X)``'s automatic cluster count
recovers the generating blocks of latent-factor data, and how well Ward
recovers them when given the true count.

Run ``pytest -s tests/test_auto_k.py`` to print the table: per input, the
chosen k, the true block count, the adjusted Rand index (ARI) of the
clusters against the blocks and their purity; then the ARI of the Ward cut
at the true block count, on today's distance between standardized columns,
``sqrt(2n(1 - rho))``, and on ``sqrt(2n(1 - rho^2))``, which ignores the
correlation's sign. The only assertion is that each ARI is a number in
[-1, 1]. Criterion 1 fixes k at the true count instead; this measures the
rule that picks k when it is not given, and the distance it cuts.
"""

import numpy as np

from sparca.cluster import cut_to_k, feature_distances, ward_linkage
from sparca.data import standardize_apply
from sparca.horn import HornParams
from sparca.pipeline import fit

from conftest import adjusted_rand_index, block_factor_data
from oracles import squared_correlation_distances


def _purity(labels, blocks):
    """Share of features whose cluster's majority block is their own."""
    majority = [np.bincount(blocks[labels == c]).max() for c in set(labels)]
    return sum(majority) / labels.size


def _inputs():
    """``(name, seed, X, blocks)``: criterion 1's data, 8 blocks of 12 at
    1000 rows and 50 blocks of 12 at 300 rows, the last two also with every
    column's sign flipped at random."""
    for seed in range(5):
        yield ("500 x 80", seed, *block_factor_data(500, seed=seed))
    for n, n_blocks in ((1000, 8), (300, 50)):
        name = f"{n} x {12 * n_blocks}"
        data = [
            block_factor_data(n, n_blocks=n_blocks, block_size=12, seed=s)
            for s in range(2)
        ]
        for seed, (X, blocks) in enumerate(data):
            yield name, seed, X, blocks
        for seed, (X, blocks) in enumerate(data):
            signs = np.random.default_rng(seed).choice([-1.0, 1.0], X.shape[1])
            yield f"{name}, random signs", seed, X * signs, blocks


def test_automatic_k_recovery_is_measured():
    lines = [f"{'input':<24}{'seed':>5}{'k':>4}{'blocks':>7}{'ARI':>8}"
             f"{'purity':>8}{'ARI@true':>10}{'ARI@true,rho^2':>16}"]
    for name, seed, X, blocks in _inputs():
        model = fit(X, horn_params=HornParams(seed=seed), n_threads=1)
        labels = model.assignment.labels
        truth = blocks[model.scaler.kept_features]
        k_true = np.unique(truth).size
        Xs = standardize_apply(model.scaler, X)
        m = Xs.shape[1]
        aris = [adjusted_rand_index(labels, truth)] + [
            adjusted_rand_index(cut_to_k(ward_linkage(d, m), k_true).labels,
                                truth)
            for d in (feature_distances(Xs), squared_correlation_distances(Xs))
        ]
        assert all(np.isfinite(ari) and -1.0 <= ari <= 1.0 for ari in aris)
        lines.append(
            f"{name:<24}{seed:>5}{model.n_clusters:>4}{k_true:>7}"
            f"{aris[0]:>8.3f}{_purity(labels, truth):>8.3f}"
            f"{aris[1]:>10.3f}{aris[2]:>16.3f}"
        )
    print("\n" + "\n".join(lines))
