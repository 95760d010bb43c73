"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line. Run with ``pytest -s tests/test_acceptance.py -v``.

The two handwritten-digit criteria run against real MNIST IDX files when
available (``SPARCA_MNIST_DIR`` or ``tests/data/mnist``); without them they
skip, and surrogate twins with the same protocol, scale, and tolerances run
on synthetic stroke-image data instead.
"""

import json
import time

import numpy as np
import pytest

from sparca.cluster import cut_to_k, feature_distances, ward_linkage
from sparca.compress import pca_fit
from sparca.data import load_idx, standardize_apply, standardize_fit
from sparca.evalkit import (
    PcaBaseline,
    downstream_eval,
    l1_logreg_fit,
    noise_robustness,
    profile_runtime,
    stratified_split,
)
from sparca.horn import HornParams, horn_components
from sparca.omp import omp_fit
from sparca.pipeline import fit, load_model, save_model, transform

from conftest import (
    adjusted_rand_index,
    block_factor_data,
    find_mnist_dir,
    mnist_path,
    partition_sets,
    rank1_snr_block,
)
from oracles import naive_ward, omp_reference_path, smooth_gradient

NOISE_SIGMAS = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]

#: Every model fitted anywhere in this module, so the variance-recovery and
#: support-structure contracts are enforced suite-wide.
FITTED_MODELS = []


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:>2} {name}: {status}{suffix}")


def fit_registered(X, **kwargs):
    model = fit(X, **kwargs)
    FITTED_MODELS.append(model)
    _check_variance_contract(model)
    _check_support_structure(model)
    return model


def _check_variance_contract(model):
    for comp in model.components:
        assert (
            comp.achieved_evr >= model.variance_threshold or comp.full_support
        ), f"component {comp.source} EVR {comp.achieved_evr} unflagged"


def _check_support_structure(model):
    kept = model.scaler.kept_features
    counts = np.zeros(model.n_clusters, dtype=int)
    owner = {}
    for comp in model.components:
        counts[comp.cluster] += 1
        members = set(kept[model.assignment.members(comp.cluster)].tolist())
        support = comp.feature_indices.tolist()
        assert set(support) <= members
        assert len(set(support)) == len(support)
        for feature in support:
            assert owner.setdefault(feature, comp.cluster) == comp.cluster
    assert (counts >= 1).all()
    assert model.n_reduced == counts.sum()
    sizes = np.bincount(model.assignment.labels, minlength=model.n_clusters)
    if (sizes > counts).any():
        assert model.n_reduced < model.scaler.n_kept


def test_criterion_01_block_recovery():
    """8 latent factors, 80 features, 500 samples: the generating partition
    and feature count are recovered in at least 9 of 10 seeds."""
    ari_hits = 0
    p_hits = 0
    slowest = 0.0
    for seed in range(10):
        X, blocks = block_factor_data(500, seed=seed)
        start = time.perf_counter()
        model = fit_registered(
            X, n_clusters=8, horn_params=HornParams(seed=seed)
        )
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        if adjusted_rand_index(model.assignment.labels, blocks) == 1.0:
            ari_hits += 1
        if model.n_reduced == 8:
            p_hits += 1
    ok = ari_hits >= 9 and p_hits >= 9 and slowest < 5.0
    _report(1, "block recovery", ok,
            f"ARI 1.0 in {ari_hits}/10, p=8 in {p_hits}/10, "
            f"slowest fit {slowest:.2f}s")
    assert ok


def test_criterion_02_variance_recovery_contract():
    """Every component of every fitted model reaches the 0.95 threshold on
    its fit data or is flagged full-support (enforced at every fit)."""
    rng = np.random.default_rng(0)
    extra = [
        fit_registered(rng.standard_normal((60, 12)), n_clusters=3),
        fit_registered(block_factor_data(150, seed=3)[0], n_clusters=5,
                       variance_threshold=0.99),
    ]
    assert len(FITTED_MODELS) >= 10 + len(extra)
    for model in FITTED_MODELS:
        _check_variance_contract(model)
    checked = sum(len(m.components) for m in FITTED_MODELS)
    _report(2, "variance recovery", True,
            f"{checked} components across {len(FITTED_MODELS)} models")


def test_criterion_03_disjoint_support_reduction():
    """Cross-cluster supports disjoint, p equals the component-count sum,
    and p < m whenever some cluster compresses (enforced at every fit)."""
    compressing = 0
    for model in FITTED_MODELS:
        _check_support_structure(model)
        if model.n_reduced < model.scaler.n_kept:
            compressing += 1
    ok = compressing >= 1
    _report(3, "disjoint supports / reduction", ok,
            f"{len(FITTED_MODELS)} models, {compressing} strictly reduced")
    assert ok


def test_criterion_04_singleton_identity():
    """With one cluster per feature the projection is permutation-like."""
    rng = np.random.default_rng(1)
    X = rng.standard_normal((60, 25))
    model = fit_registered(X, n_clusters=25)
    dense = model.projection.toarray()
    one_per_column = all(
        np.count_nonzero(dense[:, j]) == 1 for j in range(dense.shape[1])
    )
    weights = np.array([c.entries[0][1] for c in model.components])
    ok = (
        model.n_reduced == 25
        and one_per_column
        and np.abs(weights - 1.0).max() <= 1e-10
    )
    _report(4, "singleton identity", ok,
            f"p={model.n_reduced}, max |w-1|={np.abs(weights - 1.0).max():.2e}")
    assert ok


def test_criterion_05_oracle_equivalences():
    """Ward, OMP, and PCA agree with brute-force reference implementations."""
    start = time.perf_counter()

    ward_ok = True
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(4, 13))
        X = rng.standard_normal((int(rng.integers(8, 30)), m))
        X = standardize_apply(standardize_fit(X), X)
        linkage = ward_linkage(feature_distances(X), m)
        partitions, _ = naive_ward(X)
        for k in range(1, m + 1):
            ours = partition_sets(cut_to_k(linkage, k).labels)
            if ours != frozenset(partitions[m - k]):
                ward_ok = False

    omp_ok = True
    worst_resid = 0.0
    for seed in range(30):
        rng = np.random.default_rng(100 + seed)
        n_atoms = int(rng.integers(3, 9))
        D = rng.standard_normal((40, n_atoms))
        D = standardize_apply(standardize_fit(D), D)
        target = D @ rng.standard_normal(n_atoms) + 0.05 * rng.standard_normal(40)
        f = float(rng.uniform(0.7, 0.99))
        comp = omp_fit(D, target, f)
        steps, ref_weights = omp_reference_path(D, target, f)
        if sorted(j for j, _, _ in steps) != comp.feature_indices.tolist():
            omp_ok = False
            continue
        support = comp.feature_indices
        ours_resid = target - D[:, support] @ comp.weights
        worst_resid = max(
            worst_resid, float(np.abs(ours_resid - steps[-1][1]).max())
        )
    omp_ok = omp_ok and worst_resid < 1e-8

    pca_ok = True
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        x = rng.standard_normal((30, int(rng.integers(2, 8))))
        x = standardize_apply(standardize_fit(x), x)
        h = min(3, x.shape[1])
        pca = pca_fit(x, h)
        w, v = np.linalg.eigh(x.T @ x / x.shape[0])
        w, v = w[::-1], v[:, ::-1]
        if np.abs(pca.eigenvalues - w[:h]).max() > 1e-8:
            pca_ok = False
        if np.abs(np.abs(pca.loadings) - np.abs(v[:, :h])).max() > 1e-8:
            pca_ok = False

    elapsed = time.perf_counter() - start
    ok = ward_ok and omp_ok and pca_ok and elapsed < 30.0
    _report(5, "oracle equivalences", ok,
            f"ward={ward_ok}, omp={omp_ok} (max dev {worst_resid:.1e}), "
            f"pca={pca_ok}, {elapsed:.1f}s")
    assert ok


def test_criterion_06_horn_sanity():
    """Floor behavior on noise, rank-1 detection, and 8-factor counts."""
    noise_hits = 0
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        x = rng.standard_normal((200, 10))
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        if horn_components(x, HornParams(seed=seed)) == 1:
            noise_hits += 1

    rank1_hits = 0
    for seed in range(200):
        x = rank1_snr_block(200, 5, snr=5.0, seed=seed)
        if horn_components(x, HornParams(seed=seed)) == 1:
            rank1_hits += 1

    factor_hits = 0
    for seed in range(200):
        X, _ = block_factor_data(500, seed=seed)
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        if abs(horn_components(Xs, HornParams(seed=seed)) - 8) <= 1:
            factor_hits += 1

    ok = noise_hits >= 190 and rank1_hits >= 190 and factor_hits >= 180
    _report(6, "horn sanity", ok,
            f"noise floor {noise_hits}/200, rank-1 {rank1_hits}/200, "
            f"8-factor {factor_hits}/200")
    assert ok


# ---------------------------------------------------------------------------
# classification parity and noise robustness (criteria 7 and 8)


def run_parity_protocol(X, y, seed=0):
    """Embedding/train/test protocol shared by the MNIST and surrogate runs:
    2000/4000/1000 stratified samples, automatic cluster count, permutation
    component count for the PCA baseline, cross-validated L1 classifiers."""
    start = time.perf_counter()
    embed, train, test = stratified_split(y, (2000, 4000, 1000), seed=seed)
    horn = HornParams(seed=seed)
    sparca_model = fit_registered(X[embed], horn_params=horn)
    pca_model = PcaBaseline.fit(X[embed], horn_params=horn)
    result = {
        "models": [sparca_model, pca_model],
        "classifiers": [],
        "accuracy": {},
        "X_test": X[test],
        "y_test": y[test],
    }
    for name, model in (("sparca", sparca_model), ("pca", pca_model)):
        accuracy, clf, _ = downstream_eval(
            model, X[train], y[train], X[test], y[test], seed=seed
        )
        result["classifiers"].append(clf)
        result["accuracy"][name] = accuracy
    result["elapsed"] = time.perf_counter() - start
    return result


def _parity_ok(result):
    acc_s = result["accuracy"]["sparca"]
    acc_p = result["accuracy"]["pca"]
    return (
        acc_s >= 0.85
        and acc_p >= 0.85
        and abs(acc_s - acc_p) <= 0.04
        and result["elapsed"] < 600.0
    )


def _noise_direction_hits(result, n_classes):
    """Count noise seeds where the sparse model holds up at the last
    informative noise level."""
    chance = 1.0 / n_classes
    hits = 0
    for noise_seed in range(5):
        table = noise_robustness(
            result["models"],
            result["classifiers"],
            result["X_test"],
            result["y_test"],
            NOISE_SIGMAS,
            seed=noise_seed,
        )
        informative = np.flatnonzero(table.max(axis=1) > chance + 0.1)
        level = int(informative[-1])
        if table[level, 0] >= table[level, 1] - 0.01:
            hits += 1
    return hits


@pytest.fixture(scope="module")
def surrogate_protocol():
    from conftest import stroke_image_data

    X, y = stroke_image_data(7000, seed=0)
    return run_parity_protocol(X, y, seed=0)


@pytest.fixture(scope="module")
def mnist_protocol(mnist_dir):
    X, y = load_idx(
        mnist_path(mnist_dir, "train-images-idx3-ubyte"),
        mnist_path(mnist_dir, "train-labels-idx1-ubyte"),
    )
    return run_parity_protocol(X, y, seed=0)


def test_criterion_07_mnist_parity(mnist_protocol):
    """Scaled MNIST: both reducers support >= 0.85 test accuracy within
    0.04 of each other, in under 10 minutes."""
    ok = _parity_ok(mnist_protocol)
    _report(7, "scaled MNIST parity", ok,
            f"sparca {mnist_protocol['accuracy']['sparca']:.3f}, "
            f"pca {mnist_protocol['accuracy']['pca']:.3f}, "
            f"{mnist_protocol['elapsed']:.0f}s")
    assert ok


def test_criterion_07_surrogate_parity(surrogate_protocol):
    """Same protocol, scale, and tolerances on the stroke-image surrogate
    (runs unconditionally; MNIST itself is not distributable here)."""
    ok = _parity_ok(surrogate_protocol)
    _report(7, "parity on surrogate images", ok,
            f"sparca {surrogate_protocol['accuracy']['sparca']:.3f}, "
            f"pca {surrogate_protocol['accuracy']['pca']:.3f}, "
            f"{surrogate_protocol['elapsed']:.0f}s")
    assert ok


def test_criterion_08_mnist_noise_direction(mnist_protocol):
    """At the strongest still-informative noise level the sparse model's
    accuracy does not fall below the PCA baseline's (within 0.01) in at
    least 4 of 5 noise seeds."""
    hits = _noise_direction_hits(mnist_protocol, n_classes=10)
    ok = hits >= 4
    _report(8, "MNIST noise robustness direction", ok, f"{hits}/5 seeds")
    assert ok


def test_criterion_08_surrogate_noise_direction(surrogate_protocol):
    hits = _noise_direction_hits(surrogate_protocol, n_classes=10)
    ok = hits >= 4
    _report(8, "noise robustness direction (surrogate)", ok, f"{hits}/5 seeds")
    assert ok


def test_criterion_09_runtime_scaling():
    """Near-linear scaling in samples; the feature axis is gated to the
    stated quadratic band."""
    start = time.perf_counter()
    report = profile_runtime(
        [500, 1000, 2000, 4000, 8000],
        [100, 200, 400, 800, 1600],
        repeats=3,
        seed=0,
    )
    elapsed = time.perf_counter() - start
    sample_ok = 0.7 <= report.sample_slope <= 1.3
    feature_ok = 1.6 <= report.feature_slope <= 2.4
    ok = sample_ok and feature_ok and elapsed < 900.0
    _report(9, "runtime scaling", ok,
            f"sample slope {report.sample_slope:.2f} "
            f"(distances+Ward {report.sample_cluster_slope:.2f}), "
            f"feature slope {report.feature_slope:.2f} "
            f"(distances+Ward {report.feature_cluster_slope:.2f}), "
            f"{elapsed:.0f}s")
    assert ok


def test_criterion_10_l1_solver_certificate():
    """KKT conditions and finite-difference gradient agreement at the
    solver's convergence point on 20 random problems."""
    kkt_ok = True
    grad_ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, p, k = 40, 6, int(rng.integers(2, 4))
        X = rng.standard_normal((n, p))
        w_true = rng.standard_normal(p) * (rng.random(p) < 0.7)
        y = np.argmax(
            np.column_stack([X @ w_true, X @ np.roll(w_true, 1)])
            + 0.3 * rng.standard_normal((n, 2)),
            axis=1,
        ) if k == 2 else rng.integers(0, k, n)
        lam = float(10 ** rng.uniform(-2.5, -0.5))
        model = l1_logreg_fit(X, y, lam)
        G, _ = smooth_gradient(model, X, y)
        zero = model.weights == 0.0
        if zero.any() and (np.abs(G[zero]) > lam + 1e-4).any():
            kkt_ok = False
        if (~zero).any():
            resid = G[~zero] + lam * np.sign(model.weights[~zero])
            if np.abs(resid).max() > 1e-4:
                kkt_ok = False

        Y = np.zeros((n, model.n_classes))
        Y[np.arange(n), y] = 1.0

        def loss(W):
            Z = X @ W.T + model.intercepts
            return (np.logaddexp(0.0, Z) - Y * Z).mean(axis=0).sum()

        eps = 1e-6
        picks = np.random.default_rng(1000 + seed)
        for _ in range(5):
            ci = int(picks.integers(0, model.n_classes))
            pj = int(picks.integers(0, p))
            Wp, Wm = model.weights.copy(), model.weights.copy()
            Wp[ci, pj] += eps
            Wm[ci, pj] -= eps
            fd = (loss(Wp) - loss(Wm)) / (2 * eps)
            if abs(fd - G[ci, pj]) > 1e-5 * max(abs(fd), 1.0):
                grad_ok = False

    ok = kkt_ok and grad_ok
    _report(10, "L1 solver certificate", ok,
            f"kkt={kkt_ok}, gradient={grad_ok}")
    assert ok


def test_criterion_11_determinism_serialization(tmp_path):
    """Bit-identical model files per seed, thread-count independence, and
    exact save/load transform round-trips."""
    X, _ = block_factor_data(300, seed=11)

    paths = []
    for run in range(2):
        model = fit_registered(X, n_clusters=8, horn_params=HornParams(seed=4))
        path = tmp_path / f"run{run}.json"
        save_model(model, path)
        paths.append(path)
    bytes_equal = paths[0].read_bytes() == paths[1].read_bytes()

    single = fit(X, n_clusters=8, horn_params=HornParams(seed=4), n_threads=1)
    multi = fit(X, n_clusters=8, horn_params=HornParams(seed=4), n_threads=4)
    save_model(single, tmp_path / "single.json")
    save_model(multi, tmp_path / "multi.json")
    threads_equal = (tmp_path / "single.json").read_bytes() == (
        tmp_path / "multi.json"
    ).read_bytes()

    loaded = load_model(paths[0])
    round_trip_equal = np.array_equal(
        transform(single, X).values, transform(loaded, X).values
    )

    ok = bytes_equal and threads_equal and round_trip_equal
    _report(11, "determinism & serialization", ok,
            f"bytes={bytes_equal}, threads={threads_equal}, "
            f"round-trip={round_trip_equal}")
    assert ok
