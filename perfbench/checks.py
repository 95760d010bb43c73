"""Output checks run on every job, recomputed with plain numpy.

Each check returns ``(name, passed)``; the run counts failures against the
checks attempted.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import numpy as np

TRANSFORM_TOL = 1e-10
EVR_TOL = 1e-9
# A solver change may flip a few borderline test samples; losing more than
# one percent of the test set is a loss of quality.
ACCURACY_TOL = 0.01


def partition_digest(labels):
    text = json.dumps([int(v) for v in labels], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def components_per_cluster(model):
    counts = Counter(int(c.cluster) for c in model.components)
    return [counts.get(cid, 0) for cid in range(model.n_clusters)]


def reference_of(result):
    """The reference record this job would write for its seed."""
    ref = {
        "n_clusters": int(result.n_clusters),
        "partition_sha256": partition_digest(result.model.assignment.labels),
        "components_per_cluster": components_per_cluster(result.model),
    }
    if result.accuracy is not None:
        ref["sparca_test_acc"] = result.accuracy[0]
    return ref


def check_reference(result, ref):
    if ref is None:
        return [("reference_recorded", False)]
    got = reference_of(result)
    out = [
        ("selected_k", got["n_clusters"] == ref["n_clusters"]),
        ("partition", got["partition_sha256"] == ref["partition_sha256"]),
        (
            "components_per_cluster",
            got["components_per_cluster"] == ref["components_per_cluster"],
        ),
    ]
    if "sparca_test_acc" in ref:
        out.append(
            (
                "sparca_test_acc",
                got.get("sparca_test_acc", -1.0)
                >= ref["sparca_test_acc"] - ACCURACY_TOL,
            )
        )
    return out


def _standardized(X, scaler):
    kept = scaler.kept_features
    return (X[:, kept] - scaler.means[kept]) / scaler.stds[kept]


def check_evr_contract(model, X_fit):
    """Each component reaches the variance threshold or uses its whole block.

    The target is the block's principal score of that rank, recomputed by
    SVD of the standardized block; the explained-variance ratio of the
    component's weights is recomputed from the data.
    """
    means = X_fit.mean(axis=0)
    stds = X_fit.std(axis=0)
    kept = model.scaler.kept_features
    scaler_ok = (
        np.array_equal(kept, np.flatnonzero(stds >= 1e-12))
        and np.allclose(model.scaler.means, means, rtol=1e-12, atol=1e-12)
        and np.allclose(model.scaler.stds, stds, rtol=1e-12, atol=1e-12)
    )
    Xs = (X_fit[:, kept] - means[kept]) / stds[kept]
    position = {int(f): i for i, f in enumerate(kept)}
    labels = model.assignment.labels
    vt_of = {}
    contract_ok = True
    for comp in model.components:
        cols = np.flatnonzero(labels == comp.cluster)
        block = Xs[:, cols]
        if comp.cluster not in vt_of:
            vt_of[comp.cluster] = np.linalg.svd(block, full_matrices=False)[2]
        target = block @ vt_of[comp.cluster][comp.rank]
        support = Xs[:, [position[i] for i, _ in comp.entries]]
        fitted = support @ np.array([w for _, w in comp.entries])
        if target @ fitted < 0:
            target = -target
        centered = target - target.mean()
        resid = target - fitted
        evr = 1.0 - float(resid @ resid) / float(centered @ centered)
        reached = evr >= model.variance_threshold - EVR_TOL
        whole_block = comp.full_support and np.linalg.matrix_rank(
            support
        ) == np.linalg.matrix_rank(block)
        agrees = abs(evr - comp.achieved_evr) <= 1e-6
        contract_ok &= bool((reached or whole_block) and agrees)
    return [("scaler", bool(scaler_ok)), ("evr_contract", contract_ok)]


def check_transform(result, heldout):
    """The served values equal standardize(X) @ projection, computed densely."""
    model = result.loaded
    dense = np.zeros((model.scaler.n_kept, model.n_reduced))
    position = {int(f): i for i, f in enumerate(model.scaler.kept_features)}
    for j, comp in enumerate(model.components):
        for feature, weight in comp.entries:
            dense[position[feature], j] = weight
    expected = _standardized(heldout, model.scaler) @ dense
    ok = result.reduced.shape == expected.shape and bool(
        np.max(np.abs(result.reduced - expected), initial=0.0) <= TRANSFORM_TOL
    )
    return [("transform_dense", ok)]


def check_round_trip(sparca, result, path):
    """save -> load -> save writes the same bytes."""
    sparca.save_model(result.loaded, path)
    with open(path, "rb") as fh:
        again = fh.read()
    return [("save_load_save", again == result.model_bytes)]


def check_same_as(traced, untraced):
    """Tracing changes no output: same model bytes, same served values."""
    return [
        ("traced_model_bytes", traced.model_bytes == untraced.model_bytes),
        ("traced_transform", np.array_equal(traced.reduced, untraced.reduced)),
    ]
