"""End-to-end fitting, transformation, and model serialization.

The fitted artifact couples the standardizer, the Ward cluster assignment,
and one sparse component per retained principal component of each cluster;
stacking the component weight vectors column-wise yields the sparse
projection matrix applied at transform time.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._version import __version__
from .cfcurve import FeatureTree
# fit reaches its stages through FeatureTree; stage tracers look them up here.
from .cluster import ClusterAssignment, cut_to_k, feature_distances, ward_linkage
from .compress import pca_fit
from .data import (
    VARIANCE_EPS,
    Scaler,
    as_matrix,
    check_integer,
    check_number,
    standardize_apply,
    standardize_fit,
    validate_matrix,
)
from .horn import HornParams, horn_components
from .omp import SparseComponent, omp_fit

FORMAT_VERSION = 1


# Input entries ``transform`` reads per block of rows: 1 MiB of float64, so
# that a block's conversion, finiteness scan, gathered support columns and
# product stay in a core's cache.
_BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True, eq=False)
class SparcaModel:
    """Fitted sparse dimensionality-reduction model.

    ``components`` are ordered by (cluster, rank). The model holds only what
    ``save_model`` writes; everything else is derived from it on first use
    and kept:

    - ``projection``, the (n_kept_features, n_reduced) CSC matrix whose
      column j scatters component j's weights onto its feature rows. Column
      supports from different clusters are disjoint by construction.
    - ``column_provenance``, which every ``transform`` result shares.
    - What ``transform`` reads per batch: a scaler whose ``kept_features``
      are the support (the kept features that carry a weight), and the
      support's weights as CSR rows, built without the projection.
    """

    scaler: Scaler
    variance_threshold: float
    horn_params: HornParams
    assignment: ClusterAssignment
    components: tuple

    @property
    def n_clusters(self) -> int:
        return self.assignment.n_clusters

    @property
    def n_reduced(self) -> int:
        return len(self.components)

    @cached_property
    def projection(self):
        # Imported here so that ``import sparca`` does not load scipy.sparse.
        from scipy import sparse

        served, weights = self._serving
        rows = np.searchsorted(self.scaler.kept_features, served.kept_features)
        return sparse.csc_array(
            (weights.data, rows[weights.indices], weights.indptr),
            shape=(self.scaler.n_kept, self.n_reduced),
        )

    @cached_property
    def column_provenance(self) -> tuple:
        return tuple(
            (comp.cluster, comp.rank, tuple(int(i) for i, _ in comp.entries))
            for comp in self.components
        )

    @cached_property
    def _serving(self) -> tuple:
        """``(scaler, weights)``: the fitted scaler with the support as its
        ``kept_features``, and the CSR (n_reduced, support size) weights,
        built from the components' entries end to end. Each row's columns
        increase, as a component's features do, so every output element sums
        its terms in the order of ``standardize_apply(X) @ projection``."""
        from scipy import sparse  # imported here, as in ``projection``

        comps = self.components
        features = np.array([i for comp in comps for i, _ in comp.entries])
        weights = np.array([w for comp in comps for _, w in comp.entries])
        indptr = np.cumsum([0] + [comp.support_size for comp in comps])
        support, columns = np.unique(features, return_inverse=True)
        shape = (self.n_reduced, support.size)
        return (
            replace(self.scaler, kept_features=support),
            sparse.csr_array((weights, columns, indptr), shape=shape),
        )

    def transform(self, X) -> "ReducedMatrix":
        return transform(self, X)


@dataclass(frozen=True, eq=False)
class ReducedMatrix:
    """Reduced data plus per-column provenance.

    ``column_provenance[j]`` is ``(cluster, rank, feature_indices)`` with
    original column indices of component j's support.
    """

    values: np.ndarray
    column_provenance: tuple


def fit(
    X,
    n_clusters: int | None = None,
    variance_threshold: float = 0.95,
    horn_params: HornParams | None = None,
    n_threads: int | None = None,
) -> SparcaModel:
    """Fit the full pipeline: standardize, cluster features, compress, sparsify.

    Parameters
    ----------
    X : array, shape (n_samples, n_features)
        Raw data; constant columns are dropped during standardization.
    n_clusters : int or None
        Number of Ward feature clusters; at most the kept feature count.
        ``None`` (the default) selects it from the cf-curve over
        ``default_grid`` on the fit's own Ward tree, exactly as
        ``cf_curve(X, horn_params=horn_params).selected``; the chosen cut
        reuses the curve's Horn counts.
    variance_threshold : float
        Minimum explained-variance ratio each sparse component must recover,
        default 0.95.
    horn_params : HornParams, optional
        Component-count selection parameters (trials, percentile, seed).
    n_threads : int, optional
        Worker threads for the Horn counts of the tree's new nodes, one
        task per width class (see ``FeatureTree``); PCA and OMP run on the
        calling thread. Results are identical for any thread count.
        Defaults to the CPUs this process may run on.

    Returns
    -------
    SparcaModel
    """
    X = validate_matrix(X)
    check_number(variance_threshold, "variance_threshold", 0, 1, open_low=True)
    if n_clusters is not None:
        check_integer(n_clusters, "n_clusters")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples to fit")
    tree = FeatureTree(X, horn_params, n_threads)
    scaler = tree.scaler
    if n_clusters is None:
        n_clusters = tree.curve().selected
    if not 1 <= n_clusters <= scaler.n_kept:
        raise ValueError(
            f"n_clusters {n_clusters} out of range [1, {scaler.n_kept}] "
            f"(kept features)"
        )
    [(groups, counts)] = tree.cuts([n_clusters])
    components = []
    for cid, (cols, h) in enumerate(zip(groups, counts)):
        x_block, features = tree.Xs[:, cols], scaler.kept_features[cols]
        # ``pca`` stays alive through the OMP calls: keeping only its scores
        # moved glibc's heap and raised wide_fixed's peak_rss_mb by ~7 MB.
        pca = pca_fit(x_block, h)
        components.extend(
            omp_fit(
                x_block,
                pca.scores[:, r],
                variance_threshold,
                feature_indices=features,
                cluster=cid,
                rank=r,
            )
            for r in range(h)
        )
    return SparcaModel(
        scaler=scaler,
        variance_threshold=variance_threshold,
        horn_params=tree.horn_params,
        assignment=ClusterAssignment.from_groups(groups),
        components=tuple(components),
    )


def transform(model: SparcaModel, X) -> ReducedMatrix:
    """Standardize ``X`` with the fitted scaler and project it.

    Raises ``ValueError`` unless ``X`` is a real matrix of
    ``model.scaler.n_features`` columns whose every entry is finite, dropped
    columns included; no partial result is returned. ``X`` is read in one
    pass, in blocks of rows, and each block goes through
    ``standardize_apply`` with the model's serving scaler: only the support
    columns (the kept features that carry a weight) are standardized and
    multiplied by the sparse weights. The values equal
    ``standardize_apply(model.scaler, X) @ model.projection``
    bit for bit.
    """
    X = as_matrix(X)
    scaler, weights = model._serving
    out = np.empty((model.n_reduced, X.shape[0]))
    rows = max(1, _BLOCK_ENTRIES // X.shape[1])
    for i0 in range(0, X.shape[0], rows):
        i1 = i0 + rows
        out[:, i0:i1] = weights @ standardize_apply(scaler, X[i0:i1]).T
    return ReducedMatrix(
        values=out.T, column_provenance=model.column_provenance
    )


def save_model(model: SparcaModel, path):
    """Serialize a model to versioned JSON; floats round-trip exactly."""
    doc = {
        "format_version": FORMAT_VERSION,
        "library_version": __version__,
        "n_clusters": int(model.n_clusters),
        "variance_threshold": float(model.variance_threshold),
        "horn": {
            "n_repeats": int(model.horn_params.n_repeats),
            "percentile": float(model.horn_params.percentile),
            "seed": int(model.horn_params.seed),
        },
        "scaler": {
            "means": [float(v) for v in model.scaler.means],
            "stds": [float(v) for v in model.scaler.stds],
            "kept_features": [int(v) for v in model.scaler.kept_features],
        },
        "assignment": [int(v) for v in model.assignment.labels],
        "components": [
            {
                "cluster": int(c.cluster),
                "rank": int(c.rank),
                "evr": float(c.achieved_evr),
                "entries": [[int(i), float(w)] for i, w in c.entries],
            }
            for c in model.components
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _numbers(values, name, dtype=np.float64):
    """``values``, a list of JSON numbers, as a ``dtype`` array.

    Raises ``ValueError`` for any other item: a string, a list, or a
    boolean, which numpy would read as 0 or 1. An int64 conversion that
    changes a number, as 1.9 -> 1, raises too. A scalar field is read as
    the one item of ``[value]``.
    """
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise ValueError(f"{name} must hold numbers, got {bad!r}")
    array = np.asarray(values, dtype=dtype)
    if dtype == np.int64 and array.tolist() != values:
        raise ValueError(f"{name} must be integral")
    return array


def _read_components(docs, variance_threshold) -> tuple:
    """The components a model file's ``components`` list describes. Each
    field is read for all components at once, the entries concatenated."""
    entries = [doc["entries"] for doc in docs]
    pairs = [pair for e in entries for pair in e]
    features = _numbers([i for i, _ in pairs], "features", np.int64)
    weights = _numbers([w for _, w in pairs], "weights")
    evrs = _numbers([doc["evr"] for doc in docs], "evr")
    clusters = _numbers([doc["cluster"] for doc in docs], "cluster", np.int64)
    ranks = _numbers([doc["rank"] for doc in docs], "rank", np.int64)
    read = iter(zip(features.tolist(), weights.tolist()))
    return tuple(
        SparseComponent(
            entries=tuple(itertools.islice(read, len(e))),
            achieved_evr=evr,
            cluster=cluster,
            rank=rank,
            # Stopping rule: a component falls short of the threshold only
            # when its cluster's usable atoms were exhausted.
            full_support=evr < variance_threshold,
        )
        for e, evr, cluster, rank in zip(
            entries, evrs.tolist(), clusters.tolist(), ranks.tolist()
        )
    )


def _check_model(scaler, labels, n_clusters, components, variance_threshold):
    """Raise ``ValueError`` unless the parsed parts fit together as a model."""
    if not 0.0 < variance_threshold <= 1.0:
        raise ValueError(
            f"variance_threshold {variance_threshold} is not in (0, 1]"
        )
    means, stds, kept = scaler.means, scaler.stds, scaler.kept_features
    if means.ndim != 1 or stds.shape != means.shape:
        raise ValueError(
            f"scaler has {means.size} means but {stds.size} stds"
        )
    if not (np.isfinite(means).all() and np.isfinite(stds).all()):
        raise ValueError("scaler means and stds must be finite")
    if (
        kept.ndim != 1
        or kept.size == 0
        or (np.diff(kept) <= 0).any()
        or kept[0] < 0
        or kept[-1] >= means.size
    ):
        raise ValueError(
            f"kept_features must be strictly increasing indices in "
            f"[0, {means.size})"
        )
    if (stds[kept] < VARIANCE_EPS).any():
        raise ValueError(
            f"kept features need a std of at least {VARIANCE_EPS:g}"
        )
    if labels.shape != kept.shape:
        raise ValueError(
            f"assignment has {labels.size} labels for {kept.size} kept features"
        )
    if labels.min() < 0 or labels.max() >= n_clusters:
        raise ValueError(f"assignment labels must lie in [0, {n_clusters})")
    cluster_of = dict(zip(kept.tolist(), labels.tolist()))
    ranks_of = {}
    for comp in components:
        if not comp.entries:
            raise ValueError(f"component {comp.source} has no entries")
        if not 0.0 <= comp.achieved_evr <= 1.0:
            raise ValueError(
                f"component {comp.source} has evr {comp.achieved_evr}, "
                f"which is not in [0, 1]"
            )
        features = [i for i, _ in comp.entries]
        for feature in features:
            if cluster_of.get(feature) != comp.cluster:
                raise ValueError(
                    f"component {comp.source} uses feature {feature}, "
                    f"which is not a kept feature of its cluster"
                )
        if any(b <= a for a, b in zip(features, features[1:])):
            raise ValueError(
                f"component {comp.source} features are not strictly increasing"
            )
        if not all(math.isfinite(w) for _, w in comp.entries):
            raise ValueError(
                f"component {comp.source} has a non-finite weight"
            )
        ranks = ranks_of.setdefault(comp.cluster, [])
        if comp.rank in ranks:
            raise ValueError(f"component {comp.source} appears twice")
        ranks.append(comp.rank)
    # Every key of ranks_of lies in [0, n_clusters), so this loop stops at
    # the first cluster without components.
    for cid in range(n_clusters):
        ranks = ranks_of.get(cid, [])
        if not ranks:
            raise ValueError(f"cluster {cid} has no components")
        if ranks != list(range(len(ranks))):
            raise ValueError(
                f"cluster {cid} has ranks {ranks}, expected "
                f"0..{len(ranks) - 1} in order"
            )


def load_model(path) -> SparcaModel:
    """Load a model written by :func:`save_model`.

    Raises ``ValueError`` on unknown format versions, malformed files
    (missing keys, numeric fields holding anything but JSON numbers,
    booleans included, integer fields holding non-integers, Horn parameters
    ``HornParams`` rejects) and parts that do not fit together (a variance
    threshold outside (0, 1], scaler lengths, kept features, std,
    assignment, component supports that are not strictly increasing kept
    features of their cluster, non-finite weights, EVRs outside [0, 1],
    per-cluster ranks ``0..h-1``); never returns a partial model.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not a valid model file ({exc})") from exc
    try:
        version = doc["format_version"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed model file ({exc!r})") from exc
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported format_version {version!r}, "
            f"expected {FORMAT_VERSION}"
        )
    try:
        [variance_threshold] = _numbers(
            [doc["variance_threshold"]], "variance_threshold"
        ).tolist()
        scaler = Scaler(
            means=_numbers(doc["scaler"]["means"], "means"),
            stds=_numbers(doc["scaler"]["stds"], "stds"),
            kept_features=_numbers(
                doc["scaler"]["kept_features"], "kept_features", np.int64
            ),
        )
        horn = doc["horn"]
        horn_params = HornParams(
            horn["n_repeats"], horn["percentile"], horn["seed"]
        )
        labels = _numbers(doc["assignment"], "assignment", np.int64)
        [n_clusters] = _numbers(
            [doc["n_clusters"]], "n_clusters", np.int64
        ).tolist()
        components = _read_components(doc["components"], variance_threshold)
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed model file ({exc!r})") from exc
    try:
        _check_model(
            scaler, labels, n_clusters, components, variance_threshold
        )
    except ValueError as exc:
        raise ValueError(f"{path}: inconsistent model file ({exc})") from exc
    return SparcaModel(
        scaler=scaler,
        variance_threshold=variance_threshold,
        horn_params=horn_params,
        assignment=ClusterAssignment(labels=labels, n_clusters=n_clusters),
        components=components,
    )
