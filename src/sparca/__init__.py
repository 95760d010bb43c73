"""Sparse dimensionality reduction by feature agglomeration.

Correlated feature columns are grouped with Ward clustering, each group is
compressed by PCA with a permutation-test component count, and every retained
component is re-expressed as a sparse combination of its group's original
features via orthogonal matching pursuit. The result is a sparse linear
projection whose output features have small, disjoint, interpretable
supports.
"""

from ._version import __version__
from .cfcurve import CfCurve, cf_curve, default_grid
from .cluster import (
    ClusterAssignment,
    Linkage,
    cut_to_k,
    feature_distances,
    ward_linkage,
)
from .compress import ClusterPca, pca_fit
from .data import (
    Scaler,
    load_csv,
    load_idx,
    standardize_apply,
    standardize_fit,
    write_csv,
)
from .horn import HornParams, horn_components
from .omp import SparseComponent, omp_fit
from .pipeline import (
    ReducedMatrix,
    SparcaModel,
    fit,
    load_model,
    save_model,
    transform,
)

__all__ = [
    "__version__",
    "CfCurve",
    "ClusterAssignment",
    "ClusterPca",
    "HornParams",
    "Linkage",
    "ReducedMatrix",
    "Scaler",
    "SparcaModel",
    "SparseComponent",
    "cf_curve",
    "cut_to_k",
    "default_grid",
    "feature_distances",
    "fit",
    "horn_components",
    "load_csv",
    "load_idx",
    "load_model",
    "omp_fit",
    "pca_fit",
    "save_model",
    "standardize_apply",
    "standardize_fit",
    "transform",
    "ward_linkage",
    "write_csv",
]
