"""Cluster-count vs. feature-count curve and automatic cluster selection.

Sweeping the requested cluster count over a grid and summing the per-cluster
component counts traces a characteristic curve: rapid growth, a near-flat
plateau, then a unit-slope tail where every extra cluster contributes exactly
one feature. The recommended cluster count sits at the minimum of the
first derivative smoothed over ``SMOOTHING_WINDOW`` grid points, i.e. the
start of the plateau. The rule and the derivative's stencil apply at every
grid size; on fewer than three points the clamped window spans the whole
grid, so the rule returns its first value. ``CfCurve.selected`` is the
rule's only entry point: ``cf_curve``, ``FeatureTree.curve`` and ``fit``
with automatic selection all read it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cluster import Linkage, _cut_groups, feature_distances, ward_linkage
from .data import (
    check_integer,
    check_numbers,
    standardize_apply,
    standardize_fit,
)
from .horn import (
    HornParams, _PermutationTable, check_horn_params, horn_components
)

# Grid points the derivative is averaged over before its minimum is taken.
SMOOTHING_WINDOW = 3
# Points of the default geometric grid of cluster counts.
GRID_POINTS = 40


@dataclass(frozen=True, eq=False)
class CfCurve:
    """Sampled (cluster count, reduced feature count) pairs.

    ``derivative`` holds the slope at every grid point between its
    neighbours, each clamped to the grid, so the ends are one-sided (0 on a
    one-point grid); ``selected`` is the recommended cluster count, by one
    rule at every grid size (the first grid value below three points).
    """

    n_clusters: np.ndarray
    n_features: np.ndarray
    derivative: np.ndarray
    selected: int

    @property
    def points(self):
        return [
            (int(k), int(f)) for k, f in zip(self.n_clusters, self.n_features)
        ]

    @classmethod
    def from_points(cls, n_clusters, n_features):
        ks = check_numbers(n_clusters, "n_clusters", integer=True)
        fs = check_numbers(n_features, "n_features", integer=True)
        if ks.size != fs.size or ks.size < 1:
            raise ValueError("need matching, non-empty grids")
        if (np.diff(ks) <= 0).any():
            raise ValueError("cluster grid must be strictly increasing")
        deriv = _derivative(ks, fs)
        selected = _plateau_start(ks, deriv)
        return cls(
            n_clusters=ks, n_features=fs, derivative=deriv, selected=selected
        )


def _derivative(ks, fs):
    if ks.size == 1:
        return np.zeros(1)
    i = np.arange(ks.size)
    lo, hi = np.maximum(i - 1, 0), np.minimum(i + 1, ks.size - 1)
    ks, fs = ks.astype(np.float64), fs.astype(np.float64)
    return (fs[hi] - fs[lo]) / (ks[hi] - ks[lo])


def _plateau_start(ks, deriv):
    # Moving average of the derivative; near the boundaries the window
    # keeps its full width and is anchored inside the array instead of
    # shrinking. np.argmin breaks ties towards the smallest cluster count.
    n = deriv.size
    width = min(SMOOTHING_WINDOW, n)
    starts = np.clip(np.arange(n) - SMOOTHING_WINDOW // 2, 0, n - width)
    smoothed = sliding_window_view(deriv, width).mean(axis=1)[starts]
    return int(ks[int(np.argmin(smoothed))])


def _usable_cpus():
    """The CPUs this process may run on: the size of its affinity set where
    the OS has one (``taskset`` and cpusets narrow it), else the core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_grid(n_features: int):
    """Geometric grid of ``GRID_POINTS`` points from 2 to ``n_features``,
    deduplicated; ``np.geomspace`` returns both endpoints exactly."""
    if check_integer(n_features, "n_features") < 2:
        return np.array([1], dtype=np.int64)
    return np.unique(
        np.rint(np.geomspace(2, n_features, GRID_POINTS)).astype(np.int64)
    )


class FeatureTree:
    """Standardized data, its Ward tree and a node -> Horn count cache.

    ``cf_curve`` and ``pipeline.fit`` both cut one tree, so a fit that
    selects its own cluster count reuses the curve's tree and Horn counts.
    Every block has the tree's row count, so each call to ``cuts`` draws
    the Horn null's permutations once, into one ``horn._PermutationTable``
    that its new nodes share. Blocks of one width draw the same streams of
    that table, so ``cuts`` passes each width class of new nodes to Horn as
    one stack (one call per class, not per node); a node's count is the one
    it gets alone. ``horn`` describes the table, its sort and the gather of
    a stack's permuted copies.
    ``n_threads`` caps the worker threads that count those stacks, one task
    per width class; it defaults to the CPUs this process may run on, and no
    count depends on it.
    Stages are module globals here, where stage tracers wrap them. A single
    kept column gets an empty linkage, whose only cut is that column.
    """

    def __init__(self, X, horn_params=None, n_threads=None):
        if n_threads is not None and check_integer(n_threads, "n_threads") < 1:
            raise ValueError(f"n_threads must be at least 1, got {n_threads}")
        self.horn_params = check_horn_params(horn_params)
        self.n_threads = n_threads
        self.scaler = standardize_fit(X)
        self.Xs = standardize_apply(self.scaler, X)
        self._count_of_node = {}

    @cached_property
    def linkage(self) -> Linkage:
        """Built on first cut, so callers can reject bad cuts before Ward."""
        m = self.scaler.n_kept
        if m == 1:
            empty = np.empty(0, dtype=np.int64)
            return Linkage(empty, empty, np.empty(0), empty, 1)
        return ward_linkage(feature_distances(self.Xs), m)

    def cuts(self, ks):
        """``(groups, counts)`` of the cut at each cluster count in ``ks``.

        ``counts[i]`` is the Horn component count of ``groups[i]``. Cuts are
        nested, so clusters recur across cuts: each dendrogram node not seen
        before is counted once. Those nodes are grouped by width, and each
        width class goes to Horn as one ``(K, n, m)`` stack; the stacks
        share one permutation table, built here before any worker starts
        and dropped on return.
        """
        ks = check_numbers(ks, "ks", 1, integer=True).tolist()
        cuts = [_cut_groups(self.linkage, k) for k in ks]
        # width -> {new node: its columns}, each in order of first sight
        new_of_width = {}
        for node_ids, groups in cuts:
            for node, cols in zip(node_ids, groups):
                if node not in self._count_of_node:
                    new_of_width.setdefault(len(cols), {})[node] = cols
        table = _PermutationTable(
            self.horn_params, self.Xs.shape[0], max(new_of_width, default=0)
        )

        def count(nodes):
            cols = np.array(list(nodes.values()))
            stack = np.ascontiguousarray(np.moveaxis(self.Xs[:, cols], 1, 0))
            return horn_components(stack, self.horn_params, perms=table)

        stacks = list(new_of_width.values())
        workers = min(len(stacks), self.n_threads or _usable_cpus())
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                counts = list(pool.map(count, stacks))
        else:
            counts = list(map(count, stacks))
        for nodes, stack_counts in zip(stacks, counts):
            self._count_of_node.update(zip(nodes, stack_counts))
        return [
            (groups, [self._count_of_node[node] for node in node_ids])
            for node_ids, groups in cuts
        ]

    def curve(self, grid=None) -> CfCurve:
        """The cf-curve over ``grid`` (default: ``default_grid``)."""
        m = self.scaler.n_kept
        grid = default_grid(m) if grid is None else check_numbers(
            grid, "grid values", integer=True
        )
        if grid.size < 1:
            raise ValueError("grid is empty")
        if (np.diff(grid) <= 0).any():
            raise ValueError("grid must be strictly increasing")
        if grid[0] < 1 or grid[-1] > m:
            raise ValueError(f"grid values must lie in [1, {m}]")
        counts = [sum(counts) for _, counts in self.cuts(grid)]
        return CfCurve.from_points(grid, counts)


def cf_curve(
    X,
    grid=None,
    horn_params: HornParams | None = None,
    n_threads: int | None = None,
) -> CfCurve:
    """Trace the cluster-feature curve over a grid of cluster counts.

    One ``FeatureTree`` is cut at every grid value (default: ``default_grid``
    of the kept column count); the feature count at each cut is the sum of
    per-cluster Horn counts, each computed once per distinct dendrogram node,
    on up to ``n_threads`` workers as in ``FeatureTree``. ``fit`` with
    ``n_clusters=None`` selects from this same curve.
    """
    return FeatureTree(X, horn_params, n_threads).curve(grid)
