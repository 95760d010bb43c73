"""Property tests over random small inputs, constant columns and n < m."""

import os
import tempfile

import numpy as np
from hypothesis import example, given, settings, strategies as st

from sparca.horn import HornParams, horn_components
from sparca.pipeline import fit, load_model, save_model, transform

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)

# Always tried: fewer rows than columns, two of them constant.
WIDE_WITH_CONSTANTS = np.random.default_rng(0).standard_normal((3, 8))
WIDE_WITH_CONSTANTS[:, [2, 5]] = 1.5


@st.composite
def fit_cases(draw):
    """``(X, n_clusters)``: a few rows and columns, some columns constant
    (never all), and a cluster count in range or ``None`` for automatic
    selection."""
    n = draw(st.integers(3, 10))
    m = draw(st.integers(2, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    X = np.random.default_rng(seed).standard_normal((n, m))
    constant = sorted(draw(st.sets(st.integers(0, m - 1), max_size=m - 1)))
    X[:, constant] = draw(st.floats(-5.0, 5.0))
    n_kept = m - len(constant)
    n_clusters = draw(st.none() | st.integers(1, n_kept))
    return X, n_clusters


def _model_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(model, path)
        with open(path, "rb") as fh:
            return fh.read()


@PROPERTY_SETTINGS
@given(fit_cases())
@example((WIDE_WITH_CONSTANTS, None))
@example((WIDE_WITH_CONSTANTS, 3))
def test_fit_bytes_do_not_depend_on_thread_count(case):
    X, n_clusters = case
    horn = HornParams(seed=1)
    one = fit(X, n_clusters, horn_params=horn, n_threads=1)
    two = fit(X, n_clusters, horn_params=horn, n_threads=2)
    assert _model_bytes(one) == _model_bytes(two)


@PROPERTY_SETTINGS
@given(fit_cases(), st.integers(0, 2**32 - 1))
@example((WIDE_WITH_CONSTANTS, None), 0)
def test_save_load_transform_round_trip(case, batch_seed):
    X, n_clusters = case
    model = fit(X, n_clusters, n_threads=1)
    batch = np.random.default_rng(batch_seed).standard_normal((4, X.shape[1]))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_model(model, path)
        loaded = load_model(path)
    before, after = transform(model, batch), transform(loaded, batch)
    assert np.array_equal(before.values, after.values)
    assert before.column_provenance == after.column_provenance
    assert loaded.components == model.components


@PROPERTY_SETTINGS
@given(fit_cases(), st.lists(st.integers(-6, 6), min_size=12, max_size=12))
@example((WIDE_WITH_CONSTANTS, None), [3, -6] * 6)
def test_power_of_two_column_scales_change_only_the_scaler(case, exps):
    # Scaling by 2**e is exact, so standardized data and everything fitted
    # on it keep their bits; only the scaler's statistics move.
    X, n_clusters = case
    scale = np.ldexp(1.0, exps[: X.shape[1]])
    # Near-constant columns keep their scale: theirs could cross VARIANCE_EPS.
    scale[X.std(axis=0) <= 1e-6] = 1.0
    base = fit(X, n_clusters, n_threads=1)
    scaled = fit(X * scale, n_clusters, n_threads=1)
    assert np.array_equal(base.assignment.labels, scaled.assignment.labels)
    assert [(c.entries, c.achieved_evr) for c in base.components] == [
        (c.entries, c.achieved_evr) for c in scaled.components
    ]
    assert np.array_equal(base.scaler.means * scale, scaled.scaler.means)
    assert np.array_equal(base.scaler.stds * scale, scaled.scaler.stds)


@st.composite
def horn_blocks(draw):
    """A standardized block of 1-3 latent factors plus noise, and one
    shift per column."""
    n = draw(st.integers(10, 60))
    m = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, 3))
    x = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
    x += rng.standard_normal((n, m))
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    shifts = draw(st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m))
    return x, np.array(shifts)


@PROPERTY_SETTINGS
@given(horn_blocks())
def test_column_shifts_leave_the_horn_count_unchanged(case):
    # The block is centred once, before its permuted copies are gathered.
    x, shifts = case
    params = HornParams(seed=2)
    assert horn_components(x + shifts, params) == horn_components(x, params)


def test_column_permutations_keep_the_horn_count_distribution():
    # A column permutation moves columns onto other draw streams, so the
    # count is equivariant only in distribution. This block (a strong and
    # a weak factor, three columns each) counts 1 or 2 depending on the
    # seed. Over 200 seeds its counts and those of a fixed permutation of
    # its columns must have the same mean, within 4 standard errors of
    # their paired differences.
    rng = np.random.default_rng(0)
    factors = rng.standard_normal((60, 2)) * [1.0, np.sqrt(0.3)]
    x = np.repeat(factors, 3, axis=1) + rng.standard_normal((60, 6))
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    stack = np.stack([x, x[:, np.random.default_rng(1).permutation(6)]])
    counts = np.array(
        [horn_components(stack, HornParams(seed=s)) for s in range(200)]
    )
    assert np.unique(counts[:, 0]).size >= 2
    diff = counts[:, 0] - counts[:, 1]
    assert (diff != 0).any()  # not equivariant draw for draw
    assert abs(diff.mean()) <= 4 * diff.std(ddof=1) / np.sqrt(diff.size)
