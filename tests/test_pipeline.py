import dataclasses
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import sparca.pipeline
from sparca.cfcurve import cf_curve
from sparca.compress import pca_fit
from sparca.data import standardize_apply
from sparca.horn import HornParams
from sparca.pipeline import (
    FORMAT_VERSION,
    fit,
    load_model,
    save_model,
    transform,
)

from conftest import adjusted_rand_index, block_factor_data


@pytest.fixture(scope="module")
def block_model():
    X, blocks = block_factor_data(500, seed=0)
    model = fit(X, n_clusters=8, horn_params=HornParams(seed=0))
    return X, blocks, model


# Rows per transform block once a test patches the block budget.
_ROWS = 7


@pytest.fixture(scope="module")
def served_model():
    """A model whose input has a dropped constant column (index 0) and kept
    columns that carry no weight, with the model's support columns."""
    X, _ = block_factor_data(200, n_blocks=4, block_size=12, seed=5)
    X = np.column_stack([np.full(X.shape[0], 3.0), X])
    model = fit(X, n_clusters=4, horn_params=HornParams(seed=0))
    support = {f for c in model.components for f, _ in c.entries}
    return X, model, sorted(support)


@pytest.fixture
def small_blocks(monkeypatch, served_model):
    """``served_model`` with ``transform``'s blocks cut to ``_ROWS`` rows."""
    X = served_model[0]
    monkeypatch.setattr(sparca.pipeline, "_BLOCK_ENTRIES", _ROWS * X.shape[1])
    return served_model


class TestFit:
    def test_singleton_identity(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 6))
        model = fit(X, n_clusters=6)
        assert model.n_reduced == 6
        dense = model.projection.toarray()
        for j, comp in enumerate(model.components):
            assert comp.support_size == 1
            assert abs(comp.entries[0][1] - 1.0) <= 1e-10
            assert np.count_nonzero(dense[:, j]) == 1

    def test_block_recovery(self, block_model):
        _, blocks, model = block_model
        assert model.n_reduced == 8
        assert adjusted_rand_index(model.assignment.labels, blocks) == 1.0

    def test_structural_invariants(self, block_model):
        X, _, model = block_model
        # p = sum of per-cluster component counts and p < m here
        assert model.n_reduced < model.scaler.n_kept
        supports = {}
        for comp in model.components:
            for feature, _ in comp.entries:
                cluster_of = supports.setdefault(feature, comp.cluster)
                assert cluster_of == comp.cluster
        # supports live inside their own cluster's feature set
        kept = model.scaler.kept_features
        for comp in model.components:
            members = set(
                kept[model.assignment.members(comp.cluster)].tolist()
            )
            assert set(comp.feature_indices.tolist()) <= members

    def test_components_ordered_by_cluster_then_rank(self, block_model):
        _, _, model = block_model
        order = [(c.cluster, c.rank) for c in model.components]
        assert order == sorted(order)

    def test_evr_meets_threshold_recomputed(self, block_model):
        X, _, model = block_model
        Xs = standardize_apply(model.scaler, X)
        for comp in model.components:
            cols = model.assignment.members(comp.cluster)
            block = Xs[:, cols]
            pca = pca_fit(block, max(c.rank for c in model.components
                                     if c.cluster == comp.cluster) + 1)
            target = pca.scores[:, comp.rank]
            kept = model.scaler.kept_features
            local = {int(f): i for i, f in enumerate(kept[cols])}
            approx = block[:, [local[i] for i in comp.feature_indices]] @ comp.weights
            centered = target - target.mean()
            evr = 1.0 - float(((target - approx) ** 2).sum()) / float(
                centered @ centered
            )
            assert np.isclose(evr, comp.achieved_evr, atol=1e-8)
            assert comp.achieved_evr >= 0.95 or comp.full_support

    def test_threads_do_not_change_result(self):
        X, _ = block_factor_data(200, n_blocks=4, seed=3)
        one = fit(X, n_clusters=4, n_threads=1)
        four = fit(X, n_clusters=4, n_threads=4)
        assert [c.entries for c in one.components] == [
            c.entries for c in four.components
        ]
        assert np.array_equal(
            one.assignment.labels, four.assignment.labels
        )

    def test_clusters_are_fitted_on_the_calling_thread(self, monkeypatch):
        # n_threads sizes only the pool over Horn's stacks.
        X, _ = block_factor_data(200, n_blocks=4, seed=3)
        threads = []
        for name in ("pca_fit", "omp_fit"):
            real = getattr(sparca.pipeline, name)

            def recorded(*args, real=real, **kwargs):
                threads.append(threading.get_ident())
                return real(*args, **kwargs)

            monkeypatch.setattr(sparca.pipeline, name, recorded)
        model = fit(X, n_clusters=4, n_threads=4)
        assert len(threads) == model.n_clusters + model.n_reduced
        assert set(threads) == {threading.get_ident()}

    def test_cluster_count_validation(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 5))
        with pytest.raises(ValueError, match="out of range"):
            fit(X, n_clusters=6)
        with pytest.raises(ValueError, match="out of range"):
            fit(X, n_clusters=0)
        with pytest.raises(ValueError, match="n_clusters must be an integer"):
            fit(X, n_clusters=True)

    def test_variance_threshold_validation(self):
        X = np.random.default_rng(1).standard_normal((20, 5))
        for threshold in ("0.9", float("nan"), 0.0, 1.5, True):
            with pytest.raises(ValueError, match="variance_threshold must"):
                fit(X, n_clusters=2, variance_threshold=threshold)

    def test_one_row_rejected(self):
        with pytest.raises(ValueError, match="^need at least 2 samples"):
            fit(np.arange(4.0)[None, :])

    def test_complex_input_rejected(self):
        X = np.random.default_rng(1).standard_normal((20, 5))
        with pytest.raises(ValueError, match="X must be real"):
            fit(X.astype(complex), n_clusters=2)

    def test_projection_and_cluster_count_are_derived(self, block_model):
        _, _, model = block_model
        assert {f.name for f in dataclasses.fields(model)} == {
            "scaler", "variance_threshold", "horn_params", "assignment",
            "components",
        }
        assert model.n_clusters == model.assignment.n_clusters == 8
        P = model.projection
        assert P is model.projection
        assert P.format == "csc"
        assert P.shape == (model.scaler.n_kept, model.n_reduced)
        assert P.nnz == sum(c.support_size for c in model.components)

    def test_constant_columns_do_not_shift_indices(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 5))
        X[:, 2] = 7.0  # dropped by the scaler
        model = fit(X, n_clusters=4)
        used = {f for c in model.components for f, _ in c.entries}
        assert 2 not in used
        assert used <= {0, 1, 3, 4}

    def test_single_kept_feature(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([rng.standard_normal(30), np.full(30, 1.0)])
        model = fit(X, n_clusters=1)
        assert model.n_reduced == 1
        assert model.components[0].entries[0][0] == 0


class TestTransform:
    def test_matches_dense_projection(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((100, 30))
        model = fit(X, n_clusters=10)
        reduced = transform(model, X)
        dense = standardize_apply(model.scaler, X) @ model.projection.toarray()
        assert np.abs(reduced.values - dense).max() < 1e-10

    def test_linear_on_standardized_inputs(self, block_model):
        X, _, model = block_model
        rng = np.random.default_rng(5)
        P = model.projection
        A = rng.standard_normal((10, model.scaler.n_kept))
        B = rng.standard_normal((10, model.scaler.n_kept))
        combo = np.asarray((2.0 * A + 3.0 * B) @ P)
        parts = 2.0 * np.asarray(A @ P) + 3.0 * np.asarray(B @ P)
        assert np.allclose(combo, parts, atol=1e-10)

    def test_provenance(self, block_model):
        X, _, model = block_model
        reduced = transform(model, X[:5])
        assert len(reduced.column_provenance) == model.n_reduced
        for (cluster, rank, support), comp in zip(
            reduced.column_provenance, model.components
        ):
            assert (cluster, rank) == comp.source
            assert support == tuple(int(i) for i, _ in comp.entries)

    def test_dimension_mismatch(self, block_model):
        X, _, model = block_model
        with pytest.raises(ValueError, match="columns"):
            transform(model, X[:, :-1])

    def test_provenance_is_shared(self, block_model):
        X, _, model = block_model
        first = transform(model, X[:2]).column_provenance
        assert transform(model, X[:3]).column_provenance is first

    @pytest.mark.parametrize(
        "rows", [1, _ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 2]
    )
    def test_block_edges_equal_the_reference(self, small_blocks, rows):
        X, model, _ = small_blocks
        batch = X[:rows]
        expected = standardize_apply(model.scaler, batch) @ model.projection
        assert np.array_equal(transform(model, batch).values, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["dropped", "unweighted", "last_block"])
    def test_non_finite_anywhere_is_rejected(self, small_blocks, where, bad):
        X, model, support = small_blocks
        unweighted = sorted(
            set(model.scaler.kept_features.tolist()) - set(support)
        )
        assert unweighted and 0 not in model.scaler.kept_features
        row, col = {
            "dropped": (0, 0),
            "unweighted": (_ROWS, unweighted[0]),
            "last_block": (3 * _ROWS + 1, support[-1]),
        }[where]
        batch = X[: 3 * _ROWS + 2].copy()
        batch[row, col] = bad
        with pytest.raises(ValueError, match="X contains NaN or infinite"):
            transform(model, batch)

    def test_complex_batch_rejected(self, small_blocks):
        X, model, _ = small_blocks
        with pytest.raises(ValueError, match="X must be real"):
            transform(model, X[: 3 * _ROWS + 2].astype(complex))

    def test_int_and_list_inputs(self, small_blocks):
        X, model, _ = small_blocks
        ints = np.rint(10.0 * X[: 3 * _ROWS + 2]).astype(np.int64)
        expected = transform(model, ints.astype(np.float64)).values
        assert np.array_equal(transform(model, ints).values, expected)
        assert np.array_equal(transform(model, ints.tolist()).values, expected)

    def test_large_means_and_small_stds(self):
        X, _ = block_factor_data(300, seed=6)
        means = 1e6 * (1.0 + np.arange(X.shape[1]) / X.shape[1])
        X = means + 1e-2 * X
        model = fit(X, n_clusters=8, horn_params=HornParams(seed=0))
        dense = standardize_apply(model.scaler, X) @ model.projection.toarray()
        assert np.abs(transform(model, X).values - dense).max() < 1e-10

    def test_peak_memory_is_the_output_plus_blocks(self):
        X, _ = block_factor_data(300, n_blocks=12, block_size=12, seed=7)
        model = fit(X, n_clusters=12, horn_params=HornParams(seed=0))
        batch, _ = block_factor_data(36000, n_blocks=12, block_size=12, seed=8)
        transform(model, batch[:1])  # derive the model's serving parts
        tracemalloc.start()
        try:
            values = transform(model, batch).values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = 8 * sparca.pipeline._BLOCK_ENTRIES
        assert peak < values.nbytes + 4 * block_bytes

    def test_integer_batch_is_converted_one_block_at_a_time(self):
        # A uint8 batch converted whole to float64 would take 8x its size.
        X, _ = block_factor_data(300, n_blocks=12, block_size=12, seed=7)
        model = fit(X, n_clusters=12, horn_params=HornParams(seed=0))
        batch, _ = block_factor_data(36000, n_blocks=12, block_size=12, seed=8)
        pixels = np.clip(np.rint(40.0 * batch + 128.0), 0, 255).astype(np.uint8)
        expected = transform(model, pixels.astype(np.float64)).values
        tracemalloc.start()
        try:
            values = transform(model, pixels).values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = 8 * sparca.pipeline._BLOCK_ENTRIES
        assert peak < values.nbytes + 4 * block_bytes
        assert np.array_equal(values, expected)


def _feature_not_kept(doc):
    doc["components"][0]["entries"][0][0] = len(doc["scaler"]["means"])


def _short_stds(doc):
    doc["scaler"]["stds"].pop()


def _zero_std(doc):
    doc["scaler"]["stds"][doc["scaler"]["kept_features"][0]] = 0.0


def _short_assignment(doc):
    doc["assignment"].pop()


def _duplicated_component(doc):
    doc["components"].append(dict(doc["components"][0]))


def _cluster_without_components(doc):
    doc["components"] = [c for c in doc["components"] if c["cluster"] != 0]


def _rank_gap(doc):
    doc["components"][0]["rank"] += 1


def _empty_entries(doc):
    doc["components"][0]["entries"] = []


def _set_threshold(value):
    def corrupt(doc):
        doc["variance_threshold"] = value

    return corrupt


def _set_evr(value):
    def corrupt(doc):
        doc["components"][0]["evr"] = value

    return corrupt


def _set_n_clusters(value):
    def corrupt(doc):
        doc["n_clusters"] = value

    return corrupt


def _set_seed(value):
    def corrupt(doc):
        doc["horn"]["seed"] = value

    return corrupt


def _string_label(doc):
    doc["assignment"][0] = "a"


def _shift(*keys):
    """Add 0.5 to the integer at ``doc[keys[0]][keys[1]]...``, which a
    truncating load would read back unchanged."""
    def corrupt(doc):
        *path, last = keys
        for key in path:
            doc = doc[key]
        doc[last] += 0.5

    return corrupt


def _boolean(*keys):
    """Set ``doc[keys[0]][keys[1]]...`` to ``true``, which a load that takes
    booleans for numbers would read as 1."""
    def corrupt(doc):
        *path, last = keys
        for key in path:
            doc = doc[key]
        doc[last] = True

    return corrupt


def _set_weight(value):
    def corrupt(doc):
        doc["components"][0]["entries"][0][1] = value

    return corrupt


def _set_horn(key, value):
    def corrupt(doc):
        doc["horn"][key] = value

    return corrupt


def _drop_horn(key):
    def corrupt(doc):
        del doc["horn"][key]

    return corrupt


def _repeated_feature(doc):
    feature, _ = doc["components"][0]["entries"][0]
    doc["components"][0]["entries"][:1] = [[feature, 0.5], [feature, 1.0]]


def _set_at(value, *keys):
    """Set ``doc[keys[0]][keys[1]]...`` to ``value``."""
    def corrupt(doc):
        *path, last = keys
        for key in path:
            doc = doc[key]
        doc[last] = value

    return corrupt


def _unsorted_kept(doc):
    kept = doc["scaler"]["kept_features"]
    kept[0], kept[1] = kept[1], kept[0]


def _kept_past_the_end(doc):
    doc["scaler"]["kept_features"][-1] = len(doc["scaler"]["means"])


def _label_past_the_clusters(doc):
    doc["assignment"][0] = doc["n_clusters"]


class TestSerialization:
    def test_round_trip_transforms_identically(self, block_model, tmp_path):
        X, _, model = block_model
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        before = transform(model, X).values
        after = transform(loaded, X).values
        assert np.array_equal(before, after)

    def test_same_seed_same_bytes(self, tmp_path):
        X, _ = block_factor_data(150, n_blocks=3, seed=9)
        for run in range(2):
            model = fit(X, n_clusters=3, horn_params=HornParams(seed=5))
            save_model(model, tmp_path / f"m{run}.json")
        assert (tmp_path / "m0.json").read_bytes() == (
            tmp_path / "m1.json"
        ).read_bytes()

    def test_auto_clusters_match_the_cf_curve_selection(self, tmp_path):
        X, _ = block_factor_data(150, n_blocks=3, seed=9)
        horn = HornParams(seed=5)
        selected = cf_curve(X, horn_params=horn).selected
        save_model(fit(X, horn_params=horn), tmp_path / "auto.json")
        save_model(
            fit(X, n_clusters=selected, horn_params=horn),
            tmp_path / "fixed.json",
        )
        assert (tmp_path / "auto.json").read_bytes() == (
            tmp_path / "fixed.json"
        ).read_bytes()

    def test_unknown_version_rejected(self, block_model, tmp_path):
        _, _, model = block_model
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        # JSON true equals 1 in Python, the current version.
        for version in (FORMAT_VERSION + 1, True):
            doc["format_version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="unsupported format_version"):
                load_model(path)

    def test_truncated_file_rejected(self, block_model, tmp_path):
        _, _, model = block_model
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(ValueError, match="not a valid model file"):
            load_model(path)

    def test_non_utf8_file_rejected_with_its_path(self, block_model, tmp_path):
        _, _, model = block_model
        path = tmp_path / "model.json"
        save_model(model, path)
        path.write_bytes(b"\xff" + path.read_bytes())
        with pytest.raises(ValueError, match="not a valid model file") as err:
            load_model(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize(
        "corrupt, match",
        [
            (_feature_not_kept, "not a kept feature"),
            (_short_stds, "stds"),
            (_zero_std, "std of at least"),
            (_short_assignment, "labels for"),
            (_duplicated_component, "appears twice"),
            (_cluster_without_components, "cluster 0 has no components"),
            (_rank_gap, "ranks"),
            (_empty_entries, "no entries"),
            (_set_threshold(2.0), "variance_threshold 2.0 is not in"),
            (_set_threshold(-1.0), "variance_threshold -1.0 is not in"),
            (_set_threshold(float("nan")), "variance_threshold nan is not in"),
            (_set_threshold(float("inf")), "variance_threshold inf is not in"),
            (_set_evr(float("nan")), r"evr nan, which is not in \[0, 1\]"),
            (_set_evr(float("inf")), r"evr inf, which is not in \[0, 1\]"),
            (_set_evr(1.5), r"evr 1.5, which is not in \[0, 1\]"),
            (_set_evr(-0.1), r"evr -0.1, which is not in \[0, 1\]"),
            (_set_threshold("abc"), "malformed model file .*'abc'"),
            (_set_n_clusters("two"), "malformed model file .*'two'"),
            (_set_n_clusters(float("inf")), "malformed model file .*infinity"),
            (_string_label, "malformed model file .*'a'"),
            (_set_seed(-1), "malformed model file .*seed must be an integer"),
            (_set_seed(2**64), "malformed model file .*seed must be an"),
            (_set_n_clusters(3.7), "malformed model file .*n_clusters must be"),
            (_shift("assignment", 0), "malformed model file .*assignment"),
            (_shift("scaler", "kept_features", 0), "malformed .*kept_features"),
            (_shift("components", 0, "cluster"), "malformed model file .*cluster"),
            (_shift("components", 0, "rank"), "malformed model file .*rank"),
            (_shift("components", 0, "entries", 0, 0), "malformed .*features"),
            (_set_weight(float("nan")), r"component \(0, 0\) has a non-finite"),
            (_set_weight(float("inf")), r"component \(0, 0\) has a non-finite"),
            (_repeated_feature, "features are not strictly increasing"),
            (_set_seed(1.9), "malformed .*seed must be an integer"),
            (_set_horn("n_repeats", 20.5), "malformed .*n_repeats must be an"),
            (_set_horn("n_repeats", 2**20 + 1), "malformed .*n_repeats must"),
            (_drop_horn("n_repeats"), "malformed model file .*'n_repeats'"),
            (_drop_horn("percentile"), "malformed model file .*'percentile'"),
            (_drop_horn("seed"), "malformed model file .*KeyError.'seed'"),
            (_boolean("variance_threshold"), "variance_threshold .*got True"),
            (_boolean("scaler", "means", 0), "means must hold numbers"),
            (_boolean("scaler", "stds", 0), "stds must hold numbers"),
            (_boolean("scaler", "kept_features", 1), "kept_features must hold"),
            (_boolean("horn", "n_repeats"), "n_repeats must be .*got True"),
            (_boolean("horn", "percentile"), "percentile must be .*got True"),
            (_boolean("horn", "seed"), "seed must be an integer .*got True"),
            (_boolean("assignment", 0), "assignment must hold numbers"),
            (_boolean("n_clusters"), "n_clusters must hold numbers, got True"),
            (_boolean("components", 0, "cluster"), "cluster must hold numbers"),
            (_boolean("components", 0, "rank"), "rank must hold numbers"),
            (_boolean("components", 0, "evr"), "evr must hold numbers"),
            (_boolean("components", 0, "entries", 0, 0), "features must hold"),
            (_boolean("components", 0, "entries", 0, 1), "weights must hold"),
            (_set_at(float("nan"), "scaler", "means", 0), "must be finite"),
            (_set_at(float("inf"), "scaler", "stds", 0), "must be finite"),
            (_unsorted_kept, "kept_features must be strictly increasing"),
            (_kept_past_the_end, r"kept_features .* in \[0, 80\)"),
            (_set_at(-1, "scaler", "kept_features", 0), r"in \[0, 80\)"),
            (_label_past_the_clusters, r"labels must lie in \[0, 8\)"),
        ],
    )
    def test_inconsistent_parts_rejected(
        self, block_model, tmp_path, corrupt, match
    ):
        _, _, model = block_model
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match) as excinfo:
            load_model(path)
        assert str(path) in str(excinfo.value)

    def test_loaded_model_is_served_without_the_projection(
        self, block_model, tmp_path
    ):
        X, _, model = block_model
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        values = transform(loaded, X).values
        assert "projection" not in vars(loaded)
        assert np.array_equal(
            values, standardize_apply(loaded.scaler, X) @ loaded.projection
        )

    @pytest.mark.parametrize("top", [[], [1, 2], "model", 3, None])
    def test_top_level_that_is_not_an_object_rejected(self, tmp_path, top):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(top))
        with pytest.raises(ValueError, match="malformed model") as excinfo:
            load_model(path)
        assert str(path) in str(excinfo.value)

    def test_missing_key_rejected(self, block_model, tmp_path):
        _, _, model = block_model
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        del doc["scaler"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="malformed"):
            load_model(path)


def test_import_leaves_scipy_unloaded():
    # Every sparca command imports sparca.cli first.
    code = "import sys, sparca.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(sparca.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


def test_package_version_is_the_one_model_files_record():
    # pyproject.toml reads the version from sparca._version, the string
    # save_model writes as library_version, instead of repeating it.
    config = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = Path(__file__).resolve().parents[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is "beta"
        project = config.read_configuration(
            root / "pyproject.toml", expand=True
        )["project"]
    assert "version" in project["dynamic"]
    assert project["version"] == sparca.__version__
