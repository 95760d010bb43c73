import gzip
import json
import re
import struct

import numpy as np
import pytest

import sparca.cfcurve
import sparca.cli
import sparca.evalkit
from sparca.cfcurve import default_grid
from sparca.cli import main
from sparca.cluster import _cut_groups, feature_distances, ward_linkage
from sparca.data import load_csv, standardize_apply, standardize_fit, write_csv
from sparca.pipeline import load_model

from conftest import block_factor_data


@pytest.fixture(scope="module")
def block_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "blocks.csv"
    X, _ = block_factor_data(400, seed=0)
    write_csv(X, path)
    return path


@pytest.fixture(scope="module")
def labeled_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "labeled.csv"
    X, _ = block_factor_data(360, n_blocks=4, block_size=8, seed=5)
    factors = np.add.reduceat(X, np.arange(0, 32, 8), axis=1)
    y = (factors[:, 0] - factors[:, 2] > 0).astype(float)
    write_csv(np.column_stack([X, y]), path)
    return path


class TestFit:
    def test_explicit_clusters(self, block_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = main([
            "fit", "--input", str(block_csv), "--clusters", "8",
            "--variance", "0.95", "--out", str(out), "--seed", "0",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "8 clusters -> 8 features" in text
        model = load_model(out)
        assert model.n_reduced == 8

    def test_auto_selection(self, block_csv, tmp_path):
        out = tmp_path / "model.json"
        code = main([
            "fit", "--input", str(block_csv),
            "--out", str(out), "--seed", "0",
        ])
        assert code == 0
        model = load_model(out)
        # the automatic choice lands on the plateau of the curve, where the
        # reduced feature count equals the true factor count
        assert model.n_reduced == 8
        # and it is the count cf-curve reports for the same file and seed
        curve_path = tmp_path / "curve.csv"
        assert main([
            "cf-curve", "--input", str(block_csv),
            "--out", str(curve_path), "--seed", "0",
        ]) == 0
        first = curve_path.read_text().splitlines()[0]
        assert first == f"# selected = {model.n_clusters}"

    def test_auto_builds_one_tree_and_runs_horn_once_per_node(
        self, block_csv, tmp_path, capsys, monkeypatch
    ):
        X = load_csv(block_csv)
        Xs = standardize_apply(standardize_fit(X), X)
        linkage = ward_linkage(feature_distances(Xs), Xs.shape[1])
        nodes = {
            node
            for k in default_grid(Xs.shape[1])
            for node in _cut_groups(linkage, int(k))[0]
        }
        ward_calls = 0
        horn_blocks = []
        ward, horn = sparca.cfcurve.ward_linkage, sparca.cfcurve.horn_components

        def counting_ward(d, m):
            nonlocal ward_calls
            ward_calls += 1
            return ward(d, m)

        def recording_horn(x, params, **kwargs):
            horn_blocks.extend(block.tobytes() for block in x)
            return horn(x, params, **kwargs)

        monkeypatch.setattr(sparca.cfcurve, "ward_linkage", counting_ward)
        monkeypatch.setattr(sparca.cfcurve, "horn_components", recording_horn)
        code = main([
            "fit", "--input", str(block_csv), "--out", str(tmp_path / "m.json"),
            "--seed", "0", "--threads", "1",
        ])
        assert code == 0
        assert ward_calls == 1
        assert len(horn_blocks) == len(set(horn_blocks)) == len(nodes)
        assert "auto-selected 2 clusters (8 features on the curve)" in (
            capsys.readouterr().out
        )

    def test_missing_input(self, tmp_path, capsys):
        code = main([
            "fit", "--input", str(tmp_path / "nope.csv"), "--clusters", "2",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code != 0
        assert "nope.csv" in capsys.readouterr().err

    def test_unknown_flag(self, block_csv):
        with pytest.raises(SystemExit) as excinfo:
            main(["fit", "--input", str(block_csv), "--bogus"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_one_rejected(
        self, block_csv, tmp_path, capsys, threads
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "fit", "--input", str(block_csv), "--clusters", "2",
                "--out", str(tmp_path / "m.json"), "--threads", threads,
            ])
        assert excinfo.value.code == 2
        assert "--threads: must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("from_env", [False, True])
    def test_negative_seed_is_reported(
        self, block_csv, tmp_path, capsys, monkeypatch, from_env
    ):
        argv = [
            "fit", "--input", str(block_csv), "--clusters", "2",
            "--out", str(tmp_path / "m.json"),
        ]
        if from_env:
            monkeypatch.setenv("SPARCA_SEED", "-1")
        else:
            argv += ["--seed", "-1"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "error: seed must be an integer in [0, 2**64), got -1" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.json").exists()


class TestEnvironmentDefaults:
    @pytest.mark.parametrize(
        "name, value",
        [("SPARCA_SEED", "abc"), ("SPARCA_THREADS", "1.5"),
         ("SPARCA_THREADS", "0")],
    )
    def test_bad_value_is_a_usage_error(
        self, block_csv, tmp_path, capsys, monkeypatch, name, value
    ):
        monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as excinfo:
            main([
                "fit", "--input", str(block_csv), "--clusters", "2",
                "--out", str(tmp_path / "m.json"),
            ])
        assert excinfo.value.code == 2
        assert f"invalid ${name}={value!r}" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_valid_values_become_defaults(
        self, block_csv, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("SPARCA_SEED", "7")
        monkeypatch.setenv("SPARCA_THREADS", "3")
        seen = {}

        def record(args):
            seen.update(seed=args.seed, threads=args.threads)
            return 0

        monkeypatch.setattr(sparca.cli, "cmd_fit", record)
        assert main([
            "fit", "--input", str(block_csv), "--out", str(tmp_path / "m.json"),
        ]) == 0
        assert seen == {"seed": 7, "threads": 3}

    def test_unset_values_leave_the_defaults(
        self, block_csv, tmp_path, monkeypatch
    ):
        # No thread count reaches the library: FeatureTree picks it.
        monkeypatch.delenv("SPARCA_SEED", raising=False)
        monkeypatch.delenv("SPARCA_THREADS", raising=False)
        seen = {}

        def record(args):
            seen.update(seed=args.seed, threads=args.threads)
            return 0

        monkeypatch.setattr(sparca.cli, "cmd_fit", record)
        assert main([
            "fit", "--input", str(block_csv), "--out", str(tmp_path / "m.json"),
        ]) == 0
        assert seen == {"seed": 0, "threads": None}

    def test_bad_values_do_not_stop_transform(
        self, block_csv, tmp_path, monkeypatch
    ):
        model_path = tmp_path / "model.json"
        assert main([
            "fit", "--input", str(block_csv), "--clusters", "4",
            "--out", str(model_path), "--seed", "0", "--threads", "1",
        ]) == 0
        monkeypatch.setenv("SPARCA_SEED", "abc")
        monkeypatch.setenv("SPARCA_THREADS", "0")
        assert main([
            "transform", "--input", str(block_csv),
            "--model", str(model_path), "--out", str(tmp_path / "r.csv"),
        ]) == 0
        assert load_csv(tmp_path / "r.csv").shape[0] == 400

    def test_bad_thread_count_does_not_stop_synth(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPARCA_THREADS", "0")
        out = tmp_path / "synth.csv"
        assert main([
            "synth", "--samples", "6", "--features", "4", "--rank", "2",
            "--out", str(out),
        ]) == 0
        assert load_csv(out).shape == (6, 4)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["transform", "--input", "x.csv", "--model", "m.json"], "--seed"),
        (["transform", "--input", "x.csv", "--model", "m.json"], "--threads"),
        (["synth", "--samples", "5", "--features", "4", "--rank", "2"],
         "--threads"),
        (["profile", "--repeats", "0"], "--threads"),
    ],
    ids=["transform-seed", "transform-threads", "synth-threads",
         "profile-threads"],
)
def test_flags_a_command_does_not_read_are_rejected(
    tmp_path, capsys, argv, flag
):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--out", str(out), flag, "2"])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, out", [("fit", "--out"), ("cf-curve", "--out"),
                     ("eval", "--out-prefix")],
)
def test_seed_is_checked_before_the_input_is_read(
    tmp_path, capsys, command, out
):
    code = main([
        command, "--input", str(tmp_path / "missing.csv"), "--seed", "-1",
        out, str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: seed must be an integer in [0, 2**64), got -1" in err
    assert "missing.csv" not in err


class TestTransform:
    def test_round_trip(self, block_csv, tmp_path):
        model_path = tmp_path / "model.json"
        reduced_path = tmp_path / "reduced.csv"
        assert main([
            "fit", "--input", str(block_csv), "--clusters", "8",
            "--out", str(model_path), "--seed", "0",
        ]) == 0
        assert main([
            "transform", "--input", str(block_csv),
            "--model", str(model_path), "--out", str(reduced_path),
        ]) == 0
        model = load_model(model_path)
        reduced = load_csv(reduced_path)  # provenance comments are skipped
        assert reduced.shape == (400, model.n_reduced)
        header = reduced_path.read_text().splitlines()
        assert header[0].startswith("#")
        assert any("cluster 0 rank 0" in line for line in header[:12])
        assert min(c.achieved_evr for c in model.components) >= 0.95

    def test_dimension_mismatch(self, block_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main([
            "fit", "--input", str(block_csv), "--clusters", "4",
            "--out", str(model_path), "--seed", "0",
        ])
        bad = tmp_path / "bad.csv"
        write_csv(np.ones((5, 3)), bad)
        code = main([
            "transform", "--input", str(bad),
            "--model", str(model_path), "--out", str(tmp_path / "r.csv"),
        ])
        assert code != 0
        assert "columns" in capsys.readouterr().err


class TestCfCurveCommand:
    def test_csv_schema_and_determinism(self, block_csv, tmp_path):
        out_a = tmp_path / "curve_a.csv"
        out_b = tmp_path / "curve_b.csv"
        args = [
            "cf-curve", "--input", str(block_csv),
            "--grid", "2,4,8,16,40,80", "--seed", "3",
        ]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert lines[0].startswith("# selected =")
        assert lines[1] == "n_clusters,n_features,derivative"
        table = load_csv(out_a, has_header=True)
        assert table.shape == (6, 3)
        assert table[-1, 0] == 80 and table[-1, 1] == 80

    def test_grid_is_parsed_as_a_flag(self, block_csv, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "cf-curve", "--input", str(block_csv), "--grid", "2,x",
                "--out", str(out),
            ])
        assert excinfo.value.code == 2
        assert "argument --grid: invalid _int_list value: '2,x'" in (
            capsys.readouterr().err
        )
        assert not out.exists()
        # An empty grid means the default one.
        args = ["cf-curve", "--input", str(block_csv), "--out", str(out)]
        assert main(args + ["--grid", ""]) == 0
        table = load_csv(out, has_header=True)
        assert table[:, 0].tolist() == default_grid(80).tolist()


class TestProfileCommand:
    def test_smoke(self, tmp_path):
        out = tmp_path / "runtime.csv"
        code = main([
            "profile", "--samples", "60,120,240,480",
            "--features", "24,48,96,192", "--repeats", "1",
            "--out", str(out), "--seed", "0",
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# sample_slope")
        assert lines[2] == "axis,size,seconds"
        assert len(lines) == 3 + 8

    def test_zero_repeats_is_reported(self, tmp_path, capsys):
        out = tmp_path / "runtime.csv"
        code = main([
            "profile", "--samples", "60,120,240,480",
            "--features", "24,48,96,192", "--repeats", "0",
            "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: repeats must be an integer >= 1, got 0" in err
        assert "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--samples", "--features"])
    def test_bad_grid_is_a_usage_error(self, tmp_path, capsys, flag):
        out = tmp_path / "runtime.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", flag, "60,1.5", "--out", str(out)])
        assert excinfo.value.code == 2
        assert f"argument {flag}: invalid _int_list value: '60,1.5'" in (
            capsys.readouterr().err
        )
        assert not out.exists()


class TestEvalCommand:
    def test_artifacts(self, labeled_csv, tmp_path, capsys):
        prefix = tmp_path / "eval"
        code = main([
            "eval", "--input", str(labeled_csv), "--label-col", "-1",
            "--clusters", "4", "--embed-frac", "0.34",
            "--train-frac", "0.42", "--test-frac", "0.24",
            "--sigmas", "0,1,50", "--cv-folds", "3",
            "--out-prefix", str(prefix), "--seed", "0",
        ])
        assert code == 0
        acc_lines = (tmp_path / "eval_accuracy.csv").read_text().splitlines()
        assert acc_lines[0] == "model,n_features,lambda,test_accuracy"
        assert acc_lines[1].startswith("sparca,")
        assert acc_lines[2].startswith("pca,")
        clean = {
            row.split(",")[0]: float(row.split(",")[3]) for row in acc_lines[1:]
        }
        noise_lines = (tmp_path / "eval_noise.csv").read_text().splitlines()
        assert noise_lines[0] == "sigma,sparca_accuracy,pca_accuracy"
        first = noise_lines[1].split(",")
        assert float(first[0]) == 0.0
        # sigma = 0 row reproduces the clean test accuracies exactly
        assert float(first[1]) == clean["sparca"]
        assert float(first[2]) == clean["pca"]

    def test_classifier_failure_is_reported(
        self, labeled_csv, tmp_path, capsys, monkeypatch
    ):
        def failing_fit(*args, **kwargs):
            raise RuntimeError("line search failed to make progress")

        monkeypatch.setattr(sparca.evalkit, "l1_logreg_fit", failing_fit)
        code = main([
            "eval", "--input", str(labeled_csv), "--clusters", "4",
            "--cv-folds", "2", "--out-prefix", str(tmp_path / "eval"),
        ])
        assert code == 1
        assert "error: line search" in capsys.readouterr().err

    @pytest.fixture
    def no_fit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fitted before the inputs were checked")

        monkeypatch.setattr(sparca.cli, "fit", refuse)
        monkeypatch.setattr(sparca.evalkit.PcaBaseline, "fit", refuse)

    @pytest.mark.parametrize(
        "relabel, message",
        [
            (lambda y: np.where(np.arange(y.size) < 11, 1e11, y),
             "y holds class id 100000000000, but 360"),
            (lambda y: np.where(np.arange(y.size) == 5, 1e11, y),
             "y holds class id 100000000000, but 360"),
            (lambda y: 2 * y, "class 1 has 0$"),
            (lambda y: 0 * y, "need >= 2 classes"),
        ],
        ids=["huge-ids", "one-huge-id", "missing-class", "one-class"],
    )
    def test_bad_labels_rejected_before_any_fit(
        self, labeled_csv, tmp_path, capsys, no_fit, relabel, message
    ):
        # A bad label used to fail only after both fits, or never, when no
        # split drew it.
        data = load_csv(labeled_csv)
        data[:, -1] = relabel(data[:, -1])
        path = tmp_path / "labels.csv"
        write_csv(data, path)
        code = main([
            "eval", "--input", str(path), "--clusters", "4",
            "--out-prefix", str(tmp_path / "eval"),
        ])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ")
        assert re.search(message, err)
        assert not list(tmp_path.glob("eval_*"))

    @pytest.mark.parametrize("value", ["0,abc", "0,nan", "-1", "0,inf"])
    def test_bad_sigmas_are_a_usage_error(
        self, labeled_csv, tmp_path, capsys, no_fit, value
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "eval", "--input", str(labeled_csv), "--sigmas", value,
                "--out-prefix", str(tmp_path / "eval"),
            ])
        assert excinfo.value.code == 2
        assert "argument --sigmas: " in capsys.readouterr().err
        assert not list(tmp_path.glob("eval_*"))

    @pytest.mark.parametrize("folds", ["1", "-3", "1000"])
    def test_bad_cv_folds_rejected_before_any_fit(
        self, labeled_csv, tmp_path, capsys, no_fit, folds
    ):
        code = main([
            "eval", "--input", str(labeled_csv), "--clusters", "4",
            "--cv-folds", folds, "--out-prefix", str(tmp_path / "eval"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: n_folds must be between 2 and the largest class" in err

    def test_bad_cv_folds_names_the_flag(self, labeled_csv, tmp_path, capsys):
        code = main([
            "eval", "--input", str(labeled_csv), "--clusters", "4",
            "--cv-folds", "500", "--out-prefix", str(tmp_path / "eval"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n_folds must be")
        assert err.rstrip().endswith(", got 500 (--cv-folds)")

    def test_zero_cv_folds_is_reported(self, labeled_csv, tmp_path, capsys):
        code = main([
            "eval", "--input", str(labeled_csv), "--clusters", "4",
            "--cv-folds", "0", "--out-prefix", str(tmp_path / "eval"),
        ])
        assert code == 1
        assert "error: n_folds must be between 2" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-0.2", "1.5", "nan"])
    @pytest.mark.parametrize(
        "flag", ["--embed-frac", "--train-frac", "--test-frac"]
    )
    def test_fraction_outside_unit_interval_is_a_usage_error(
        self, labeled_csv, tmp_path, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "eval", "--input", str(labeled_csv), flag, value,
                "--out-prefix", str(tmp_path / "eval"),
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be in (0, 1], got" in err
        assert not list(tmp_path.iterdir())

    def test_fractions_are_checked_before_the_input_is_read(
        self, tmp_path, capsys
    ):
        code = main([
            "eval", "--input", str(tmp_path / "missing.csv"),
            "--embed-frac", "0.5", "--train-frac", "0.5", "--test-frac", "0.5",
            "--out-prefix", str(tmp_path / "eval"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: split fractions must sum to at most 1" in err
        assert "missing.csv" not in err

    def test_idx_images_need_idx_labels(self, tmp_path, capsys):
        code = main([
            "eval", "--idx-images", str(tmp_path / "missing.idx"),
            "--out-prefix", str(tmp_path / "eval"),
        ])
        assert code == 1
        assert "error: --idx-labels is required with --idx-images" in (
            capsys.readouterr().err
        )

    def test_requires_input(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["eval", "--out-prefix", str(tmp_path / "x")])

    def test_input_and_idx_images_are_exclusive(
        self, labeled_csv, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "eval", "--input", str(labeled_csv),
                "--idx-images", str(tmp_path / "images.idx"),
                "--idx-labels", str(tmp_path / "labels.idx"),
                "--out-prefix", str(tmp_path / "x"),
            ])
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, foreign",
        [
            (["--input", "x.csv", "--idx-labels", "l.idx"], "--idx-labels"),
            (
                ["--idx-images", "i.idx", "--idx-labels", "l.idx",
                 "--label-col", "-1"],
                "--label-col",
            ),
            (
                ["--idx-images", "i.idx", "--idx-labels", "l.idx",
                 "--has-header"],
                "--has-header",
            ),
        ],
        ids=["idx-labels-with-input", "label-col-with-idx", "header-with-idx"],
    )
    def test_flags_of_the_other_source_are_rejected(
        self, tmp_path, capsys, args, foreign
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", *args, "--out-prefix", str(tmp_path / "x")])
        assert excinfo.value.code == 2
        assert f"not allowed with argument {foreign}" in capsys.readouterr().err


    @pytest.mark.parametrize("damage", ["cut", "corrupt"])
    def test_bad_gzip_idx_is_reported(self, tmp_path, capsys, damage):
        packed = gzip.compress(struct.pack(">iiii", 2051, 2, 2, 2) + bytes(8))
        if damage == "cut":
            packed = packed[:-10]
        else:  # the reserved deflate block type
            packed = packed[:10] + b"\xff" + packed[11:]
        images = tmp_path / "images.gz"
        images.write_bytes(packed)
        labels = tmp_path / "labels"
        labels.write_bytes(struct.pack(">ii", 2049, 2) + bytes(2))
        code = main([
            "eval", "--idx-images", str(images), "--idx-labels", str(labels),
            "--out-prefix", str(tmp_path / "x"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {images}: bad gzip data" in err
        assert "Traceback" not in err


class TestSynthCommand:
    def test_writes_matrix(self, tmp_path):
        out = tmp_path / "synth.csv"
        code = main([
            "synth", "--samples", "30", "--features", "50",
            "--rank", "10", "--out", str(out), "--seed", "1",
        ])
        assert code == 0
        X = load_csv(out)
        assert X.shape == (30, 50)
