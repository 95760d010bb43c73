import gzip
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import float_csv
from sparca.data import (
    Scaler,
    as_matrix,
    check_integer,
    check_number,
    check_numbers,
    load_csv,
    load_idx,
    standardize_apply,
    standardize_fit,
    validate_matrix,
    write_csv,
)


class TestStandardize:
    def test_hand_arithmetic(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        scaler = standardize_fit(X)
        assert np.allclose(scaler.means, [2.0, 2.0])
        # population std of (1,2,3) is sqrt(2/3)
        assert np.allclose(scaler.stds, np.sqrt(2.0 / 3.0))
        assert scaler.kept_features.tolist() == [0, 1]

    def test_constant_column_dropped(self):
        X = np.column_stack([np.arange(3.0), np.full(3, 5.0)])
        scaler = standardize_fit(X)
        assert scaler.kept_features.tolist() == [0]
        out = standardize_apply(scaler, X)
        assert out.shape == (3, 1)

    def test_all_constant_errors(self):
        with pytest.raises(ValueError, match="no usable features"):
            standardize_fit(np.full((4, 3), 2.0))

    def test_idempotence_on_standardized_input(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((200, 5))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        scaler = standardize_fit(X)
        assert np.abs(scaler.means).max() < 1e-12
        assert np.abs(scaler.stds - 1.0).max() < 1e-12

    def test_fit_then_apply_normalizes(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((80, 7)) * 13.0 + 4.0
        out = standardize_apply(standardize_fit(X), X)
        assert np.abs(out.mean(axis=0)).max() < 1e-10
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-8

    def test_known_scaler_application(self):
        scaler = Scaler(
            means=np.array([2.0]),
            stds=np.array([1.0]),
            kept_features=np.array([0]),
        )
        out = standardize_apply(scaler, np.array([[2.0], [2.0]]))
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_double_apply_differs(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((50, 10)) * 3.0 + 1.0
        scaler = standardize_fit(X)
        once = standardize_apply(scaler, X)
        twice = standardize_apply(scaler, once)
        # direct recomputation: same scaler applied twice keeps shifting
        # and scaling unless the input was standardized to begin with
        assert np.array_equal(twice, (once - scaler.means) / scaler.stds)
        assert not np.allclose(once, twice)

    def test_width_mismatch(self):
        X = np.random.default_rng(0).standard_normal((10, 4))
        scaler = standardize_fit(X)
        with pytest.raises(ValueError, match="columns"):
            standardize_apply(scaler, X[:, :3])

    def test_width_is_checked_before_the_values(self):
        X = np.random.default_rng(0).standard_normal((10, 4))
        scaler = standardize_fit(X)
        bad = X[:, :3].copy()
        bad[0, 0] = np.nan
        for batch in (bad, bad.astype(complex)):
            with pytest.raises(ValueError, match="expected 4 columns, got 3"):
                standardize_apply(scaler, batch)

    def test_non_finite_rejected(self):
        X = np.ones((3, 2))
        X[1, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            validate_matrix(X)

    def test_complex_rejected(self):
        X = np.ones((3, 2), dtype=complex)
        with pytest.raises(ValueError, match="X must be real, got dtype"):
            validate_matrix(X)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_zero_length_axis_rejected(self, shape):
        message = "^X must have at least one row and one column$"
        with pytest.raises(ValueError, match=message):
            as_matrix(np.empty(shape))


# Cells in the syntax numpy and float() share, and cells neither accepts;
# the syntax where they differ is left out.
_CSV_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from([
        "1e5", "-2.5E-3", ".5", "5.", "+1", " 7 ", "\t8", '"9"', '" 1.5 "',
        '"1"2', "-0.0", "Infinity", "", "x", "1 2", "1e", "--1", "0x1",
        "3 # x",
    ]),
)
_CSV_LINES = st.one_of(
    st.lists(_CSV_CELLS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["", "   ", "# comment", " \t# comment, 1", "a,b"]),
)


class TestCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        X = load_csv(path)
        assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])

    def test_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1.5,2.5\n")
        X = load_csv(path, has_header=True)
        assert X.shape == (1, 2)

    def test_ragged_errors(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_csv(path)

    def test_non_numeric_errors(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(path)

    def test_empty_errors(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data"):
            load_csv(path)

    def test_label_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,2\n")
        X, y = load_csv(path, label_col=-1)
        assert X.shape == (2, 2)
        assert y.tolist() == [0, 2]

    @pytest.mark.parametrize("label_col", [1.5, "-1", True])
    def test_bad_label_col_rejected_before_reading(self, tmp_path, label_col):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,2\n")
        with pytest.raises(ValueError, match="^label_col must be an integer"):
            load_csv(path, label_col=label_col)
        # A missing file would raise FileNotFoundError once it is opened.
        with pytest.raises(ValueError, match="^label_col must be an integer"):
            load_csv(tmp_path / "missing.csv", label_col=label_col)

    @pytest.mark.parametrize("label_col", [3, -4])
    def test_label_col_out_of_range(self, tmp_path, label_col):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0,0\n3.0,4.0,2\n")
        with pytest.raises(
            ValueError, match=f"^label column {label_col} out of range$"
        ):
            load_csv(path, label_col=label_col)

    @pytest.mark.parametrize("label", ["0.5", "-1", "1.0000001"])
    def test_labels_that_are_not_class_ids_rejected(self, tmp_path, label):
        path = tmp_path / "m.csv"
        path.write_text(f"1.0,2.0,0\n3.0,4.0,{label}\n")
        message = "^label column must hold non-negative integers$"
        with pytest.raises(ValueError, match=message):
            load_csv(path, label_col=-1)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((20, 6)) * np.logspace(-8, 8, 6)
        path = tmp_path / "m.csv"
        write_csv(X, path, comments=["provenance line"])
        back = load_csv(path)
        assert np.array_equal(X, back)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (1, 1, 1, 2)])
    def test_more_than_two_dimensions_rejected_before_writing(
        self, tmp_path, shape
    ):
        path = tmp_path / "m.csv"
        with pytest.raises(ValueError, match="^X must have at most 2 dim"):
            write_csv(np.ones(shape), path, comments=["c"], header=["a"])
        assert not path.exists()

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1.0,2.0\r\n3.0,4.0\r\n")
        assert load_csv(path).shape == (2, 2)

    @pytest.mark.parametrize(
        "text, has_header, expected",
        [
            (b"1,2\r\n3,4\r\n", False, [[1, 2], [3, 4]]),
            (b"1,2\r3,4", False, [[1, 2], [3, 4]]),
            (b'"1","2.5"\n" 3 ",4\n', False, [[1, 2.5], [3, 4]]),
            (b"\n1,2\n\n\n3,4\n\n", False, [[1, 2], [3, 4]]),
            (b"# a\n  # b\n\na,b\n# c\n1,2\n", True, [[1, 2]]),
            (b"1.5,-2,3e-300\n", False, [[1.5, -2, 3e-300]]),
            (b"1\n2\n3\n", False, [[1], [2], [3]]),
            (b"7\n", False, [[7]]),
            (b"1E3,+2.5e+2,.5,5.,1e-320\n", False,
             [[1000, 250, 0.5, 5, 1e-320]]),
            (b" 1 ,\t2\t\n", False, [[1, 2]]),
            (b"0001,1.7976931348623157e308\n", False,
             [[1, 1.7976931348623157e308]]),
        ],
        ids=["crlf", "cr-only", "quoted", "empty-lines",
             "header-after-comments", "exponents", "one-column", "one-cell",
             "number-syntax", "blanks", "zeros-and-max"],
    )
    def test_corpus(self, tmp_path, text, has_header, expected):
        path = tmp_path / "m.csv"
        path.write_bytes(text)
        X = load_csv(path, has_header=has_header)
        assert X.dtype == np.float64 and X.flags.c_contiguous
        assert X.shape == np.shape(expected)
        assert np.array_equal(X, expected)

    def test_negative_zero_keeps_its_sign(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("-0.0,0.0\n")
        assert np.signbit(load_csv(path)).tolist() == [[True, False]]

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN", "1e400"])
    def test_non_finite_values_rejected(self, tmp_path, cell):
        path = tmp_path / "m.csv"
        path.write_text(f"1,2\n3,{cell}\n")
        with pytest.raises(ValueError, match="contains NaN or infinite"):
            load_csv(path)

    def test_label_column_after_comments_and_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# made by hand\nx,y,label\n\n1,2,3\n4,5,0\n")
        X, y = load_csv(path, has_header=True, label_col=-1)
        assert X.tolist() == [[1, 2], [4, 5]]
        assert y.dtype == np.int64 and y.tolist() == [3, 0]

    @pytest.mark.parametrize(
        "text, has_header, message",
        [
            ("# c\n\nh\n1,2\n# c\n\n3\n", True,
             "ragged row on line 7 (1 cells, expected 2)"),
            ("# c\n\n1,2\n3,4,5\n", False,
             "ragged row on line 4 (3 cells, expected 2)"),
            ("# c\n\nh\n1,2\n# c\n3,x\n", True,
             "non-numeric value on line 6"),
            ("# c\r\n\r\n1,2\r\n3,\r\n", False,
             "non-numeric value on line 4"),
            ("# c\n1,2\n   \n", False, "non-numeric value on line 3"),
            ("# c\n\na,b\n1,2\n", False, "non-numeric value on line 3"),
            ("1,2\n3,4,x\n", False, "non-numeric value on line 2"),
            ("1,2\n3,4 # note\n", False, "non-numeric value on line 2"),
            ("1,2\n3,1_000\n", False, "non-numeric value on line 2"),
            ("1,2\n\u0663,4\n", False, "non-numeric value on line 2"),
            ("# c\n\n# d\n", False, "no data rows"),
            ("# c\nheader\n\n", True, "no data rows"),
        ],
        ids=["ragged-short", "ragged-long", "non-numeric", "empty-cell-crlf",
             "blank-line", "header-not-skipped", "non-numeric-before-ragged",
             "trailing-comment",
             "underscore", "non-ascii-digit", "only-comments", "only-header"],
    )
    def test_errors_name_file_and_line(self, tmp_path, text, has_header,
                                       message):
        # Line numbers count every line: comments, empty lines, the header.
        path = tmp_path / "m.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(ValueError) as excinfo:
            load_csv(path, has_header=has_header)
        assert str(excinfo.value) == f"{path}: {message}"

    def test_non_utf8_file_rejected_with_its_path(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,2\n3,\xff\n")
        with pytest.raises(ValueError, match="not UTF-8 text") as excinfo:
            load_csv(path)
        assert type(excinfo.value) is ValueError
        assert str(path) in str(excinfo.value)

    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(_CSV_LINES, max_size=6),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        has_header=st.booleans(),
    )
    def test_matches_the_float_reader(self, tmp_path_factory, lines,
                                      newline, has_header):
        path = tmp_path_factory.mktemp("ref") / "m.csv"
        path.write_text(newline.join(lines) + newline, newline="")
        try:
            expected = float_csv(path, has_header)
        except ValueError as exc:
            expected = str(exc)
        else:
            if not np.isfinite(expected).all():
                expected = f"{path} contains NaN or infinite values"
        try:
            X = load_csv(path, has_header=has_header)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert X.dtype == expected.dtype and X.shape == expected.shape
            assert X.tobytes() == expected.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]),
        seed=st.integers(0, 2**32 - 1),
        comments=st.lists(
            st.text(st.characters(codec="utf-8", exclude_characters="\r\n"),
                    max_size=10),
            max_size=3,
        ),
        header=st.booleans(),
    )
    def test_write_then_load_is_exact(self, tmp_path_factory, shape, scale,
                                      seed, comments, header):
        X = np.random.default_rng(seed).standard_normal(shape) * scale
        names = [f"c{j}" for j in range(shape[1])] if header else None
        path = tmp_path_factory.mktemp("rt") / "m.csv"
        write_csv(X, path, comments=comments, header=names)
        back = load_csv(path, has_header=header)
        assert back.dtype == X.dtype and back.shape == X.shape
        assert back.tobytes() == X.tobytes()


def _write_idx_pair(tmp_path, images, labels, image_magic=2051, label_magic=2049,
                    compress=False, truncate_images=0):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    count, rows, cols = images.shape
    img_bytes = struct.pack(">iiii", image_magic, count, rows, cols)
    img_bytes += images.tobytes()
    if truncate_images:
        img_bytes = img_bytes[:-truncate_images]
    lbl_bytes = struct.pack(">ii", label_magic, labels.size) + labels.tobytes()
    opener = gzip.open if compress else open
    suffix = ".gz" if compress else ""
    img_path = tmp_path / f"images-idx3-ubyte{suffix}"
    lbl_path = tmp_path / f"labels-idx1-ubyte{suffix}"
    with opener(img_path, "wb") as fh:
        fh.write(img_bytes)
    with opener(lbl_path, "wb") as fh:
        fh.write(lbl_bytes)
    return img_path, lbl_path


class TestIdx:
    def test_single_zero_image(self, tmp_path):
        img, lbl = _write_idx_pair(
            tmp_path, np.zeros((1, 28, 28)), np.zeros(1)
        )
        X, y = load_idx(img, lbl)
        assert X.shape == (1, 784)
        assert not X.any()
        assert y.tolist() == [0]

    def test_values_and_flattening(self, tmp_path):
        image = np.arange(4, dtype=np.uint8).reshape(1, 2, 2) * 60
        img, lbl = _write_idx_pair(tmp_path, image, [7])
        X, y = load_idx(img, lbl)
        assert X.tolist() == [[0.0, 60.0, 120.0, 180.0]]  # row-major
        assert y.tolist() == [7]
        assert X.min() >= 0 and X.max() <= 255

    def test_gzip_transparent(self, tmp_path):
        img, lbl = _write_idx_pair(
            tmp_path, np.ones((2, 3, 3)), [1, 2], compress=True
        )
        X, y = load_idx(img, lbl)
        assert X.shape == (2, 9)
        assert y.tolist() == [1, 2]

    def test_bad_label_magic(self, tmp_path):
        img, lbl = _write_idx_pair(
            tmp_path, np.zeros((1, 2, 2)), [0], label_magic=2051
        )
        with pytest.raises(ValueError, match="bad magic"):
            load_idx(img, lbl)

    def test_bad_image_magic(self, tmp_path):
        img, lbl = _write_idx_pair(
            tmp_path, np.zeros((1, 2, 2)), [0], image_magic=123
        )
        with pytest.raises(ValueError, match="bad magic"):
            load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        img, lbl = _write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1, 2])
        with pytest.raises(ValueError, match="does not match"):
            load_idx(img, lbl)

    def test_truncated(self, tmp_path):
        img, lbl = _write_idx_pair(
            tmp_path, np.zeros((3, 4, 4)), [0, 1, 2], truncate_images=5
        )
        with pytest.raises(ValueError, match="truncated"):
            load_idx(img, lbl)

    @pytest.mark.parametrize("compress", [False, True])
    def test_header_claiming_more_than_the_file_holds(
        self, tmp_path, compress
    ):
        # 2**16 images of 28 x 28 claimed, one image present: rejected
        # without allocating the 51 MB the header claims.
        img, lbl = _write_idx_pair(
            tmp_path, np.zeros((1, 28, 28)), [0], compress=compress
        )
        _rewrite_header(img, ">iiii", 2051, 2**16, 28, 28)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="truncated") as excinfo:
                load_idx(img, lbl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(img) in str(excinfo.value)
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "header", [(-1, -28, 28), (1, -28, 28), (1, 28, -28)]
    )
    def test_negative_image_dimension(self, tmp_path, header):
        img, lbl = _write_idx_pair(tmp_path, np.zeros((1, 28, 28)), [0])
        _rewrite_header(img, ">iiii", 2051, *header)
        with pytest.raises(ValueError, match="negative dimension") as excinfo:
            load_idx(img, lbl)
        assert str(img) in str(excinfo.value)

    @pytest.mark.parametrize("damage", ["cut", "corrupt"])
    def test_bad_gzip_data(self, tmp_path, damage):
        img, lbl = _write_idx_pair(
            tmp_path, np.ones((2, 3, 3)), [1, 2], compress=True
        )
        _damage_gzip(img, damage)
        with pytest.raises(ValueError, match="bad gzip data") as excinfo:
            load_idx(img, lbl)
        assert str(img) in str(excinfo.value)

    @pytest.mark.parametrize(
        "which, what", [(0, "image"), (1, "label")], ids=["images", "labels"]
    )
    def test_file_shorter_than_its_header(self, tmp_path, which, what):
        paths = _write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
        short = paths[which]
        short.write_bytes(short.read_bytes()[:6])
        with pytest.raises(
            ValueError, match=f"truncated file while reading {what} header"
        ) as excinfo:
            load_idx(*paths)
        assert str(short) in str(excinfo.value)

    def test_negative_label_count(self, tmp_path):
        img, lbl = _write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
        _rewrite_header(lbl, ">ii", 2049, -1)
        with pytest.raises(ValueError, match="negative dimension") as excinfo:
            load_idx(img, lbl)
        assert str(lbl) in str(excinfo.value)


def _damage_gzip(path, damage):
    """Cut a gzip file short (``EOFError`` in ``gzip``) or give its deflate
    stream the reserved block type (``zlib.error``)."""
    packed = gzip.compress(gzip.decompress(path.read_bytes()))
    if damage == "cut":
        packed = packed[:-10]
    else:  # the 10-byte header holds no file name
        packed = packed[:10] + b"\xff" + packed[11:]
    path.write_bytes(packed)


def _rewrite_header(path, fmt, *fields):
    """Overwrite the header of an IDX file written by ``_write_idx_pair``."""
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rb") as fh:
        data = bytearray(fh.read())
    struct.pack_into(fmt, data, 0, *fields)
    with opener(path, "wb") as fh:
        fh.write(bytes(data))


class TestCheckers:
    def test_check_integer(self):
        assert check_integer(3, "k") == 3
        assert check_integer(np.int64(-2), "k") == -2
        assert check_integer(0, "k", 0) == 0  # the low end is closed
        assert check_integer(2**70, "k", 1) == 2**70
        for value in (True, np.True_, 2.0, 1.5, "3", None, np.float64(2)):
            with pytest.raises(ValueError, match="^k must be an integer, got"):
                check_integer(value, "k")
        with pytest.raises(
            ValueError, match=r"^k must be an integer >= 1, got -1$"
        ):
            check_integer(-1, "k", 1)

    def test_check_number(self):
        assert check_number(-1.5, "x") == -1.5
        assert check_number(np.int64(0), "x", 0) == 0  # closed low end
        assert check_number(1, "x", 0, 1, open_low=True) == 1  # closed high
        for value in (True, np.nan, np.inf, -np.inf, "0.5", None):
            with pytest.raises(
                ValueError, match=r"^x must be a finite number, got"
            ):
                check_number(value, "x")
        with pytest.raises(
            ValueError, match=r"^x must be a finite number >= 0, got -0.1$"
        ):
            check_number(-0.1, "x", 0)
        with pytest.raises(ValueError, match=r"x must be a finite number > 0,"):
            check_number(0, "x", 0, open_low=True)
        for value in (0, 0.0, 1.5, np.nan, True):
            with pytest.raises(
                ValueError, match=r"^x must be a number in \(0, 1\], got"
            ):
                check_number(value, "x", 0, 1, open_low=True)
        with pytest.raises(ValueError, match=r"^x must be a number in \[0, 1\]"):
            check_number(-1e-300, "x", 0, 1)

    def test_check_numbers(self):
        grid = check_numbers([0, 2.5, np.float32(1)], "g", 0)
        assert grid.dtype == np.float64 and grid.tolist() == [0, 2.5, 1]
        ints = check_numbers((3, np.int64(1)), "g", integer=True)
        assert ints.dtype == np.int64 and ints.tolist() == [3, 1]
        assert check_numbers(np.array([1, 2], np.int32), "g", 1).size == 2
        assert check_numbers([], "g", 0).size == 0
        bad = (
            [True, 0.1], np.array([True, False]), ["0.1"], [0.1, np.nan],
            np.array([np.inf]), [[0.1, 1.0]], 0.1, "0.5", [[1], 2], None,
        )
        for values in bad:
            with pytest.raises(
                ValueError, match="^g must be finite numbers, got"
            ):
                check_numbers(values, "g")
        ints = ([1.0, 2], np.array([1.0, 2.0]), [True, 2], [1, "2"], [2**70])
        for values in ints:  # the last one does not fit in an int64
            with pytest.raises(ValueError, match="^g must be integers, got"):
                check_numbers(values, "g", integer=True)
        with pytest.raises(
            ValueError, match=r"^g must be integers >= 1, got \[1, 0\]$"
        ):
            check_numbers([1, 0], "g", 1, integer=True)
        with pytest.raises(ValueError, match="^g must be a grid >= 0, got"):
            check_numbers([-1.0], "g", 0, what="a grid")
