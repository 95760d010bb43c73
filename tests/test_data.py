import gzip
import struct
import tracemalloc

import numpy as np
import pytest

from sparca.data import (
    Scaler,
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

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((20, 6)) * np.logspace(-8, 8, 6)
        path = tmp_path / "m.csv"
        write_csv(X, path, comments=["provenance line"])
        back = load_csv(path)
        assert np.array_equal(X, back)

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"1.0,2.0\r\n3.0,4.0\r\n")
        assert load_csv(path).shape == (2, 2)


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
