"""Tabular data handling: validation, standardization, CSV and IDX ingestion.

``check_integer``, ``check_number`` and ``check_numbers`` are the one place
where the library checks a numeric parameter. Each returns the value or
raises one ``ValueError`` that names the parameter. A bool is no number to
them, though Python counts ``True`` as 1, and neither is a string. A numpy
array's dtype vouches for its items; the items of any other grid are checked
one by one.
"""

from __future__ import annotations

import gzip
import math
import numbers
import re
import struct
import zlib
from dataclasses import dataclass

import numpy as np

# Features whose standard deviation falls below this are dropped: they carry
# no information and would divide by ~0 during standardization.
VARIANCE_EPS = 1e-12

_IDX_IMAGES_MAGIC = 2051
_IDX_LABELS_MAGIC = 2049

_DATA_LINE = re.compile(r"(?!\s*#|\n?\Z)")  # neither a comment nor empty
_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)


@dataclass(frozen=True, eq=False)
class Scaler:
    """Per-feature standardization statistics plus dropped-feature bookkeeping.

    ``means`` and ``stds`` cover every original column; ``kept_features``
    are the columns :func:`standardize_apply` returns, as strictly
    increasing original indices. A fitted scaler keeps every column whose
    standard deviation reaches :data:`VARIANCE_EPS`; a model's serving
    scaler keeps only the columns its components weigh.
    """

    means: np.ndarray
    stds: np.ndarray
    kept_features: np.ndarray

    @property
    def n_features(self) -> int:
        """Original feature count the scaler was fitted on."""
        return int(self.means.size)

    @property
    def n_kept(self) -> int:
        return int(self.kept_features.size)


def as_matrix(X, name="X"):
    """``X`` as a 2-D array, dtype kept, with at least one row and column."""
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {X.shape}")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    return X


def validate_matrix(X, name="X"):
    """Coerce to a 2-D float64 array and reject empty, complex or non-finite
    input."""
    X = as_matrix(X, name)
    if np.iscomplexobj(X):
        raise ValueError(f"{name} must be real, got dtype {X.dtype}")
    X = X.astype(np.float64, copy=False)
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return X


def is_integer(value) -> bool:
    """Whether ``value`` is an integer and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    """Whether ``value`` is a real number and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_integer(value, name, low=None):
    """``value`` if it is an integer, at least ``low`` if that is set."""
    if is_integer(value) and (low is None or value >= low):
        return value
    bound = "" if low is None else f" >= {low}"
    raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def check_number(value, name, low=None, high=None, open_low=False):
    """``value`` if it is a finite number above ``low``, or at it unless
    ``open_low``, and at most ``high``; ``high`` needs ``low``."""
    ok = is_number(value) and abs(value) < math.inf
    if ok and (low is None or value > low or value == low and not open_low):
        if high is None or value <= high:
            return value
    what = "a finite number"
    if low is not None:
        what += f" {'>' if open_low else '>='} {low}"
    if high is not None:
        what = f"a number in {'(' if open_low else '['}{low}, {high}]"
    raise ValueError(f"{name} must be {what}, got {value!r}")


def check_numbers(values, name, low=None, integer=False, what=None):
    """``values`` as a float64 array, int64 if ``integer``, if it is a 1-D
    grid of finite numbers (integers), at least ``low`` if that is set.
    ``what`` replaces "finite numbers" or "integers" in the error."""
    kinds, dtype = ("iu", np.int64) if integer else ("iuf", np.float64)
    if isinstance(values, np.ndarray) and values.dtype != object:
        typed = values.dtype.kind in kinds
    else:
        items = np.asarray(values, dtype=object).flat
        typed = all(map(is_integer if integer else is_number, items))
    try:
        x = np.asarray(values, dtype) if typed else None
    except OverflowError:  # an item past int64 (float64)
        x = None
    if x is not None and x.ndim == 1 and (integer or np.isfinite(x).all()):
        if low is None or (x >= low).all():
            return x
    bound = "" if low is None else f" >= {low}"
    what = what or ("integers" if integer else "finite numbers")
    raise ValueError(f"{name} must be {what}{bound}, got {values!r}")


def standardize_fit(X) -> Scaler:
    """Fit per-column means and standard deviations (population convention).

    Columns with standard deviation below :data:`VARIANCE_EPS` are excluded
    from ``kept_features``. Raises if every column is constant.
    """
    X = validate_matrix(X)
    means = X.mean(axis=0)
    stds = X.std(axis=0)  # denominator n, matching the population convention
    kept = np.flatnonzero(stds >= VARIANCE_EPS)
    if kept.size == 0:
        raise ValueError("no usable features: every column is constant")
    return Scaler(means=means, stds=stds, kept_features=kept)


def standardize_apply(scaler: Scaler, X):
    """Center and scale the kept columns of ``X`` with fitted statistics.

    Returns an array with ``scaler.n_kept`` columns in original column order.
    ``X`` must have the fitted feature count of columns, checked before it
    is converted or scanned. The gathered copy is centred and scaled in
    place, so a call allocates one array of the result's size, not three.
    """
    X = as_matrix(X)
    if X.shape[1] != scaler.n_features:
        raise ValueError(
            f"expected {scaler.n_features} columns, got {X.shape[1]}"
        )
    X = validate_matrix(X)
    kept = scaler.kept_features
    Xs = X[:, kept]
    Xs -= scaler.means[kept]
    Xs /= scaler.stds[kept]
    return Xs


def load_csv(path, has_header=False, label_col=None):
    """Load a numeric CSV as a samples-by-features matrix.

    Empty lines and comment lines, whose first non-blank character is
    ``#``, are skipped; with ``has_header`` so is the first line left, a
    header. Each other line is a row of comma-separated numbers in numpy's
    syntax, blank-padded or double-quoted at will. Unlike ``float()``, that
    syntax rejects ``1_000`` and non-ASCII digits and takes ``\\x1c`` to
    ``\\x1f`` for blanks; a line of blanks is an error. With ``label_col``,
    an integer, that column is split off, rounded to integer class ids, and
    returned alongside the matrix.
    """
    if label_col is not None:
        check_integer(label_col, "label_col")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
    data = list(filter(_DATA_LINE.match, text))[bool(has_header):]
    if not data:
        raise ValueError(f"{path}: no data rows")
    try:
        X = np.loadtxt(data, **_LOADTXT)
    except ValueError as exc:  # numpy does not say which line of the file
        linenos = [n for n, s in enumerate(text, 1) if _DATA_LINE.match(s)]
        width = None
        for lineno, line in zip(linenos[bool(has_header):], data):
            try:
                cells = np.loadtxt([line], **_LOADTXT).shape[1]
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric value on line {lineno}"
                ) from None
            if cells != (width := width or cells):
                raise ValueError(
                    f"{path}: ragged row on line {lineno} "
                    f"({cells} cells, expected {width})"
                ) from None
        raise ValueError(f"{path}: {exc}") from None
    if label_col is None:
        return validate_matrix(X, name=str(path))
    if not -X.shape[1] <= label_col < X.shape[1]:
        raise ValueError(f"label column {label_col} out of range")
    raw = X[:, label_col]
    labels = np.rint(raw).astype(np.int64)
    if np.abs(raw - labels).max() > 1e-9 or labels.min() < 0:
        raise ValueError("label column must hold non-negative integers")
    X = np.delete(X, label_col % X.shape[1], axis=1)
    return validate_matrix(X, name=str(path)), labels


def write_csv(X, path, comments=(), header=None):
    """Write a matrix as CSV with shortest-exact float formatting.

    ``comments`` become leading ``#`` lines; ``header`` an optional column
    name row. Values round-trip through :func:`load_csv` exactly. ``X``
    with more than 2 dimensions raises ``ValueError`` before the file is
    opened.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim > 2:
        raise ValueError(f"X must have at most 2 dimensions, got {X.ndim}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in X:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _read_idx(path, magic, n_dims, what):
    """The uint8 array an IDX file of ``n_dims`` dimensions holds.

    The whole file is read, and gunzipped if it is gzip-compressed, before
    its header is trusted, so a header that claims more bytes than the file
    holds is rejected without allocating the claimed size. Bytes past the
    claimed size are ignored. Gzip data that is cut short or corrupted is a
    ``ValueError`` naming the file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ValueError(f"{path}: bad gzip data ({exc})") from exc
    start = 4 * (1 + n_dims)
    if len(data) < start:
        raise ValueError(f"{path}: truncated file while reading {what} header")
    found, *shape = struct.unpack_from(f">{1 + n_dims}i", data)
    if found != magic:
        raise ValueError(
            f"{path}: bad magic {found:#010x}, expected {what}s file"
        )
    if min(shape) < 0:
        raise ValueError(f"{path}: negative dimension in {what} header")
    count = math.prod(shape)
    if len(data) - start < count:
        raise ValueError(
            f"{path}: truncated file while reading {what} data: the header "
            f"claims {count} bytes, the file holds {len(data) - start}"
        )
    return np.frombuffer(data, np.uint8, count, start).reshape(shape)


def load_idx(images_path, labels_path):
    """Load an IDX image/label file pair (the MNIST binary layout).

    Images are flattened row-major to ``rows*cols`` features with raw byte
    values in [0, 255]; gzip-compressed files are handled transparently.
    Returns ``(matrix, labels)``.
    """
    images = _read_idx(images_path, _IDX_IMAGES_MAGIC, 3, "image")
    labels = _read_idx(labels_path, _IDX_LABELS_MAGIC, 1, "label")
    count, n_rows, n_cols = images.shape
    if labels.size != count:
        raise ValueError(
            f"label count {labels.size} does not match image count {count}"
        )
    X = images.reshape(count, n_rows * n_cols).astype(np.float64)
    return X, labels.astype(np.int64)
