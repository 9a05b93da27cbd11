"""Reading and writing sparse binary-classification data in LIBSVM format.

One example per line: ``<label> <index>:<value> ...`` with 1-based,
strictly increasing indices and finite values.  ``#`` starts a comment.
Labels are folded to two classes: ``+1``/``1`` map to +1 and
``-1``/``0``/``2`` map to -1; anything else is rejected.  All malformed
input raises :class:`ParseError` carrying the 1-based line number.

Parsed data is held as one CSR matrix (0-based columns, one row per
example) beside the label vector; the parser appends straight into its
``data``/``indices``/``indptr`` arrays.  ``scipy.sparse`` is imported
only where a CSR matrix is built, so a run that reads no LIBSVM data never
loads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import ConfigurationError


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_POSITIVE = {1.0}
_NEGATIVE = {-1.0, 0.0, 2.0}


@dataclass
class SparseDataset:
    """Labels and a CSR feature matrix with 0-based columns, one row each.

    The matrix is the one storage format of LIBSVM data: the parser builds
    it, ``subset`` slices it and each logistic oracle copies its client's
    rows.  ``dim`` is its column count (the largest feature index read).
    Any sparse or dense matrix is accepted; one with unsorted or repeated
    columns in a row is sorted and summed on a copy, as LIBSVM rows are.
    A non-finite entry is a :class:`ConfigurationError`.
    """

    labels: np.ndarray                 # (M,) values in {-1.0, +1.0}
    matrix: object                     # (M, dim) scipy.sparse.csr_matrix

    def __post_init__(self):
        import scipy.sparse as sp

        self.labels = np.asarray(self.labels, dtype=np.float64)
        self.matrix = sp.csr_matrix(self.matrix, dtype=np.float64)
        if not self.matrix.has_canonical_format:
            self.matrix = self.matrix.copy()
            self.matrix.sum_duplicates()
        if self.labels.ndim != 1 or self.matrix.shape[0] != self.labels.shape[0]:
            raise ConfigurationError("labels and matrix rows disagree in length")
        if not np.all(np.isfinite(self.matrix.data)):
            raise ConfigurationError("feature matrix has non-finite entries")

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def subset(self, indices) -> "SparseDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return SparseDataset(labels=self.labels[indices], matrix=self.matrix[indices])


def _map_label(token: str, line_no: int) -> float:
    try:
        raw = float(token)
    except ValueError:
        raise ParseError(line_no, f"unreadable label {token!r}") from None
    if raw in _POSITIVE:
        return 1.0
    if raw in _NEGATIVE:
        return -1.0
    raise ParseError(line_no, f"unsupported label {token!r}")


def parse_libsvm(text: str) -> SparseDataset:
    """Parse LIBSVM-formatted text into a :class:`SparseDataset`."""
    import scipy.sparse as sp

    labels: list[float] = []
    data: list[float] = []
    indices: list[int] = []
    indptr = [0]
    dim = 0
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        labels.append(_map_label(tokens[0], line_no))
        last_idx = 0
        for token in tokens[1:]:
            idx_str, sep, val_str = token.partition(":")
            if not sep:
                raise ParseError(line_no, f"feature {token!r} lacks ':'")
            try:
                idx = int(idx_str)
            except ValueError:
                raise ParseError(line_no, f"bad feature index {idx_str!r}") from None
            if idx < 1:
                raise ParseError(line_no, f"feature index {idx} must be >= 1")
            if idx <= last_idx:
                raise ParseError(
                    line_no, f"feature indices must increase, got {idx} after {last_idx}"
                )
            try:
                val = float(val_str)
            except ValueError:
                raise ParseError(line_no, f"bad feature value {val_str!r}") from None
            if not math.isfinite(val):
                raise ParseError(line_no, f"non-finite feature value {val_str!r}")
            indices.append(idx - 1)
            data.append(val)
            last_idx = idx
        indptr.append(len(indices))
        dim = max(dim, last_idx)
    if not labels:
        raise ParseError(0, "no data rows found")
    matrix = sp.csr_matrix(
        (np.asarray(data, dtype=np.float64), indices, indptr),
        shape=(len(labels), dim),
    )
    return SparseDataset(labels=np.asarray(labels), matrix=matrix)


def serialize_libsvm(dataset: SparseDataset) -> str:
    """Inverse of :func:`parse_libsvm` on parsed form (labels become +-1)."""
    m = dataset.matrix
    lines = []
    for label, start, end in zip(dataset.labels, m.indptr[:-1], m.indptr[1:]):
        parts = ["+1" if label > 0 else "-1"]
        parts.extend(
            f"{j + 1}:{v!r}"
            for j, v in zip(m.indices[start:end].tolist(), m.data[start:end].tolist())
        )
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load_libsvm(path) -> SparseDataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh.read())
