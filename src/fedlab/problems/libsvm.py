"""Reading and writing sparse binary-classification data in LIBSVM format.

One example per line: ``<label> <index>:<value> ...`` with 1-based,
strictly increasing indices.  ``#`` starts a comment.  Labels are folded
to two classes: ``+1``/``1`` map to +1 and ``-1``/``0``/``2`` map to -1;
anything else is rejected.  All malformed input raises
:class:`ParseError` carrying the 1-based line number.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..core import ConfigurationError


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_POSITIVE = {1.0}
_NEGATIVE = {-1.0, 0.0, 2.0}


@dataclass
class SparseDataset:
    """Rows of (label, sparse features); ``dim`` is the max feature index."""

    labels: np.ndarray                 # (M,) values in {-1.0, +1.0}
    rows: list[dict[int, float]]       # 1-based index -> value, per row
    dim: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.labels.ndim != 1 or len(self.rows) != self.labels.shape[0]:
            raise ConfigurationError("labels and rows disagree in length")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def subset(self, indices) -> "SparseDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return SparseDataset(
            labels=self.labels[indices],
            rows=[self.rows[i] for i in indices],
            dim=self.dim,
        )

    def to_csr(self) -> sp.csr_matrix:
        """Feature matrix with 0-based columns, shape (n_rows, dim)."""
        data, indices, indptr = [], [], [0]
        for row in self.rows:
            for idx in sorted(row):
                indices.append(idx - 1)
                data.append(row[idx])
            indptr.append(len(indices))
        return sp.csr_matrix(
            (np.asarray(data, dtype=np.float64), indices, indptr),
            shape=(self.n_rows, self.dim),
        )


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
    labels: list[float] = []
    rows: list[dict[int, float]] = []
    dim = 0
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        labels.append(_map_label(tokens[0], line_no))
        row: dict[int, float] = {}
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
            row[idx] = val
            last_idx = idx
        rows.append(row)
        dim = max(dim, last_idx)
    if not rows:
        raise ParseError(0, "no data rows found")
    return SparseDataset(labels=np.asarray(labels), rows=rows, dim=dim)


def serialize_libsvm(dataset: SparseDataset) -> str:
    """Inverse of :func:`parse_libsvm` on parsed form (labels become +-1)."""
    lines = []
    for label, row in zip(dataset.labels, dataset.rows):
        parts = ["+1" if label > 0 else "-1"]
        parts.extend(f"{idx}:{row[idx]!r}" for idx in sorted(row))
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def load_libsvm(path) -> SparseDataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh.read())
