"""Regularized logistic regression over a Dirichlet-partitioned dataset.

With M total rows split across n clients, client i holds rows
``(a_r, y_r)`` and

    f_i(x) = (n/M) * sum_{r in client i} log(1 + exp(-y_r <a_r, x>))
             + ||x||^2 / (2M),

so the average ``f = (1/n) sum f_i`` is the usual ridge-regularized
logistic loss over the full dataset.  Heterogeneity is induced by sampling
per-class client proportions from a Dirichlet(alpha) distribution: small
``alpha`` concentrates each class on few clients.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec
from scipy.special import expit

from ..core import (
    ClientOracle,
    ConfigurationError,
    DistributedProblem,
    NonFiniteError,
    RandomStream,
)
from .libsvm import SparseDataset

_PARTITION_RETRIES = 100


def dirichlet_partition(
    dataset: SparseDataset, n_clients: int, alpha: float, stream: RandomStream
) -> list[SparseDataset]:
    """Split rows across clients with per-class Dirichlet(alpha) proportions.

    Every row is assigned to exactly one client.  Assignments leaving some
    client empty are redrawn, up to 100 attempts, after which a
    :class:`ConfigurationError` is raised (tiny datasets or extreme alpha).
    """
    if n_clients < 1:
        raise ConfigurationError("need at least one client")
    if not alpha > 0.0:
        raise ConfigurationError(f"alpha must be positive, got {alpha!r}")
    if n_clients > dataset.n_rows:
        raise ConfigurationError(
            f"cannot split {dataset.n_rows} rows across {n_clients} clients"
        )
    classes = np.unique(dataset.labels)
    for attempt in range(_PARTITION_RETRIES):
        rng = stream.fork(attempt).generator()
        assignment = np.empty(dataset.n_rows, dtype=np.int64)
        for cls in classes:
            rows = np.flatnonzero(dataset.labels == cls)
            proportions = rng.dirichlet(np.full(n_clients, alpha))
            assignment[rows] = rng.choice(n_clients, size=rows.size, p=proportions)
        counts = np.bincount(assignment, minlength=n_clients)
        if np.all(counts > 0):
            return [
                dataset.subset(np.flatnonzero(assignment == i))
                for i in range(n_clients)
            ]
    raise ConfigurationError(
        f"failed to draw a partition with non-empty clients in {_PARTITION_RETRIES} tries"
    )


def _read_only(matrix: sp.csr_matrix) -> sp.csr_matrix:
    """``matrix`` with its data, indices and indptr arrays made read-only."""
    for arr in (matrix.data, matrix.indices, matrix.indptr):
        arr.flags.writeable = False
    return matrix


def _csr_matvec(matrix: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``matrix @ x`` for a float64 CSR matrix and vector, without dispatch.

    Calls scipy's ``csr_matvec`` kernel into fresh zeros, which is what
    ``matrix @ x`` does after its shape and type checks, so the result is
    bitwise equal at a fraction of the per-call cost.
    """
    rows, cols = matrix.shape
    out = np.zeros(rows)
    csr_matvec(rows, cols, matrix.indptr, matrix.indices, matrix.data, x, out)
    return out


def _block_diagonal(blocks: list[sp.csr_matrix]) -> sp.csr_matrix:
    """The block-diagonal CSR operator of ``blocks``, with int32 indices.

    Its arrays are the blocks' own, concatenated: column indices shifted
    past the earlier blocks' columns, row pointers past their entries.  So
    each row holds the stored entries of its block's row in the same order,
    and a product sums them as a product with that block alone does.
    """
    cols = np.cumsum([0] + [b.shape[1] for b in blocks])
    nnz = np.cumsum([0] + [b.nnz for b in blocks])
    index = np.int32 if max(cols[-1], nnz[-1]) <= np.iinfo(np.int32).max else np.int64
    indices = np.empty(nnz[-1], dtype=index)
    indptr = np.empty(sum(b.shape[0] for b in blocks) + 1, dtype=index)
    row = 0
    for b, c, n in zip(blocks, cols, nnz):
        np.add(b.indices, c, out=indices[n : n + b.nnz], dtype=index)
        np.add(b.indptr[:-1], n, out=indptr[row : row + b.shape[0]], dtype=index)
        row += b.shape[0]
    indptr[-1] = nnz[-1]
    data = np.concatenate([b.data for b in blocks])
    return sp.csr_matrix((data, indices, indptr), shape=(row, cols[-1]))


# a Gram of more entries than this (12 MiB of float64 values and int32
# column indices) is not built: it guards memory, not speed
_GRAM_MAX_ENTRIES = 1 << 20


def _gram_fits(a: sp.csr_matrix) -> bool:
    """Whether ``A' A`` can hold at most :data:`_GRAM_MAX_ENTRIES` entries:
    its size is bounded by ``min(d^2, sum_r nnz_r^2)``, read from the row
    pointers before anything is built (the sum in floats, which cannot
    wrap)."""
    row_nnz_sq = np.square(np.diff(a.indptr), dtype=np.float64).sum()
    return min(a.shape[1] ** 2, row_nnz_sq) <= _GRAM_MAX_ENTRIES


def _spectral_norms_sq(matrices: list[sp.csr_matrix]) -> list[float]:
    """Upper estimates of ``lambda_max(A' A)`` for CSR matrices ``A`` of one width.

    One 300-step power iteration, plus a 5% margin capped by ``||A||_F^2``,
    runs over block-diagonal operators.  A matrix that :func:`_gram_fits`
    is a block of the Gram operator, each ``G = A.T.tocsr().dot(A)`` formed
    once, so its step is one product over at most ``d^2`` entries.  Any
    other matrix, whose Gram would be too large to build, steps on ``A``
    and ``A'`` instead.  Which path a matrix takes is a property of that
    matrix alone, each block's products sum the same stored entries in the
    same order as :func:`_csr_matvec` with its own ``G``, or ``A`` and
    ``A'``, and its iterate is normalised by its own ``sqrt(w . w)``
    (``np.vecdot``, new in NumPy 2.0, runs the ``ddot`` of ``w.dot(w)`` on
    each row), so every estimate is bitwise the one a loop over that ``A``
    alone gives.  Both paths call scipy's CSR kernel, not BLAS, so no
    estimate depends on the BLAS thread count.  An iterate that vanishes
    (always, for an all-zero ``A``) stays zero, so its estimate is 0.0.  A
    ``||A||_F^2`` that overflows raises :class:`NonFiniteError`: the
    iteration would divide inf by inf.
    """
    with np.errstate(over="ignore"):  # an overflow is the error raised below
        frob_sq = [float(a.multiply(a).sum()) for a in matrices]
    if not np.isfinite(frob_sq).all():
        raise NonFiniteError(f"non-finite smoothness bound: ||A||_F^2 = {frob_sq}")
    if not any(frob_sq):
        return frob_sq
    fits = [_gram_fits(a) for a in matrices]
    g = [i for i, f in enumerate(fits) if f]
    p = [i for i, f in enumerate(fits) if not f]
    if g:
        gram = _block_diagonal([matrices[i].T.tocsr().dot(matrices[i]) for i in g])
    if p:
        pair = _block_diagonal([matrices[i] for i in p])
        pair_t = pair.T.tocsr()
    d = matrices[0].shape[1]
    v = np.full((len(matrices), d), 1.0 / np.sqrt(d))

    def product(v: np.ndarray) -> np.ndarray:
        w = np.empty_like(v)
        if g:
            w[g] = _csr_matvec(gram, v[g].ravel()).reshape(len(g), d)
        if p:
            w[p] = _csr_matvec(pair_t, _csr_matvec(pair, v[p].ravel())).reshape(len(p), d)
        return w

    for _ in range(300):
        w = product(v)
        norms = np.sqrt(np.vecdot(w, w))
        norms[norms == 0.0] = 1.0
        v = w / norms[:, None]
    estimates = np.vecdot(v, product(v)).tolist()
    return [min(r * 1.05, f) for r, f in zip(estimates, frob_sq)]


class LogisticOracle(ClientOracle):
    """Logistic loss over one client's rows plus the shared ridge term.

    The oracle is row ``row`` of the :class:`_LogisticStack` that
    :func:`logistic_problem` builds, or, built alone, of its own.

    ``transpose`` is ``A'`` as its own CSR matrix, built once, which the
    stack reads; both operators are read-only.  ``neg_labels`` holds
    ``-y``: the loss reads only ``-y_r <a_r, x>``, and negation is exact.
    ``spectral_sq`` is the client's bound on ``lambda_max(A' A)`` from
    :func:`_spectral_norms_sq`; :func:`logistic_problem` passes the one it
    computes for all clients in one pass, and an oracle built without it
    computes its own.

    The ridge weight ``reg = 1/M`` is positive, so a non-finite query
    coordinate makes its entry of ``reg * x``, and of the gradient,
    non-finite: the oracle declares ``gradient_propagates_non_finite``.
    """

    gradient_propagates_non_finite = True

    def __init__(
        self,
        part: SparseDataset,
        n_clients: int,
        total_rows: int,
        spectral_sq: float | None = None,
    ):
        if part.n_rows == 0:
            raise ConfigurationError("client received no rows")
        self.matrix = _read_only(part.matrix.copy())
        self.transpose = _read_only(self.matrix.T.tocsr())
        self.neg_labels = -part.labels
        self.dim = part.dim
        self.loss_scale = n_clients / total_rows
        self.reg = 1.0 / total_rows
        if spectral_sq is None:
            (spectral_sq,) = _spectral_norms_sq([self.matrix])
        self.smoothness_hint = 0.25 * self.loss_scale * spectral_sq + self.reg
        self.convexity_hint = self.reg

    @functools.cached_property
    def stack(self) -> "_LogisticStack":
        return _LogisticStack([self])


class _LogisticStack:
    """Clients at their own points through the :func:`_block_diagonal`
    operators ``op`` and ``op_t`` of their matrices and cached transposes;
    building one makes each oracle its row.  Consecutive clients are a
    span of rows of each, which scipy's kernel takes as a slice of the row
    pointers, so a client's margins and products sum the same stored
    entries in the same order as its own :func:`_csr_matvec`: bitwise, at
    two kernel calls per span.  Loss sums run over per-client slices;
    nothing is billed or checked."""

    def __init__(self, oracles: list[LogisticOracle]):
        self.op = _block_diagonal([o.matrix for o in oracles])
        self.op_t = _block_diagonal([o.transpose for o in oracles])
        self.neg_labels = np.concatenate([o.neg_labels for o in oracles])
        self.starts = np.cumsum([0] + [o.matrix.shape[0] for o in oracles]).tolist()
        self.d = oracles[0].dim
        self.loss_scale, self.reg = oracles[0].loss_scale, oracles[0].reg
        self._all = list(range(len(oracles)))
        for i, oracle in enumerate(oracles):
            oracle.stack, oracle.row = self, i

    def _span_margins(self, rows: list[int], points: np.ndarray):
        """``lo, hi, j`` and ``-y * A x`` for each run of consecutive rows:
        clients ``lo:hi`` at rows ``j:j + hi - lo`` of ``points``."""
        first, k = rows[0], len(rows)
        if rows == self._all[first : first + k]:
            spans = [(first, first + k, 0)]
        else:
            runs = itertools.groupby(enumerate(rows), lambda jr: jr[1] - jr[0])
            spans = [(i, i + 1 + len(rest), j) for _, ((j, i), *rest) in runs]
        op, x = self.op, np.empty(self.op.shape[1])
        for lo, hi, j in spans:
            x[lo * self.d : hi * self.d] = points[j : j + hi - lo].ravel()
            a, b = self.starts[lo], self.starts[hi]
            neg = np.zeros(b - a)
            csr_matvec(b - a, x.size, op.indptr[a : b + 1], op.indices, op.data, x, neg)
            yield lo, hi, j, np.multiply(neg, self.neg_labels[a:b], neg)

    def values(self, rows: list[int], points: np.ndarray) -> np.ndarray:
        sums = []
        for lo, hi, _, margins in self._span_margins(rows, points):
            losses = np.logaddexp(0.0, margins)
            ends = [e - self.starts[lo] for e in self.starts[lo : hi + 1]]
            sums += [losses[a:b].sum() for a, b in zip(ends, ends[1:])]
        ridge = 0.5 * self.reg * np.vecdot(points, points)
        return self.loss_scale * np.array(sums) + ridge

    def gradients(self, rows: list[int], points: np.ndarray) -> np.ndarray:
        # each span's products sum from zero into its rows of the block
        g, op_t = np.zeros(points.shape), self.op_t
        w = np.empty(op_t.shape[1])
        for lo, hi, j, margins in self._span_margins(rows, points):
            a, b = self.starts[lo], self.starts[hi]
            np.multiply(self.neg_labels[a:b], expit(margins), w[a:b])
            out = g[j : j + hi - lo].reshape(-1)
            indptr = op_t.indptr[lo * self.d : hi * self.d + 1]
            csr_matvec(out.size, w.size, indptr, op_t.indices, op_t.data, w, out)
        g *= self.loss_scale
        g += self.reg * points
        return g


def logistic_problem(parts: list[SparseDataset]) -> DistributedProblem:
    """Assemble the distributed problem from per-client datasets, the
    clients as the rows of one :class:`_LogisticStack`.

    An overflowing bound raises :class:`NonFiniteError` listing ``||A||_F^2``
    per client (``l_smooth``), then for the stacked rows (``l_smooth_global``).
    """
    if not parts:
        raise ConfigurationError("need at least one client dataset")
    dims = {p.dim for p in parts}
    if len(dims) != 1:
        raise ConfigurationError("client datasets disagree on dimension")
    total_rows = sum(p.n_rows for p in parts)
    n = len(parts)
    matrices = [p.matrix for p in parts]
    stacked = sp.vstack(matrices, format="csr")
    *client_sq, stacked_sq = _spectral_norms_sq(matrices + [stacked])
    oracles = [LogisticOracle(p, n, total_rows, sq) for p, sq in zip(parts, client_sq)]
    _LogisticStack(oracles)
    l_global = 0.25 * stacked_sq / total_rows + 1.0 / total_rows
    return DistributedProblem(
        clients=oracles,
        dim=dims.pop(),
        l_smooth=max(o.smoothness_hint for o in oracles),
        l_smooth_global=l_global,
        mu=1.0 / total_rows,
    )
