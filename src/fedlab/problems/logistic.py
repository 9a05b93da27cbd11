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
    Vector,
    bill,
    require_finite,
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


def _spectral_norms_sq(matrices: list[sp.csr_matrix]) -> list[float]:
    """Upper estimates of ``lambda_max(A' A)`` for CSR matrices ``A`` of one width.

    One 300-step power iteration, plus a 5% margin capped by ``||A||_F^2``,
    runs over the block-diagonal operator of the ``A``s and its transpose.
    Each block's products sum the same stored entries in the same order as
    :func:`_csr_matvec` with ``A`` and ``A'`` (as ``A.T.tocsr()``), and its
    iterate is normalised by its own ``sqrt(w . w)`` (``np.vecdot``, new in
    NumPy 2.0, runs the ``ddot`` of ``w.dot(w)`` on each row), so every
    estimate is bitwise the one a loop over that ``A`` alone gives.  An
    iterate that vanishes (always, for an all-zero ``A``) stays zero, so
    its estimate is 0.0.  A ``||A||_F^2`` that overflows raises
    :class:`NonFiniteError`: the iteration would divide inf by inf.
    """
    with np.errstate(over="ignore"):  # an overflow is the error raised below
        frob_sq = [float(a.multiply(a).sum()) for a in matrices]
    if not np.isfinite(frob_sq).all():
        raise NonFiniteError(f"non-finite smoothness bound: ||A||_F^2 = {frob_sq}")
    if not any(frob_sq):
        return frob_sq
    op = _block_diagonal(matrices)
    op_t = op.T.tocsr()
    d = matrices[0].shape[1]
    v = np.full((len(matrices), d), 1.0 / np.sqrt(d))
    for _ in range(300):
        w = _csr_matvec(op_t, _csr_matvec(op, v.ravel())).reshape(v.shape)
        norms = np.sqrt(np.vecdot(w, w))
        norms[norms == 0.0] = 1.0
        v = w / norms[:, None]
    w = _csr_matvec(op_t, _csr_matvec(op, v.ravel())).reshape(v.shape)
    return [min(r * 1.05, f) for r, f in zip(np.vecdot(v, w).tolist(), frob_sq)]


class LogisticOracle(ClientOracle):
    """Logistic loss over one client's rows plus the shared ridge term.

    The stochastic gradient draws ``batch_size`` rows uniformly with
    replacement and rescales, which is unbiased for the full gradient; the
    ridge term is always included exactly.  It reads the sampled rows as
    a sparse block and bills ``batch_size / rows`` full gradients, more
    than one when the batch has more rows than the client.

    ``transpose`` is ``A'``, the client's rows transposed, built once at
    construction as its own CSR matrix and reused by every gradient
    ``A'w``.  Building it per product (what
    ``matrix.T`` does) cost most of a gradient.  Both operators' arrays are
    read-only, so the two cannot drift apart.  Every product ``Ax`` and
    ``A'w`` is a :func:`_csr_matvec` call straight into scipy's CSR kernel,
    which sums each output entry over the stored entries of its row in the
    same order, starting from zero, as ``matrix @ x`` and ``matrix.T @ w``
    do, so the products are bitwise equal.  ``neg_labels`` holds ``-y``
    once: the loss and gradient read only ``-y_r <a_r, x>``, and negation
    is exact.  ``spectral_sq`` is the client's bound on ``lambda_max(A' A)``
    from :func:`_spectral_norms_sq`; :func:`logistic_problem` passes the
    one it computes for all clients in one pass, and an oracle built
    without it computes its own.

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

    def _neg_margins(self, x: Vector) -> np.ndarray:
        return self.neg_labels * _csr_matvec(self.matrix, x)

    def _value(self, x: Vector) -> float:
        losses = np.logaddexp(0.0, self._neg_margins(x))
        return self.loss_scale * float(losses.sum()) + 0.5 * self.reg * float(
            x.dot(x)
        )

    def _gradient(self, x: Vector) -> Vector:
        weights = self.neg_labels * expit(self._neg_margins(x))
        return self.loss_scale * _csr_matvec(self.transpose, weights) + self.reg * x

    def stochastic_gradient(self, x, stream: RandomStream, batch_size: int):
        x = self._check_input(x)
        rows = self.matrix.shape[0]
        drawn = stream.generator().integers(rows, size=batch_size)
        sub, neg_labels = self.matrix[drawn], self.neg_labels[drawn]
        weights = neg_labels * expit(neg_labels * _csr_matvec(sub, x))
        scale = self.loss_scale * rows / batch_size
        bill(batch_size / rows)
        g = scale * _csr_matvec(sub.T.tocsr(), weights) + self.reg * x
        return require_finite(g, "gradient")


class _LogisticBlock:
    """Every client of :func:`logistic_problem` at one point in one pass:
    one CSR product with the stacked client matrices and one with the
    :func:`_block_diagonal` of their cached transposes, each summing a row
    as its client's product does.  Losses are summed per client slice, so
    each client's value and gradient are bitwise its oracle's."""

    def __init__(self, oracles: list[LogisticOracle], stacked: sp.csr_matrix):
        self.stacked = stacked
        self.op_t = _block_diagonal([o.transpose for o in oracles])
        self.neg_labels = np.concatenate([o.neg_labels for o in oracles])
        ends = np.cumsum([o.matrix.shape[0] for o in oracles]).tolist()
        self.rows = [slice(a, b) for a, b in zip([0] + ends, ends)]
        self.n = len(oracles)
        self.loss_scale, self.reg = oracles[0].loss_scale, oracles[0].reg

    def _neg_margins(self, x: Vector) -> np.ndarray:
        return self.neg_labels * _csr_matvec(self.stacked, x)

    def values(self, x: Vector) -> np.ndarray:
        losses = np.logaddexp(0.0, self._neg_margins(x))
        sums = np.array([losses[rows].sum() for rows in self.rows])
        return self.loss_scale * sums + 0.5 * self.reg * float(x.dot(x))

    def gradients(self, x: Vector) -> np.ndarray:
        weights = self.neg_labels * expit(self._neg_margins(x))
        products = _csr_matvec(self.op_t, weights).reshape(self.n, -1)
        return self.loss_scale * products + self.reg * x


def logistic_problem(parts: list[SparseDataset]) -> DistributedProblem:
    """Assemble the distributed problem from per-client datasets.

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
    l_global = 0.25 * stacked_sq / total_rows + 1.0 / total_rows
    return DistributedProblem(
        clients=oracles,
        dim=dims.pop(),
        l_smooth=max(o.smoothness_hint for o in oracles),
        l_smooth_global=l_global,
        mu=1.0 / total_rows,
        block=_LogisticBlock(oracles, stacked),
    )
