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

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec
from scipy.special import expit

from ..core import (
    ClientOracle,
    ConfigurationError,
    DistributedProblem,
    RandomStream,
    Vector,
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
    if alpha <= 0.0:
        raise ConfigurationError("alpha must be positive")
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


def _spectral_norm_sq(matrix: sp.csr_matrix, transpose: sp.csr_matrix) -> float:
    """Upper estimate of ``lambda_max(A' A)`` (power iteration + margin).

    ``transpose`` is ``A'`` as a CSR matrix, built once by the caller for
    all 301 products ``A'(Av)``; each is two :func:`_csr_matvec` calls, and
    the iterate's norm is ``sqrt(w . w)``, as ``np.linalg.norm`` computes it.
    """
    frob_sq = float(matrix.multiply(matrix).sum())
    if frob_sq == 0.0:
        return 0.0
    d = matrix.shape[1]
    v = np.full(d, 1.0 / np.sqrt(d))
    for _ in range(300):
        w = _csr_matvec(transpose, _csr_matvec(matrix, v))
        norm = math.sqrt(w.dot(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
    rayleigh = float(v.dot(_csr_matvec(transpose, _csr_matvec(matrix, v))))
    return min(rayleigh * 1.05, frob_sq)


class LogisticOracle(ClientOracle):
    """Logistic loss over one client's rows plus the shared ridge term.

    The stochastic gradient draws ``batch_size`` rows uniformly with
    replacement and rescales, which is unbiased for the full gradient; the
    ridge term is always included exactly.

    ``transpose`` is ``A'``, the client's rows transposed, built once at
    construction as its own CSR matrix and reused by every gradient
    ``A'w`` and by the smoothness estimate.  Building it per product (what
    ``matrix.T`` does) cost most of a gradient.  Both operators' arrays are
    read-only, so the two cannot drift apart.  Every product ``Ax`` and
    ``A'w`` is a :func:`_csr_matvec` call straight into scipy's CSR kernel,
    which sums each output entry over the stored entries of its row in the
    same order, starting from zero, as ``matrix @ x`` and ``matrix.T @ w``
    do, so the products are bitwise equal.
    """

    def __init__(
        self,
        part: SparseDataset,
        n_clients: int,
        total_rows: int,
        batch_size: int | None = None,
    ):
        if part.n_rows == 0:
            raise ConfigurationError("client received no rows")
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        self.matrix = _read_only(part.matrix.copy())
        self.transpose = _read_only(self.matrix.T.tocsr())
        self.labels = part.labels.copy()
        self.dim = part.dim
        self.batch_size = batch_size
        self.loss_scale = n_clients / total_rows
        self.reg = 1.0 / total_rows
        spectral_sq = _spectral_norm_sq(self.matrix, self.transpose)
        self.smoothness_hint = 0.25 * self.loss_scale * spectral_sq + self.reg
        self.convexity_hint = self.reg

    def _margins(self, x: Vector) -> np.ndarray:
        return self.labels * _csr_matvec(self.matrix, x)

    def _value(self, x: Vector) -> float:
        losses = np.logaddexp(0.0, -self._margins(x))
        return self.loss_scale * float(losses.sum()) + 0.5 * self.reg * float(
            x.dot(x)
        )

    def _gradient(self, x: Vector) -> Vector:
        weights = -self.labels * expit(-self._margins(x))
        return self.loss_scale * _csr_matvec(self.transpose, weights) + self.reg * x

    def _row_gradients(self, x: Vector, rows: np.ndarray) -> np.ndarray:
        sub = self.matrix[rows]
        margins = self.labels[rows] * _csr_matvec(sub, x)
        weights = -self.labels[rows] * expit(-margins)
        return sub.multiply(weights[:, None]).toarray()

    def stochastic_gradient(self, x, stream: RandomStream) -> Vector:
        if self.batch_size is None:
            return self.gradient(x)
        x = self._check_input(x)
        rng = stream.generator()
        rows = rng.integers(self.matrix.shape[0], size=self.batch_size)
        row_sum = self._row_gradients(x, rows).sum(axis=0)
        scale = self.loss_scale * self.matrix.shape[0] / self.batch_size
        return scale * row_sum + self.reg * x

    @property
    def stochastic_cost(self) -> float:
        if self.batch_size is None:
            return 1.0
        return min(1.0, self.batch_size / self.matrix.shape[0])


def logistic_problem(
    parts: list[SparseDataset], batch_size: int | None = None
) -> DistributedProblem:
    """Assemble the distributed problem from per-client datasets."""
    if not parts:
        raise ConfigurationError("need at least one client dataset")
    dims = {p.dim for p in parts}
    if len(dims) != 1:
        raise ConfigurationError("client datasets disagree on dimension")
    total_rows = sum(p.n_rows for p in parts)
    n = len(parts)
    oracles = [LogisticOracle(p, n, total_rows, batch_size) for p in parts]
    stacked = sp.vstack([o.matrix for o in oracles], format="csr")
    stacked_sq = _spectral_norm_sq(stacked, stacked.T.tocsr())
    l_global = 0.25 * stacked_sq / total_rows + 1.0 / total_rows
    return DistributedProblem(
        clients=oracles,
        dim=dims.pop(),
        l_smooth=max(o.smoothness_hint for o in oracles),
        l_smooth_global=l_global,
        mu=1.0 / total_rows,
    )
