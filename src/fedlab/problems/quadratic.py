"""Synthetic quadratic families with a controllable Hessian spread.

Each client objective is

    f_i(x) = (1/m) sum_j 0.5 (x - b_ij)' A_ij (x - b_ij)
             + beta * sum_k x_k^2 / (1 + x_k^2),

where the optional second term is a bounded, coordinate-separable sigmoid
penalty (identical across clients, so it never contributes to inter-client
Hessian dissimilarity; it adds at most ``2*beta`` to smoothness and can
subtract ``beta/2`` from the curvature lower bound).

``beta`` is a property of the family, not of a client.  Every ``A_ij`` of
a spectral family is ``Q diag(s_ij) Q'`` for one shared orthogonal basis
``Q``, so operator norms of client-mean deviations, and hence the
dissimilarity constants, are available in closed form.  A spectral spec
states its spectra and its centers ``Q' b_ij`` in that eigen frame.  Only
this module knows about ``Q``: generated ``beta = 0`` families are drawn in
their eigen frame (``Q = I``), since every method and every metric is
unchanged by an orthogonal change of coordinates, while ``beta > 0``
families carry a random ``Q``, because the sigmoid term is separable only
in original coordinates; their oracles form the mean Hessian ``Q diag(s)
Q'`` once, so each evaluation is one ``d x d`` product.  Explicit dense
symmetric matrices are also supported for hand-built fixtures.

:func:`build_quadratic_problem` makes every client a row of one
:class:`_QuadraticStack`, in original coordinates: the mean spectra, shape
(n, d), for a family without a basis, else the mean Hessians, shape (n, d,
d), with each client's mean center, linear term and constant.  The stack
answers k clients at k points in one product: one ``np.matvec`` (a
``gemv`` per row, bitwise each row's ``.dot``) or one elementwise product.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import (
    ClientOracle,
    ConfigurationError,
    DimensionError,
    DistributedProblem,
    RandomStream,
    UnsupportedStructureError,
    Vector,
    bill,
    hessian_matvecs_of,
    require_finite,
)

# Eigenvalue floor used when a merely-convex family (min_eig ~ 0) is drawn;
# keeps the minimizer finite while staying far below every other eigenvalue.
GENERAL_CONVEX_FLOOR = 1e-6
_SYMMETRY_TOL = 1e-10


def _sigmoid_values(points: np.ndarray, beta: float):
    """Each row's ``beta * sum_k x_k^2 / (1 + x_k^2)``; 0.0 when ``beta == 0``."""
    if beta == 0.0:
        return 0.0
    sq = points * points
    return beta * np.sum(sq / (1.0 + sq), axis=1)


def _hints(eigs: np.ndarray, beta: float) -> tuple[float, float | None]:
    """Smoothness and convexity hints: Hessian eigenvalues ``eigs`` + sigmoid."""
    top = float(np.max(np.abs(eigs))) + 2.0 * beta
    modulus = float(np.min(eigs)) - 0.5 * beta
    return top, (modulus if modulus >= 0.0 else None)


def _sigmoid_gradient(x: Vector, beta: float) -> Vector:
    """``2 beta x / (1 + x^2)^2``, elementwise on a vector or a block."""
    denom = x * x
    denom += 1.0
    denom *= denom
    return np.divide((beta * 2.0) * x, denom, denom)


@dataclass
class QuadraticClientSpec:
    """One client's component matrices and centers.

    Exactly one of ``spectra`` (eigenvalues in the family basis, shape
    ``(m, d)``) and ``matrices`` (dense symmetric, shape ``(m, d, d)``) is
    set.  ``centers`` holds the ``b_ij`` in the frame the curvature is stated
    in: the family's eigen frame for spectra, original coordinates for
    matrices.
    """

    centers: np.ndarray
    spectra: np.ndarray | None = None
    matrices: np.ndarray | None = None

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2:
            raise DimensionError("centers must have shape (m, d)")
        if (self.spectra is None) == (self.matrices is None):
            raise ConfigurationError(
                "exactly one of spectra/matrices must be given"
            )
        m, d = self.centers.shape
        if self.spectra is not None:
            self.spectra = np.asarray(self.spectra, dtype=np.float64)
            if self.spectra.shape != (m, d):
                raise DimensionError("spectra must have shape (m, d)")
        else:
            self.matrices = np.asarray(self.matrices, dtype=np.float64)
            if self.matrices.shape != (m, d, d):
                raise DimensionError("matrices must have shape (m, d, d)")
            scale = 1.0 + np.max(np.abs(self.matrices))
            skew = np.max(
                np.abs(self.matrices - np.transpose(self.matrices, (0, 2, 1)))
            )
            if skew > _SYMMETRY_TOL * scale:
                raise ConfigurationError("component matrices must be symmetric")

    @property
    def m(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def pulled(self, v: np.ndarray) -> np.ndarray:
        """Rows ``A_j v_j``, one per component, in the frame of ``centers``."""
        if self.spectra is None:
            return np.einsum("jkl,jl->jk", self.matrices, v)
        return self.spectra * v


@dataclass
class QuadraticFamily:
    """All clients of one quadratic instance plus the shared basis and beta.

    ``basis`` is the orthogonal matrix Q such that every component matrix
    is ``Q diag(s) Q'`` (None means the standard axes, which also covers
    dense specs).  All specs must use the same representation.  ``beta``
    weighs the sigmoid term every client shares.
    """

    specs: list[QuadraticClientSpec]
    basis: np.ndarray | None = None
    beta: float = 0.0

    def __post_init__(self):
        if not self.specs:
            raise ConfigurationError("family needs at least one client")
        if not self.beta >= 0.0:
            raise ConfigurationError(f"beta must be non-negative, got {self.beta!r}")
        kinds = {spec.spectra is not None for spec in self.specs}
        if len(kinds) != 1:
            raise ConfigurationError("mixed spectral/dense client specs")
        self.spectral = kinds.pop()
        if not self.spectral and self.basis is not None:
            raise ConfigurationError("dense specs cannot carry a basis")
        dims = {spec.dim for spec in self.specs}
        if len(dims) != 1:
            raise DimensionError("client dimension mismatch")
        self.dim = dims.pop()

    @property
    def n(self) -> int:
        return len(self.specs)

    def mean_spectra(self) -> np.ndarray:
        """Client-mean eigenvalues, shape (n, d); spectral families only."""
        if not self.spectral:
            raise ConfigurationError("family has no shared eigenbasis")
        return np.stack([spec.spectra.mean(axis=0) for spec in self.specs])

    def deviation_spectra(self) -> np.ndarray:
        """Eigenvalues of the deviations ``mean_i Hessian - global mean``."""
        mean = self.mean_spectra()
        return mean - mean.mean(axis=0)

    def mean_hessians(self) -> np.ndarray:
        """Per-client mean Hessians, shape (n, d, d); dense families only."""
        return np.stack([spec.matrices.mean(axis=0) for spec in self.specs])

    def minimizer(self) -> np.ndarray:
        """The minimizer of the mean quadratic part ``f - beta * sigmoid``.

        Solves ``H x = r`` for the mean Hessian ``H`` and the mean pulled
        center ``r = mean_ij A_ij b_ij``: elementwise in the shared eigenbasis
        for spectral families, by ``np.linalg.solve`` for dense ones.  It is
        the minimizer of ``f`` itself only when ``beta == 0``.  Raises
        :class:`UnsupportedStructureError` unless ``H`` is positive definite.
        """
        if self.spectral:
            hessian = np.stack([spec.spectra for spec in self.specs]).mean(axis=(0, 1))
            low = np.min(hessian)
        else:
            hessian = np.mean(self.mean_hessians(), axis=0)
            low = np.linalg.eigvalsh(hessian)[0]
        if low <= 0.0:
            raise UnsupportedStructureError(
                "direct solve needs a strictly convex mean quadratic"
            )
        rhs = sum(np.mean(spec.pulled(spec.centers), axis=0) for spec in self.specs)
        rhs /= self.n
        if not self.spectral:
            return np.linalg.solve(hessian, rhs)
        x_eig = rhs / hessian
        return x_eig if self.basis is None else self.basis @ x_eig


class _QuadraticStack:
    """Every client's curvature operator ``C``, mean center ``cbar``, ``u``
    and ``kappa`` (see :class:`QuadraticOracle`), row ``i`` for client ``i``.

    The block forms apply client ``rows[j]``'s terms to row ``j`` of a
    (k, d) block, with row dots as ``np.vecdot`` (a ``ddot`` per row).
    Consecutive rows are read as a view, other selections as a copy.  They
    neither bill nor check.
    """

    def __init__(self, family: QuadraticFamily):
        n, d = family.n, family.dim
        if family.spectral and family.basis is None:
            self.hessians = np.empty((n, d))
        else:
            self.hessians = np.empty((n, d, d))
        # a spectrum scales each row, a matrix applies one gemv per row
        self.apply = np.multiply if self.hessians.ndim == 2 else np.matvec
        self.centers = np.empty((n, d))
        self.u = np.empty((n, d))
        self.kappa = np.empty(n)
        self.beta = family.beta
        self._all = list(range(n))

    def _index(self, rows: list[int]):
        first, k = rows[0], len(rows)
        if rows == self._all[first : first + k]:
            return slice(first, first + k)
        return rows

    def values(self, rows: list[int], points: np.ndarray) -> np.ndarray:
        """``0.5 w'C w - u'w + kappa + sigmoid(y)`` per row, ``w = y - cbar``."""
        index = self._index(rows)
        w = points - self.centers[index]
        v = 0.5 * np.vecdot(w, self.apply(self.hessians[index], w))
        v -= np.vecdot(self.u[index], w)
        v += self.kappa[index]
        v += _sigmoid_values(points, self.beta)
        return v

    def gradients(self, rows: list[int], points: np.ndarray) -> np.ndarray:
        """``C (y - cbar) - u + sigmoid'(y)`` per row."""
        index = self._index(rows)
        g = self.apply(self.hessians[index], points - self.centers[index])
        g -= self.u[index]
        if self.beta != 0.0:
            g += _sigmoid_gradient(points, self.beta)
        return g

    def hessian_matvecs(self, rows: list[int], vs: np.ndarray) -> np.ndarray:
        """``C v`` per row: the quadratic part's Hessian, without the sigmoid's."""
        return self.apply(self.hessians[self._index(rows)], vs)


class QuadraticOracle(ClientOracle):
    """First-order oracle for one :class:`QuadraticClientSpec`: row ``row``
    of the problem's ``stack``.

    Its row holds one curvature operator ``C`` in original coordinates,
    the mean Hessian: the mean spectrum when the family has no basis
    (every generated ``beta = 0`` family), the mean matrix for dense specs,
    and ``Q diag(s) Q'`` formed once at construction otherwise.  With the
    mean center ``cbar``, ``u = mean_j A_j d_j`` and ``kappa = 0.5 mean_j
    d_j' A_j d_j`` for the offsets ``d_j = c_j - cbar``, and ``w = x -
    cbar``,

        gradient = C w - u + sigmoid',
        value    = 0.5 w'C w - u'w + kappa + sigmoid,

    one product with ``C`` instead of one per component; expanding around
    ``cbar`` keeps the rounding error of order ``|x - c_j|``.  Only solvers
    apply ``C`` through :func:`~fedlab.core.hessian_matvecs_of`, which
    bills a unit per row.  The basis is read only at construction and by
    :meth:`stochastic_gradient`: the mean of ``batch_size`` components
    drawn with replacement plus the exact sigmoid term, which bills
    ``batch_size / m`` full gradients.

    A non-finite query coordinate ``x_k`` makes gradient entry ``k``
    non-finite: that entry of ``C w`` adds ``C_kk w_k``, which is NaN or
    infinite (``0 * inf`` is NaN), and the sigmoid derivative of ``±inf`` is
    ``inf / inf``.  So the oracle declares
    ``gradient_propagates_non_finite``.
    """

    gradient_propagates_non_finite = True

    def __init__(
        self,
        spec: QuadraticClientSpec,
        family: QuadraticFamily,
        stack: _QuadraticStack,
        row: int,
    ):
        self.spec = spec
        self.basis = basis = family.basis
        self.dim = spec.dim
        self.beta = family.beta
        self.stack, self.row = stack, row
        if spec.spectra is not None:
            eigs = spec.spectra.mean(axis=0)
            stack.hessians[row] = eigs if basis is None else (basis * eigs).dot(basis.T)
        else:
            stack.hessians[row] = spec.matrices.mean(axis=0)
            eigs = np.linalg.eigvalsh(stack.hessians[row])
        # component terms are formed in the spec's frame, then rotated once
        center = spec.centers.mean(axis=0)
        offsets = spec.centers - center
        pulled = spec.pulled(offsets)
        stack.centers[row] = self._to_original(center)
        stack.u[row] = self._to_original(pulled.mean(axis=0))
        stack.kappa[row] = 0.5 * float(np.mean(np.einsum("jk,jk->j", offsets, pulled)))
        self._linear = self._to_original(spec.pulled(spec.centers).mean(axis=0))
        self._linear.setflags(write=False)
        self.smoothness_hint, self.convexity_hint = _hints(eigs, self.beta)

    def _to_original(self, v: Vector) -> Vector:
        return v if self.basis is None else self.basis.dot(v)

    # -- quadratic structure hooks used by the exact subproblem solver ----

    @property
    def is_pure_quadratic(self) -> bool:
        return self.beta == 0.0

    def hessian_matvec(self, v: Vector) -> Vector:
        return hessian_matvecs_of([self], self._check_shape(v)[None])[0]

    def linear_term(self) -> Vector:
        """Vector u with grad of the quadratic part equal to ``H x - u``.

        The cached array is read-only.
        """
        return self._linear

    def stochastic_gradient(self, x, stream: RandomStream, batch_size: int):
        x = self._check_input(x)
        spec = self.spec
        js = stream.generator().integers(spec.m, size=batch_size)
        if spec.spectra is not None:
            y = x if self.basis is None else x.dot(self.basis)
            rows = spec.spectra[js] * (y - spec.centers[js])
        else:
            rows = np.einsum("jkl,jl->jk", spec.matrices[js], x - spec.centers[js])
        g = self._to_original(rows.mean(axis=0))
        if self.beta != 0.0:
            g = g + _sigmoid_gradient(x, self.beta)
        bill(batch_size / spec.m)
        return require_finite(g, "gradient")


def build_quadratic_problem(family: QuadraticFamily) -> DistributedProblem:
    """Wrap a family in oracles over one stack and fill the
    smoothness/convexity hints."""
    stack = _QuadraticStack(family)
    oracles = [
        QuadraticOracle(spec, family, stack, i) for i, spec in enumerate(family.specs)
    ]
    if family.spectral:
        eigs = family.mean_spectra().mean(axis=0)
    else:
        eigs = np.linalg.eigvalsh(family.mean_hessians().mean(axis=0))
    l_smooth_global, mu = _hints(eigs, family.beta)
    return DistributedProblem(
        clients=oracles,
        dim=family.dim,
        l_smooth=max(o.smoothness_hint for o in oracles),
        l_smooth_global=l_smooth_global,
        mu=mu,
        quadratic=family,
    )


def _client_perturbations(n: int, t: float) -> np.ndarray:
    """Zero-sum per-client shifts of magnitude t on one designated axis.

    One +t/-t pair (clients 0 and 1), everyone else at the base spectrum.
    The worst-case deviation is exactly t while the mean-square deviation
    is t*sqrt(2/n); the report carries both achieved constants.
    """
    if n == 1 or t == 0.0:
        return np.zeros(n)
    pert = np.zeros(n)
    pert[0], pert[1] = t, -t
    return pert


def gen_quadratic_problem(
    seed: int,
    n: int,
    m: int,
    d: int,
    *,
    max_norm: float,
    min_eig: float,
    target_delta: float,
    beta: float = 0.0,
) -> DistributedProblem:
    """Draw a synthetic quadratic instance with a targeted Hessian spread.

    All component matrices share one eigenbasis: the axes when ``beta ==
    0`` (the family is drawn in its eigen frame), a random orthogonal one
    otherwise.  The ``(d, d)`` Gaussian behind that basis is drawn in both
    cases, so every later draw is the same for every ``beta``.  Three
    coordinates are pinned across every component: the first at
    ``max_norm`` (so the declared operator-norm cap is attained), the
    second at ``min_eig``, and a third mid-spectrum coordinate that carries
    the per-client zero-sum shifts of magnitude ``target_delta``.
    Remaining eigenvalues are drawn uniformly from
    ``[min_eig, max_norm]``; when ``min_eig`` is (near) zero, half of them
    are floored at ``1e-6`` to produce a merely-convex instance with a
    finite minimizer.

    Returns the problem alone; ``delta_exact_quadratic(problem)[0]`` gives
    the achieved dissimilarity constants (exact operator-norm computation).
    """
    if n < 1 or m < 1:
        raise ConfigurationError("need n >= 1 clients and m >= 1 components")
    if d < 3:
        raise ConfigurationError("need d >= 3 for the pinned coordinates")
    # written so that NaN, which fails each comparison, fails them too
    if not 0.0 < max_norm < np.inf:
        raise ConfigurationError(f"need 0 < max_norm < inf, got {max_norm!r}")
    if not -np.inf < min_eig < max_norm:
        raise ConfigurationError(f"need -inf < min_eig < max_norm, got {min_eig!r}")
    if not target_delta >= 0.0:
        raise ConfigurationError(f"target_delta must be >= 0, got {target_delta!r}")
    if target_delta > max_norm:
        raise ConfigurationError(
            "target_delta exceeds the declared operator-norm cap"
        )

    lo_clip = max(min_eig, 0.0)
    mid = 0.5 * (lo_clip + max_norm)
    if mid + target_delta > max_norm + 1e-12 or mid - target_delta < min_eig - 1e-12:
        raise ConfigurationError(
            "target_delta does not fit between min_eig and max_norm"
        )

    stream = RandomStream(seed).fork(0)
    rng = stream.generator()

    gauss = rng.standard_normal((d, d))
    q = None
    if beta > 0.0:
        q, r = np.linalg.qr(gauss)
        q = q * np.sign(np.diag(r))  # fixed sign convention

    general_convex = 0.0 <= min_eig < GENERAL_CONVEX_FLOOR
    draw_lo = GENERAL_CONVEX_FLOOR if general_convex else min_eig
    base = rng.uniform(draw_lo, max_norm, size=(m, d))
    base[:, 0] = max_norm
    base[:, 1] = draw_lo
    base[:, 2] = mid
    if general_convex:
        free = np.arange(3, d)
        base[:, free[::2]] = GENERAL_CONVEX_FLOOR

    pert = _client_perturbations(n, target_delta)
    specs = []
    for i in range(n):
        spectra = base.copy()
        spectra[:, 2] += pert[i]
        centers = rng.standard_normal((m, d)) / np.sqrt(d)  # in the eigen frame
        specs.append(QuadraticClientSpec(centers=centers, spectra=spectra))
    return build_quadratic_problem(QuadraticFamily(specs=specs, basis=q, beta=beta))
