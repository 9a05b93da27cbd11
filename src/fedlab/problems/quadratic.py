"""Synthetic quadratic families with a controllable Hessian spread.

Each client objective is

    f_i(x) = (1/m) sum_j 0.5 (x - b_ij)' A_ij (x - b_ij)
             + beta * sum_k x_k^2 / (1 + x_k^2),

where the optional second term is a bounded, coordinate-separable sigmoid
penalty (identical across clients, so it never contributes to inter-client
Hessian dissimilarity; it adds at most ``2*beta`` to smoothness and can
subtract ``beta/2`` from the curvature lower bound).

Generated families share one orthogonal eigenbasis for every ``A_ij``, so
operator norms of client-mean deviations, and hence the dissimilarity
constants, are available in closed form.  Explicit dense symmetric
matrices are also supported for hand-built fixtures.
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
)

# Eigenvalue floor used when a merely-convex family (min_eig ~ 0) is drawn;
# keeps the minimizer finite while staying far below every other eigenvalue.
GENERAL_CONVEX_FLOOR = 1e-6
_SYMMETRY_TOL = 1e-10


def _sigmoid_value(x: Vector, beta: float) -> float:
    if beta == 0.0:
        return 0.0
    sq = x * x
    return beta * float(np.sum(sq / (1.0 + sq)))


def _sigmoid_gradient(x: Vector, beta: float) -> Vector:
    denom = 1.0 + x * x
    return beta * 2.0 * x / (denom * denom)


@dataclass
class QuadraticClientSpec:
    """One client's component matrices and centers.

    Exactly one of ``spectra`` (eigenvalues in the family basis, shape
    ``(m, d)``) and ``matrices`` (dense symmetric, shape ``(m, d, d)``) is
    set.  ``centers`` holds the ``b_ij`` in original coordinates.
    """

    centers: np.ndarray
    beta: float = 0.0
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
        if self.beta < 0.0:
            raise ConfigurationError("beta must be non-negative")

    @property
    def m(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def mean_spectrum(self) -> np.ndarray | None:
        return None if self.spectra is None else self.spectra.mean(axis=0)

    def mean_hessian(self) -> np.ndarray:
        """Client-mean quadratic Hessian (sigmoid term excluded); dense specs."""
        return self.matrices.mean(axis=0)


@dataclass
class QuadraticFamily:
    """All clients of one quadratic instance plus the shared basis.

    ``basis`` is the orthogonal matrix Q such that every component matrix
    is ``Q diag(s) Q'`` (None means the standard axes, which also covers
    dense specs).  All specs must use the same representation.
    """

    specs: list[QuadraticClientSpec]
    basis: np.ndarray | None = None

    def __post_init__(self):
        if not self.specs:
            raise ConfigurationError("family needs at least one client")
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

    @property
    def beta(self) -> float:
        return self.specs[0].beta

    def mean_spectra(self) -> np.ndarray:
        """Client-mean eigenvalues, shape (n, d); spectral families only."""
        if not self.spectral:
            raise ConfigurationError("family has no shared eigenbasis")
        return np.stack([spec.mean_spectrum() for spec in self.specs])

    def deviation_spectra(self) -> np.ndarray:
        """Eigenvalues of the deviations ``mean_i Hessian - global mean``."""
        mean = self.mean_spectra()
        return mean - mean.mean(axis=0)

    def mean_hessians(self) -> np.ndarray:
        """Per-client mean Hessians, shape (n, d, d); dense families only."""
        return np.stack([spec.mean_hessian() for spec in self.specs])

    def minimizer(self) -> np.ndarray:
        """The minimizer of the mean quadratic part ``f - beta * sigmoid``.

        Solves ``H x = r`` for the mean Hessian ``H`` and the mean pulled
        center ``r = mean_ij A_ij b_ij``: elementwise in the shared eigenbasis
        for spectral families, by ``np.linalg.solve`` for dense ones.  It is
        the minimizer of ``f`` itself only when ``beta == 0``.  Raises
        :class:`UnsupportedStructureError` unless ``H`` is positive definite.
        """
        if self.spectral:
            spectra = np.stack([spec.spectra for spec in self.specs])  # (n,m,d)
            global_spectrum = spectra.mean(axis=(0, 1))
            if np.min(global_spectrum) <= 0.0:
                raise UnsupportedStructureError(
                    "direct solve needs a strictly convex mean quadratic"
                )
            basis = self.basis
            rhs = np.zeros(self.dim)
            for spec in self.specs:
                centers_eig = (
                    spec.centers if basis is None else spec.centers @ basis
                )
                rhs += np.mean(spec.spectra * centers_eig, axis=0)
            rhs /= len(self.specs)
            x_eig = rhs / global_spectrum
            return x_eig if basis is None else basis @ x_eig
        mean_h = np.mean(self.mean_hessians(), axis=0)
        eigs = np.linalg.eigvalsh(mean_h)
        if eigs[0] <= 0.0:
            raise UnsupportedStructureError(
                "direct solve needs a strictly convex mean quadratic"
            )
        rhs = np.zeros(self.dim)
        for spec in self.specs:
            rhs += np.mean(
                np.einsum("jkl,jl->jk", spec.matrices, spec.centers), axis=0
            )
        rhs /= len(self.specs)
        return np.linalg.solve(mean_h, rhs)


class QuadraticOracle(ClientOracle):
    """First-order oracle for one :class:`QuadraticClientSpec`.

    Value and gradient are closed forms in the eigenbasis frame (original
    coordinates for dense specs), expanded around the mean center ``cbar``
    from terms cached at construction: the mean spectrum ``s`` (dense: the
    mean matrix), ``u = mean_j s_j * d_j`` and ``kappa = 0.5 mean_j
    d_j' s_j d_j`` for the center offsets ``d_j = c_j - cbar``.  For
    ``w = Q'x - cbar``,

        gradient = Q (s * w - u) + sigmoid',
        value    = 0.5 w's w - u'w + kappa + sigmoid,

    which is O(d^2) per call instead of O(m d^2).  Expanding around
    ``cbar`` rather than the origin keeps the rounding error of order
    ``|x - c_j|`` even when the centers sit far from the origin.  The
    gradient shares the private :meth:`_curvature` with
    :meth:`hessian_matvec` and never calls the public hook, so every
    ``hessian_matvec`` call is a solver's matvec (the work the exact
    solver bills).

    :meth:`eigen_frame` hands out the basis and an oracle over the same
    spectra in the eigen frame, whose gradient is ``s * w - u`` and whose
    ``hessian_matvec`` is ``s * v``, both O(d).  A run of a problem whose
    clients share the basis steps the frame oracles throughout (see
    :meth:`~fedlab.core.DistributedProblem.eigen_frame`), so no gradient or
    matvec pays a rotation; a local solve on an oracle with a basis runs
    its conjugate gradients there, paying two rotations per solve.

    The stochastic gradient samples one of the m quadratic components
    uniformly (the sigmoid term, being cheap and deterministic, is always
    included exactly), so it is unbiased for the full gradient.
    """

    def __init__(self, spec: QuadraticClientSpec, basis: np.ndarray | None = None):
        self.spec = spec
        self.basis = basis
        self._eigen = None  # eigen-frame oracle, see eigen_frame
        self.dim = spec.dim
        self.beta = spec.beta
        if spec.spectra is not None:
            # centers expressed in the eigenbasis; everything else is diagonal
            self._centers = spec.centers if basis is None else spec.centers @ basis
            self._mean_spectrum = spec.mean_spectrum()
            top = float(np.max(np.abs(self._mean_spectrum)))
            low = float(np.min(self._mean_spectrum))
        else:
            self._centers = spec.centers
            self._mean_matrix = spec.matrices.mean(axis=0)
            eigs = np.linalg.eigvalsh(self._mean_matrix)
            top = float(np.max(np.abs(eigs)))
            low = float(np.min(eigs))
        self._center = self._centers.mean(axis=0)
        offsets = self._centers - self._center
        pulled = self._component_curvature(offsets)
        self._u = pulled.mean(axis=0)
        self._kappa = 0.5 * float(np.mean(np.einsum("jk,jk->j", offsets, pulled)))
        self._linear = self._to_original(
            self._component_curvature(self._centers).mean(axis=0)
        )
        self._linear.setflags(write=False)
        self.smoothness_hint = top + 2.0 * self.beta
        modulus = low - 0.5 * self.beta
        self.convexity_hint = modulus if modulus >= 0.0 else None

    def _frame(self, x: Vector) -> Vector:
        return x if self.basis is None else x.dot(self.basis)

    def _to_original(self, v: Vector) -> Vector:
        return v if self.basis is None else self.basis.dot(v)

    def _curvature(self, y: Vector) -> Vector:
        """Mean quadratic Hessian applied to ``y``, within the frame."""
        if self.spec.spectra is None:
            return self._mean_matrix.dot(y)
        return self._mean_spectrum * y

    def _component_curvature(self, v: np.ndarray) -> np.ndarray:
        """Rows ``A_j v_j`` within the frame, one per component."""
        if self.spec.spectra is None:
            return np.einsum("jkl,jl->jk", self.spec.matrices, v)
        return self.spec.spectra * v

    # -- quadratic structure hooks used by the exact subproblem solver ----

    @property
    def is_pure_quadratic(self) -> bool:
        return self.beta == 0.0

    def hessian_matvec(self, v: Vector) -> Vector:
        return self._to_original(self._curvature(self._frame(v)))

    def linear_term(self) -> Vector:
        """Vector u with grad of the quadratic part equal to ``H x - u``.

        The cached array is read-only.
        """
        return self._linear

    def eigen_frame(self) -> tuple[np.ndarray | None, "QuadraticOracle"]:
        """``(Q, frame)``: the basis and this quadratic part in its frame.

        ``frame`` is a basis-free oracle over the same spectra and the
        frame centers (``beta = 0``), so ``Q frame.hessian_matvec(Q'v)`` is
        ``hessian_matvec(v)``, and for a pure quadratic
        ``Q frame.gradient(Q'x)`` is ``gradient(x)`` and
        ``frame.value(Q'x)`` is ``value(x)``, up to rounding.  It is built
        on first request and kept, so every caller, the exact solver and
        :meth:`~fedlab.core.DistributedProblem.eigen_frame` alike, gets the
        same object.  An oracle without a basis is its own frame:
        ``(None, self)``.
        """
        if self.basis is None:
            return None, self
        if self._eigen is None:
            self._eigen = QuadraticOracle(
                QuadraticClientSpec(centers=self._centers, spectra=self.spec.spectra)
            )
        return self.basis, self._eigen

    # -- oracle implementation --------------------------------------------

    def _value(self, x: Vector) -> float:
        w = self._frame(x) - self._center
        quad = 0.5 * float(w.dot(self._curvature(w))) - float(self._u.dot(w))
        return quad + self._kappa + _sigmoid_value(x, self.beta)

    def _gradient(self, x: Vector) -> Vector:
        w = self._frame(x) - self._center
        g = self._to_original(self._curvature(w) - self._u)
        return g if self.beta == 0.0 else g + _sigmoid_gradient(x, self.beta)

    def stochastic_gradient(self, x, stream: RandomStream) -> Vector:
        x = self._check_input(x)
        j = int(stream.generator().integers(self.spec.m))
        if self.spec.spectra is not None:
            g = self._to_original(
                self.spec.spectra[j] * (self._frame(x) - self._centers[j])
            )
        else:
            g = self.spec.matrices[j].dot(x - self._centers[j])
        return g if self.beta == 0.0 else g + _sigmoid_gradient(x, self.beta)

    @property
    def stochastic_cost(self) -> float:
        return 1.0 / self.spec.m


def build_quadratic_problem(family: QuadraticFamily) -> DistributedProblem:
    """Wrap a family in oracles and fill the smoothness/convexity hints."""
    oracles = [QuadraticOracle(spec, family.basis) for spec in family.specs]
    l_clients = max(o.smoothness_hint for o in oracles)
    beta = family.beta
    if family.spectral:
        global_spectrum = family.mean_spectra().mean(axis=0)
        top = float(np.max(np.abs(global_spectrum)))
        low = float(np.min(global_spectrum))
    else:
        eigs = np.linalg.eigvalsh(family.mean_hessians().mean(axis=0))
        top = float(np.max(np.abs(eigs)))
        low = float(np.min(eigs))
    modulus = low - 0.5 * beta
    return DistributedProblem(
        clients=oracles,
        dim=family.dim,
        l_smooth=l_clients,
        l_smooth_global=top + 2.0 * beta,
        mu=modulus if modulus >= 0.0 else None,
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

    All component matrices share one random orthogonal eigenbasis.  Three
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
    if max_norm <= 0.0 or max_norm <= min_eig:
        raise ConfigurationError("require max_norm > max(min_eig, 0)")
    if target_delta < 0.0:
        raise ConfigurationError("target_delta must be non-negative")
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
        centers_eig = rng.standard_normal((m, d)) / np.sqrt(d)
        specs.append(
            QuadraticClientSpec(
                centers=centers_eig @ q.T, beta=beta, spectra=spectra
            )
        )
    return build_quadratic_problem(QuadraticFamily(specs=specs, basis=q))
