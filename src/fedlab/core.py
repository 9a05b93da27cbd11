"""Vector arithmetic, replayable random streams, and oracle interfaces.

Everything downstream (problem construction, local solvers, federated
methods, the experiment harness) is written against the primitives in this
module: dense float64 vectors, counter-based random streams addressed by
``(master_seed, path)``, and client oracles exposing value/gradient pairs
for one client's local objective.

Products on the per-call path (every oracle value and gradient, the local
solvers' loops, method steps and the harness's metric snapshots) call the
routine they end in directly: dense ones ``ndarray.dot``, whose BLAS call
the ``@`` gufunc makes too after a costlier dispatch, with vector norms as
``math.sqrt(v.dot(v))``, which is what ``np.linalg.norm`` computes for a
1-D float vector; sparse ones ``problems.logistic._csr_matvec``, scipy's
CSR kernel without the ``@`` dispatch.  Both are bitwise equal to the forms
they replace.  :func:`require_finite` alone keeps ``np.vdot``: ``.dot`` and
``@`` set the overflow flag, and so warn, on finite entries above about
1e154, and ``np.vdot`` does not.
"""
from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

Vector = np.ndarray


class DimensionError(ValueError):
    """Operands with incompatible shapes were combined."""


class NonFiniteError(ValueError):
    """A NaN or Inf crossed an oracle boundary."""


class ConfigurationError(ValueError):
    """A configuration value is outside its documented domain."""


class UnsupportedStructureError(TypeError):
    """The requested solver needs structure the oracle does not expose."""


def as_vector(x) -> Vector:
    """Coerce ``x`` to a 1-D float64 array (copying only when needed)."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    return v


_FLOAT64 = np.dtype(np.float64)


def require_finite(arr, what: str = "value"):
    """Raise :class:`NonFiniteError` unless every entry of ``arr`` is finite.

    A 1-D float64 array is first tested with one BLAS dot, ``arr . arr``: a
    sum of squares is finite only when every entry is.  It can also overflow
    on finite entries (above about 1e154), so a non-finite dot, like any
    other input, falls back to the exact ``np.isfinite`` test.  ``np.vdot``
    does not read the floating-point status flags, so no input makes the
    dot warn.
    """
    if (
        type(arr) is np.ndarray
        and arr.ndim == 1
        and arr.dtype is _FLOAT64
        and math.isfinite(np.vdot(arr, arr))
    ):
        return arr
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite entries in {what}")
    return arr


# SeedSequence's default pool size: a seed with a spawn key is padded to it
_POOL_SIZE = 4


def _uint32_words(value, what: str) -> tuple[int, ...]:
    """Little-endian 32-bit words of a non-negative integer, as numpy splits it.

    Zero is one word; anything that is not an integer (``operator.index``
    refuses it) or is negative raises :class:`ConfigurationError`.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise ConfigurationError(
            f"{what} must be an integer, got {value!r}"
        ) from None
    if n < 0:
        raise ConfigurationError(f"{what} must be non-negative")
    if n <= 0xFFFFFFFF:
        return (n,)
    words = []
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return tuple(words)


@dataclass(frozen=True)
class RandomStream:
    """Deterministic random stream addressed by a seed and an integer path.

    A stream never holds generator state: :meth:`generator` rebuilds the
    underlying PRNG from ``(master_seed, path)`` on every call, so replaying
    a path reproduces bit-identical draws no matter how many other streams
    were consumed in between.  Child streams obtained through :meth:`fork`
    are statistically independent of the parent and of each other.

    The address is kept as the uint32 entropy words that
    ``np.random.SeedSequence(entropy=master_seed, spawn_key=path)``
    assembles: the seed's words, zero-padded to the pool size of 4 when the
    path is non-empty, then each label's words.  A stream validates its
    seed and path once; :meth:`fork` validates and appends only the new
    label, and :meth:`generator` seeds numpy from the words, which fills the
    same entropy pool, so every drawn bit is numpy's for that address.
    """

    master_seed: int
    path: tuple[int, ...] = ()
    _words: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        words = _uint32_words(self.master_seed, "master_seed")
        if self.path:
            words = self._padded(words)
        for label in self.path:
            words += _uint32_words(label, "stream path label")
        object.__setattr__(self, "_words", words)

    @staticmethod
    def _padded(seed_words: tuple[int, ...]) -> tuple[int, ...]:
        return seed_words + (0,) * (_POOL_SIZE - len(seed_words))

    def fork(self, label: int) -> "RandomStream":
        """Child stream for integer ``label`` (deterministic, collision-free)."""
        words = self._words if self.path else self._padded(self._words)
        words += _uint32_words(label, "stream path label")
        # the parent's address is already valid: build the child without
        # __post_init__, which would re-validate the whole path
        child = object.__new__(RandomStream)
        object.__setattr__(child, "master_seed", self.master_seed)
        object.__setattr__(child, "path", self.path + (label,))
        object.__setattr__(child, "_words", words)
        return child

    def generator(self) -> np.random.Generator:
        """Fresh generator seeded from this stream's address."""
        words = np.array(self._words, dtype=np.uint32)
        return np.random.default_rng(np.random.SeedSequence(words))


class ClientOracle(ABC):
    """First-order oracle for one client's local objective.

    Subclasses implement ``_value`` and ``_gradient``; the public methods
    validate shapes and reject non-finite inputs and outputs, so a NaN is
    caught at the oracle boundary instead of propagating silently.  Every
    billed primitive passes this boundary once, at the base oracle: wrappers
    such as :class:`~fedlab.local_solvers.SurrogateOracle` call the base's
    public methods from their own ``_gradient``, and the local solvers call
    the wrapper's ``_gradient`` and test the gradient norm they compute
    anyway (see :mod:`fedlab.local_solvers`); a surrogate value reads the
    base's unchecked ``_value``.  Outside callers of :meth:`gradient` and
    :meth:`value` keep every check; only inputs and outputs that are not
    already 1-D float64 arrays pass through :func:`as_vector`.

    Attributes
    ----------
    dim : int
        Ambient dimension.
    smoothness_hint : float or None
        Upper bound on the gradient Lipschitz constant, if known.
    convexity_hint : float or None
        Strong-convexity modulus (0 for merely convex), or None when the
        objective is not known to be convex.
    """

    dim: int
    smoothness_hint: float | None = None
    convexity_hint: float | None = None

    @abstractmethod
    def _value(self, x: Vector) -> float: ...

    @abstractmethod
    def _gradient(self, x: Vector) -> Vector: ...

    def _check_input(self, x) -> Vector:
        if not (type(x) is np.ndarray and x.ndim == 1 and x.dtype is _FLOAT64):
            x = as_vector(x)
        if x.shape[0] != self.dim:
            raise DimensionError(
                f"oracle dimension {self.dim}, query dimension {x.shape[0]}"
            )
        require_finite(x, "oracle query point")
        return x

    def value(self, x) -> float:
        v = float(self._value(self._check_input(x)))
        if not math.isfinite(v):
            raise NonFiniteError("non-finite objective value")
        return v

    def gradient(self, x) -> Vector:
        g = self._gradient(self._check_input(x))
        if not (type(g) is np.ndarray and g.ndim == 1 and g.dtype is _FLOAT64):
            g = as_vector(g)
        require_finite(g, "gradient")
        return g

    def stochastic_gradient(self, x, stream: RandomStream) -> Vector:
        """Unbiased gradient estimate.

        The base implementation is the deterministic gradient (zero
        variance); subclasses with sampling schemes override it.
        """
        return self.gradient(x)

    @property
    def stochastic_cost(self) -> float:
        """Cost of one stochastic gradient in full-gradient units."""
        return 1.0


@dataclass
class DistributedProblem:
    """A finite-sum objective ``f = (1/n) sum_i f_i`` over client oracles.

    Parameters below the client list are optional annotations: smoothness
    of the worst client (`l_smooth`), smoothness of the global average
    (`l_smooth_global`, never larger), a strong-convexity modulus, and
    exact quadratic structure when available.  Per-client data is an
    (n, d) block with row ``i`` for client ``i``.
    """

    clients: list[ClientOracle]
    dim: int
    l_smooth: float | None = None
    l_smooth_global: float | None = None
    mu: float | None = None
    quadratic: object | None = None

    def __post_init__(self):
        if not self.clients:
            raise ConfigurationError("a problem needs at least one client")
        for c in self.clients:
            if c.dim != self.dim:
                raise DimensionError("client dimension mismatch")

    @property
    def n(self) -> int:
        return len(self.clients)

    def f(self, x) -> float:
        return sum(c.value(x) for c in self.clients) / self.n

    def grad_f(self, x) -> Vector:
        return self.mean_gradient(self.client_gradients(x))

    def client_gradients(self, x) -> np.ndarray:
        """Every client's gradient at ``x``, as an (n, d) block."""
        return np.array([c.gradient(x) for c in self.clients])

    @staticmethod
    def mean_gradient(grads: np.ndarray) -> Vector:
        # single canonical reduction so every caller gets bitwise-equal means
        return np.mean(grads, axis=0)

    def eigen_frame(self) -> tuple[np.ndarray | None, "DistributedProblem"]:
        """``(Q, frame)``: a shared eigenbasis and this problem in its frame.

        When every client is a pure quadratic and each client's
        ``eigen_frame`` returns the same basis object ``Q``, ``frame`` is a
        problem over those clients' frame oracles with the same hints, so
        ``frame.f(Q'x) = f(x)`` and ``Q frame.grad_f(Q'x) = grad_f(x)`` up
        to rounding.  ``frame.quadratic`` is None: a family describes its
        problem in original coordinates.  Otherwise ``(None, self)``; no
        client is asked for a frame unless every one is a pure quadratic.
        """
        if not all(getattr(c, "is_pure_quadratic", False) for c in self.clients):
            return None, self
        frames = [c.eigen_frame() for c in self.clients]
        basis = frames[0][0]
        if basis is None or any(q is not basis for q, _ in frames):
            return None, self
        return basis, DistributedProblem(
            clients=[frame for _, frame in frames],
            dim=self.dim,
            l_smooth=self.l_smooth,
            l_smooth_global=self.l_smooth_global,
            mu=self.mu,
        )
