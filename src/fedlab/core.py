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
1-D float vector, and the row dots of a block as ``np.vecdot``, the same
``ddot`` per row; sparse ones ``problems.logistic._csr_matvec``, scipy's
CSR kernel without the ``@`` dispatch.  All are bitwise equal to the forms
they replace.  :func:`require_finite` alone keeps ``np.vdot``: ``.dot`` and
``@`` set the overflow flag, and so warn, on finite entries above about
1e154, and ``np.vdot`` does not.

Finiteness is checked at the oracle boundary: a query point and what comes
back from it.  A billed gradient of an oracle that declares
``gradient_propagates_non_finite`` checks only its output, which is
non-finite whenever its query is (see :class:`ClientOracle`).
"""
from __future__ import annotations

import functools
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


_FLOAT64 = np.dtype(np.float64)


def _is_vector(x) -> bool:
    return type(x) is np.ndarray and x.ndim == 1 and x.dtype is _FLOAT64


def as_vector(x) -> Vector:
    """Coerce ``x`` to a 1-D float64 array (copying only when needed).

    An exact ``np.ndarray`` that is already 1-D float64 comes back as the
    same object, as ``np.asarray`` would return it.
    """
    if _is_vector(x):
        return x
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def require_finite(arr, what: str = "value"):
    """Raise :class:`NonFiniteError` unless every entry of ``arr`` is finite.

    A 1-D float64 array is first tested with one BLAS dot, ``arr . arr``: a
    sum of squares is finite only when every entry is.  It can also overflow
    on finite entries (above about 1e154), so a non-finite dot, like any
    other input, falls back to the exact ``np.isfinite`` test.  ``np.vdot``
    does not read the floating-point status flags, so no input makes the
    dot warn.
    """
    if _is_vector(arr) and math.isfinite(np.vdot(arr, arr)):
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


# gradient-equivalent work billed since the last take_billed()
_billed = 0.0


def bill(units: float) -> None:
    """Add ``units`` full gradients of work to the running bill."""
    global _billed
    _billed += units


def take_billed() -> float:
    """The work billed since the last call; the count restarts at zero.

    A step or initialisation calls it to open its window and to read its
    bill, so work between windows (metrics, the reference) is never billed.
    """
    global _billed
    units, _billed = _billed, 0.0
    return units


class ClientOracle(ABC):
    """First-order oracle for one client's local objective.

    Subclasses implement ``_value`` and ``_gradient``; the public methods
    validate shapes and reject non-finite inputs and outputs, so a NaN is
    caught at the oracle boundary instead of propagating silently.  An
    oracle whose gradient has a non-finite entry whenever its query point
    has one declares ``gradient_propagates_non_finite``; its public
    :meth:`gradient` then checks only the shape of the query and the
    gradient it returns, which rejects the same points, and names the query
    point when that is the cause (the computation may warn first, as
    ``0 * inf`` does).  So a declared oracle's gradient costs one finiteness
    check and an undeclared one two; :meth:`value`, samples and block
    evaluations always check both.

    Every billed primitive passes this boundary once, at the base oracle:
    wrappers such as :class:`~fedlab.local_solvers.SurrogateOracle` call the
    base's public methods from their own ``_gradient``, and the local
    solvers call the wrapper's ``_gradient`` and test the gradient norm they
    compute anyway (see :mod:`fedlab.local_solvers`); a surrogate value
    reads the base's unchecked ``_value``.  Outside callers of :meth:`gradient` and
    :meth:`value` keep every check, and query points and gradients pass
    through :func:`as_vector`.  The public :meth:`gradient` bills one unit
    (see :func:`bill`); values bill nothing.  An oracle that can sample
    overrides :meth:`stochastic_gradient`, which bills the share of a full
    gradient that the sample consumed.

    Attributes
    ----------
    dim : int
        Ambient dimension.
    smoothness_hint : float or None
        Upper bound on the gradient Lipschitz constant, if known.
    convexity_hint : float or None
        Strong-convexity modulus (0 for merely convex), or None when the
        objective is not known to be convex.
    gradient_propagates_non_finite : bool
        True when every non-finite query point gives a non-finite gradient
        (off by default).
    """

    dim: int
    smoothness_hint: float | None = None
    convexity_hint: float | None = None
    gradient_propagates_non_finite: bool = False

    @abstractmethod
    def _value(self, x: Vector) -> float: ...

    @abstractmethod
    def _gradient(self, x: Vector) -> Vector: ...

    def _check_shape(self, x) -> Vector:
        x = as_vector(x)
        if x.shape[0] != self.dim:
            raise DimensionError(
                f"oracle dimension {self.dim}, query dimension {x.shape[0]}"
            )
        return x

    def _check_input(self, x) -> Vector:
        return require_finite(self._check_shape(x), "oracle query point")

    def value(self, x) -> float:
        v = float(self._value(self._check_input(x)))
        if not math.isfinite(v):
            raise NonFiniteError("non-finite objective value")
        return v

    def gradient(self, x) -> Vector:
        global _billed
        _billed += 1.0
        x = self._check_shape(x)
        if not self.gradient_propagates_non_finite:
            require_finite(x, "oracle query point")
        g = as_vector(self._gradient(x))
        try:
            return require_finite(g, "gradient")
        except NonFiniteError:
            # a declared oracle's non-finite query is caught here: name it
            require_finite(x, "oracle query point")
            raise

    def stochastic_gradient(self, x, stream: RandomStream, batch_size: int):
        """An unbiased gradient estimate from ``batch_size`` samples drawn
        from ``stream``; it bills its cost in full-gradient units.

        Oracles with a sampling scheme override this; the base has none.
        """
        raise UnsupportedStructureError(
            f"{type(self).__name__} has no stochastic gradient"
        )


@dataclass
class DistributedProblem:
    """A finite-sum objective ``f = (1/n) sum_i f_i`` over client oracles.

    Parameters below the client list are optional annotations: smoothness
    of the worst client (`l_smooth`), smoothness of the global average
    (`l_smooth_global`, never larger), a strong-convexity modulus, and
    exact quadratic structure when available.  Per-client data is an
    (n, d) block with row ``i`` for client ``i``.

    A constructor may add a ``block`` whose ``values(x)`` and
    ``gradients(x)`` give every client's raw value and gradient at ``x`` in
    one pass, bitwise its ``_value``/``_gradient``.  :meth:`values_at` and
    :meth:`gradients_at` check it once (else they make public calls);
    :meth:`f` and :meth:`grad_f` read it (unbilled), while billed work calls
    :meth:`client_gradients`, one public ``gradient`` per client.
    """

    clients: list[ClientOracle]
    dim: int
    l_smooth: float | None = None
    l_smooth_global: float | None = None
    mu: float | None = None
    quadratic: object | None = None
    block: object | None = None

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
        # left to right: the built-in sum compensates from Python 3.12 on
        return functools.reduce(operator.add, self.values_at(x), 0.0) / self.n

    def grad_f(self, x) -> Vector:
        return self.mean_gradient(self.gradients_at(x))

    def client_gradients(self, x) -> np.ndarray:
        """Every client's gradient at ``x``, as an (n, d) block."""
        return np.array([c.gradient(x) for c in self.clients])

    def values_at(self, x) -> list[float]:
        """Every client's value at ``x``, from the block if there is one."""
        if self.block is None:
            return [c.value(x) for c in self.clients]
        values = self.block.values(self.clients[0]._check_input(x))
        if not np.isfinite(values).all():
            raise NonFiniteError("non-finite objective value")
        return values.tolist()

    def gradients_at(self, x) -> np.ndarray:
        """Every client's gradient at ``x``, from the block if there is one."""
        if self.block is None:
            return self.client_gradients(x)
        grads = self.block.gradients(self.clients[0]._check_input(x))
        return require_finite(grads, "gradient")

    @staticmethod
    def mean_gradient(grads: np.ndarray) -> Vector:
        # single canonical reduction so every caller gets bitwise-equal means
        return np.mean(grads, axis=0)
