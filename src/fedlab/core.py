"""Vector arithmetic, replayable random streams, and oracle interfaces.

Everything downstream (problem construction, local solvers, federated
methods, the experiment harness) is written against the primitives in this
module: dense float64 vectors, counter-based random streams addressed by
``(master_seed, path)``, and client oracles, each a row of a stack that
evaluates k clients at k points in one pass.

Products on the per-call path (every stack block, the local solvers'
loops, method steps and the harness's metric snapshots) call the routine
they end in directly: dense ones ``ndarray.dot``, whose BLAS call the
``@`` gufunc makes too after a costlier dispatch, with vector norms as
``math.sqrt(v.dot(v))``, which is what ``np.linalg.norm`` computes for a
1-D float vector, and the row dots of a block as ``np.vecdot``, the same
``ddot`` per row; sparse ones scipy's CSR kernel without the ``@``
dispatch.  All are bitwise equal to the forms they replace.
:func:`require_finite` alone keeps ``np.vdot``: ``.dot`` and ``@`` set the
overflow flag, and so warn, on finite entries above about 1e154, and
``np.vdot`` does not.

Finiteness is checked at the oracle boundary, once per block, in the
block gates the one-row forms call: the query points and what comes back.
A billed gradient of an oracle that declares
``gradient_propagates_non_finite`` checks only its output, which is
non-finite whenever its query is (see :class:`ClientOracle`).
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
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


def as_vector(x) -> Vector:
    """Coerce ``x`` to a 1-D float64 array, copying only when ``np.asarray`` does."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def require_finite(arr, what: str = "value"):
    """Raise :class:`NonFiniteError` unless every entry of ``arr`` is finite.

    A float64 array (a vector, or a block of rows read as one flat vector)
    is first tested with one BLAS dot, ``arr . arr``: a sum of squares is
    finite only when every entry is.  It can also overflow
    on finite entries (above about 1e154), so a non-finite dot, like any
    other input, falls back to the exact ``np.isfinite`` test.  ``np.vdot``
    does not read the floating-point status flags, so no input makes the
    dot warn.
    """
    if (
        type(arr) is np.ndarray
        and arr.dtype is _FLOAT64
        and math.isfinite(np.vdot(arr, arr))
    ):
        return arr
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite entries in {what}")
    return arr


def require_finite_values(values: np.ndarray) -> np.ndarray:
    """``values``, one per row, unless one is not finite: the lowest is named."""
    finite = np.isfinite(values)
    if not finite.all():
        raise NonFiniteError(f"non-finite objective value in row {np.argmin(finite)}")
    return values


def require_integer(value, what: str):
    """``value`` if it is an integer; a float (even 2.0) or a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return value


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


class _Itself:
    # an oracle's default stack, itself: a non-data descriptor that stores
    # nothing, so a row of a shared stack sets its own and no cycle forms
    def __get__(self, oracle, owner=None):
        return self if oracle is None else oracle


class ClientOracle:
    """First-order oracle for one client's local objective.

    Every oracle is row ``row`` of a ``stack`` that answers
    ``values(rows, points)`` and ``gradients(rows, points)`` for k rows at
    k points, unbilled and unchecked, each row bitwise that row alone (a
    quadratic stack also answers ``hessian_matvecs(rows, vs)``).  An oracle
    with no shared stack, such as a hand-built one, is row 0 of its own.
    Billed work asks for rows through :func:`gradients_of` or
    :func:`hessian_matvecs_of`; measurement calls the stacks directly.

    The public :meth:`gradient` and :meth:`value` check shapes, and are
    one-row calls of :func:`gradients_of` and :func:`values_of` (after a
    check of the point), which bill, check and name the cause.  An oracle
    whose gradient has a non-finite entry whenever its query point has one
    declares ``gradient_propagates_non_finite``; its gradients then check
    only the gradient, which rejects the same points, and name the query
    point when that is the cause (the computation may warn first, as ``0 *
    inf`` does).  An oracle that can sample overrides
    :meth:`stochastic_gradient`, which bills the share of a full gradient
    that the sample consumed.

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
    gradient_cost : float
        Full gradients one gradient row bills: 1.0, or 0.0 for one whose
        gradient is measurement (the harness's view of ``f``).
    stack, row : object, int
        The stack this oracle is row ``row`` of (by default itself, row 0).
    """

    dim: int
    smoothness_hint: float | None = None
    convexity_hint: float | None = None
    gradient_propagates_non_finite: bool = False
    gradient_cost: float = 1.0
    stack = _Itself()
    row: int = 0

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
        return float(values_of([self], self._check_input(x)[None])[0])

    def gradient(self, x) -> Vector:
        return gradients_of([self], self._check_shape(x))[0]

    def stochastic_gradient(self, x, stream: RandomStream, batch_size: int):
        """An unbiased gradient estimate from ``batch_size`` samples drawn
        from ``stream``; it bills its cost in full-gradient units.

        Oracles with a sampling scheme override this; the base has none.
        """
        raise UnsupportedStructureError(
            f"{type(self).__name__} has no stochastic gradient"
        )


_propagates = operator.attrgetter("gradient_propagates_non_finite")
_stack_of = operator.attrgetter("stack")


def _by_stack(oracles, points: np.ndarray, answer: str) -> np.ndarray:
    """The stacks' ``answer`` for each oracle's row at its row of ``points``,
    one call per run of consecutive oracles that share a stack."""
    stack = oracles[0].stack
    rows = [o.row for o in oracles if o.stack is stack]
    if len(rows) == len(oracles):
        return getattr(stack, answer)(rows, points)
    parts, lo = [], 0
    for stack, run in itertools.groupby(oracles, _stack_of):
        rows = [o.row for o in run]
        parts.append(getattr(stack, answer)(rows, points[lo : lo + len(rows)]))
        lo += len(rows)
    return np.concatenate(parts)


def values_of(oracles, points: np.ndarray) -> np.ndarray:
    """Each oracle's value at its row of ``points``, unbilled; the lowest
    row whose value is not finite is named (the caller checks the points)."""
    return require_finite_values(_by_stack(oracles, points, "values"))


def gradients_of(oracles, points, labels=None) -> np.ndarray:
    """Each oracle's billed gradient at its row of ``points``, as a (k, d) block.

    ``points`` is (k, d) or one point for all rows.  The rows bill the
    first oracle's ``gradient_cost`` each, in one :func:`bill` (the
    harness's view of ``f`` is never listed with clients); the block is
    checked once, after the points when an oracle is undeclared.  A
    :class:`NonFiniteError` names the lowest row whose point is not finite,
    or a lower one whose gradient is not, by its entry of ``labels``
    (default: its position).
    """
    points = np.asarray(points, dtype=np.float64)
    k = len(oracles)
    if points.ndim == 1:
        points = points[None].repeat(k, axis=0)
    if points.shape != (k, oracles[0].dim):
        raise DimensionError(
            f"query of shape {points.shape} does not fit {k} rows "
            f"of dimension {oracles[0].dim}"
        )
    bill(k * oracles[0].gradient_cost)
    try:
        if not all(map(_propagates, oracles)):
            require_finite(points, "oracle query point")
        return require_finite(_by_stack(oracles, points, "gradients"), "gradient")
    except NonFiniteError:
        pass
    # one-row calls in order stop at the first row with a non-finite point
    # (every oracle rejects it) or, before it, a non-finite gradient
    bad = ~np.isfinite(points).all(axis=1)
    j = stop = int(np.argmax(bad)) if bad.any() else k
    if stop:
        bad = ~np.isfinite(_by_stack(oracles[:stop], points[:stop], "gradients"))
        j = int(np.argmax(bad.any(axis=1))) if bad.any() else stop
    what = "oracle query point" if j == stop else "gradient"
    row = j if labels is None else labels[j]
    raise NonFiniteError(f"non-finite entries in {what} in row {row}") from None


def hessian_matvecs_of(oracles, vs) -> np.ndarray:
    """Each oracle's Hessian times its row of ``vs``, billed a unit per row."""
    bill(len(oracles))
    return _by_stack(oracles, vs, "hessian_matvecs")


@dataclass
class DistributedProblem:
    """A finite-sum objective ``f = (1/n) sum_i f_i`` over client oracles.

    Parameters below the client list are optional annotations: smoothness
    of the worst client (`l_smooth`), smoothness of the global average
    (`l_smooth_global`, never larger), a strong-convexity modulus, and
    exact quadratic structure when available.  Per-client data is an
    (n, d) block with row ``i`` for client ``i``.

    :meth:`f` and :meth:`grad_f` are measurement: every client at one point
    from the stacks, unbilled, checked once.  Billed work calls
    :meth:`client_gradients` (through :func:`gradients_of`).
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
        # left to right: the built-in sum compensates from Python 3.12 on
        return functools.reduce(operator.add, self.values_at(x), 0.0) / self.n

    def grad_f(self, x) -> Vector:
        return self.mean_gradient(self.gradients_at(x))

    def client_gradients(self, x) -> np.ndarray:
        """Every client's billed gradient at ``x``, as an (n, d) block."""
        return gradients_of(self.clients, self.clients[0]._check_shape(x))

    def _at(self, x) -> np.ndarray:
        return self.clients[0]._check_input(x)[None].repeat(self.n, axis=0)

    def values_at(self, x) -> list[float]:
        return values_of(self.clients, self._at(x)).tolist()

    def gradients_at(self, x) -> np.ndarray:
        grads = _by_stack(self.clients, self._at(x), "gradients")
        return require_finite(grads, "gradient")

    @staticmethod
    def mean_gradient(grads: np.ndarray) -> Vector:
        # single canonical reduction so every caller gets bitwise-equal means
        return np.mean(grads, axis=0)
