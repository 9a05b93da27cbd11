"""Client-side subproblem solvers for regularized local objectives.

A local subproblem is a :class:`SurrogateOracle`

    F(x) = f_base(x) + <shift, x> + sum_j w_j/2 * ||x - c_j||^2,

covering both the single-anchor form (one proximal term at the server
reference, shift = minus a control variate) and the doubly regularized
form (anchors at the client iterate and the server reference).  A
surrogate over n base oracles holds the n clients' subproblems of one
method step as the rows of (n, d) blocks; a single subproblem is a one-row
block.  Every solver takes a surrogate, returns (n, d) rows and advances
the rows in lockstep, in one loop.  Vector work runs on the whole working
block, and the per-row scalars that scale rows (step sizes, momenta, the
conjugate-gradient ``alpha``) are columns or blocks of the iterates' shape.
Row norms and dots are ``np.vecdot``, which runs the same ``ddot`` per row
as ``v.dot(v)`` on one vector.  The norms and counters that steer the loop
are Python floats, one per row, tested as a one-row loop tests them, and a
row leaves the working block once its own rule fires.  So each row's
iterates, step count and final norm are bitwise those of its subproblem
solved alone, as a one-row surrogate.

Solvers: plain gradient descent, Nesterov-accelerated gradient descent,
and a conjugate-gradient solve for pure quadratic bases.  Stopping is
controlled by a :class:`StoppingRule`, which every row applies to itself:

* ``abs_grad``:  stop when ``||grad F(x)|| <= e``;
* ``rel_grad``:  stop when ``||grad F(x)|| <= e * ||x - x_start||``; at the
  start the right side is zero, so only an exactly zero gradient stops there;
* ``fixed_steps``: run exactly K steps and return the visited iterate with
  the smallest gradient norm;
* ``scheduled``: ``rel_grad`` with the round's tolerance ``e_r`` from
  :func:`schedule_e_r`; the method resolves it once per round, so the
  solvers themselves only ever see the other three kinds.

A rule rejects the options its kind would ignore: ``tol`` is read only by
the two gradient kinds, ``steps`` only by ``fixed_steps``.

Gradient-based rules exhaust ``max_steps`` with a hard error rather than
returning an uncertified point.  They also fail once 1,000 steps in a row
have set no new best gradient norm while the norm sits at or below
``4 eps L max(1, ||y||)`` for the row's smoothness hint ``L``, the
rounding floor of a solution of unit scale; an accelerated norm that is not
monotone keeps running as long as it still improves within that stretch.

A failing row stops the whole solve, with the error type its own solve
would raise and a message that ends by naming the row.  The solve raises at
the first step (or conjugate-gradient iteration) at which any row fails:
a base oracle that rejects a row's query point or gradient raises while
the step's gradients are taken, in row order; otherwise the lowest row
whose norm is not finite, that has stalled or whose budget ran out is
named (:class:`NonFiniteError` for the first, :class:`SolverBudgetError`
for the others).  The decrease check of ``require_decrease`` runs once
every row has finished and names the lowest row whose base value, else
whose value, is not finite (at the start, then at the solution) or else
whose objective increased.

Finiteness is checked once per block of billed rows.  A step's base
gradients come from :func:`fedlab.core.gradients_of`, one call of the
bases' stack over the working rows, checked once (the query points too
when a base does not declare ``gradient_propagates_non_finite``, as the
quadratic and logistic ones do), and each conjugate-gradient iteration
takes its rows' Hessian products from one
:func:`fedlab.core.hessian_matvecs_of` call.  The descent loop takes the
surrogate's unchecked ``_gradients`` and raises :class:`NonFiniteError`
when a norm it computes for the stopping rule is not finite (a NaN or inf
entry, or a norm that overflows); conjugate gradients does the same with
its residual norms.  A solve evaluates no objective value unless
``require_decrease`` asks for its check, which takes two calls of the
surrogate's public ``value``, each with one value per row.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ClientOracle,
    ConfigurationError,
    DimensionError,
    NonFiniteError,
    UnsupportedStructureError,
    gradients_of,
    hessian_matvecs_of,
    require_finite,
    require_finite_values,
    require_integer,
    values_of,
)


class SolverBudgetError(RuntimeError):
    """A gradient-based stopping rule was not met within ``max_steps``."""


SOLVERS = ("exact", "gd", "fgd")
RULE_KINDS = ("abs_grad", "rel_grad", "fixed_steps", "scheduled")
_DECREASE_SLACK = 1e-12
EXACT_RESIDUAL_REL = 1e-12
_STALL_EPS = 4.0 * np.finfo(np.float64).eps
_STALL_STEPS = 1000


@dataclass(frozen=True)
class StoppingRule:
    """When a local solver may return; see module docstring for semantics."""

    kind: str  # one of RULE_KINDS
    tol: float = 0.0
    steps: int = 0
    max_steps: int = 1_000_000

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ConfigurationError(f"unknown stopping rule {self.kind!r}")
        # NaN fails each comparison, so it fails each range test below
        if self.kind in ("abs_grad", "rel_grad") and not self.tol > 0.0:
            raise ConfigurationError("gradient rules need a positive tolerance")
        if self.kind == "fixed_steps" and not 0 <= self.steps <= self.max_steps:
            raise ConfigurationError("fixed_steps needs 0 <= steps <= max_steps")
        if not self.max_steps >= 1:
            raise ConfigurationError("max_steps must be >= 1")
        require_integer(self.steps, "steps")
        require_integer(self.max_steps, "max_steps")
        if self.tol != 0.0 and self.kind in ("fixed_steps", "scheduled"):
            raise ConfigurationError(f"{self.kind} would ignore tol={self.tol!r}")
        if self.steps != 0 and self.kind != "fixed_steps":
            raise ConfigurationError(f"{self.kind} would ignore steps={self.steps!r}")


@dataclass
class SolveReport:
    """Outcome of one local solve of n rows.

    ``solution`` is (n, d), ``final_grad_norm`` and ``row_steps`` hold one
    entry per row, and ``steps_taken`` is the steps summed over the rows.
    """

    solution: np.ndarray
    steps_taken: int
    final_grad_norm: np.ndarray
    row_steps: np.ndarray


_DEFAULT_RULE = StoppingRule("abs_grad", tol=1e-9)


@dataclass(frozen=True)
class LocalSpec:
    """How a method solves its local subproblems.

    ``solver`` is one of ``exact`` (conjugate gradients on quadratic
    structure, which stop at their own residual target), ``gd``, or ``fgd``.
    ``rule`` says when ``gd`` and ``fgd`` return; a ``scheduled`` rule
    reads the method's ``lam`` and ``mu`` each round.  ``step`` overrides
    the default ``1/smoothness_hint`` step size.  ``exact`` rejects a rule,
    ``check_decrease`` or ``step``, which it would ignore.
    """

    solver: str = "exact"
    rule: StoppingRule = _DEFAULT_RULE
    check_decrease: bool = False
    step: float | None = None

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise ConfigurationError(f"unknown local solver {self.solver!r}")
        if self.step is not None and not 0.0 < self.step < math.inf:
            raise ConfigurationError(
                f"step override must be positive and finite, got {self.step!r}"
            )
        if self.solver != "exact":
            return
        if self.check_decrease or self.step is not None:
            raise ConfigurationError("check_decrease and step need gd or fgd")
        if self.rule != _DEFAULT_RULE:
            raise ConfigurationError(f"exact would ignore rule={self.rule!r}")


class SurrogateOracle:
    """Base objectives plus linear shifts and quadratic proximal terms.

    A surrogate over a sequence of n base oracles holds n subproblems as the
    rows of (n, d) blocks; a single subproblem is a one-row block.
    ``linear_shift`` and each proximal center are (n, d) blocks (a vector
    given for one is repeated on every row), the proximal weights are
    shared, and queries, gradients and values take and give one row (one
    value) per base.  Each row's hints, its base's plus the total proximal
    weight, are in ``smoothness_hints`` and ``convexity_hints``.

    ``_gradients`` takes the bases' billed, checked block from
    :func:`~fedlab.core.gradients_of`; what the shift and the proximal
    terms add is checked by the public :meth:`gradient`, which bills
    nothing of its own, or, inside the solvers' loops, by the finiteness
    test on the gradient norms.  ``_values`` takes the bases' checked
    block from :func:`~fedlab.core.values_of`: the public :meth:`value`
    checks the points and the totals, which the added terms can overflow.
    """

    def __init__(
        self,
        bases: list[ClientOracle],
        linear_shift: np.ndarray | None = None,
        prox_terms: tuple[tuple[float, np.ndarray], ...] = (),
    ):
        self.bases = list(bases)
        if not self.bases:
            raise ConfigurationError("a surrogate needs at least one base oracle")
        self.n = len(self.bases)
        # the block's row numbers; a solver's working part keeps a subset
        self.row_ids = list(range(self.n))
        self.dim = self.bases[0].dim
        if any(b.dim != self.dim for b in self.bases):
            raise DimensionError("base oracle dimension mismatch")
        self.linear_shift = None
        if linear_shift is not None:
            self.linear_shift = self._rows_of(
                linear_shift, "linear shift", ConfigurationError
            )
        terms = []
        for weight, center in prox_terms:
            # NaN fails the comparison too
            if not 0.0 <= weight < math.inf:
                raise ConfigurationError(
                    f"proximal weights must be finite and >= 0: {weight!r}"
                )
            center = self._rows_of(center, "proximal center", ConfigurationError)
            terms.append((float(weight), center))
        self.prox_terms = tuple(terms)
        self.total_prox_weight = total = float(sum(w for w, _ in terms))
        self.smoothness_hints = tuple(
            None if b.smoothness_hint is None else b.smoothness_hint + total
            for b in self.bases
        )
        self.convexity_hints = tuple(
            None if b.convexity_hint is None else b.convexity_hint + total
            for b in self.bases
        )

    def _rows_of(
        self, v, what="start", error=DimensionError, repeat=True
    ) -> np.ndarray:
        """``v`` as (n, d) rows: an (n, d) block, or with ``repeat`` a vector
        repeated on every row (a product of equal shapes costs numpy less
        than a broadcast one)."""
        v = np.asarray(v, dtype=np.float64)
        if repeat and v.shape == (self.dim,):
            return np.repeat(v[None], self.n, axis=0)
        if v.shape != (self.n, self.dim):
            raise error(
                f"{what} of shape {v.shape} does not fit {self.n} rows "
                f"of dimension {self.dim}"
            )
        return v

    def _check_input(self, x) -> np.ndarray:
        x = self._rows_of(x, "query", repeat=False)
        return require_finite(x, "oracle query point")

    def _rows(self, keep: list[int]) -> "SurrogateOracle":
        """The rows at the positions ``keep``, for a solver's working block:
        its ``row_ids``, ``bases`` and the row terms :meth:`_gradients`
        reads."""
        part = copy.copy(self)
        part.row_ids = [self.row_ids[j] for j in keep]
        part.n = len(keep)
        part.bases = [self.bases[j] for j in keep]
        index = np.array(keep)
        if self.linear_shift is not None:
            part.linear_shift = self.linear_shift[index]
        part.prox_terms = tuple((w, c[index]) for w, c in self.prox_terms)
        return part

    def _values(self, y: np.ndarray) -> np.ndarray:
        """Every row's value at its row of ``y``: the bases' checked values,
        then the shift and the proximal terms."""
        v = values_of(self.bases, y)
        if self.linear_shift is not None:
            v = v + np.vecdot(self.linear_shift, y)
        for weight, center in self.prox_terms:
            diff = y - center
            v = v + 0.5 * weight * np.vecdot(diff, diff)
        return v

    def _gradients(self, y: np.ndarray) -> np.ndarray:
        """Every row's gradient at its row of ``y``: the bases' billed
        gradients from :func:`~fedlab.core.gradients_of`, then the shift
        and the proximal terms.  A base's :class:`NonFiniteError` comes out
        naming the row."""
        g = gradients_of(self.bases, y, self.row_ids)
        # terms added out of place: a stack may answer with an array it keeps
        if self.linear_shift is not None:
            g = g + self.linear_shift
        for weight, center in self.prox_terms:
            g = g + weight * (y - center)
        return g

    def value(self, x) -> np.ndarray:
        """One value per row of the (n, d) query ``x``."""
        return require_finite_values(self._values(self._check_input(x)))

    def gradient(self, x) -> np.ndarray:
        """One gradient per row of the (n, d) query ``x``."""
        return require_finite(self._gradients(self._check_input(x)), "gradient")


def schedule_e_r(round_index: int, lam: float, mu: float = 0.0) -> float:
    """Per-round relative-accuracy sequence ``sqrt(lam*(mu+lam)/(8(r+1)(r+2)))``.

    The squares telescope: summed over all rounds they total
    ``lam*(mu+lam)/8``, the budget under which inexact single-anchor
    solves retain the exact-solve convergence guarantee.
    """
    if not lam > 0.0:
        raise ConfigurationError(f"lam must be positive, got {lam!r}")
    if not mu >= 0.0:
        raise ConfigurationError(f"mu must be non-negative, got {mu!r}")
    if not round_index >= 0:
        raise ConfigurationError(f"round_index must be >= 0, got {round_index!r}")
    r = float(round_index)
    return float(np.sqrt(lam * (mu + lam) / (8.0 * (r + 1.0) * (r + 2.0))))


def _default_step(hint: float | None, step: float | None) -> float:
    if step is not None:
        if not 0.0 < step < math.inf:
            raise ConfigurationError(
                f"step size must be positive and finite, got {step!r}"
            )
        return step
    if hint is None or not hint > 0.0:
        raise ConfigurationError(
            "no smoothness hint available; pass an explicit step size"
        )
    return 1.0 / hint


def _finish(
    surrogate: SurrogateOracle,
    solution: np.ndarray,
    steps: np.ndarray,
    norms: np.ndarray,
    start: np.ndarray | None = None,
) -> SolveReport:
    """The report of a solve from its (n, d) rows and per-row results.

    Given the rows a ``require_decrease`` solve started from, it first
    checks every row's objective at the solution against its start, with
    two calls of the surrogate's public ``value``.
    """
    if start is not None:
        f_start = surrogate.value(start)
        f_end = surrogate.value(solution)
        decreased = f_end <= f_start + _DECREASE_SLACK * (1.0 + abs(f_start))
        if not np.all(decreased):
            row = int(np.argmin(decreased))
            raise SolverBudgetError(
                f"local solve increased the objective in row {row}: "
                f"{f_start[row]} -> {f_end[row]}"
            )
    return SolveReport(solution, int(steps.sum()), norms, steps)


def _require_surrogate(surrogate) -> None:
    if not isinstance(surrogate, SurrogateOracle):
        raise UnsupportedStructureError(
            f"a local solve takes a SurrogateOracle, not {type(surrogate).__name__}"
        )


def _descend(
    surrogate: SurrogateOracle,
    x_start,
    rule: StoppingRule,
    step: float | None,
    require_decrease: bool,
    accelerated: bool,
) -> SolveReport:
    """The descent loop behind :func:`solve_gd` and :func:`solve_fgd`.

    Each iteration takes one gradient per working row at its ``y`` and
    steps to ``x_new = y - gamma * grad``; plain descent moves to
    ``y = x_new``, the accelerated loop extrapolates past it.  The gradients
    are the surrogate's unchecked ``_gradients``; their norms, ``sqrt(g .
    g)`` per row as ``np.linalg.norm`` computes it, are the finiteness
    check.  The rows' step sizes and momenta fill blocks the shape of the
    iterates, which round like the scalars and spare numpy a broadcast per
    product; the norms, best norms and stall counters that steer the loop
    are Python floats, one per row, tested as a one-row loop tests them.
    """
    _require_surrogate(surrogate)
    if rule.kind == "scheduled":
        raise ConfigurationError("the method resolves scheduled rules per round")
    origin = start = y = x = surrogate._rows_of(x_start)
    n, d = y.shape
    hints = surrogate.smoothness_hints
    step_sizes = [_default_step(hint, step) for hint in hints]
    gamma = np.repeat(np.array(step_sizes)[:, None], d, axis=1)
    floors = [0.0 if hint is None else _STALL_EPS * hint for hint in hints]
    if accelerated:
        # rows without a strong-convexity modulus follow the schedule t/(t+3)
        momentum = np.full((n, d), np.nan)
        moduli = surrogate.convexity_hints
        for i, (gamma_i, modulus) in enumerate(zip(step_sizes, moduli)):
            if modulus is not None and modulus > 0.0:
                root_kappa = np.sqrt((1.0 / gamma_i) / modulus)
                momentum[i] = (root_kappa - 1.0) / (root_kappa + 1.0)
        scheduled = np.isnan(momentum)
        all_constant = not scheduled.any()
    part = surrogate
    solution, taken, final = np.empty((n, d)), np.zeros(n, dtype=np.int64), np.empty(n)
    best_x, best_norms = y, [math.inf] * n
    stalled = [0] * n
    kind, tol, max_steps = rule.kind, rule.tol, rule.max_steps
    steps = 0
    while True:
        g = part._gradients(y)
        norms = [math.sqrt(sq) for sq in np.vecdot(g, g).tolist()]
        if kind != "fixed_steps":
            sizes = np.vecdot(y, y).tolist()
        if kind == "rel_grad":
            moved = y - start
            reaches = np.vecdot(moved, moved).tolist()
        improved, done = [], []
        for j, (row, norm) in enumerate(zip(part.row_ids, norms)):
            if not math.isfinite(norm):
                raise NonFiniteError(
                    f"non-finite local gradient at step {steps} in row {row}"
                )
            better = norm < best_norms[j]
            if better:
                best_norms[j] = norm
            if kind == "fixed_steps":
                fired = steps >= rule.steps
            else:
                if kind == "abs_grad":
                    fired = norm <= tol
                else:
                    fired = norm <= tol * math.sqrt(reaches[j])
                if not fired and norm <= floors[j] * max(1.0, math.sqrt(sizes[j])):
                    stalled[j] = 0 if better else stalled[j] + 1
                    if stalled[j] >= _STALL_STEPS:
                        raise SolverBudgetError(
                            f"{kind} rule unmet at step {steps}: ||grad|| = "
                            f"{norm:.3e} has sat at its rounding floor for "
                            f"{stalled[j]} steps without improving, in row {row}"
                        )
                else:
                    stalled[j] = 0
            if not fired and steps >= max_steps:
                raise SolverBudgetError(
                    f"{kind} rule unmet after {max_steps} steps "
                    f"(||grad|| = {norm:.3e}) in row {row}"
                )
            improved.append(better)
            done.append(fired)
        if all(improved):
            best_x = y
        elif any(improved):
            best_x = np.where(np.array(improved)[:, None], y, best_x)
        if any(done):
            # rel_grad returns the iterate that fired, the others the best one
            if kind == "rel_grad":
                chosen, chosen_norms = y, norms
            else:
                chosen, chosen_norms = best_x, best_norms
            for j, row in enumerate(part.row_ids):
                if done[j]:
                    solution[row] = chosen[j]
                    final[row] = chosen_norms[j]
                    taken[row] = steps
            if all(done):
                break
            keep = [j for j, fired in enumerate(done) if not fired]
            part = part._rows(keep)
            best_norms, stalled = ([a[j] for j in keep] for a in (best_norms, stalled))
            index = np.array(keep)
            start, y, x, g, best_x, gamma = (
                a[index] for a in (start, y, x, g, best_x, gamma)
            )
            if accelerated:
                momentum, scheduled = momentum[index], scheduled[index]
                all_constant = not scheduled.any()
        x_new = y - gamma * g
        if accelerated:
            if all_constant:
                beta = momentum
            else:
                beta = np.where(scheduled, steps / (steps + 3.0), momentum)
            y = x_new + beta * (x_new - x)
        else:
            y = x_new
        x = x_new
        steps += 1
    return _finish(
        surrogate, solution, taken, final, origin if require_decrease else None
    )


def solve_gd(
    surrogate: SurrogateOracle,
    x_start,
    rule: StoppingRule,
    step: float | None = None,
    require_decrease: bool = False,
) -> SolveReport:
    """Gradient descent with step ``1/(L_base + total prox weight)`` per row.

    ``x_start`` is an (n, d) block or one vector that every row starts from.

    Under ``fixed_steps`` (and after an ``abs_grad`` rule fires) the
    returned point is the visited iterate with the smallest gradient norm,
    which is the right certificate on nonconvex objectives; under
    ``rel_grad`` the firing iterate itself is returned since the rule is
    relative to that iterate's own distance from the start.
    """
    return _descend(surrogate, x_start, rule, step, require_decrease, False)


def solve_fgd(
    surrogate: SurrogateOracle,
    x_start,
    rule: StoppingRule,
    step: float | None = None,
    require_decrease: bool = False,
) -> SolveReport:
    """Nesterov-accelerated descent.

    With a known strong-convexity modulus the constant momentum
    ``(sqrt(kappa)-1)/(sqrt(kappa)+1)`` is used; otherwise the convex
    schedule ``t/(t+3)``.  Stopping rules are evaluated at the
    extrapolated points, whose gradients are computed anyway, so each
    iteration costs one gradient per row.  The returned point follows
    :func:`solve_gd`.
    """
    return _descend(surrogate, x_start, rule, step, require_decrease, True)


def solve_exact_quadratic(surrogate: SurrogateOracle) -> SolveReport:
    """Solve the surrogate's rows exactly when their bases are quadratic.

    Runs conjugate gradients on ``(H_i + w I) x = rhs_i`` for every row
    ``i`` down to a residual of ``1e-12 * ||rhs_i||``.  The iteration always
    starts from zero, so the returned solution is a deterministic function
    of the subproblem alone and the solve takes no start point.

    Each iteration takes the working rows' Hessian products in one
    :func:`~fedlab.core.hessian_matvecs_of` call, which bills a unit per
    row.  The loop updates its own ``x``, ``r`` and ``p`` blocks in place,
    bitwise the textbook loop's fresh arrays, and a row leaves them when
    its residual reaches its target.  When the budget of ``max(50, 25 d)``
    iterations runs out, the lowest working row is the one named.
    """
    _require_surrogate(surrogate)
    if not all(getattr(b, "is_pure_quadratic", False) for b in surrogate.bases):
        raise UnsupportedStructureError(
            "exact solve needs a pure quadratic base oracle"
        )
    weight = surrogate.total_prox_weight
    r = np.array([b.linear_term() for b in surrogate.bases])
    if surrogate.linear_shift is not None:
        r -= surrogate.linear_shift
    for w, center in surrogate.prox_terms:
        r += w * center

    n, d = r.shape
    x = np.zeros((n, d))
    p = r.copy()
    rs_old = np.vecdot(r, r)
    res_norms = np.sqrt(rs_old).tolist()
    targets = [EXACT_RESIDUAL_REL * res for res in res_norms]
    part = surrogate
    solution, taken, final = np.empty((n, d)), np.zeros(n, dtype=np.int64), np.empty(n)
    iters = 0
    max_iters = max(50, 25 * d)
    while True:
        done = []
        for row, res, target in zip(part.row_ids, res_norms, targets):
            if not math.isfinite(res):
                raise NonFiniteError(
                    "non-finite conjugate-gradient residual at iteration "
                    f"{iters} in row {row}"
                )
            done.append(res <= target)
        if any(done):
            for j, row in enumerate(part.row_ids):
                if done[j]:
                    solution[row] = x[j]
                    final[row] = res_norms[j]
                    taken[row] = iters
            if all(done):
                break
            keep = [j for j, converged in enumerate(done) if not converged]
            part = part._rows(keep)
            res_norms, targets = ([a[j] for j in keep] for a in (res_norms, targets))
            index = np.array(keep)
            x, r, p, rs_old = (a[index] for a in (x, r, p, rs_old))
        if iters >= max_iters:
            raise SolverBudgetError(
                f"conjugate gradients stalled at residual {res_norms[0]:.3e} "
                f"in row {part.row_ids[0]}"
            )
        # p * w + H p, added in the other order (the same IEEE sum) and out
        # of place: a stack may hand back an array of its own
        ap = hessian_matvecs_of(part.bases, p) + weight * p
        curvature = np.vecdot(p, ap)
        # a NaN curvature passes here and fails as a residual next iteration
        for row, curv in zip(part.row_ids, curvature.tolist()):
            if curv <= 0.0:
                raise UnsupportedStructureError(
                    f"subproblem matrix is not positive definite in row {row}"
                )
        alpha = (rs_old / curvature)[:, None]
        x += alpha * p
        ap *= alpha
        r -= ap
        rs_new = np.vecdot(r, r)
        res_norms = np.sqrt(rs_new).tolist()
        p *= (rs_new / rs_old)[:, None]
        p += r
        rs_old = rs_new
        iters += 1
    return _finish(surrogate, solution, taken, final)
