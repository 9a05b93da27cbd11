"""Client-side subproblem solvers for regularized local objectives.

A local subproblem is a :class:`SurrogateOracle`

    F(x) = f_base(x) + <shift, x> + sum_j w_j/2 * ||x - c_j||^2,

covering both the single-anchor form (one proximal term at the server
reference, shift = minus a control variate) and the doubly regularized
form (anchors at the client iterate and the server reference).

Solvers: plain gradient descent, Nesterov-accelerated gradient descent,
and a conjugate-gradient solve for pure quadratic bases.  Stopping is
controlled by a :class:`StoppingRule`:

* ``abs_grad``:  stop when ``||grad F(x)|| <= e``;
* ``rel_grad``:  stop when ``||grad F(x)|| <= e * ||x - x_start||``; at the
  start the right side is zero, so only an exactly zero gradient stops there
  (one at its rounding floor can run to ``max_steps``);
* ``fixed_steps``: run exactly K steps and return the visited iterate with
  the smallest gradient norm;
* ``scheduled``: ``rel_grad`` with the round's tolerance ``e_r`` from
  :func:`schedule_e_r`; the method resolves it once per round, so the
  solvers themselves only ever see the other three kinds.

A rule rejects the options its kind would ignore: ``tol`` is read only by
the two gradient kinds, ``steps`` only by ``fixed_steps``.

Gradient-based rules exhaust ``max_steps`` with a hard error rather than
returning an uncertified point.

Finiteness is checked once per billed primitive.  The base oracle's public
``gradient`` checks its query point and its output; the descent loop takes
the surrogate's unchecked ``_gradient`` and raises :class:`NonFiniteError`
when the norm it computes for the stopping rule is not finite (a NaN or inf
entry, or a norm that overflows); conjugate gradients does the same with its
residual norm.  The final values in each report come from the surrogate's
public ``value``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ClientOracle,
    ConfigurationError,
    DimensionError,
    NonFiniteError,
    UnsupportedStructureError,
    Vector,
    as_vector,
)


class SolverBudgetError(RuntimeError):
    """A gradient-based stopping rule was not met within ``max_steps``."""


SOLVERS = ("exact", "gd", "fgd")
RULE_KINDS = ("abs_grad", "rel_grad", "fixed_steps", "scheduled")
_DECREASE_SLACK = 1e-12
EXACT_RESIDUAL_REL = 1e-12


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
        if self.kind in ("abs_grad", "rel_grad") and self.tol <= 0.0:
            raise ConfigurationError("gradient rules need a positive tolerance")
        if self.kind == "fixed_steps" and self.steps < 0:
            raise ConfigurationError("fixed_steps needs steps >= 0")
        if self.max_steps < 1:
            raise ConfigurationError("max_steps must be >= 1")
        if self.tol != 0.0 and self.kind in ("fixed_steps", "scheduled"):
            raise ConfigurationError(f"{self.kind} would ignore tol={self.tol!r}")
        if self.steps != 0 and self.kind != "fixed_steps":
            raise ConfigurationError(f"{self.kind} would ignore steps={self.steps!r}")


@dataclass
class SolveReport:
    """Outcome of one local solve."""

    solution: Vector
    steps_taken: int
    grad_evals: int
    final_grad_norm: float
    decreased: bool


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
        if self.step is not None and self.step <= 0.0:
            raise ConfigurationError("step override must be positive")
        if self.solver != "exact":
            return
        if self.check_decrease or self.step is not None:
            raise ConfigurationError("check_decrease and step need gd or fgd")
        if self.rule != _DEFAULT_RULE:
            raise ConfigurationError(f"exact would ignore rule={self.rule!r}")


class SurrogateOracle(ClientOracle):
    """Base objective plus a linear shift and quadratic proximal terms.

    ``_gradient`` and ``_value`` call the base oracle's public methods, so
    the base checks each query point and its own output.  What the shift and
    the proximal terms add on top is checked by the public ``gradient`` and
    ``value`` inherited from :class:`ClientOracle`, or, inside the local
    solvers' loops, by the finiteness test on the gradient norm.
    """

    def __init__(
        self,
        base: ClientOracle,
        linear_shift: Vector | None = None,
        prox_terms: tuple[tuple[float, Vector], ...] = (),
    ):
        self.base = base
        self.dim = base.dim
        self.linear_shift = (
            None if linear_shift is None else as_vector(linear_shift)
        )
        if self.linear_shift is not None and self.linear_shift.shape[0] != self.dim:
            raise ConfigurationError("linear shift dimension mismatch")
        terms = []
        for weight, center in prox_terms:
            if weight < 0.0:
                raise ConfigurationError("proximal weights must be >= 0")
            center = as_vector(center)
            if center.shape[0] != self.dim:
                raise ConfigurationError("proximal center dimension mismatch")
            terms.append((float(weight), center))
        self.prox_terms = tuple(terms)
        self.total_prox_weight = float(sum(w for w, _ in self.prox_terms))
        if base.smoothness_hint is not None:
            self.smoothness_hint = base.smoothness_hint + self.total_prox_weight
        else:
            self.smoothness_hint = None
        if base.convexity_hint is not None:
            self.convexity_hint = base.convexity_hint + self.total_prox_weight
        else:
            self.convexity_hint = None

    def _value(self, x: Vector) -> float:
        v = self.base.value(x)
        if self.linear_shift is not None:
            v += float(self.linear_shift.dot(x))
        for weight, center in self.prox_terms:
            diff = x - center
            v += 0.5 * weight * float(diff.dot(diff))
        return v

    def _gradient(self, x: Vector) -> Vector:
        g = self.base.gradient(x)
        if self.linear_shift is not None:
            g = g + self.linear_shift
        for weight, center in self.prox_terms:
            g = g + weight * (x - center)
        return g


def schedule_e_r(round_index: int, lam: float, mu: float = 0.0) -> float:
    """Per-round relative-accuracy sequence ``sqrt(lam*(mu+lam)/(8(r+1)(r+2)))``.

    The squares telescope: summed over all rounds they total
    ``lam*(mu+lam)/8``, the budget under which inexact single-anchor
    solves retain the exact-solve convergence guarantee.
    """
    if lam <= 0.0:
        raise ConfigurationError("the proximal weight must be positive")
    if mu < 0.0:
        raise ConfigurationError("mu must be non-negative")
    if round_index < 0:
        raise ConfigurationError("round_index must be non-negative")
    r = float(round_index)
    return float(np.sqrt(lam * (mu + lam) / (8.0 * (r + 1.0) * (r + 2.0))))


def _default_step(surrogate: ClientOracle, step: float | None) -> float:
    if step is not None:
        if step <= 0.0:
            raise ConfigurationError("step size must be positive")
        return step
    if surrogate.smoothness_hint is None or surrogate.smoothness_hint <= 0.0:
        raise ConfigurationError(
            "no smoothness hint available; pass an explicit step size"
        )
    return 1.0 / surrogate.smoothness_hint


def _finish(
    surrogate: ClientOracle,
    x_start: Vector,
    solution: Vector,
    steps: int,
    evals: int,
    grad_norm: float,
    require_decrease: bool,
) -> SolveReport:
    f_start = surrogate.value(x_start)
    f_end = surrogate.value(solution)
    decreased = f_end <= f_start + _DECREASE_SLACK * (1.0 + abs(f_start))
    if require_decrease and not decreased:
        raise SolverBudgetError(
            f"local solve increased the objective: {f_start} -> {f_end}"
        )
    return SolveReport(
        solution=solution,
        steps_taken=steps,
        grad_evals=evals,
        final_grad_norm=grad_norm,
        decreased=decreased,
    )


def _descend(
    surrogate: ClientOracle,
    x_start,
    rule: StoppingRule,
    step: float | None,
    require_decrease: bool,
    accelerated: bool,
) -> SolveReport:
    """The descent loop behind :func:`solve_gd` and :func:`solve_fgd`.

    Each iteration takes one gradient at ``y`` and steps to
    ``x_new = y - gamma * grad``; plain descent moves to ``y = x_new``, the
    accelerated loop extrapolates past it.  The gradient is the surrogate's
    unchecked ``_gradient``; its norm, ``sqrt(g . g)`` as ``np.linalg.norm``
    computes it, is the finiteness check.
    """
    if rule.kind == "scheduled":
        raise ConfigurationError("the method resolves scheduled rules per round")
    x_start = as_vector(x_start)
    if x_start.shape[0] != surrogate.dim:
        # the unchecked gradient below would not catch a mismatch on a bare oracle
        raise DimensionError(
            f"oracle dimension {surrogate.dim}, start dimension {x_start.shape[0]}"
        )
    gamma = _default_step(surrogate, step)
    momentum_const = None
    modulus = surrogate.convexity_hint
    if accelerated and modulus is not None and modulus > 0.0:
        root_kappa = np.sqrt((1.0 / gamma) / modulus)
        momentum_const = (root_kappa - 1.0) / (root_kappa + 1.0)
    x = y = x_start
    best_x, best_norm = x_start, np.inf
    steps = 0
    while True:
        g = surrogate._gradient(y)
        norm = math.sqrt(g.dot(g))
        if not math.isfinite(norm):
            raise NonFiniteError(f"non-finite local gradient at step {steps}")
        if norm < best_norm:
            best_x, best_norm = y, norm
        # every return has taken steps + 1 gradients
        if rule.kind == "rel_grad":
            moved = y - x_start
            if norm <= rule.tol * math.sqrt(moved.dot(moved)):
                return _finish(
                    surrogate, x_start, y, steps, steps + 1, norm, require_decrease
                )
        elif steps >= rule.steps if rule.kind == "fixed_steps" else norm <= rule.tol:
            return _finish(
                surrogate, x_start, best_x, steps, steps + 1, best_norm,
                require_decrease,
            )
        if steps >= rule.max_steps:
            raise SolverBudgetError(
                f"{rule.kind} rule unmet after {rule.max_steps} steps "
                f"(||grad|| = {norm:.3e})"
            )
        x_new = y - gamma * g
        if accelerated:
            beta = (
                momentum_const
                if momentum_const is not None
                else steps / (steps + 3.0)
            )
            y = x_new + beta * (x_new - x)
        else:
            y = x_new
        x = x_new
        steps += 1


def solve_gd(
    surrogate: ClientOracle,
    x_start,
    rule: StoppingRule,
    step: float | None = None,
    require_decrease: bool = False,
) -> SolveReport:
    """Gradient descent with step ``1/(L_base + total prox weight)``.

    Under ``fixed_steps`` (and after an ``abs_grad`` rule fires) the
    returned point is the visited iterate with the smallest gradient norm,
    which is the right certificate on nonconvex objectives; under
    ``rel_grad`` the firing iterate itself is returned since the rule is
    relative to that iterate's own distance from the start.
    """
    return _descend(surrogate, x_start, rule, step, require_decrease, False)


def solve_fgd(
    surrogate: ClientOracle,
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
    iteration costs one gradient.  The returned point follows
    :func:`solve_gd`.
    """
    return _descend(surrogate, x_start, rule, step, require_decrease, True)


def solve_exact_quadratic(
    surrogate: SurrogateOracle, x_start=None
) -> SolveReport:
    """Solve the surrogate exactly when the base objective is quadratic.

    Runs conjugate gradients on ``(H + w I) x = rhs`` down to a residual of
    ``1e-12 * ||rhs||``.  The iteration always starts from the zero vector,
    so the returned solution is a deterministic function of the subproblem
    alone (warm starts cannot perturb it); ``x_start`` only provides the
    reference point for the decrease flag.

    CG is unchanged by an orthogonal change of coordinates, so when the base
    has an eigenbasis ``Q`` (see ``eigen_frame``) it runs in that frame:
    ``rhs`` is rotated in once, each iteration makes one ``hessian_matvec``
    of the frame oracle (billed as one unit, O(d) for a diagonal frame) and
    the solution is rotated out once.  Runs of
    :func:`~fedlab.harness.run_experiment` on a shared eigenbasis already
    hand it frame oracles, which are their own frame, so those solves
    rotate nothing; this per-solve frame serves every other caller.
    """
    if not isinstance(surrogate, SurrogateOracle):
        raise UnsupportedStructureError("expected a SurrogateOracle")
    base = surrogate.base
    if not getattr(base, "is_pure_quadratic", False):
        raise UnsupportedStructureError(
            "exact solve needs a pure quadratic base oracle"
        )
    weight = surrogate.total_prox_weight
    rhs = base.linear_term()
    if surrogate.linear_shift is not None:
        rhs = rhs - surrogate.linear_shift
    for w, center in surrogate.prox_terms:
        rhs = rhs + w * center
    basis, frame = base.eigen_frame()
    if basis is not None:
        rhs = rhs.dot(basis)

    def matvec(v: Vector) -> Vector:
        return frame.hessian_matvec(v) + weight * v

    d = rhs.shape[0]
    x = np.zeros(d)
    r = rhs.copy()
    p = r.copy()
    rs_old = float(r.dot(r))
    res_norm = math.sqrt(rs_old)
    target = EXACT_RESIDUAL_REL * res_norm
    iters = 0
    matvecs = 0
    max_iters = max(50, 25 * d)
    while True:
        if not math.isfinite(res_norm):
            raise NonFiniteError(
                f"non-finite conjugate-gradient residual at iteration {iters}"
            )
        if res_norm <= target or iters >= max_iters:
            break
        ap = matvec(p)
        matvecs += 1
        curvature = float(p.dot(ap))
        if curvature <= 0.0:
            raise UnsupportedStructureError(
                "subproblem matrix is not positive definite"
            )
        alpha = rs_old / curvature
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r.dot(r))
        res_norm = math.sqrt(rs_new)
        p = r + (rs_new / rs_old) * p
        rs_old = rs_new
        iters += 1
    if res_norm > target:
        raise SolverBudgetError(
            f"conjugate gradients stalled at residual {res_norm:.3e}"
        )
    if basis is not None:
        x = basis.dot(x)
    start = as_vector(x_start) if x_start is not None else np.zeros(d)
    return _finish(
        surrogate,
        start,
        x,
        iters,
        matvecs,
        res_norm,
        require_decrease=False,
    )
