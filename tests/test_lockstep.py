"""Lockstep local solves: a block of subproblems is its rows solved alone.

A :class:`SurrogateOracle` over n base oracles holds one method step's n
subproblems as rows, and each solver advances the rows in one loop.  Every
row must come out bitwise as the same subproblem solved on its own (a
one-row surrogate): solution, steps and final norm, with the same billed
units, and the decrease check of ``require_decrease`` must fail for the
block exactly when it fails for some row alone.  A failing row stops the
solve and is named.  A solve evaluates no objective value unless the
decrease check asks for one.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlab import (
    NonFiniteError,
    RandomStream,
    SolverBudgetError,
    StoppingRule,
    SurrogateOracle,
    build_quadratic_problem,
    gen_quadratic_problem,
    schedule_e_r,
    solve_exact_quadratic,
    solve_fgd,
    solve_gd,
)
from fedlab import core
from fedlab.problems import QuadraticClientSpec, QuadraticFamily
from fedlab.problems.quadratic import _QuadraticStack

from conftest import FixedGradientOracle, random_family, rotated_family, row_zero

SOLVE = {"exact": solve_exact_quadratic, "gd": solve_gd, "fgd": solve_fgd}


def _problem(frame: str, n: int, d: int, seed: int):
    """n quadratic clients: in their eigen frame, dense, or with the sigmoid term."""
    if frame == "eigen":
        return gen_quadratic_problem(
            seed, n, 2, d, max_norm=6.0, min_eig=0.5, target_delta=1.0
        )
    family = random_family(seed, n=n, m=2, d=d, dense=frame == "dense")
    if frame == "sigmoid":
        family = rotated_family(
            QuadraticFamily(specs=family.specs, beta=0.2), seed=seed + 1
        )
    return build_quadratic_problem(family)


def _rule(kind: str, draw) -> StoppingRule:
    if kind == "abs_grad":
        return StoppingRule("abs_grad", tol=draw(st.sampled_from([1e-3, 1e-6, 1e-9])))
    if kind == "rel_grad":
        return StoppingRule("rel_grad", tol=draw(st.sampled_from([0.5, 1e-2, 1e-4])))
    if kind == "fixed_steps":
        return StoppingRule("fixed_steps", steps=draw(st.integers(0, 30)))
    if kind == "one_step":
        # 0 * inf is NaN at the start, so every row fires after one step
        return StoppingRule("rel_grad", tol=math.inf)
    # a scheduled rule as the method resolves it for round r
    r = draw(st.integers(0, 40))
    lam, mu = draw(st.sampled_from([0.5, 2.0])), draw(st.sampled_from([0.0, 1.0]))
    e_r = schedule_e_r(r, lam, mu)
    return StoppingRule("rel_grad", tol=e_r)


@st.composite
def _cases(draw):
    n = draw(st.integers(1, 6))
    solver = draw(st.sampled_from(sorted(SOLVE)))
    frames = ["eigen", "dense"] + ([] if solver == "exact" else ["sigmoid"])
    frame = draw(st.sampled_from(frames))
    d = draw(st.integers(1 if frame != "eigen" else 3, 12))
    seed = draw(st.integers(0, 10_000))
    problem = _problem(frame, n, d, seed)
    # a row without a strong-convexity hint takes fgd's t/(t+3) momentum
    hinted = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    for base, keeps_hint in zip(problem.clients, hinted):
        if not keeps_hint:
            base.convexity_hint = None
    rng = RandomStream(seed).fork(1).generator()
    shift = rng.standard_normal((n, d)) if draw(st.booleans()) else None
    # the doubly regularized form centers its first term on the client
    # iterates and its last on one shared reference
    weights = draw(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=2))
    centers = [rng.standard_normal((n, d)) for _ in weights[:-1]]
    centers.append(rng.standard_normal(d))
    # every row starts from its own point, or all from one (dane_plus's reference)
    start = rng.standard_normal((n, d) if draw(st.booleans()) else d)
    rule = step = None
    if solver != "exact":
        kind = draw(
            st.sampled_from(
                ["abs_grad", "rel_grad", "fixed_steps", "scheduled", "one_step"]
            )
        )
        rule = _rule(kind, draw)
        if kind == "one_step":
            # steps in units of the stiffest row's 1/L: a step below 2/L
            # cannot increase a row's objective, a longer one can
            stiffest = max(b.smoothness_hint for b in problem.clients) + sum(weights)
            factor = draw(st.sampled_from([None, 1.0, 2.5, 4.0]))
            step = None if factor is None else factor / stiffest
    terms = tuple(zip(weights, centers))
    return problem, solver, shift, terms, start, rule, step


def _row(operand, i):
    return operand if operand.ndim == 1 else operand[i]


def _solve(solver, surrogate, start, rule, step=None):
    """The solve, or the :class:`SolverBudgetError` that its decrease check
    raised, and the units it billed."""
    core.take_billed()
    try:
        if solver == "exact":
            report = solve_exact_quadratic(surrogate)
        else:
            report = SOLVE[solver](
                surrogate, start, rule, step=step, require_decrease=True
            )
    except SolverBudgetError as exc:
        assert "increased the objective" in str(exc)
        report = exc
    return report, core.take_billed()


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_cases())
def test_a_block_solve_is_its_rows_solved_alone(case):
    problem, solver, shift, terms, start, rule, step = case
    block = SurrogateOracle(problem.clients, linear_shift=shift, prox_terms=terms)
    report, billed = _solve(solver, block, start, rule, step)
    rows, row_billed = [], 0.0
    for i, base in enumerate(problem.clients):
        alone = SurrogateOracle(
            [base],
            linear_shift=None if shift is None else shift[i],
            prox_terms=tuple((w, _row(c, i)) for w, c in terms),
        )
        row, units = _solve(solver, alone, _row(start, i), rule, step)
        rows.append(row)
        row_billed += units
    assert billed == row_billed
    failed = [i for i, row in enumerate(rows) if isinstance(row, Exception)]
    assert isinstance(report, Exception) == bool(failed)
    if failed:
        # the block raises the lowest failing row's own error, naming it
        lowest = str(rows[failed[0]]).replace("in row 0:", f"in row {failed[0]}:")
        assert str(report) == lowest
        return
    assert report.solution.shape == (problem.n, problem.dim)
    for i, row in enumerate(map(row_zero, rows)):
        assert np.array_equal(report.solution[i], row.solution)
        assert report.row_steps[i] == row.steps_taken
        assert report.final_grad_norm[i] == row.final_grad_norm
    assert report.steps_taken == int(np.sum(report.row_steps))


def test_rows_freeze_at_their_own_steps():
    # the rows of one step's subproblems need different step counts; each
    # keeps its own, and the report sums them
    d = 40
    problem = gen_quadratic_problem(
        3, 5, 2, d, max_norm=20.0, min_eig=0.5, target_delta=3.0
    )
    rng = RandomStream(4).generator()
    block = SurrogateOracle(
        problem.clients,
        linear_shift=rng.standard_normal((5, d)),
        prox_terms=((0.5, rng.standard_normal(d)),),
    )
    for solve in (solve_gd, solve_fgd, solve_exact_quadratic):
        if solve is solve_exact_quadratic:
            report = solve(block)
        else:
            report = solve(block, np.zeros(d), StoppingRule("abs_grad", tol=1e-8))
        assert len(set(report.row_steps.tolist())) > 1
        assert report.steps_taken == sum(report.row_steps.tolist())


# ------------------------------------------------------- failing rows


def _fixed(*gradients) -> list:
    return [FixedGradientOracle(np.array(g)) for g in gradients]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("solver", [solve_gd, solve_fgd])
def test_a_non_finite_row_is_named(solver):
    # row 1's shift overflows its gradient at the first step
    shift = np.zeros((3, 2))
    shift[1, 1] = 1e308
    block = SurrogateOracle(
        _fixed([1.0, 1.0], [1.0, 1e308], [1.0, 1.0]), linear_shift=shift
    )
    with pytest.raises(NonFiniteError, match=r"step 0 in row 1$"):
        solver(block, np.zeros(2), StoppingRule("fixed_steps", steps=3))


def test_a_non_finite_conjugate_gradient_row_is_named():
    problem = gen_quadratic_problem(
        0, 3, 2, 6, max_norm=5.0, min_eig=1.0, target_delta=1.0
    )
    centers = np.zeros((3, 6))
    centers[2, 4] = np.nan
    block = SurrogateOracle(problem.clients, prox_terms=((1.0, centers),))
    with pytest.raises(NonFiniteError, match=r"iteration 0 in row 2$"):
        solve_exact_quadratic(block)


def _quadratics(*curvatures):
    specs = [
        QuadraticClientSpec(centers=np.zeros((1, 1)), spectra=np.array([[c]]))
        for c in curvatures
    ]
    return build_quadratic_problem(QuadraticFamily(specs=specs)).clients


def test_an_exhausted_budget_names_its_row():
    # row 0 starts on its optimum and stops at once; row 1 cannot meet the
    # rule in two steps
    block = SurrogateOracle(_quadratics(1.0, 1.0), prox_terms=((0.5, np.ones(1)),))
    start = np.array([[1.0 / 3.0], [10.0]])
    rule = StoppingRule("abs_grad", tol=1e-12, max_steps=2)
    with pytest.raises(SolverBudgetError, match=r"after 2 steps .* in row 1$"):
        solve_gd(block, start, rule, step=0.1)


def test_a_failed_decrease_names_its_lowest_row():
    # step 4: curvature 0.25 lands on the optimum, curvature 1 maps x to -3x,
    # so rows 1 and 2 increase their objectives
    bases = _quadratics(0.25, 1.0, 1.0)

    def solve(rows):
        rule = StoppingRule("rel_grad", tol=math.inf)
        return solve_gd(
            SurrogateOracle(rows), np.ones(1), rule, step=4.0, require_decrease=True
        )

    with pytest.raises(SolverBudgetError, match=r"objective in row 1:") as raised:
        solve(bases)
    # solved alone, row 0 passes the check and row 1 fails it with the same values
    solve(bases[:1])
    with pytest.raises(SolverBudgetError) as alone:
        solve(bases[1:2])
    assert str(raised.value) == str(alone.value).replace("row 0:", "row 1:")


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_non_finite_value_in_the_decrease_check_names_its_lowest_row():
    # every gradient is finite, but row 1's value 1e-10/2 * 1e320 overflows
    block = SurrogateOracle(_quadratics(1.0, 1e-10))
    start = np.array([[1.0], [1e160]])
    rule = StoppingRule("fixed_steps", steps=0)
    with pytest.raises(NonFiniteError, match=r"non-finite objective value in row 1$"):
        solve_gd(block, start, rule, require_decrease=True)
    # solved alone, the row is row 0
    alone = SurrogateOracle(_quadratics(1e-10))
    with pytest.raises(NonFiniteError, match=r"^non-finite objective value in row 0$"):
        solve_gd(alone, start[1], rule, require_decrease=True)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_a_non_finite_base_value_is_named_before_a_total_that_overflows():
    # at 0, row 0's base value is finite and its proximal term 1e400/2 is
    # not; at 1e160, row 1's base value 1e-10/2 * 1e320 overflows
    centers = np.array([[1e200], [0.0]])
    block = SurrogateOracle(_quadratics(1.0, 1e-10), prox_terms=((1.0, centers),))
    with pytest.raises(NonFiniteError, match=r"^non-finite objective value in row 1$"):
        block.value(np.array([[0.0], [1e160]]))
    with pytest.raises(NonFiniteError, match=r"^non-finite objective value in row 0$"):
        block.value(np.zeros((2, 1)))


def _count_values(monkeypatch) -> dict[str, int]:
    """Counts of the surrogate's public ``value`` and unchecked ``_values``
    calls and of the base value rows its stack computes (from the shape of
    the points)."""
    calls = {"value": 0, "_values": 0, "base value rows": 0}

    def counted(cls, attr, key, units):
        fn = getattr(cls, attr)

        def wrapper(self, *args):
            calls[key] += units(*args)
            return fn(self, *args)

        monkeypatch.setattr(cls, attr, wrapper)

    counted(SurrogateOracle, "value", "value", lambda *a: 1)
    counted(SurrogateOracle, "_values", "_values", lambda *a: 1)
    counted(_QuadraticStack, "values", "base value rows", lambda r, p: p.shape[0])
    return calls


@pytest.mark.parametrize("n", [1, 3], ids=["one_row", "block"])
@pytest.mark.parametrize("solver", sorted(SOLVE))
def test_only_the_decrease_check_evaluates_values(monkeypatch, solver, n):
    problem = gen_quadratic_problem(
        2, 3, 2, 6, max_norm=5.0, min_eig=1.0, target_delta=1.0
    )
    bases = problem.clients[:n]
    surrogate = SurrogateOracle(bases, prox_terms=((1.0, np.ones(6)),))
    calls = _count_values(monkeypatch)
    rule = StoppingRule("abs_grad", tol=1e-8)
    if solver == "exact":
        solve_exact_quadratic(surrogate)
    else:
        SOLVE[solver](surrogate, np.zeros(6), rule)
    assert calls == {"value": 0, "_values": 0, "base value rows": 0}
    if solver != "exact":
        SOLVE[solver](surrogate, np.zeros(6), rule, require_decrease=True)
        assert calls == {"value": 2, "_values": 2, "base value rows": 2 * n}


def test_a_base_oracle_error_names_its_row():
    # row 1's start is not finite: its base rejects the query point
    start = np.zeros((3, 1))
    start[1, 0] = np.nan
    block = SurrogateOracle(_quadratics(1.0, 1.0, 1.0))
    with pytest.raises(NonFiniteError, match=r"query point in row 1$"):
        solve_gd(block, start, StoppingRule("fixed_steps", steps=2))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_several_failing_rows_raise_the_earliest_lowest_failure():
    # the solve raises at the first step at which any row fails; solved one
    # by one, row 0's budget error would have come first
    shift = np.zeros((3, 2))
    shift[2, 1] = 1e308
    bases = _fixed([1.0, 1.0], [1.0, 1.0], [1.0, 1e308])
    rule = StoppingRule("abs_grad", tol=1e-12, max_steps=2)
    with pytest.raises(NonFiniteError, match=r"step 0 in row 2$"):
        solve_gd(SurrogateOracle(bases, linear_shift=shift), np.zeros(2), rule)
    # rows 0 and 1 both exhaust the budget at step 2: the lowest is named
    with pytest.raises(SolverBudgetError, match=r"after 2 steps .* in row 0$"):
        solve_gd(SurrogateOracle(bases[:2]), np.zeros(2), rule)
    # step 4 at curvature 1 maps x to -3x, and row 0 stops at step 1 with
    # its objective increased; at curvature 1e154 row 1's gradient overflows
    # at step 1, before the decrease check runs
    block = SurrogateOracle(_quadratics(1.0, 1e154))
    with pytest.raises(NonFiniteError, match=r"in row 1$"):
        solve_gd(
            block, np.ones(1), StoppingRule("rel_grad", tol=math.inf), step=4.0,
            require_decrease=True,
        )


class _Skewed(core.ClientOracle):
    """A pure quadratic in two coordinates whose Hessian products are
    ``(I + S) v`` for the skew ``S = [[0, s], [-s, 0]]``: every curvature
    ``v'(I + S)v = |v|^2`` is positive, but the operator is not symmetric,
    so conjugate gradients need not converge."""

    is_pure_quadratic = True
    smoothness_hint = convexity_hint = 1.0

    def __init__(self, skew: float):
        self.dim = 2
        self.skew = np.array([[0.0, skew], [-skew, 0.0]])

    def linear_term(self):
        return np.array([1.0, 0.0])

    def hessian_matvecs(self, rows, vs):
        return vs + vs.dot(self.skew.T)


def test_an_exhausted_conjugate_gradient_budget_names_the_lowest_working_row():
    # row 0 (S = 0) converges at iteration 1; rows 1 and 2 never do
    block = SurrogateOracle([_Skewed(0.0), _Skewed(1.0), _Skewed(1.0)])
    with pytest.raises(
        SolverBudgetError,
        match=r"^conjugate gradients stalled at residual \S+ in row 1$",
    ):
        solve_exact_quadratic(block)
