"""Local subproblem solvers, stopping rules, and the accuracy schedule."""
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlab import (
    Budget,
    ConfigurationError,
    DimensionError,
    LocalSpec,
    MethodConfig,
    NonFiniteError,
    RandomStream,
    SolverBudgetError,
    StoppingRule,
    SurrogateOracle,
    UnsupportedStructureError,
    run_experiment,
    schedule_e_r,
    solve_exact_quadratic,
    solve_fgd,
    solve_gd,
)
from fedlab import core
from fedlab.problems import (
    QuadraticClientSpec,
    QuadraticFamily,
    QuadraticOracle,
    build_quadratic_problem,
    gen_quadratic_problem,
)
from fedlab.problems.quadratic import _QuadraticStack

from conftest import (
    CubicOracle,
    FixedGradientOracle,
    finite_difference_gradient,
    gradient_at,
    hetero_pair,
    one_row,
    quad_1d,
    random_family,
    rotated_family,
    row_zero,
    value_at,
)


_ABS_RULE = StoppingRule("abs_grad", tol=1e-9)


def _oracle(seed=0, m=2, d=5):
    family = random_family(seed, n=1, m=m, d=d)
    return build_quadratic_problem(family).clients[0]


def test_stopping_rule_validation():
    with pytest.raises(ConfigurationError):
        StoppingRule("sometimes")
    with pytest.raises(ConfigurationError):
        StoppingRule("abs_grad", tol=0.0)
    with pytest.raises(ConfigurationError):
        StoppingRule("rel_grad", tol=-1.0)
    with pytest.raises(ConfigurationError):
        StoppingRule("fixed_steps", steps=-1)
    with pytest.raises(ConfigurationError):
        StoppingRule("abs_grad", tol=1.0, max_steps=0)
    with pytest.raises(ConfigurationError):
        StoppingRule("exact")  # exactness is a solver, not a stopping rule
    # tol is read only by the gradient kinds, steps only by fixed_steps
    for kind, kwargs in (
        ("fixed_steps", dict(steps=3, tol=1e-6)),
        ("scheduled", dict(tol=1.0)),
        ("abs_grad", dict(tol=1e-6, steps=3)),
        ("rel_grad", dict(tol=1.0, steps=3)),
        ("scheduled", dict(steps=3)),
    ):
        with pytest.raises(ConfigurationError, match=f"{kind} would ignore"):
            StoppingRule(kind, **kwargs)
    StoppingRule("scheduled", max_steps=50)
    StoppingRule("fixed_steps", steps=0)
    # a fixed_steps rule that cannot finish within its budget is refused;
    # one that finishes on its last allowed step is not
    with pytest.raises(ConfigurationError, match="0 <= steps <= max_steps"):
        StoppingRule("fixed_steps", steps=10, max_steps=5)
    StoppingRule("fixed_steps", steps=5, max_steps=5)


def test_nan_tolerances_and_steps_are_rejected():
    nan = float("nan")
    for kwargs in (dict(kind="abs_grad", tol=nan), dict(kind="rel_grad", tol=nan)):
        with pytest.raises(ConfigurationError, match="positive tolerance"):
            StoppingRule(**kwargs)
    with pytest.raises(ConfigurationError, match="max_steps"):
        StoppingRule("abs_grad", tol=1.0, max_steps=nan)
    with pytest.raises(ConfigurationError, match="step override"):
        LocalSpec(solver="gd", step=nan)
    with pytest.raises(ConfigurationError, match="step size"):
        solve_gd(
            one_row(CubicOracle()),
            np.ones(1),
            StoppingRule("fixed_steps", steps=1),
            step=nan,
        )


def test_descent_over_a_base_without_a_smoothness_hint_needs_a_step():
    base = CubicOracle()
    base.smoothness_hint = None
    surrogate = one_row(base, prox_terms=((1.0, np.zeros(1)),))
    assert surrogate.smoothness_hints == (None,)
    rule = StoppingRule("fixed_steps", steps=1)
    for solve in (solve_gd, solve_fgd):
        with pytest.raises(ConfigurationError, match="no smoothness hint"):
            solve(surrogate, np.ones(1), rule)
        assert solve(surrogate, np.ones(1), rule, step=0.1).steps_taken == 1


def test_descent_over_a_nan_smoothness_hint_needs_a_step():
    # a NaN hint would give a NaN step, reported only at the next query point
    base = CubicOracle()
    base.smoothness_hint = float("nan")
    surrogate = one_row(base, prox_terms=((1.0, np.zeros(1)),))
    rule = StoppingRule("fixed_steps", steps=1)
    for solve in (solve_gd, solve_fgd):
        with pytest.raises(ConfigurationError, match="no smoothness hint"):
            solve(surrogate, np.ones(1), rule)


def test_scheduled_rule_is_resolved_before_the_solvers():
    surrogate = one_row(_oracle())
    for solve in (solve_gd, solve_fgd):
        with pytest.raises(ConfigurationError, match="resolves scheduled rules per round"):
            solve(surrogate, np.zeros(surrogate.dim), StoppingRule("scheduled"))


def test_local_spec_validation():
    with pytest.raises(ConfigurationError):
        LocalSpec(solver="newton")
    # conjugate gradients stop at their own residual target
    for rule in (
        StoppingRule("scheduled"),
        StoppingRule("rel_grad", tol=0.1),
        StoppingRule("abs_grad", tol=1e-9, max_steps=10),
    ):
        with pytest.raises(ConfigurationError, match="exact would ignore rule"):
            LocalSpec(solver="exact", rule=rule)
    LocalSpec(solver="exact", rule=StoppingRule("abs_grad", tol=1e-9))
    # conjugate gradients take no gradient step and never check the decrease
    with pytest.raises(ConfigurationError):
        LocalSpec(solver="exact", check_decrease=True)
    with pytest.raises(ConfigurationError):
        LocalSpec(solver="exact", step=0.5)
    with pytest.raises(ConfigurationError):
        LocalSpec(solver="gd", step=0.0)
    # an inexact solver may use a schedule
    LocalSpec(solver="fgd", rule=StoppingRule("scheduled"))
    LocalSpec(solver="gd", check_decrease=True, step=0.5)


def test_surrogate_composition():
    base = _oracle()
    shift = np.full(base.dim, 0.3)
    c1, c2 = np.ones(base.dim), -np.ones(base.dim)
    surrogate = one_row(base, linear_shift=shift, prox_terms=((2.0, c1), (0.5, c2)))
    x = RandomStream(1).generator().standard_normal(base.dim)
    expected = (
        base.value(x)
        + float(shift @ x)
        + 1.0 * float((x - c1) @ (x - c1))
        + 0.25 * float((x - c2) @ (x - c2))
    )
    assert value_at(surrogate, x) == pytest.approx(expected, rel=1e-12)
    fd = finite_difference_gradient(lambda v: value_at(surrogate, v), x)
    assert np.linalg.norm(fd - gradient_at(surrogate, x)) <= 1e-5 * (
        1 + np.linalg.norm(fd)
    )
    assert surrogate.smoothness_hints[0] == pytest.approx(base.smoothness_hint + 2.5)
    assert surrogate.convexity_hints[0] == pytest.approx(base.convexity_hint + 2.5)
    # queries are (n, d) rows: a one-row surrogate takes no bare vector
    for evaluate in (surrogate.value, surrogate.gradient):
        with pytest.raises(DimensionError, match="does not fit 1 rows"):
            evaluate(x)


def test_surrogate_rejects_bad_terms():
    base = _oracle()
    with pytest.raises(ConfigurationError):
        one_row(base, prox_terms=((-1.0, np.zeros(base.dim)),))
    with pytest.raises(ConfigurationError):
        one_row(base, prox_terms=((1.0, np.zeros(base.dim + 1)),))
    with pytest.raises(ConfigurationError):
        one_row(base, linear_shift=np.zeros(base.dim + 1))


def test_schedule_values_and_budget():
    assert schedule_e_r(0, 2.0) ** 2 == pytest.approx(0.25, rel=1e-14)
    total = sum(schedule_e_r(r, 2.0, 1.0) ** 2 for r in range(10_000))
    assert total <= 2.0 * 3.0 / 8.0 + 1e-9
    assert schedule_e_r(3, 2.0) < schedule_e_r(2, 2.0)
    with pytest.raises(ConfigurationError):
        schedule_e_r(0, 0.0)
    with pytest.raises(ConfigurationError):
        schedule_e_r(0, 1.0, -1.0)
    with pytest.raises(ConfigurationError):
        schedule_e_r(-1, 1.0)


def test_gd_single_step_lands_on_quadratic_optimum():
    # f(x) = x^2/2, step 1/L = 1: one step from 1 lands exactly at 0
    oracle = quad_1d(center=0.0).clients[0]
    surrogate = one_row(oracle)
    # the decrease check raises if the objective went up
    report = row_zero(
        solve_gd(
            surrogate,
            np.array([1.0]),
            StoppingRule("abs_grad", tol=1e-12),
            require_decrease=True,
        )
    )
    assert report.solution[0] == 0.0
    assert report.steps_taken == 1


def test_gd_matches_exact_solver_on_random_surrogates():
    rng = RandomStream(14).generator()
    for seed in range(20):
        base = _oracle(seed=seed + 50)
        center = rng.standard_normal(base.dim)
        shift = rng.standard_normal(base.dim) * 0.1
        surrogate = one_row(base, linear_shift=shift, prox_terms=((1.5, center),))
        start = rng.standard_normal(base.dim)
        inexact = row_zero(
            solve_gd(surrogate, start, StoppingRule("abs_grad", tol=1e-9))
        )
        exact = row_zero(solve_exact_quadratic(surrogate))
        assert np.linalg.norm(inexact.solution - exact.solution) <= 1e-6


def test_rel_grad_accepts_stationary_start_without_stepping():
    oracle = quad_1d(center=0.0).clients[0]
    surrogate = one_row(oracle)
    report = row_zero(
        solve_gd(surrogate, np.zeros(1), StoppingRule("rel_grad", tol=0.5))
    )
    assert report.steps_taken == 0
    assert report.solution[0] == 0.0


def test_rel_grad_with_infinite_tolerance_takes_one_step():
    # at the start both sides are 0 vs 0*inf, so one move is required
    oracle = quad_1d(center=0.0).clients[0]
    surrogate = one_row(oracle)
    report = solve_gd(
        surrogate, np.array([1.0]), StoppingRule("rel_grad", tol=np.inf)
    )
    assert report.steps_taken == 1


def test_gradient_rule_stalled_at_its_rounding_floor_fails_fast():
    # once the server reference has converged, a scheduled dane_plus solve
    # starts almost on its solution: its gradient sits at about 2e-16 while
    # the rule asks for less, which no further step can give
    problem = gen_quadratic_problem(
        4, 4, 2, 5, max_norm=10.0, min_eig=-1.0, target_delta=1.0, beta=20.0
    )
    local = LocalSpec(solver="gd", rule=StoppingRule("scheduled"))
    cfg = MethodConfig("dane_plus", lam=2.0, local=local)
    start = time.perf_counter()
    message = r"rel_grad rule unmet at step \d+: \|\|grad\|\| = \d"
    with pytest.raises(SolverBudgetError, match=message):
        run_experiment(problem, cfg, Budget(max_rounds=30), 3, reference=None)
    assert time.perf_counter() - start < 2.0


def test_accelerated_descent_passes_below_the_floor_on_a_small_solution():
    # with centers of norm about 0.03 the gradient's rounding sits far
    # below 4 eps L; the accelerated norm is not monotone there, so a
    # step that improves on no earlier norm is no stall
    rng = np.random.default_rng(0)
    spec = QuadraticClientSpec(
        centers=1e-2 * rng.standard_normal((2, 20)),
        spectra=np.geomspace(1e-2, 1.0, 20)[None].repeat(2, axis=0),
    )
    surrogate = one_row(
        build_quadratic_problem(QuadraticFamily(specs=[spec])).clients[0]
    )
    floor = 4.0 * np.finfo(np.float64).eps * surrogate.smoothness_hints[0]
    tol = 1e-2 * floor
    report = row_zero(
        solve_fgd(surrogate, np.zeros(20), StoppingRule("abs_grad", tol=tol))
    )
    assert report.final_grad_norm <= tol
    assert np.linalg.norm(report.solution) < 0.1


def test_fgd_reaches_tight_tolerance_quickly():
    oracle = quad_1d(center=0.0).clients[0]
    surrogate = one_row(oracle)
    report = row_zero(
        solve_fgd(surrogate, np.array([1.0]), StoppingRule("abs_grad", tol=1e-10))
    )
    assert report.steps_taken <= 60
    assert abs(report.final_grad_norm) <= 1e-10


def _parity_surrogate(hinted: bool) -> SurrogateOracle:
    base = _oracle(seed=7, m=3, d=6)
    if not hinted:
        base.convexity_hint = None  # forces the convex momentum schedule
    rng = RandomStream(8).generator()
    return one_row(
        base,
        linear_shift=rng.standard_normal(base.dim),
        prox_terms=((0.7, rng.standard_normal(base.dim)),),
    )


def _reference_descent(surrogate, x_start, steps, accelerated):
    """Textbook gd / Nesterov iterations; the smallest-gradient visited point."""
    gamma = 1.0 / surrogate.smoothness_hints[0]
    modulus = surrogate.convexity_hints[0]
    momentum = None
    if accelerated and modulus is not None:
        root_kappa = np.sqrt((1.0 / gamma) / modulus)
        momentum = (root_kappa - 1.0) / (root_kappa + 1.0)
    visited = [x_start]
    x_prev = y = x_start
    for t in range(steps):
        x_new = y - gamma * gradient_at(surrogate, y)
        if accelerated:
            beta = momentum if momentum is not None else t / (t + 3.0)
            y = x_new + beta * (x_new - x_prev)
        else:
            y = x_new
        x_prev = x_new
        visited.append(y)
    norms = [float(np.linalg.norm(gradient_at(surrogate, v))) for v in visited]
    best = int(np.argmin(norms))  # first minimum, as the solvers keep it
    return visited[best], norms[best]


@pytest.mark.parametrize("hinted", [True, False])
@pytest.mark.parametrize("solver", [solve_gd, solve_fgd])
def test_descent_matches_reference_loops_bitwise(solver, hinted):
    surrogate = _parity_surrogate(hinted)
    start = RandomStream(9).generator().standard_normal(surrogate.dim)
    core.take_billed()
    report = row_zero(solver(surrogate, start, StoppingRule("fixed_steps", steps=25)))
    billed = core.take_billed()
    x_ref, norm_ref = _reference_descent(
        surrogate, start, 25, accelerated=solver is solve_fgd
    )
    assert np.array_equal(report.solution, x_ref)
    assert report.final_grad_norm == norm_ref
    assert report.steps_taken == 25 and billed == 26


def _scalar_surrogate_gradient(surrogate, x):
    """A one-row surrogate's gradient with Python-float proximal weights."""
    g = surrogate.bases[0].gradient(x)
    if surrogate.linear_shift is not None:
        g = g + surrogate.linear_shift[0]
    for weight, center in surrogate.prox_terms:
        g = g + weight * (x - center[0])
    return g


def _scalar_gd(surrogate, x_start, steps):
    """Fixed-step descent with a Python-float step: the visited point with
    the smallest gradient norm, and that norm."""
    gamma = 1.0 / surrogate.smoothness_hints[0]
    y, best = x_start, (x_start, math.inf)
    for _ in range(steps + 1):
        g = _scalar_surrogate_gradient(surrogate, y)
        norm = math.sqrt(g.dot(g))
        if norm < best[1]:
            best = (y, norm)
        y = y - gamma * g
    return best


_SIGMOID_BASE = build_quadratic_problem(
    rotated_family(
        QuadraticFamily(specs=random_family(seed=12, n=1, m=2, d=6).specs, beta=3.0),
        seed=13,
    )
).clients[0]
_COORDINATES = st.lists(st.floats(-1e3, 1e3), min_size=6, max_size=6)
_PROX_TERMS = st.lists(
    st.tuples(st.floats(0.0, 1e3), _COORDINATES), min_size=1, max_size=2
)


@settings(max_examples=40, deadline=None)
@given(_PROX_TERMS, st.one_of(st.none(), _COORDINATES), _COORDINATES)
def test_vector_prox_weights_are_bitwise_the_scalar_form(terms, shift, xs):
    surrogate = one_row(
        _SIGMOID_BASE,
        linear_shift=shift,
        prox_terms=tuple((w, np.array(c)) for w, c in terms),
    )
    x = np.array(xs)
    for _ in range(2):  # the weight vectors are formed on the first call
        assert np.array_equal(
            surrogate._gradients(x[None])[0], _scalar_surrogate_gradient(surrogate, x)
        )


@settings(max_examples=20, deadline=None)
@given(_PROX_TERMS, _COORDINATES, _COORDINATES)
def test_vector_step_is_bitwise_the_scalar_form(terms, shift, xs):
    surrogate = one_row(
        _SIGMOID_BASE,
        linear_shift=shift,
        prox_terms=tuple((w, np.array(c)) for w, c in terms),
    )
    start = np.array(xs)
    report = row_zero(solve_gd(surrogate, start, StoppingRule("fixed_steps", steps=20)))
    x_ref, norm_ref = _scalar_gd(surrogate, start, 20)
    assert np.array_equal(report.solution, x_ref)
    assert report.final_grad_norm == norm_ref


@pytest.mark.parametrize(
    "rule",
    [
        StoppingRule("abs_grad", tol=1e-6),
        StoppingRule("rel_grad", tol=0.05),
        StoppingRule("fixed_steps", steps=0),
        StoppingRule("fixed_steps", steps=12),
    ],
    ids=["abs_grad", "rel_grad", "fixed_0", "fixed_12"],
)
@pytest.mark.parametrize("solver", [solve_gd, solve_fgd])
def test_descent_bills_one_gradient_per_step_plus_one(solver, rule):
    surrogate = _parity_surrogate(hinted=True)
    calls = []
    inner = surrogate._gradients
    surrogate._gradients = lambda y: calls.append(1) or inner(y)
    start = RandomStream(10).generator().standard_normal(surrogate.dim)
    core.take_billed()
    report = solver(surrogate, start, rule)
    assert core.take_billed() == report.steps_taken + 1 == len(calls)


def test_descent_step_costs_one_finite_check_on_a_declared_base(monkeypatch):
    # checks happen at the base boundary: one over each step's block of
    # quadratic rows, whose gradients propagate a non-finite query, however
    # many rows it holds, and the query point and the gradient of each row
    # of an undeclared base (cubic); the surrogate's own gradient is
    # checked through the loop's norm, and the block bills its rows
    calls = []
    inner = core.require_finite
    monkeypatch.setattr(
        core, "require_finite", lambda *a: calls.append(1) or inner(*a)
    )
    quadratics = gen_quadratic_problem(
        2, 3, 2, 5, max_norm=4.0, min_eig=-1.0, target_delta=1.0, beta=2.0
    ).clients
    for surrogate, per_step in (
        (_parity_surrogate(hinted=True), 1),
        (one_row(hetero_pair().clients[0], prox_terms=((0.7, np.ones(4)),)), 1),
        (SurrogateOracle(quadratics, prox_terms=((0.7, np.ones(5)),)), 1),
        (one_row(CubicOracle(), prox_terms=((0.7, np.ones(1)),)), 2),
    ):
        start = RandomStream(11).generator().standard_normal(surrogate.dim)
        counts = []
        for k in (7, 8):
            calls.clear()
            core.take_billed()
            solve_gd(surrogate, start, StoppingRule("fixed_steps", steps=k))
            counts.append(len(calls))
        assert counts[1] - counts[0] == per_step
        assert core.take_billed() == 9.0 * surrogate.n


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("solver", [solve_gd, solve_fgd])
def test_descent_rejects_a_shift_that_overflows_the_gradient(solver):
    base = FixedGradientOracle(np.array([1.0, 1e308]))
    surrogate = one_row(base, linear_shift=np.array([0.0, 1e308]))
    assert np.isfinite(base.gradient(np.zeros(2))).all()
    with pytest.raises(NonFiniteError, match="step 0"):
        solver(surrogate, np.zeros(2), StoppingRule("fixed_steps", steps=3))


def test_descent_rejects_a_start_of_the_wrong_dimension():
    with pytest.raises(DimensionError):
        solve_gd(
            one_row(CubicOracle()), np.zeros(2), StoppingRule("fixed_steps", steps=1)
        )


def test_fgd_zero_steps_at_optimum():
    oracle = quad_1d(center=2.0).clients[0]
    surrogate = one_row(oracle)
    report = solve_fgd(surrogate, np.array([2.0]), StoppingRule("abs_grad", tol=1e-9))
    assert report.steps_taken == 0


def test_fgd_converges_without_convexity_hint():
    base = _oracle(seed=3)
    base.convexity_hint = None  # forces the convex momentum schedule
    surrogate = one_row(base, prox_terms=((1.0, np.zeros(base.dim)),))
    report = row_zero(
        solve_fgd(surrogate, np.ones(base.dim), StoppingRule("abs_grad", tol=1e-8))
    )
    assert report.final_grad_norm <= 1e-8


def test_exact_solver_balanced_pair_fixture():
    # min x^2/2 + (x-c)^2/2 = c/2, per coordinate
    oracle = build_quadratic_problem(
        QuadraticFamily(
            specs=[
                QuadraticClientSpec(
                    centers=np.zeros((1, 3)), spectra=np.ones((1, 3))
                )
            ]
        )
    ).clients[0]
    c = np.array([2.0, -4.0, 6.0])
    surrogate = one_row(oracle, prox_terms=((1.0, c),))
    report = row_zero(solve_exact_quadratic(surrogate))
    assert np.allclose(report.solution, c / 2.0, atol=1e-10)
    assert report.final_grad_norm <= 1e-12 * np.linalg.norm(c)


def test_exact_solver_bills_the_matvecs_it_uses(monkeypatch):
    # every row of the stack's hessian_matvecs is solver work billed one for
    # one; values and gradients reach the Hessian without calling the hook
    calls = []
    hook = _QuadraticStack.hessian_matvecs

    def counted(self, rows, vs):
        calls.extend([1] * vs.shape[0])
        return hook(self, rows, vs)

    monkeypatch.setattr(_QuadraticStack, "hessian_matvecs", counted)
    generated = gen_quadratic_problem(
        0, 2, 3, 6, max_norm=5.0, min_eig=1.0, target_delta=1.0
    )
    rotated = build_quadratic_problem(rotated_family(generated.quadratic, seed=1))
    cases = (
        # a zero right-hand side is solved by the zero start: no matvec
        (quad_1d(center=0.0), np.zeros(1)),
        (generated, np.ones(6)),
        (rotated, np.ones(6)),
        (build_quadratic_problem(random_family(3, n=2, dense=True)), np.ones(5)),
    )
    for problem, center in cases:
        x = center + 0.5
        for oracle in problem.clients:
            oracle.gradient(x)
            oracle.value(x)
        problem.f(x)
        problem.grad_f(x)
        assert calls == []
        surrogate = one_row(problem.clients[0], prox_terms=((1.0, center),))
        core.take_billed()
        report = row_zero(solve_exact_quadratic(surrogate))
        assert core.take_billed() == report.steps_taken == len(calls)
        if center.any():
            assert calls
        else:
            assert calls == [] and report.steps_taken == 0
            assert np.array_equal(report.solution, center)
        calls.clear()


def _quadratic_oracle(frame, m, d, rng, stiff=False, beta=0.0):
    """A one-client quadratic oracle with an eigenbasis, axes or dense.

    A stiff spectrum spreads over seven decades, so conjugate gradients
    need many more iterations than ``d`` allows in exact arithmetic.
    """
    if stiff:
        spectra = 10.0 ** rng.uniform(-3.0, 4.0, size=(m, d))
    else:
        spectra = rng.uniform(0.5, 10.0, size=(m, d))
    centers = 3.0 * rng.standard_normal((m, d))
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    if frame == "dense":
        mats = np.einsum("kl,jl,nl->jkn", q, spectra, q)  # Q diag(s_j) Q'
        spec = QuadraticClientSpec(centers=centers, matrices=mats)
    else:
        spec = QuadraticClientSpec(centers=centers, spectra=spectra)
    basis = q if frame == "eigenbasis" else None
    return build_quadratic_problem(
        QuadraticFamily(specs=[spec], basis=basis, beta=beta)
    ).clients[0]


def _quadratic_surrogate(frame, m, d, seed, weight, stiff=False):
    """A one-row surrogate on a one-client quadratic with an eigenbasis, axes
    or dense."""
    rng = RandomStream(seed).generator()
    return one_row(
        _quadratic_oracle(frame, m, d, rng, stiff),
        linear_shift=rng.standard_normal(d),
        prox_terms=((weight, rng.standard_normal(d)),),
    )


def _textbook_cg(surrogate):
    """Textbook CG on ``(H + w I) x = rhs`` with the base's own matvec, in
    the solver's operation order: every iteration moves ``x = x + alpha * p``.
    """
    base, weight = surrogate.bases[0], surrogate.total_prox_weight
    rhs = base.linear_term() - surrogate.linear_shift[0]
    for w, center in surrogate.prox_terms:
        rhs = rhs + w * center[0]
    x, r, p = np.zeros_like(rhs), rhs.copy(), rhs.copy()
    rs = float(r.dot(r))
    target = 1e-12 * math.sqrt(rs)
    matvecs = 0
    while math.sqrt(rs) > target:
        ap = base.hessian_matvec(p) + weight * p
        matvecs += 1
        alpha = rs / float(p.dot(ap))
        x = x + alpha * p
        r = r - alpha * ap
        rs_new = float(r.dot(r))
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, matvecs


def _assert_textbook_cg_bitwise(surrogate, report, billed):
    x_ref, matvecs = _textbook_cg(surrogate)
    assert billed == report.steps_taken == matvecs
    assert np.array_equal(report.solution, x_ref)


@pytest.mark.parametrize("frame", ["eigenbasis", "axes", "dense"])
@pytest.mark.parametrize("d, stiff", [(1, False), (48, True)])
def test_cg_is_the_textbook_loop_bitwise(frame, d, stiff):
    # d = 1, and a stiff spectrum whose solve runs long enough for in-place
    # rounding differences to have built up, were there any
    surrogate = _quadratic_surrogate(frame, 2, d, seed=5, weight=0.5, stiff=stiff)
    core.take_billed()
    report = row_zero(solve_exact_quadratic(surrogate))
    billed = core.take_billed()
    if stiff:
        assert report.steps_taken > 64
    _assert_textbook_cg_bitwise(surrogate, report, billed)


def _read_only(arr) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


def _freeze_cached_terms(oracle: QuadraticOracle) -> QuadraticOracle:
    spec, stack = oracle.spec, oracle.stack
    for arr in (
        oracle.basis, spec.centers, stack.centers, stack.u, stack.kappa, stack.hessians
    ):
        if arr is not None:
            arr.setflags(write=False)
    return oracle


class _ReadOnlyOutputs(core.ClientOracle):
    """A quadratic oracle whose values, gradients and matvecs come back
    read-only, as a one-row stack of its own."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.smoothness_hint = base.smoothness_hint
        self.convexity_hint = base.convexity_hint
        self.is_pure_quadratic = base.is_pure_quadratic

    def values(self, rows, points):
        return _read_only(self.base.stack.values([self.base.row], points))

    def gradients(self, rows, points):
        return _read_only(self.base.stack.gradients([self.base.row], points))

    def hessian_matvecs(self, rows, vs):
        return _read_only(self.base.stack.hessian_matvecs([self.base.row], vs))

    def linear_term(self):
        return self.base.linear_term()


@pytest.mark.parametrize("beta", [0.0, 0.75])
@pytest.mark.parametrize("frame", ["eigenbasis", "axes", "dense"])
def test_no_in_place_write_reaches_a_borrowed_array(frame, beta):
    # every array handed in is read-only, so an in-place write into a query
    # point, start, shift, center, cached term or returned array raises
    rng = RandomStream(9).generator()
    oracle = _freeze_cached_terms(_quadratic_oracle(frame, 2, 6, rng, beta=beta))
    x, start, shift, c1, c2 = (_read_only(rng.standard_normal(6)) for _ in range(5))
    oracle.gradient(x), oracle.value(x), oracle.hessian_matvec(x)
    surrogate = one_row(
        _ReadOnlyOutputs(oracle), linear_shift=shift, prox_terms=((1.5, c1), (0.5, c2))
    )
    gradient_at(surrogate, x), value_at(surrogate, x)
    rule = StoppingRule("fixed_steps", steps=5)
    solve_gd(surrogate, start, rule, require_decrease=True)
    solve_fgd(surrogate, start, rule)
    if beta == 0.0:
        assert solve_exact_quadratic(surrogate).steps_taken > 0


def test_exact_solver_unregularized_mean_fixture():
    # shared component matrix: the minimizer is the mean of the centers
    rng = RandomStream(4).generator()
    centers = rng.standard_normal((3, 4))
    spectra = np.tile(rng.uniform(1.0, 3.0, size=4), (3, 1))
    oracle = build_quadratic_problem(
        QuadraticFamily(
            specs=[QuadraticClientSpec(centers=centers, spectra=spectra)]
        )
    ).clients[0]
    report = row_zero(solve_exact_quadratic(one_row(oracle)))
    assert np.allclose(report.solution, centers.mean(axis=0), atol=1e-9)


def test_exact_solver_residual_postcondition():
    for seed in range(5):
        base = _oracle(seed=seed)
        rng = RandomStream(seed + 100).generator()
        surrogate = one_row(
            base,
            linear_shift=rng.standard_normal(base.dim),
            prox_terms=((2.0, rng.standard_normal(base.dim)),),
        )
        report = solve_exact_quadratic(surrogate)
        grad = surrogate.gradient(report.solution)
        rhs_scale = 1.0 + np.linalg.norm(base.linear_term())
        assert np.linalg.norm(grad) <= 1e-10 * rhs_scale


def test_exact_solver_rejects_a_nan_subproblem():
    problem = gen_quadratic_problem(
        0, 3, 2, 6, max_norm=5.0, min_eig=1.0, target_delta=1.0
    )
    base = problem.clients[0]
    ref = np.zeros(base.dim)
    ref[2] = np.nan
    surrogate = one_row(base, prox_terms=((1.0, ref),))
    with pytest.raises(NonFiniteError, match="conjugate-gradient .* iteration 0"):
        solve_exact_quadratic(surrogate)


def test_exact_solver_requires_quadratic_structure():
    surrogate = one_row(CubicOracle())
    with pytest.raises(UnsupportedStructureError):
        solve_exact_quadratic(surrogate)
    spec = QuadraticClientSpec(centers=np.zeros((1, 2)), spectra=np.ones((1, 2)))
    bumpy = QuadraticFamily(specs=[spec], beta=1.0)
    oracle = build_quadratic_problem(bumpy).clients[0]
    with pytest.raises(UnsupportedStructureError):
        solve_exact_quadratic(one_row(oracle))
    with pytest.raises(UnsupportedStructureError):
        solve_exact_quadratic("not a surrogate")


def test_exact_solver_rejects_indefinite_subproblems():
    spec = QuadraticClientSpec(
        centers=np.zeros((1, 2)), spectra=np.array([[-1.0, -2.0]])
    )
    oracle = build_quadratic_problem(QuadraticFamily(specs=[spec])).clients[0]
    surrogate = one_row(oracle, linear_shift=np.array([1.0, 1.0]))
    with pytest.raises(UnsupportedStructureError):
        solve_exact_quadratic(surrogate)


def test_budget_exhaustion_raises():
    base = _oracle()
    surrogate = one_row(base)
    with pytest.raises(SolverBudgetError):
        solve_gd(
            surrogate,
            np.ones(base.dim) * 10,
            StoppingRule("abs_grad", tol=1e-14, max_steps=2),
        )


def test_decrease_check_rejects_divergent_steps():
    # curvature 1, step 4: the iterate map is x -> -3x, so any accepted
    # step strictly increases the objective
    base = quad_1d(center=0.0).clients[0]
    with pytest.raises(SolverBudgetError, match="increased"):
        solve_gd(
            one_row(base),
            np.ones(1),
            StoppingRule("rel_grad", tol=np.inf),
            step=4.0,
            require_decrease=True,
        )
    # under fixed_steps the minimum-gradient iterate is the start point,
    # so the same divergent step degrades to a harmless no-op
    report = row_zero(
        solve_gd(
            one_row(base),
            np.ones(1),
            StoppingRule("fixed_steps", steps=40),
            step=4.0,
            require_decrease=True,
        )
    )
    assert report.solution[0] == 1.0


def test_fixed_steps_returns_minimum_gradient_iterate():
    surrogate = one_row(CubicOracle())
    start = np.array([1.7])
    step = 0.9
    report = row_zero(
        solve_gd(surrogate, start, StoppingRule("fixed_steps", steps=12), step=step)
    )
    # replay the same trajectory by hand and track the best gradient norm
    x = start.copy()
    best = np.inf
    for _ in range(13):
        g = gradient_at(surrogate, x)
        best = min(best, float(np.linalg.norm(g)))
        x = x - step * g
    assert report.final_grad_norm == pytest.approx(best, rel=1e-12)
    assert np.linalg.norm(gradient_at(surrogate, report.solution)) == pytest.approx(
        report.final_grad_norm, rel=1e-12
    )


def test_solvers_report_decrease_on_convex_surrogates():
    rng = RandomStream(77).generator()
    for seed in range(10):
        base = _oracle(seed=seed + 10)
        surrogate = one_row(base, prox_terms=((1.0, rng.standard_normal(base.dim)),))
        start = rng.standard_normal(base.dim) * 3.0
        for solver in (solve_gd, solve_fgd):
            # the decrease check raises if the objective went up
            solver(
                surrogate,
                start,
                StoppingRule("abs_grad", tol=1e-6),
                require_decrease=True,
            )


def test_scheduled_accelerated_solves_stay_cheap():
    # anchored subproblem solved to the decaying relative tolerance: the
    # step count obeys C*sqrt((L+lam)/(mu+lam))*log((L/delta)(r+2)), C<=10
    problem = build_quadratic_problem(random_family(30, n=1, m=3, d=8))
    base = problem.clients[0]
    lam = 2.0
    mu = base.convexity_hint
    ratio = (base.smoothness_hint + lam) / (mu + lam)
    rng = RandomStream(55).generator()
    anchor = rng.standard_normal(base.dim)
    for r in range(12):
        surrogate = one_row(base, prox_terms=((lam, anchor),))
        rule = StoppingRule("rel_grad", tol=schedule_e_r(r, lam, mu))
        report = solve_fgd(surrogate, anchor + rng.standard_normal(base.dim), rule)
        bound = 10.0 * np.sqrt(ratio) * np.log(
            (base.smoothness_hint / (lam / 2.0)) * (r + 2)
        )
        assert report.steps_taken <= bound


@pytest.mark.parametrize("solve", [solve_gd, solve_fgd, solve_exact_quadratic])
def test_a_solver_rejects_a_bare_oracle(solve):
    # a single subproblem is a one-row surrogate; a base oracle is not one
    args = () if solve is solve_exact_quadratic else (np.zeros(5), _ABS_RULE)
    with pytest.raises(UnsupportedStructureError, match="SurrogateOracle"):
        solve(_oracle(), *args)


@pytest.mark.parametrize("solve", [solve_gd, solve_fgd, solve_exact_quadratic])
def test_a_one_row_solve_returns_one_row(solve):
    surrogate = one_row(_oracle(), prox_terms=((1.0, np.ones(5)),))
    if solve is solve_exact_quadratic:
        report = solve(surrogate)
    else:
        report = solve(surrogate, np.zeros(5), _ABS_RULE)
    assert report.solution.shape == (1, 5)
    assert report.final_grad_norm.shape == report.row_steps.shape == (1,)
    assert report.steps_taken == report.row_steps[0] > 0


def test_a_surrogate_needs_bases_of_one_dimension():
    with pytest.raises(
        ConfigurationError, match=r"^a surrogate needs at least one base oracle$"
    ):
        SurrogateOracle([])
    bases = [FixedGradientOracle(np.ones(2)), FixedGradientOracle(np.ones(3))]
    with pytest.raises(DimensionError, match=r"^base oracle dimension mismatch$"):
        SurrogateOracle(bases)
