"""Local subproblem solvers, stopping rules, and the accuracy schedule."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlab import (
    ConfigurationError,
    DimensionError,
    LocalSpec,
    NonFiniteError,
    RandomStream,
    SolverBudgetError,
    StoppingRule,
    SurrogateOracle,
    UnsupportedStructureError,
    counting_problem,
    finite_difference_gradient,
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

from conftest import (
    CubicOracle,
    FixedGradientOracle,
    hetero_pair,
    quad_1d,
    random_family,
)


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


def test_scheduled_rule_is_resolved_before_the_solvers():
    surrogate = SurrogateOracle(_oracle())
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
    surrogate = SurrogateOracle(
        base, linear_shift=shift, prox_terms=((2.0, c1), (0.5, c2))
    )
    x = RandomStream(1).generator().standard_normal(base.dim)
    expected = (
        base.value(x)
        + float(shift @ x)
        + 1.0 * float((x - c1) @ (x - c1))
        + 0.25 * float((x - c2) @ (x - c2))
    )
    assert surrogate.value(x) == pytest.approx(expected, rel=1e-12)
    fd = finite_difference_gradient(surrogate.value, x)
    assert np.linalg.norm(fd - surrogate.gradient(x)) <= 1e-5 * (
        1 + np.linalg.norm(fd)
    )
    assert surrogate.smoothness_hint == pytest.approx(base.smoothness_hint + 2.5)
    assert surrogate.convexity_hint == pytest.approx(base.convexity_hint + 2.5)


def test_surrogate_rejects_bad_terms():
    base = _oracle()
    with pytest.raises(ConfigurationError):
        SurrogateOracle(base, prox_terms=((-1.0, np.zeros(base.dim)),))
    with pytest.raises(ConfigurationError):
        SurrogateOracle(base, prox_terms=((1.0, np.zeros(base.dim + 1)),))
    with pytest.raises(ConfigurationError):
        SurrogateOracle(base, linear_shift=np.zeros(base.dim + 1))


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
    surrogate = SurrogateOracle(oracle)
    report = solve_gd(surrogate, np.array([1.0]), StoppingRule("abs_grad", tol=1e-12))
    assert report.solution[0] == 0.0
    assert report.steps_taken == 1
    assert report.decreased


def test_gd_matches_exact_solver_on_random_surrogates():
    rng = RandomStream(14).generator()
    for seed in range(20):
        base = _oracle(seed=seed + 50)
        center = rng.standard_normal(base.dim)
        shift = rng.standard_normal(base.dim) * 0.1
        surrogate = SurrogateOracle(
            base, linear_shift=shift, prox_terms=((1.5, center),)
        )
        start = rng.standard_normal(base.dim)
        inexact = solve_gd(surrogate, start, StoppingRule("abs_grad", tol=1e-9))
        exact = solve_exact_quadratic(surrogate, start)
        assert np.linalg.norm(inexact.solution - exact.solution) <= 1e-6


def test_rel_grad_accepts_stationary_start_without_stepping():
    oracle = quad_1d(center=0.0).clients[0]
    surrogate = SurrogateOracle(oracle)
    report = solve_gd(surrogate, np.zeros(1), StoppingRule("rel_grad", tol=0.5))
    assert report.steps_taken == 0
    assert report.solution[0] == 0.0


def test_rel_grad_with_infinite_tolerance_takes_one_step():
    # at the start both sides are 0 vs 0*inf, so one move is required
    oracle = quad_1d(center=0.0).clients[0]
    surrogate = SurrogateOracle(oracle)
    report = solve_gd(
        surrogate, np.array([1.0]), StoppingRule("rel_grad", tol=np.inf)
    )
    assert report.steps_taken == 1


def test_fgd_reaches_tight_tolerance_quickly():
    oracle = quad_1d(center=0.0).clients[0]
    surrogate = SurrogateOracle(oracle)
    report = solve_fgd(
        surrogate, np.array([1.0]), StoppingRule("abs_grad", tol=1e-10)
    )
    assert report.steps_taken <= 60
    assert abs(report.final_grad_norm) <= 1e-10


def _parity_surrogate(hinted: bool) -> SurrogateOracle:
    base = _oracle(seed=7, m=3, d=6)
    if not hinted:
        base.convexity_hint = None  # forces the convex momentum schedule
    rng = RandomStream(8).generator()
    return SurrogateOracle(
        base,
        linear_shift=rng.standard_normal(base.dim),
        prox_terms=((0.7, rng.standard_normal(base.dim)),),
    )


def _reference_descent(surrogate, x_start, steps, accelerated):
    """Textbook gd / Nesterov iterations; the smallest-gradient visited point."""
    gamma = 1.0 / surrogate.smoothness_hint
    momentum = None
    if accelerated and surrogate.convexity_hint is not None:
        root_kappa = np.sqrt((1.0 / gamma) / surrogate.convexity_hint)
        momentum = (root_kappa - 1.0) / (root_kappa + 1.0)
    visited = [x_start]
    x_prev = y = x_start
    for t in range(steps):
        x_new = y - gamma * surrogate.gradient(y)
        if accelerated:
            beta = momentum if momentum is not None else t / (t + 3.0)
            y = x_new + beta * (x_new - x_prev)
        else:
            y = x_new
        x_prev = x_new
        visited.append(y)
    norms = [float(np.linalg.norm(surrogate.gradient(v))) for v in visited]
    best = int(np.argmin(norms))  # first minimum, as the solvers keep it
    return visited[best], norms[best]


@pytest.mark.parametrize("hinted", [True, False])
@pytest.mark.parametrize("solver", [solve_gd, solve_fgd])
def test_descent_matches_reference_loops_bitwise(solver, hinted):
    surrogate = _parity_surrogate(hinted)
    start = RandomStream(9).generator().standard_normal(surrogate.dim)
    report = solver(surrogate, start, StoppingRule("fixed_steps", steps=25))
    x_ref, norm_ref = _reference_descent(
        surrogate, start, 25, accelerated=solver is solve_fgd
    )
    assert np.array_equal(report.solution, x_ref)
    assert report.final_grad_norm == norm_ref
    assert report.steps_taken == 25 and report.grad_evals == 26


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
    inner = surrogate._gradient
    surrogate._gradient = lambda x: calls.append(1) or inner(x)
    start = RandomStream(10).generator().standard_normal(surrogate.dim)
    report = solver(surrogate, start, rule)
    assert report.grad_evals == report.steps_taken + 1 == len(calls)


def test_descent_step_costs_two_finite_checks(monkeypatch):
    # one per primitive at the base boundary (query and gradient); the
    # surrogate's own gradient is checked through the loop's norm, and a
    # counting wrapper bills without checking again
    calls = []
    inner = core.require_finite
    monkeypatch.setattr(
        core, "require_finite", lambda *a: calls.append(1) or inner(*a)
    )
    counted, counter = counting_problem(hetero_pair())
    for surrogate in (
        _parity_surrogate(hinted=True),
        SurrogateOracle(counted.clients[0], prox_terms=((0.7, np.ones(4)),)),
    ):
        start = RandomStream(11).generator().standard_normal(surrogate.dim)
        counts = []
        for k in (7, 8):
            calls.clear()
            counter["units"] = 0.0
            solve_gd(surrogate, start, StoppingRule("fixed_steps", steps=k))
            counts.append(len(calls))
        assert counts[1] - counts[0] == 2
    assert counter["units"] == 9.0


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("solver", [solve_gd, solve_fgd])
def test_descent_rejects_a_shift_that_overflows_the_gradient(solver):
    base = FixedGradientOracle(np.array([1.0, 1e308]))
    surrogate = SurrogateOracle(base, linear_shift=np.array([0.0, 1e308]))
    assert np.isfinite(base.gradient(np.zeros(2))).all()
    with pytest.raises(NonFiniteError, match="step 0"):
        solver(surrogate, np.zeros(2), StoppingRule("fixed_steps", steps=3))


def test_descent_rejects_a_start_of_the_wrong_dimension():
    with pytest.raises(DimensionError):
        solve_gd(CubicOracle(), np.zeros(2), StoppingRule("fixed_steps", steps=1))


def test_fgd_zero_steps_at_optimum():
    oracle = quad_1d(center=2.0).clients[0]
    surrogate = SurrogateOracle(oracle)
    report = solve_fgd(surrogate, np.array([2.0]), StoppingRule("abs_grad", tol=1e-9))
    assert report.steps_taken == 0


def test_fgd_converges_without_convexity_hint():
    base = _oracle(seed=3)
    base.convexity_hint = None  # forces the convex momentum schedule
    surrogate = SurrogateOracle(base, prox_terms=((1.0, np.zeros(base.dim)),))
    report = solve_fgd(
        surrogate, np.ones(base.dim), StoppingRule("abs_grad", tol=1e-8)
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
    surrogate = SurrogateOracle(oracle, prox_terms=((1.0, c),))
    report = solve_exact_quadratic(surrogate)
    assert np.allclose(report.solution, c / 2.0, atol=1e-10)
    assert report.final_grad_norm <= 1e-12 * np.linalg.norm(c)


def test_exact_solver_bills_the_matvecs_it_uses(monkeypatch):
    # every public hessian_matvec call is solver work billed one for one;
    # values and gradients reach the Hessian without calling the hook
    calls = []
    hook = QuadraticOracle.hessian_matvec

    def counted(self, v):
        calls.append(1)
        return hook(self, v)

    monkeypatch.setattr(QuadraticOracle, "hessian_matvec", counted)
    eigenbasis = gen_quadratic_problem(
        0, 2, 3, 6, max_norm=5.0, min_eig=1.0, target_delta=1.0
    )
    cases = (
        # a zero right-hand side is solved by the zero start: no matvec
        (quad_1d(center=0.0), np.zeros(1)),
        (eigenbasis, np.ones(6)),
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
        surrogate = SurrogateOracle(problem.clients[0], prox_terms=((1.0, center),))
        report = solve_exact_quadratic(surrogate, np.zeros(problem.dim))
        assert report.grad_evals == report.steps_taken == len(calls)
        if center.any():
            assert calls
        else:
            assert calls == [] and report.steps_taken == 0
            assert np.array_equal(report.solution, center)
        calls.clear()


@st.composite
def _exact_subproblems(draw):
    """A surrogate on a one-client quadratic with an eigenbasis, axes or dense."""
    frame = draw(st.sampled_from(["eigenbasis", "axes", "dense"]))
    m, d = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    rng = RandomStream(draw(st.integers(0, 2**16))).generator()
    spectra = rng.uniform(0.5, 10.0, size=(m, d))
    centers = 3.0 * rng.standard_normal((m, d))
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    if frame == "dense":
        mats = np.einsum("kl,jl,nl->jkn", q, spectra, q)  # Q diag(s_j) Q'
        spec = QuadraticClientSpec(centers=centers, matrices=mats)
    else:
        spec = QuadraticClientSpec(centers=centers, spectra=spectra)
    basis = q if frame == "eigenbasis" else None
    oracle = build_quadratic_problem(
        QuadraticFamily(specs=[spec], basis=basis)
    ).clients[0]
    weight = draw(st.floats(0.0, 5.0))
    return SurrogateOracle(
        oracle,
        linear_shift=rng.standard_normal(d),
        prox_terms=((weight, rng.standard_normal(d)),),
    )


def _original_coordinate_cg(surrogate):
    """Textbook CG on ``(H + w I) x = rhs`` with the base's own matvec."""
    base, weight = surrogate.base, surrogate.total_prox_weight
    rhs = base.linear_term() - surrogate.linear_shift
    for w, center in surrogate.prox_terms:
        rhs = rhs + w * center
    x, r, p = np.zeros_like(rhs), rhs.copy(), rhs.copy()
    rs = float(r @ r)
    target = 1e-12 * np.linalg.norm(rhs)
    matvecs = 0
    while np.sqrt(rs) > target:
        ap = base.hessian_matvec(p) + weight * p
        matvecs += 1
        alpha = rs / float(p @ ap)
        x, r = x + alpha * p, r - alpha * ap
        rs_new = float(r @ r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, matvecs


@settings(derandomize=True, deadline=None)
@given(surrogate=_exact_subproblems())
def test_frame_cg_matches_original_coordinate_cg(surrogate):
    # CG is invariant under the orthogonal change into the eigen frame: the
    # same number of public matvecs, the same solution up to rounding
    frames = []
    hook = QuadraticOracle.hessian_matvec

    def counted(self, v):
        frames.append(self.basis is None)
        return hook(self, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QuadraticOracle, "hessian_matvec", counted)
        report = solve_exact_quadratic(surrogate)
        solved = list(frames)
        frames.clear()
        x_ref, matvecs = _original_coordinate_cg(surrogate)
    assert report.grad_evals == report.steps_taken == len(solved) == matvecs
    # every matvec of the solve is the basis-free frame's O(d) product
    assert all(solved)
    err = np.linalg.norm(report.solution - x_ref)
    assert err <= 1e-10 * np.linalg.norm(x_ref)


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
    report = solve_exact_quadratic(SurrogateOracle(oracle))
    assert np.allclose(report.solution, centers.mean(axis=0), atol=1e-9)


def test_exact_solver_residual_postcondition():
    for seed in range(5):
        base = _oracle(seed=seed)
        rng = RandomStream(seed + 100).generator()
        surrogate = SurrogateOracle(
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
    surrogate = SurrogateOracle(base, prox_terms=((1.0, ref),))
    with pytest.raises(NonFiniteError, match="conjugate-gradient .* iteration 0"):
        solve_exact_quadratic(surrogate, np.zeros(base.dim))


def test_exact_solver_requires_quadratic_structure():
    surrogate = SurrogateOracle(CubicOracle())
    with pytest.raises(UnsupportedStructureError):
        solve_exact_quadratic(surrogate)
    bumpy = QuadraticClientSpec(
        centers=np.zeros((1, 2)), spectra=np.ones((1, 2)), beta=1.0
    )
    oracle = build_quadratic_problem(QuadraticFamily(specs=[bumpy])).clients[0]
    with pytest.raises(UnsupportedStructureError):
        solve_exact_quadratic(SurrogateOracle(oracle))
    with pytest.raises(UnsupportedStructureError):
        solve_exact_quadratic("not a surrogate")


def test_exact_solver_rejects_indefinite_subproblems():
    spec = QuadraticClientSpec(
        centers=np.zeros((1, 2)), spectra=np.array([[-1.0, -2.0]])
    )
    oracle = build_quadratic_problem(QuadraticFamily(specs=[spec])).clients[0]
    surrogate = SurrogateOracle(oracle, linear_shift=np.array([1.0, 1.0]))
    with pytest.raises(UnsupportedStructureError):
        solve_exact_quadratic(surrogate)


def test_budget_exhaustion_raises():
    base = _oracle()
    surrogate = SurrogateOracle(base)
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
            SurrogateOracle(base),
            np.ones(1),
            StoppingRule("rel_grad", tol=np.inf),
            step=4.0,
            require_decrease=True,
        )
    # under fixed_steps the minimum-gradient iterate is the start point,
    # so the same divergent step degrades to a harmless no-op
    report = solve_gd(
        SurrogateOracle(base),
        np.ones(1),
        StoppingRule("fixed_steps", steps=40),
        step=4.0,
        require_decrease=True,
    )
    assert report.solution[0] == 1.0 and report.decreased


def test_fixed_steps_returns_minimum_gradient_iterate():
    surrogate = SurrogateOracle(CubicOracle())
    start = np.array([1.7])
    step = 0.9
    report = solve_gd(
        surrogate, start, StoppingRule("fixed_steps", steps=12), step=step
    )
    # replay the same trajectory by hand and track the best gradient norm
    x = start.copy()
    best = np.inf
    for _ in range(13):
        g = surrogate.gradient(x)
        best = min(best, float(np.linalg.norm(g)))
        x = x - step * g
    assert report.final_grad_norm == pytest.approx(best, rel=1e-12)
    assert np.linalg.norm(surrogate.gradient(report.solution)) == pytest.approx(
        report.final_grad_norm, rel=1e-12
    )


def test_solvers_report_decrease_on_convex_surrogates():
    rng = RandomStream(77).generator()
    for seed in range(10):
        base = _oracle(seed=seed + 10)
        surrogate = SurrogateOracle(
            base, prox_terms=((1.0, rng.standard_normal(base.dim)),)
        )
        start = rng.standard_normal(base.dim) * 3.0
        for solver in (solve_gd, solve_fgd):
            report = solver(surrogate, start, StoppingRule("abs_grad", tol=1e-6))
            assert report.decreased


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
        surrogate = SurrogateOracle(base, prox_terms=((lam, anchor),))
        rule = StoppingRule("rel_grad", tol=schedule_e_r(r, lam, mu))
        report = solve_fgd(surrogate, anchor + rng.standard_normal(base.dim), rule)
        bound = 10.0 * np.sqrt(ratio) * np.log(
            (base.smoothness_hint / (lam / 2.0)) * (r + 2)
        )
        assert report.steps_taken <= bound
