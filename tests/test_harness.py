"""Experiment driver: references, budgets, traces, certificates, accounting."""
import dataclasses

import numpy as np
import pytest

from fedlab import (
    Budget,
    ConfigurationError,
    DistributedProblem,
    METHODS,
    LocalSpec,
    MethodConfig,
    QuadraticClientSpec,
    QuadraticFamily,
    RandomStream,
    SolverBudgetError,
    StoppingRule,
    UnsupportedStructureError,
    build_quadratic_problem,
    check_rate_certificates,
    delta_exact_quadratic,
    gen_quadratic_problem,
    grad_evals_to_target,
    init_method_state,
    mean_grad_norm_certificate,
    read_trace_csv,
    reference_optimum,
    rounds_to_target,
    run_experiment,
    step_method,
    suggest_parameters,
    trace_csv_text,
    write_trace_csv,
)
from fedlab.core import take_billed
from fedlab.harness import CSV_HEADER, RoundTrace, _bound_report, _GlobalOracle

from conftest import (
    CubicOracle,
    billed_run,
    count_raw_work,
    hetero_pair,
    logistic_small,
    quad_1d,
    rotated_family,
    two_client_line,
)


def _exact(method, **kw):
    return MethodConfig(method=method, local=LocalSpec(solver="exact"), **kw)


# ------------------------------------------------------------- budgets


def test_budget_validation():
    with pytest.raises(ConfigurationError):
        Budget()
    with pytest.raises(ConfigurationError):
        Budget(target_gap=1e-6)  # needs a hard limit too
    with pytest.raises(ConfigurationError):
        Budget(max_rounds=0)
    with pytest.raises(ConfigurationError):
        Budget(max_rounds=10, target_gap=-1.0)
    Budget(max_grad_evals=5.0)


@pytest.mark.parametrize(
    "field", ["max_rounds", "max_grad_evals", "target_gap", "max_iterations"]
)
def test_budget_rejects_nan(field):
    limits = {"max_rounds": 10, field: float("nan")}
    with pytest.raises(ConfigurationError, match=f"{field} must be positive, got nan"):
        Budget(**limits)


_INTEGER_FIELDS = {
    "steps": lambda v: StoppingRule("fixed_steps", steps=v),
    "max_steps": lambda v: StoppingRule("abs_grad", tol=1e-6, max_steps=v),
    "local_steps": lambda v: MethodConfig(method="scaffold", eta=0.1, local_steps=v),
    "batch_size": lambda v: MethodConfig(
        method="fedred_gd", lam=1.0, eta=1.0, batch_size=v
    ),
    "max_rounds": lambda v: Budget(max_rounds=v),
    "max_iterations": lambda v: Budget(max_iterations=v),
    "record_every": lambda v: run_experiment(
        quad_1d(), MethodConfig(method="gd", eta=0.5), Budget(max_rounds=1), 0,
        reference=None, record_every=v,
    ),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True])
@pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
def test_an_integer_field_rejects_floats_and_bools(field, value):
    # as the config checker does: 2.0 is not an integer, True is not a number
    _INTEGER_FIELDS[field](2)
    with pytest.raises(
        ConfigurationError, match=f"^{field} must be an integer, got {value!r}$"
    ):
        _INTEGER_FIELDS[field](value)


# ---------------------------------------------------------- references


def test_reference_direct_for_pure_quadratics():
    ref = reference_optimum(quad_1d(center=3.0))
    assert ref.method == "direct_linear"
    assert ref.x_star[0] == pytest.approx(3.0, abs=1e-12)
    assert ref.f_star == pytest.approx(0.0, abs=1e-14)

    line = reference_optimum(two_client_line())
    assert line.x_star[0] == pytest.approx(1.0, abs=1e-12)
    assert line.f_star == pytest.approx(0.5, abs=1e-12)


def test_reference_iterative_path_meets_residual_contract():
    # a smooth non-quadratic convex term forces the iterative fallback
    rng = RandomStream(31).generator()
    specs = [
        QuadraticClientSpec(
            centers=rng.standard_normal((1, 4)),
            spectra=rng.uniform(2.0, 6.0, size=(1, 4)),
        )
        for _ in range(2)
    ]
    problem = build_quadratic_problem(QuadraticFamily(specs=specs, beta=1.0))
    x0 = np.zeros(4)
    ref = reference_optimum(problem, x0)
    assert ref.method == "long_fgd"
    scale = 1e-10 * (1.0 + np.linalg.norm(problem.grad_f(x0)))
    assert ref.residual <= scale
    assert np.linalg.norm(problem.grad_f(ref.x_star)) <= scale


def test_reference_reads_client_hints_without_problem_annotations():
    # a hand-built problem with no l_smooth, mu or quadratic structure: the
    # long run takes its step and momentum from the clients' own hints
    annotated = hetero_pair()
    bare = DistributedProblem(clients=annotated.clients, dim=annotated.dim)
    whole = _GlobalOracle(bare)
    assert whole.smoothness_hint == max(o.smoothness_hint for o in bare.clients)
    assert whole.convexity_hint == min(o.convexity_hint for o in bare.clients)
    ref = reference_optimum(bare)
    assert ref.method == "long_fgd"
    direct = reference_optimum(annotated)
    assert np.allclose(ref.x_star, direct.x_star, rtol=0, atol=1e-8)


def test_reference_rejects_nonconvex_instances(monkeypatch):
    count = count_raw_work(monkeypatch)
    problem = DistributedProblem(clients=[CubicOracle()], dim=1)
    with pytest.raises(UnsupportedStructureError):
        reference_optimum(problem)
    assert count[0] == 0.0


# ---------------------------------------------------------------- runs


def test_descent_baseline_contracts_per_round():
    problem = gen_quadratic_problem(
        4, 3, 2, 12, max_norm=10.0, min_eig=1.0, target_delta=1.0
    )
    cfg = MethodConfig(method="gd", eta=1.0 / problem.l_smooth_global)
    result = run_experiment(
        problem, cfg, Budget(max_rounds=25), seed=0, x0=np.ones(12), record_every=1
    )
    factor = (1.0 - problem.mu / problem.l_smooth_global) ** 2
    gaps = [t.f_gap for t in result.traces]
    floor = 1e-18 * (1.0 + abs(result.reference.f_star))
    for prev, new in zip(gaps, gaps[1:]):
        if prev <= floor:
            break
        assert new <= prev * factor * (1.0 + 1e-9) + 1e-18


def test_trace_counters_are_monotone():
    problem = hetero_pair(d=4, seed=19)
    cfg = _exact("fedred", lam=0.5, eta=2.0, p=0.4)
    result = run_experiment(
        problem, cfg, Budget(max_iterations=60), seed=3, record_every=7
    )
    ks = [t.k for t in result.traces]
    assert ks == sorted(set(ks)) and ks[0] == 0 and ks[-1] == 60
    rounds = [t.rounds for t in result.traces]
    assert all(a <= b for a, b in zip(rounds, rounds[1:]))
    evals = [t.grad_evals for t in result.traces]
    assert all(a <= b for a, b in zip(evals, evals[1:]))
    assert result.records[-1].iteration == 60


def test_budget_trips():
    problem = hetero_pair(d=4, seed=21)
    dane = _exact("dane_plus", lam=1.0)

    by_rounds = run_experiment(problem, dane, Budget(max_rounds=5), seed=0)
    assert by_rounds.traces[-1].rounds == 5 and not by_rounds.reached

    limit = 9.0
    by_evals = run_experiment(
        problem, dane, Budget(max_grad_evals=limit), seed=0
    )
    assert by_evals.total_grad_evals >= limit

    coin = _exact("fedred", lam=0.5, eta=1.0, p=0.3)
    by_iters = run_experiment(problem, coin, Budget(max_iterations=40), seed=1)
    assert by_iters.traces[-1].k == 40
    assert by_iters.traces[-1].rounds < 40  # some steps skipped communication

    to_gap = run_experiment(
        problem,
        dane,
        Budget(max_rounds=10_000, target_gap=1e-8),
        seed=0,
        record_every=1,
    )
    assert to_gap.reached
    assert rounds_to_target(to_gap.traces, 1e-8) is not None


def test_targets_on_synthetic_traces():
    rows = [
        RoundTrace(k=r, rounds=r, grad_evals=2.0 * r, f_gap=10.0 ** (-r),
                   grad_norm_sq=1.0, dist_sq=None, wall_ms=None)
        for r in range(10)
    ]
    assert rounds_to_target(rows, 1e-7) == 7
    assert grad_evals_to_target(rows, 1e-7) == 14.0
    assert rounds_to_target(rows, 1e-12) is None
    with pytest.raises(ConfigurationError):
        rounds_to_target(rows, 0.0)
    with pytest.raises(ConfigurationError):
        grad_evals_to_target(rows, -1.0)


@pytest.mark.parametrize("to_target", [rounds_to_target, grad_evals_to_target])
def test_a_nan_target_is_rejected(to_target):
    # no gap is at or below NaN, so it would read as never reached
    rows = [RoundTrace(k=0, rounds=0, grad_evals=0.0, f_gap=1.0, grad_norm_sq=1.0,
                       dist_sq=None, wall_ms=None)]
    with pytest.raises(ConfigurationError, match="target must be positive"):
        to_target(rows, float("nan"))


def test_randomized_output_mode_tracks_best_gradient():
    problem = gen_quadratic_problem(
        5, 3, 2, 8, max_norm=10.0, min_eig=0.5, target_delta=1.5
    )
    cfg = MethodConfig(
        method="dane_plus",
        lam=3.0,
        averaging="rand",
        local=LocalSpec(solver="exact"),
    )
    result = run_experiment(
        problem, cfg, Budget(max_rounds=30), seed=2, record_every=1
    )
    norms = [t.grad_norm_sq for t in result.traces]
    assert all(a >= b - 1e-18 for a, b in zip(norms, norms[1:]))


def test_output_modes_last_and_running_best():
    # the reference moves only on communication; a rand-averaged run reports
    # the running minimum of its squared gradient norm, not the last one's
    problem = hetero_pair(d=4, seed=11)
    cfg = MethodConfig(
        method="fedred", lam=1.0, eta=4.0, p=0.5, averaging="rand",
        local=LocalSpec(solver="exact"),
    )
    result = run_experiment(
        problem, cfg, Budget(max_rounds=30), seed=2, record_every=1
    )
    best = [t.grad_norm_sq for t in result.traces]
    # the references themselves, stepped directly
    stream = RandomStream(2)
    server, clients, _ = init_method_state(problem, cfg, np.zeros(problem.dim))
    refs = [server.reference]
    while server.comm_events < 30:
        server, clients, _ = step_method(problem, server, clients, cfg, stream)
        refs.append(server.reference)
    last = [float(g.dot(g)) for g in map(problem.grad_f, refs)]
    assert best == list(np.minimum.accumulate(last))
    assert best != last


def test_gap_without_reference_is_nonnegative_best_seen():
    problem = DistributedProblem(
        clients=[CubicOracle(), CubicOracle()], dim=1
    )
    cfg = MethodConfig(method="gd", eta=0.05)
    result = run_experiment(
        problem, cfg, Budget(max_rounds=150), seed=0, x0=np.array([2.0]),
        record_every=1,
    )
    assert result.reference is None
    assert all(t.f_gap >= 0.0 for t in result.traces)
    assert min(t.f_gap for t in result.traces) == 0.0
    assert result.f_best_seen == pytest.approx(-0.25, abs=1e-6)


def test_target_gap_needs_a_reference_optimum():
    # against the best value seen, the gap is 0 at the first row
    problem = DistributedProblem(clients=[CubicOracle(), CubicOracle()], dim=1)
    cfg = MethodConfig(method="gd", eta=0.05)
    budget = Budget(max_rounds=150, target_gap=1e-6)
    with pytest.raises(ConfigurationError, match="target_gap needs a reference"):
        run_experiment(problem, cfg, budget, seed=0, x0=np.array([2.0]))
    with pytest.raises(ConfigurationError, match="target_gap needs a reference"):
        run_experiment(two_client_line(), cfg, budget, seed=0, reference=None)


@pytest.mark.parametrize("record_every", [0, -2, float("nan")])
def test_record_every_must_be_positive(record_every):
    # p = 0.3 makes silent steps, where the record_every test is reached
    cfg = MethodConfig(method="fedred_gd", lam=0.5, eta=1.0, p=0.3)
    with pytest.raises(ConfigurationError, match="record_every"):
        run_experiment(
            hetero_pair(d=4, seed=3), cfg, Budget(max_iterations=20), seed=0,
            record_every=record_every,
        )


def test_explicit_reference_is_used_verbatim():
    problem = two_client_line()
    ref = reference_optimum(problem)
    cfg = MethodConfig(method="gd", eta=0.9)
    result = run_experiment(
        problem, cfg, Budget(max_rounds=200, target_gap=1e-10), seed=0,
        x0=np.array([4.0]), reference=ref, record_every=1,
    )
    assert result.reached
    assert result.reference.f_star == ref.f_star
    assert result.traces[-1].dist_sq <= 1e-9


# -------------------------------------------------------------- accounting


_ANCHORED_PARAMS = {
    "dane_plus": dict(lam=1.0),
    "fedred": dict(lam=0.5, eta=1.0, p=0.5),
    "fedprox": dict(lam=1.0),
}
_LOCAL_SPECS = {
    "exact": LocalSpec(solver="exact"),
    "gd": LocalSpec(solver="gd", rule=StoppingRule("fixed_steps", steps=5)),
    "fgd": LocalSpec(solver="fgd", rule=StoppingRule("abs_grad", tol=1e-8)),
}


def _accounting_problems():
    """Two quadratics, hand-drawn and generated, and the bundled logistic problem."""
    generated = gen_quadratic_problem(
        3, 3, 2, 8, max_norm=6.0, min_eig=0.5, target_delta=1.0
    )
    return hetero_pair(d=4, seed=23), generated, logistic_small()


def test_gradient_accounting_matches_oracle_counter():
    # the methods without a local solver; anchored methods are covered below
    for base in _accounting_problems():
        for cfg in (
            MethodConfig(method="fedred_gd", lam=0.5, eta=1.0, p=0.5),
            MethodConfig(method="fedred_gd", lam=0.5, eta=1.0, p=0.5, batch_size=3),
            MethodConfig(method="scaffold", eta=0.05, local_steps=3),
            MethodConfig(method="scaffnew", eta=0.05, p=0.5),
            MethodConfig(method="gd", eta=0.1),
        ):
            billed_run(base, cfg, 12)


@pytest.mark.parametrize("solver", sorted(_LOCAL_SPECS))
@pytest.mark.parametrize("method", sorted(_ANCHORED_PARAMS))
def test_anchored_accounting_matches_oracle_counter(method, solver):
    cfg = MethodConfig(
        method=method, local=_LOCAL_SPECS[solver], **_ANCHORED_PARAMS[method]
    )
    for base in _accounting_problems():
        if base.quadratic is not None or solver != "exact":  # CG needs a quadratic
            billed_run(base, cfg, 12)


@pytest.mark.parametrize("method", sorted(_ANCHORED_PARAMS))
def test_exact_solves_at_the_optimum_bill_no_matvecs(method):
    # zero-centre clients started at their common optimum x = 0: every
    # subproblem has a zero right-hand side, so CG makes no matvec
    base = build_quadratic_problem(
        QuadraticFamily(
            specs=[
                QuadraticClientSpec(
                    centers=np.zeros((1, 3)), spectra=np.full((1, 3), c)
                )
                for c in (1.0, 2.0)
            ]
        )
    )
    cfg = _exact(method, **_ANCHORED_PARAMS[method])
    result = billed_run(base, cfg, 3)
    assert all(r.local_steps == 0 for r in result.records)


def test_stochastic_steps_bill_fractional_cost():
    problem = gen_quadratic_problem(
        29, 2, 4, 4, max_norm=4.0, min_eig=1.0, target_delta=1.0
    )  # m = 4 components per client
    cfg = MethodConfig(method="fedred_gd", lam=0.5, eta=1.0, p=1.0, batch_size=3)
    result = billed_run(problem, cfg, 6)
    # each step: two fresh variate gradients, then two samples of 3/4 each
    assert [r.grad_evals for r in result.records] == [3.5] * 6


# ------------------------------------------------- rotation equivariance


def _axes_rotated_and_dense():
    """``((axes, rotated, dense), Q)``: a generated ``beta = 0`` problem
    (drawn in its eigen frame), the same spectra and centers under a random
    orthogonal basis ``Q``, and that family's dense twin ``Q diag(s) Q'``
    with centers ``Q c``."""
    axes = gen_quadratic_problem(
        4, 3, 2, 8, max_norm=6.0, min_eig=0.5, target_delta=1.0
    )
    family = rotated_family(axes.quadratic, seed=6)
    q = family.basis
    dense = QuadraticFamily(
        specs=[
            QuadraticClientSpec(
                centers=spec.centers @ q.T,
                matrices=np.einsum("kl,jl,ml->jkm", q, spec.spectra, q),
            )
            for spec in family.specs
        ]
    )
    return (axes, build_quadratic_problem(family), build_quadratic_problem(dense)), q


_FRAME_CONFIGS = {
    "dane_plus": MethodConfig(method="dane_plus", lam=2.0),
    "fedred": MethodConfig(method="fedred", lam=1.0, eta=4.0, p=0.5),
    "fedred_gd": MethodConfig(
        method="fedred_gd", lam=1.0, eta=6.0, p=0.5, averaging="rand",
        batch_size=1,
    ),
    "gd": MethodConfig(method="gd", eta=0.15),
    "scaffold": MethodConfig(method="scaffold", eta=0.05, local_steps=3),
    "scaffnew": MethodConfig(method="scaffnew", eta=0.15, p=0.5),
    "fedprox": MethodConfig(
        method="fedprox", lam=2.0,
        local=LocalSpec(solver="fgd", rule=StoppingRule("fixed_steps", steps=6)),
    ),
}


def test_every_method_is_configured_for_the_frame_equivalence():
    assert sorted(_FRAME_CONFIGS) == sorted(METHODS)


@pytest.mark.parametrize("method", sorted(_FRAME_CONFIGS))
def test_runs_in_the_eigen_frame_match_original_coordinates(method):
    # every method moves by gradients, Euclidean proximal terms and averages,
    # and every metric column is rotation-invariant, so a run on the problem
    # drawn in its eigen frame from y0 is the run on the same problem under a
    # basis Q, spectral or dense, from Q y0: the ledger exactly, the metrics
    # up to rounding, and each step bills what the leaf primitives count
    cfg = _FRAME_CONFIGS[method]
    problems, q = _axes_rotated_and_dense()
    assert problems[0].quadratic.basis is None
    y0 = np.linspace(-1.0, 1.0, q.shape[0])
    runs = [
        billed_run(problem, cfg, 25, seed=3, x0=x0, record_every=1)
        for problem, x0 in zip(problems, (y0, q @ y0, q @ y0))
    ]
    axes = runs[0]
    assert len(axes.traces) > 1
    for other in runs[1:]:
        assert len(other.traces) == len(axes.traces)
        for a, b in zip(axes.traces, other.traces):
            assert (a.k, a.rounds, a.grad_evals) == (b.k, b.rounds, b.grad_evals)
            for col in ("f_gap", "grad_norm_sq", "dist_sq"):
                va, vb = getattr(a, col), getattr(b, col)
                assert abs(va - vb) <= max(1e-12, 1e-9 * max(abs(va), abs(vb))), col


def test_best_grad_snapshots_reuse_the_scored_gradient(monkeypatch):
    # the problem has no block, so each grad_f takes n client gradients;
    # what the leaf primitives count beyond the billed work is the metrics'
    problem = gen_quadratic_problem(
        6, 3, 2, 8, max_norm=6.0, min_eig=-1.0, target_delta=1.0, beta=4.0
    )
    count = count_raw_work(monkeypatch)
    cfg = MethodConfig(method="fedred_gd", lam=1.0, eta=30.0, p=0.3, averaging="rand")
    result = run_experiment(
        problem, cfg, Budget(max_iterations=40), seed=1, reference=None,
        record_every=1,
    )
    comms = sum(r.communicated for r in result.records)
    assert 0 < comms < len(result.records)
    assert count[0] - result.total_grad_evals == problem.n * (1 + comms)


@pytest.mark.parametrize(
    "problem", _accounting_problems(), ids=["hetero_pair", "generated", "logistic"]
)
def test_metric_snapshots_add_nothing_to_a_step(problem):
    # a snapshot every step, and the reference optimum before the first;
    # without a block they take public gradients, between the billing windows
    cfg = MethodConfig(method="dane_plus", lam=1.0, local=_LOCAL_SPECS["gd"])
    result = run_experiment(
        problem, cfg, Budget(max_iterations=6), seed=5, record_every=1
    )
    assert len(result.traces) == 7 and result.reference is not None
    server, clients, _ = init_method_state(problem, cfg, np.zeros(problem.dim))
    stream = RandomStream(5)
    for rec in result.records:
        server, clients, alone = step_method(problem, server, clients, cfg, stream)
        assert rec.grad_evals == alone.grad_evals


@pytest.mark.parametrize("method", METHODS)
def test_setup_bills_n_for_scaffnew_only(method):
    problem = hetero_pair()
    take_billed()
    problem.grad_f(np.ones(problem.dim))  # outside the window: not setup work
    _, _, billed = init_method_state(problem, _FRAME_CONFIGS[method], np.zeros(4))
    assert billed == (float(problem.n) if method == "scaffnew" else 0.0)


# ------------------------------------------------------------ certificates


def test_convex_sublinear_certificate_holds():
    problem = gen_quadratic_problem(
        6, 4, 2, 15, max_norm=10.0, min_eig=0.0, target_delta=1.0
    )
    report = delta_exact_quadratic(problem)[0]
    cfg = _exact("dane_plus", lam=2.0 * report.delta_a)
    x0 = np.zeros(15)
    result = run_experiment(
        problem, cfg, Budget(max_rounds=20), seed=0, x0=x0, record_every=1
    )
    reports = check_rate_certificates(result)
    assert [r.name for r in reports] == ["convex_sublinear"]
    assert reports[0].ok and reports[0].checked == 20
    assert reports[0].worst_ratio <= 1.0 + 1e-9


def test_strongly_convex_certificates_hold():
    problem = gen_quadratic_problem(
        4, 4, 2, 12, max_norm=10.0, min_eig=1.0, target_delta=1.0
    )
    report = delta_exact_quadratic(problem)[0]
    cfg = _exact("dane_plus", lam=2.0 * report.delta_a)
    x0 = np.ones(12)
    result = run_experiment(
        problem, cfg, Budget(max_rounds=25), seed=0, x0=x0, record_every=1
    )
    reports = check_rate_certificates(result, mu=problem.mu)
    names = [r.name for r in reports]
    assert names == ["convex_sublinear", "strongly_convex_linear"]
    assert all(r.ok for r in reports)


def test_randomized_stationarity_certificate_holds():
    problem = gen_quadratic_problem(
        5, 3, 2, 10, max_norm=10.0, min_eig=0.5, target_delta=2.0
    )
    report = delta_exact_quadratic(problem)[0]
    cfg = MethodConfig(
        method="dane_plus",
        lam=2.0 * report.delta_b,
        averaging="rand",
        local=LocalSpec(
            solver="gd",
            rule=StoppingRule("fixed_steps", steps=60),
            check_decrease=True,
        ),
    )
    x0 = np.ones(10)
    result = run_experiment(
        problem, cfg, Budget(max_rounds=30), seed=4, x0=x0, record_every=1
    )
    reports = check_rate_certificates(result, delta_b=report.delta_b)
    assert [r.name for r in reports] == ["nonconvex_stationarity"]
    assert reports[0].ok and reports[0].checked > 0
    # the premise tuples feeding the e_r terms exist for every round
    assert all(
        rec.premise is not None for rec in result.records if rec.communicated
    )


def test_linear_certificate_skips_rounds_past_the_float_range():
    # mu / lam = 50: (1 + 50)^R leaves the float range after R = 180
    problem = gen_quadratic_problem(
        2, 4, 3, 12, max_norm=8.0, min_eig=0.5, target_delta=1.0
    )
    x0 = np.zeros(12)
    result = run_experiment(
        problem, _exact("dane_plus", lam=0.01), Budget(max_rounds=400), seed=0, x0=x0
    )
    reports = check_rate_certificates(result, mu=problem.mu)
    assert [(r.name, r.checked) for r in reports] == [
        ("convex_sublinear", 400),
        ("strongly_convex_linear", 180),
    ]
    assert all(r.ok for r in reports)
    # at mu / lam = 1e-18, 1 + mu / lam rounds to 1 and the growth to 0, so
    # every row is skipped rather than divided by zero
    reports = check_rate_certificates(result, mu=1e-20)
    assert [(r.name, r.checked) for r in reports] == [
        ("convex_sublinear", 400),
        ("strongly_convex_linear", 0),
    ]


def test_fedred_below_p_one_claims_no_deterministic_bound():
    # at p < 1 fedred's rate holds in expectation; run seeds 1 and 2 of this
    # correct run land above the per-round bounds
    problem = gen_quadratic_problem(
        2, 4, 3, 12, max_norm=8.0, min_eig=0.5, target_delta=1.0
    )
    report = delta_exact_quadratic(problem)[0]
    cfg = suggest_parameters(
        "fedred", report, "sc", l_smooth=problem.l_smooth, mu=problem.mu
    )
    assert cfg.p < 1.0
    x0 = np.zeros(12)
    for seed in (1, 2):
        result = run_experiment(
            problem, cfg, Budget(max_rounds=40), seed=seed, x0=x0, record_every=1
        )
        with pytest.raises(ConfigurationError, match="no certificate applies"):
            check_rate_certificates(result, mu=problem.mu)
    # p = 1 (with the coupling lam = p * eta) is deterministic: both bounds
    full = dataclasses.replace(cfg, p=1.0, eta=cfg.lam)
    result = run_experiment(
        problem, full, Budget(max_rounds=40), seed=1, x0=x0, record_every=1
    )
    reports = check_rate_certificates(result, mu=problem.mu)
    assert [r.name for r in reports] == ["convex_sublinear", "strongly_convex_linear"]
    assert all(r.ok for r in reports)


def test_fedred_at_p_one_claims_bounds_only_under_the_coupling():
    # the sc rule's eta is far above lam; forced to p = 1 without the
    # coupling lam = p * eta, correct runs break both deterministic bounds
    for seed in range(4):
        problem = gen_quadratic_problem(
            seed, 4, 3, 12, max_norm=8.0, min_eig=0.5, target_delta=1.0
        )
        report = delta_exact_quadratic(problem)[0]
        suggested = suggest_parameters(
            "fedred", report, "sc", l_smooth=problem.l_smooth, mu=problem.mu
        )
        assert suggested.eta > suggested.lam
        x0 = np.zeros(12)
        for eta in (suggested.eta, suggested.lam, 0.0):
            cfg = dataclasses.replace(suggested, p=1.0, eta=eta)
            result = run_experiment(
                problem, cfg, Budget(max_rounds=40), seed=seed, x0=x0,
                record_every=1,
            )
            if eta == suggested.eta:
                with pytest.raises(ConfigurationError, match="no certificate"):
                    check_rate_certificates(result, mu=problem.mu)
                continue
            reports = check_rate_certificates(result, mu=problem.mu)
            assert [r.name for r in reports] == [
                "convex_sublinear",
                "strongly_convex_linear",
            ]
            assert all(r.ok for r in reports), (seed, eta, reports)


def test_certificate_error_paths():
    problem = hetero_pair(d=4, seed=2)
    gd_run = run_experiment(
        problem, MethodConfig(method="gd", eta=0.1), Budget(max_rounds=3), seed=0
    )
    with pytest.raises(ConfigurationError, match="no certificate applies"):
        check_rate_certificates(gd_run)
    dane_run = run_experiment(
        problem, _exact("dane_plus", lam=1.0), Budget(max_rounds=3), seed=0,
        reference=None,
    )
    with pytest.raises(ConfigurationError, match="need a reference optimum"):
        check_rate_certificates(dane_run)
    rand_run = run_experiment(
        problem, _RAND_DANE, Budget(max_rounds=3), seed=0
    )
    with pytest.raises(ConfigurationError, match="needs delta_b"):
        check_rate_certificates(rand_run)
    # the nonconvex bound is stated for a = lam / delta_b > 1 only
    with pytest.raises(ConfigurationError, match="no certificate applies"):
        check_rate_certificates(rand_run, delta_b=1.0)


_RAND_DANE = MethodConfig(
    method="dane_plus", lam=1.0, averaging="rand", local=LocalSpec(solver="exact")
)


@pytest.mark.parametrize(
    "name, value, averaging",
    [
        ("delta_b", float("nan"), "rand"),
        ("delta_b", float("inf"), "rand"),
        ("delta_b", -0.5, "rand"),
        ("delta_b", 0.0, "rand"),
        ("mu", float("nan"), "avg"),
        ("mu", float("inf"), "avg"),
        ("mu", -0.5, "avg"),
    ],
)
def test_certificate_constants_out_of_range_are_rejected(name, value, averaging):
    # a NaN constant would make every bound NaN, which no comparison flags
    cfg = dataclasses.replace(_RAND_DANE, averaging=averaging)
    result = run_experiment(hetero_pair(d=4, seed=2), cfg, Budget(max_rounds=3), seed=0)
    with pytest.raises(ConfigurationError, match=name):
        check_rate_certificates(result, **{name: value})


def test_a_bound_below_the_achieved_value_is_a_violation():
    # lam is far below this problem's delta_B (0.897), so the claimed
    # delta_b = 1e-4 is false: the clients barely move toward the reference,
    # and the bound, about 4 lam F0 / R, falls below the achieved gradient norm
    problem = hetero_pair(d=4, seed=2)
    cfg = dataclasses.replace(_RAND_DANE, lam=1e-3)
    result = run_experiment(problem, cfg, Budget(max_rounds=30), seed=0)
    (report,) = check_rate_certificates(result, delta_b=1e-4)
    assert report.name == "nonconvex_stationarity" and report.checked == 30
    assert report.violations > 0 and report.ok is False
    assert report.worst_ratio > 1.0


def test_a_non_finite_bound_is_a_violation():
    nan, inf = float("nan"), float("inf")
    report = _bound_report("bound", [(0.0, nan), (0.0, inf), (0.5, 1.0), (2.0, 1.0)])
    assert (report.checked, report.violations, report.worst_ratio) == (4, 3, 2.0)
    assert not report.ok


def test_mean_gradient_norm_certificate():
    problem = gen_quadratic_problem(
        4, 3, 2, 8, max_norm=8.0, min_eig=0.5, target_delta=1.0
    )
    report = delta_exact_quadratic(problem)[0]
    cfg = MethodConfig(
        method="fedred_gd",
        lam=report.delta_b,
        eta=6.0 * problem.l_smooth,
        p=min(1.0, report.delta_b / problem.l_smooth),
        averaging="rand",
    )
    ref = reference_optimum(problem)
    x0 = np.ones(8)
    measured, bound = mean_grad_norm_certificate(
        problem, cfg, ref.f_star, steps=200, seeds=range(8), x0=x0
    )
    assert measured <= bound
    assert bound == 96.0 * problem.l_smooth * (problem.f(x0) - ref.f_star) / 200
    # the candidate is drawn from each step's pick address, silent or not
    totals = []
    for seed in range(8):
        stream = RandomStream(seed)
        server, clients, _ = init_method_state(problem, cfg, x0)
        acc = 0.0
        for k in range(200):
            server, clients, _ = step_method(problem, server, clients, cfg, stream)
            pick = int(stream.fork(k).fork(1).generator().integers(problem.n))
            g = problem.grad_f(clients.x[pick])
            acc += float(g @ g)
        totals.append(acc / 200)
    assert measured == float(np.mean(totals))
    with pytest.raises(ConfigurationError):
        mean_grad_norm_certificate(
            problem,
            MethodConfig(method="gd", eta=0.1),
            ref.f_star,
            steps=10,
            seeds=[0],
        )
    with pytest.raises(ConfigurationError, match="f_star"):
        mean_grad_norm_certificate(problem, cfg, float("nan"), steps=10, seeds=[0])
    bare = DistributedProblem(clients=problem.clients, dim=problem.dim)
    with pytest.raises(ConfigurationError, match="l_smooth"):
        mean_grad_norm_certificate(bare, cfg, ref.f_star, steps=10, seeds=[0])


@pytest.mark.parametrize(
    "steps, seeds, named",
    [
        (0, [0], "steps"),
        (-3, [0], "steps"),
        (float("nan"), [0], "steps"),
        (10, [], "seeds"),
        (10, iter(()), "seeds"),
    ],
    ids=["steps_zero", "steps_negative", "steps_nan", "seeds_empty",
         "seeds_exhausted"],
)
def test_mean_gradient_norm_certificate_rejects_empty_averages(steps, seeds, named):
    # each would average over nothing: a ZeroDivisionError or a NaN mean
    problem = gen_quadratic_problem(4, 3, 2, 8, max_norm=8.0, min_eig=0.5,
                                    target_delta=1.0)
    cfg = MethodConfig(method="fedred_gd", lam=1.0, eta=10.0, p=0.5,
                       averaging="rand")
    with pytest.raises(ConfigurationError, match=named):
        mean_grad_norm_certificate(problem, cfg, 0.0, steps=steps, seeds=seeds)


# ----------------------------------------------------------------- traces


def test_trace_csv_round_trip(tmp_path):
    problem = hetero_pair(d=3, seed=13)
    cfg = _exact("fedred", lam=0.5, eta=1.0, p=0.6)
    result = run_experiment(
        problem, cfg, Budget(max_iterations=25), seed=7, record_every=4
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(path, result.traces)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    # wall clock column stays empty unless timings are requested
    assert all(line.endswith(",") for line in lines[1:])
    back = read_trace_csv(path)
    assert len(back) == len(result.traces)
    for a, b in zip(result.traces, back):
        assert (a.k, a.rounds) == (b.k, b.rounds)
        assert repr(a.f_gap) == repr(b.f_gap)
        assert repr(a.grad_norm_sq) == repr(b.grad_norm_sq)
        assert repr(a.grad_evals) == repr(b.grad_evals)
        assert b.wall_ms is None

    timed = trace_csv_text(result.traces, timings=True)
    last_fields = timed.strip().split("\n")[-1].split(",")
    assert last_fields[-1] != ""


def test_trace_csv_none_distance_round_trip(tmp_path):
    rows = [
        RoundTrace(k=1, rounds=1, grad_evals=2.0, f_gap=0.125,
                   grad_norm_sq=0.5, dist_sq=None, wall_ms=None)
    ]
    path = tmp_path / "t.csv"
    write_trace_csv(path, rows)
    back = read_trace_csv(path)
    assert back[0].dist_sq is None
    assert back[0].f_gap == 0.125


def test_trace_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigurationError):
        read_trace_csv(path)


def test_solver_budget_error_names_method_and_iteration():
    problem = hetero_pair()
    cfg = MethodConfig(
        method="dane_plus",
        lam=1.0,
        local=LocalSpec(
            solver="gd", rule=StoppingRule("abs_grad", tol=1e-300, max_steps=1)
        ),
    )
    message = "dane_plus failed at iteration 0: "
    with pytest.raises(SolverBudgetError, match=message) as info:
        run_experiment(problem, cfg, Budget(max_rounds=3), seed=0)
    assert isinstance(info.value.__cause__, SolverBudgetError)
