"""Experiment driver: references, budgets, traces, certificates, accounting."""
import dataclasses

import numpy as np
import pytest

from fedlab import (
    Budget,
    ConfigurationError,
    DistributedProblem,
    LocalSpec,
    MethodConfig,
    QuadraticClientSpec,
    QuadraticFamily,
    RandomStream,
    RateConstants,
    SolverBudgetError,
    StoppingRule,
    UnsupportedStructureError,
    build_quadratic_problem,
    check_rate_certificates,
    counting_problem,
    gen_quadratic_problem,
    grad_evals_to_target,
    mean_grad_norm_certificate,
    read_trace_csv,
    reference_optimum,
    rounds_to_target,
    run_experiment,
    suggest_parameters,
    trace_csv_text,
    write_trace_csv,
)
from fedlab.harness import CSV_HEADER, RoundTrace

from conftest import CubicOracle, hetero_pair, quad_1d, two_client_line


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
            beta=1.0,
        )
        for _ in range(2)
    ]
    problem = build_quadratic_problem(QuadraticFamily(specs=specs))
    x0 = np.zeros(4)
    ref = reference_optimum(problem, x0)
    assert ref.method == "long_fgd"
    scale = 1e-10 * (1.0 + np.linalg.norm(problem.grad_f(x0)))
    assert ref.residual <= scale
    assert np.linalg.norm(problem.grad_f(ref.x_star)) <= scale


def test_reference_rejects_nonconvex_instances():
    problem = DistributedProblem(clients=[CubicOracle()], dim=1)
    with pytest.raises(UnsupportedStructureError):
        reference_optimum(problem)


# ---------------------------------------------------------------- runs


def test_descent_baseline_contracts_per_round():
    problem, _ = gen_quadratic_problem(
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


def test_randomized_output_mode_tracks_best_gradient():
    problem, _ = gen_quadratic_problem(
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
    # the reference moves only on communication; "last" reports it as it is
    # and "best_grad" the running minimum of its squared gradient norm
    problem = hetero_pair(d=4, seed=11)
    cfg = MethodConfig(
        method="fedred", lam=1.0, eta=4.0, p=0.5, averaging="rand",
        local=LocalSpec(solver="exact"),
    )
    norms = {}
    for mode in ("last", "best_grad"):
        result = run_experiment(
            problem, cfg, Budget(max_rounds=30), seed=2, record_every=1,
            output_mode=mode,
        )
        norms[mode] = [t.grad_norm_sq for t in result.traces]
    assert norms["best_grad"] == list(np.minimum.accumulate(norms["last"]))
    assert norms["best_grad"] != norms["last"]
    for unknown in ("median", "best_f"):
        with pytest.raises(ConfigurationError, match=unknown):
            run_experiment(
                problem, cfg, Budget(max_rounds=1), seed=0, output_mode=unknown
            )


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


def _billed_run(base, cfg, iterations):
    """Run on a counting copy of ``base``; billed work must equal consumed."""
    wrapped, counter = counting_problem(base)
    result = run_experiment(
        wrapped, cfg, Budget(max_iterations=iterations), seed=5, metric_problem=base
    )
    assert counter["units"] == result.total_grad_evals, cfg.method
    init = float(base.n) if cfg.method == "scaffnew" else 0.0
    assert result.total_grad_evals == sum(r.grad_evals for r in result.records) + init
    return result


def test_gradient_accounting_matches_oracle_counter():
    # the methods without a local solver; anchored methods are covered below
    base = hetero_pair(d=4, seed=23)
    for cfg in (
        MethodConfig(method="fedred_gd", lam=0.5, eta=1.0, p=0.5),
        MethodConfig(method="scaffold", eta=0.05, local_steps=3),
        MethodConfig(method="scaffnew", eta=0.05, p=0.5),
        MethodConfig(method="gd", eta=0.1),
    ):
        _billed_run(base, cfg, 12)


@pytest.mark.parametrize("solver", sorted(_LOCAL_SPECS))
@pytest.mark.parametrize("method", sorted(_ANCHORED_PARAMS))
def test_anchored_accounting_matches_oracle_counter(method, solver):
    cfg = MethodConfig(
        method=method, local=_LOCAL_SPECS[solver], **_ANCHORED_PARAMS[method]
    )
    # the generated family shares an eigenbasis, so the exact solver runs
    # on the frame the counting wrapper forwards
    eigen, _ = gen_quadratic_problem(
        3, 3, 2, 8, max_norm=6.0, min_eig=0.5, target_delta=1.0
    )
    for base in (hetero_pair(d=4, seed=23), eigen):
        _billed_run(base, cfg, 12)


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
    result = _billed_run(base, _exact(method, **_ANCHORED_PARAMS[method]), 3)
    assert all(r.local_steps == 0 for r in result.records)


def test_stochastic_steps_bill_fractional_cost():
    problem = hetero_pair(d=4, seed=29)  # m = 1 component per client
    wrapped, counter = counting_problem(problem)
    cfg = MethodConfig(method="fedred_gd", lam=0.5, eta=1.0, p=1.0, stochastic=True)
    result = run_experiment(
        wrapped, cfg, Budget(max_iterations=6), seed=0, metric_problem=problem
    )
    assert counter["units"] == result.total_grad_evals


# ------------------------------------------------------------ certificates


def _constants_for(problem, result, report, x0):
    ref = result.reference
    return RateConstants(
        delta_a=report.delta_a,
        delta_b=report.delta_b,
        l_smooth=problem.l_smooth,
        mu=problem.mu or 0.0,
        f0=problem.f(x0),
        f_star=ref.f_star,
        r0_sq=float(np.sum((x0 - ref.x_star) ** 2)),
    )


def test_convex_sublinear_certificate_holds():
    problem, report = gen_quadratic_problem(
        6, 4, 2, 15, max_norm=10.0, min_eig=0.0, target_delta=1.0
    )
    cfg = _exact("dane_plus", lam=2.0 * report.delta_a)
    x0 = np.zeros(15)
    result = run_experiment(
        problem, cfg, Budget(max_rounds=20), seed=0, x0=x0, record_every=1
    )
    constants = dataclasses.replace(
        _constants_for(problem, result, report, x0), mu=0.0
    )
    reports = check_rate_certificates(result, constants)
    assert [r.name for r in reports] == ["convex_sublinear"]
    assert reports[0].ok and reports[0].checked == 20
    assert reports[0].worst_ratio <= 1.0 + 1e-9


def test_strongly_convex_certificates_hold():
    problem, report = gen_quadratic_problem(
        4, 4, 2, 12, max_norm=10.0, min_eig=1.0, target_delta=1.0
    )
    cfg = _exact("dane_plus", lam=2.0 * report.delta_a, mu=problem.mu)
    x0 = np.ones(12)
    result = run_experiment(
        problem, cfg, Budget(max_rounds=25), seed=0, x0=x0, record_every=1
    )
    reports = check_rate_certificates(
        result, _constants_for(problem, result, report, x0)
    )
    names = [r.name for r in reports]
    assert names == ["convex_sublinear", "strongly_convex_linear"]
    assert all(r.ok for r in reports)


def test_randomized_stationarity_certificate_holds():
    problem, report = gen_quadratic_problem(
        5, 3, 2, 10, max_norm=10.0, min_eig=0.5, target_delta=2.0
    )
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
    constants = _constants_for(problem, result, report, x0)
    reports = check_rate_certificates(result, constants)
    assert [r.name for r in reports] == ["nonconvex_stationarity"]
    assert reports[0].ok and reports[0].checked > 0
    # the premise tuples feeding the e_r terms exist for every round
    assert all(
        rec.premise is not None for rec in result.records if rec.communicated
    )


def test_linear_certificate_skips_rounds_past_the_float_range():
    # mu / lam = 50: (1 + 50)^R leaves the float range after R = 180
    problem, report = gen_quadratic_problem(
        2, 4, 3, 12, max_norm=8.0, min_eig=0.5, target_delta=1.0
    )
    x0 = np.zeros(12)
    result = run_experiment(
        problem, _exact("dane_plus", lam=0.01), Budget(max_rounds=400), seed=0, x0=x0
    )
    reports = check_rate_certificates(
        result, _constants_for(problem, result, report, x0)
    )
    assert [(r.name, r.checked) for r in reports] == [
        ("convex_sublinear", 400),
        ("strongly_convex_linear", 180),
    ]
    assert all(r.ok for r in reports)


def test_fedred_below_p_one_claims_no_deterministic_bound():
    # at p < 1 fedred's rate holds in expectation; run seeds 1 and 2 of this
    # correct run land above the per-round bounds
    problem, report = gen_quadratic_problem(
        2, 4, 3, 12, max_norm=8.0, min_eig=0.5, target_delta=1.0
    )
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
            check_rate_certificates(
                result, _constants_for(problem, result, report, x0)
            )
    # p = 1 (with the coupling lam = p * eta) is deterministic: both bounds
    full = dataclasses.replace(cfg, p=1.0, eta=cfg.lam)
    result = run_experiment(
        problem, full, Budget(max_rounds=40), seed=1, x0=x0, record_every=1
    )
    reports = check_rate_certificates(
        result, _constants_for(problem, result, report, x0)
    )
    assert [r.name for r in reports] == ["convex_sublinear", "strongly_convex_linear"]
    assert all(r.ok for r in reports)


def test_certificate_error_paths():
    problem = hetero_pair(d=4, seed=2)
    gd_run = run_experiment(
        problem, MethodConfig(method="gd", eta=0.1), Budget(max_rounds=3), seed=0
    )
    with pytest.raises(ConfigurationError):
        check_rate_certificates(gd_run, RateConstants())
    dane_run = run_experiment(
        problem, _exact("dane_plus", lam=1.0), Budget(max_rounds=3), seed=0
    )
    with pytest.raises(ConfigurationError):
        check_rate_certificates(dane_run, RateConstants())  # r0_sq missing
    rand_run = run_experiment(
        problem,
        MethodConfig(method="dane_plus", lam=1.0, averaging="rand",
                     local=LocalSpec(solver="exact")),
        Budget(max_rounds=3),
        seed=0,
    )
    with pytest.raises(ConfigurationError):
        check_rate_certificates(rand_run, RateConstants())  # delta_b missing


def test_mean_gradient_norm_certificate():
    problem, report = gen_quadratic_problem(
        4, 3, 2, 8, max_norm=8.0, min_eig=0.5, target_delta=1.0
    )
    cfg = MethodConfig(
        method="fedred_gd",
        lam=report.delta_b,
        eta=6.0 * problem.l_smooth,
        p=min(1.0, report.delta_b / problem.l_smooth),
        averaging="rand",
    )
    ref = reference_optimum(problem)
    x0 = np.ones(8)
    constants = RateConstants(
        l_smooth=problem.l_smooth, f0=problem.f(x0), f_star=ref.f_star
    )
    measured, bound = mean_grad_norm_certificate(
        problem, cfg, constants, steps=200, seeds=range(8), x0=x0
    )
    assert measured <= bound
    with pytest.raises(ConfigurationError):
        mean_grad_norm_certificate(
            problem,
            MethodConfig(method="gd", eta=0.1),
            constants,
            steps=10,
            seeds=[0],
        )


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
