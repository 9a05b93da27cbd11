"""End-to-end acceptance suite.

One test per advertised behavior of the lab, each named
``test_criterion_NN_*`` so ``pytest -v`` prints one pass/fail line per
criterion.  These run real experiments at desk scale; the whole module
should stay under a couple of minutes.
"""
import json
import os
import time

import numpy as np
import pytest

from fedlab import (
    Budget,
    DistributedProblem,
    LocalSpec,
    MethodConfig,
    QuadraticClientSpec,
    QuadraticFamily,
    RandomStream,
    RateConstants,
    StoppingRule,
    SurrogateOracle,
    build_quadratic_problem,
    check_rate_certificates,
    delta_exact_quadratic,
    delta_sampled,
    gen_quadratic_problem,
    grad_evals_to_target,
    init_method_state,
    read_trace_csv,
    reference_optimum,
    rounds_to_target,
    run_experiment,
    solve_exact_quadratic,
    step_method,
    suggest_parameters,
)
from fedlab.cli import main
from fedlab.harness import trace_csv_text


# ----------------------------------------------------- criteria 1 and 2


@pytest.fixture(scope="module")
def headline_runs():
    """The strongly convex headline comparison shared by criteria 1/2."""
    started = time.perf_counter()
    problem = gen_quadratic_problem(
        0, 5, 10, 200, max_norm=100.0, min_eig=1.0, target_delta=5.0
    )
    report = delta_exact_quadratic(problem)[0]
    x0 = np.zeros(200)
    ref = reference_optimum(problem, x0)
    f0_gap = problem.f(x0) - ref.f_star
    target = 1e-6 * f0_gap
    budget = Budget(max_rounds=3000, max_iterations=300_000, target_gap=target)

    def auto(name):
        smooth = (
            problem.l_smooth_global if name == "gd" else problem.l_smooth
        )
        return suggest_parameters(
            name, report, "sc", l_smooth=smooth, mu=problem.mu
        )

    results = {
        name: run_experiment(
            problem, auto(name), budget, seed=1, x0=x0, reference=ref
        )
        for name in ("gd", "dane_plus", "fedred_gd")
    }
    rounds = {
        name: rounds_to_target(res.traces, target)
        for name, res in results.items()
    }
    evals = {
        name: grad_evals_to_target(res.traces, target)
        for name, res in results.items()
    }
    elapsed = time.perf_counter() - started
    return rounds, evals, elapsed


def test_criterion_01_communication_reduction(headline_runs):
    rounds, _, elapsed = headline_runs
    assert all(r is not None for r in rounds.values()), rounds
    assert rounds["gd"] >= 10 * rounds["dane_plus"], rounds
    assert rounds["gd"] >= 10 * rounds["fedred_gd"], rounds
    assert elapsed <= 60.0


def test_criterion_02_computation_parity(headline_runs):
    _, evals, _ = headline_runs
    assert evals["fedred_gd"] is not None and evals["gd"] is not None
    assert evals["fedred_gd"] <= 3.0 * evals["gd"], evals


# ------------------------------------------------------------ criterion 3


def test_criterion_03_convex_exact_rate_certificate():
    for seed in range(5):
        problem = gen_quadratic_problem(
            seed, 5, 3, 50, max_norm=10.0, min_eig=0.0, target_delta=2.0
        )
        report = delta_exact_quadratic(problem)[0]
        cfg = MethodConfig(
            method="dane_plus",
            lam=2.0 * report.delta_a,
            local=LocalSpec(solver="exact"),
        )
        x0 = np.zeros(50)
        result = run_experiment(
            problem, cfg, Budget(max_rounds=25), seed=seed, x0=x0,
            record_every=1,
        )
        constants = RateConstants(
            r0_sq=float(np.sum((x0 - result.reference.x_star) ** 2))
        )
        reports = check_rate_certificates(result, constants)
        assert [r.name for r in reports] == ["convex_sublinear"]
        assert reports[0].violations == 0, (seed, reports[0])


# ------------------------------------------------------------ criterion 4


def test_criterion_04_nonconvex_descent_and_rate():
    for seed in range(3):
        problem = gen_quadratic_problem(
            seed, 4, 2, 100,
            max_norm=10.0, min_eig=-2.0, target_delta=2.0, beta=400.0,
        )
        report = delta_exact_quadratic(problem)[0]
        cfg = MethodConfig(
            method="dane_plus",
            lam=2.0 * report.delta_b,
            a=2.0,
            averaging="rand",
            local=LocalSpec(
                solver="gd",
                rule=StoppingRule("fixed_steps", steps=100),
                check_decrease=True,
            ),
        )
        x0 = np.zeros(100)
        result = run_experiment(
            problem, cfg, Budget(max_rounds=200), seed=seed, x0=x0,
            reference=None, output_mode="last", record_every=1,
        )
        values = [t.f_value for t in result.traces]
        for prev, new in zip(values, values[1:]):
            assert new <= prev + 1e-9, seed
        constants = RateConstants(
            delta_b=report.delta_b,
            f0=problem.f(x0),
            f_star=result.f_best_seen,
        )
        reports = check_rate_certificates(result, constants)
        assert [r.name for r in reports] == ["nonconvex_stationarity"]
        assert reports[0].checked == 200
        assert reports[0].violations == 0, (seed, reports[0])


# ------------------------------------------------------------ criterion 5


def test_criterion_05_degeneration_is_bitwise():
    for seed in range(3):
        problem = gen_quadratic_problem(
            seed, 4, 2, 20, max_norm=10.0, min_eig=0.5, target_delta=1.0
        )
        budget = Budget(max_iterations=50)
        dane = MethodConfig(
            method="dane_plus", lam=1.5, local=LocalSpec(solver="exact")
        )
        degen = MethodConfig(
            method="fedred", lam=1.5, eta=0.0, p=1.0,
            local=LocalSpec(solver="exact"),
        )
        run_a = run_experiment(
            problem, dane, budget, seed=3, record_every=1
        )
        run_b = run_experiment(
            problem, degen, budget, seed=3, record_every=1
        )
        assert trace_csv_text(run_a.traces) == trace_csv_text(run_b.traces)
        assert run_a.total_grad_evals == run_b.total_grad_evals
        assert [r.grad_evals for r in run_a.records] == [
            r.grad_evals for r in run_b.records
        ]


# ------------------------------------------------------------ criterion 6


def test_criterion_06_closed_form_matches_numeric_argmin():
    rng = RandomStream(101).generator()
    zero_spec = QuadraticClientSpec(
        centers=np.zeros((1, 5)), spectra=np.zeros((1, 5))
    )
    zero_base = build_quadratic_problem(
        QuadraticFamily(specs=[zero_spec])
    ).clients[0]
    worst = 0.0
    for case in range(50):
        specs = [
            QuadraticClientSpec(
                centers=rng.standard_normal((2, 5)),
                spectra=rng.uniform(0.2, 4.0, size=(2, 5)),
            )
            for _ in range(3)
        ]
        problem = build_quadratic_problem(QuadraticFamily(specs=specs))
        eta, lam = rng.uniform(0.3, 3.0, size=2)
        cfg = MethodConfig(method="fedred_gd", lam=lam, eta=eta, p=1.0)
        x0 = rng.standard_normal(5)
        server, clients, _ = init_method_state(problem, cfg, x0)
        stream = RandomStream(case)
        server, clients, _ = step_method(problem, server, clients, cfg, stream)
        # second step: client iterates now differ from the reference
        ref = server.reference.copy()
        grads = [c.gradient(ref) for c in problem.clients]
        mean_grad = np.mean(np.stack(grads), axis=0)
        hs = [g - mean_grad for g in grads]
        xs = clients.x.copy()
        server, clients, _ = step_method(problem, server, clients, cfg, stream)
        for oracle, x_prev, h, x in zip(problem.clients, xs, hs, clients.x):
            shift = oracle.gradient(x_prev) - h
            surrogate = SurrogateOracle(
                zero_base,
                linear_shift=shift,
                prox_terms=((eta, x_prev), (lam, ref)),
            )
            argmin = solve_exact_quadratic(surrogate).solution
            worst = max(worst, float(np.linalg.norm(x - argmin)))
    assert worst <= 1e-10, worst


# ------------------------------------------------------------ criterion 7


def test_criterion_07_fixed_point_discrimination():
    rng = RandomStream(7).generator()
    specs = [
        QuadraticClientSpec(
            centers=rng.standard_normal((1, 4)),
            spectra=rng.uniform(1.0, 6.0, size=(1, 4)),
        )
        for _ in range(2)
    ]
    problem = build_quadratic_problem(QuadraticFamily(specs=specs))
    ref = reference_optimum(problem)
    exact = LocalSpec(solver="exact")
    stay = {
        "dane_plus": MethodConfig(method="dane_plus", lam=2.0, local=exact),
        "fedred": MethodConfig(
            method="fedred", lam=1.0, eta=2.0, p=1.0, local=exact
        ),
        "fedred_gd": MethodConfig(method="fedred_gd", lam=1.0, eta=2.0, p=1.0),
        "scaffold": MethodConfig(method="scaffold", eta=0.05, local_steps=5),
        "scaffnew": MethodConfig(method="scaffnew", eta=0.05, p=1.0),
    }
    for name, cfg in stay.items():
        server, clients, _ = init_method_state(problem, cfg, ref.x_star)
        server, clients, _ = step_method(
            problem, server, clients, cfg, RandomStream(0)
        )
        moved = float(np.linalg.norm(server.reference - ref.x_star))
        assert moved <= 1e-10, (name, moved)
    prox = MethodConfig(method="fedprox", lam=2.0, local=exact)
    server, clients, _ = init_method_state(problem, prox, ref.x_star)
    server, clients, _ = step_method(problem, server, clients, prox, RandomStream(0))
    assert float(np.linalg.norm(server.reference - ref.x_star)) >= 1e-6


# ------------------------------------------------------------ criterion 8


def test_criterion_08_dissimilarity_fixtures():
    mats = [
        np.diag([3.0, 2.0]),
        np.diag([-1.0, 1.0]),
        np.diag([-2.0, -3.0]),
    ]
    specs = [
        QuadraticClientSpec(centers=np.zeros((1, 2)), matrices=m[None])
        for m in mats
    ]
    problem = build_quadratic_problem(QuadraticFamily(specs=specs))
    exact, paper = delta_exact_quadratic(problem)
    assert exact.delta_a == pytest.approx(np.sqrt(14.0 / 3.0), abs=1e-12)
    assert paper.delta_a == pytest.approx(np.sqrt(19.0 / 3.0), abs=1e-12)
    assert exact.delta_b == pytest.approx(3.0, abs=1e-12)
    assert paper.delta_b == pytest.approx(3.0, abs=1e-12)
    sampled = delta_sampled(problem, 64, RandomStream(5))
    assert sampled.delta_a <= exact.delta_a + 1e-9
    assert sampled.delta_b <= exact.delta_b + 1e-9


# ------------------------------------------------------------ criterion 9


def test_criterion_09_communication_probability_calibration():
    rng = RandomStream(13).generator()
    specs = [
        QuadraticClientSpec(
            centers=rng.standard_normal((1, 4)),
            spectra=rng.uniform(1.0, 4.0, size=(1, 4)),
        )
        for _ in range(2)
    ]
    problem = build_quadratic_problem(QuadraticFamily(specs=specs))
    p = 0.25
    cfg = MethodConfig(method="fedred_gd", lam=p * 4.0, eta=4.0, p=p)
    steps, seeds = 2000, 20
    communicated = 0
    for seed in range(seeds):
        stream = RandomStream(seed)
        server, clients, _ = init_method_state(problem, cfg, np.zeros(4))
        for _ in range(steps):
            server, clients, rec = step_method(
                problem, server, clients, cfg, stream
            )
            communicated += int(rec.communicated)
    n = steps * seeds
    fraction = communicated / n
    band = 3.0 * np.sqrt(p * (1.0 - p) / n)
    assert abs(fraction - p) <= band, (fraction, band)


# ----------------------------------------------------------- criterion 10


def test_criterion_10_inexactness_schedule_premise():
    problem = gen_quadratic_problem(
        7, 4, 3, 30, max_norm=10.0, min_eig=0.0, target_delta=1.5
    )
    report = delta_exact_quadratic(problem)[0]
    lam = 2.0 * report.delta_a
    cfg = MethodConfig(
        method="dane_plus",
        lam=lam,
        mu=0.0,
        local=LocalSpec(solver="gd", rule=StoppingRule("scheduled")),
    )
    x0 = np.zeros(30)
    result = run_experiment(
        problem, cfg, Budget(max_rounds=25), seed=2, x0=x0, record_every=1
    )
    for rec in result.records:
        assert rec.e_r is not None and rec.premise is not None
        for grad_norm, dist in rec.premise:
            assert grad_norm <= rec.e_r * dist * (1.0 + 1e-12) + 1e-15, rec.rounds
    constants = RateConstants(
        r0_sq=float(np.sum((x0 - result.reference.x_star) ** 2))
    )
    reports = check_rate_certificates(result, constants)
    assert reports[0].name == "convex_sublinear"
    assert reports[0].violations == 0, reports[0]


# ----------------------------------------------------------- criterion 11


def test_criterion_11_logistic_pipeline(tmp_path, capsys):
    started = time.perf_counter()
    out_dir = tmp_path / "logistic"
    cfg_path = os.path.join(
        os.path.dirname(__file__), "..", "configs", "logistic_small.json"
    )
    code = main([
        "run",
        "--config", cfg_path,
        "--out", str(out_dir),
    ])
    capsys.readouterr()
    assert code == 0
    rounds = {}
    reached = {}
    for row in (out_dir / "summary.csv").read_text().splitlines()[1:]:
        fields = row.split(",")
        rounds[fields[0]] = int(fields[2]) if fields[2] else None
        reached[fields[0]] = fields[4]
    assert set(rounds) == {"gd", "dane_plus", "fedred_gd"}
    assert all(v == "true" for v in reached.values()), reached
    assert rounds["dane_plus"] < rounds["gd"], rounds
    assert rounds["fedred_gd"] < rounds["gd"], rounds
    assert time.perf_counter() - started <= 120.0


# ----------------------------------------------------------- criterion 12


def test_criterion_12_worker_and_seed_determinism(tmp_path, capsys):
    cfg = {
        "problem": {
            "kind": "quadratic",
            "seed": 4,
            "n_clients": 3,
            "m_components": 2,
            "dim": 6,
            "max_norm": 10.0,
            "min_eig": 1.0,
            "target_delta": 1.0,
        },
        "methods": [
            {"name": "dane_plus", "auto": "sc"},
            {"name": "fedred", "auto": "sc"},
            {"name": "fedred_gd", "auto": "sc"},
        ],
        "budget": {"max_rounds": 40, "max_iterations": 2000},
        "repeats": 2,
        "record_every": 10,
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(cfg))

    def run(tag):
        out = tmp_path / tag
        code = main([
            "run", "--config", str(cfg_path), "--out", str(out), "--seed", "7",
        ])
        assert code == 0
        return {
            p.name: p.read_bytes()
            for p in out.iterdir()
            if p.suffix == ".csv"
        }

    first = run("a")
    again = run("b")
    capsys.readouterr()
    assert first.keys() == again.keys()
    assert len([k for k in first if k != "summary.csv"]) == 6
    for name in first:
        assert first[name] == again[name], name
    for name in first:
        if name != "summary.csv":
            assert "_seed7" in name or "_seed8" in name, name
