"""Federated methods: variates, rounds/steps, fixed points, parameter rules."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlab import (
    ConfigurationError,
    DissimilarityReport,
    DistributedProblem,
    LocalSpec,
    MethodConfig,
    RandomStream,
    StoppingRule,
    SurrogateOracle,
    build_quadratic_problem,
    control_variate_grad_diff,
    control_variate_recursive_update,
    delta_exact_quadratic,
    gen_quadratic_problem,
    init_method_state,
    reference_optimum,
    solve_exact_quadratic,
    step_method,
    suggest_parameters,
)
import fedlab.methods
from fedlab.methods import _LBL_THETA

from conftest import hetero_pair, quad_1d, random_family, two_client_line


def _exact_cfg(method, **kw):
    return MethodConfig(method=method, local=LocalSpec(solver="exact"), **kw)


def _run(problem, cfg, seed, steps):
    stream = RandomStream(seed)
    server, clients, init_evals = init_method_state(
        problem, cfg, np.zeros(problem.dim)
    )
    records = []
    for _ in range(steps):
        server, clients, rec = step_method(problem, server, clients, cfg, stream)
        records.append(rec)
    return server, clients, records, init_evals


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ConfigurationError):
        MethodConfig(method="magic")
    with pytest.raises(ConfigurationError):
        MethodConfig(method="fedred", lam=-1.0)
    with pytest.raises(ConfigurationError):
        MethodConfig(method="fedred", lam=1.0, eta=1.0, p=0.0)
    with pytest.raises(ConfigurationError):
        MethodConfig(method="fedred", lam=1.0, eta=1.0, p=1.5)
    with pytest.raises(ConfigurationError):
        MethodConfig(method="dane_plus", lam=1.0, a=1.0)
    with pytest.raises(ConfigurationError):
        MethodConfig(method="dane_plus", lam=1.0, averaging="median")
    with pytest.raises(ConfigurationError):
        MethodConfig(method="dane_plus", lam=1.0, control_variate="fancy")
    with pytest.raises(ConfigurationError):
        MethodConfig(method="fedred", lam=1.0, control_variate="recursive")
    with pytest.raises(ConfigurationError):
        MethodConfig(method="gd")  # needs a positive step
    with pytest.raises(ConfigurationError):
        MethodConfig(method="scaffnew", eta=0.1, averaging="rand")
    with pytest.raises(ConfigurationError):
        MethodConfig(method="dane_plus", lam=1.0, local_steps=0)
    # the schedule's tolerances scale with lam
    scheduled = LocalSpec(solver="gd", rule=StoppingRule("scheduled"))
    with pytest.raises(ConfigurationError, match="scheduled local rule needs lam"):
        MethodConfig(method="dane_plus", local=scheduled)
    # any field the method would ignore is rejected
    gd_local = LocalSpec(solver="gd", rule=StoppingRule("fixed_steps", steps=3))
    for kwargs in (
        dict(method="dane_plus", lam=1.0, p=0.5),
        dict(method="fedprox", lam=1.0, p=0.5),
        dict(method="scaffold", eta=0.1, p=0.5),
        dict(method="gd", eta=0.1, p=0.5),
        dict(method="fedprox", lam=1.0, averaging="rand"),
        dict(method="scaffold", eta=0.1, averaging="rand"),
        dict(method="gd", eta=0.1, averaging="rand"),
        dict(method="dane_plus", lam=1.0, eta=1.0),
        dict(method="fedprox", lam=1.0, eta=1.0),
        dict(method="fedred_gd", lam=1.0, eta=1.0, local=gd_local),
        dict(method="gd", eta=0.1, local=gd_local),
        dict(method="scaffold", eta=0.1, local=LocalSpec(solver="fgd")),
        dict(method="scaffnew", eta=0.1, local=gd_local),
        dict(method="gd", eta=0.1, local_steps=2),
        dict(method="scaffnew", eta=0.1, local_steps=3),
        dict(method="fedred", lam=1.0, eta=1.0, local_steps=2),
        dict(method="dane_plus", lam=1.0, local_steps=2),
        dict(method="dane_plus", lam=1.0, stochastic=True),
        dict(method="scaffnew", eta=0.1, stochastic=True),
        dict(method="gd", eta=0.1, stochastic=True),
        dict(method="dane_plus", lam=1.0, cv_strength=0.5),
        dict(method="fedred", lam=1.0, eta=1.0, cv_strength=0.5),
        # only a scheduled local rule reads mu
        dict(method="gd", eta=0.1, mu=1.0),
        dict(method="scaffnew", eta=0.1, p=0.5, mu=1.0),
        dict(method="fedred", lam=1.0, eta=1.0, mu=0.5),
        dict(method="fedred_gd", lam=1.0, eta=1.0, mu=0.5),
        dict(method="dane_plus", lam=1.0, mu=1.0),
        dict(method="dane_plus", lam=1.0, mu=1.0, local=gd_local),
    ):
        with pytest.raises(ConfigurationError, match="would ignore"):
            MethodConfig(**kwargs)
    # the default local spec, spelled out, is not an ignored field
    MethodConfig(method="gd", eta=0.1, local=LocalSpec(solver="exact"))
    MethodConfig(method="scaffold", eta=0.1, local_steps=4)
    MethodConfig(method="fedred_gd", lam=1.0, eta=1.0, stochastic=True)
    MethodConfig(method="dane_plus", lam=1.0, mu=1.0, local=scheduled)
    MethodConfig(method="fedred", lam=1.0, eta=1.0, mu=1.0, local=scheduled)
    MethodConfig(
        method="dane_plus", lam=1.0, control_variate="recursive", cv_strength=0.5
    )


def test_doubly_regularized_coupling_constraint():
    with pytest.raises(ConfigurationError):
        MethodConfig(method="fedred", lam=2.0, eta=1.0)
    MethodConfig(method="fedred", lam=2.0, eta=2.0)
    # eta = 0 is the legal degeneration to the anchored-prox method
    MethodConfig(method="fedred", lam=2.0, eta=0.0)
    with pytest.raises(ConfigurationError):
        MethodConfig(method="fedred_gd", lam=0.0, eta=0.0)


# ------------------------------------------------------- control variates


def test_grad_diff_hand_fixture():
    # f_1 = x^2/2, f_2 = x^2 at x=1: gradients 1 and 2, mean 1.5
    from fedlab import QuadraticClientSpec, QuadraticFamily, build_quadratic_problem

    specs = [
        QuadraticClientSpec(centers=np.array([[0.0]]), spectra=np.array([[1.0]])),
        QuadraticClientSpec(centers=np.array([[0.0]]), spectra=np.array([[2.0]])),
    ]
    problem = build_quadratic_problem(QuadraticFamily(specs=specs))
    h = control_variate_grad_diff(problem, np.array([1.0]))
    assert h[0][0] == pytest.approx(-0.5, abs=1e-14)
    assert h[1][0] == pytest.approx(0.5, abs=1e-14)


def test_grad_diff_mean_is_zero():
    problem = hetero_pair(d=6, seed=3)
    x = RandomStream(9).generator().standard_normal(6)
    h = control_variate_grad_diff(problem, x)
    assert np.linalg.norm(np.mean(np.stack(h), axis=0)) <= 1e-12


def test_grad_diff_vanishes_for_identical_clients():
    problem = two_client_line()
    twin = DistributedProblem(
        clients=[problem.clients[0], problem.clients[0]], dim=1
    )
    h = control_variate_grad_diff(twin, np.array([4.0]))
    assert all(np.linalg.norm(v) == 0.0 for v in h)


def test_recursive_update_formula():
    h = np.array([[1.0, -1.0], [0.5, 2.0]])
    unchanged = control_variate_recursive_update(h, np.ones(2), np.zeros((2, 2)), m=0.0)
    assert np.array_equal(unchanged, h)
    x = np.array([[1.0, 1.0], [0.0, 3.0]])
    moved = control_variate_recursive_update(h, np.array([2.0, 0.0]), x, m=3.0)
    expected = [3.0 * (np.array([2.0, 0.0]) - x[i]) + h[i] for i in range(2)]
    assert np.array_equal(moved, np.stack(expected))


def test_recursive_round_preserves_zero_mean():
    problem = hetero_pair(d=5, seed=8)
    cfg = _exact_cfg(
        "dane_plus", lam=2.0, control_variate="recursive", cv_strength=2.0
    )
    _, clients, _, _ = _run(problem, cfg, seed=0, steps=3)
    assert np.linalg.norm(np.mean(clients.h, axis=0)) <= 1e-12


def test_recursive_variate_lyapunov_contracts():
    # matched coupling lam = strength = sqrt(mu * L): the weighted distance
    # Phi = ||x - x*||^2 + c * avg ||h_i - grad f_i(x*)||^2 contracts with
    # factor 1 - 2 sqrt(mu) / (sqrt(L) + mu/sqrt(L) + 2 sqrt(mu))
    from fedlab import QuadraticClientSpec, QuadraticFamily, build_quadratic_problem

    mu, big_l = 1.0, 9.0
    rng = RandomStream(17).generator()
    specs = [
        QuadraticClientSpec(
            centers=rng.standard_normal((1, 3)),
            spectra=np.array([[mu, 4.0 + i, big_l]]),
        )
        for i in range(2)
    ]
    problem = build_quadratic_problem(QuadraticFamily(specs=specs))
    lam = float(np.sqrt(mu * big_l))
    cfg = _exact_cfg(
        "dane_plus", lam=lam, control_variate="recursive", cv_strength=lam
    )
    ref = reference_optimum(problem)
    grads_star = [c.gradient(ref.x_star) for c in problem.clients]
    weight = (mu + big_l) / (mu * big_l * (mu + big_l) + 2 * mu * big_l * lam)

    stream = RandomStream(0)
    server, clients, _ = init_method_state(problem, cfg, np.zeros(3))

    def lyapunov():
        h_term = np.mean(
            [np.sum((h - g) ** 2) for h, g in zip(clients.h, grads_star)]
        )
        return float(np.sum((server.reference - ref.x_star) ** 2)) + weight * h_term

    factor = 1.0 - 2.0 * np.sqrt(mu) / (
        np.sqrt(big_l) + mu / np.sqrt(big_l) + 2.0 * np.sqrt(mu)
    )
    phi = lyapunov()
    phi0 = phi
    for r in range(1, 26):
        server, clients, _ = step_method(problem, server, clients, cfg, stream)
        new_phi = lyapunov()
        assert new_phi <= phi * (1.0 + 1e-9) + 1e-15
        assert new_phi <= factor**r * phi0 * (1.0 + 1e-6) + 1e-15
        phi = new_phi


# ------------------------------------------------------- anchored rounds


def test_anchored_round_fixed_point_at_optimum():
    problem = hetero_pair()
    ref = reference_optimum(problem)
    cfg = _exact_cfg("dane_plus", lam=1.0)
    server, clients, _ = init_method_state(problem, cfg, ref.x_star)
    stream = RandomStream(0)
    for _ in range(3):
        server, clients, rec = step_method(problem, server, clients, cfg, stream)
        assert rec.communicated
    assert np.linalg.norm(server.reference - ref.x_star) <= 1e-10


def test_single_client_round_is_a_proximal_step():
    problem = quad_1d(center=3.0, curvature=2.0)
    lam = 0.7
    cfg = _exact_cfg("dane_plus", lam=lam)
    server, clients, _ = init_method_state(problem, cfg, np.zeros(1))
    server, _, _ = step_method(problem, server, clients, cfg, RandomStream(0))
    direct = solve_exact_quadratic(
        SurrogateOracle(problem.clients[0], prox_terms=((lam, np.zeros(1)),))
    )
    assert np.allclose(server.reference, direct.solution, atol=1e-12)


def test_anchored_rounds_decrease_with_margin():
    problem = gen_quadratic_problem(
        5, 4, 3, 10, max_norm=20.0, min_eig=1.0, target_delta=2.0
    )
    report = delta_exact_quadratic(problem)[0]
    lam = 2.0 * report.delta_b
    cfg = _exact_cfg("dane_plus", lam=lam)
    server, clients, _ = init_method_state(problem, cfg, np.zeros(10))
    stream = RandomStream(0)
    prev_x = server.reference.copy()
    prev_f = problem.f(prev_x)
    mu = problem.mu
    for _ in range(10):
        server, clients, _ = step_method(problem, server, clients, cfg, stream)
        f_now = problem.f(server.reference)
        move_sq = float(np.sum((server.reference - prev_x) ** 2))
        assert f_now - prev_f <= -(mu + lam) / 2.0 * move_sq + 1e-9
        prev_x, prev_f = server.reference.copy(), f_now


def test_rand_averaged_rounds_decrease_on_bumpy_objective():
    problem = gen_quadratic_problem(
        6, 3, 2, 8, max_norm=10.0, min_eig=-1.0, target_delta=1.0, beta=40.0
    )
    report = delta_exact_quadratic(problem)[0]
    cfg = MethodConfig(
        method="dane_plus",
        lam=2.0 * report.delta_b,
        averaging="rand",
        local=LocalSpec(
            solver="gd",
            rule=StoppingRule("abs_grad", tol=1e-9),
            check_decrease=True,
        ),
    )
    server, clients, _ = init_method_state(problem, cfg, np.zeros(8))
    stream = RandomStream(1)
    prev = problem.f(server.reference)
    for _ in range(15):
        server, clients, _ = step_method(problem, server, clients, cfg, stream)
        now = problem.f(server.reference)
        assert now <= prev + 1e-9
        prev = now


# -------------------------------------------- doubly regularized family


def test_degeneration_matches_anchored_rounds_bitwise():
    for seed in (0, 1):
        problem = hetero_pair(d=5, seed=40 + seed)
        dane = _exact_cfg("dane_plus", lam=1.5)
        degenerate = _exact_cfg("fedred", lam=1.5, eta=0.0, p=1.0)
        s_a, c_a, _, _ = _run(problem, dane, seed=seed, steps=20)
        s_b, c_b, _, _ = _run(problem, degenerate, seed=seed, steps=20)
        assert np.array_equal(s_a.reference, s_b.reference)
        assert np.array_equal(c_a.x, c_b.x)
        assert np.array_equal(c_a.h, c_b.h)


_families = st.builds(
    lambda seed, n, m, d, dense: build_quadratic_problem(
        random_family(seed, n=n, m=m, d=d, dense=dense)
    ),
    seed=st.integers(0, 2**16),
    n=st.integers(2, 4),
    m=st.integers(1, 2),
    d=st.integers(1, 5),
    dense=st.booleans(),
)


@settings(derandomize=True, deadline=None)
@given(
    problem=_families,
    lam=st.floats(0.1, 10.0),
    seed=st.integers(0, 100),
)
def test_degeneration_is_bitwise_on_random_families(problem, lam, seed):
    dane = _exact_cfg("dane_plus", lam=lam)
    degenerate = _exact_cfg("fedred", lam=lam, eta=0.0, p=1.0)
    s_a, c_a, r_a, _ = _run(problem, dane, seed=seed, steps=4)
    s_b, c_b, r_b, _ = _run(problem, degenerate, seed=seed, steps=4)
    assert np.array_equal(s_a.reference, s_b.reference)
    assert np.array_equal(c_a.x, c_b.x)
    assert np.array_equal(c_a.h, c_b.h)
    assert [r.grad_evals for r in r_a] == [r.grad_evals for r in r_b]


@settings(derandomize=True, deadline=None)
@given(problem=_families, seed=st.integers(0, 100))
def test_grad_diff_variates_average_to_zero(problem, seed):
    x = 3.0 * RandomStream(seed).generator().standard_normal(problem.dim)
    grads = problem.client_gradients(x)
    h = control_variate_grad_diff(problem, x)
    scale = 1.0 + max(float(np.linalg.norm(g)) for g in grads)
    assert np.linalg.norm(np.mean(np.stack(h), axis=0)) <= 1e-14 * scale


def test_skipped_communication_keeps_server_state():
    problem = hetero_pair(d=4, seed=2)
    cfg = _exact_cfg("fedred", lam=0.5, eta=2.0, p=0.3)
    stream = RandomStream(3)
    server, clients, _ = init_method_state(problem, cfg, np.zeros(4))
    skipped = communicated = 0
    for _ in range(40):
        before_ref = server.reference.copy()
        before_events = server.comm_events
        server, clients, rec = step_method(problem, server, clients, cfg, stream)
        if rec.communicated:
            communicated += 1
        else:
            skipped += 1
            assert np.array_equal(server.reference, before_ref)
            assert server.comm_events == before_events
    assert skipped > 0 and communicated > 0
    assert server.comm_events == communicated


def test_rand_pick_is_drawn_only_on_communicating_steps():
    problem = build_quadratic_problem(random_family(4, n=5))
    cfg = MethodConfig(method="fedred_gd", lam=1.0, eta=4.0, p=0.3, averaging="rand")
    stream = RandomStream(9)
    _, _, records, _ = _run(problem, cfg, 9, 60)
    silent = [rec for rec in records if not rec.communicated]
    spoken = [rec for rec in records if rec.communicated]
    assert silent and spoken
    assert all(rec.pick_index is None for rec in silent)
    for rec in spoken:
        step_stream = stream.fork(rec.iteration - 1)
        expected = int(step_stream.fork(1).generator().integers(problem.n))
        assert rec.pick_index == expected


def test_linearized_step_closed_form_cases():
    # one client, constant unit gradient: x+ = (eta x + lam ref - g)/(eta+lam)
    from conftest import FixedGradientOracle

    problem = DistributedProblem(
        clients=[FixedGradientOracle(np.array([1.0]))], dim=1
    )
    cfg = MethodConfig(method="fedred_gd", lam=1.0, eta=1.0, p=1.0)
    server, clients, _ = init_method_state(problem, cfg, np.array([2.0]))
    server.reference = np.array([0.0])
    server, clients, rec = step_method(
        problem, server, clients, cfg, RandomStream(0)
    )
    assert clients.x[0, 0] == pytest.approx(0.5, abs=1e-12)

    zero = DistributedProblem(clients=[FixedGradientOracle(np.zeros(1))], dim=1)
    server, clients, _ = init_method_state(zero, cfg, np.array([2.0]))
    server.reference = np.array([0.0])
    server, clients, _ = step_method(zero, server, clients, cfg, RandomStream(0))
    assert clients.x[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_linearized_step_equals_surrogate_argmin():
    from fedlab import QuadraticClientSpec, QuadraticFamily, build_quadratic_problem

    rng = RandomStream(23).generator()
    for case in range(10):
        spec = QuadraticClientSpec(
            centers=rng.standard_normal((2, 4)),
            spectra=rng.uniform(0.5, 3.0, size=(2, 4)),
        )
        problem = build_quadratic_problem(QuadraticFamily(specs=[spec]))
        eta, lam = rng.uniform(0.5, 3.0, size=2)
        cfg = MethodConfig(method="fedred_gd", lam=lam, eta=eta, p=1.0)
        x0 = rng.standard_normal(4)
        server, clients, _ = init_method_state(problem, cfg, x0)
        ref = rng.standard_normal(4)
        server.reference = ref.copy()
        g = problem.clients[0].gradient(x0)  # single client: variate is zero
        server, clients, _ = step_method(
            problem, server, clients, cfg, RandomStream(case)
        )
        zero_base = build_quadratic_problem(
            QuadraticFamily(
                specs=[
                    QuadraticClientSpec(
                        centers=np.zeros((1, 4)), spectra=np.zeros((1, 4))
                    )
                ]
            )
        ).clients[0]
        surrogate = SurrogateOracle(
            zero_base, linear_shift=g, prox_terms=((eta, x0), (lam, ref))
        )
        argmin = solve_exact_quadratic(surrogate).solution
        assert np.linalg.norm(clients.x[0] - argmin) <= 1e-10


def test_linearized_fixed_point_at_optimum():
    problem = hetero_pair()
    ref = reference_optimum(problem)
    cfg = MethodConfig(method="fedred_gd", lam=1.0, eta=2.0, p=1.0)
    server, clients, _ = init_method_state(problem, cfg, ref.x_star)
    stream = RandomStream(4)
    for _ in range(4):
        server, clients, _ = step_method(problem, server, clients, cfg, stream)
    assert np.linalg.norm(server.reference - ref.x_star) <= 1e-10


# ------------------------------------------------------------- baselines


def test_plain_descent_round():
    problem = quad_1d(center=0.0)
    cfg = MethodConfig(method="gd", eta=1.0)
    server, clients, _ = init_method_state(problem, cfg, np.array([1.0]))
    server, _, rec = step_method(problem, server, clients, cfg, RandomStream(0))
    assert server.reference[0] == 0.0
    assert rec.grad_evals == 1.0 and rec.communicated


def test_corrected_local_steps_reduce_to_descent_when_single_step():
    problem = hetero_pair(d=3, seed=5)
    gamma = 0.05
    gd = MethodConfig(method="gd", eta=gamma)
    scaffold = MethodConfig(method="scaffold", eta=gamma, local_steps=1)
    s_a, _, _, _ = _run(problem, gd, seed=0, steps=6)
    s_b, _, _, _ = _run(problem, scaffold, seed=0, steps=6)
    assert np.allclose(s_a.reference, s_b.reference, atol=1e-13)


def test_corrected_local_steps_fixed_point():
    problem = hetero_pair()
    ref = reference_optimum(problem)
    cfg = MethodConfig(method="scaffold", eta=0.05, local_steps=7)
    server, clients, _ = init_method_state(problem, cfg, ref.x_star)
    server, clients, _ = step_method(problem, server, clients, cfg, RandomStream(0))
    assert np.linalg.norm(server.reference - ref.x_star) <= 1e-10


def test_skipping_baseline_keeps_variates_zero_mean():
    problem = hetero_pair(d=4, seed=6)
    cfg = MethodConfig(method="scaffnew", eta=0.08, p=0.4)
    stream = RandomStream(2)
    server, clients, _ = init_method_state(problem, cfg, np.zeros(4))
    for _ in range(30):
        server, clients, _ = step_method(problem, server, clients, cfg, stream)
        assert np.linalg.norm(np.mean(clients.h, axis=0)) <= 1e-10


def test_skipping_baseline_matches_hand_written_steps():
    # x_hat_i = x_i - gamma (grad f_i(x_i) - h_i); on a Bernoulli(p) coin
    # h_i += (p/gamma)(mean - x_hat_i) and every x_i resets to the mean
    problem = hetero_pair(d=3, seed=8)
    gamma, p = 0.1, 0.5
    cfg = MethodConfig(method="scaffnew", eta=gamma, p=p)
    stream = RandomStream(3)
    server, clients, _ = init_method_state(problem, cfg, np.ones(3))
    xs, hs = list(clients.x.copy()), list(clients.h.copy())
    coins = []
    for k in range(40):
        hats = [
            x - gamma * (o.gradient(x) - h)
            for o, x, h in zip(problem.clients, xs, hs)
        ]
        coin = stream.fork(k).fork(_LBL_THETA).generator().random() < p
        coins.append(coin)
        if coin:
            mean = np.mean(np.stack(hats), axis=0)
            hs = [h + (p / gamma) * (mean - hat) for h, hat in zip(hs, hats)]
            xs = [mean.copy() for _ in hats]
        else:
            xs = hats
        server, clients, rec = step_method(problem, server, clients, cfg, stream)
        assert rec.communicated == coin and rec.rounds == sum(coins)
        assert rec.grad_evals == 2.0 and rec.local_steps == 1
        assert np.array_equal(clients.x, np.stack(xs))
        assert np.array_equal(clients.h, np.stack(hs))
        if coin:
            assert np.array_equal(server.reference, xs[0])
    assert 0 < sum(coins) < 40


def test_skipping_baseline_contracts_at_tuned_rate():
    problem = gen_quadratic_problem(
        12, 3, 2, 6, max_norm=10.0, min_eig=1.0, target_delta=1.0
    )
    ref = reference_optimum(problem)
    big_l, mu = problem.l_smooth, problem.mu
    cfg = MethodConfig(
        method="scaffnew", eta=1.0 / big_l, p=float(np.sqrt(mu / big_l))
    )
    eps = 1e-8
    horizon = int(20.0 * np.sqrt(big_l / mu) * np.log(1.0 / eps))
    server, clients, _ = init_method_state(problem, cfg, np.zeros(6))
    stream = RandomStream(5)
    reached = False
    x0_gap = float(np.sum((server.reference - ref.x_star) ** 2))
    for _ in range(horizon):
        server, clients, _ = step_method(problem, server, clients, cfg, stream)
        mean_x = np.mean(clients.x, axis=0)
        if float(np.sum((mean_x - ref.x_star) ** 2)) <= eps * x0_gap:
            reached = True
            break
    assert reached


def test_uncorrected_prox_baseline_drifts_from_optimum():
    problem = hetero_pair()
    ref = reference_optimum(problem)
    lam = 2.0
    cfg = _exact_cfg("fedprox", lam=lam)
    server, clients, _ = init_method_state(problem, cfg, ref.x_star)
    server, _, _ = step_method(problem, server, clients, cfg, RandomStream(0))
    moved = np.linalg.norm(server.reference - ref.x_star)
    drift_scale = np.linalg.norm(problem.clients[0].gradient(ref.x_star)) / lam
    assert moved > 1e-6 * drift_scale
    assert moved >= 1e-6


def test_uncorrected_prox_equals_anchored_for_identical_clients():
    base = quad_1d(center=2.0).clients[0]
    problem = DistributedProblem(clients=[base, base], dim=1)
    prox = _exact_cfg("fedprox", lam=1.0)
    dane = _exact_cfg("dane_plus", lam=1.0)
    s_a, _, _, _ = _run(problem, prox, seed=0, steps=5)
    s_b, _, _, _ = _run(problem, dane, seed=0, steps=5)
    assert np.allclose(s_a.reference, s_b.reference, atol=1e-12)


def test_huge_proximal_weight_freezes_the_baseline():
    problem = hetero_pair()
    lam = 1e6 * problem.l_smooth
    cfg = _exact_cfg("fedprox", lam=lam)
    x0 = np.ones(problem.dim)
    server, clients, _ = init_method_state(problem, cfg, x0)
    server, _, _ = step_method(problem, server, clients, cfg, RandomStream(0))
    assert np.linalg.norm(server.reference - x0) <= 1e-3


_EVERY_METHOD = {
    "dane_plus": _exact_cfg("dane_plus", lam=1.0),
    "fedred": _exact_cfg("fedred", lam=0.5, eta=2.0, p=0.5),
    "fedred_gd": MethodConfig(
        method="fedred_gd", lam=0.3, eta=1.0, p=0.5, averaging="rand"
    ),
    "gd": MethodConfig(method="gd", eta=0.05),
    "scaffold": MethodConfig(method="scaffold", eta=0.05, local_steps=3),
    "scaffnew": MethodConfig(method="scaffnew", eta=0.08, p=0.4),
    "fedprox": _exact_cfg("fedprox", lam=1.0),
}


def test_every_method_is_covered():
    assert sorted(_EVERY_METHOD) == sorted(fedlab.methods.METHODS)


@pytest.mark.parametrize("method", sorted(_EVERY_METHOD))
def test_client_state_is_one_block_per_field(method):
    problem = hetero_pair(d=5, seed=12)
    cfg = _EVERY_METHOD[method]
    x0 = np.linspace(-1.0, 1.0, problem.dim)
    server, clients, _ = init_method_state(problem, cfg, x0)
    stream = RandomStream(4)
    for k in range(6):
        if k:
            server, clients, _ = step_method(problem, server, clients, cfg, stream)
        for block in (clients.x, clients.h):
            assert type(block) is np.ndarray and block.dtype == np.float64
            assert block.shape == (problem.n, problem.dim)
            assert not np.shares_memory(block, server.reference)
        grads = problem.client_gradients(server.reference)
        scale = 1.0 + float(np.max(np.abs(grads)))
        assert np.max(np.abs(np.mean(clients.h, axis=0))) <= 1e-14 * scale
    # grad-diff variates refreshed now are exactly those at the reference
    fresh = fedlab.methods.control_variate_grad_diff(problem, server.reference)
    assert np.max(np.abs(np.mean(fresh, axis=0))) <= 1e-14 * scale
    if method in ("dane_plus", "fedred", "fedred_gd", "scaffold"):
        fedlab.methods._ensure_fresh_variates(problem, server, clients)
        assert np.array_equal(clients.h, fresh)
        assert server.variates_at == server.comm_events


# ----------------------------------------------------------- accounting


def test_initial_state_costs():
    problem = hetero_pair()
    _, clients, evals = init_method_state(
        problem, _exact_cfg("dane_plus", lam=1.0), np.zeros(problem.dim)
    )
    assert evals == 0.0
    assert np.all(clients.h == 0.0)
    _, clients, evals = init_method_state(
        problem, MethodConfig(method="scaffnew", eta=0.1), np.zeros(problem.dim)
    )
    assert evals == float(problem.n)
    assert any(np.linalg.norm(h) > 0 for h in clients.h)
    with pytest.raises(ConfigurationError):
        init_method_state(problem, _exact_cfg("dane_plus", lam=1.0), np.zeros(9))


def test_communication_event_accounting_is_exact():
    problem = hetero_pair(d=3, seed=7)
    cfg = MethodConfig(method="fedred_gd", lam=0.3, eta=1.0, p=0.25)
    server, _, records, _ = _run(problem, cfg, seed=11, steps=200)
    assert server.comm_events == sum(1 for r in records if r.communicated)
    assert server.iteration == 200


# ------------------------------------------------------ parameter rules


def _report(da, db):
    return DissimilarityReport(delta_a=da, delta_b=db, method="exact")


def test_suggest_descent_step():
    cfg = suggest_parameters("gd", _report(1.0, 2.0), "cvx", l_smooth=4.0)
    assert cfg.eta == pytest.approx(0.25)


def test_suggest_exact_doubly_regularized_nonconvex_triple():
    cfg = suggest_parameters("fedred", _report(3.0, 5.0), "ncvx", l_smooth=50.0)
    assert cfg.lam == pytest.approx(5.0)
    assert cfg.eta == pytest.approx(20.0)
    assert cfg.p == pytest.approx(0.25)
    assert cfg.averaging == "rand"
    assert cfg.local.check_decrease


def test_suggest_anchored_convex_uses_schedule():
    cfg = suggest_parameters(
        "dane_plus", _report(3.0, 5.0), "sc", l_smooth=50.0, mu=1.0
    )
    assert cfg.lam == pytest.approx(6.0)
    assert cfg.local.rule.kind == "scheduled" and cfg.local.solver == "gd"
    ncvx = suggest_parameters("dane_plus", _report(3.0, 5.0), "ncvx", l_smooth=50.0)
    assert ncvx.lam == pytest.approx(10.0)
    assert ncvx.averaging == "rand"
    assert ncvx.local.rule.kind == "fixed_steps"


def test_suggest_obeys_practical_coupling_on_convex_regimes():
    rep = _report(2.0, 4.0)
    for method in ("fedred", "fedred_gd"):
        for regime, mu in (("cvx", 0.0), ("sc", 0.5)):
            cfg = suggest_parameters(
                method, rep, regime, l_smooth=30.0, mu=mu
            )
            assert cfg.lam == pytest.approx(cfg.p * cfg.eta, rel=1e-12)
            assert 0.0 < cfg.p <= 1.0


def test_suggest_exact_doubly_regularized_convex_values():
    cfg = suggest_parameters("fedred", _report(2.0, 4.0), "sc", l_smooth=30.0, mu=0.5)
    assert cfg.eta == pytest.approx(30.0)
    assert cfg.p == pytest.approx((2.0 + 0.25) / (30.0 + 0.25))
    small = suggest_parameters("fedred", _report(8.0, 9.0), "cvx", l_smooth=3.0)
    assert small.eta == pytest.approx(8.0)  # dissimilarity may dominate L


def test_suggest_linearized_rules():
    cfg = suggest_parameters("fedred_gd", _report(2.0, 4.0), "sc", l_smooth=30.0, mu=0.5)
    assert cfg.eta == pytest.approx(30.0)
    assert cfg.p == pytest.approx((2.0 + 0.25) / (30.0 - 0.25))
    ncvx = suggest_parameters("fedred_gd", _report(2.0, 4.0), "ncvx", l_smooth=30.0)
    assert ncvx.lam == pytest.approx(4.0)
    assert ncvx.eta == pytest.approx(180.0)
    assert ncvx.p == pytest.approx(4.0 / 30.0)
    noisy = suggest_parameters(
        "fedred_gd", _report(2.0, 4.0), "cvx", l_smooth=30.0, sigma=3.0, eps=0.1
    )
    assert noisy.eta == pytest.approx(90.0 + 30.0)
    assert noisy.stochastic


def test_suggest_skipping_baseline_rule():
    cfg = suggest_parameters("scaffnew", _report(1.0, 2.0), "sc", l_smooth=16.0, mu=4.0)
    assert cfg.eta == pytest.approx(1.0 / 16.0)
    assert cfg.p == pytest.approx(0.5)


def test_suggest_rejects_unsupported_requests():
    rep = _report(2.0, 4.0)
    with pytest.raises(ConfigurationError):
        suggest_parameters("fedprox", rep, "sc", l_smooth=1.0, mu=1.0)
    with pytest.raises(ConfigurationError):
        suggest_parameters("gd", rep, "everywhere", l_smooth=1.0)
    with pytest.raises(ConfigurationError):
        suggest_parameters("gd", rep, "sc", l_smooth=1.0, mu=0.0)
    with pytest.raises(ConfigurationError):
        suggest_parameters("gd", rep, "cvx", l_smooth=0.0)
    with pytest.raises(ConfigurationError):
        suggest_parameters("dane_plus", _report(0.0, 0.0), "cvx", l_smooth=1.0)
    with pytest.raises(ConfigurationError):
        suggest_parameters("fedred", _report(1.0, 0.0), "ncvx", l_smooth=1.0)
    with pytest.raises(ConfigurationError):
        suggest_parameters("scaffnew", rep, "cvx", l_smooth=1.0)
    with pytest.raises(ConfigurationError):
        suggest_parameters(
            "fedred_gd", rep, "ncvx", l_smooth=1.0, sigma=1.0, eps=0.1
        )


# ------------------------------------------------------- solver dispatch


@pytest.mark.parametrize(
    "solver, name",
    [
        ("exact", "solve_exact_quadratic"),
        ("gd", "solve_gd"),
        ("fgd", "solve_fgd"),
    ],
)
def test_local_solves_dispatch_through_module_globals(monkeypatch, solver, name):
    # call counters patch the solvers onto fedlab.methods; a dispatch table
    # bound at import time would bypass the patch and count nothing
    hits = []
    for attr in ("solve_exact_quadratic", "solve_gd", "solve_fgd"):
        original = getattr(fedlab.methods, attr)

        def counted(*args, _attr=attr, _original=original, **kwargs):
            hits.append(_attr)
            return _original(*args, **kwargs)

        monkeypatch.setattr(fedlab.methods, attr, counted)
    problem = hetero_pair(d=3, seed=4)
    rule = StoppingRule("fixed_steps", steps=3)
    local = LocalSpec(solver="exact") if solver == "exact" else LocalSpec(solver, rule)
    cfg = MethodConfig(method="dane_plus", lam=1.0, local=local)
    server, clients, _ = init_method_state(problem, cfg, np.zeros(3))
    fedlab.methods.anchored_step(problem, server, clients, cfg, RandomStream(0))
    assert hits == [name] * problem.n
