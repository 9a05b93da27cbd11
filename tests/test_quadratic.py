"""Synthetic quadratic families: oracles, generator pins, invariants."""
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlab import (
    ConfigurationError,
    DimensionError,
    DistributedProblem,
    QuadraticClientSpec,
    QuadraticFamily,
    QuadraticOracle,
    RandomStream,
    UnsupportedStructureError,
    build_quadratic_problem,
    counting_problem,
    delta_exact_quadratic,
    gen_quadratic_problem,
    logistic_problem,
    parse_libsvm,
)
from fedlab.problems.quadratic import GENERAL_CONVEX_FLOOR

from conftest import finite_difference_gradient, random_family


def test_spec_requires_exactly_one_representation():
    centers = np.zeros((1, 2))
    with pytest.raises(ConfigurationError):
        QuadraticClientSpec(centers=centers)
    with pytest.raises(ConfigurationError):
        QuadraticClientSpec(
            centers=centers,
            spectra=np.ones((1, 2)),
            matrices=np.zeros((1, 2, 2)),
        )


def test_spec_validates_shapes_and_symmetry():
    with pytest.raises(DimensionError):
        QuadraticClientSpec(centers=np.zeros((1, 2)), spectra=np.ones((2, 2)))
    with pytest.raises(DimensionError):
        QuadraticClientSpec(centers=np.zeros((1, 2)), matrices=np.zeros((1, 3, 3)))
    skew = np.array([[[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(ConfigurationError):
        QuadraticClientSpec(centers=np.zeros((1, 2)), matrices=skew)
    with pytest.raises(ConfigurationError):
        QuadraticClientSpec(
            centers=np.zeros((1, 2)), spectra=np.ones((1, 2)), beta=-1.0
        )


def test_family_rejects_mixed_representations():
    a = QuadraticClientSpec(centers=np.zeros((1, 2)), spectra=np.ones((1, 2)))
    b = QuadraticClientSpec(centers=np.zeros((1, 2)), matrices=np.stack([np.eye(2)]))
    with pytest.raises(ConfigurationError):
        QuadraticFamily(specs=[a, b])
    with pytest.raises(ConfigurationError):
        QuadraticFamily(specs=[b], basis=np.eye(2))
    with pytest.raises(ConfigurationError):
        QuadraticFamily(specs=[])


def test_oracle_gradient_matches_finite_differences():
    for dense in (False, True):
        family = random_family(seed=21 + dense, dense=dense)
        problem = build_quadratic_problem(family)
        rng = RandomStream(77).generator()
        for oracle in problem.clients:
            for _ in range(5):
                x = rng.standard_normal(problem.dim)
                fd = finite_difference_gradient(oracle.value, x)
                g = oracle.gradient(x)
                assert np.linalg.norm(fd - g) <= 1e-5 * (1 + np.linalg.norm(g))


def test_sigmoid_penalty_value_and_gradient():
    beta = 2.0
    spec = QuadraticClientSpec(
        centers=np.zeros((1, 2)), spectra=np.zeros((1, 2)), beta=beta
    )
    oracle = build_quadratic_problem(QuadraticFamily(specs=[spec])).clients[0]
    x = np.array([1.0, -2.0])
    expected = beta * (1.0 / 2.0 + 4.0 / 5.0)
    assert oracle.value(x) == pytest.approx(expected, rel=1e-14)
    fd = finite_difference_gradient(oracle.value, x)
    assert np.linalg.norm(fd - oracle.gradient(x)) <= 1e-6


def test_spectral_and_dense_forms_agree():
    rng = RandomStream(5).generator()
    spectra = rng.uniform(0.5, 3.0, size=(2, 4))
    centers = rng.standard_normal((2, 4))
    spec_s = QuadraticClientSpec(centers=centers, spectra=spectra)
    spec_d = QuadraticClientSpec(
        centers=centers, matrices=np.stack([np.diag(s) for s in spectra])
    )
    p_s = build_quadratic_problem(QuadraticFamily(specs=[spec_s]))
    p_d = build_quadratic_problem(QuadraticFamily(specs=[spec_d]))
    for _ in range(5):
        x = rng.standard_normal(4)
        assert p_s.f(x) == pytest.approx(p_d.f(x), rel=1e-12)
        assert np.allclose(p_s.grad_f(x), p_d.grad_f(x), atol=1e-12)


def _component_gradient_std(spec: QuadraticClientSpec, x) -> np.ndarray:
    """Per-coordinate std of the component gradients ``s_j * (x - c_j)``.

    The stochastic gradient draws one component uniformly and adds the same
    sigmoid term to each, so this is its standard deviation (no basis).
    """
    return np.std(spec.spectra * (x - spec.centers), axis=0)


def test_stochastic_gradient_is_unbiased():
    family = random_family(seed=9, m=6)
    problem = build_quadratic_problem(family)
    oracle = problem.clients[0]
    x = RandomStream(12).generator().standard_normal(problem.dim)
    full = oracle.gradient(x)
    std = _component_gradient_std(family.specs[0], x)
    draws = 10_000
    stream = RandomStream(404)
    acc = np.zeros(problem.dim)
    for k in range(draws):
        acc += oracle.stochastic_gradient(x, stream.fork(k))
    mean = acc / draws
    # per-coordinate CLT band at 4 sigma
    band = 4.0 * std / np.sqrt(draws) + 1e-12
    assert np.all(np.abs(mean - full) <= band)


def test_stochastic_cost_is_one_component_share():
    family = random_family(seed=2, m=8)
    problem = build_quadratic_problem(family)
    assert problem.clients[0].stochastic_cost == pytest.approx(1.0 / 8.0)


def test_generator_validates_arguments():
    kw = dict(max_norm=10.0, min_eig=1.0, target_delta=1.0)
    with pytest.raises(ConfigurationError):
        gen_quadratic_problem(0, 0, 1, 5, **kw)
    with pytest.raises(ConfigurationError):
        gen_quadratic_problem(0, 2, 1, 2, **kw)  # needs d >= 3
    with pytest.raises(ConfigurationError):
        gen_quadratic_problem(0, 2, 1, 5, max_norm=1.0, min_eig=2.0, target_delta=0.0)
    with pytest.raises(ConfigurationError):
        gen_quadratic_problem(0, 2, 1, 5, max_norm=10.0, min_eig=1.0, target_delta=20.0)
    with pytest.raises(ConfigurationError):
        # shift from the mid-spectrum coordinate would cross the cap
        gen_quadratic_problem(0, 2, 1, 5, max_norm=10.0, min_eig=9.0, target_delta=2.0)


def test_generator_pins_extreme_eigenvalues():
    problem = gen_quadratic_problem(
        3, 4, 5, 12, max_norm=50.0, min_eig=2.0, target_delta=4.0
    )
    report = delta_exact_quadratic(problem)[0]
    family = problem.quadratic
    for spec in family.specs:
        assert np.min(spec.spectra) >= 2.0 - 1e-12
        assert np.max(spec.spectra) == pytest.approx(50.0)
        assert np.all(spec.spectra[:, 0] == 50.0)
    assert problem.l_smooth == pytest.approx(50.0)
    assert problem.mu == pytest.approx(2.0)
    assert problem.l_smooth_global is not None
    assert problem.l_smooth_global <= problem.l_smooth + 1e-12


def test_generator_achieves_requested_dissimilarity():
    n, t = 5, 4.0
    problem = gen_quadratic_problem(
        0, n, 3, 10, max_norm=40.0, min_eig=1.0, target_delta=t
    )
    report = delta_exact_quadratic(problem)[0]
    assert report.delta_b == pytest.approx(t, rel=1e-12)
    assert report.delta_a == pytest.approx(t * np.sqrt(2.0 / n), rel=1e-12)


def test_generator_target_zero_means_identical_clients():
    problem = gen_quadratic_problem(
        1, 3, 2, 6, max_norm=10.0, min_eig=1.0, target_delta=0.0
    )
    report = delta_exact_quadratic(problem)[0]
    assert report.delta_a == 0.0 and report.delta_b == 0.0
    base = problem.quadratic.specs[0].spectra
    for spec in problem.quadratic.specs[1:]:
        assert np.array_equal(spec.spectra, base)


def test_generator_is_deterministic_in_seed():
    a = gen_quadratic_problem(8, 2, 2, 5, max_norm=9.0, min_eig=1.0, target_delta=1.0)
    b = gen_quadratic_problem(8, 2, 2, 5, max_norm=9.0, min_eig=1.0, target_delta=1.0)
    c = gen_quadratic_problem(9, 2, 2, 5, max_norm=9.0, min_eig=1.0, target_delta=1.0)
    assert np.array_equal(a.quadratic.specs[0].spectra, b.quadratic.specs[0].spectra)
    assert np.array_equal(a.quadratic.specs[0].centers, b.quadratic.specs[0].centers)
    assert not np.array_equal(
        a.quadratic.specs[0].spectra, c.quadratic.specs[0].spectra
    )


def test_generator_smoothness_dominates_dissimilarity():
    # the headline separation regime: L / delta_B >= 20 at bench scale
    problem = gen_quadratic_problem(
        0, 5, 10, 20, max_norm=100.0, min_eig=1.0, target_delta=5.0
    )
    report = delta_exact_quadratic(problem)[0]
    assert problem.l_smooth / report.delta_b >= 20.0 - 1e-9


def test_generator_convex_mode_floors_eigenvalues():
    problem = gen_quadratic_problem(
        4, 3, 2, 9, max_norm=5.0, min_eig=0.0, target_delta=0.5
    )
    lows = [np.min(spec.spectra) for spec in problem.quadratic.specs]
    assert min(lows) == pytest.approx(GENERAL_CONVEX_FLOOR)
    assert problem.mu == pytest.approx(GENERAL_CONVEX_FLOOR)


def test_minimizer_zeroes_the_gradient_on_every_representation():
    dense = random_family(4, dense=True)
    generated = gen_quadratic_problem(
        3, 3, 2, 8, max_norm=6.0, min_eig=0.5, target_delta=1.0
    ).quadratic
    assert generated.basis is not None
    for family in (dense, random_family(4), generated):
        problem = build_quadratic_problem(family)
        x_star = family.minimizer()
        scale = 1e-10 * (1.0 + np.linalg.norm(problem.grad_f(np.zeros(family.dim))))
        assert np.linalg.norm(problem.grad_f(x_star)) <= scale
    mean_h = np.mean([spec.matrices.mean(axis=0) for spec in dense.specs], axis=0)
    rhs = np.mean(
        [
            np.mean([a @ b for a, b in zip(spec.matrices, spec.centers)], axis=0)
            for spec in dense.specs
        ],
        axis=0,
    )
    assert np.allclose(
        dense.minimizer(), np.linalg.solve(mean_h, rhs), rtol=1e-12, atol=1e-12
    )


def test_minimizer_rejects_an_indefinite_mean():
    centers = np.zeros((1, 2))
    spectral = QuadraticFamily(
        specs=[
            QuadraticClientSpec(centers=centers, spectra=[[1.0, 1.0]]),
            QuadraticClientSpec(centers=centers, spectra=[[1.0, -3.0]]),
        ]
    )
    dense = QuadraticFamily(
        specs=[QuadraticClientSpec(centers=centers, matrices=[[[1.0, 2.0], [2.0, 1.0]]])]
    )
    for family in (spectral, dense):
        with pytest.raises(UnsupportedStructureError):
            family.minimizer()


def test_sigmoid_term_shifts_hints():
    plain = gen_quadratic_problem(
        2, 2, 2, 6, max_norm=8.0, min_eig=1.0, target_delta=1.0
    )
    bumpy = gen_quadratic_problem(
        2, 2, 2, 6, max_norm=8.0, min_eig=1.0, target_delta=1.0, beta=400.0
    )
    assert bumpy.l_smooth == pytest.approx(plain.l_smooth + 800.0)
    assert bumpy.mu is None  # 1 - 200 < 0: no curvature lower bound


@st.composite
def _oracle_cases(draw):
    """A one-client oracle, its dense component matrices and a query point."""
    frame = draw(st.sampled_from(["eigenbasis", "axes", "dense"]))
    beta = draw(st.sampled_from([0.0, 0.75]))
    m, d = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    # a common offset far from the origin moves the centers and the query
    offset = draw(st.sampled_from([0.0, 1e4]))
    rng = RandomStream(draw(st.integers(0, 2**16))).generator()
    spectra = rng.uniform(-1.0, 4.0, size=(m, d))
    centers = offset + 3.0 * rng.standard_normal((m, d))
    q = np.linalg.qr(rng.standard_normal((d, d)))[0] if frame != "axes" else np.eye(d)
    mats = np.einsum("kl,jl,nl->jkn", q, spectra, q)  # Q diag(s_j) Q'
    if frame == "dense":
        spec = QuadraticClientSpec(centers=centers, matrices=mats, beta=beta)
    else:
        spec = QuadraticClientSpec(centers=centers, spectra=spectra, beta=beta)
    basis = q if frame == "eigenbasis" else None
    oracle = build_quadratic_problem(
        QuadraticFamily(specs=[spec], basis=basis)
    ).clients[0]
    return oracle, mats, centers, offset + 3.0 * rng.standard_normal(d)


@settings(derandomize=True, deadline=None)
@given(case=_oracle_cases())
def test_closed_form_matches_the_component_definition(case):
    oracle, mats, centers, x = case
    diffs = x - centers
    comps = np.einsum("jkl,jl->jk", mats, diffs)
    sq = x * x
    value = 0.5 * np.mean(np.einsum("jk,jk->j", diffs, comps))
    value += oracle.beta * np.sum(sq / (1.0 + sq))
    grad = comps.mean(axis=0) + oracle.beta * 2.0 * x / (1.0 + sq) ** 2
    norms = np.linalg.norm(mats, axis=(1, 2))
    dist = np.linalg.norm(diffs, axis=1)
    value_scale = 1.0 + np.mean(0.5 * norms * dist**2) + oracle.beta * x.size
    grad_scale = 1.0 + np.mean(norms * dist) + 2.0 * oracle.beta
    # rotating x into the eigenbasis rounds it by about eps |x|, whatever
    # the form; errors growing with |c|^2 stay far above this allowance
    moved = 0.0 if oracle.basis is None else 1e-15 * x.size * np.linalg.norm(x)
    assert abs(oracle.value(x) - value) <= 1e-12 * value_scale + moved * grad_scale
    grad_err = np.linalg.norm(oracle.gradient(x) - grad)
    assert grad_err <= 1e-12 * grad_scale + moved * (1.0 + norms.max())
    u = oracle.linear_term()
    u_def = np.einsum("jkl,jl->k", mats, centers) / len(mats)
    u_scale = 1.0 + np.mean(norms * np.linalg.norm(centers, axis=1))
    assert np.linalg.norm(u - u_def) <= 1e-12 * u_scale
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0] = 1.0


def _helper_composition(oracle, x):
    """Value, gradient and ``hessian_matvec`` at ``x`` as the frame helpers
    compose them: ``Q (s * (Q'x - c) - u) + sigmoid'`` and its value."""
    basis, beta = oracle.basis, oracle.beta

    def frame(v):
        return v if basis is None else v.dot(basis)

    def original(v):
        return v if basis is None else basis.dot(v)

    def curvature(y):
        if oracle.spec.spectra is None:
            return oracle._mean_matrix.dot(y)
        return oracle._mean_spectrum * y

    w = frame(x) - oracle._center
    sq = x * x
    sigmoid = 0.0 if beta == 0.0 else beta * float(np.sum(sq / (1.0 + sq)))
    quad = 0.5 * float(w.dot(curvature(w))) - float(oracle._u.dot(w))
    grad = original(curvature(w) - oracle._u)
    if beta != 0.0:
        denom = 1.0 + sq
        grad = grad + beta * 2.0 * x / (denom * denom)
    return quad + oracle._kappa + sigmoid, grad, original(curvature(frame(x)))


@settings(derandomize=True, deadline=None)
@given(case=_oracle_cases())
def test_kernels_equal_the_helper_composition_bitwise(case):
    oracle, _, _, x = case
    value, grad, curved = _helper_composition(oracle, x)
    assert oracle.value(x) == value
    assert np.array_equal(oracle.gradient(x), grad)
    assert np.array_equal(oracle.hessian_matvec(x), curved)
    if oracle.basis is not None and oracle.beta == 0.0:
        frame, y = oracle.eigen_frame()[1], x.dot(oracle.basis)
        value, grad, curved = _helper_composition(frame, y)
        assert frame.value(y) == value
        assert np.array_equal(frame.gradient(y), grad)
        assert np.array_equal(frame.hessian_matvec(y), curved)


def test_eigen_frame_rotates_the_hessian():
    problem = gen_quadratic_problem(
        1, 2, 3, 7, max_norm=6.0, min_eig=0.5, target_delta=1.0, beta=0.5
    )
    oracle = problem.clients[0]
    basis, frame = oracle.eigen_frame()
    assert basis is oracle.basis
    assert frame.basis is None and frame.beta == 0.0
    assert oracle.eigen_frame()[1] is frame  # built once, on first request
    v = RandomStream(3).generator().standard_normal(7)
    rotated = basis @ frame.hessian_matvec(v @ basis)
    assert np.allclose(rotated, oracle.hessian_matvec(v), rtol=0.0, atol=1e-12)
    for family in (random_family(2), random_family(2, dense=True)):
        plain = build_quadratic_problem(family).clients[0]
        assert plain.eigen_frame() == (None, plain)


def test_problems_with_requested_frames_are_freed_without_the_collector():
    # a frame that referenced its parent, or an oracle that stored itself,
    # would form a cycle only the cyclic collector frees: every built
    # problem would then stay in memory until a full collection
    factories = (
        lambda: gen_quadratic_problem(
            0, 3, 2, 6, max_norm=5.0, min_eig=1.0, target_delta=1.0
        ),
        lambda: build_quadratic_problem(random_family(4)),
    )
    gc.disable()
    try:
        for build in factories:
            problem = build()
            frames = [oracle.eigen_frame()[1] for oracle in problem.clients]
            refs = [weakref.ref(o) for o in (problem, *problem.clients, *frames)]
            del frames, problem
            assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def _shared_basis_problem(beta: float = 0.0):
    return gen_quadratic_problem(
        2, 3, 2, 6, max_norm=5.0, min_eig=1.0, target_delta=1.0, beta=beta
    )


def test_problem_eigen_frame_runs_every_client_in_the_shared_basis():
    problem = _shared_basis_problem()
    basis, frame = problem.eigen_frame()
    assert basis is problem.clients[0].basis
    assert frame.clients == [o.eigen_frame()[1] for o in problem.clients]
    hints = ("dim", "l_smooth", "l_smooth_global", "mu")
    assert [getattr(frame, h) for h in hints] == [getattr(problem, h) for h in hints]
    assert frame.quadratic is None  # the family's storage is in original coordinates
    x = RandomStream(4).generator().standard_normal(problem.dim)
    assert frame.f(x @ basis) == pytest.approx(problem.f(x), rel=1e-13)
    assert np.allclose(basis @ frame.grad_f(x @ basis), problem.grad_f(x), atol=1e-13)


def test_problem_eigen_frame_builds_nothing_unless_every_client_is_pure():
    problem = _shared_basis_problem(beta=0.5)
    assert problem.eigen_frame() == (None, problem)
    assert [o._eigen for o in problem.clients] == [None] * problem.n


def test_problem_eigen_frame_needs_one_shared_basis():
    spectral = build_quadratic_problem(random_family(5))
    dense = build_quadratic_problem(random_family(5, dense=True))
    logistic = logistic_problem([parse_libsvm("+1 1:1\n-1 2:0.5\n")])
    spec = random_family(5).specs[0]
    q, _ = np.linalg.qr(RandomStream(9).generator().standard_normal((5, 5)))
    mixed = [
        [QuadraticOracle(spec, q), QuadraticOracle(spec, q.copy())],
        [QuadraticOracle(spec), QuadraticOracle(spec, q)],
        [QuadraticOracle(spec, q), QuadraticOracle(spec)],
    ]
    problems = [spectral, dense, logistic] + [
        DistributedProblem(clients=clients, dim=5) for clients in mixed
    ]
    for problem in problems:
        assert problem.eigen_frame() == (None, problem)
    assert DistributedProblem(clients=mixed[0][:1], dim=5).eigen_frame()[0] is q


def test_counting_problem_frames_bill_the_shared_counter():
    problem = _shared_basis_problem()
    wrapped, counter = counting_problem(problem)
    basis, frame = wrapped.eigen_frame()
    assert basis is problem.clients[0].basis
    assert [o.base for o in frame.clients] == [o.eigen_frame()[1] for o in problem.clients]
    x = np.ones(problem.dim)
    frame.grad_f(x)
    frame.clients[1].hessian_matvec(x)
    assert counter["units"] == problem.n + 1.0


def test_problem_frames_are_freed_without_the_collector():
    # a frame problem that referenced its parent would form a cycle that
    # only the cyclic collector frees
    gc.disable()
    try:
        for wrap in (lambda p: p, lambda p: counting_problem(p)[0]):
            problem = wrap(_shared_basis_problem())
            frame = problem.eigen_frame()[1]
            refs = [
                weakref.ref(o)
                for o in (problem, *problem.clients, frame, *frame.clients)
            ]
            del frame, problem
            assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
