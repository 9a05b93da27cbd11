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
    NonFiniteError,
    QuadraticClientSpec,
    QuadraticFamily,
    RandomStream,
    UnsupportedStructureError,
    build_quadratic_problem,
    delta_exact_quadratic,
    gen_quadratic_problem,
)
from fedlab.core import take_billed
from fedlab.problems.quadratic import GENERAL_CONVEX_FLOOR

from conftest import (
    finite_difference_gradient,
    per_row_gradient,
    random_family,
    rotated_family,
)


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
    spec = QuadraticClientSpec(centers=np.zeros((1, 2)), spectra=np.ones((1, 2)))
    with pytest.raises(ConfigurationError):
        QuadraticFamily(specs=[spec], beta=-1.0)
    # the sigmoid term is shared by every client, so no client carries its own
    with pytest.raises(TypeError):
        QuadraticClientSpec(
            centers=np.zeros((1, 2)), spectra=np.ones((1, 2)), beta=1.0
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
    spec = QuadraticClientSpec(centers=np.zeros((1, 2)), spectra=np.zeros((1, 2)))
    family = QuadraticFamily(specs=[spec], beta=beta)
    oracle = build_quadratic_problem(family).clients[0]
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

    A one-component sample draws one component uniformly and adds the same
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
        acc += oracle.stochastic_gradient(x, stream.fork(k), 1)
    mean = acc / draws
    # per-coordinate CLT band at 4 sigma
    band = 4.0 * std / np.sqrt(draws) + 1e-12
    assert np.all(np.abs(mean - full) <= band)


def test_stochastic_cost_is_one_component_share():
    # a batch of b components with replacement bills b / m, past m too
    oracle = build_quadratic_problem(random_family(seed=2, m=8)).clients[0]
    x = np.ones(oracle.dim)
    take_billed()
    for batch_size in (1, 3, 8, 20):
        stream = RandomStream(batch_size)
        g = oracle.stochastic_gradient(x, stream, batch_size)
        assert take_billed() == batch_size / 8
        assert np.array_equal(g, oracle.stochastic_gradient(x, stream, batch_size))
        assert take_billed() == batch_size / 8


@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("rotated", [False, True])
def test_one_component_sample_is_the_drawn_component(rotated, beta):
    # bitwise s_j * (Q'x - c_j), rotated back, for the j that integers(m)
    # draws from the same stream, plus the exact sigmoid term
    family = random_family(seed=4, m=6)
    family = QuadraticFamily(specs=family.specs, beta=beta)
    if rotated:
        family = rotated_family(family, seed=8)
    oracle = build_quadratic_problem(family).clients[1]
    spec, q = family.specs[1], family.basis
    x = RandomStream(10).generator().standard_normal(family.dim)
    for k in range(12):
        stream = RandomStream(77).fork(k)
        j = int(stream.generator().integers(spec.m))
        y = x if q is None else x.dot(q)
        expected = spec.spectra[j] * (y - spec.centers[j])
        expected = expected if q is None else q.dot(expected)
        if beta:
            expected = expected + beta * 2.0 * x / (1.0 + x * x) ** 2
        take_billed()
        g = oracle.stochastic_gradient(x, stream, 1)
        assert np.array_equal(g, expected)
        assert take_billed() == 1 / 6


def _scalar_sigmoid_gradient(x, beta):
    """The sigmoid derivative as formed with Python-float operands."""
    denom = x * x
    denom += 1.0
    denom *= denom
    return np.divide(beta * 2.0 * x, denom, denom)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(1e-3, 1e3),
    st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=5),
    st.booleans(),
)
def test_sigmoid_vectors_are_bitwise_the_scalar_form(beta, xs, rotated):
    # the beta = 0 twin's gradient is the quadratic part C w - u, bitwise
    specs = random_family(seed=4, n=1, m=2, d=5).specs
    oracles = []
    for b in (beta, 0.0):
        family = QuadraticFamily(specs=specs, beta=b)
        if rotated:
            family = rotated_family(family, seed=9)
        oracles.append(build_quadratic_problem(family).clients[0])
    x = np.array(xs)
    expected = per_row_gradient(oracles[1], x) + _scalar_sigmoid_gradient(x, beta)
    assert np.array_equal(per_row_gradient(oracles[0], x), expected)


def test_an_overflowing_sample_is_rejected():
    spec = QuadraticClientSpec(centers=np.zeros((2, 1)), spectra=np.full((2, 1), 1e300))
    oracle = build_quadratic_problem(QuadraticFamily(specs=[spec])).clients[0]
    take_billed()
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError, match="non-finite entries in gradient"):
            oracle.stochastic_gradient(np.array([1e10]), RandomStream(0), 1)
    assert take_billed() == 0.5


def test_dense_batch_averages_the_drawn_components():
    family = random_family(seed=6, m=4, dense=True)
    oracle = build_quadratic_problem(family).clients[0]
    spec = family.specs[0]
    x = RandomStream(2).generator().standard_normal(family.dim)
    stream = RandomStream(9)
    js = stream.generator().integers(4, size=5)
    expected = np.mean(
        [spec.matrices[j] @ (x - spec.centers[j]) for j in js], axis=0
    )
    take_billed()
    g = oracle.stochastic_gradient(x, stream, 5)
    assert np.allclose(g, expected, rtol=1e-13, atol=1e-14)
    assert take_billed() == 5 / 4


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
    rotated = rotated_family(generated, seed=5)
    for family in (dense, random_family(4), generated, rotated):
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
    basis = q if frame == "eigenbasis" else None
    if frame == "dense":
        spec = QuadraticClientSpec(centers=centers, matrices=mats)
    else:
        # a spectral spec states its centers in the eigen frame
        frame_centers = centers if basis is None else centers @ q
        spec = QuadraticClientSpec(centers=frame_centers, spectra=spectra)
    oracle = build_quadratic_problem(
        QuadraticFamily(specs=[spec], basis=basis, beta=beta)
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


def _mean_hessian_form(oracle, x):
    """Value, gradient and ``hessian_matvec`` at ``x`` in the form
    ``C (x - c) - u + sigmoid'`` and its value, with ``c`` the mean center
    and ``C`` the mean Hessian in original coordinates: the mean spectrum
    without a basis, the mean matrix for dense specs, ``(Q * s).dot(Q')``
    with a basis ``Q``, which also rotates the eigen-frame mean center."""
    spec, basis, beta = oracle.spec, oracle.basis, oracle.beta
    if spec.spectra is None:
        hess = spec.matrices.mean(axis=0)
    elif basis is None:
        hess = spec.spectra.mean(axis=0)
    else:
        hess = (basis * spec.spectra.mean(axis=0)).dot(basis.T)

    def curvature(y):
        return hess * y if hess.ndim == 1 else hess.dot(y)

    center = spec.centers.mean(axis=0)
    w = x - (center if basis is None else basis.dot(center))
    sq = x * x
    sigmoid = 0.0 if beta == 0.0 else beta * float(np.sum(sq / (1.0 + sq)))
    u, kappa = oracle.stack.u[oracle.row], float(oracle.stack.kappa[oracle.row])
    quad = 0.5 * float(w.dot(curvature(w))) - float(u.dot(w))
    grad = curvature(w) - u
    if beta != 0.0:
        denom = 1.0 + sq
        grad = grad + beta * 2.0 * x / (denom * denom)
    return quad + kappa + sigmoid, grad, curvature(x)


@settings(derandomize=True, deadline=None)
@given(case=_oracle_cases())
def test_kernels_equal_the_mean_hessian_form_bitwise(case):
    oracle, _, _, x = case
    value, grad, curved = _mean_hessian_form(oracle, x)
    assert oracle.value(x) == value
    assert np.array_equal(oracle.gradient(x), grad)
    assert np.array_equal(oracle.hessian_matvec(x), curved)


@st.composite
def _rotation_cases(draw):
    """A basis-free one-client oracle, the same client under a random
    orthogonal basis Q, Q, and a query point and a direction in the frame."""
    beta = draw(st.sampled_from([0.0, 0.75, 20.0]))
    m, d = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    offset = draw(st.sampled_from([0.0, 1e4]))
    seed = draw(st.integers(0, 2**16))
    rng = RandomStream(seed).generator()
    spectra = rng.uniform(-1.0, 4.0, size=(m, d))
    centers = offset + 3.0 * rng.standard_normal((m, d))
    family = QuadraticFamily(
        specs=[QuadraticClientSpec(centers=centers, spectra=spectra)], beta=beta
    )
    rotated = rotated_family(family, seed=seed + 1)
    free = build_quadratic_problem(family).clients[0]
    oracle = build_quadratic_problem(rotated).clients[0]
    y = offset + 3.0 * rng.standard_normal(d)
    return free, oracle, rotated.basis, y, rng.standard_normal(d)


def _sigmoid_terms(x, beta):
    sq = x * x
    return beta * np.sum(sq / (1.0 + sq)), beta * 2.0 * x / (1.0 + sq) ** 2


@settings(derandomize=True, deadline=None)
@given(case=_rotation_cases())
def test_rotated_oracle_is_the_basis_free_one_in_the_frame(case):
    # the quadratic part at x is the basis-free one at Q'x; the sigmoid
    # term is the only part read in original coordinates
    free, oracle, q, y, v = case
    x = q.dot(y)
    y_back = x.dot(q)
    sig_x, dsig_x = _sigmoid_terms(x, oracle.beta)
    sig_y, dsig_y = _sigmoid_terms(y_back, oracle.beta)
    value = free.value(y_back) - sig_y + sig_x
    grad = q.dot(free.gradient(y_back) - dsig_y) + dsig_x
    curved = q.dot(free.hessian_matvec(v))
    # the allowance of the closed-form test above, for the same components
    spectra, centers = free.spec.spectra, free.spec.centers
    norms = np.linalg.norm(spectra, axis=1)
    dist = np.linalg.norm(y - centers, axis=1)
    value_scale = 1.0 + np.mean(0.5 * norms * dist**2) + oracle.beta * x.size
    grad_scale = 1.0 + np.mean(norms * dist) + 2.0 * oracle.beta
    moved = 1e-15 * x.size * np.linalg.norm(x)
    assert abs(oracle.value(x) - value) <= 1e-12 * value_scale + moved * grad_scale
    grad_err = np.linalg.norm(oracle.gradient(x) - grad)
    assert grad_err <= 1e-12 * grad_scale + moved * (1.0 + norms.max())
    turned = 1e-15 * x.size * np.linalg.norm(v)
    curved_err = np.linalg.norm(oracle.hessian_matvec(q.dot(v)) - curved)
    assert curved_err <= (1e-12 + turned) * (1.0 + norms.max())
    assert oracle.smoothness_hint == free.smoothness_hint
    assert oracle.convexity_hint == free.convexity_hint


def test_problems_with_requested_frames_are_freed_without_the_collector():
    # an oracle that stored itself would form a cycle only the cyclic
    # collector frees: every built problem would then stay in memory until
    # a full collection
    factories = (
        lambda: gen_quadratic_problem(
            0, 3, 2, 6, max_norm=5.0, min_eig=1.0, target_delta=1.0
        ),
        lambda: build_quadratic_problem(random_family(4)),
        lambda: build_quadratic_problem(rotated_family(random_family(4), seed=2)),
    )
    gc.disable()
    try:
        for build in factories:
            problem = build()
            refs = [weakref.ref(o) for o in (problem, *problem.clients)]
            del problem
            assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_problem_frames_are_freed_without_the_collector():
    # a problem drawn in its eigen frame: an oracle that referenced its
    # problem would form a cycle that only the cyclic collector frees
    gc.disable()
    try:
        problem = gen_quadratic_problem(
            2, 3, 2, 6, max_norm=5.0, min_eig=1.0, target_delta=1.0
        )
        refs = [weakref.ref(o) for o in (problem, *problem.clients)]
        del problem
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_malformed_specs_and_families_are_rejected():
    with pytest.raises(DimensionError, match=r"^centers must have shape \(m, d\)$"):
        QuadraticClientSpec(centers=np.zeros(3), spectra=np.ones((1, 3)))
    specs = [
        QuadraticClientSpec(centers=np.zeros((1, d)), spectra=np.ones((1, d)))
        for d in (2, 3)
    ]
    with pytest.raises(DimensionError, match=r"^client dimension mismatch$"):
        QuadraticFamily(specs=specs)
    dense = QuadraticFamily(
        specs=[QuadraticClientSpec(centers=np.zeros((1, 2)), matrices=[np.eye(2)])]
    )
    with pytest.raises(
        ConfigurationError, match=r"^family has no shared eigenbasis$"
    ):
        dense.mean_spectra()


def test_a_hessian_product_checks_its_query_as_a_gradient_does():
    oracle = gen_quadratic_problem(
        0, 2, 2, 5, max_norm=5.0, min_eig=1.0, target_delta=1.0
    ).clients[0]
    for public in (oracle.gradient, oracle.hessian_matvec):
        with pytest.raises(
            DimensionError, match=r"^oracle dimension 5, query dimension 6$"
        ):
            public(np.ones(6))
    listed = oracle.hessian_matvec([1.0] * 5)
    assert np.array_equal(listed, oracle.hessian_matvec(np.ones(5)))
