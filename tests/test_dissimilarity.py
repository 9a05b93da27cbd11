"""Hessian-dissimilarity constants: closed forms and the sampled estimator."""
import numpy as np
import pytest

from fedlab import (
    ConfigurationError,
    DissimilarityReport,
    QuadraticClientSpec,
    QuadraticFamily,
    RandomStream,
    build_quadratic_problem,
    delta_exact_quadratic,
    delta_sampled,
)

from conftest import random_family, two_client_line


def _diag_family(*diagonals) -> QuadraticFamily:
    specs = [
        QuadraticClientSpec(
            centers=np.zeros((1, len(d))),
            matrices=np.stack([np.diag(np.asarray(d, dtype=float))]),
        )
        for d in diagonals
    ]
    return QuadraticFamily(specs=specs)


def three_client_fixture() -> QuadraticFamily:
    return _diag_family([3.0, 2.0], [-1.0, 1.0], [-2.0, -3.0])


def test_three_client_fixture_constants():
    exact, averaged = delta_exact_quadratic(three_client_fixture())
    assert abs(exact.delta_a - np.sqrt(14.0 / 3.0)) <= 1e-12
    assert abs(averaged.delta_a - np.sqrt(19.0 / 3.0)) <= 1e-12
    assert abs(exact.delta_b - 3.0) <= 1e-12
    assert averaged.delta_b == exact.delta_b
    assert exact.method == "exact" and averaged.method == "paper_formula"


def test_fixture_constants_match_on_spectral_form():
    specs = [
        QuadraticClientSpec(centers=np.zeros((1, 2)), spectra=np.array([d]))
        for d in ([3.0, 2.0], [-1.0, 1.0], [-2.0, -3.0])
    ]
    exact, averaged = delta_exact_quadratic(QuadraticFamily(specs=specs))
    assert abs(exact.delta_a - np.sqrt(14.0 / 3.0)) <= 1e-12
    assert abs(averaged.delta_a - np.sqrt(19.0 / 3.0)) <= 1e-12


def test_opposite_deviation_pair():
    # deviations diag(1,0) and diag(-1,0): every constant equals 1
    exact, averaged = delta_exact_quadratic(_diag_family([1.0, 0.0], [-1.0, 0.0]))
    assert exact.delta_a == pytest.approx(1.0, abs=1e-14)
    assert averaged.delta_a == pytest.approx(1.0, abs=1e-14)
    assert exact.delta_b == pytest.approx(1.0, abs=1e-14)


def test_single_client_has_zero_dissimilarity():
    exact, averaged = delta_exact_quadratic(_diag_family([5.0, 2.0]))
    assert (exact.delta_a, exact.delta_b) == (0.0, 0.0)
    assert (averaged.delta_a, averaged.delta_b) == (0.0, 0.0)


def test_exact_never_exceeds_norm_averaged_variant():
    for seed in range(20):
        family = random_family(seed, dense=bool(seed % 2))
        exact, averaged = delta_exact_quadratic(family)
        assert exact.delta_a <= averaged.delta_a + 1e-12
        assert averaged.delta_a <= averaged.delta_b + 1e-12


def test_exact_accepts_problem_wrapper_and_rejects_others():
    family = three_client_fixture()
    problem = build_quadratic_problem(family)
    exact_direct, _ = delta_exact_quadratic(family)
    exact_wrapped, _ = delta_exact_quadratic(problem)
    assert exact_wrapped.delta_a == exact_direct.delta_a
    with pytest.raises(ConfigurationError):
        delta_exact_quadratic("not a family")


def test_report_validation():
    with pytest.raises(ConfigurationError):
        DissimilarityReport(delta_a=1.0, delta_b=1.0, method="guess")
    with pytest.raises(ConfigurationError):
        DissimilarityReport(delta_a=-0.1, delta_b=1.0, method="exact")
    with pytest.raises(ConfigurationError):
        DissimilarityReport(delta_a=2.0, delta_b=1.0, method="exact")
    rep = DissimilarityReport(delta_a=0.5, delta_b=1.0, method="sampled")
    assert rep.as_dict() == {"delta_a": 0.5, "delta_b": 1.0, "method": "sampled"}


def test_sampled_is_a_tight_lower_estimate():
    family = three_client_fixture()
    problem = build_quadratic_problem(family)
    exact, _ = delta_exact_quadratic(family)
    sampled = delta_sampled(problem, 64, RandomStream(1).fork(0))
    assert sampled.method == "sampled"
    assert sampled.delta_a <= exact.delta_a + 1e-9
    assert sampled.delta_b <= exact.delta_b + 1e-9
    # quadratic deviations make every sampled ratio an exact Rayleigh
    # quotient, so 64 directions land well above half the true constant
    assert sampled.delta_a >= 0.5 * exact.delta_a
    assert sampled.delta_b >= 0.5 * exact.delta_b


def test_sampled_is_monotone_in_pair_count():
    problem = build_quadratic_problem(random_family(6))
    stream = RandomStream(2).fork(0)
    values = [delta_sampled(problem, k, stream).delta_a for k in (4, 8, 16, 32)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def test_sampled_rejects_empty_sample():
    problem = two_client_line()
    with pytest.raises(ConfigurationError):
        delta_sampled(problem, 0, RandomStream(0))


def test_identical_clients_sample_to_zero():
    spec = QuadraticClientSpec(
        centers=np.zeros((1, 3)), spectra=np.array([[1.0, 2.0, 3.0]])
    )
    twin = QuadraticClientSpec(
        centers=np.zeros((1, 3)), spectra=np.array([[1.0, 2.0, 3.0]])
    )
    problem = build_quadratic_problem(QuadraticFamily(specs=[spec, twin]))
    sampled = delta_sampled(problem, 8, RandomStream(3))
    assert sampled.delta_a <= 1e-12
    assert sampled.delta_b <= 1e-12


def test_a_problem_without_quadratic_structure_has_no_exact_constants():
    problem = two_client_line()
    problem.quadratic = None
    with pytest.raises(
        ConfigurationError, match=r"^problem carries no quadratic structure$"
    ):
        delta_exact_quadratic(problem)
