"""Vector helpers, random streams, and oracle boundary checks."""
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedlab import (
    ClientOracle,
    ConfigurationError,
    DimensionError,
    DistributedProblem,
    NonFiniteError,
    RandomStream,
    as_vector,
)
from fedlab.core import require_finite

from conftest import finite_difference_gradient, quad_1d, two_client_line


def test_as_vector_coerces_lists_to_float64():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64
    assert v.shape == (3,)


def test_as_vector_rejects_matrices():
    with pytest.raises(DimensionError):
        as_vector(np.zeros((2, 2)))


def test_require_finite_rejects_nan_and_inf():
    with pytest.raises(NonFiniteError):
        require_finite(np.array([1.0, np.nan]))
    with pytest.raises(NonFiniteError):
        require_finite(np.array([np.inf]))
    with pytest.raises(NonFiniteError):
        require_finite(np.array([2.0, -np.inf]))
    with pytest.raises(NonFiniteError):
        require_finite(np.array(np.nan))  # 0-d array
    with pytest.raises(NonFiniteError):
        require_finite(float("inf"))
    require_finite(np.array([0.0, -1.0]))  # no raise
    require_finite(np.array(3.0))
    assert require_finite(-2.5) == -2.5


_ENTRIES = st.one_of(
    st.floats(min_value=-1.7e308, max_value=1.7e308),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)


@given(st.lists(_ENTRIES, max_size=24), st.integers(1, 3))
def test_require_finite_verdict_matches_isfinite(entries, stride):
    # dense and strided 1-D float64 vectors take the one-dot fast path
    for arr in (np.array(entries, dtype=np.float64), np.repeat(entries, 3)[::stride]):
        expected = bool(np.isfinite(arr).all())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                assert require_finite(arr) is arr
                verdict = True
            except NonFiniteError:
                verdict = False
        assert verdict == expected


def test_stream_replay_is_bitwise():
    s = RandomStream(7, (1, 4))
    a = s.generator().standard_normal(16)
    # consume unrelated streams in between
    RandomStream(7, (1, 5)).generator().standard_normal(100)
    b = s.generator().standard_normal(16)
    assert np.array_equal(a, b)


def test_stream_forks_are_distinct():
    s = RandomStream(3)
    a = s.fork(0).generator().standard_normal(8)
    b = s.fork(1).generator().standard_normal(8)
    assert not np.array_equal(a, b)


def test_stream_rejects_negative_addresses():
    with pytest.raises(ConfigurationError):
        RandomStream(-1)
    with pytest.raises(ConfigurationError):
        RandomStream(0).fork(-2)
    with pytest.raises(ConfigurationError):
        RandomStream(0, (-1,))


def test_oracle_rejects_dimension_mismatch():
    problem = quad_1d()
    with pytest.raises(DimensionError):
        problem.clients[0].value(np.zeros(2))


def test_oracle_rejects_nonfinite_query():
    problem = quad_1d()
    with pytest.raises(NonFiniteError):
        problem.clients[0].gradient(np.array([np.nan]))


class _BrokenOracle(ClientOracle):
    def __init__(self):
        self.dim = 1

    def _value(self, x):
        return float("nan")

    def _gradient(self, x):
        return np.array([np.inf])


def test_oracle_rejects_nonfinite_outputs():
    bad = _BrokenOracle()
    with pytest.raises(NonFiniteError):
        bad.value(np.zeros(1))
    with pytest.raises(NonFiniteError):
        bad.gradient(np.zeros(1))


def test_problem_rejects_empty_or_mismatched_clients():
    with pytest.raises(ConfigurationError):
        DistributedProblem(clients=[], dim=1)
    c1 = quad_1d().clients[0]
    with pytest.raises(DimensionError):
        DistributedProblem(clients=[c1], dim=2)


def test_problem_averages_values_and_gradients():
    problem = two_client_line()
    x = np.array([0.0])
    # f(0) = (0 + 2)/2 = 1, grad f(0) = (0 + (-2))/2 = -1
    assert problem.f(x) == pytest.approx(1.0, abs=1e-15)
    assert problem.grad_f(x) == pytest.approx(np.array([-1.0]), abs=1e-15)
    x_star = np.array([1.0])
    assert problem.f(x_star) == pytest.approx(0.5, abs=1e-15)
    assert np.linalg.norm(problem.grad_f(x_star)) <= 1e-15


def test_mean_gradient_is_canonical_numpy_mean():
    grads = [RandomStream(i).generator().standard_normal(6) for i in range(4)]
    expected = np.mean(np.stack(grads), axis=0)
    assert np.array_equal(DistributedProblem.mean_gradient(grads), expected)


def test_finite_difference_matches_analytic_gradient():
    def fn(x):
        return float(np.sum(x**3) + 2.0 * x[0] * x[1])

    x = np.array([0.7, -1.2, 0.3])
    analytic = np.array(
        [3 * x[0] ** 2 + 2 * x[1], 3 * x[1] ** 2 + 2 * x[0], 3 * x[2] ** 2]
    )
    fd = finite_difference_gradient(fn, x)
    assert np.linalg.norm(fd - analytic) <= 1e-6 * (1 + np.linalg.norm(analytic))
