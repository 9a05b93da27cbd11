"""Vector helpers, random streams, and oracle boundary checks."""
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlab import (
    ClientOracle,
    ConfigurationError,
    DimensionError,
    DistributedProblem,
    NonFiniteError,
    QuadraticClientSpec,
    QuadraticFamily,
    RandomStream,
    UnsupportedStructureError,
    as_vector,
    build_quadratic_problem,
    core,
)
from fedlab.core import require_finite, take_billed
from fedlab.problems import LogisticOracle, SparseDataset

from conftest import (
    CubicOracle,
    FixedGradientOracle,
    finite_difference_gradient,
    per_row_gradient,
    quad_1d,
    random_family,
    rotated_family,
    two_client_line,
)


def test_as_vector_coerces_lists_to_float64():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64
    assert v.shape == (3,)


def test_as_vector_rejects_matrices():
    with pytest.raises(DimensionError):
        as_vector(np.zeros((2, 2)))
    for scalar in (np.array(1.0), 1.0):  # 0-D input is no vector either
        with pytest.raises(DimensionError):
            as_vector(scalar)


def _read_only_vector():
    v = np.arange(3.0)
    v.setflags(write=False)
    return v


class _TaggedArray(np.ndarray):
    pass


@pytest.mark.parametrize(
    "make",
    [lambda: np.arange(3.0), _read_only_vector, lambda: np.arange(6.0)[::2]],
    ids=["dense", "read_only", "strided"],
)
def test_as_vector_returns_float64_vectors_as_the_same_object(make):
    v = make()
    assert as_vector(v) is v


@pytest.mark.parametrize(
    "x",
    [
        [1, 2, 3],
        np.array([1, 2, 3]),
        np.array([1, 2, 3], dtype=np.float32),
        np.array([1.0, 2.0, 3.0]).view(_TaggedArray),
    ],
    ids=["list", "int", "float32", "subclass"],
)
def test_as_vector_converts_everything_else_to_a_plain_float64_vector(x):
    v = as_vector(x)
    assert type(v) is np.ndarray and v.dtype == np.float64
    assert v is not x and np.array_equal(v, [1.0, 2.0, 3.0])


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


def test_stream_rejects_non_integer_addresses():
    with pytest.raises(ConfigurationError):
        RandomStream(2.0)
    with pytest.raises(ConfigurationError):
        RandomStream(0).fork(1.5)
    with pytest.raises(ConfigurationError):
        RandomStream(0).fork("7")


# the boundaries of SeedSequence's 32-bit word split, and multi-word values
_ADDRESS_INTS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 1]),
    st.integers(min_value=0, max_value=2**80),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(seed=_ADDRESS_INTS, path=st.lists(_ADDRESS_INTS, max_size=4).map(tuple))
def test_stream_draws_are_numpys_seed_sequence_draws(seed, path):
    direct = RandomStream(seed, path)
    expected = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=path)
    ).integers(0, 2**63, size=8)
    assert np.array_equal(direct.generator().integers(0, 2**63, size=8), expected)
    forked = RandomStream(seed)
    for label in path:
        forked = forked.fork(label)
    assert np.array_equal(forked.generator().integers(0, 2**63, size=8), expected)
    assert forked == direct and hash(forked) == hash(direct)
    assert repr(forked) == repr(direct) == (
        f"RandomStream(master_seed={seed!r}, path={path!r})"
    )


def test_oracle_rejects_dimension_mismatch():
    problem = quad_1d()
    with pytest.raises(DimensionError):
        problem.clients[0].value(np.zeros(2))


def test_oracle_rejects_nonfinite_query():
    problem = quad_1d()
    with pytest.raises(NonFiniteError):
        problem.clients[0].gradient(np.array([np.nan]))


def _zero_eigenvalue_spectral():
    # coordinate 0 has eigenvalue 0 in every component: 0 * inf is NaN
    family = random_family(seed=3, n=1, m=2, d=5)
    family.specs[0].spectra[:, 0] = 0.0
    return build_quadratic_problem(family).clients[0]


def _sigmoid_with_basis():
    family = random_family(seed=5, n=1, m=2, d=5)
    family = rotated_family(QuadraticFamily(specs=family.specs, beta=0.5), seed=6)
    assert family.basis is not None
    return build_quadratic_problem(family).clients[0]


def _dense_with_a_zero_row_and_column():
    family = random_family(seed=7, n=1, m=2, d=5, dense=True)
    matrices = family.specs[0].matrices.copy()
    matrices[:, 2, :] = matrices[:, :, 2] = 0.0
    spec = QuadraticClientSpec(centers=family.specs[0].centers, matrices=matrices)
    return build_quadratic_problem(QuadraticFamily(specs=[spec])).clients[0]


def _logistic_with_a_zero_column():
    # column 1 stores no entry: only the ridge term reads x[1]
    matrix = sp.csr_matrix(np.array([[0.5, 0.0, -1.0], [2.0, 0.0, 0.25]]))
    labels = np.array([1.0, -1.0])
    return LogisticOracle(SparseDataset(labels=labels, matrix=matrix), 1, 2)


_DECLARED = {
    "spectral_zero_eigenvalue": _zero_eigenvalue_spectral,
    "sigmoid_with_basis": _sigmoid_with_basis,
    "dense_zero_row_column": _dense_with_a_zero_row_and_column,
    "logistic_zero_column": _logistic_with_a_zero_column,
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(_DECLARED)),
    st.data(),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_a_declared_oracle_propagates_a_non_finite_query(name, data, bad):
    # the premise that lets its gradient skip the query check
    oracle = _DECLARED[name]()
    assert oracle.gradient_propagates_non_finite
    x = np.array(
        data.draw(
            st.lists(
                st.floats(-1e3, 1e3), min_size=oracle.dim, max_size=oracle.dim
            )
        )
    )
    k = data.draw(st.integers(0, oracle.dim - 1))
    x[k] = bad
    with np.errstate(invalid="ignore"):
        # the per-row formula, and the stack's block that replaced it
        assert not np.isfinite(per_row_gradient(oracle, x)[k])
        assert not np.isfinite(oracle.stack.gradients([oracle.row], x[None])[0, k])
        with pytest.raises(NonFiniteError, match="oracle query point"):
            oracle.gradient(x)


def test_an_undeclared_oracle_checks_its_query_point():
    oracle = FixedGradientOracle(np.array([1.0, -2.0]))
    assert not oracle.gradient_propagates_non_finite
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteError, match="oracle query point"):
            oracle.gradient(np.array([0.0, bad]))


@pytest.mark.parametrize(
    "make, checks",
    [
        (_sigmoid_with_basis, ["gradient"]),
        (_logistic_with_a_zero_column, ["gradient"]),
        (CubicOracle, ["oracle query point", "gradient"]),
    ],
    ids=["quadratic", "logistic", "cubic"],
)
def test_a_gradient_costs_one_check_when_declared(monkeypatch, make, checks):
    calls = []
    inner = core.require_finite
    monkeypatch.setattr(
        core, "require_finite", lambda *a: calls.append(a[1]) or inner(*a)
    )
    oracle = make()
    oracle.gradient(np.full(oracle.dim, 0.5))
    assert calls == checks


class _BrokenOracle(ClientOracle):
    def __init__(self, value=float("nan")):
        self.dim = 1
        self.bad_value = value

    def values(self, rows, points):
        return np.full(len(rows), self.bad_value)

    def gradients(self, rows, points):
        return np.full(points.shape, np.inf)


class _ConstantOracle(_BrokenOracle):
    """A finite constant value; the gradient is never taken."""


def test_oracle_rejects_nonfinite_outputs():
    for value in (float("nan"), float("inf")):
        with pytest.raises(NonFiniteError):
            _BrokenOracle(value).value(np.zeros(1))
    with pytest.raises(NonFiniteError):
        _BrokenOracle().gradient(np.zeros(1))


def test_an_oracle_without_a_sampler_has_no_stochastic_gradient():
    # the base returns no exact gradient billed as a sample
    take_billed()
    with pytest.raises(UnsupportedStructureError, match="no stochastic gradient"):
        CubicOracle().stochastic_gradient(np.ones(1), RandomStream(0), 1)
    assert take_billed() == 0.0


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


def test_problem_value_sums_the_clients_left_to_right():
    # the built-in sum compensates from Python 3.12 on and gives 0.6 here;
    # plain addition in client order gives 0.6000000000000001 on every version
    problem = DistributedProblem(
        clients=[_ConstantOracle(v) for v in (0.1, 0.2, 0.3)], dim=1
    )
    assert (0.1 + 0.2) + 0.3 == 0.6000000000000001
    assert problem.f(np.zeros(1)) == 0.6000000000000001 / 3


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


def test_a_block_query_of_the_wrong_shape_is_rejected():
    oracles = [FixedGradientOracle(np.ones(2))] * 2
    with pytest.raises(
        DimensionError,
        match=r"^query of shape \(3, 2\) does not fit 2 rows of dimension 2$",
    ):
        core.gradients_of(oracles, np.zeros((3, 2)))


def test_a_value_block_names_its_lowest_non_finite_row():
    oracles = [FixedGradientOracle(np.ones(2))] * 3
    points = np.zeros((3, 2))
    points[1, 0], points[2, 1] = np.inf, np.nan
    with pytest.raises(NonFiniteError, match=r"^non-finite objective value in row 1$"):
        core.values_of(oracles, points)
