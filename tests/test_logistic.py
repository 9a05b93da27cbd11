"""Regularized logistic loss over partitioned sparse data."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.sparse as sp
from scipy.special import expit

from fedlab import (
    ConfigurationError,
    RandomStream,
    dirichlet_partition,
    finite_difference_gradient,
    logistic_problem,
    parse_libsvm,
)
from fedlab.problems import LogisticOracle, SparseDataset
from fedlab.problems.logistic import _spectral_norm_sq


def _toy_dataset(rows: int = 24, dim: int = 6, seed: int = 15):
    rng = RandomStream(seed).generator()
    lines = []
    for _ in range(rows):
        label = "+1" if rng.random() < 0.5 else "-1"
        feats = sorted(rng.choice(dim, size=3, replace=False) + 1)
        parts = [label] + [f"{j}:{rng.standard_normal():.4f}" for j in feats]
        lines.append(" ".join(str(p) for p in parts))
    return parse_libsvm("\n".join(lines) + "\n")


def test_value_at_origin_is_log_two():
    ds = _toy_dataset()
    parts = dirichlet_partition(ds, 3, 1.0, RandomStream(0))
    problem = logistic_problem(parts)
    assert problem.f(np.zeros(problem.dim)) == pytest.approx(np.log(2.0), rel=1e-12)


def test_single_point_gradient_at_origin():
    # one positive row with feature e_1: grad at 0 is -sigmoid(0) * e_1
    ds = parse_libsvm("+1 1:1\n")
    problem = logistic_problem([ds])
    g = problem.grad_f(np.zeros(1))
    assert g[0] == pytest.approx(-0.5, abs=1e-14)


def test_partitioned_objective_equals_pooled():
    ds = _toy_dataset(rows=30)
    pooled = logistic_problem([ds])
    parts = dirichlet_partition(ds, 5, 0.7, RandomStream(1))
    split = logistic_problem(parts)
    rng = RandomStream(8).generator()
    for _ in range(4):
        x = rng.standard_normal(ds.dim)
        assert split.f(x) == pytest.approx(pooled.f(x), rel=1e-12)
        assert np.allclose(split.grad_f(x), pooled.grad_f(x), atol=1e-12)


def test_gradient_matches_finite_differences():
    ds = _toy_dataset()
    problem = logistic_problem(dirichlet_partition(ds, 2, 1.0, RandomStream(4)))
    rng = RandomStream(10).generator()
    for oracle in problem.clients:
        x = rng.standard_normal(problem.dim)
        fd = finite_difference_gradient(oracle.value, x)
        g = oracle.gradient(x)
        assert np.linalg.norm(fd - g) <= 1e-5 * (1 + np.linalg.norm(g))


def test_partition_covers_every_row_once():
    ds = _toy_dataset(rows=40)
    parts = dirichlet_partition(ds, 4, 0.5, RandomStream(2))
    assert sum(p.n_rows for p in parts) == ds.n_rows
    seen = sorted(
        (float(lbl), tuple(row))
        for p in parts
        for lbl, row in zip(p.labels, p.matrix.toarray())
    )
    original = sorted(
        (float(lbl), tuple(row)) for lbl, row in zip(ds.labels, ds.matrix.toarray())
    )
    assert seen == original
    for p in parts:
        assert p.n_rows >= 1
        assert p.dim == ds.dim


def test_partition_matrices_hold_the_parent_rows_in_order():
    ds = _toy_dataset(rows=40)
    # a leading column holding 1 + the row's index names each parent row
    tags = sp.csr_matrix(np.arange(1.0, ds.n_rows + 1)[:, None])
    tagged = SparseDataset(ds.labels, sp.hstack([tags, ds.matrix], format="csr"))
    parent = tagged.matrix
    taken = []
    for p in dirichlet_partition(tagged, 4, 0.5, RandomStream(2)):
        ids = p.matrix[:, 0].toarray().ravel().astype(np.int64) - 1
        assert np.all(np.diff(ids) > 0)
        spans = [slice(parent.indptr[r], parent.indptr[r + 1]) for r in ids]
        assert np.array_equal(p.matrix.data, np.concatenate([parent.data[s] for s in spans]))
        assert np.array_equal(
            p.matrix.indices, np.concatenate([parent.indices[s] for s in spans])
        )
        assert np.array_equal(np.diff(p.matrix.indptr), [s.stop - s.start for s in spans])
        assert np.array_equal(p.labels, tagged.labels[ids])
        taken.extend(ids)
    assert sorted(taken) == list(range(ds.n_rows))


def test_partition_is_deterministic_and_seed_sensitive():
    ds = _toy_dataset(rows=40)
    a = dirichlet_partition(ds, 4, 0.5, RandomStream(2))
    b = dirichlet_partition(ds, 4, 0.5, RandomStream(2))
    c = dirichlet_partition(ds, 4, 0.5, RandomStream(3))
    assert [p.n_rows for p in a] == [p.n_rows for p in b]
    assert all(np.array_equal(x.labels, y.labels) for x, y in zip(a, b))
    assert [p.n_rows for p in a] != [p.n_rows for p in c] or not all(
        np.array_equal(x.labels, y.labels) for x, y in zip(a, c)
    )


def test_partition_validates_inputs():
    ds = _toy_dataset(rows=6)
    with pytest.raises(ConfigurationError):
        dirichlet_partition(ds, 7, 0.5, RandomStream(0))  # more clients than rows
    with pytest.raises(ConfigurationError):
        dirichlet_partition(ds, 0, 0.5, RandomStream(0))
    with pytest.raises(ConfigurationError):
        dirichlet_partition(ds, 2, 0.0, RandomStream(0))


def test_low_alpha_is_more_skewed_than_high_alpha():
    ds = _toy_dataset(rows=200, seed=3)
    skewed = dirichlet_partition(ds, 4, 0.05, RandomStream(5))
    flat = dirichlet_partition(ds, 4, 100.0, RandomStream(5))
    spread = lambda parts: np.std([p.n_rows for p in parts])
    assert spread(skewed) > spread(flat)


def test_stochastic_gradient_is_unbiased():
    ds = _toy_dataset(rows=16)
    problem = logistic_problem([ds], batch_size=4)
    oracle = problem.clients[0]
    x = RandomStream(6).generator().standard_normal(problem.dim)
    full = oracle.gradient(x)
    std = oracle.stochastic_gradient_std(x)
    draws = 4000
    acc = np.zeros(problem.dim)
    stream = RandomStream(31)
    for k in range(draws):
        acc += oracle.stochastic_gradient(x, stream.fork(k))
    mean = acc / draws
    band = 4.0 * std / np.sqrt(draws) + 1e-12
    assert np.all(np.abs(mean - full) <= band)


def test_stochastic_cost_scales_with_batch():
    ds = _toy_dataset(rows=16)
    cheap = logistic_problem([ds], batch_size=4).clients[0]
    exact = logistic_problem([ds]).clients[0]
    assert cheap.stochastic_cost == pytest.approx(0.25)
    assert exact.stochastic_cost == 1.0


def test_smoothness_hint_bounds_gradient_lipschitz():
    ds = _toy_dataset(rows=20)
    problem = logistic_problem([ds])
    oracle = problem.clients[0]
    rng = RandomStream(9).generator()
    for _ in range(10):
        x = rng.standard_normal(problem.dim)
        y = rng.standard_normal(problem.dim)
        lhs = np.linalg.norm(oracle.gradient(x) - oracle.gradient(y))
        assert lhs <= oracle.smoothness_hint * np.linalg.norm(x - y) + 1e-12


def test_problem_metadata():
    ds = _toy_dataset(rows=18)
    parts = dirichlet_partition(ds, 3, 1.0, RandomStream(7))
    problem = logistic_problem(parts)
    assert problem.mu == pytest.approx(1.0 / 18.0)
    assert problem.l_smooth_global <= problem.l_smooth + 1e-12
    with pytest.raises(ConfigurationError):
        logistic_problem([])
    other = parse_libsvm("+1 1:1 9:1\n")
    with pytest.raises(ConfigurationError):
        logistic_problem([ds, other])


@st.composite
def _sparse_clients(draw):
    """A client oracle on a random sparse matrix, and a query point.

    Shapes reach a single row and a single column, and the density reaches
    empty rows, empty columns and an all-empty matrix; entries span six
    orders of magnitude, so a changed summation order changes the bits.
    """
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    rng = RandomStream(draw(st.integers(0, 2**16))).generator()
    dense = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-3, 3, (rows, cols))
    dense[rng.random((rows, cols)) >= density] = 0.0
    part = SparseDataset(
        labels=rng.choice([-1.0, 1.0], size=rows), matrix=sp.csr_matrix(dense)
    )
    oracle = LogisticOracle(part, n_clients=3, total_rows=rows + 5)
    return oracle, rng.standard_normal(rows), 3.0 * rng.standard_normal(cols)


_TRANSPOSE_SETTINGS = settings(max_examples=80, derandomize=True, deadline=None)


@_TRANSPOSE_SETTINGS
@given(_sparse_clients())
def test_cached_transpose_product_is_bitwise_the_transposed_view(case):
    oracle, w, _ = case
    assert np.array_equal(oracle.transpose @ w, oracle.matrix.T @ w)


@_TRANSPOSE_SETTINGS
@given(_sparse_clients())
def test_gradient_is_bitwise_the_transposed_view_formula(case):
    oracle, _, x = case
    a, y = oracle.matrix, oracle.labels
    expected = oracle.loss_scale * (a.T @ (-y * expit(-y * (a @ x)))) + oracle.reg * x
    assert np.array_equal(oracle._gradient(x), expected)


def _power_iteration_on_the_view(a):
    """``_spectral_norm_sq`` with ``a.T`` built on every product."""
    frob_sq = float(a.multiply(a).sum())
    if frob_sq == 0.0:
        return 0.0
    v = np.full(a.shape[1], 1.0 / np.sqrt(a.shape[1]))
    for _ in range(300):
        w = a.T @ (a @ v)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
    return min(float(v @ (a.T @ (a @ v))) * 1.05, frob_sq)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_sparse_clients())
def test_spectral_estimate_is_bitwise_the_transposed_view_loop(case):
    oracle = case[0]
    expected = _power_iteration_on_the_view(oracle.matrix)
    assert _spectral_norm_sq(oracle.matrix, oracle.transpose) == expected
    assert oracle.smoothness_hint == 0.25 * oracle.loss_scale * expected + oracle.reg


@settings(max_examples=10, derandomize=True, deadline=None)
@given(_sparse_clients())
def test_cached_operators_are_read_only(case):
    oracle = case[0]
    for operator in (oracle.matrix, oracle.transpose):
        for arr in (operator.data, operator.indices, operator.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
