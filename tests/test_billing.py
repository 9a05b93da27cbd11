"""The oracle bills itself: each billed primitive, and nothing else, bills.

A block from ``core.gradients_of`` or ``core.hessian_matvecs_of`` bills one
unit per row, and the public ``gradient`` and ``hessian_matvec`` (one-row
blocks) one; ``step_method`` and ``init_method_state`` read what was billed
inside their window.  Here ``fedred_gd``'s steps are checked against an
independent count of the leaf primitives (:func:`conftest.count_raw_work`)
and against the rows they ask for, and wrappers and measurement are checked
to bill nothing of their own.  Every method's and solver's steps are
checked in ``tests/test_harness.py``.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlab import (
    MethodConfig,
    RandomStream,
    SurrogateOracle,
    gen_quadratic_problem,
    init_method_state,
    reference_optimum,
    step_method,
)
from fedlab.core import take_billed

from conftest import count_raw_work, hetero_pair, logistic_small


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.integers(1, 5), m=st.integers(1, 7))
def test_fedred_gd_steps_bill_a_row_per_client_and_refresh(seed, n, m):
    problem = gen_quadratic_problem(
        seed, n, m, 3, max_norm=4.0, min_eig=1.0, target_delta=1.0
    )
    cfg = MethodConfig(method="fedred_gd", lam=1.0, eta=2.0, p=0.5)
    with pytest.MonkeyPatch.context() as monkeypatch:
        count = count_raw_work(monkeypatch)
        server, clients, _ = init_method_state(problem, cfg, np.zeros(problem.dim))
        stream = RandomStream(seed)
        stale = True  # the first step refreshes the variates
        for _ in range(6):
            count[0] = 0.0
            server, clients, rec = step_method(problem, server, clients, cfg, stream)
            # n refresh gradients after a communication, then n local ones
            expected = 2.0 * n if stale else float(n)
            assert rec.grad_evals == count[0] == expected
            stale = rec.communicated


# ------------------------------------------------- wrappers and measurement


def test_a_public_surrogate_gradient_bills_its_base_once():
    base = hetero_pair().clients[0]
    surrogate = SurrogateOracle(
        [base], linear_shift=np.ones(4), prox_terms=((0.5, np.zeros(4)),)
    )
    take_billed()
    g = surrogate.gradient(np.ones((1, 4)))
    assert take_billed() == 1.0
    assert np.array_equal(g, surrogate._gradients(np.ones((1, 4))))


def test_values_blocks_and_the_reference_bill_nothing():
    problem = logistic_small()
    x = RandomStream(3).generator().standard_normal(problem.dim)
    take_billed()
    for client in problem.clients:
        client.value(x)
    problem.values_at(x), problem.gradients_at(x)
    problem.f(x), problem.grad_f(x)
    reference_optimum(problem)
    assert take_billed() == 0.0
