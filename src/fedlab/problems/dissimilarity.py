"""Hessian-dissimilarity constants between client objectives.

For client deviations ``h_i = f_i - f`` the two constants of interest are

* ``delta_A``: smallest value with
  ``(1/n) sum_i ||grad h_i(x) - grad h_i(y)||^2 <= delta_A^2 ||x - y||^2``,
* ``delta_B``: smallest value bounding each client individually,
  ``||grad h_i(x) - grad h_i(y)|| <= delta_B ||x - y||``.

For quadratics with deviation matrices ``D_i = mean_j A_ij - global mean``
these are operator-norm quantities: the exact averaged constant is
``sqrt(lambda_max((1/n) sum_i D_i^2))`` and the per-client constant is
``max_i ||D_i||``.  A cruder norm-averaged variant,
``sqrt((1/n) sum_i ||D_i||^2)``, is also reported since several parameter
rules are stated in terms of it; it always lies between the other two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import ConfigurationError, DistributedProblem, RandomStream, require_integer
from .quadratic import QuadraticFamily

EXACT = "exact"
PAPER_FORMULA = "paper_formula"
SAMPLED = "sampled"


@dataclass(frozen=True)
class DissimilarityReport:
    """Achieved dissimilarity constants and how they were computed."""

    delta_a: float
    delta_b: float
    method: str

    def __post_init__(self):
        if self.method not in (EXACT, PAPER_FORMULA, SAMPLED):
            raise ConfigurationError(f"unknown dissimilarity method {self.method!r}")
        for name, value in (("delta_a", self.delta_a), ("delta_b", self.delta_b)):
            if not value >= 0.0:
                raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
        if self.delta_a > self.delta_b * (1.0 + 1e-12) + 1e-15:
            raise ConfigurationError(
                "averaged constant cannot exceed the per-client constant"
            )

    def as_dict(self) -> dict:
        return {
            "delta_a": self.delta_a,
            "delta_b": self.delta_b,
            "method": self.method,
        }


def _family_of(source) -> QuadraticFamily:
    if isinstance(source, QuadraticFamily):
        return source
    if isinstance(source, DistributedProblem):
        if isinstance(source.quadratic, QuadraticFamily):
            return source.quadratic
        raise ConfigurationError("problem carries no quadratic structure")
    raise ConfigurationError(
        "expected a QuadraticFamily or a problem with quadratic structure"
    )


def delta_exact_quadratic(source) -> tuple[DissimilarityReport, DissimilarityReport]:
    """Exact constants for a quadratic family.

    Returns ``(exact, paper_formula)`` reports; the per-client constant
    ``delta_b`` is identical in both.  Shared-basis families are handled in
    closed form on the eigenvalues; dense families go through symmetric
    eigendecompositions of the deviation matrices.
    """
    family = _family_of(source)
    if family.n == 1:
        zero = DissimilarityReport(0.0, 0.0, EXACT)
        return zero, DissimilarityReport(0.0, 0.0, PAPER_FORMULA)
    if family.spectral:
        dev = family.deviation_spectra()  # (n, d)
        mean_sq = np.mean(dev * dev, axis=0)
        delta_a_exact = float(np.sqrt(np.max(mean_sq)))
        client_norms = np.max(np.abs(dev), axis=1)
    else:
        hessians = family.mean_hessians()
        devs = hessians - hessians.mean(axis=0)
        mean_sq_op = np.mean(np.einsum("ikl,ilm->ikm", devs, devs), axis=0)
        delta_a_exact = float(np.sqrt(np.max(np.linalg.eigvalsh(mean_sq_op))))
        client_norms = np.array(
            [np.max(np.abs(np.linalg.eigvalsh(dm))) for dm in devs]
        )
    delta_b = float(np.max(client_norms))
    delta_a_avg = float(np.sqrt(np.mean(client_norms**2)))
    return (
        DissimilarityReport(delta_a_exact, delta_b, EXACT),
        DissimilarityReport(delta_a_avg, delta_b, PAPER_FORMULA),
    )


def delta_sampled(
    problem: DistributedProblem, n_pairs: int, stream: RandomStream
) -> DissimilarityReport:
    """Sampled lower estimates of the dissimilarity constants.

    Draws ``n_pairs`` standard-normal point pairs (pair ``t`` always comes
    from the fork labelled ``t``, so enlarging ``n_pairs`` only appends new
    pairs) and maximizes the finite-difference ratios over them.  The
    estimates never exceed the exact constants.
    """
    require_integer(n_pairs, "n_pairs")
    if n_pairs < 1:
        raise ConfigurationError("need at least one sampled pair")
    d = problem.dim
    delta_a_sq = 0.0
    delta_b = 0.0
    for t in range(n_pairs):
        rng = stream.fork(t).generator()
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        diff = x - y
        gap = math.sqrt(diff.dot(diff))
        if gap == 0.0:
            continue
        gx = problem.gradients_at(x)
        gy = problem.gradients_at(y)
        devs = (gx - DistributedProblem.mean_gradient(gx)) - (
            gy - DistributedProblem.mean_gradient(gy)
        )
        sq_sum = 0.0
        # one ddot per row: an axis-wise norm would sum in another order
        for norm in np.sqrt(np.vecdot(devs, devs)).tolist():
            sq_sum += norm * norm
            delta_b = max(delta_b, norm / gap)
        delta_a_sq = max(delta_a_sq, sq_sum / problem.n / (gap * gap))
    return DissimilarityReport(float(np.sqrt(delta_a_sq)), delta_b, SAMPLED)
