"""Federated optimization methods built around client drift correction.

All methods share one state layout, client iterates ``x_i`` and control
variates ``h_i`` as two (n, d) blocks (row ``i`` for client ``i``) plus a
server reference, and one grad-diff refresh helper.  Steps rebind the
blocks, never write into them, and no row shares memory with the reference.

``dane_plus``, ``fedred`` and ``fedprox`` share one kernel,
:func:`anchored_step`: clients minimize
``f_i(x) - <h_i, x> + eta/2 ||x - x_i||^2 + lam/2 ||x - ref||^2`` and, when
a Bernoulli(p) coin says so, the solutions are aggregated (mean, or one
picked uniformly at random) into a new reference.  Per method:

* ``dane_plus`` starts from the reference with grad-diff variates,
  ``eta = 0``, ``p = 1``;
* ``fedred`` starts from the client iterate with grad-diff variates; with
  ``p = 1`` and ``eta = 0`` it is ``dane_plus`` (bitwise, under the exact
  solver);
* ``fedprox`` starts from the reference without variates, ``eta = 0``,
  ``p = 1``, so its fixed point is not the optimum.

``fedred_gd`` linearizes the local objective at the client iterate, giving
``x' = (eta x_i + lam ref - (g_i - h_i)) / (eta + lam)``; ``gd``,
``scaffold`` and ``scaffnew`` are gradient-step baselines.

A method is declared in one place, its row of ``_METHODS``: the step, the
optional :class:`MethodConfig` fields it reads (any other field set away
from its default is rejected) and its ``anchored_step`` preset.

Control-variate refreshes are performed lazily: a refresh is required
whenever a communication moved the reference since the last one (the
server stamps each refresh with its communication count), and it executes
(n full gradients) at the start of the next step that consumes the
variates.  The values consumed are identical to refreshing at
communication time; the lazy placement keeps per-step accounting aligned
across the round-based and coin-based methods.

No step counts its own work: each billed primitive bills itself, and
:func:`step_method` and :func:`init_method_state` read the bill of their
window (see :func:`fedlab.core.take_billed`).
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    DistributedProblem,
    RandomStream,
    Vector,
    as_vector,
    gradients_of,
    require_integer,
    take_billed,
)
from .local_solvers import (
    LocalSpec,
    SolveReport,
    StoppingRule,
    SurrogateOracle,
    schedule_e_r,
    solve_exact_quadratic,
    solve_fgd,
    solve_gd,
)

AVERAGING = ("avg", "rand")

# stream sub-labels within one step
_LBL_THETA = 0
_LBL_PICK = 1


@dataclass
class ClientState:
    """Every client's iterate ``x`` and control variate ``h``, as (n, d) blocks."""

    x: np.ndarray
    h: np.ndarray


@dataclass
class ServerState:
    """Reference point plus progress counters.

    ``variates_at`` is ``comm_events`` at the last grad-diff refresh (-1
    before the first); the variates are stale whenever the two differ.
    """

    reference: Vector
    iteration: int = 0
    comm_events: int = 0
    variates_at: int = -1


@dataclass(frozen=True)
class MethodConfig:
    """Parameters of one method run.

    ``lam`` couples clients to the server reference, ``eta`` is the second
    proximal weight for the doubly regularized methods and doubles as the
    step size for gd/scaffold/scaffnew, ``p`` is the communication
    probability, and ``mu`` the strong-convexity modulus that a
    ``scheduled`` local rule reads.
    """

    method: str
    lam: float = 0.0
    eta: float = 0.0
    p: float = 1.0
    mu: float = 0.0
    averaging: str = "avg"
    local: LocalSpec = LocalSpec()
    local_steps: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}")
        # every range test is written so that NaN, which fails each
        # comparison, fails it too
        for name in ("lam", "eta", "mu"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ConfigurationError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
        if not 0.0 < self.p <= 1.0:
            raise ConfigurationError("p must lie in (0, 1]")
        if self.averaging not in AVERAGING:
            raise ConfigurationError(f"unknown averaging {self.averaging!r}")
        if self.method == "fedred" and self.eta != 0.0 and self.eta < self.lam:
            # eta = 0 is the exact degeneration to dane_plus and stays legal
            raise ConfigurationError("fedred requires eta >= lam (or eta = 0)")
        if self.method == "fedred_gd" and self.eta + self.lam <= 0.0:
            raise ConfigurationError("fedred_gd requires eta + lam > 0")
        if self.local.rule.kind == "scheduled" and self.lam <= 0.0:
            raise ConfigurationError("a scheduled local rule needs lam > 0")
        if self.method in ("gd", "scaffold", "scaffnew") and self.eta <= 0.0:
            raise ConfigurationError(f"{self.method} needs a positive step eta")
        if not self.local_steps >= 1:
            raise ConfigurationError("local_steps must be >= 1")
        require_integer(self.local_steps, "local_steps")
        # a field set away from its default (the class attribute) that the
        # method's row does not list is rejected, not ignored; mu is read
        # only under a scheduled local rule
        reads = _METHODS[self.method].reads
        scheduled = self.local.rule.kind == "scheduled"
        for name in ("p", "averaging", "eta", "local", "mu", "local_steps", "lam"):
            value = getattr(self, name)
            read = name in reads and (name != "mu" or scheduled)
            if value != getattr(MethodConfig, name) and not read:
                raise ConfigurationError(f"{self.method} would ignore {name}={value!r}")


@dataclass
class StepRecord:
    """What one step/round did, for accounting and certificates.

    ``grad_evals`` is what :func:`step_method` billed for the step.
    ``pick_index`` is the client adopted by a rand-averaged communication;
    it is ``None`` on silent steps and under mean averaging.
    """

    iteration: int
    rounds: int
    communicated: bool
    local_steps: int
    grad_evals: float = 0.0
    pick_index: int | None = None
    e_r: float | None = None
    premise: list[tuple[float, float]] | None = None


def control_variate_grad_diff(
    problem: DistributedProblem, point: Vector
) -> np.ndarray:
    """Grad-diff variates ``h_i = grad f_i(point) - grad f(point)``, one row each.

    Costs n gradient evaluations; the variates average to zero exactly up
    to floating-point cancellation.
    """
    grads = problem.client_gradients(point)
    return grads - DistributedProblem.mean_gradient(grads)


def init_method_state(
    problem: DistributedProblem, cfg: MethodConfig, x0
) -> tuple[ServerState, ClientState, float]:
    """Initial server/client states and the gradient work billed by setup.

    Control variates start at zero (mean zero trivially) except for
    scaffnew, whose variates are seeded with grad-diff at the start point
    so that its stationarity fixed point holds from the first step.
    """
    x0 = as_vector(x0)
    if x0.shape[0] != problem.dim:
        raise ConfigurationError("start point dimension mismatch")
    take_billed()
    if cfg.method == "scaffnew":
        h = control_variate_grad_diff(problem, x0)
    else:
        h = np.zeros((problem.n, problem.dim))
    clients = ClientState(x=np.tile(x0, (problem.n, 1)), h=h)
    server = ServerState(reference=x0.copy())
    return server, clients, take_billed()


def _ensure_fresh_variates(
    problem: DistributedProblem, server: ServerState, clients: ClientState
) -> None:
    """Refresh grad-diff variates at the current reference if stale."""
    if server.variates_at != server.comm_events:
        clients.h = control_variate_grad_diff(problem, server.reference)
        server.variates_at = server.comm_events


def draw_pick(step_stream: RandomStream, n: int) -> int:
    """The client that rand averaging adopts at the step of ``step_stream``."""
    return int(step_stream.fork(_LBL_PICK).generator().integers(n))


def _draw_theta(cfg: MethodConfig, step_stream: RandomStream) -> bool:
    if cfg.p >= 1.0:
        return True
    return bool(step_stream.fork(_LBL_THETA).generator().random() < cfg.p)


def _resolve_rule(cfg: MethodConfig, round_index: int) -> tuple[StoppingRule, float | None]:
    rule = cfg.local.rule
    if rule.kind == "scheduled":
        e_r = schedule_e_r(round_index, cfg.lam, cfg.mu)
        return StoppingRule("rel_grad", tol=e_r, max_steps=rule.max_steps), e_r
    return rule, None if rule.kind == "fixed_steps" else rule.tol


def _solve_local(
    cfg: MethodConfig, surrogate: SurrogateOracle, start: np.ndarray, rule: StoppingRule
) -> SolveReport:
    # looked up at call time, so that wrappers patched onto this module see every solve
    spec = cfg.local
    if spec.solver == "exact":
        return solve_exact_quadratic(surrogate)
    solve = solve_gd if spec.solver == "gd" else solve_fgd
    return solve(
        surrogate, start, rule, step=spec.step, require_decrease=spec.check_decrease
    )


def _communicate(
    server: ServerState,
    clients: ClientState,
    cfg: MethodConfig,
    step_stream: RandomStream,
    solutions: np.ndarray,
    **record,
) -> StepRecord:
    """Draw the coin; move the clients; aggregate on communication.

    A communicating step adopts the mean of the solutions, or under rand
    averaging one client's solution drawn by :func:`draw_pick`; a silent
    step draws no pick.  ``solutions`` is a fresh (n, d) block; ``record``
    holds the remaining :class:`StepRecord` fields.
    """
    theta = _draw_theta(cfg, step_stream)
    clients.x = solutions
    pick = None
    if theta:
        if cfg.averaging == "rand":
            pick = draw_pick(step_stream, len(clients.x))
            server.reference = clients.x[pick].copy()
        else:
            server.reference = np.mean(clients.x, axis=0)
        server.comm_events += 1
    server.iteration += 1
    return StepRecord(
        iteration=server.iteration,
        rounds=server.comm_events,
        communicated=theta,
        pick_index=pick,
        **record,
    )


def anchored_step(
    problem: DistributedProblem,
    server: ServerState,
    clients: ClientState,
    cfg: MethodConfig,
    stream: RandomStream,
) -> tuple[ServerState, ClientState, StepRecord]:
    """One anchored-proximal step of ``dane_plus``, ``fedred`` or ``fedprox``.

    Every client minimizes
    ``f_i(x) - <h_i, x> + eta/2 ||x - x_i||^2 + lam/2 ||x - ref||^2``; the
    method's preset picks the start point and whether ``h_i`` is used, and
    ``eta``, ``p`` and ``averaging`` come from ``cfg``.  The n subproblems
    are the rows of one :class:`SurrogateOracle`, solved in one call.
    """
    from_iterate, corrected = _METHODS[cfg.method].preset
    step_stream = stream.fork(server.iteration)
    if corrected:
        _ensure_fresh_variates(problem, server, clients)
    rule, e_r = _resolve_rule(cfg, server.comm_events)
    ref = server.reference
    prox_terms = ((cfg.lam, ref),)
    if cfg.eta > 0.0:
        prox_terms = ((cfg.eta, clients.x),) + prox_terms
    surrogate = SurrogateOracle(
        problem.clients,
        linear_shift=-clients.h if corrected else None,
        prox_terms=prox_terms,
    )
    report = _solve_local(cfg, surrogate, clients.x if from_iterate else ref, rule)
    moved = report.solution - ref
    premise = list(
        zip(report.final_grad_norm.tolist(), np.sqrt(np.vecdot(moved, moved)).tolist())
    )
    record = _communicate(
        server, clients, cfg, step_stream, report.solution,
        local_steps=report.steps_taken, e_r=e_r, premise=premise,
    )
    return server, clients, record


def fedred_gd_step(
    problem: DistributedProblem,
    server: ServerState,
    clients: ClientState,
    cfg: MethodConfig,
    stream: RandomStream,
) -> tuple[ServerState, ClientState, StepRecord]:
    """Closed-form doubly regularized step on the linearized local model."""
    step_stream = stream.fork(server.iteration)
    _ensure_fresh_variates(problem, server, clients)
    ref = server.reference
    total = cfg.eta + cfg.lam
    coeffs = np.array([cfg.eta / total, cfg.lam / total, -1.0 / total])
    grads = gradients_of(problem.clients, clients.x)
    # rows [x_i, ref, g_i - h_i]: numpy runs one gemv per row, the product
    # coeffs.dot(row) makes alone, so each solution is bitwise the per-row one
    terms = np.empty((problem.n, 3, problem.dim))
    terms[:, 0] = clients.x
    terms[:, 1] = ref
    np.subtract(grads, clients.h, out=terms[:, 2])
    solutions = np.matmul(coeffs, terms)
    record = _communicate(server, clients, cfg, step_stream, solutions, local_steps=1)
    return server, clients, record


def baseline_gd_round(
    problem: DistributedProblem,
    server: ServerState,
    clients: ClientState,
    cfg: MethodConfig,
    stream: RandomStream,
) -> tuple[ServerState, ClientState, StepRecord]:
    """Centralized gradient descent: one full gradient per round."""
    grad = problem.mean_gradient(problem.client_gradients(server.reference))
    server.reference = server.reference - cfg.eta * grad
    clients.x = np.tile(server.reference, (problem.n, 1))
    server.iteration += 1
    server.comm_events += 1
    record = StepRecord(
        iteration=server.iteration,
        rounds=server.comm_events,
        communicated=True,
        local_steps=1,
    )
    return server, clients, record


def baseline_scaffold_round(
    problem: DistributedProblem,
    server: ServerState,
    clients: ClientState,
    cfg: MethodConfig,
    stream: RandomStream,
) -> tuple[ServerState, ClientState, StepRecord]:
    """Variance-reduced local steps: K corrected gradient steps, then average.

    Every round communicates, so the variates are refreshed at each round's
    reference.  Each of the K steps takes every client's gradient at its
    own row of the (n, d) block.
    """
    _ensure_fresh_variates(problem, server, clients)
    x = server.reference
    for _ in range(cfg.local_steps):
        x = x - cfg.eta * (gradients_of(problem.clients, x) - clients.h)
    record = _communicate(
        server, clients, cfg, stream.fork(server.iteration), x,
        local_steps=cfg.local_steps * problem.n,
    )
    return server, clients, record


def baseline_scaffnew_step(
    problem: DistributedProblem,
    server: ServerState,
    clients: ClientState,
    cfg: MethodConfig,
    stream: RandomStream,
) -> tuple[ServerState, ClientState, StepRecord]:
    """Proximal-skip step: corrected gradient step, occasional average.

    On communication the variates move by ``(p/gamma)(mean - x_hat_i)``, a
    telescoping update that keeps their mean at zero.
    """
    gamma = cfg.eta
    grads = gradients_of(problem.clients, clients.x)
    hats = clients.x - gamma * (grads - clients.h)
    record = _communicate(
        server, clients, cfg, stream.fork(server.iteration), hats, local_steps=1
    )
    if record.communicated:
        clients.h = clients.h + (cfg.p / gamma) * (server.reference - clients.x)
        clients.x = np.tile(server.reference, (problem.n, 1))
    return server, clients, record


def step_method(problem, server, clients, cfg, stream):
    """Advance the configured method by one step/round, billing its work."""
    take_billed()
    server, clients, record = _METHODS[cfg.method].step(
        problem, server, clients, cfg, stream
    )
    record.grad_evals = take_billed()
    return server, clients, record


def suggest_parameters(
    method: str,
    report,
    regime: str,
    *,
    l_smooth: float,
    mu: float = 0.0,
) -> MethodConfig:
    """Fill lam/eta/p from the dissimilarity report per the known rules.

    Convex/strongly convex regimes follow the practical coupling
    ``lam = p * eta`` with the communication probability taken from the
    corresponding rate statement (for the doubly regularized methods the
    probability has the order ``delta / L``); the nonconvex rules are
    emitted verbatim.  The nonconvex linearized rule
    (``lam = delta_B, p = delta_B/L``) intentionally breaks the practical
    coupling because its guarantee is stated for that exact triple.  ``mu``
    enters the sc formulas; only the convex ``dane_plus`` rule, whose
    ``scheduled`` local rule reads it, stores it in the config.
    """
    if regime not in ("sc", "cvx", "ncvx"):
        raise ConfigurationError(f"unknown regime {regime!r}")
    # written so that NaN, which fails each comparison, fails them too
    if l_smooth is None or not l_smooth > 0.0:
        raise ConfigurationError(f"l_smooth must be positive, got {l_smooth!r}")
    if not mu >= 0.0:
        raise ConfigurationError(f"mu must be non-negative, got {mu!r}")
    if regime == "sc" and mu <= 0.0:
        raise ConfigurationError("the sc regime needs mu > 0")
    mu = mu if regime == "sc" else 0.0

    if method == "gd":
        return MethodConfig(method="gd", eta=1.0 / l_smooth)
    if method == "scaffnew":
        if regime != "sc":
            raise ConfigurationError("scaffnew rule is stated for the sc regime")
        return MethodConfig(
            method="scaffnew", eta=1.0 / l_smooth, p=float(np.sqrt(mu / l_smooth))
        )
    if method not in ("dane_plus", "fedred", "fedred_gd"):
        raise ConfigurationError(f"no parameter rule for method {method!r}")

    if regime == "ncvx":
        delta_b = report.delta_b
        if delta_b <= 0.0:
            raise ConfigurationError("nonconvex rule needs delta_b > 0")
        checked_gd = dict(solver="gd", check_decrease=True)
        if method == "dane_plus":
            return MethodConfig(
                method="dane_plus",
                lam=2.0 * delta_b,
                averaging="rand",
                local=LocalSpec(rule=StoppingRule("fixed_steps", steps=200), **checked_gd),
            )
        if method == "fedred":
            return MethodConfig(
                method="fedred",
                lam=delta_b,
                eta=4.0 * delta_b,
                p=0.25,
                averaging="rand",
                local=LocalSpec(rule=StoppingRule("abs_grad", tol=1e-9), **checked_gd),
            )
        return MethodConfig(
            method="fedred_gd",
            lam=delta_b,
            eta=6.0 * l_smooth,
            p=min(1.0, delta_b / l_smooth),
            averaging="rand",
        )

    delta_a = report.delta_a
    if delta_a <= 0.0:
        raise ConfigurationError("convex rule needs delta_a > 0")
    if method == "dane_plus":
        return MethodConfig(
            method="dane_plus",
            lam=2.0 * delta_a,
            mu=mu,
            local=LocalSpec(solver="gd", rule=StoppingRule("scheduled")),
        )
    if method == "fedred":
        eta = max(l_smooth, delta_a)
        p = (delta_a + 0.5 * mu) / (eta + 0.5 * mu)
        return MethodConfig(
            method="fedred", lam=p * eta, eta=eta, p=p, local=LocalSpec(solver="exact")
        )
    if l_smooth <= 0.5 * mu:
        raise ConfigurationError("eta = l_smooth must exceed mu/2")
    p = min(1.0, (delta_a + 0.5 * mu) / (l_smooth - 0.5 * mu))
    return MethodConfig(method="fedred_gd", lam=p * l_smooth, eta=l_smooth, p=p)


# per method: its step, the optional fields it reads, and anchored_step's
# preset (start the local solve at the client iterate, use control variates)
_Method = namedtuple("_Method", "step reads preset")
_METHODS = {
    "dane_plus": _Method(
        anchored_step, ("lam", "averaging", "local", "mu"), (False, True)
    ),
    "fedred": _Method(
        anchored_step, ("lam", "eta", "p", "averaging", "local", "mu"), (True, True)
    ),
    "fedred_gd": _Method(fedred_gd_step, ("lam", "eta", "p", "averaging"), None),
    "gd": _Method(baseline_gd_round, ("eta",), None),
    "scaffold": _Method(baseline_scaffold_round, ("eta", "local_steps"), None),
    "scaffnew": _Method(baseline_scaffnew_step, ("eta", "p"), None),
    "fedprox": _Method(anchored_step, ("lam", "local", "mu"), (False, False)),
}
METHODS = tuple(_METHODS)
