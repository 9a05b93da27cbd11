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

* ``dane_plus`` starts from the reference with grad-diff or recursive
  variates, ``eta = 0``, ``p = 1``;
* ``fedred`` starts from the client iterate with grad-diff variates; with
  ``p = 1`` and ``eta = 0`` it is ``dane_plus`` (bitwise, under the exact
  solver);
* ``fedprox`` starts from the reference without variates, ``eta = 0``,
  ``p = 1``, so its fixed point is not the optimum.

``fedred_gd`` linearizes the local objective at the client iterate, giving
``x' = (eta x_i + lam ref - (g_i - h_i)) / (eta + lam)``; ``gd``,
``scaffold`` and ``scaffnew`` are gradient-step baselines.
:class:`MethodConfig` rejects any field that the method would ignore.

Control-variate refreshes are performed lazily: a refresh is required
whenever a communication moved the reference since the last one (the
server stamps each refresh with its communication count), and it executes
(costing n full gradient evaluations) at the start of the next step that
consumes the variates.  The values consumed are identical to refreshing at
communication time; the lazy placement keeps per-step accounting aligned
across the round-based and coin-based methods.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    DistributedProblem,
    RandomStream,
    Vector,
    as_vector,
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

METHODS = (
    "dane_plus",
    "fedred",
    "fedred_gd",
    "gd",
    "scaffold",
    "scaffnew",
    "fedprox",
)
AVERAGING = ("avg", "rand")
CONTROL_VARIATES = ("grad_diff", "recursive")

# stream sub-labels within one step
_LBL_THETA = 0
_LBL_PICK = 1
_LBL_BATCH = 2


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
    probability, ``mu`` the strong-convexity modulus that a ``scheduled``
    local rule reads, ``a`` the nonconvex reference-coupling multiplier, and
    ``cv_strength`` the recursive control-variate gain.
    """

    method: str
    lam: float = 0.0
    eta: float = 0.0
    p: float = 1.0
    mu: float = 0.0
    a: float = 2.0
    averaging: str = "avg"
    control_variate: str = "grad_diff"
    cv_strength: float = 0.0
    local: LocalSpec = LocalSpec()
    stochastic: bool = False
    local_steps: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.lam < 0.0 or self.eta < 0.0 or self.mu < 0.0:
            raise ConfigurationError("lam, eta, mu must be non-negative")
        if not 0.0 < self.p <= 1.0:
            raise ConfigurationError("p must lie in (0, 1]")
        if self.a <= 1.0:
            raise ConfigurationError("a must exceed 1")
        if self.averaging not in AVERAGING:
            raise ConfigurationError(f"unknown averaging {self.averaging!r}")
        if self.control_variate not in CONTROL_VARIATES:
            raise ConfigurationError(
                f"unknown control variate {self.control_variate!r}"
            )
        if self.control_variate == "recursive" and self.method != "dane_plus":
            raise ConfigurationError(
                "the recursive control variate is only defined for dane_plus"
            )
        if self.method == "fedred" and self.eta != 0.0 and self.eta < self.lam:
            # eta = 0 is the exact degeneration to dane_plus and stays legal
            raise ConfigurationError("fedred requires eta >= lam (or eta = 0)")
        if self.method == "fedred_gd" and self.eta + self.lam <= 0.0:
            raise ConfigurationError("fedred_gd requires eta + lam > 0")
        if self.local.rule.kind == "scheduled" and self.lam <= 0.0:
            raise ConfigurationError("a scheduled local rule needs lam > 0")
        if self.method in ("gd", "scaffold", "scaffnew") and self.eta <= 0.0:
            raise ConfigurationError(f"{self.method} needs a positive step eta")
        if self.local_steps < 1:
            raise ConfigurationError("local_steps must be >= 1")
        # fields these methods have no use for are rejected, not ignored
        m = self.method
        ignored = (
            ("p", self.p != 1.0 and m in ("dane_plus", "fedprox", "scaffold", "gd")),
            ("averaging", self.averaging != "avg" and m in ("fedprox", "scaffold", "scaffnew", "gd")),
            ("eta", self.eta != 0.0 and m in ("dane_plus", "fedprox")),
            ("local", self.local != LocalSpec() and m not in _ANCHORED_PRESETS),
            ("mu", self.mu != 0.0 and self.local.rule.kind != "scheduled"),
            ("local_steps", self.local_steps != 1 and m != "scaffold"),
            ("stochastic", self.stochastic and m != "fedred_gd"),
            ("cv_strength", self.cv_strength != 0.0 and self.control_variate != "recursive"),
        )
        for name, unused in ignored:
            if unused:
                raise ConfigurationError(f"{m} would ignore {name}={getattr(self, name)!r}")


@dataclass
class StepRecord:
    """What one step/round did, for accounting and certificates."""

    iteration: int
    rounds: int
    communicated: bool
    grad_evals: float
    local_steps: int
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


def control_variate_recursive_update(
    h: np.ndarray, x_global: Vector, x: np.ndarray, m: float
) -> np.ndarray:
    """Recursive variate update ``h_i' = m (x_global - x_i) + h_i`` for every row.

    With mean aggregation the zero-mean property is preserved because the
    new reference is the mean of the client solutions.
    """
    return m * (x_global - x) + h


def init_method_state(
    problem: DistributedProblem, cfg: MethodConfig, x0
) -> tuple[ServerState, ClientState, float]:
    """Initial server/client states and the gradient cost of setup.

    Control variates start at zero (mean zero trivially) except for
    scaffnew, whose variates are seeded with grad-diff at the start point
    so that its stationarity fixed point holds from the first step.
    """
    x0 = as_vector(x0)
    if x0.shape[0] != problem.dim:
        raise ConfigurationError("start point dimension mismatch")
    init_evals = 0.0
    if cfg.method == "scaffnew":
        h = control_variate_grad_diff(problem, x0)
        init_evals = float(problem.n)
    else:
        h = np.zeros((problem.n, problem.dim))
    clients = ClientState(x=np.tile(x0, (problem.n, 1)), h=h)
    server = ServerState(reference=x0.copy())
    return server, clients, init_evals


def _ensure_fresh_variates(
    problem: DistributedProblem, server: ServerState, clients: ClientState
) -> float:
    """Refresh grad-diff variates at the current reference if stale."""
    if server.variates_at == server.comm_events:
        return 0.0
    clients.h = control_variate_grad_diff(problem, server.reference)
    server.variates_at = server.comm_events
    return float(problem.n)


def _pick_index(cfg: MethodConfig, step_stream: RandomStream, n: int) -> int | None:
    if cfg.averaging != "rand":
        return None
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
    cfg: MethodConfig, surrogate: SurrogateOracle, start: Vector, rule: StoppingRule
) -> SolveReport:
    # looked up at call time, so that wrappers patched onto this module see every solve
    spec = cfg.local
    if spec.solver == "exact":
        return solve_exact_quadratic(surrogate, start)
    solve = solve_gd if spec.solver == "gd" else solve_fgd
    return solve(
        surrogate, start, rule, step=spec.step, require_decrease=spec.check_decrease
    )


# per method: (start the local solve at the client iterate, use control variates)
_ANCHORED_PRESETS = {
    "dane_plus": (False, True),
    "fedred": (True, True),
    "fedprox": (False, False),
}


def _communicate(
    server: ServerState,
    clients: ClientState,
    cfg: MethodConfig,
    step_stream: RandomStream,
    solutions: np.ndarray | list[Vector],
    **record,
) -> StepRecord:
    """Draw the pick, then the coin; move the clients; aggregate on communication.

    ``solutions`` is a fresh (n, d) block or a list of its rows; ``record``
    holds the remaining :class:`StepRecord` fields.
    """
    pick = _pick_index(cfg, step_stream, len(solutions))
    theta = _draw_theta(cfg, step_stream)
    clients.x = np.asarray(solutions)
    if theta:
        server.reference = (
            np.mean(clients.x, axis=0) if pick is None else clients.x[pick].copy()
        )
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
    ``eta``, ``p`` and ``averaging`` come from ``cfg``.
    """
    from_iterate, corrected = _ANCHORED_PRESETS[cfg.method]
    step_stream = stream.fork(server.iteration)
    evals = 0.0
    if corrected and cfg.control_variate == "grad_diff":
        evals += _ensure_fresh_variates(problem, server, clients)
    rule, e_r = _resolve_rule(cfg, server.comm_events)
    ref = server.reference
    solutions = []
    premise = []
    local_steps = 0
    for oracle, x, h in zip(problem.clients, clients.x, clients.h):
        prox_terms = ((cfg.lam, ref),)
        if cfg.eta > 0.0:
            prox_terms = ((cfg.eta, x),) + prox_terms
        surrogate = SurrogateOracle(
            oracle, linear_shift=-h if corrected else None, prox_terms=prox_terms
        )
        report = _solve_local(cfg, surrogate, x if from_iterate else ref, rule)
        solutions.append(report.solution)
        evals += report.grad_evals
        local_steps += report.steps_taken
        moved = report.solution - ref
        premise.append((report.final_grad_norm, math.sqrt(moved.dot(moved))))
    record = _communicate(
        server, clients, cfg, step_stream, solutions, grad_evals=evals,
        local_steps=local_steps, e_r=e_r, premise=premise,
    )
    if record.communicated and cfg.control_variate == "recursive":
        clients.h = control_variate_recursive_update(
            clients.h, server.reference, clients.x, cfg.cv_strength
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
    evals = _ensure_fresh_variates(problem, server, clients)
    ref = server.reference
    total = cfg.eta + cfg.lam
    coeffs = np.array([cfg.eta / total, cfg.lam / total, -1.0 / total])
    solutions = []
    for i, (oracle, x, h) in enumerate(zip(problem.clients, clients.x, clients.h)):
        if cfg.stochastic:
            batch_stream = step_stream.fork(_LBL_BATCH).fork(i)
            g = oracle.stochastic_gradient(x, batch_stream)
            evals += oracle.stochastic_cost
        else:
            g = oracle.gradient(x)
            evals += 1.0
        # one row at a time: a batched product could sum in another order
        solutions.append(coeffs.dot(np.stack([x, ref, g - h])))
    record = _communicate(
        server, clients, cfg, step_stream, solutions, grad_evals=evals, local_steps=1
    )
    return server, clients, record


def baseline_gd_round(
    problem: DistributedProblem,
    server: ServerState,
    clients: ClientState,
    cfg: MethodConfig,
    stream: RandomStream,
) -> tuple[ServerState, ClientState, StepRecord]:
    """Centralized gradient descent: one full gradient per round."""
    grad = problem.grad_f(server.reference)
    server.reference = server.reference - cfg.eta * grad
    clients.x = np.tile(server.reference, (problem.n, 1))
    server.iteration += 1
    server.comm_events += 1
    record = StepRecord(
        iteration=server.iteration,
        rounds=server.comm_events,
        communicated=True,
        grad_evals=float(problem.n),
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
    reference.
    """
    evals = _ensure_fresh_variates(problem, server, clients)
    solutions = []
    for oracle, h in zip(problem.clients, clients.h):
        x = server.reference
        for _ in range(cfg.local_steps):
            x = x - cfg.eta * (oracle.gradient(x) - h)
            evals += 1.0
        solutions.append(x)
    record = _communicate(
        server, clients, cfg, stream.fork(server.iteration), solutions,
        grad_evals=evals, local_steps=cfg.local_steps * problem.n,
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
    grads = np.stack([o.gradient(x) for o, x in zip(problem.clients, clients.x)])
    hats = clients.x - gamma * (grads - clients.h)
    record = _communicate(
        server, clients, cfg, stream.fork(server.iteration), hats,
        grad_evals=float(problem.n), local_steps=1,
    )
    if record.communicated:
        clients.h = clients.h + (cfg.p / gamma) * (server.reference - clients.x)
        clients.x = np.tile(server.reference, (problem.n, 1))
    return server, clients, record


_STEP_FUNCTIONS = {
    "dane_plus": anchored_step,
    "fedred": anchored_step,
    "fedred_gd": fedred_gd_step,
    "gd": baseline_gd_round,
    "scaffold": baseline_scaffold_round,
    "scaffnew": baseline_scaffnew_step,
    "fedprox": anchored_step,
}


def step_method(problem, server, clients, cfg, stream):
    """Advance the configured method by one step/round."""
    return _STEP_FUNCTIONS[cfg.method](problem, server, clients, cfg, stream)


def suggest_parameters(
    method: str,
    report,
    regime: str,
    *,
    l_smooth: float,
    mu: float = 0.0,
    sigma: float = 0.0,
    eps: float | None = None,
    a: float = 2.0,
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
    if l_smooth is None or l_smooth <= 0.0:
        raise ConfigurationError("a positive smoothness constant is required")
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
        if method == "dane_plus":
            return MethodConfig(
                method="dane_plus",
                lam=a * delta_b,
                a=a,
                averaging="rand",
                local=LocalSpec(
                    solver="gd",
                    rule=StoppingRule("fixed_steps", steps=200),
                    check_decrease=True,
                ),
            )
        if method == "fedred":
            return MethodConfig(
                method="fedred",
                lam=delta_b,
                eta=4.0 * delta_b,
                p=0.25,
                averaging="rand",
                local=LocalSpec(
                    solver="gd",
                    rule=StoppingRule("abs_grad", tol=1e-9),
                    check_decrease=True,
                ),
            )
        if sigma > 0.0:
            raise ConfigurationError(
                "stochastic nonconvex rule not supported here; "
                "set sigma=0 or pass an explicit config"
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
    eta = l_smooth
    if sigma > 0.0:
        if eps is None or eps <= 0.0:
            raise ConfigurationError("stochastic rule needs a target accuracy")
        eta = sigma * sigma / eps + l_smooth
    if eta <= 0.5 * mu:
        raise ConfigurationError("eta must exceed mu/2")
    p = min(1.0, (delta_a + 0.5 * mu) / (eta - 0.5 * mu))
    return MethodConfig(
        method="fedred_gd", lam=p * eta, eta=eta, p=p, stochastic=sigma > 0.0
    )
