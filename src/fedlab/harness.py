"""Experiment driver: run methods, record traces, check rate certificates.

A run steps one configured method on one problem until a budget trips,
recording metric rows at every communication event (plus a cadence row
every ``record_every`` local iterations).  Metric evaluations (objective
value, full gradient at the output iterate) are performed directly on the
problem and are not charged to the run's gradient-evaluation account; the
account covers exactly what the method itself consumed.

Client sub-solves within one step run in a fixed order, and all randomness
is pre-assigned to (step, purpose) streams, so a trace depends only on the
problem, the method config and the seed.

A pure quadratic problem whose clients share one eigenbasis ``Q`` (see
:meth:`~fedlab.core.DistributedProblem.eigen_frame`) is run in that frame:
gradient steps, Euclidean proximal terms and averaging all commute with an
orthogonal change of variables, so the method and its metric snapshots
step ``Q'x`` on the frame problem, where each gradient costs O(d) instead of
two rotations.  The reference optimum is resolved in original coordinates
and rotated in once; every billed primitive is still one oracle call, so
the ledger columns are unchanged, and the metric columns equal the
original-coordinate ones up to rounding.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ClientOracle,
    ConfigurationError,
    DistributedProblem,
    NonFiniteError,
    RandomStream,
    UnsupportedStructureError,
    Vector,
    as_vector,
)
from .local_solvers import SolverBudgetError, StoppingRule, solve_fgd
from .methods import (
    MethodConfig,
    StepRecord,
    draw_pick,
    init_method_state,
    step_method,
)

CSV_HEADER = "k,rounds,grad_evals,f_gap,grad_norm_sq,dist_sq,wall_ms"


@dataclass
class RoundTrace:
    """One metric row of a run.

    ``f_value`` is kept in memory for certificate checks but is not part
    of the CSV schema.
    """

    k: int
    rounds: int
    grad_evals: float
    f_gap: float
    grad_norm_sq: float
    dist_sq: float | None
    wall_ms: float | None
    f_value: float = 0.0


@dataclass(frozen=True)
class Budget:
    """Stop conditions; the run halts when any of them trips."""

    max_rounds: int | None = None
    max_grad_evals: float | None = None
    target_gap: float | None = None
    max_iterations: int | None = None

    def __post_init__(self):
        if (
            self.max_rounds is None
            and self.max_grad_evals is None
            and self.max_iterations is None
        ):
            raise ConfigurationError("budget needs at least one hard limit")
        for name in ("max_rounds", "max_grad_evals", "target_gap", "max_iterations"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ConfigurationError(f"{name} must be positive")


@dataclass
class ReferenceSolution:
    """High-accuracy optimum used to evaluate suboptimality."""

    x_star: Vector
    f_star: float
    method: str  # "direct_linear" | "long_fgd"
    residual: float


@dataclass
class ExperimentResult:
    """Everything a run produced."""

    traces: list[RoundTrace]
    records: list[StepRecord]
    reached: bool
    total_grad_evals: float
    cfg: MethodConfig
    seed: int
    reference: ReferenceSolution | None
    f_best_seen: float

    def __iter__(self):
        return iter(self.traces)


class _GlobalOracle(ClientOracle):
    """The full objective ``f`` viewed as a single oracle."""

    def __init__(self, problem: DistributedProblem):
        self.problem = problem
        self.dim = problem.dim
        hints = [o.smoothness_hint for o in problem.clients]
        self.smoothness_hint = problem.l_smooth_global or problem.l_smooth or (
            max(hints) if all(h is not None for h in hints) else None
        )
        cvx = [o.convexity_hint for o in problem.clients]
        if all(c is not None for c in cvx):
            self.convexity_hint = problem.mu if problem.mu is not None else min(cvx)
        else:
            self.convexity_hint = None

    def _value(self, x: Vector) -> float:
        return self.problem.f(x)

    def _gradient(self, x: Vector) -> Vector:
        return self.problem.grad_f(x)


def reference_optimum(
    problem: DistributedProblem, x0=None
) -> ReferenceSolution:
    """Solve for the optimum to residual 1e-10 relative to the start scale.

    Pure quadratics are solved directly; other convex instances by a long
    accelerated gradient run.  Nonconvex instances are rejected; the
    harness falls back to gradient-norm metrics for those.
    """
    x0 = np.zeros(problem.dim) if x0 is None else as_vector(x0)
    scale = 1e-10 * (1.0 + float(np.linalg.norm(problem.grad_f(x0))))
    x_star = None
    how = None
    if problem.quadratic is not None and problem.quadratic.beta == 0.0:
        x_star = problem.quadratic.minimizer()
        how = "direct_linear"
    else:
        if any(o.convexity_hint is None for o in problem.clients):
            raise UnsupportedStructureError(
                "reference optimum is only defined for convex instances"
            )
    residual = (
        float(np.linalg.norm(problem.grad_f(x_star))) if x_star is not None else np.inf
    )
    if residual > scale:
        start = x0 if x_star is None else x_star
        report = solve_fgd(
            _GlobalOracle(problem),
            start,
            StoppingRule("abs_grad", tol=scale, max_steps=2_000_000),
        )
        x_star = report.solution
        how = how or "long_fgd"
        residual = float(np.linalg.norm(problem.grad_f(x_star)))
    return ReferenceSolution(
        x_star=x_star,
        f_star=problem.f(x_star),
        method=how,
        residual=residual,
    )


def run_experiment(
    problem: DistributedProblem,
    cfg: MethodConfig,
    budget: Budget,
    seed: int,
    *,
    x0=None,
    reference: ReferenceSolution | str | None = "auto",
    output_mode: str | None = None,
    record_every: int = 100,
    metric_problem: DistributedProblem | None = None,
) -> ExperimentResult:
    """Run one method until the budget trips.

    The output iterate per metric row is the server reference (``last``),
    or under rand averaging the running minimum-gradient-norm reference
    (``best_grad``); ``output_mode`` overrides the choice.  When no
    reference optimum exists, ``f_gap`` is measured against the best value
    seen so far (an upper bound on the true optimality gap is not implied;
    nonconvex analysis reads ``grad_norm_sq`` instead).

    ``metric_problem`` lets callers step a wrapped (e.g. call-counting)
    problem while evaluating metrics on the unwrapped one.  The two run in
    their shared eigen frame together, or both in original coordinates;
    ``reference`` stays in original coordinates.

    A :class:`NonFiniteError` or :class:`SolverBudgetError` from a step or a
    metric snapshot is raised again as the same type, chained, with the
    method and the number of completed iterations in its message.
    """
    metrics = metric_problem if metric_problem is not None else problem
    if reference == "auto":
        try:
            reference = reference_optimum(metrics, x0)
        except UnsupportedStructureError:
            reference = None
    x0 = np.zeros(problem.dim) if x0 is None else as_vector(x0)
    x_star = None if reference is None else reference.x_star
    basis, frame = problem.eigen_frame()
    if basis is not None:
        metric_basis, metric_frame = (
            (basis, frame) if metric_problem is None else metric_problem.eigen_frame()
        )
        if metric_basis is basis:
            problem, metrics = frame, metric_frame
            x0 = x0.dot(basis)
            if x_star is not None:
                x_star = x_star.dot(basis)
    if output_mode is None:
        output_mode = "best_grad" if cfg.averaging == "rand" else "last"
    if output_mode not in ("last", "best_grad"):
        raise ConfigurationError(f"unknown output mode {output_mode!r}")
    stream = RandomStream(seed)
    server, clients, init_evals = init_method_state(problem, cfg, x0)
    cum_evals = init_evals
    started = time.perf_counter()
    traces: list[RoundTrace] = []
    records: list[StepRecord] = []
    reached = False

    # the output iterate, its value and gradient (None once it moves, until
    # a snapshot needs them), and under best_grad its squared gradient norm
    f_out = f_best = metrics.f(x0)
    g_out = metrics.grad_f(x0)
    x_out, best_score = x0.copy(), float(g_out.dot(g_out))

    def snapshot(k: int, rounds: int):
        nonlocal f_best, reached, f_out, g_out
        if f_out is None:
            f_out = metrics.f(x_out)
        f_best = min(f_best, f_out)
        if g_out is None:
            g_out = metrics.grad_f(x_out)
        f_star = reference.f_star if reference is not None else f_best
        dist = float(np.sum((x_out - x_star) ** 2)) if x_star is not None else None
        trace = RoundTrace(
            k=k,
            rounds=rounds,
            grad_evals=cum_evals,
            f_gap=f_out - f_star,
            grad_norm_sq=float(g_out.dot(g_out)),
            dist_sq=dist,
            wall_ms=(time.perf_counter() - started) * 1e3,
            f_value=f_out,
        )
        traces.append(trace)
        if budget.target_gap is not None and trace.f_gap <= budget.target_gap:
            reached = True

    try:
        # every value and gradient in the loop is checked for finiteness, so
        # an overflow surfaces as the typed error below, not as a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            snapshot(0, 0)
            while not reached:
                if (
                    budget.max_rounds is not None
                    and server.comm_events >= budget.max_rounds
                ):
                    break
                if (
                    budget.max_grad_evals is not None
                    and cum_evals >= budget.max_grad_evals
                ):
                    break
                if (
                    budget.max_iterations is not None
                    and server.iteration >= budget.max_iterations
                ):
                    break
                server, clients, rec = step_method(
                    problem, server, clients, cfg, stream
                )
                records.append(rec)
                cum_evals += rec.grad_evals
                if output_mode == "last":
                    x_out, f_out, g_out = server.reference, None, None
                elif rec.communicated:
                    g = metrics.grad_f(server.reference)
                    score = float(g.dot(g))
                    if score < best_score:
                        x_out, best_score = server.reference.copy(), score
                        f_out, g_out = None, g
                if rec.communicated or rec.iteration % record_every == 0:
                    snapshot(rec.iteration, server.comm_events)
            if not traces or traces[-1].k != server.iteration:
                snapshot(server.iteration, server.comm_events)
    except (NonFiniteError, SolverBudgetError) as exc:
        raise type(exc)(
            f"{cfg.method} failed at iteration {server.iteration}: {exc}"
        ) from exc
    return ExperimentResult(
        traces=traces,
        records=records,
        reached=reached,
        total_grad_evals=cum_evals,
        cfg=cfg,
        seed=seed,
        reference=reference,
        f_best_seen=f_best,
    )


def _first_to_target(traces, eps: float, metric: str, column: str):
    """Smallest ``column`` value over the rows whose metric is at or below eps."""
    if eps <= 0.0:
        raise ConfigurationError("target must be positive")
    reached = [getattr(t, column) for t in traces if getattr(t, metric) <= eps]
    return min(reached) if reached else None


def rounds_to_target(
    traces, eps: float, metric: str = "f_gap"
) -> int | None:
    """Smallest recorded round count whose metric is at or below eps."""
    return _first_to_target(traces, eps, metric, "rounds")


def grad_evals_to_target(
    traces, eps: float, metric: str = "f_gap"
) -> float | None:
    """Smallest recorded cumulative gradient cost reaching the target."""
    return _first_to_target(traces, eps, metric, "grad_evals")


@dataclass(frozen=True)
class RateConstants:
    """Problem constants the certificate checks consume."""

    delta_a: float = 0.0
    delta_b: float = 0.0
    l_smooth: float = 0.0
    mu: float = 0.0
    f0: float = 0.0
    f_star: float = 0.0
    r0_sq: float = 0.0


@dataclass
class CertificateReport:
    name: str
    checked: int
    violations: int
    worst_ratio: float  # max achieved/bound over checked points

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _round_traces(result: ExperimentResult) -> list[RoundTrace]:
    """Last recorded row per positive round count."""
    by_round: dict[int, RoundTrace] = {}
    for t in result.traces:
        if t.rounds >= 1:
            by_round[t.rounds] = t
    return [by_round[r] for r in sorted(by_round)]


def _achieved_e_terms(result: ExperimentResult) -> list[float]:
    """Per-communicated-step local inexactness, max over clients."""
    out = []
    for rec in result.records:
        if rec.communicated and rec.premise is not None:
            out.append(max(gn for gn, _ in rec.premise))
    return out


def _bound_report(name: str, pairs) -> CertificateReport:
    """Check ``(achieved, bound)`` pairs, allowing an absolute slack of 1e-9."""
    checked = violations = 0
    worst = 0.0
    for achieved, bound in pairs:
        checked += 1
        worst = max(worst, achieved / bound) if bound > 0 else worst
        if achieved > bound + 1e-9:
            violations += 1
    return CertificateReport(name, checked, violations, worst)


def check_rate_certificates(
    result: ExperimentResult, constants: RateConstants
) -> list[CertificateReport]:
    """Evaluate every theorem bound applicable to the run's config.

    Convex anchored-prox runs (``dane_plus``, and ``fedred`` at ``p = 1``
    with ``eta = 0`` or the rule's coupling ``lam = p * eta``) are checked against the sublinear bound ``lam * R0^2 / (2R)`` and, when
    mu > 0, the linear-rate bound ``mu R0^2 / (2[(1+mu/lam)^R - 1])``; rows
    where ``(1+mu/lam)^R`` leaves the float range are skipped.  Nonconvex
    rand-averaged runs are checked against
    ``4(a+1)^2/(a-1) * delta_B * F0 / R`` plus the inexactness term
    ``(2/R) sum e_r^2`` with the achieved local residuals.
    """
    cfg = result.cfg
    reports: list[CertificateReport] = []
    rows = _round_traces(result)

    # the per-round bounds are deterministic; with p < 1 fedred's rate holds
    # only in expectation, and away from the coupling (large eta) it fails
    anchored = cfg.method == "dane_plus" or (
        cfg.method == "fedred"
        and cfg.p == 1.0
        and (cfg.eta == 0.0 or cfg.lam == cfg.p * cfg.eta)
    )
    if anchored and cfg.averaging == "avg":
        if constants.r0_sq <= 0.0:
            raise ConfigurationError("convex certificates need r0_sq")
        pairs = [
            (t.f_gap, cfg.lam * constants.r0_sq / (2.0 * t.rounds)) for t in rows
        ]
        reports.append(_bound_report("convex_sublinear", pairs))
        if constants.mu > 0.0 and cfg.lam > 0.0:
            ratio = constants.mu / cfg.lam
            pairs = []
            for t in rows:
                try:
                    growth = (1.0 + ratio) ** t.rounds - 1.0
                except OverflowError:  # a Python float power raises, never gives inf
                    growth = np.inf
                if np.isfinite(growth):
                    bound = constants.mu * constants.r0_sq / (2.0 * growth)
                    pairs.append((t.f_gap, bound))
            reports.append(_bound_report("strongly_convex_linear", pairs))

    if cfg.averaging == "rand" and cfg.method in ("dane_plus", "fedred"):
        if constants.delta_b <= 0.0:
            raise ConfigurationError("nonconvex certificate needs delta_b")
        f0_gap = constants.f0 - constants.f_star
        a = cfg.a
        lead = 4.0 * (a + 1.0) ** 2 / (a - 1.0)
        e_terms = _achieved_e_terms(result)
        pairs = []
        best_gnorm = np.inf
        cumulative_e_sq = 0.0
        seen_rounds = 0
        row_iter = iter(rows)
        row = next(row_iter, None)
        for e in e_terms:
            seen_rounds += 1
            cumulative_e_sq += e * e
            while row is not None and row.rounds == seen_rounds:
                best_gnorm = min(best_gnorm, row.grad_norm_sq)
                bound = (
                    lead * constants.delta_b * f0_gap / seen_rounds
                    + 2.0 * cumulative_e_sq / seen_rounds
                )
                pairs.append((best_gnorm, bound))
                row = next(row_iter, None)
        reports.append(_bound_report("nonconvex_stationarity", pairs))

    if not reports:
        raise ConfigurationError(
            f"no certificate applies to method {cfg.method!r} with "
            f"averaging {cfg.averaging!r}"
        )
    return reports


def mean_grad_norm_certificate(
    problem: DistributedProblem,
    cfg: MethodConfig,
    constants: RateConstants,
    *,
    steps: int,
    seeds,
    x0=None,
) -> tuple[float, float]:
    """In-expectation stationarity check for the linearized method.

    Runs the configured method for a fixed number of steps for each seed,
    measures ``||grad f||^2`` at the per-step randomized candidate (the new
    iterate of the client that :func:`~fedlab.methods.draw_pick` draws from
    the step's address, communicating or not), and returns the
    seed-and-step average together with the bound ``96 L F0 / K``.
    """
    if cfg.method != "fedred_gd" or cfg.averaging != "rand":
        raise ConfigurationError("this certificate is for rand-averaged fedred_gd")
    f0_gap = constants.f0 - constants.f_star
    x0 = np.zeros(problem.dim) if x0 is None else as_vector(x0)
    totals = []
    for seed in seeds:
        stream = RandomStream(int(seed))
        server, clients, _ = init_method_state(problem, cfg, x0)
        acc = 0.0
        for k in range(steps):
            server, clients, _ = step_method(problem, server, clients, cfg, stream)
            # silent steps draw no pick, so it is drawn here from the step's address
            g = problem.grad_f(clients.x[draw_pick(stream.fork(k), problem.n)])
            acc += float(g @ g)
        totals.append(acc / steps)
    mean_sq = float(np.mean(totals))
    bound = 96.0 * constants.l_smooth * f0_gap / steps
    return mean_sq, bound


def format_trace_row(trace: RoundTrace, timings: bool = False) -> list[str]:
    def num(v: float) -> str:
        return repr(float(v))

    return [
        str(trace.k),
        str(trace.rounds),
        num(trace.grad_evals),
        num(trace.f_gap),
        num(trace.grad_norm_sq),
        "" if trace.dist_sq is None else num(trace.dist_sq),
        "" if (not timings or trace.wall_ms is None) else num(trace.wall_ms),
    ]


def trace_csv_text(traces, timings: bool = False) -> str:
    """Render traces under the fixed schema; unknown fields stay empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for t in traces:
        writer.writerow(format_trace_row(t, timings))
    return buf.getvalue()


def write_trace_csv(path, traces, timings: bool = False):
    with open(path, "w", newline="") as fh:
        fh.write(trace_csv_text(traces, timings))


def read_trace_csv(path) -> list[RoundTrace]:
    """Parse a trace file back; empty fields become None."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER.split(","):
            raise ConfigurationError(f"unexpected trace header {header!r}")
        out = []
        for row in reader:
            out.append(
                RoundTrace(
                    k=int(row[0]),
                    rounds=int(row[1]),
                    grad_evals=float(row[2]),
                    f_gap=float(row[3]),
                    grad_norm_sq=float(row[4]),
                    dist_sq=float(row[5]) if row[5] else None,
                    wall_ms=float(row[6]) if row[6] else None,
                )
            )
        return out


class CountingOracle(ClientOracle):
    """Wrapper that bills gradient-equivalent work on the wrapped oracle."""

    def __init__(self, base: ClientOracle, counter: dict):
        self.base = base
        self.counter = counter
        self.dim = base.dim
        self.smoothness_hint = base.smoothness_hint
        self.convexity_hint = base.convexity_hint

    def _value(self, x: Vector) -> float:
        return self.base.value(x)

    def _gradient(self, x: Vector) -> Vector:
        self.counter["units"] += 1.0
        return self.base.gradient(x)

    # the base's public methods check the query and the output once; the
    # inherited ones would check both again before reaching them
    value = _value
    gradient = _gradient

    def stochastic_gradient(self, x, stream: RandomStream) -> Vector:
        self.counter["units"] += self.base.stochastic_cost
        return self.base.stochastic_gradient(x, stream)

    @property
    def stochastic_cost(self) -> float:
        return self.base.stochastic_cost

    @property
    def is_pure_quadratic(self) -> bool:
        return getattr(self.base, "is_pure_quadratic", False)

    def hessian_matvec(self, v: Vector) -> Vector:
        self.counter["units"] += 1.0
        return self.base.hessian_matvec(v)

    def linear_term(self) -> Vector:
        return self.base.linear_term()

    def eigen_frame(self):
        """The base's frame, its matvecs billed to the same counter."""
        basis, frame = self.base.eigen_frame()
        return basis, CountingOracle(frame, self.counter)


def counting_problem(problem: DistributedProblem):
    """A problem whose oracles bill work to a shared counter, plus the counter."""
    counter = {"units": 0.0}
    wrapped = DistributedProblem(
        clients=[CountingOracle(o, counter) for o in problem.clients],
        dim=problem.dim,
        l_smooth=problem.l_smooth,
        l_smooth_global=problem.l_smooth_global,
        mu=problem.mu,
        quadratic=None,
    )
    return wrapped, counter
