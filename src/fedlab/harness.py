"""Experiment driver: run methods, record traces, check rate certificates.

A run steps one configured method on one problem until a budget trips,
recording metric rows at every communication event (plus a cadence row
every ``record_every`` local iterations).  Metric evaluations (objective
value, full gradient at the output iterate) are performed directly on the
problem outside any step's billing window, so they are not charged to the
run's gradient-evaluation account; the account covers exactly what the
method itself consumed.

Client sub-solves within one step run in a fixed order, and all randomness
is pre-assigned to (step, purpose) streams, so a trace depends only on the
problem, the method config and the seed.
"""
from __future__ import annotations

import csv
import io
import sys
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
    require_integer,
)
from .local_solvers import SolverBudgetError, StoppingRule, SurrogateOracle, solve_fgd
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
    """Stop conditions, each positive and finite; the run halts when any trips."""

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
            # NaN fails it too, and so does an int beyond the float range
            if v is not None and not 0 < v <= sys.float_info.max:
                rule = "finite" if v > 0 else "positive"
                raise ConfigurationError(f"{name} must be {rule}, got {v!r}")
            if v is not None and name in ("max_rounds", "max_iterations"):
                require_integer(v, name)


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


class _GlobalOracle(ClientOracle):
    """The full objective ``f`` as a one-row stack of its own, whose values
    and gradients are measurement (``f`` and ``grad_f``): they bill nothing."""

    gradient_cost = 0.0

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

    def values(self, rows, points: np.ndarray) -> np.ndarray:
        return np.array([self.problem.f(points[0])])

    def gradients(self, rows, points: np.ndarray) -> np.ndarray:
        return self.problem.grad_f(points[0])[None]


def reference_optimum(problem: DistributedProblem, x0=None) -> ReferenceSolution | None:
    """Solve for the optimum to residual 1e-10 relative to the start scale.

    A ``beta = 0`` quadratic has one exactly when its mean Hessian is
    positive definite, solved directly; any other instance when every client
    is convex, by a long accelerated gradient run on ``f`` as a one-row
    surrogate, whose row 0 is the optimum.  Otherwise this returns None and
    runs fall back to gradient-norm metrics.
    """
    x_star, how = None, "long_fgd"
    if problem.quadratic is not None and problem.quadratic.beta == 0.0:
        try:
            x_star = problem.quadratic.minimizer()
        except UnsupportedStructureError:
            return None
        how = "direct_linear"
    elif any(o.convexity_hint is None for o in problem.clients):
        return None
    x0 = np.zeros(problem.dim) if x0 is None else as_vector(x0)
    scale = 1e-10 * (1.0 + float(np.linalg.norm(problem.grad_f(x0))))
    residual = (
        float(np.linalg.norm(problem.grad_f(x_star))) if x_star is not None else np.inf
    )
    if residual > scale:
        x_star = solve_fgd(
            SurrogateOracle([_GlobalOracle(problem)]),
            x0 if x_star is None else x_star,
            StoppingRule("abs_grad", tol=scale, max_steps=2_000_000),
        ).solution[0]
        residual = float(np.linalg.norm(problem.grad_f(x_star)))
    return ReferenceSolution(x_star, problem.f(x_star), how, residual)


def run_experiment(
    problem: DistributedProblem,
    cfg: MethodConfig,
    budget: Budget,
    seed: int,
    *,
    x0=None,
    reference: ReferenceSolution | str | None = "auto",
    record_every: int = 100,
) -> ExperimentResult:
    """Run one method until the budget trips.

    The output iterate per metric row is the server reference, or under
    rand averaging the start or communicated reference with the smallest
    gradient norm so far.  ``reference="auto"`` takes
    :func:`reference_optimum`'s answer.  Without a reference, ``f_gap`` is
    measured against the best value seen so far (an upper bound on the
    true optimality gap is not implied; nonconvex analysis reads
    ``grad_norm_sq`` instead), so a ``budget.target_gap`` is then a
    :class:`ConfigurationError`.

    A run has no frame of its own: every method and
    metric column is unchanged by an orthogonal change of coordinates, so
    generated ``beta = 0`` quadratics are drawn in their eigen frame instead
    (see :mod:`fedlab.problems.quadratic`).

    A :class:`NonFiniteError` or :class:`SolverBudgetError` from a step or a
    metric snapshot is raised again as the same type, chained, with the
    method and the number of completed iterations in its message.
    """
    if not record_every >= 1:
        raise ConfigurationError(f"record_every must be >= 1, got {record_every!r}")
    require_integer(record_every, "record_every")
    if reference == "auto":
        reference = reference_optimum(problem, x0)
    if budget.target_gap is not None and reference is None:
        raise ConfigurationError("target_gap needs a reference optimum")
    x0 = np.zeros(problem.dim) if x0 is None else as_vector(x0)
    x_star = None if reference is None else reference.x_star
    stream = RandomStream(seed)
    server, clients, cum_evals = init_method_state(problem, cfg, x0)
    started = time.perf_counter()
    traces: list[RoundTrace] = []
    records: list[StepRecord] = []
    reached = False

    def snapshot(k: int, rounds: int):
        nonlocal f_best, reached, f_out, g_out
        if f_out is None:
            f_out = problem.f(x_out)
        f_best = min(f_best, f_out)
        if g_out is None:
            g_out = problem.grad_f(x_out)
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
            # the output iterate, its value and gradient (None once it moves,
            # until a snapshot needs them), and under rand averaging its
            # squared gradient norm
            f_out = f_best = problem.f(x0)
            g_out = problem.grad_f(x0)
            x_out, best_score = x0.copy(), float(g_out.dot(g_out))
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
                if cfg.averaging != "rand":
                    x_out, f_out, g_out = server.reference, None, None
                elif rec.communicated:
                    g = problem.grad_f(server.reference)
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
    if not eps > 0.0:
        raise ConfigurationError(f"target must be positive, got {eps!r}")
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
    """Check ``(achieved, bound)`` pairs, allowing an absolute slack of 1e-9.

    A non-finite bound certifies nothing, so it counts as a violation.
    """
    checked = violations = 0
    worst = 0.0
    for achieved, bound in pairs:
        checked += 1
        worst = max(worst, achieved / bound) if bound > 0 else worst
        if not (np.isfinite(bound) and achieved <= bound + 1e-9):
            violations += 1
    return CertificateReport(name, checked, violations, worst)


def check_rate_certificates(
    result: ExperimentResult, *, delta_b: float | None = None, mu: float = 0.0
) -> list[CertificateReport]:
    """Evaluate every theorem bound applicable to the run's config.

    The run supplies its own constants: ``R0^2`` is its first row's
    ``dist_sq``, and ``F0`` is its first row's objective value less ``f*``,
    the reference optimum's value or, without a reference, the best value
    the run saw.  The caller supplies the problem's ``delta_b`` and ``mu``.

    Convex anchored-prox runs (``dane_plus``, and ``fedred`` at ``p = 1``
    with ``eta = 0`` or the rule's coupling ``lam = p * eta``) need a
    reference optimum.  They are checked against the sublinear bound
    ``lam * R0^2 / (2R)`` and, when mu > 0, the linear-rate bound
    ``mu R0^2 / (2[(1+mu/lam)^R - 1])``; rows where ``(1+mu/lam)^R`` rounds
    to 1 or leaves the float range are skipped.  Rand-averaged runs whose coupling
    multiplier ``a = lam / delta_b`` exceeds 1 are checked against
    ``4(a+1)^2/(a-1) * delta_b * F0 / R`` plus the inexactness term
    ``(2/R) sum e_r^2`` with the achieved local residuals.
    """
    # written so that NaN, which fails each comparison, fails them too
    if delta_b is not None and not 0.0 < delta_b < np.inf:
        raise ConfigurationError(
            f"delta_b must be positive and finite, got {delta_b!r}"
        )
    if not 0.0 <= mu < np.inf:
        raise ConfigurationError(f"mu must be non-negative and finite, got {mu!r}")
    cfg = result.cfg
    first = result.traces[0]
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
        if result.reference is None:
            raise ConfigurationError("convex certificates need a reference optimum")
        r0_sq = first.dist_sq
        pairs = [(t.f_gap, cfg.lam * r0_sq / (2.0 * t.rounds)) for t in rows]
        reports.append(_bound_report("convex_sublinear", pairs))
        if mu > 0.0 and cfg.lam > 0.0:
            ratio = mu / cfg.lam
            pairs = []
            for t in rows:
                try:
                    growth = (1.0 + ratio) ** t.rounds - 1.0
                except OverflowError:  # a Python float power raises, never gives inf
                    growth = np.inf
                if 0.0 < growth < np.inf:
                    pairs.append((t.f_gap, mu * r0_sq / (2.0 * growth)))
            reports.append(_bound_report("strongly_convex_linear", pairs))

    if cfg.averaging == "rand" and cfg.method in ("dane_plus", "fedred"):
        if delta_b is None:
            raise ConfigurationError("nonconvex certificate needs delta_b")
        a = cfg.lam / delta_b
        if a > 1.0:  # the bound is stated for lam > delta_b only
            ref = result.reference
            f_star = ref.f_star if ref is not None else result.f_best_seen
            f0_gap = first.f_value - f_star
            lead = 4.0 * (a + 1.0) ** 2 / (a - 1.0)
            pairs = []
            best_gnorm = np.inf
            cumulative_e_sq = 0.0
            # every communicated step records exactly one round row
            for row, e in zip(rows, _achieved_e_terms(result), strict=True):
                best_gnorm = min(best_gnorm, row.grad_norm_sq)
                cumulative_e_sq += e * e
                bound = (
                    lead * delta_b * f0_gap / row.rounds
                    + 2.0 * cumulative_e_sq / row.rounds
                )
                pairs.append((best_gnorm, bound))
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
    f_star: float,
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
    seed-and-step average together with the bound ``96 L F0 / K``, where
    ``L`` is the problem's ``l_smooth`` and ``F0 = f(x0) - f_star``.
    """
    if cfg.method != "fedred_gd" or cfg.averaging != "rand":
        raise ConfigurationError("this certificate is for rand-averaged fedred_gd")
    if problem.l_smooth is None:
        raise ConfigurationError("this certificate needs the problem's l_smooth")
    if not np.isfinite(f_star):
        raise ConfigurationError(f"f_star must be finite, got {f_star!r}")
    if not steps >= 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps!r}")
    require_integer(steps, "steps")
    seeds = list(seeds)
    if not seeds:
        raise ConfigurationError("seeds must name at least one seed")
    x0 = np.zeros(problem.dim) if x0 is None else as_vector(x0)
    f0_gap = problem.f(x0) - f_star
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
    bound = 96.0 * problem.l_smooth * f0_gap / steps
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

