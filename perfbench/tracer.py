"""Spans around fedlab's public callables, and the per-layer metrics they give.

`Tracer.install` replaces each traced attribute with a wrapper that records
a span (name, start, end, parent) in flat arrays, plus a few counters read
from return values at the same boundary.  `Tracer.uninstall` restores the
originals.  Nothing in ``src/`` is edited: the wrappers live here and are
installed only for a traced pass.

Self time is a span's duration minus the time covered by its direct
children.  Per-layer metrics are derived from the spans after the pass.
"""
from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

BASE_ORACLES = ("QuadraticOracle", "LogisticOracle")
SOLVERS = ("exact", "gd", "fgd")
RUN_LABELS = ("gd", "dane_plus", "fedred", "fedred_gd", "scaffnew")

# every per-layer metric `Tracer.metrics` returns, with its unit
LAYER_UNITS = {
    **{f"problems.grad_calls.{c}": "count" for c in BASE_ORACLES},
    **{f"problems.grad_s.{c}": "s" for c in BASE_ORACLES},
    **{f"problems.grad_us.{c}": "us" for c in BASE_ORACLES},
    "problems.value_calls": "count",
    "problems.value_s": "s",
    "problems.matvec_calls": "count",
    "problems.matvec_s": "s",
    "problems.build_s": "s",
    "problems.libsvm_load_s": "s",
    "problems.delta_s": "s",
    **{f"local_solvers.solves.{s}": "count" for s in SOLVERS},
    **{f"local_solvers.solve_s.{s}": "s" for s in SOLVERS},
    "local_solvers.steps": "count",
    "local_solvers.surrogate_grad_calls": "count",
    "local_solvers.surrogate_value_calls": "count",
    "local_solvers.values_per_solve": "ratio",
    "local_solvers.surrogate_self_s": "s",
    "local_solvers.budget_errors": "count",
    "core.finite_checks": "count",
    "core.finite_check_s": "s",
    "core.checks_per_primitive": "ratio",
    "core.stream_draws": "count",
    "core.stream_draw_s": "s",
    "methods.steps": "count",
    "methods.step_self_s": "s",
    "methods.variate_refreshes": "count",
    "methods.variate_refresh_s": "s",
    "methods.grad_evals_billed": "count",
    "methods.billed_per_primitive": "ratio",
    "harness.metric_calls": "count",
    "harness.metric_s": "s",
    "harness.metric_share": "ratio",
    **{f"harness.run_s.{label}": "s" for label in RUN_LABELS},
    "harness.run_self_s": "s",
    "harness.trace_rows": "count",
    "harness.reference_s": "s",
    "harness.write_s": "s",
    "cli.load_config_s": "s",
    "svgplot.render_s": "s",
}


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name, after=None, on_error=None):
        """``fn`` recording a span per call.

        ``name`` is a string or a function of the call's arguments;
        ``after(args, result)`` and ``on_error(exc)`` update counters.
        """
        static = self._id(name) if isinstance(name, str) else None
        stack, spans_name, spans_parent = self._stack, self.name, self.parent
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            nid = static if static is not None else self._id(name(*args))
            idx = len(starts)
            spans_name.append(nid)
            spans_parent.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def _patch(self, owner, attr, name, after=None, on_error=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after, on_error))

    def install(self):
        """Wrap the traced public attributes of the imported fedlab package."""
        from fedlab import cli, core, harness, methods
        from fedlab.local_solvers import SolverBudgetError
        from fedlab.problems import QuadraticOracle

        count = self.counters

        def on_run(args, result):
            count["trace_rows"] += len(result.traces)

        def on_step(args, out):
            count["billed"] += out[2].grad_evals

        def on_init(args, out):
            count["billed"] += out[2]

        def on_solve(args, report):
            count["local_steps"] += report.steps_taken

        def on_solve_error(exc):
            if isinstance(exc, SolverBudgetError):
                count["budget_errors"] += 1

        for attr, name in (
            ("load_config", "cli.load_config"),
            ("build_problem", "problems.build"),
            ("load_libsvm", "problems.libsvm_load"),
            ("delta_sampled", "problems.delta"),
            ("reference_optimum", "harness.reference"),
            ("write_trace_csv", "harness.write"),
            ("render_line_plot", "svgplot.render"),
        ):
            self._patch(cli, attr, name)
        self._patch(
            cli, "run_experiment", lambda *a: "harness.run." + a[1].method, on_run
        )
        self._patch(harness, "step_method", "methods.step", on_step)
        self._patch(harness, "init_method_state", "methods.init", on_init)
        for solver in SOLVERS:
            attr = "solve_exact_quadratic" if solver == "exact" else f"solve_{solver}"
            self._patch(
                methods, attr, f"local_solvers.solve.{solver}", on_solve, on_solve_error
            )
        self._patch(methods, "control_variate_grad_diff", "methods.variate_refresh")
        self._patch(
            core.ClientOracle, "gradient", lambda self, *a: "grad." + type(self).__name__
        )
        self._patch(
            core.ClientOracle, "value", lambda self, *a: "value." + type(self).__name__
        )
        self._patch(QuadraticOracle, "hessian_matvec", "problems.matvec")
        self._patch(core.DistributedProblem, "f", "problem.f")
        self._patch(core.DistributedProblem, "grad_f", "problem.grad_f")
        self._patch(core.RandomStream, "generator", "core.stream_draw")
        self._patch(core, "require_finite", "core.finite_check")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def save(self, path):
        """Write the spans (uncompressed ``.npz``) once the pass is over."""
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics (keys of `LAYER_UNITS`) from the recorded spans."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        k = len(self.names)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - covered
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)

        ids = self._ids

        def total(arr, span):
            return float(arr[ids[span]]) if span in ids else 0.0

        # spans made for a method's own work: under a step or initialisation
        billed_roots = {ids.get("methods.step"), ids.get("methods.init")}
        in_method = np.zeros(len(dur), dtype=bool)
        for i, (nid, par) in enumerate(zip(name.tolist(), parent.tolist())):
            in_method[i] = nid in billed_roots or (par >= 0 and in_method[par])
        primitive_ids = [
            ids.get(span, -1)
            for span in ("problems.matvec", *("grad." + c for c in BASE_ORACLES))
        ]
        billed_primitives = int(np.isin(name[in_method], primitive_ids).sum())

        run_ids = [i for i, n in enumerate(self.names) if n.startswith("harness.run.")]
        metric_ids = [ids.get("problem.f", -1), ids.get("problem.grad_f", -1)]
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        is_metric = np.isin(name, metric_ids) & np.isin(parent_name, run_ids)
        metric_s = float(dur[is_metric].sum())
        run_s = float(busy[run_ids].sum())

        out = {}
        base_calls = 0
        for c in BASE_ORACLES:
            n = total(calls, "grad." + c)
            base_calls += n + total(calls, "value." + c)
            out[f"problems.grad_calls.{c}"] = n
            out[f"problems.grad_s.{c}"] = total(busy, "grad." + c)
            out[f"problems.grad_us.{c}"] = (
                1e6 * out[f"problems.grad_s.{c}"] / n if n else 0.0
            )
        out["problems.value_calls"] = sum(
            total(calls, "value." + c) for c in BASE_ORACLES
        )
        out["problems.value_s"] = sum(total(busy, "value." + c) for c in BASE_ORACLES)
        out["problems.matvec_calls"] = total(calls, "problems.matvec")
        out["problems.matvec_s"] = total(busy, "problems.matvec")
        base_calls += out["problems.matvec_calls"]
        out["problems.build_s"] = total(busy, "problems.build")
        out["problems.libsvm_load_s"] = total(busy, "problems.libsvm_load")
        out["problems.delta_s"] = total(busy, "problems.delta")
        for s in SOLVERS:
            out[f"local_solvers.solves.{s}"] = total(calls, f"local_solvers.solve.{s}")
            out[f"local_solvers.solve_s.{s}"] = total(busy, f"local_solvers.solve.{s}")
        solves = sum(out[f"local_solvers.solves.{s}"] for s in SOLVERS)
        out["local_solvers.steps"] = self.counters["local_steps"]
        out["local_solvers.surrogate_grad_calls"] = total(calls, "grad.SurrogateOracle")
        out["local_solvers.surrogate_value_calls"] = total(
            calls, "value.SurrogateOracle"
        )
        out["local_solvers.values_per_solve"] = (
            out["local_solvers.surrogate_value_calls"] / solves if solves else 0.0
        )
        out["local_solvers.surrogate_self_s"] = total(
            own, "grad.SurrogateOracle"
        ) + total(own, "value.SurrogateOracle")
        out["local_solvers.budget_errors"] = self.counters["budget_errors"]
        out["core.finite_checks"] = total(calls, "core.finite_check")
        out["core.finite_check_s"] = total(busy, "core.finite_check")
        out["core.checks_per_primitive"] = (
            out["core.finite_checks"] / base_calls if base_calls else 0.0
        )
        out["core.stream_draws"] = total(calls, "core.stream_draw")
        out["core.stream_draw_s"] = total(busy, "core.stream_draw")
        out["methods.steps"] = total(calls, "methods.step")
        out["methods.step_self_s"] = total(own, "methods.step")
        out["methods.variate_refreshes"] = total(calls, "methods.variate_refresh")
        out["methods.variate_refresh_s"] = total(busy, "methods.variate_refresh")
        out["methods.grad_evals_billed"] = self.counters["billed"]
        out["methods.billed_per_primitive"] = (
            self.counters["billed"] / billed_primitives if billed_primitives else 0.0
        )
        out["harness.metric_calls"] = float(is_metric.sum())
        out["harness.metric_s"] = metric_s
        out["harness.metric_share"] = metric_s / run_s if run_s else 0.0
        for label in RUN_LABELS:
            out[f"harness.run_s.{label}"] = total(busy, "harness.run." + label)
        out["harness.run_self_s"] = float(own[run_ids].sum())
        out["harness.trace_rows"] = self.counters["trace_rows"]
        out["harness.reference_s"] = total(busy, "harness.reference")
        out["harness.write_s"] = total(busy, "harness.write")
        out["cli.load_config_s"] = total(busy, "cli.load_config")
        out["svgplot.render_s"] = total(busy, "svgplot.render")
        return {key: float(v) for key, v in out.items()}
