"""Config-driven command line front end.

``fedlab run --config exp.json`` executes every configured method for the
requested number of seeds, writes one trace CSV per (method, seed), a
``summary.csv``, and two SVG convergence plots (vs communication rounds
and vs gradient evaluations).  ``fedlab delta --config exp.json`` reports
the Hessian-dissimilarity constants of the configured problem.

Exit codes: 0 success, 1 runtime failure, 2 configuration problem.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import jsonschema
import numpy as np

from . import local_solvers, methods
from .core import ConfigurationError, RandomStream, UnsupportedStructureError
from .harness import (
    Budget,
    grad_evals_to_target,
    reference_optimum,
    rounds_to_target,
    run_experiment,
    write_trace_csv,
)
from .local_solvers import LocalSpec, StoppingRule
from .methods import MethodConfig, suggest_parameters
from .problems import (
    ParseError,
    QuadraticClientSpec,
    QuadraticFamily,
    build_quadratic_problem,
    delta_exact_quadratic,
    delta_sampled,
    gen_quadratic_problem,
    load_libsvm,
)
from .svgplot import render_line_plot, write_svg

_QUADRATIC_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "n_clients", "m_components", "dim", "max_norm", "min_eig"],
    "properties": {
        "kind": {"const": "quadratic"},
        "seed": {"type": "integer", "minimum": 0},
        "n_clients": {"type": "integer", "minimum": 1},
        "m_components": {"type": "integer", "minimum": 1},
        "dim": {"type": "integer", "minimum": 3},
        "max_norm": {"type": "number", "exclusiveMinimum": 0},
        "min_eig": {"type": "number"},
        "target_delta": {"type": "number", "minimum": 0},
        "beta": {"type": "number", "minimum": 0},
    },
}

_EXPLICIT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "matrices"],
    "properties": {
        "kind": {"const": "quadratic_explicit"},
        "matrices": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "number"}},
                },
            },
        },
        "centers": {"type": "array"},
        "beta": {"type": "number", "minimum": 0},
    },
}

_LOGISTIC_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind", "path", "n_clients", "alpha"],
    "properties": {
        "kind": {"const": "logistic"},
        "path": {"type": "string"},
        "n_clients": {"type": "integer", "minimum": 1},
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer", "minimum": 0},
        "batch_size": {"type": ["integer", "null"], "minimum": 1},
    },
}

_LOCAL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "solver": {"enum": list(local_solvers.SOLVERS)},
        "kind": {"enum": list(local_solvers.RULE_KINDS)},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "steps": {"type": "integer", "minimum": 0},
        "max_steps": {"type": "integer", "minimum": 1},
        "check_decrease": {"type": "boolean"},
        "step": {"type": "number", "exclusiveMinimum": 0},
    },
}

_METHOD_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["name"],
    "properties": {
        "name": {"enum": list(methods.METHODS)},
        "label": {"type": "string", "minLength": 1},
        "auto": {"enum": ["sc", "cvx", "ncvx"]},
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "lam": {"type": "number", "minimum": 0},
                "eta": {"type": "number", "minimum": 0},
                "p": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "mu": {"type": "number", "minimum": 0},
                "a": {"type": "number", "exclusiveMinimum": 1},
                "averaging": {"enum": list(methods.AVERAGING)},
                "control_variate": {"enum": list(methods.CONTROL_VARIATES)},
                "cv_strength": {"type": "number", "minimum": 0},
                "stochastic": {"type": "boolean"},
                "local_steps": {"type": "integer", "minimum": 1},
            },
        },
        "local": _LOCAL_SCHEMA,
    },
}

_CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["problem"],
    "properties": {
        "problem": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["quadratic", "quadratic_explicit", "logistic"]}
            },
        },
        "methods": {"type": "array", "minItems": 1, "items": _METHOD_SCHEMA},
        "budget": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "max_rounds": {"type": "integer", "minimum": 1},
                "max_grad_evals": {"type": "number", "exclusiveMinimum": 0},
                "target_gap": {"type": "number", "exclusiveMinimum": 0},
                "max_iterations": {"type": "integer", "minimum": 1},
            },
        },
        "output_dir": {"type": "string", "minLength": 1},
        "repeats": {"type": "integer", "minimum": 1},
        "record_every": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0},
    },
}

_PROBLEM_SCHEMAS = {
    "quadratic": _QUADRATIC_SCHEMA,
    "quadratic_explicit": _EXPLICIT_SCHEMA,
    "logistic": _LOGISTIC_SCHEMA,
}


def _schema_errors(instance, schema, where: str) -> list[str]:
    validator = jsonschema.Draft202012Validator(schema)
    msgs = []
    for err in sorted(validator.iter_errors(instance), key=lambda e: list(e.path)):
        path = "/".join(str(p) for p in err.path) or "(top level)"
        msgs.append(f"{where}: {path}: {err.message}")
    return msgs


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}"
        ) from exc
    errors = _schema_errors(cfg, _CONFIG_SCHEMA, "config")
    if not errors:
        kind = cfg["problem"]["kind"]
        errors = _schema_errors(cfg["problem"], _PROBLEM_SCHEMAS[kind], "problem")
    for entry in cfg.get("methods", []) if not errors else []:
        for block in ("params", "local"):
            if "auto" in entry and block in entry:
                errors.append(
                    f"method {entry['name']}: give either auto or {block}, not both"
                )
    if errors:
        raise ConfigurationError("\n".join(errors))
    return cfg


def build_problem(pcfg: dict, base_dir: str = "."):
    """Instantiate the configured problem.

    Dataset paths are resolved relative to ``base_dir`` (the config file's
    directory) unless absolute.
    """
    kind = pcfg["kind"]
    if kind == "quadratic":
        return gen_quadratic_problem(
            pcfg.get("seed", 0),
            pcfg["n_clients"],
            pcfg["m_components"],
            pcfg["dim"],
            max_norm=pcfg["max_norm"],
            min_eig=pcfg["min_eig"],
            target_delta=pcfg.get("target_delta", 0.0),
            beta=pcfg.get("beta", 0.0),
        )
    if kind == "quadratic_explicit":
        matrices = np.asarray(pcfg["matrices"], dtype=np.float64)
        if matrices.ndim != 4:
            raise ConfigurationError(
                "matrices must be nested as clients x components x d x d"
            )
        centers = (
            np.asarray(pcfg["centers"], dtype=np.float64)
            if "centers" in pcfg
            else np.zeros(matrices.shape[:3])
        )
        specs = [
            QuadraticClientSpec(
                centers=centers[i],
                matrices=matrices[i],
                beta=pcfg.get("beta", 0.0),
            )
            for i in range(matrices.shape[0])
        ]
        family = QuadraticFamily(specs=specs)
        return build_quadratic_problem(family)
    # the logistic module loads scipy's sparse stack, so only this branch imports it
    from .problems.logistic import dirichlet_partition, logistic_problem

    path = pcfg["path"]
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    dataset = load_libsvm(path)
    parts = dirichlet_partition(
        dataset,
        pcfg["n_clients"],
        pcfg["alpha"],
        RandomStream(pcfg.get("seed", 0)).fork(1),
    )
    return logistic_problem(parts, pcfg.get("batch_size"))


def dissimilarity(problem, pcfg: dict, pairs: int) -> list:
    """The problem's dissimilarity reports; ``auto`` parameters read the first.

    Quadratics get the ``[exact, paper_formula]`` pair; any other problem one
    lower estimate sampled over ``pairs`` direction pairs, drawn from fork 2
    of the problem seed.
    """
    if problem.quadratic is not None:
        return list(delta_exact_quadratic(problem))
    stream = RandomStream(pcfg.get("seed", 0)).fork(2)
    return [delta_sampled(problem, pairs, stream)]


def _build_local(spec: dict | None) -> LocalSpec:
    if not spec:
        return LocalSpec()
    rule_kind = spec.get("kind", "abs_grad")
    rule = StoppingRule(
        rule_kind,
        tol=spec.get("tol", 1e-9 if rule_kind in ("abs_grad", "rel_grad") else 0.0),
        steps=spec.get("steps", 0),
        max_steps=spec.get("max_steps", 1_000_000),
    )
    return LocalSpec(
        solver=spec.get("solver", "exact"),
        rule=rule,
        check_decrease=spec.get("check_decrease", False),
        step=spec.get("step"),
    )


def build_method(entry: dict, problem, delta_report) -> tuple[str, MethodConfig]:
    name = entry["name"]
    label = entry.get("label", name)
    if "auto" in entry:
        smooth = problem.l_smooth
        if name == "gd" and problem.l_smooth_global is not None:
            smooth = problem.l_smooth_global
        cfg = suggest_parameters(
            name,
            delta_report,
            entry["auto"],
            l_smooth=smooth,
            mu=problem.mu or 0.0,
        )
        return label, cfg
    local = _build_local(entry.get("local"))
    return label, MethodConfig(method=name, local=local, **entry.get("params", {}))


def _unique_labels(labels: list[str]) -> list[str]:
    seen: dict[str, int] = {}
    out = []
    for label in labels:
        seen[label] = seen.get(label, 0) + 1
        out.append(label if seen[label] == 1 else f"{label}_{seen[label]}")
    return out


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    for block in ("methods", "budget"):
        if block not in cfg:
            raise ConfigurationError(f"{block}: required for the run command")
    problem = build_problem(
        cfg["problem"], os.path.dirname(os.path.abspath(args.config))
    )
    delta_report = None
    if any("auto" in m for m in cfg["methods"]):
        delta_report = dissimilarity(problem, cfg["problem"], 32)[0]
    budget_cfg = cfg["budget"]
    budget = Budget(
        max_rounds=budget_cfg.get("max_rounds"),
        max_grad_evals=budget_cfg.get("max_grad_evals"),
        target_gap=budget_cfg.get("target_gap"),
        max_iterations=budget_cfg.get("max_iterations"),
    )
    entries = [build_method(entry, problem, delta_report) for entry in cfg["methods"]]
    labels = _unique_labels([label for label, _ in entries])
    out_dir = args.out or cfg.get("output_dir", "out")
    os.makedirs(out_dir, exist_ok=True)
    repeats = cfg.get("repeats", 1)
    base_seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    record_every = cfg.get("record_every", 100)
    try:
        reference = reference_optimum(problem)
    except UnsupportedStructureError:
        reference = None
    metric = "f_gap" if reference is not None else "grad_norm_sq"

    jobs = [
        (label, mcfg, base_seed + rep)
        for (label, mcfg) in zip(labels, (m for _, m in entries))
        for rep in range(repeats)
    ]
    results = [
        run_experiment(
            problem,
            mcfg,
            budget,
            seed,
            reference=reference,
            record_every=record_every,
        )
        for _, mcfg, seed in jobs
    ]

    summary_rows = []
    series_rounds = []
    series_evals = []
    for (label, _, seed), result in zip(jobs, results):
        path = os.path.join(out_dir, f"{label}_seed{seed}.csv")
        write_trace_csv(path, result.traces, timings=args.timings)
        target = budget.target_gap
        r_t = rounds_to_target(result.traces, target, metric) if target else None
        g_t = grad_evals_to_target(result.traces, target, metric) if target else None
        last = result.traces[-1]
        summary_rows.append(
            [
                label,
                str(seed),
                "" if r_t is None else str(r_t),
                "" if g_t is None else repr(float(g_t)),
                str(result.reached).lower(),
                repr(float(last.f_gap)),
                repr(float(last.grad_norm_sq)),
            ]
        )
        curve_label = label if repeats == 1 else f"{label} s{seed}"
        ys = [getattr(t, metric) for t in result.traces]
        series_rounds.append((curve_label, [t.rounds for t in result.traces], ys))
        series_evals.append((curve_label, [t.grad_evals for t in result.traces], ys))

    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        fh.write(
            "method,seed,rounds_to_target,grad_evals_to_target,reached,"
            "final_f_gap,final_grad_norm_sq\n"
        )
        for row in summary_rows:
            fh.write(",".join(row) + "\n")
    y_name = "f gap" if metric == "f_gap" else "squared gradient norm"
    write_svg(
        os.path.join(out_dir, "convergence_rounds.svg"),
        render_line_plot(
            series_rounds,
            title="convergence vs communication rounds",
            x_label="communication rounds",
            y_label=y_name,
        ),
    )
    write_svg(
        os.path.join(out_dir, "convergence_gradevals.svg"),
        render_line_plot(
            series_evals,
            title="convergence vs gradient evaluations",
            x_label="gradient evaluations (full-gradient units)",
            y_label=y_name,
        ),
    )
    width = max(len(r[0]) for r in summary_rows) + 2
    print(f"{'method':<{width}}{'seed':>6}{'rounds':>10}{'evals':>14}  reached")
    for row in summary_rows:
        print(
            f"{row[0]:<{width}}{row[1]:>6}{row[2] or '-':>10}"
            f"{row[3] or '-':>14}  {row[4]}"
        )
    print(f"wrote {len(jobs)} trace files + summary.csv + 2 SVGs to {out_dir}")
    return 0


def cmd_delta(args) -> int:
    cfg = load_config(args.config)
    problem = build_problem(
        cfg["problem"], os.path.dirname(os.path.abspath(args.config))
    )
    reports = dissimilarity(problem, cfg["problem"], args.pairs)
    if problem.quadratic is None:
        print(f"sampled over {args.pairs} direction pairs")
    print(f"{'method':<16}{'delta_a':>16}{'delta_b':>16}")
    for rep in reports:
        print(f"{rep.method:<16}{rep.delta_a:>16.9g}{rep.delta_b:>16.9g}")
    print(json.dumps([rep.as_dict() for rep in reports], indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedlab",
        description="communication-efficient federated optimization lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the configured experiment")
    run.add_argument("--config", required=True, help="experiment config (JSON)")
    run.add_argument("--out", help="output directory (overrides config)")
    run.add_argument("--seed", type=int, help="base seed (overrides config)")
    run.add_argument(
        "--timings",
        action="store_true",
        help="record wall-clock times in traces (breaks byte-for-byte "
        "reproducibility of output files)",
    )
    run.set_defaults(fn=cmd_run)
    delta = sub.add_parser("delta", help="report dissimilarity constants")
    delta.add_argument("--config", required=True, help="experiment config (JSON)")
    delta.add_argument(
        "--pairs", type=int, default=32, help="direction pairs for sampling"
    )
    delta.set_defaults(fn=cmd_delta)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ConfigurationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
