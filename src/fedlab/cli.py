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
import operator
import os
import re
import sys

import numpy as np

from . import local_solvers, methods
from .core import ConfigurationError, RandomStream
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
                "averaging": {"enum": list(methods.AVERAGING)},
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


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "number": (int, float),
    "integer": int,
}
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum"),
    "maximum": (operator.gt, "greater than the maximum"),
}


def _is_type(instance, name: str) -> bool:
    """JSON Schema's type test on ``json.loads`` output, except that an
    integer must be an ``int``: the code that reads those keys cannot take
    2.0.  ``True`` and ``False`` are neither numbers nor integers."""
    if isinstance(instance, bool):
        return name == "boolean"
    return isinstance(instance, _TYPES[name])


def _check(instance, schema: dict, path: tuple = ()):
    """Yield ``(path, message)`` for each keyword of ``schema`` that
    ``instance`` fails.

    Keywords are checked in the schema's order and worded as jsonschema
    4.26's Draft 2020-12 validator words them.  A keyword other than the
    few these schemas use raises rather than pass unchecked.
    """
    number = _is_type(instance, "number")
    for keyword, value in schema.items():
        if keyword == "type":
            if not _is_type(instance, value):
                yield path, f"{instance!r} is not of type {value!r}"
        elif keyword == "const":
            # every const and enum value here is a string, and Python's == on a
            # string is JSON's: no other type equals it
            if instance != value:
                yield path, f"{value!r} was expected"
        elif keyword == "enum":
            if instance not in value:
                yield path, f"{instance!r} is not one of {value!r}"
        elif keyword in _BOUNDS:
            fails, words = _BOUNDS[keyword]
            if number and fails(instance, value):
                yield path, f"{instance!r} is {words} of {value!r}"
        elif keyword in ("minItems", "minLength"):
            sized = _is_type(instance, "array" if keyword == "minItems" else "string")
            if sized and len(instance) < value:
                short = "should be non-empty" if value == 1 else "is too short"
                yield path, f"{instance!r} {short}"
        elif keyword == "items":
            if isinstance(instance, list):
                for index, item in enumerate(instance):
                    yield from _check(item, value, path + (index,))
        elif keyword == "required":
            if isinstance(instance, dict):
                for key in value:
                    if key not in instance:
                        yield path, f"{key!r} is a required property"
        elif keyword == "properties":
            if isinstance(instance, dict):
                for key, subschema in value.items():
                    if key in instance:
                        yield from _check(instance[key], subschema, path + (key,))
        elif keyword == "additionalProperties" and value is False:
            if isinstance(instance, dict):
                extra = sorted(set(instance) - set(schema.get("properties", {})))
                if extra:
                    names = ", ".join(map(repr, extra))
                    verb = "was" if len(extra) == 1 else "were"
                    yield path, (
                        f"Additional properties are not allowed ({names} {verb} "
                        "unexpected)"
                    )
        else:
            raise ValueError(f"unsupported schema keyword {keyword}: {value!r}")


def _schema_errors(instance, schema, where: str) -> list[str]:
    """One ``where: path: message`` line per failed keyword, sorted by path."""
    errors = sorted(_check(instance, schema), key=lambda error: error[0])
    return [
        f"{where}: {'/'.join(map(str, path)) or '(top level)'}: {message}"
        for path, message in errors
    ]


def _reject_constant(name: str):
    """``json.loads`` hook for ``NaN``, ``Infinity`` and ``-Infinity``, which
    Python's parser accepts and the JSON grammar does not."""
    raise ConfigurationError(f"config is not valid JSON: {name} is not a number")


def _finite_float(token: str) -> float:
    """``json.loads`` hook for numbers with a fraction or exponent: one that
    overflows, such as ``1e400``, is refused rather than read as ±inf."""
    value = float(token)
    if not np.isfinite(value):
        raise ConfigurationError(f"config number {token} overflows to {value}")
    return value


def _float_range_int(token: str) -> int:
    """``json.loads`` hook for integers: one beyond the float range is
    refused rather than overflowing where it is read as a float.  JSON has
    no leading zeros, so over 310 characters is past 1.8e308 (and past what
    ``int`` reads, at 4,300 digits)."""
    if len(token) > 310 or abs(int(token)) > sys.float_info.max:
        raise ConfigurationError(f"config number {token} is beyond the float range")
    return int(token)


_PLAIN_LABEL = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]*")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(
            text, parse_constant=_reject_constant, parse_float=_finite_float,
            parse_int=_float_range_int,
        )
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
        # a label names the run's trace file and a summary.csv field
        if not _PLAIN_LABEL.fullmatch(entry.get("label", entry["name"])):
            errors.append(
                f"method {entry['name']}: label {entry['label']!r} is not letters, "
                "digits, _, - and ., not starting with ."
            )
        for block in ("params", "local"):
            if "auto" in entry and block in entry:
                errors.append(
                    f"method {entry['name']}: give either auto or {block}, not both"
                )
    if errors:
        raise ConfigurationError("\n".join(errors))
    return cfg


def _number_array(pcfg: dict, field: str) -> np.ndarray:
    try:
        return np.asarray(pcfg[field], dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"problem.{field}: must be a rectangular nesting of numbers"
        ) from None


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
        matrices = _number_array(pcfg, "matrices")
        if matrices.ndim != 4 or matrices.shape[2] != matrices.shape[3]:
            raise ConfigurationError(
                "problem.matrices: must be nested as clients x components x d x d"
            )
        centers = (
            _number_array(pcfg, "centers")
            if "centers" in pcfg
            else np.zeros(matrices.shape[:3])
        )
        if centers.shape != matrices.shape[:3]:
            raise ConfigurationError(
                f"problem.centers: shape {centers.shape} is not clients x "
                f"components x d = {matrices.shape[:3]}"
            )
        specs = [
            QuadraticClientSpec(centers=c, matrices=a)
            for c, a in zip(centers, matrices)
        ]
        family = QuadraticFamily(specs=specs, beta=pcfg.get("beta", 0.0))
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
    return logistic_problem(parts)


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
    """Keep each first label; suffix repeats past every label in the config."""
    taken = set(labels)
    out = []
    for label in labels:
        if label in out:
            k = 2
            while f"{label}_{k}" in taken:
                k += 1
            label = f"{label}_{k}"
            taken.add(label)
        out.append(label)
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
    repeats = cfg.get("repeats", 1)
    base_seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    record_every = cfg.get("record_every", 100)
    reference = reference_optimum(problem)
    metric = "f_gap" if reference is not None else "grad_norm_sq"

    jobs = [
        (label, mcfg, base_seed + rep)
        for (label, mcfg) in zip(labels, (m for _, m in entries))
        for rep in range(repeats)
    ]
    # each trace is written as its run returns, so a later run that fails
    # leaves the earlier ones on disk
    results = []
    for label, mcfg, seed in jobs:
        result = run_experiment(
            problem, mcfg, budget, seed, reference=reference, record_every=record_every
        )
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{label}_seed{seed}.csv")
        write_trace_csv(path, result.traces, timings=args.timings)
        results.append(result)

    summary_rows = []
    series_rounds = []
    series_evals = []
    for (label, _, seed), result in zip(jobs, results):
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


def _int_at_least(minimum: int):
    """An argparse ``type`` for integers no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{value} is less than the minimum of {minimum}"
            )
        return value

    parse.__name__ = "int"  # argparse's "invalid int value" names the type
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedlab",
        description="communication-efficient federated optimization lab",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the configured experiment")
    run.add_argument("--config", required=True, help="experiment config (JSON)")
    run.add_argument("--out", help="output directory (overrides config)")
    run.add_argument(
        "--seed", type=_int_at_least(0), help="base seed (overrides config)"
    )
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
        "--pairs",
        type=_int_at_least(1),
        default=32,
        help="direction pairs for sampling",
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
