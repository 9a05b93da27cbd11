"""Command line front end: config validation, runs, reports, reproducibility."""
import copy
import dataclasses
import functools
import json
import os
import re
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlab import (
    Budget,
    ConfigurationError,
    LocalSpec,
    MethodConfig,
    StoppingRule,
    delta_exact_quadratic,
    grad_evals_to_target,
    read_trace_csv,
    rounds_to_target,
    suggest_parameters,
)
from fedlab import cli
from fedlab.cli import load_config, main

TINY_QUADRATIC = {
    "problem": {
        "kind": "quadratic",
        "seed": 2,
        "n_clients": 3,
        "m_components": 2,
        "dim": 4,
        "max_norm": 8.0,
        "min_eig": 1.0,
        "target_delta": 1.0,
    },
    "methods": [
        {"name": "gd", "auto": "sc"},
        {"name": "dane_plus", "auto": "sc"},
    ],
    "budget": {"max_rounds": 60, "target_gap": 1e-08, "max_iterations": 5000},
    "record_every": 5,
    "seed": 0,
}

TINY_LIBSVM = """+1 1:0.5 3:1.0
-1 1:-0.25 2:0.75
+1 2:1.5
-1 1:0.1 2:-0.3 3:0.2
+1 1:0.9 3:-0.4
-1 2:0.6 3:0.8
+1 1:-0.7 2:0.2
-1 3:-0.9
"""


CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _write(tmp_path, cfg, name="exp.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ------------------------------------------------------------ load_config


def test_unknown_top_level_key_is_rejected(tmp_path):
    cfg = dict(TINY_QUADRATIC)
    cfg["replays"] = 3
    with pytest.raises(ConfigurationError, match="replays"):
        load_config(_write(tmp_path, cfg))


def test_json_errors_carry_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "problem": }\n')
    with pytest.raises(ConfigurationError, match="line 2"):
        load_config(str(path))


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_json_constants_are_named(tmp_path, constant):
    # Python's parser reads them as floats; the JSON grammar has no such numbers
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(TINY_QUADRATIC).replace("1e-08", constant))
    assert constant in path.read_text()
    message = f"{re.escape(constant)} is not a number"
    with pytest.raises(ConfigurationError, match=message):
        load_config(str(path))


@pytest.mark.parametrize(
    "edit",
    [
        lambda cfg: cfg["budget"].update(target_gap=float("nan")),
        lambda cfg: cfg["methods"].append(
            {"name": "dane_plus", "params": {"lam": float("inf")}}
        ),
    ],
    ids=["target_gap_nan", "lam_inf"],
)
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, edit):
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    edit(cfg)
    cfg["output_dir"] = str(tmp_path / "out")
    assert main(["run", "--config", _write(tmp_path, cfg)]) == 2
    assert "is not a number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_integer_beyond_the_float_range_exits_2(tmp_path, capsys):
    # read as a float, 1 followed by 400 zeros would overflow
    huge = "1" + "0" * 400
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["problem"]["beta"] = 0.0
    cfg["output_dir"] = str(tmp_path / "out")
    text = json.dumps(cfg).replace('"beta": 0.0', f'"beta": {huge}')
    path = tmp_path / "exp.json"
    path.write_text(text)
    assert main(["run", "--config", str(path)]) == 2
    message = f"config number {huge} is beyond the float range"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "token, refused",
    [
        (str(int(sys.float_info.max)), False),
        (str(int(sys.float_info.max) + 1), True),
        (str(-int(sys.float_info.max) - 1), True),
        # past the 4,300 digits that int() reads
        ("9" * 5000, True),
    ],
    ids=["max", "max_plus_1", "minus_max_minus_1", "5000_digits"],
)
def test_integers_are_bounded_by_the_float_range(tmp_path, token, refused):
    path = tmp_path / "exp.json"
    text = json.dumps(TINY_QUADRATIC).replace('"seed": 2', f'"seed": {token}')
    path.write_text(text)
    if refused:
        with pytest.raises(ConfigurationError, match="beyond the float range"):
            load_config(str(path))
    else:
        assert load_config(str(path))["problem"]["seed"] == int(token)


def test_missing_problem_field_is_named(tmp_path):
    cfg = {
        "problem": {"kind": "logistic", "n_clients": 4, "alpha": 0.5}
    }
    with pytest.raises(ConfigurationError, match="path"):
        load_config(_write(tmp_path, cfg))


def test_auto_and_params_conflict(tmp_path):
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["methods"][0] = {"name": "gd", "auto": "sc", "params": {"eta": 0.1}}
    with pytest.raises(ConfigurationError, match="either auto or params"):
        load_config(_write(tmp_path, cfg))


def test_unknown_method_name_is_rejected(tmp_path):
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["methods"][0] = {"name": "adam", "auto": "sc"}
    with pytest.raises(ConfigurationError, match="adam"):
        load_config(_write(tmp_path, cfg))


def test_negative_dimension_is_rejected(tmp_path):
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["problem"]["dim"] = 2
    with pytest.raises(ConfigurationError, match="dim"):
        load_config(_write(tmp_path, cfg))


# ------------------------------------------------------------- exit codes


def test_missing_config_exits_2(capsys):
    assert main(["run", "--config", "/nonexistent/exp.json"]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_without_methods_exits_2(tmp_path, capsys):
    cfg = {"problem": dict(TINY_QUADRATIC["problem"])}
    assert main(["run", "--config", _write(tmp_path, cfg)]) == 2
    assert "methods" in capsys.readouterr().err


def test_diverging_run_exits_1(tmp_path, capsys):
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["methods"] = [{"name": "gd", "params": {"eta": 50.0}}]
    cfg["output_dir"] = str(tmp_path / "out")
    assert main(["run", "--config", _write(tmp_path, cfg)]) == 1
    assert "runtime error" in capsys.readouterr().err


def test_diverging_run_names_method_and_iteration(tmp_path, capsys):
    # the overflow that precedes the typed error is not printed as a warning
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["methods"] = [{"name": "gd", "params": {"eta": 50.0}}]
    cfg["output_dir"] = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "--config", _write(tmp_path, cfg)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"NonFiniteError: gd failed at iteration [1-9]\d*: ", err), err
    assert "RuntimeWarning" not in err


def test_a_diverging_method_keeps_the_earlier_traces(tmp_path, capsys):
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["methods"] = [
        {"name": "gd", "auto": "sc"},
        {"name": "gd", "params": {"eta": 50.0}},
    ]
    code, out_dir = _run_into(tmp_path, "diverging", cfg=cfg)
    assert code == 1
    cfg["methods"] = cfg["methods"][:1]
    solo_code, solo_dir = _run_into(tmp_path, "solo", cfg=cfg)
    assert solo_code == 0
    capsys.readouterr()
    assert sorted(p.name for p in out_dir.iterdir()) == ["gd_seed0.csv"]
    first = (out_dir / "gd_seed0.csv").read_bytes()
    assert first == (solo_dir / "gd_seed0.csv").read_bytes()


@pytest.mark.parametrize(
    "local, message",
    [
        ({"solver": "exact", "kind": "exact"}, "kind"),
        ({"solver": "gd", "kind": "exact"}, "kind"),
        ({"solver": "exact", "check_decrease": True}, "need gd or fgd"),
        ({"solver": "exact", "step": 0.5}, "need gd or fgd"),
        ({"solver": "exact", "kind": "rel_grad", "tol": 0.1},
         "exact would ignore rule"),
        ({"solver": "gd", "kind": "fixed_steps", "steps": 3, "tol": 0.1},
         "fixed_steps would ignore tol"),
        # the schedule is a rule kind, no longer a flag
        ({"solver": "gd", "kind": "rel_grad", "tol": 1.0, "schedule": True},
         "'schedule' was unexpected"),
        # every solve under this rule would exhaust its budget
        ({"solver": "gd", "kind": "fixed_steps", "steps": 10, "max_steps": 5},
         "fixed_steps needs 0 <= steps <= max_steps"),
    ],
)
def test_local_options_no_solver_honours_exit_2_before_setup(
    tmp_path, capsys, local, message
):
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["methods"] = [{"name": "dane_plus", "params": {"lam": 1.0}, "local": local}]
    cfg["output_dir"] = str(tmp_path / "out")
    assert main(["run", "--config", _write(tmp_path, cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_auto_with_a_local_block_exits_2_before_setup(tmp_path, capsys):
    # auto picks its own local solver, so a local block would be ignored
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["methods"][1] = {
        "name": "dane_plus",
        "auto": "sc",
        "local": {"solver": "fgd", "kind": "fixed_steps", "steps": 3},
    }
    cfg["output_dir"] = str(tmp_path / "out")
    assert main(["run", "--config", _write(tmp_path, cfg)]) == 2
    assert "either auto or local" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _integer_keys(schema, path=()):
    """The path of every value that ``schema`` types ``integer``."""
    if schema.get("type") == "integer":
        yield path
    for key, subschema in schema.get("properties", {}).items():
        yield from _integer_keys(subschema, path + (key,))
    if "items" in schema:
        yield from _integer_keys(schema["items"], path + (0,))


_INTEGER_KEYS = [("config", path) for path in _integer_keys(cli._CONFIG_SCHEMA)] + [
    (kind, path)
    for kind, schema in cli._PROBLEM_SCHEMAS.items()
    for path in _integer_keys(schema)
]


@pytest.mark.parametrize(
    "where, path",
    _INTEGER_KEYS,
    ids=[f"{where}:{'/'.join(map(str, path))}" for where, path in _INTEGER_KEYS],
)
def test_an_integral_float_on_an_integer_key_exits_2_before_setup(
    tmp_path, capsys, where, path
):
    # JSON Schema counts 20.0 as an integer; range() and the generators do not
    (tmp_path / "tiny.libsvm").write_text(TINY_LIBSVM)
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["methods"] = [{"name": "fedred_gd", "params": {"lam": 1.0, "eta": 1.0}}]
    if where == "logistic":
        cfg["problem"] = {"kind": "logistic", "path": "tiny.libsvm", "n_clients": 2,
                          "alpha": 1.0}
    block = cfg if where == "config" else cfg["problem"]
    for key in path[:-1]:
        block = block[key] if isinstance(block, list) else block.setdefault(key, {})
    cfg["output_dir"] = str(tmp_path / "out")
    block[path[-1]] = 20
    load_config(_write(tmp_path, cfg))
    block[path[-1]] = 20.0
    assert main(["run", "--config", _write(tmp_path, cfg)]) == 2
    block_name = "config" if where == "config" else "problem"
    line = f"{block_name}: {'/'.join(map(str, path))}: 20.0 is not of type 'integer'"
    assert line in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [["run", "--seed", "-1"], ["delta", "--pairs", "-3"], ["delta", "--pairs", "0"]],
    ids=["seed_negative", "pairs_negative", "pairs_zero"],
)
def test_out_of_range_arguments_exit_2_before_the_config_is_read(
    tmp_path, capsys, monkeypatch, argv
):
    cfg = dict(TINY_QUADRATIC, output_dir=str(tmp_path / "out"))
    monkeypatch.setattr(cli, "load_config", lambda path: pytest.fail("config read"))
    with pytest.raises(SystemExit) as stop:
        main([argv[0], "--config", _write(tmp_path, cfg), *argv[1:]])
    assert stop.value.code == 2
    assert f"{argv[2]} is less than the minimum of" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ------------------------------------------- config checks against jsonschema


@functools.cache
def _jsonschema_validator(strict_integers: bool):
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator
    if strict_integers:
        checker = validator.TYPE_CHECKER.redefine(
            "integer", lambda _, value: type(value) is int
        )
        validator = jsonschema.validators.extend(validator, type_checker=checker)
    return validator


def _jsonschema_errors(instance, schema, where, strict_integers):
    """The config checks as jsonschema 4.26 made them: the reference."""
    validator = _jsonschema_validator(strict_integers)(schema)
    msgs = []
    for err in sorted(validator.iter_errors(instance), key=lambda e: list(e.path)):
        path = "/".join(str(p) for p in err.path) or "(top level)"
        msgs.append(f"{where}: {path}: {err.message}")
    return msgs


def _subschemas(schema):
    """``schema`` and every schema nested in it."""
    yield schema
    for subschema in schema.get("properties", {}).values():
        yield from _subschemas(subschema)
    if "items" in schema:
        yield from _subschemas(schema["items"])


_ALL_SCHEMAS = [
    s
    for top in [cli._CONFIG_SCHEMA, *cli._PROBLEM_SCHEMAS.values()]
    for s in _subschemas(top)
]
_BOUNDS = sorted(
    {s[k] for s in _ALL_SCHEMAS for k in ("minimum", "exclusiveMinimum", "maximum")
     if k in s}
)
# every string the schemas name: const and enum values and property keys
_NAMES = sorted(
    {s["const"] for s in _ALL_SCHEMAS if "const" in s}
    .union(*(s.get("enum", []) for s in _ALL_SCHEMAS))
    .union(*(s.get("properties", {}) for s in _ALL_SCHEMAS))
)
# numbers at and beyond each bound
_NUMBERS = st.one_of(
    st.sampled_from(_BOUNDS).flatmap(
        lambda b: st.sampled_from([b, b - 1, b + 1, float(b), b - 0.5, b + 0.5])
    ),
    st.integers(-3, 300),
    st.floats(-1e3, 1e3),
)
# those, None, booleans, empty and named strings, empty containers; each draw
# is a fresh copy, since later mutations edit it in place
_VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "x", [], {}, [1.0], {"x": 1}]),
    _NUMBERS,
    st.sampled_from(_NAMES),
).map(copy.deepcopy)
_SEED_CONFIGS = [
    TINY_QUADRATIC,
    # every key of the config, method, params, local and budget schemas
    {
        "problem": TINY_QUADRATIC["problem"],
        "methods": [
            {"name": "fedred_gd", "label": "sampled", "params": {
                "lam": 1.0, "eta": 2.0, "p": 0.5, "mu": 0.1, "averaging": "rand",
                "local_steps": 2}},
            {"name": "dane_plus", "params": {"lam": 1.0}, "local": {
                "solver": "gd", "kind": "fixed_steps", "tol": 0.1, "steps": 3,
                "max_steps": 10, "check_decrease": True, "step": 0.5}},
            {"name": "gd", "auto": "sc"},
        ],
        "budget": {"max_rounds": 5, "max_grad_evals": 100.0, "target_gap": 1e-6,
                   "max_iterations": 50},
        "output_dir": "out", "repeats": 2, "record_every": 1, "seed": 3,
    },
    {"problem": {"kind": "quadratic_explicit", "matrices": [[[[2.0, 0.0], [0.0, 1.0]]]],
                 "centers": [[[1.0, 0.0]]], "beta": 0.5}},
    {"problem": {"kind": "logistic", "path": "tiny.libsvm", "n_clients": 2,
                 "alpha": 1.0, "seed": 1}},
] + [
    json.loads(Path(CONFIG_DIR, name).read_text())
    for name in sorted(os.listdir(CONFIG_DIR))
    if name.endswith(".json")
]


def _slots(value):
    """``(container, key)`` for every value nested in ``value``."""
    keys = value if isinstance(value, dict) else range(len(value))
    for key in keys:
        yield value, key
        if isinstance(value[key], (dict, list)):
            yield from _slots(value[key])


@st.composite
def _mutated_configs(draw):
    """A seed config after one to three drops, additions or swaps."""
    cfg = copy.deepcopy(draw(st.sampled_from(_SEED_CONFIGS)))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(cfg))
        action = draw(st.sampled_from(["drop", "add", "swap", "swap"]))
        if action == "add" or not slots:
            target = draw(st.sampled_from([cfg, *(c[k] for c, k in slots)]))
            if isinstance(target, dict):
                target[draw(st.sampled_from(["unknown", *_NAMES]))] = draw(_VALUES)
            elif isinstance(target, list):
                target.append(draw(_VALUES))
        elif action == "drop":
            target, key = draw(st.sampled_from(slots))
            del target[key]
        else:
            # a number is swapped for another number as often as for anything
            target, key = draw(st.sampled_from(slots))
            number = isinstance(target[key], (int, float))
            target[key] = draw(st.one_of(_NUMBERS, _VALUES) if number else _VALUES)
    return cfg


def _has_integral_float(value) -> bool:
    if isinstance(value, float):
        return value.is_integer()
    if isinstance(value, (dict, list)):
        children = value.values() if isinstance(value, dict) else value
        return any(_has_integral_float(child) for child in children)
    return False


def _assert_checks_match_jsonschema(cfg):
    # each problem schema sees the problem block, whatever its kind says
    checks = [(cfg, cli._CONFIG_SCHEMA, "config")]
    if "problem" in cfg:
        checks += [(cfg["problem"], s, "problem") for s in cli._PROBLEM_SCHEMAS.values()]
    for instance, schema, where in checks:
        ours = cli._schema_errors(instance, schema, where)
        assert ours == _jsonschema_errors(instance, schema, where, True)
        # the one intended difference: 2.0 is not an integer
        if ours != _jsonschema_errors(instance, schema, where, False):
            assert _has_integral_float(instance)


@settings(max_examples=400, deadline=None)
@given(_mutated_configs())
def test_config_checks_match_jsonschema(cfg):
    _assert_checks_match_jsonschema(cfg)


def test_config_checks_match_jsonschema_on_every_single_swap():
    # a list, since a set would keep only one of 1 and 1.0
    numbers = [v for b in _BOUNDS for v in (b, b - 1, b + 1, float(b), b - 0.5, b + 0.5)]
    others = [None, True, False, "", [], {}]
    # the configs that carry every key of every schema
    for seed_cfg in _SEED_CONFIGS[1:4]:
        for index, (target, key) in enumerate(_slots(seed_cfg)):
            number = isinstance(target[key], (int, float))
            for value in numbers + others if number else others:
                cfg = copy.deepcopy(seed_cfg)
                target, key = list(_slots(cfg))[index]
                target[key] = value
                _assert_checks_match_jsonschema(cfg)


@pytest.mark.parametrize("instance", [None, [], "x", 2.0, True, {}])
def test_config_checks_match_jsonschema_on_a_non_object_config(instance):
    ours = cli._schema_errors(instance, cli._CONFIG_SCHEMA, "config")
    assert ours == _jsonschema_errors(instance, cli._CONFIG_SCHEMA, "config", True)
    assert ours[0].startswith("config: (top level): ")


@pytest.mark.parametrize(
    "schema",
    [{"pattern": "^a"}, {"maxItems": 2}, {"additionalProperties": True},
     {"additionalProperties": {"type": "string"}}, {"$ref": "#"}],
)
def test_an_unsupported_schema_keyword_raises(schema):
    with pytest.raises(ValueError, match="unsupported schema keyword"):
        cli._schema_errors({"a": 1}, schema, "config")


def test_schemas_name_every_config_field():
    # the CLI keys are the dataclass fields, so neither can fall behind
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    local_keys = set(cli._LOCAL_SCHEMA["properties"])
    assert local_keys == (fields(LocalSpec) | fields(StoppingRule)) - {"rule"}
    params = cli._METHOD_SCHEMA["properties"]["params"]["properties"]
    assert set(params) == fields(MethodConfig) - {"method", "local"}
    budget_keys = set(cli._CONFIG_SCHEMA["properties"]["budget"]["properties"])
    assert budget_keys == fields(Budget)


def test_local_block_on_a_method_without_local_solves_exits_2(tmp_path, capsys):
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["methods"] = [
        {"name": "gd", "params": {"eta": 0.1}, "local": {"solver": "gd"}}
    ]
    cfg["output_dir"] = str(tmp_path / "out")
    assert main(["run", "--config", _write(tmp_path, cfg)]) == 2
    assert "gd would ignore local" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_batch_size_in_a_logistic_problem_block_exits_2(tmp_path, capsys):
    # no problem and no method samples its gradients
    (tmp_path / "tiny.libsvm").write_text(TINY_LIBSVM)
    cfg = {
        "problem": {
            "kind": "logistic", "path": "tiny.libsvm", "n_clients": 2,
            "alpha": 1.0, "batch_size": 2,
        },
        "methods": [{"name": "fedred_gd", "params": {"lam": 1.0, "eta": 1.0}}],
        "budget": {"max_rounds": 5},
        "output_dir": str(tmp_path / "out"),
    }
    assert main(["run", "--config", _write(tmp_path, cfg)]) == 2
    assert "'batch_size' was unexpected" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "entry, message",
    [
        # no method takes a sampling knob
        ({"name": "fedred_gd", "params": {"lam": 1.0, "eta": 1.0, "batch_size": 2}},
         "'batch_size' was unexpected"),
        ({"name": "gd", "params": {"eta": 0.1, "batch_size": 1}},
         "'batch_size' was unexpected"),
        ({"name": "dane_plus", "params": {"lam": 1.0, "batch_size": 2}},
         "'batch_size' was unexpected"),
        ({"name": "fedred_gd", "params": {"lam": 1.0, "eta": 1.0, "stochastic": True}},
         "'stochastic' was unexpected"),
        # the recursive control variate and its gain are gone
        ({"name": "dane_plus", "params": {"lam": 3.0, "control_variate": "recursive"}},
         "'control_variate' was unexpected"),
        ({"name": "dane_plus", "params": {"lam": 3.0, "cv_strength": 0.5}},
         "'cv_strength' was unexpected"),
        # the certificate derives a = lam / delta_B from the run
        ({"name": "dane_plus", "params": {"lam": 3.0, "averaging": "rand", "a": 3.0}},
         "'a' was unexpected"),
        ({"name": "gd", "params": {"eta": 0.2, "lam": 5.0}},
         "gd would ignore lam=5.0"),
        ({"name": "scaffold", "params": {"eta": 0.2, "lam": 5.0}},
         "scaffold would ignore lam=5.0"),
        ({"name": "scaffnew", "params": {"eta": 0.2, "lam": 5.0}},
         "scaffnew would ignore lam=5.0"),
        # a label names a trace file in the output directory and a summary.csv field
        ({"name": "gd", "label": "../escaped", "params": {"eta": 0.1}},
         "label '../escaped' is not letters, digits"),
        ({"name": "gd", "label": "a,b", "params": {"eta": 0.1}},
         "label 'a,b' is not letters, digits"),
    ],
)
def test_rejected_method_params_exit_2_before_setup(tmp_path, capsys, entry, message):
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["methods"] = [entry]
    cfg["output_dir"] = str(tmp_path / "out")
    assert main(["run", "--config", _write(tmp_path, cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_target_gap_without_a_reference_optimum_exits_2(tmp_path, capsys):
    # without a reference f_gap is the gap to the best value seen, which is
    # 0 at the first row: every run would stop there and report it reached
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["problem"]["min_eig"] = -1.0
    cfg["methods"] = [{"name": "gd", "params": {"eta": 0.05}}]
    cfg["output_dir"] = str(tmp_path / "out")
    assert main(["run", "--config", _write(tmp_path, cfg)]) == 2
    assert "target_gap needs a reference optimum" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _diagonal_pair_config(first, second, centers, **extra):
    """An explicit quadratic of two one-component clients ``diag(first)`` and
    ``diag(second)``, run by gd and by dane_plus."""
    matrices = [[[[a, 0.0], [0.0, b]]] for a, b in (first, second)]
    return {
        "problem": {"kind": "quadratic_explicit", "matrices": matrices,
                    "centers": [[c] for c in centers]},
        "methods": [
            {"name": "gd", "params": {"eta": 0.5}},
            {"name": "dane_plus", "params": {"lam": 4.0}},
        ],
        "record_every": 5,
        **extra,
    }


def test_a_singular_convex_mean_runs_without_a_reference(tmp_path):
    # both clients diag(1, 0) are convex, but no optimum is solved for
    cfg = _diagonal_pair_config(
        [1.0, 0.0], [1.0, 0.0], [[2.0, 0.0], [0.0, 0.0]],
        budget={"max_rounds": 20}, output_dir=str(tmp_path / "out"),
    )
    assert main(["run", "--config", _write(tmp_path, cfg)]) == 0
    for label in ("gd", "dane_plus"):
        traces = read_trace_csv(tmp_path / "out" / f"{label}_seed0.csv")
        assert traces[-1].rounds == 20
        assert all(t.dist_sq is None for t in traces)


def test_a_positive_definite_mean_keeps_its_reference_past_a_nonconvex_client(
    tmp_path,
):
    cfg = _diagonal_pair_config(
        [3.0, 3.0], [-1.0, -1.0], [[1.0, 2.0], [-1.0, 0.5]],
        budget={"max_rounds": 200, "target_gap": 1e-10},
        output_dir=str(tmp_path / "out"),
    )
    assert main(["run", "--config", _write(tmp_path, cfg)]) == 0
    for label in ("gd", "dane_plus"):
        traces = read_trace_csv(tmp_path / "out" / f"{label}_seed0.csv")
        assert all(t.dist_sq is not None for t in traces)
        assert traces[-1].f_gap <= 1e-10
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4] for row in summary] == ["true", "true"]


@pytest.mark.parametrize("token", ["1e400", "-1e400"])
def test_an_overflowing_config_number_is_named(tmp_path, token):
    # Python's parser would read it as an infinity
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(TINY_QUADRATIC).replace("1e-08", token))
    with pytest.raises(ConfigurationError, match=f"config number {token} overflows"):
        load_config(str(path))


def test_an_overflowing_beta_exits_2_and_writes_nothing(tmp_path, capsys):
    # read as inf it would fail the run at iteration 0 with exit 1
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["problem"]["beta"] = 12345.0
    cfg["output_dir"] = str(tmp_path / "out")
    path = _write(tmp_path, cfg)
    Path(path).write_text(Path(path).read_text().replace("12345.0", "1e400"))
    assert main(["run", "--config", path]) == 2
    assert "1e400" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------ auto params


def _smoothness(problem, name):
    if name == "gd" and problem.l_smooth_global is not None:
        return problem.l_smooth_global
    return problem.l_smooth


def test_auto_resolves_from_the_exact_report_on_generated_quadratics():
    pcfg = TINY_QUADRATIC["problem"]
    problem = cli.build_problem(pcfg)
    report = cli.dissimilarity(problem, pcfg, 32)[0]
    exact = delta_exact_quadratic(problem)[0]
    assert report == exact
    for name in ("gd", "dane_plus", "fedred", "fedred_gd", "scaffnew"):
        label, cfg = cli.build_method({"name": name, "auto": "sc"}, problem, report)
        assert label == name
        assert cfg == suggest_parameters(
            name, exact, "sc", l_smooth=_smoothness(problem, name), mu=problem.mu
        )


def test_scheduled_local_block_spells_out_the_auto_rule():
    pcfg = TINY_QUADRATIC["problem"]
    problem = cli.build_problem(pcfg)
    report = cli.dissimilarity(problem, pcfg, 32)[0]
    _, auto = cli.build_method({"name": "dane_plus", "auto": "sc"}, problem, report)
    entry = {
        "name": "dane_plus",
        "params": {"lam": auto.lam, "mu": auto.mu},
        "local": {"solver": "gd", "kind": "scheduled"},
    }
    _, spelled = cli.build_method(entry, problem, None)
    assert spelled == auto


def test_explicit_matrix_auto_uses_the_exact_dissimilarity(
    tmp_path, capsys, monkeypatch
):
    # deviations diag(1, 0), diag(-1, 1), diag(0, -1): the exact delta_a is
    # sqrt(2/3), the norm-averaged paper formula gives 1
    cfg = {
        "problem": {
            "kind": "quadratic_explicit",
            "matrices": [
                [[[4.0, 0.0], [0.0, 3.0]]],
                [[[2.0, 0.0], [0.0, 4.0]]],
                [[[3.0, 0.0], [0.0, 2.0]]],
            ],
            "centers": [[[1.0, 0.0]], [[0.0, -1.0]], [[-1.0, 1.0]]],
        },
        "methods": [{"name": "dane_plus", "auto": "sc"}],
        "budget": {"max_rounds": 5},
    }
    ran = []
    run_experiment = cli.run_experiment

    def recording_run(problem, mcfg, *args, **kwargs):
        ran.append(mcfg)
        return run_experiment(problem, mcfg, *args, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", recording_run)
    code, _ = _run_into(tmp_path, "explicit_auto", cfg=cfg)
    capsys.readouterr()
    assert code == 0
    assert [c.method for c in ran] == ["dane_plus"]
    assert ran[0].lam == pytest.approx(2.0 * (2.0 / 3.0) ** 0.5, rel=1e-12)
    assert ran[0].mu == pytest.approx(3.0, rel=1e-12)


# ------------------------------------------------------------ delta report


def test_delta_reports_known_constants(capsys):
    cfg_path = os.path.join(os.path.dirname(__file__), "..", "configs",
                            "remark_delta.json")
    assert main(["delta", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "2.1602469" in out  # sqrt(14/3)
    assert "2.51661148" in out  # sqrt(19/3)
    lines = out.splitlines()
    json_start = next(i for i, l in enumerate(lines) if l.startswith("["))
    payload = json.loads("\n".join(lines[json_start:]))
    assert [entry["method"] for entry in payload] == ["exact", "paper_formula"]
    assert payload[0]["delta_b"] == pytest.approx(3.0, abs=1e-12)
    assert payload[0]["delta_a"] <= payload[1]["delta_a"] + 1e-12


def test_delta_samples_non_quadratic_problems(tmp_path, capsys):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "tiny.libsvm").write_text(TINY_LIBSVM)
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    cfg = {
        "problem": {
            "kind": "logistic",
            "path": "../data/tiny.libsvm",  # relative to the config file
            "n_clients": 2,
            "alpha": 1.0,
            "seed": 0,
        }
    }
    code = main(["delta", "--config", _write(cfg_dir, cfg), "--pairs", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sampled over 8 direction pairs" in out
    assert "sampled" in out


@pytest.mark.parametrize(
    "name", sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".json"))
)
def test_every_bundled_config_loads(name, capsys):
    # a schema change that orphans a key a shipped config still carries fails here
    path = os.path.join(CONFIG_DIR, name)
    cfg = load_config(path)
    problem = cli.build_problem(cfg["problem"], CONFIG_DIR)
    if "methods" in cfg:
        report = cli.dissimilarity(problem, cfg["problem"], 4)[0]
        for entry in cfg["methods"]:
            cli.build_method(entry, problem, report)
    assert main(["delta", "--config", path]) == 0
    capsys.readouterr()


# -------------------------------------------------------------- run smoke


def _run_into(tmp_path, subdir, extra_args=(), cfg=None):
    cfg = json.loads(json.dumps(cfg or TINY_QUADRATIC))
    out_dir = tmp_path / subdir
    cfg["output_dir"] = str(out_dir)
    code = main(["run", "--config", _write(tmp_path, cfg, f"{subdir}.json"),
                 *extra_args])
    return code, out_dir


def test_run_writes_traces_summary_and_plots(tmp_path, capsys):
    code, out_dir = _run_into(tmp_path, "smoke")
    assert code == 0
    stdout = capsys.readouterr().out
    assert "wrote 2 trace files + summary.csv + 2 SVGs" in stdout
    for name in (
        "gd_seed0.csv",
        "dane_plus_seed0.csv",
        "summary.csv",
        "convergence_rounds.svg",
        "convergence_gradevals.svg",
    ):
        assert (out_dir / name).exists(), name
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == (
        "method,seed,rounds_to_target,grad_evals_to_target,reached,"
        "final_f_gap,final_grad_norm_sq"
    )
    assert len(summary) == 3
    # the anchored method should reach the strongly convex target
    dane_row = next(r for r in summary[1:] if r.startswith("dane_plus,"))
    assert dane_row.split(",")[4] == "true"


def test_repeated_labels_write_distinct_traces(tmp_path, capsys):
    # a generated suffix skips every label the config names
    assert cli._unique_labels(["gd", "gd", "gd_2"]) == ["gd", "gd_3", "gd_2"]
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["methods"] = [
        {"name": "gd", "params": {"eta": 0.1}},
        {"name": "gd", "params": {"eta": 0.05}},
        {"name": "gd", "label": "gd_2", "params": {"eta": 0.02}},
    ]
    cfg["budget"] = {"max_rounds": 5}
    code, out_dir = _run_into(tmp_path, "labels", cfg=cfg)
    assert code == 0
    assert "wrote 3 trace files" in capsys.readouterr().out
    traces = sorted(path.name for path in out_dir.glob("*.csv"))
    assert traces == ["gd_2_seed0.csv", "gd_3_seed0.csv", "gd_seed0.csv", "summary.csv"]
    summary = (out_dir / "summary.csv").read_text().splitlines()[1:]
    assert sorted(row.split(",")[0] for row in summary) == ["gd", "gd_2", "gd_3"]


def test_summary_is_recomputable_from_traces(tmp_path, capsys):
    code, out_dir = _run_into(tmp_path, "recompute")
    assert code == 0
    capsys.readouterr()
    target = TINY_QUADRATIC["budget"]["target_gap"]
    for row in (out_dir / "summary.csv").read_text().splitlines()[1:]:
        label, seed, r_t, g_t, reached, f_gap, g_sq = row.split(",")
        traces = read_trace_csv(out_dir / f"{label}_seed{seed}.csv")
        want_r = rounds_to_target(traces, target)
        assert r_t == ("" if want_r is None else str(want_r))
        want_g = grad_evals_to_target(traces, target)
        assert g_t == ("" if want_g is None else repr(float(want_g)))
        assert f_gap == repr(traces[-1].f_gap)
        assert g_sq == repr(traces[-1].grad_norm_sq)
        assert reached == ("true" if want_r is not None else "false")


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    _, first = _run_into(tmp_path, "rep_a", ("--seed", "7"))
    _, second = _run_into(tmp_path, "rep_b", ("--seed", "7"))
    capsys.readouterr()
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert any(name.endswith("_seed7.csv") for name in names)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_timings_flag_populates_wall_clock_column(tmp_path, capsys):
    code, out_dir = _run_into(tmp_path, "timed", ("--timings",))
    capsys.readouterr()
    assert code == 0
    lines = (out_dir / "gd_seed0.csv").read_text().strip().splitlines()
    assert not lines[-1].endswith(",")


_TWO_CLIENT_MATRICES = [[[[2.0, 0.0], [0.0, 1.0]]], [[[1.0, 0.5], [0.5, 3.0]]]]


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"centers": [[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]]}, "centers"),
        ({"centers": [[[1.0, 0.0]]]}, "centers"),
        ({"centers": [[[1.0, 0.0]], [[0.0]]]}, "centers"),
        ({"matrices": [[[[2.0, 0.0], [0.0]]]]}, "matrices"),
    ],
    ids=[
        "centers_too_wide", "centers_for_one_client", "ragged_centers",
        "ragged_matrices",
    ],
)
def test_malformed_explicit_problem_exits_2(tmp_path, capsys, fields, named):
    problem = {"kind": "quadratic_explicit", "matrices": _TWO_CLIENT_MATRICES}
    cfg = {
        "problem": {**problem, **fields},
        "methods": [{"name": "dane_plus", "params": {"lam": 1.0}}],
        "budget": {"max_rounds": 5},
    }
    code, _ = _run_into(tmp_path, "malformed", cfg=cfg)
    err = capsys.readouterr().err
    assert code == 2
    assert f"problem.{named}" in err


def test_explicit_matrix_problem_runs(tmp_path, capsys):
    cfg = {
        "problem": {
            "kind": "quadratic_explicit",
            "matrices": [
                [[[2.0, 0.0], [0.0, 1.0]]],
                [[[1.0, 0.5], [0.5, 3.0]]],
            ],
            "centers": [[[1.0, 0.0]], [[0.0, -1.0]]],
        },
        "methods": [{"name": "dane_plus", "params": {"lam": 1.0}}],
        "budget": {"max_rounds": 40, "target_gap": 1e-09},
    }
    code, out_dir = _run_into(tmp_path, "explicit", cfg=cfg)
    stdout = capsys.readouterr().out
    assert code == 0
    assert (out_dir / "dane_plus_seed0.csv").exists()
    assert "wrote 1 trace files" in stdout


@pytest.mark.parametrize(
    "matrices", [[[[1.0]]], [[[[1.0, 0.0]]]]], ids=["three_levels", "not_square"]
)
def test_explicit_matrices_must_nest_as_clients_components_d_d(matrices):
    with pytest.raises(
        ConfigurationError,
        match=r"^problem\.matrices: must be nested as clients x components x d x d$",
    ):
        cli.build_problem({"kind": "quadratic_explicit", "matrices": matrices})
