"""Command line front end: config validation, runs, reports, reproducibility."""
import dataclasses
import json
import os
import re
import warnings

import pytest

from fedlab import (
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


def test_schemas_name_every_config_field():
    # the CLI keys are the dataclass fields, so neither can fall behind
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    local_keys = set(cli._LOCAL_SCHEMA["properties"])
    assert local_keys == (fields(LocalSpec) | fields(StoppingRule)) - {"rule"}
    params = cli._METHOD_SCHEMA["properties"]["params"]["properties"]
    assert set(params) == fields(MethodConfig) - {"method", "local"}


def test_local_block_on_a_method_without_local_solves_exits_2(tmp_path, capsys):
    cfg = json.loads(json.dumps(TINY_QUADRATIC))
    cfg["methods"] = [
        {"name": "gd", "params": {"eta": 0.1}, "local": {"solver": "gd"}}
    ]
    cfg["output_dir"] = str(tmp_path / "out")
    assert main(["run", "--config", _write(tmp_path, cfg)]) == 2
    assert "gd would ignore local" in capsys.readouterr().err
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
