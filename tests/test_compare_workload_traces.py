"""scripts/compare_workload_traces.py: one comparison per workload or
fixed config and seed."""
import importlib.util
import json
from pathlib import Path

import pytest

from fedlab import METHODS
from fedlab.cli import build_method, build_problem, load_config
from fedlab.harness import RoundTrace, write_trace_csv

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_workload_traces.py"
_spec = importlib.util.spec_from_file_location("compare_workload_traces", _SCRIPT)
compare_workload_traces = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_workload_traces)


def _fake_runs(monkeypatch, grad_evals, configs=None):
    """Two workloads (and ``configs``) at one seed; ``_run`` writes a one-row
    trace whose ``grad_evals`` is ``grad_evals[tree]``."""
    monkeypatch.setattr(compare_workload_traces, "WORKLOADS", ("a", "b"))
    monkeypatch.setattr(compare_workload_traces, "CONFIGS", configs or {})
    monkeypatch.setattr(compare_workload_traces, "SEEDS", (0,))
    monkeypatch.setattr(
        compare_workload_traces, "make_config", lambda w, s: {"problem": {}}
    )

    def run(tree, cfg, work, label):
        out = Path(work) / label
        out.mkdir()
        row = RoundTrace(0, 0, grad_evals[tree], 1.0, 1.0, 1.0, None)
        write_trace_csv(out / "gd_seed0.csv", [row])
        return str(out)

    monkeypatch.setattr(compare_workload_traces, "_run", run)


def test_matching_trees_exit_0(monkeypatch, capsys):
    _fake_runs(monkeypatch, {"p": 5.0, "c": 5.0})
    assert compare_workload_traces.main(["p", "c"]) == 0
    out = capsys.readouterr().out
    assert "== a-seed0" in out and "== b-seed0" in out
    assert out.endswith("all workloads match\n")


def test_a_ledger_mismatch_exits_1_and_names_every_pair(monkeypatch, capsys):
    _fake_runs(monkeypatch, {"p": 5.0, "c": 6.0})
    assert compare_workload_traces.main(["p", "c"]) == 1
    assert capsys.readouterr().out.endswith("DIFFER: a-seed0, b-seed0\n")


def test_fixed_configs_follow_the_workloads(monkeypatch, capsys):
    _fake_runs(monkeypatch, {"p": 5.0, "c": 6.0}, {"c1": {"problem": {}}})
    assert compare_workload_traces.main(["p", "c"]) == 1
    assert capsys.readouterr().out.endswith("DIFFER: a-seed0, b-seed0, c1-seed0\n")


@pytest.mark.parametrize("name", sorted(compare_workload_traces.CONFIGS))
def test_each_fixed_config_is_valid_at_both_seeds(tmp_path, name):
    for seed in compare_workload_traces.SEEDS:
        cfg = compare_workload_traces.config_of(name, seed)
        assert cfg["seed"] == seed
        assert cfg["problem"].get("seed", seed) == seed
        path = tmp_path / f"{name}-{seed}.json"
        path.write_text(json.dumps(cfg))
        loaded = load_config(str(path))
        problem = build_problem(loaded["problem"])
        # explicit params pass MethodConfig's field check
        for entry in loaded["methods"]:
            if "auto" not in entry:
                build_method(entry, problem, None)
    # the stored entry is left as it was
    assert "seed" not in compare_workload_traces.CONFIGS[name]


def test_every_method_runs_through_explicit_params():
    # not only through auto: the field check and the dispatch see each method
    explicit = [
        entry
        for cfg in compare_workload_traces.CONFIGS.values()
        for entry in cfg["methods"]
        if "auto" not in entry
    ]
    assert {entry["name"] for entry in explicit} == set(METHODS)
    assert any(
        entry.get("local", {}).get("kind") == "scheduled"
        and entry["params"].get("mu", 0.0) > 0.0
        for entry in explicit
    )


def test_a_failing_run_is_reported(tmp_path, capsys):
    # a tree whose fedlab cannot be imported: the run exits non-zero
    package = tmp_path / "tree" / "src" / "fedlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("raise SystemExit(3)\n")
    work = tmp_path / "work"
    work.mkdir()
    cfg = {"problem": {"kind": "logistic", "path": "../data/x.libsvm"}}
    assert compare_workload_traces._run(tmp_path / "tree", cfg, work, "x") is None
    assert "exited 3" in capsys.readouterr().out
    written = (work / "x.json").read_text()
    # a relative dataset path resolves against the tree's configs/
    assert str(tmp_path / "tree" / "configs" / "../data/x.libsvm") in written
