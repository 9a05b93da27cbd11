"""scripts/compare_traces.py: byte identity, ledger columns and drift."""
import importlib.util
import shutil
from pathlib import Path

import numpy as np

from fedlab.harness import RoundTrace, write_trace_csv

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_traces.py"
_spec = importlib.util.spec_from_file_location("compare_traces", _SCRIPT)
compare_traces = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_traces)


def _rows():
    return [
        RoundTrace(k, k, 3.0 * k, 0.5**k, 2.0 / (k + 1), 0.25 * k, None)
        for k in range(5)
    ]


def _pair(tmp_path, rows_b):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    write_trace_csv(a / "gd_seed0.csv", _rows())
    (a / "summary.csv").write_text("method,seed\ngd,0\n")
    shutil.copytree(a, b)
    write_trace_csv(b / "gd_seed0.csv", rows_b)
    return str(a), str(b)


def test_identical_directories_exit_0(tmp_path, capsys):
    assert compare_traces.main(_pair(tmp_path, _rows())) == 0
    out = capsys.readouterr().out
    assert "identical  gd_seed0.csv" in out and "identical  summary.csv" in out
    assert "f_gap         largest drift: absolute 0, relative 0" in out


def test_last_bit_f_gap_drift_is_reported_and_passes(tmp_path, capsys):
    rows = _rows()
    ulp = np.spacing(rows[3].f_gap)
    rows[3].f_gap += ulp
    assert compare_traces.main(_pair(tmp_path, rows)) == 0
    out = capsys.readouterr().out
    rel = ulp / rows[3].f_gap
    # the file's own drift sits beside its name
    assert (
        f"differs    gd_seed0.csv  f_gap {ulp:.3g} (rel {rel:.3g}), "
        "grad_norm_sq 0 (rel 0), dist_sq 0 (rel 0)\n"
    ) in out
    drift = out.split("f_gap         largest drift: ")[1].splitlines()[0]
    assert drift == f"absolute {ulp:.3g}, relative {rel:.3g}"
    assert "grad_norm_sq  largest drift: absolute 0, relative 0" in out
    assert out.endswith("match\n")


def test_grad_evals_mismatch_exits_1(tmp_path, capsys):
    rows = _rows()
    rows[2].grad_evals += 1.0
    assert compare_traces.main(_pair(tmp_path, rows)) == 1
    out = capsys.readouterr().out
    assert "row 3: k, rounds, grad_evals (2, 2, 6.0) vs (2, 2, 7.0)" in out
    assert out.endswith("DIFFER\n")


def test_a_file_on_one_side_only_exits_1(tmp_path, capsys):
    a, b = _pair(tmp_path, _rows())
    write_trace_csv(Path(b) / "fedred_seed0.csv", _rows())
    assert compare_traces.main([a, b]) == 1
    assert "only in B  fedred_seed0.csv" in capsys.readouterr().out


def test_each_differing_trace_names_its_own_drift(tmp_path, capsys):
    rows = _rows()
    rows[1].grad_norm_sq *= 2.0
    a, b = _pair(tmp_path, rows)
    write_trace_csv(Path(a) / "fedred_seed0.csv", _rows())
    moved = _rows()
    moved[4].dist_sq *= 1.5
    write_trace_csv(Path(b) / "fedred_seed0.csv", moved)
    assert compare_traces.main([a, b]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert (
        "differs    fedred_seed0.csv  f_gap 0 (rel 0), grad_norm_sq 0 (rel 0), "
        "dist_sq 0.5 (rel 0.333)"
    ) in lines
    assert (
        "differs    gd_seed0.csv  f_gap 0 (rel 0), grad_norm_sq 1 (rel 0.5), "
        "dist_sq 0 (rel 0)"
    ) in lines
    assert "identical  summary.csv" in lines


_SUMMARY_HEAD = (
    "method,seed,rounds_to_target,grad_evals_to_target,reached,"
    "final_f_gap,final_grad_norm_sq\n"
)


def _summaries(tmp_path, row_a: str, row_b: str):
    a, b = _pair(tmp_path, _rows())
    (Path(a) / "summary.csv").write_text(_SUMMARY_HEAD + "gd,0,,,false,0.25,0.5\n" + row_a)
    (Path(b) / "summary.csv").write_text(_SUMMARY_HEAD + "gd,0,,,false,0.25,0.5\n" + row_b)
    return [a, b]


def test_a_summary_ledger_mismatch_exits_1(tmp_path, capsys):
    dirs = _summaries(
        tmp_path,
        "fedred,0,12,300.0,true,1e-08,2e-06\n",
        "fedred,0,12,300.0,false,1e-08,2e-06\n",
    )
    assert compare_traces.main(dirs) == 1
    out = capsys.readouterr().out
    assert (
        "  summary.csv row 2: method, seed, rounds_to_target, "
        "grad_evals_to_target, reached ('fedred', '0', '12', '300.0', 'true') "
        "vs ('fedred', '0', '12', '300.0', 'false')\n"
    ) in out
    assert out.endswith("DIFFER\n")


def test_last_bit_summary_drift_is_reported_and_passes(tmp_path, capsys):
    gap = 1e-08
    ulp = float(np.spacing(gap))
    dirs = _summaries(
        tmp_path,
        f"fedred,0,12,300.0,true,{gap!r},2e-06\n",
        f"fedred,0,12,300.0,true,{gap + ulp!r},2e-06\n",
    )
    assert compare_traces.main(dirs) == 0
    out = capsys.readouterr().out
    rel = ulp / (gap + ulp)
    assert (
        f"differs    summary.csv  f_gap {ulp:.3g} (rel {rel:.3g}), "
        "grad_norm_sq 0 (rel 0), dist_sq 0 (rel 0)\n"
    ) in out
    drift = out.split("f_gap         largest drift: ")[1].splitlines()[0]
    assert drift == f"absolute {ulp:.3g}, relative {rel:.3g}"
    assert out.endswith("match\n")


def test_a_summary_row_count_or_non_finite_metric_exits_1(tmp_path, capsys):
    row = "fedred,0,12,300.0,true,1e-08,2e-06\n"
    (tmp_path / "rows").mkdir()
    (tmp_path / "nan").mkdir()
    assert compare_traces.main(_summaries(tmp_path / "rows", row, "")) == 1
    assert "summary.csv: 2 rows vs 1" in capsys.readouterr().out
    moved = row.replace("1e-08", "nan")
    assert compare_traces.main(_summaries(tmp_path / "nan", row, moved)) == 1
    assert "summary.csv row 2: final_f_gap '1e-08' vs 'nan'" in capsys.readouterr().out
