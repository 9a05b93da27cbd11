"""Compare two ``fedlab run`` output directories.

    python3 scripts/compare_traces.py DIR_A DIR_B

Prints, for every file in either directory, whether the two copies are
byte-identical.  Trace CSVs that differ are read with
``fedlab.harness.read_trace_csv`` and compared row by row: the ledger
columns ``k``, ``rounds`` and ``grad_evals`` must match exactly.  The
largest absolute and relative drift of ``f_gap``, ``grad_norm_sq`` and
``dist_sq`` is printed beside each differing trace's name, and over all
traces at the end.

Exits 0 when both directories hold the same files and every trace row's
ledger columns match, and 1 otherwise.
"""
from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fedlab.core import ConfigurationError
from fedlab.harness import CSV_HEADER, read_trace_csv

DRIFT_COLUMNS = ("f_gap", "grad_norm_sq", "dist_sq")


def _files(directory: str) -> set[str]:
    return {
        name
        for name in os.listdir(directory)
        if os.path.isfile(os.path.join(directory, name))
    }


def _is_trace(path: str) -> bool:
    with open(path) as fh:
        return fh.readline().rstrip("\n") == CSV_HEADER


def _compare_rows(name: str, rows_a, rows_b) -> tuple[dict, list[str]]:
    """The rows' largest ``[absolute, relative]`` drift per column, and what
    fails the comparison (a row count, a ledger row or an empty cell)."""
    drift = {col: [0.0, 0.0] for col in DRIFT_COLUMNS}
    if len(rows_a) != len(rows_b):
        return drift, [f"{name}: {len(rows_a)} rows vs {len(rows_b)}"]
    problems = []
    ledger_ok = True  # only the first row whose ledger differs is named
    for i, (a, b) in enumerate(zip(rows_a, rows_b), start=1):
        ledger_a = (a.k, a.rounds, a.grad_evals)
        ledger_b = (b.k, b.rounds, b.grad_evals)
        if ledger_a != ledger_b and ledger_ok:
            problems.append(
                f"{name} row {i}: k, rounds, grad_evals {ledger_a} vs {ledger_b}"
            )
            ledger_ok = False
        for col in DRIFT_COLUMNS:
            va, vb = getattr(a, col), getattr(b, col)
            if va == vb:
                continue
            if va is None or vb is None:
                problems.append(f"{name} row {i}: {col} is empty on one side only")
                continue
            diff = abs(va - vb)
            drift[col][0] = max(drift[col][0], diff)
            drift[col][1] = max(drift[col][1], diff / max(abs(va), abs(vb)))
    return drift, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two fedlab run outputs.")
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    args = parser.parse_args(argv)
    files_a, files_b = _files(args.dir_a), _files(args.dir_b)
    ok = files_a == files_b
    drift = {col: [0.0, 0.0] for col in DRIFT_COLUMNS}
    for name in sorted(files_a | files_b):
        if name not in files_b:
            print(f"only in A  {name}")
            continue
        if name not in files_a:
            print(f"only in B  {name}")
            continue
        path_a = os.path.join(args.dir_a, name)
        path_b = os.path.join(args.dir_b, name)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            same = fa.read() == fb.read()
        if same or not (_is_trace(path_a) or _is_trace(path_b)):
            print(f"{'identical' if same else 'differs':<10} {name}")
            continue
        try:
            rows_a, rows_b = read_trace_csv(path_a), read_trace_csv(path_b)
        except ConfigurationError as exc:
            print(f"differs    {name}\n  {name}: {exc}")
            ok = False
            continue
        file_drift, problems = _compare_rows(name, rows_a, rows_b)
        # the file's own largest drift, so a summary can say which trace moved
        print(
            f"differs    {name}  "
            + ", ".join(
                f"{col} {a:.3g} (rel {r:.3g})" for col, (a, r) in file_drift.items()
            )
        )
        for problem in problems:
            print(f"  {problem}")
        ok = ok and not problems
        for col, (abs_drift, rel_drift) in file_drift.items():
            drift[col][0] = max(drift[col][0], abs_drift)
            drift[col][1] = max(drift[col][1], rel_drift)
    for col, (abs_drift, rel_drift) in drift.items():
        print(
            f"{col:<13} largest drift: absolute {abs_drift:.3g}, "
            f"relative {rel_drift:.3g}"
        )
    print("file sets and k, rounds, grad_evals: " + ("match" if ok else "DIFFER"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
