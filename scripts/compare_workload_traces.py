"""Run the benchmark workloads in two source trees and compare their outputs.

    python3 scripts/compare_workload_traces.py PARENT_TREE CHANGE_TREE

For each workload in ``perfbench/workloads.py`` at seeds 0 and 7, writes
``make_config(workload, seed)`` once, runs ``fedlab run`` on it with each
tree's ``src/`` (one run at a time), and compares the two output
directories with ``scripts/compare_traces.py``, whose report is printed
under a header naming the workload and seed.  A relative dataset path is
resolved against each tree's ``configs/`` directory, where the bundled
configs that carry it live.  The outputs go to a temporary directory that
is removed afterwards.

Exits 0 when every pair holds the same files with matching ``k``,
``rounds`` and ``grad_evals`` on every trace row, and 1 otherwise,
including when a run fails.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_HERE, os.path.join(_HERE, "..", "perfbench")]

import compare_traces  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

SEEDS = (0, 7)


def _run(tree: str, cfg: dict, work: str, label: str) -> str | None:
    """``fedlab run`` of ``cfg`` with ``tree``'s sources; its output
    directory, or None after printing why the run failed."""
    tree = os.path.abspath(tree)
    cfg = copy.deepcopy(cfg)
    problem = cfg["problem"]
    if "path" in problem and not os.path.isabs(problem["path"]):
        problem["path"] = os.path.join(tree, "configs", problem["path"])
    config_path = os.path.join(work, f"{label}.json")
    with open(config_path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    out_dir = os.path.join(work, label)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    # `-m` puts the working directory first on sys.path: the tree's root
    # holds no fedlab package to shadow its src/
    done = subprocess.run(
        [sys.executable, "-m", "fedlab.cli", "run", "--config", config_path,
         "--out", out_dir],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        print(f"  fedlab run in {tree} exited {done.returncode}")
        print(done.stderr.rstrip())
        return None
    return out_dir


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare fedlab run outputs of two trees on every workload."
    )
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    args = parser.parse_args(argv)
    failed = []
    with tempfile.TemporaryDirectory() as work:
        for workload in WORKLOADS:
            for seed in SEEDS:
                name = f"{workload}-seed{seed}"
                print(f"== {name}", flush=True)
                cfg = make_config(workload, seed)
                outs = [
                    _run(tree, cfg, work, f"{name}-{side}")
                    for tree, side in ((args.parent_tree, "parent"),
                                       (args.change_tree, "change"))
                ]
                if None in outs or compare_traces.main(outs) != 0:
                    failed.append(name)
                sys.stdout.flush()
    print("all workloads match" if not failed else "DIFFER: " + ", ".join(failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
