"""Run the benchmark workloads and a few fixed configs in two source trees
and compare their outputs.

    python3 scripts/compare_workload_traces.py PARENT_TREE CHANGE_TREE

For each workload in ``perfbench/workloads.py`` and each config in
``CONFIGS`` (paths that no workload runs, each under a second) at seeds 0
and 7, writes ``config_of(name, seed)`` once, runs ``fedlab run`` on it
with each tree's ``src/`` (one run at a time), and compares the two output
directories with ``scripts/compare_traces.py``, whose report is printed
under a header naming the config and seed.  A relative dataset path is
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

# configs for the paths that no workload reaches: fedprox, scaffold, an fgd
# local block, fedred under a gradient rule, fedred_gd with explicit params,
# gd, scaffnew and a scheduled dane_plus through explicit params, a dense
# beta > 0 quadratic, and the two reference cases of a beta = 0 quadratic (a
# singular convex mean has none; a positive definite mean keeps its direct
# one though a client is not convex)
CONFIGS = {
    "generated_paths": {
        "problem": {
            "kind": "quadratic", "seed": 0, "n_clients": 4, "m_components": 3,
            "dim": 20, "max_norm": 10.0, "min_eig": 1.0, "target_delta": 2.0,
        },
        "methods": [
            {"name": "fedprox", "params": {"lam": 4.0}},
            {"name": "scaffold", "params": {"eta": 0.04, "local_steps": 3}},
            {"name": "dane_plus", "params": {"lam": 4.0},
             "local": {"solver": "fgd", "kind": "abs_grad", "tol": 1e-8}},
            {"name": "fedred",
             "params": {"lam": 4.0, "eta": 8.0, "p": 0.5, "averaging": "rand"},
             "local": {"solver": "gd", "kind": "rel_grad", "tol": 0.5}},
            {"name": "fedred_gd",
             "params": {"lam": 4.0, "eta": 10.0, "p": 0.5}},
        ],
        "budget": {"max_rounds": 40, "max_iterations": 400},
        "record_every": 5,
    },
    "explicit_params": {
        "problem": {
            "kind": "quadratic", "seed": 0, "n_clients": 4, "m_components": 3,
            "dim": 20, "max_norm": 10.0, "min_eig": 1.0, "target_delta": 2.0,
        },
        "methods": [
            {"name": "gd", "params": {"eta": 0.04}},
            {"name": "scaffnew", "params": {"eta": 0.04, "p": 0.5}},
            {"name": "dane_plus", "params": {"lam": 4.0, "mu": 1.0},
             "local": {"solver": "gd", "kind": "scheduled"}},
        ],
        "budget": {"max_rounds": 40, "max_iterations": 400},
        "record_every": 5,
    },
    "dense_beta": {
        "problem": {
            "kind": "quadratic_explicit",
            "matrices": [
                [[[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]]],
                [[[2.0, -0.5, 0.0], [-0.5, 5.0, 1.0], [0.0, 1.0, 3.0]]],
                [[[3.0, 0.3, -0.4], [0.3, 2.0, 0.0], [-0.4, 0.0, 4.0]]],
            ],
            "centers": [[[1.0, 0.0, -1.0]], [[0.5, 2.0, 0.0]], [[-1.0, 1.0, 1.5]]],
            "beta": 0.5,
        },
        "methods": [
            {"name": "gd", "auto": "sc"},
            {"name": "dane_plus", "auto": "sc"},
            {"name": "fedred_gd", "auto": "sc"},
        ],
        "budget": {"max_rounds": 200, "target_gap": 1e-8, "max_iterations": 4000},
        "record_every": 5,
    },
    "singular_mean": {
        "problem": {
            "kind": "quadratic_explicit",
            "matrices": [[[[1.0, 0.0], [0.0, 0.0]]], [[[1.0, 0.0], [0.0, 0.0]]]],
            "centers": [[[2.0, 0.0]], [[0.0, 0.0]]],
        },
        "methods": [
            {"name": "gd", "params": {"eta": 0.5}},
            {"name": "dane_plus", "params": {"lam": 1.0}},
            {"name": "fedred_gd", "params": {"lam": 1.0, "eta": 0.5, "p": 0.5}},
        ],
        "budget": {"max_rounds": 20, "max_iterations": 200},
        "record_every": 5,
    },
    "nonconvex_client": {
        "problem": {
            "kind": "quadratic_explicit",
            "matrices": [[[[3.0, 0.0], [0.0, 3.0]]], [[[-1.0, 0.0], [0.0, -1.0]]]],
            "centers": [[[1.0, 2.0]], [[-1.0, 0.5]]],
        },
        "methods": [
            {"name": "gd", "params": {"eta": 0.5}},
            {"name": "dane_plus", "params": {"lam": 4.0}},
        ],
        "budget": {"max_rounds": 200, "target_gap": 1e-10, "max_iterations": 2000},
        "record_every": 5,
    },
}


def config_of(name: str, seed: int) -> dict:
    """The workload's config at ``seed``, or the ``CONFIGS`` entry with
    ``seed`` as its run seed and, on a generated problem, its problem seed."""
    if name not in CONFIGS:
        return make_config(name, seed)
    cfg = copy.deepcopy(CONFIGS[name])
    cfg["seed"] = seed
    if "seed" in cfg["problem"]:
        cfg["problem"]["seed"] = seed
    return cfg


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
        description="Compare fedlab run outputs of two trees on every workload "
        "and fixed config."
    )
    parser.add_argument("parent_tree")
    parser.add_argument("change_tree")
    args = parser.parse_args(argv)
    failed = []
    with tempfile.TemporaryDirectory() as work:
        for config in (*WORKLOADS, *CONFIGS):
            for seed in SEEDS:
                name = f"{config}-seed{seed}"
                print(f"== {name}", flush=True)
                cfg = config_of(config, seed)
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
