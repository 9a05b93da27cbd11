"""Workload configs generated from the benchmark seed, and the ledger.

Every workload is a `fedlab run` config.  The seed sets both the problem
seed and the run seed; at ``DEFAULT_SEED`` the two bundled workloads are
field for field the files under ``configs/``.  The ledger holds what each
method must consume at the default seed (``ledger.json``, next to this file).
"""
from __future__ import annotations

import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
LEDGER_PATH = BENCH_DIR / "ledger.json"
DEFAULT_SEED = 0
WORKLOADS = ("quadratic_sc", "logistic_small", "nonconvex_rand")
# workloads whose methods must reach the config's target_gap
CONVEX = ("quadratic_sc", "logistic_small")


def bundled_config(name: str) -> dict:
    with open(ROOT / "configs" / f"{name}.json") as fh:
        return json.load(fh)


def make_config(name: str, seed: int) -> dict:
    """The workload's `fedlab run` config for benchmark seed ``seed``."""
    if name == "quadratic_sc":
        cfg = bundled_config(name)
        cfg["problem"]["seed"] = seed
        cfg["seed"] = seed + 1
        return cfg
    if name == "logistic_small":
        cfg = bundled_config(name)
        cfg["problem"]["seed"] = seed + 3
        cfg["seed"] = seed
        return cfg
    if name == "nonconvex_rand":
        # the paper's nonconvex rand-averaged regime at a per-call-overhead size
        return {
            "problem": {
                "kind": "quadratic",
                "seed": seed,
                "n_clients": 4,
                "m_components": 2,
                "dim": 100,
                "max_norm": 10.0,
                "min_eig": -2.0,
                "target_delta": 2.0,
                "beta": 400.0,
            },
            "methods": [
                {"name": "dane_plus", "auto": "ncvx"},
                {"name": "fedred_gd", "auto": "ncvx"},
            ],
            "budget": {"max_rounds": 60, "max_iterations": 3000},
            "output_dir": "out/nonconvex_rand",
            "repeats": 1,
            "seed": seed,
        }
    raise ValueError(f"unknown workload {name!r}")


def load_ledger() -> dict:
    with open(LEDGER_PATH) as fh:
        return json.load(fh)
