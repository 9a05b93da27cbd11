"""Checks of the benchmark itself: configs, accounting, the ledger gate, spans.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
from __future__ import annotations

import time

import pytest

import run
from tracer import Tracer
from workloads import CONVEX, WORKLOADS, bundled_config, load_ledger, make_config

cli = run.import_fedlab()


@pytest.mark.parametrize("workload", CONVEX)
def test_default_seed_configs_are_the_bundled_files(workload):
    assert make_config(workload, 0) == bundled_config(workload)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_sets_problem_and_run_seed_only(workload):
    a, b = make_config(workload, 0), make_config(workload, 7)
    assert b["problem"]["seed"] == a["problem"]["seed"] + 7
    assert b["seed"] == a["seed"] + 7
    for cfg in (a, b):
        del cfg["problem"]["seed"], cfg["seed"]
    assert a == b


def traced_default_pass(workload):
    cfg, path, out = run.write_config(workload, 0)
    tracer = Tracer()
    tracer.install()
    try:
        p = run.run_pass(cli, path, out, calibrate=False)
    finally:
        tracer.uninstall()
    return cfg, p, tracer.metrics()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_billed_work_equals_consumed_primitives(workload):
    cfg, p, layer = traced_default_pass(workload)
    gate = run.Gate(workload, load_ledger()["workloads"][workload])
    gate.check("default", cfg, p, default=True)
    assert gate.failures == []
    ledger_work = sum(m["grad_evals"] for m in gate.ledger["methods"].values())
    assert layer["methods.grad_evals_billed"] == ledger_work
    assert layer["methods.billed_per_primitive"] == 1.0
    if workload == "quadratic_sc":
        # fedred alone uses the exact solver: 44,665 billed = 44,520 CG matvecs
        # + 145 variate-refresh gradients
        assert layer["problems.matvec_calls"] == 44_520
        assert layer["local_solvers.values_per_solve"] == 2.0


def test_ledger_mismatch_fails_the_gate():
    workload = "logistic_small"
    ledger = load_ledger()["workloads"][workload]
    ledger["methods"]["gd"] = dict(ledger["methods"]["gd"], rounds=46)
    cfg, path, out = run.write_config(workload, 0)
    gate = run.Gate(workload, ledger)
    gate.check("default", cfg, run.run_pass(cli, path, out), default=True)
    assert gate.attempted == 3
    assert gate.failed == 1 and "gd" in gate.failures[0]


def test_self_time_excludes_direct_children():
    tracer = Tracer()
    refresh = tracer.wrap(lambda: time.sleep(0.002), "methods.variate_refresh")

    def step():
        time.sleep(0.001)
        refresh()
        refresh()

    tracer.wrap(step, "methods.step")()
    layer = tracer.metrics()
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    assert list(tracer.parent) == [-1, 0, 0]
    assert layer["methods.steps"] == 1 and layer["methods.variate_refreshes"] == 2
    assert layer["methods.variate_refresh_s"] == pytest.approx(dur[1] + dur[2])
    assert layer["methods.step_self_s"] == pytest.approx(dur[0] - dur[1] - dur[2])
