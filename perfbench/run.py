"""fedlab benchmark: `fedlab run` in process on seed-generated workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload quadratic_sc --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one line each
    python3 perfbench/run.py --record-ledger           # rewrite perfbench/ledger.json

Each run first replays the workload's default-seed config once and checks it
against the committed ledger, then repeats the seed's config until
``--seconds`` are spent.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` makes one traced pass and reports the per-layer metrics.  The
last line of standard output is the JSON result; the exit code is 1 when any
check failed.  See ``perfbench/README.md`` for every metric.
"""
from __future__ import annotations

import os

# One process, one run at a time, no extra threads: BLAS gets one thread.
# Set before numpy is imported; this changes only this process's environment.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from workloads import (
    CONVEX,
    DEFAULT_SEED,
    LEDGER_PATH,
    ROOT,
    WORKLOADS,
    bundled_config,
    load_ledger,
    make_config,
)

OUT_DIR = ROOT / ".perfbench_out"
END_TO_END_UNITS = {
    "total_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "grad_evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}
MIN_PASSES = 2
SETUP_SAMPLES = 21
CALIBRATION_EVERY_S = 0.001  # a calibration sample at the first step after this
CALIBRATION_BURST = 10  # samples before each pass
# median calibration sample on the reference machine, quiet (README)
CALIBRATION_REF_S = 2.5e-5
_CAL_MATRIX = np.random.default_rng(0).standard_normal((100, 100)) / 10.0
_CAL_VECTOR = np.ones(100)


class SetupDone(BaseException):
    """Stops a setup-only pass at the first method run.

    A BaseException, so that the CLI's ``except Exception`` boundary lets it
    through to the benchmark.
    """


def calibration_sample() -> float:
    """Seconds for one fixed piece of small-vector numpy and Python work.

    Its mix is that of an oracle call, so other load on the machine slows
    it as it slows fedlab.
    """
    a, v = _CAL_MATRIX, _CAL_VECTOR
    began = perf_counter()
    acc = 0.0
    for _ in range(5):
        y = a @ v
        acc += float(y @ y) + sum(range(30))
    return perf_counter() - began


@dataclass
class Run:
    """One ``run_experiment`` call of a pass."""

    method: str
    seconds: float = 0.0  # excluding calibration
    result: object = None
    error: str | None = None
    calibration: list[float] = field(default_factory=list)


@dataclass
class Pass:
    """One `fedlab run` call: its timings and what each method returned."""

    wall_s: float = 0.0  # excluding calibration
    setup_s: float = 0.0
    runs: list[Run] = field(default_factory=list)
    rc: int | None = None
    stderr: str = ""
    hashes: dict = field(default_factory=dict)
    calibration: list[float] = field(default_factory=list)

    def speed(self, run: Run | None = None) -> float:
        """Reference-machine seconds per measured second: during ``run``
        from the samples taken in it, else from all samples of the pass."""
        samples = run.calibration if run and run.calibration else self.calibration
        return CALIBRATION_REF_S / statistics.median(samples)


def run_pass(cli, config_path, out_dir, setup_only=False, calibrate=True) -> Pass:
    """Call ``fedlab run`` once, timing setup and every method run.

    Calibration samples are taken just before the call and, during method
    runs, at the first step boundary after every ``CALIBRATION_EVERY_S``;
    their time is left out of every timing.
    """
    from fedlab import harness

    p = Pass()
    if calibrate:
        p.calibration.extend(calibration_sample() for _ in range(CALIBRATION_BURST))
    started = 0.0
    paused = 0.0  # calibration time since the call started
    last = 0.0
    inner_run, inner_step = cli.run_experiment, harness.step_method

    def timed_run(*args, **kwargs):
        nonlocal paused, last
        began = last = perf_counter()
        if not p.runs:
            p.setup_s = began - started
            if setup_only:
                raise SetupDone
        run = Run(args[1].method)
        p.runs.append(run)
        paused_before = paused
        try:
            run.result = inner_run(*args, **kwargs)
        except Exception as exc:
            run.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            run.seconds = perf_counter() - began - (paused - paused_before)
        return run.result

    def timed_step(*args, **kwargs):
        nonlocal paused, last
        now = perf_counter()
        if calibrate and now - last >= CALIBRATION_EVERY_S:
            sample = calibration_sample()
            p.runs[-1].calibration.append(sample)
            p.calibration.append(sample)
            last = perf_counter()
            paused += last - now
        return inner_step(*args, **kwargs)

    err = io.StringIO()
    cli.run_experiment, harness.step_method = timed_run, timed_step
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            started = perf_counter()
            p.rc = cli.main(["run", "--config", str(config_path), "--out", str(out_dir)])
            p.wall_s = perf_counter() - started - paused
    except SetupDone:
        pass
    finally:
        cli.run_experiment, harness.step_method = inner_run, inner_step
    p.stderr = err.getvalue()
    if not setup_only:
        p.hashes = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out_dir.glob("*.csv"))
        }
    return p


def ledger_row(result) -> dict:
    last = result.traces[-1]
    return {
        "rounds": last.rounds,
        "iterations": last.k,
        "grad_evals": float(result.total_grad_evals),
        "reached": bool(result.reached),
    }


def finite_rows(result) -> bool:
    return all(
        math.isfinite(v)
        for t in result.traces
        for v in (t.f_gap, t.grad_norm_sq, 0.0 if t.dist_sq is None else t.dist_sq)
    )


class Gate:
    """Counts method runs and the ones that failed a check."""

    def __init__(self, workload: str, ledger: dict):
        self.workload = workload
        self.ledger = ledger
        self.attempted = 0
        self.failed = 0  # method runs that failed a check
        self.failures: list[str] = []
        self.first: dict[str, tuple] = {}

    def config(self, cfg: dict):
        """The default-seed config must equal the bundled file field for field."""
        if self.workload in CONVEX and cfg != bundled_config(self.workload):
            self.failures.append(f"default config differs from configs/{self.workload}.json")

    def check(self, key: str, cfg: dict, p: Pass, default: bool):
        """Check every method run of pass ``p`` of the config named ``key``."""
        methods = [m["name"] for m in cfg["methods"]]
        self.attempted += len(methods)
        by_method = {r.method: r for r in p.runs}
        failed = self.failed
        for name in methods:
            run = by_method.get(name)
            why = None
            if run is None or run.result is None:
                why = (run and run.error) or f"did not run (exit {p.rc}): {p.stderr.strip()}"
            elif not finite_rows(run.result):
                why = "wrote a non-finite row"
            elif self.workload in CONVEX and not run.result.reached:
                why = "missed target_gap"
            elif default and ledger_row(run.result) != self.ledger["methods"][name]:
                why = f"ledger {self.ledger['methods'][name]} != {ledger_row(run.result)}"
            else:
                csv = f"{name}_seed{cfg['seed']}.csv"
                seen = (ledger_row(run.result), p.hashes.get(csv))
                if self.first.setdefault(f"{key}/{name}", seen) != seen:
                    why = "repeat differs from the first pass"
            if why:
                self.failed += 1
                self.failures.append(f"{key} {name}: {why}")
        if p.rc != 0 and self.failed == failed:
            self.failed += 1
            self.failures.append(f"{key}: exit {p.rc}: {p.stderr.strip()}")

    def traces_changed(self, p: Pass) -> int:
        want = self.ledger["trace_sha256"]
        return sum(p.hashes.get(name) != digest for name, digest in want.items())


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def import_fedlab():
    sys.path.insert(0, str(ROOT / "src"))
    import fedlab
    import fedlab.cli

    if not os.path.realpath(fedlab.__file__).startswith(os.path.realpath(ROOT / "src")):
        raise ImportError(f"fedlab imported from {fedlab.__file__}, not from src/")
    return fedlab.cli


def write_config(workload: str, seed: int):
    """Config file and output directory for one seed.

    The config sits one directory below the repository root, as ``configs/``
    does, so the bundled relative dataset path (``../data/...``) resolves.
    """
    cfg = make_config(workload, seed)
    path = OUT_DIR / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps(cfg, indent=2))
    out = OUT_DIR / f"{workload}-seed{seed}"
    out.mkdir(exist_ok=True)
    return cfg, path, out


def lower_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[0]


class Composer:
    """End-to-end metrics from the untraced passes of one seed.

    Other load on a shared machine slows this process by a factor that
    changes from second to second.  Each method run's time is multiplied by
    its `Pass.speed`, which puts it in seconds of the reference machine.
    The calibration follows the slow-downs only roughly, and other load only
    ever adds time, so the total and solve times are the lower quartile over
    the passes; the setup time is the median of its samples.
    """

    def __init__(self, ledger: dict):
        self.ledger = ledger
        self.work: dict[str, float] = {}
        self.solve: list[float] = []
        self.total: list[float] = []
        self.setups: list[float] = []
        self.raw_walls: list[float] = []
        self.speeds: list[float] = []

    def add(self, p: Pass):
        """Fold in one checked pass.

        Each method's time is scaled by ledger work / this seed's work
        (billed grad_evals), so that figures of different seeds compare; at
        the default seed the scale is 1.
        """
        methods = self.ledger["methods"]
        solve = 0.0
        for run in p.runs:
            self.work[run.method] = run.result.total_grad_evals
            scale = methods[run.method]["grad_evals"] / self.work[run.method]
            solve += p.speed(run) * scale * run.seconds
        rest = p.wall_s - sum(r.seconds for r in p.runs)
        self.solve.append(solve)
        self.total.append(p.speed() * rest + solve)
        self.add_setup(p)
        self.raw_walls.append(p.wall_s)

    def add_setup(self, p: Pass):
        self.setups.append(p.speed() * p.setup_s)
        self.speeds.append(p.speed())

    def metrics(self) -> tuple[dict, dict]:
        solve_s = lower_quartile(self.solve)
        ledger_work = sum(row["grad_evals"] for row in self.ledger["methods"].values())
        metrics = {
            "total_s": lower_quartile(self.total),
            "setup_s": statistics.median(self.setups),
            "solve_s": solve_s,
            "grad_evals_per_s": ledger_work / solve_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        ledger = self.ledger["methods"]
        detail = {
            "passes": len(self.solve),
            "raw_wall_s": self.raw_walls,
            "speed": self.speeds,
            "solve_s": self.solve,
            "total_s": self.total,
            "setup_s": self.setups,
            "work_scale": {m: ledger[m]["grad_evals"] / g for m, g in self.work.items()},
        }
        return metrics, detail


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    cli = import_fedlab()
    OUT_DIR.mkdir(exist_ok=True)
    ledger = load_ledger()["workloads"][workload]
    gate = Gate(workload, ledger)

    # the ledger pass: default seed, untimed; it also warms caches and imports
    default_cfg, default_path, default_out = write_config(workload, DEFAULT_SEED)
    gate.config(default_cfg)
    first = run_pass(cli, default_path, default_out)
    gate.check("default", default_cfg, first, default=True)
    traces_changed = gate.traces_changed(first)

    cfg, path, out = write_config(workload, seed)
    key = f"seed{seed}"
    is_default = seed == DEFAULT_SEED
    deadline = perf_counter() + seconds
    detail: dict = {}
    if trace:
        from tracer import LAYER_UNITS, Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cli, path, out, calibrate=False)
        finally:
            tracer.uninstall()
        gate.check(key, cfg, traced, is_default)
        tracer.save(OUT_DIR / f"spans-{workload}-seed{seed}.npz")
        plain = [run_pass(cli, path, out)]
        while perf_counter() + max(q.wall_s for q in plain) < deadline:
            plain.append(run_pass(cli, path, out))
        for q in plain:
            gate.check(key, cfg, q, is_default)
        layer = tracer.metrics()
        layer["harness.trace_files_changed"] = float(traces_changed)
        layer["bench.trace_overhead_s"] = traced.wall_s - statistics.median(
            q.wall_s for q in plain
        )
        units = {
            **LAYER_UNITS,
            "harness.trace_files_changed": "count",
            "bench.trace_overhead_s": "s",
        }
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        detail = {"spans": len(tracer.start), "untraced_total_s": [q.wall_s for q in plain]}
    else:
        composer = Composer(ledger)
        while len(composer.solve) < MIN_PASSES or (
            perf_counter() + max(composer.raw_walls) < deadline
        ):
            p = run_pass(cli, path, out)
            gate.check(key, cfg, p, is_default)
            if not gate.failures:
                composer.add(p)
            # setup is cheap on the quadratic workloads: sample it more there
            for _ in range(min(4, int(0.05 * p.wall_s / max(p.setup_s, 1e-9)))):
                composer.add_setup(run_pass(cli, path, out, setup_only=True))
            if gate.failures:
                break
        while not gate.failures and len(composer.setups) < SETUP_SAMPLES:
            composer.add_setup(run_pass(cli, path, out, setup_only=True))
        metrics = {}
        if not gate.failures:
            values, detail = composer.metrics()
            metrics = {
                k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()
            }
        detail["trace_files_changed"] = traces_changed

    correct = not gate.failures
    result = {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "config": cfg,
        "environment": environment(),
        "failures": gate.failures,
        "detail": detail,
        **result,
    }
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2)
    )
    for failure in gate.failures:
        print(f"FAILED {workload}: {failure}")
    if not trace:
        print(f"{workload} seed {seed}: failed_share {gate.failed / gate.attempted:.4f}")
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{workload}: no result (exit {proc.returncode}): {proc.stderr.strip()}")
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] = combined["correct"] and res["correct"] and proc.returncode == 0
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def record_ledger() -> int:
    """Rewrite ledger.json from one default-seed pass of every workload."""
    cli = import_fedlab()
    OUT_DIR.mkdir(exist_ok=True)
    ledger = {"default_seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        cfg, path, out = write_config(workload, DEFAULT_SEED)
        p = run_pass(cli, path, out)
        if p.rc != 0 or any(r.result is None for r in p.runs):
            print(f"{workload}: run failed: {p.stderr.strip()}", file=sys.stderr)
            return 1
        ledger["workloads"][workload] = {
            "methods": {r.method: ledger_row(r.result) for r in p.runs},
            "trace_sha256": {k: v for k, v in p.hashes.items() if k != "summary.csv"},
        }
    LEDGER_PATH.write_text(json.dumps(ledger, indent=2) + "\n")
    print(f"wrote {LEDGER_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-ledger", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "fedlab" / "__init__.py").is_file():
        print(f"no fedlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_ledger:
        return record_ledger()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
