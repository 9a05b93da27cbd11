"""Simulation lab for communication-efficient federated optimization.

Problems (synthetic quadratic families, regularized logistic regression
over LIBSVM data), drift-corrected methods (anchored proximal rounds,
doubly regularized steps with probabilistic communication, their
linearized one-step variant, and reference baselines), local solvers, a
deterministic experiment harness, and a config-driven CLI.

``dirichlet_partition`` and ``logistic_problem`` are resolved on first
access through :mod:`fedlab.problems`, which loads scipy's sparse stack
only then.
"""
from .core import (
    ClientOracle,
    ConfigurationError,
    DimensionError,
    DistributedProblem,
    NonFiniteError,
    RandomStream,
    UnsupportedStructureError,
    Vector,
    as_vector,
)
from .harness import (
    Budget,
    CertificateReport,
    RateConstants,
    ReferenceSolution,
    RoundTrace,
    check_rate_certificates,
    counting_problem,
    grad_evals_to_target,
    mean_grad_norm_certificate,
    read_trace_csv,
    reference_optimum,
    rounds_to_target,
    run_experiment,
    trace_csv_text,
    write_trace_csv,
)
from .local_solvers import (
    LocalSpec,
    SolveReport,
    SolverBudgetError,
    StoppingRule,
    SurrogateOracle,
    schedule_e_r,
    solve_exact_quadratic,
    solve_fgd,
    solve_gd,
)
from .methods import (
    METHODS,
    ClientState,
    MethodConfig,
    ServerState,
    StepRecord,
    control_variate_grad_diff,
    control_variate_recursive_update,
    init_method_state,
    step_method,
    suggest_parameters,
)
from . import problems
from .problems import (
    DissimilarityReport,
    ParseError,
    QuadraticClientSpec,
    QuadraticFamily,
    QuadraticOracle,
    SparseDataset,
    build_quadratic_problem,
    delta_exact_quadratic,
    delta_sampled,
    gen_quadratic_problem,
    load_libsvm,
    parse_libsvm,
    serialize_libsvm,
)

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("dirichlet_partition", "logistic_problem"):
        return getattr(problems, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
