"""Problem construction: synthetic quadratics, LIBSVM data, logistic loss.

The logistic module, and with it scipy's sparse stack, is imported on the
first access to one of its names, so quadratic runs never load it.
"""
from .dissimilarity import (
    DissimilarityReport,
    delta_exact_quadratic,
    delta_sampled,
)
from .libsvm import (
    ParseError,
    SparseDataset,
    load_libsvm,
    parse_libsvm,
    serialize_libsvm,
)
from .quadratic import (
    QuadraticClientSpec,
    QuadraticFamily,
    QuadraticOracle,
    build_quadratic_problem,
    gen_quadratic_problem,
)

_LOGISTIC_NAMES = ("LogisticOracle", "dirichlet_partition", "logistic_problem")


def __getattr__(name):
    if name in _LOGISTIC_NAMES:
        from . import logistic

        return getattr(logistic, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
