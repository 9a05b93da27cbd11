"""Problem construction: synthetic quadratics, LIBSVM data, logistic loss."""
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
from .logistic import LogisticOracle, dirichlet_partition, logistic_problem
from .quadratic import (
    QuadraticClientSpec,
    QuadraticFamily,
    QuadraticOracle,
    build_quadratic_problem,
    gen_quadratic_problem,
)
