"""Generate the bundled synthetic binary-classification dataset.

Writes ``data/synth_binary.libsvm``: 1200 rows, 40 features, about 10
nonzeros per row, labels from a fixed hyperplane with 8% flips.  The file
is committed so experiments and tests never depend on network access;
rerun this script only to regenerate it from scratch.  A test checks that
``serialize_libsvm(build_dataset())`` is the committed file byte for byte.
"""
from __future__ import annotations

import os
import sys

import numpy as np
import scipy.sparse as sp

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from fedlab.core import RandomStream
from fedlab.problems import SparseDataset, serialize_libsvm

N_ROWS = 1200
N_FEATURES = 40
NNZ_PER_ROW = 10
FLIP_RATE = 0.08


def build_dataset() -> SparseDataset:
    """The bundled dataset, drawn from a fixed seed straight into CSR form."""
    rng = RandomStream(20240101).generator()
    truth = rng.standard_normal(N_FEATURES)
    truth /= np.linalg.norm(truth)
    labels = np.empty(N_ROWS)
    indices = np.empty((N_ROWS, NNZ_PER_ROW), dtype=np.int64)
    data = np.empty((N_ROWS, NNZ_PER_ROW))
    for r in range(N_ROWS):
        idx = np.sort(rng.choice(N_FEATURES, size=NNZ_PER_ROW, replace=False))
        vals = np.round(rng.standard_normal(NNZ_PER_ROW), 4)
        margin = sum(truth[j] * v for j, v in zip(idx, vals))
        label = 1.0 if margin >= 0 else -1.0
        if rng.random() < FLIP_RATE:
            label = -label
        labels[r], indices[r], data[r] = label, idx, vals
    indptr = np.arange(0, N_ROWS * NNZ_PER_ROW + 1, NNZ_PER_ROW)
    matrix = sp.csr_matrix(
        (data.ravel(), indices.ravel(), indptr), shape=(N_ROWS, N_FEATURES)
    )
    return SparseDataset(labels=labels, matrix=matrix)


def main() -> None:
    out = os.path.join(os.path.dirname(__file__), "..", "data", "synth_binary.libsvm")
    with open(out, "w") as fh:
        fh.write(serialize_libsvm(build_dataset()))
    print(f"wrote {N_ROWS} rows to {os.path.normpath(out)}")


if __name__ == "__main__":
    main()
