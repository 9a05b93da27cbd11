"""Sparse data file format: parsing, validation, serialization."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from fedlab import ParseError, SparseDataset, parse_libsvm, serialize_libsvm
from fedlab.problems import load_libsvm

ROOT = Path(__file__).resolve().parents[1]
BUNDLED = ROOT / "data" / "synth_binary.libsvm"


def test_parse_single_row():
    ds = parse_libsvm("+1 1:0.5 3:-2\n")
    assert ds.n_rows == 1
    assert ds.labels[0] == 1.0
    assert np.array_equal(ds.matrix.toarray(), [[0.5, 0.0, -2.0]])
    assert ds.dim == 3


def test_label_folding():
    ds = parse_libsvm("1 1:1\n+1 1:1\n-1 1:1\n0 1:1\n2 1:1\n")
    assert list(ds.labels) == [1.0, 1.0, -1.0, -1.0, -1.0]
    with pytest.raises(ParseError):
        parse_libsvm("3 1:1\n")
    with pytest.raises(ParseError):
        parse_libsvm("spam 1:1\n")


def test_bad_feature_value_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse_libsvm("1 3:a\n")
    assert err.value.line_no == 1
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_libsvm("1 1:1\n-1 2:oops\n")
    assert err.value.line_no == 2


def test_indices_must_be_positive_and_increasing():
    with pytest.raises(ParseError):
        parse_libsvm("1 0:1\n")
    with pytest.raises(ParseError):
        parse_libsvm("1 2:1 2:5\n")
    with pytest.raises(ParseError):
        parse_libsvm("1 3:1 2:5\n")
    with pytest.raises(ParseError):
        parse_libsvm("1 x:1\n")
    with pytest.raises(ParseError):
        parse_libsvm("1 4\n")  # missing colon separator


def test_empty_input_is_an_error():
    with pytest.raises(ParseError):
        parse_libsvm("")
    with pytest.raises(ParseError):
        parse_libsvm("# only a comment\n\n")


def test_comments_and_blank_lines_are_skipped():
    text = "# header\n+1 1:2  # trailing note\n\n-1 2:3\n"
    ds = parse_libsvm(text)
    assert ds.n_rows == 2
    assert np.array_equal(ds.matrix[1].toarray(), [[0.0, 3.0]])


def test_serialize_round_trip():
    text = "+1 1:0.25 4:-1.5\n-1 2:3\n+1 1:1 2:2 3:3\n"
    first = parse_libsvm(text)
    second = parse_libsvm(serialize_libsvm(first))
    assert np.array_equal(first.labels, second.labels)
    assert np.array_equal(first.matrix.toarray(), second.matrix.toarray())
    assert first.dim == second.dim


def test_to_csr_layout():
    ds = parse_libsvm("+1 1:2 3:4\n-1 2:-1\n")
    dense = ds.matrix.toarray()
    assert dense.shape == (2, 3)
    assert np.array_equal(dense, np.array([[2.0, 0.0, 4.0], [0.0, -1.0, 0.0]]))


def test_subset_preserves_rows():
    ds = parse_libsvm("+1 1:1\n-1 2:2\n+1 3:3\n")
    sub = ds.subset([2, 0])
    assert sub.n_rows == 2
    assert list(sub.labels) == [1.0, 1.0]
    assert np.array_equal(sub.matrix.toarray(), [[0.0, 0.0, 3.0], [1.0, 0.0, 0.0]])
    assert sub.dim == ds.dim


def test_hand_built_rows_are_sorted_and_summed_without_touching_the_input():
    indices = np.array([1, 0, 1])
    matrix = sp.csr_matrix((np.array([1.0, 2.0, 3.0]), indices, [0, 3]), shape=(1, 2))
    ds = SparseDataset(labels=[1.0], matrix=matrix)
    assert serialize_libsvm(ds) == "+1 1:2.0 2:4.0\n"
    assert np.array_equal(indices, [1, 0, 1]) and np.array_equal(matrix.indices, [1, 0, 1])


def test_load_from_disk(tmp_path):
    path = tmp_path / "tiny.libsvm"
    path.write_text("+1 2:0.5\n-1 1:1\n")
    ds = load_libsvm(path)
    assert ds.n_rows == 2 and ds.dim == 2


def test_dataset_length_mismatch_is_rejected():
    with pytest.raises(Exception):
        SparseDataset(labels=np.array([1.0]), matrix=sp.csr_matrix(np.eye(2)))


def test_bundled_dataset_parses():
    ds = load_libsvm(BUNDLED)
    assert 0 < ds.n_rows <= 5000
    assert set(np.unique(ds.labels)) == {-1.0, 1.0}


def test_bundled_dataset_round_trips_byte_for_byte():
    text = BUNDLED.read_text()
    assert serialize_libsvm(parse_libsvm(text)) == text


def test_generator_script_rebuilds_the_bundled_file():
    script = ROOT / "scripts" / "gen_synthetic_libsvm.py"
    spec = importlib.util.spec_from_file_location("gen_synthetic_libsvm", script)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert serialize_libsvm(gen.build_dataset()) == BUNDLED.read_text()
