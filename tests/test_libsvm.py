"""Sparse data file format: parsing, validation, serialization."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedlab import (
    ConfigurationError,
    ParseError,
    SparseDataset,
    parse_libsvm,
    serialize_libsvm,
)
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


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
def test_non_finite_feature_value_names_its_line(value):
    with pytest.raises(ParseError) as err:
        parse_libsvm(f"-1 2:0.5\n# note\n1 1:{value}\n")
    assert err.value.line_no == 3
    assert str(err.value) == f"line 3: non-finite feature value {value!r}"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hand_built_non_finite_entries_are_rejected(bad):
    with pytest.raises(ConfigurationError, match="non-finite"):
        SparseDataset(labels=[1.0], matrix=sp.csr_matrix([[1.0, bad]]))


def test_repeated_entries_summing_past_the_float_range_are_rejected():
    matrix = sp.csr_matrix((np.array([1e308, 1e308]), [0, 0], [0, 2]), shape=(1, 1))
    with pytest.raises(ConfigurationError, match="non-finite"):
        SparseDataset(labels=[1.0], matrix=matrix)


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


def _per_token_parse(text: str) -> SparseDataset:
    """Reference parse: every rule checked per token, in line order.

    Kept apart from :func:`parse_libsvm`, so that any faster path there must
    still build these arrays and raise this first error.
    """
    labels, data, indices, indptr = [], [], [], [0]
    dim = 0
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            raw = float(tokens[0])
        except ValueError:
            raise ParseError(line_no, f"unreadable label {tokens[0]!r}") from None
        if raw in (1.0,):
            labels.append(1.0)
        elif raw in (-1.0, 0.0, 2.0):
            labels.append(-1.0)
        else:
            raise ParseError(line_no, f"unsupported label {tokens[0]!r}")
        last_idx = 0
        for token in tokens[1:]:
            idx_str, sep, val_str = token.partition(":")
            if not sep:
                raise ParseError(line_no, f"feature {token!r} lacks ':'")
            try:
                idx = int(idx_str)
            except ValueError:
                raise ParseError(line_no, f"bad feature index {idx_str!r}") from None
            if idx < 1:
                raise ParseError(line_no, f"feature index {idx} must be >= 1")
            if idx <= last_idx:
                raise ParseError(
                    line_no, f"feature indices must increase, got {idx} after {last_idx}"
                )
            try:
                val = float(val_str)
            except ValueError:
                raise ParseError(line_no, f"bad feature value {val_str!r}") from None
            if not np.isfinite(val):
                raise ParseError(line_no, f"non-finite feature value {val_str!r}")
            indices.append(idx - 1)
            data.append(val)
            last_idx = idx
        indptr.append(len(indices))
        dim = max(dim, last_idx)
    if not labels:
        raise ParseError(0, "no data rows found")
    matrix = sp.csr_matrix(
        (np.asarray(data, dtype=np.float64), indices, indptr),
        shape=(len(labels), dim),
    )
    return SparseDataset(labels=np.asarray(labels), matrix=matrix)


_LABELS = ["1", "+1", "-1", "0", "2", "1.0", "-1e0", "+2"]
_BAD_LABELS = ["3", "spam", "nan", "-inf", "1:1", "0x1"]
_VALUES = ["0", "-0", "+2.5", "1e-3", "1_0", ".5", "-7", "1E+2"]
_BAD_VALUES = ["abc", "nan", "inf", "-Infinity", "1e400", "2:3", "0x10", "1..2"]


_STEP = st.integers(1, 4)
_VALUE = st.one_of(
    st.sampled_from(_VALUES), st.floats(allow_nan=False, allow_infinity=False).map(repr)
)
_FAULT = st.integers(0, 539)
_BAD_INDEX = st.sampled_from(["x", "1.5", "-2"])
_BAD_VALUE = st.sampled_from(_BAD_VALUES)


def _feature(draw, last: int) -> tuple[str, int]:
    """A feature token after index ``last``, and the index it moves to;
    a few in a hundred break a rule."""
    idx = last + draw(_STEP)
    value = draw(_VALUE)
    faults = {
        0: lambda: f"{idx}",                          # no colon
        1: lambda: f"{idx}:{value}:{value}",          # doubled colon
        2: lambda: f":{value}",                       # empty index
        3: lambda: f"{idx}:",                         # empty value
        4: lambda: f"0:{value}",                      # index 0
        5: lambda: f"{max(last, 1)}:{value}",         # repeated index
        6: lambda: f"{max(last - 1, 1)}:{value}",     # decreasing index
        7: lambda: f"{draw(_BAD_INDEX)}:{value}",
        8: lambda: f"{idx}:{draw(_BAD_VALUE)}",
    }
    return faults.get(draw(_FAULT), lambda: f"{idx}:{value}")(), idx


_LINE_KIND = st.integers(0, 9)
_BLANK = st.sampled_from(["", "   ", "\t"])
_LABEL_FAULT = st.integers(0, 39)
_GOOD_LABEL = st.sampled_from(_LABELS)
_BAD_LABEL = st.sampled_from(_BAD_LABELS)
_WIDTH = st.integers(0, 5)
_GAP = st.sampled_from([" ", "  ", "\t"])
_TAIL = st.sampled_from(["", " ", " # note 3:x", "#"])


@st.composite
def _libsvm_text(draw):
    """LIBSVM text of up to 14 lines: data rows, comments and blank lines,
    with faults in labels and features spread over the rows."""
    lines = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(_LINE_KIND)
        if kind == 0:
            lines.append(draw(_BLANK))
            continue
        if kind == 1:
            lines.append("# a comment 1:2")
            continue
        tokens = [draw(_BAD_LABEL if draw(_LABEL_FAULT) == 0 else _GOOD_LABEL)]
        last = 0
        for _ in range(draw(_WIDTH)):
            token, last = _feature(draw, last)
            tokens.append(token)
        line = draw(_GAP).join(tokens)
        if draw(st.booleans()):
            line += draw(_TAIL)
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def _outcome(parse, text):
    """The arrays ``parse`` builds from ``text``, or its error's line and message."""
    try:
        ds = parse(text)
    except ParseError as exc:
        return ("error", exc.line_no, str(exc))
    m = ds.matrix
    arrays = (m.data, m.indices, m.indptr, ds.labels)
    return ("parsed", m.shape, [(a.dtype.str, a.tobytes()) for a in arrays])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(text=_libsvm_text())
@example(text="1 1:2:3 4\n")                 # a doubled and a missing colon
@example(text="1 1:1\n-1 2:x\n3 1:1\n")      # a label error after a feature error
@example(text="1 2:1 1:1\n-1 3:1\n")         # a decrease within a row
@example(text="1 3:1\n-1 1:1 2:1\n")         # rows restart their indices
def test_parse_matches_the_per_token_reference(text):
    assert _outcome(parse_libsvm, text) == _outcome(_per_token_parse, text)


def test_parse_matches_the_per_token_reference_on_the_bundled_file():
    text = BUNDLED.read_text()
    assert _outcome(parse_libsvm, text) == _outcome(_per_token_parse, text)
