import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import rankdata

from gmmfad.model import DataMatrix
from gmmfad.preprocess import (
    EmptyCsv,
    NonNumericCell,
    RaggedRow,
    feature_tie_counts,
    gaussian_distributional_transform,
    load_csv,
)


# ------------------------------------------------------------------- load_csv


def test_plain_numeric_file(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,2\n3,4\n5,6\n")
    data = load_csv(f)
    np.testing.assert_array_equal(data.values, [[1, 2], [3, 4], [5, 6]])
    assert data.labels is None


def test_header_row_skipped(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("a,b\n1,2\n3,4\n")
    data = load_csv(f)
    np.testing.assert_array_equal(data.values, [[1, 2], [3, 4]])


@pytest.mark.parametrize(
    "text, label_column, values, mapping",
    [
        # a label column given by name: the first row names it, even when
        # that name also occurs as a label
        ("1,2,M\n3,4,M\n5,6,B\n", "M", [[3, 4], [5, 6]], {"M": 0, "B": 1}),
        # a feature cell that is not a number, even over a recurring label
        ("x,1,M\n3,4,M\n5,6,B\n", 2, [[3, 4], [5, 6]], {"M": 0, "B": 1}),
        # a first label that never recurs, over a column where no other
        # label recurs either: no class is the odd one out, so it is data
        ("1,2,cls\n3,4,M\n5,6,B\n", 2, [[1, 2], [3, 4], [5, 6]],
         {"cls": 0, "M": 1, "B": 2}),
        # a text label that recurs: the first row is data
        ("1,2,M\n3,4,B\n5,6,M\n", 2, [[1, 2], [3, 4], [5, 6]],
         {"M": 0, "B": 1}),
        # an all-numeric first row with no label column is data
        ("1,2\n3,4\n", None, [[1, 2], [3, 4]], {}),
    ],
)
def test_header_decided_from_the_file(tmp_path, text, label_column, values,
                                      mapping):
    f = tmp_path / "m.csv"
    f.write_text(text)
    data, got = load_csv(f, label_column=label_column, return_mapping=True)
    np.testing.assert_array_equal(data.values, values)
    assert got == mapping


def test_header_read_from_a_unique_label_warns(tmp_path):
    # a headerless file whose first sample is the only one of its class
    # looks like a header; the row is still dropped, but not silently
    f = tmp_path / "m.csv"
    f.write_text("0.5,1.5,C\n1,2,B\n3,4,B\n5,6,M\n")
    with pytest.warns(UserWarning) as record:
        data, mapping = load_csv(f, label_column=2, return_mapping=True)
    assert len(record) == 1
    message = str(record[0].message)
    assert str(f) in message and "line 1" in message and "'C'" in message
    assert data.n == 3 and mapping == {"B": 0, "M": 1}


@pytest.mark.parametrize(
    "text, labels",
    [("1,2,A\n3,4,B\n5,6,C\n", ["A", "B", "C"]), ("1,2,A\n3,4,B\n", ["A", "B"])],
)
def test_a_column_where_no_label_recurs_is_all_data(tmp_path, text, labels):
    # a lone first label is a header only as the odd one out of a column
    # whose other labels recur; here every row is a sample
    f = tmp_path / "m.csv"
    f.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data, mapping = load_csv(f, label_column=2, return_mapping=True)
    assert data.n == len(labels)
    assert list(mapping) == labels


@pytest.mark.parametrize(
    "text, label_column",
    [("x,1,M\n3,4,M\n5,6,B\n", 2), ("1,2,M\n3,4,M\n5,6,B\n", "M"),
     ("1,2,label\n3,4,M\n5,6,M\n", 2), ("1,2,Truth\n3,4,M\n5,6,B\n", 2)],
)
def test_header_from_a_text_cell_or_a_label_name_does_not_warn(
        tmp_path, text, label_column):
    f = tmp_path / "m.csv"
    f.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = load_csv(f, label_column=label_column)
    assert data.n == 2


def test_categorical_labels_first_appearance_order(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("M,1.5,2\nB,0.5,1\nM,2.5,3\n")
    data, mapping = load_csv(f, label_column=0, return_mapping=True)
    np.testing.assert_array_equal(data.labels, [0, 1, 0])
    assert mapping == {"M": 0, "B": 1}
    np.testing.assert_array_equal(data.values[:, 0], [1.5, 0.5, 2.5])


def test_label_column_by_name_needs_header(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("cls,x,y\nM,1,2\nB,3,4\n")
    data = load_csv(f, label_column="cls")
    np.testing.assert_array_equal(data.labels, [0, 1])
    f2 = tmp_path / "m2.csv"
    f2.write_text("M,1,2\nB,3,4\n")
    with pytest.raises(ValueError):
        load_csv(f2, label_column="cls")


def test_ragged_row_names_line(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,2\n3\n5,6\n")
    with pytest.raises(RaggedRow) as exc:
        load_csv(f)
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


def test_non_numeric_cell_names_line_and_column(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,2\n3,oops\n")
    with pytest.raises(NonNumericCell) as exc:
        load_csv(f)
    assert exc.value.line == 2
    assert exc.value.column == 2


def test_empty_file_rejected(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("")
    with pytest.raises(EmptyCsv):
        load_csv(f)


def test_blank_lines_skipped_but_line_numbers_preserved(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,2\n\n3,4\n\n5,x\n")
    with pytest.raises(NonNumericCell) as exc:
        load_csv(f)
    assert exc.value.line == 5


# ------------------------------------------------------------------------ GDT


def test_gdt_three_point_feature_by_hand():
    data = DataMatrix(values=np.array([[1.0], [2.0], [3.0]]))
    out = gaussian_distributional_transform(data)
    want = ndtri(np.array([1 / 6, 3 / 6, 5 / 6]))
    np.testing.assert_allclose(out.values[:, 0], want, atol=1e-12)
    assert out.values[1, 0] == pytest.approx(0.0, abs=1e-15)


def test_gdt_preserves_strict_order(rng):
    col = np.sort(rng.standard_normal(40))
    data = DataMatrix(values=col[:, None])
    out = gaussian_distributional_transform(data)
    assert np.all(np.diff(out.values[:, 0]) > 0)


def test_gdt_output_is_nearly_standard_normal(rng):
    n = 400
    raw = np.exp(rng.standard_normal((n, 3)) * 2.0)  # heavily skewed input
    out = gaussian_distributional_transform(DataMatrix(values=raw))
    for j in range(3):
        col = out.values[:, j]
        assert abs(col.mean()) < 0.1 / np.sqrt(n)
        assert abs(col.var() - 1.0) < 0.1


def test_gdt_handles_ties_by_average_rank():
    data = DataMatrix(values=np.array([[1.0], [1.0], [2.0], [3.0]]))
    out = gaussian_distributional_transform(data)
    # tied pair shares the average rank 1.5 -> u = 1/4
    np.testing.assert_allclose(out.values[0, 0], ndtri(0.25), atol=1e-12)
    assert out.values[0, 0] == out.values[1, 0]


def test_gdt_constant_feature_warns_and_zeroes():
    data = DataMatrix(values=np.column_stack([np.full(5, 3.0),
                                              np.arange(5.0)]))
    with pytest.warns(RuntimeWarning):
        out = gaussian_distributional_transform(data)
    np.testing.assert_array_equal(out.values[:, 0], np.zeros(5))
    assert np.all(np.isfinite(out.values))


def test_gdt_of_many_columns_matches_a_rank_per_column(rng):
    y = np.round(rng.standard_normal((40, 6)), 1)  # rounding makes ties
    y[:, 0] = -2.5
    y[:, 3] = 7.0
    with pytest.warns(RuntimeWarning, match=r"columns \[0, 3\]"):
        out = gaussian_distributional_transform(DataMatrix(values=y))
    want = np.empty_like(y)
    for j in range(y.shape[1]):
        want[:, j] = ndtri((rankdata(y[:, j], method="average") - 0.5) / 40)
    assert feature_tie_counts(DataMatrix(values=y))[[1, 2, 4, 5]].min() > 0
    np.testing.assert_array_equal(out.values, want)


def test_gdt_never_produces_infinities(rng):
    vals = rng.standard_normal((500, 2)) * 100
    out = gaussian_distributional_transform(DataMatrix(values=vals))
    assert np.all(np.isfinite(out.values))


@given(st.lists(st.integers(-10**6, 10**6), min_size=3, max_size=60,
                unique=True))
def test_gdt_invariant_to_monotone_transforms(col):
    base = np.asarray(col, dtype=np.float64)[:, None]
    out_base = gaussian_distributional_transform(DataMatrix(values=base))
    # strictly monotone map: ranks unchanged, so output identical
    mapped = np.sign(base) * np.log1p(np.abs(base)) * 3.0 + 7.0
    out_mapped = gaussian_distributional_transform(DataMatrix(values=mapped))
    np.testing.assert_allclose(out_base.values, out_mapped.values, atol=1e-12)


def test_gdt_preserves_labels(rng):
    data = DataMatrix(values=rng.standard_normal((10, 2)),
                      labels=np.arange(10) % 2)
    out = gaussian_distributional_transform(data)
    np.testing.assert_array_equal(out.labels, data.labels)


def test_feature_tie_counts(rng):
    data = DataMatrix(values=np.array([[1.0, 5.0], [1.0, 6.0], [2.0, 7.0]]))
    counts = feature_tie_counts(data)
    assert counts[0] > 0
    assert counts[1] == 0
