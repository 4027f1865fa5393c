"""Dataset loaders: the bundled WDBC table and the env-configured lymphoma path."""

import sys

import numpy as np
import pytest

from gmmfad.datasets import (
    LYMPHOMA_X_ENV,
    LYMPHOMA_Y_ENV,
    load_lymphoma,
    load_wdbc,
)
from gmmfad.preprocess import CsvFormatError


def test_wdbc_shape_and_class_balance():
    pytest.importorskip("sklearn.datasets")
    data, names = load_wdbc()
    assert data.values.shape == (569, 30)
    assert data.labels is not None and data.labels.shape == (569,)
    assert set(np.unique(data.labels)) == {0, 1}
    assert names == ("malignant", "benign")
    # label codes follow the name tuple: 212 malignant, 357 benign
    assert int(np.sum(data.labels == 0)) == 212
    assert int(np.sum(data.labels == 1)) == 357
    assert np.all(np.isfinite(data.values))


def test_wdbc_without_scikit_learn_names_the_extra(monkeypatch):
    # a None entry in sys.modules makes the import raise ImportError
    monkeypatch.setitem(sys.modules, "sklearn", None)
    monkeypatch.setitem(sys.modules, "sklearn.datasets", None)
    with pytest.raises(ImportError) as exc:
        load_wdbc()
    assert "scikit-learn" in str(exc.value)
    assert "'test' extra" in str(exc.value)


def test_lymphoma_unconfigured_raises_with_guidance(monkeypatch):
    monkeypatch.delenv(LYMPHOMA_X_ENV, raising=False)
    monkeypatch.delenv(LYMPHOMA_Y_ENV, raising=False)
    with pytest.raises(FileNotFoundError) as exc:
        load_lymphoma()
    assert LYMPHOMA_X_ENV in str(exc.value)
    assert LYMPHOMA_Y_ENV in str(exc.value)


def test_lymphoma_round_trip_via_env(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    values = rng.normal(size=(4, 6))
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    np.savetxt(x_path, values, delimiter=",", fmt="%.12g")
    monkeypatch.setenv(LYMPHOMA_X_ENV, str(x_path))
    monkeypatch.setenv(LYMPHOMA_Y_ENV, str(y_path))
    # a header line over the n labels is dropped, as ``fit --labels`` does
    for text in ("0\n1\n2\n0\n", "subtype\n0\n1\n2\n0\n"):
        y_path.write_text(text)
        data = load_lymphoma()
        np.testing.assert_allclose(data.values, values, atol=1e-10)
        assert data.labels.tolist() == [0, 1, 2, 0]


def test_lymphoma_label_length_mismatch(tmp_path):
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    np.savetxt(x_path, np.eye(3), delimiter=",", fmt="%.1f")
    y_path.write_text("0\n1\n")
    with pytest.raises(ValueError):
        load_lymphoma(str(x_path), str(y_path))


def test_lymphoma_rejects_fractional_labels(tmp_path):
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    np.savetxt(x_path, np.eye(3), delimiter=",", fmt="%.1f")
    for text in ("0\n1.7\n2\n", "0\nGCB\n2\n"):
        y_path.write_text(text)
        with pytest.raises(ValueError, match="whole numbers"):
            load_lymphoma(str(x_path), str(y_path))


def test_lymphoma_rejects_a_label_line_of_two_cells(tmp_path):
    # id,label rows used to be flattened: 2 such lines over 4 feature rows
    # loaded as the 4 labels [1, 0, 2, 1]
    x_path = tmp_path / "x.csv"
    y_path = tmp_path / "y.csv"
    np.savetxt(x_path, np.eye(4), delimiter=",", fmt="%.1f")
    y_path.write_text("1,0\n2,1\n")
    with pytest.raises(CsvFormatError, match="line 1") as exc:
        load_lymphoma(str(x_path), str(y_path))
    assert str(y_path) in str(exc.value)
