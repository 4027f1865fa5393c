"""Loaders for the benchmark datasets used in the evaluation suite.

The Wisconsin diagnostic breast cancer table (569 x 30) ships with
scikit-learn, an optional dependency here.  The diffuse large B-cell
lymphoma expression matrix (62 x 4026, three subtypes) is not
redistributable with this package; point the loader at a local CSV export
(see README for how to produce one) directly or through environment
variables.  Its label file is read by ``preprocess.read_labels``, under the
same header rule as ``gmmfad fit --labels``.
"""

from __future__ import annotations

import os

import numpy as np

from .model import DataMatrix
from .preprocess import load_csv, read_labels

LYMPHOMA_X_ENV = "GMMFAD_LYMPHOMA_X"
LYMPHOMA_Y_ENV = "GMMFAD_LYMPHOMA_Y"


def load_wdbc() -> tuple[DataMatrix, tuple[str, ...]]:
    """WDBC features with labels; returns (data, class names by label code)."""
    try:
        from sklearn.datasets import load_breast_cancer
    except ImportError as exc:
        raise ImportError(
            "load_wdbc needs scikit-learn (install the 'test' extra)"
        ) from exc
    raw = load_breast_cancer()
    data = DataMatrix(values=np.asarray(raw.data, dtype=np.float64),
                      labels=np.asarray(raw.target, dtype=np.int64))
    return data, tuple(str(name) for name in raw.target_names)


def lymphoma_paths() -> tuple[str | None, str | None]:
    return os.environ.get(LYMPHOMA_X_ENV), os.environ.get(LYMPHOMA_Y_ENV)


def load_lymphoma(
    features_csv: str | None = None, labels_csv: str | None = None
) -> DataMatrix:
    """Lymphoma expression matrix from local CSV exports.

    ``features_csv`` is a headerless 62 x 4026 numeric CSV; ``labels_csv``
    holds one integer subtype label (0, 1, 2) per feature row, read by
    ``preprocess.read_labels``: a header line is dropped, and a line of two
    cells or a wrong count raises CsvFormatError.  A label that is not a
    whole number raises ValueError.  Defaults come from the
    GMMFAD_LYMPHOMA_X / GMMFAD_LYMPHOMA_Y environment variables.
    """
    env_x, env_y = lymphoma_paths()
    features_csv = features_csv or env_x
    labels_csv = labels_csv or env_y
    if not features_csv or not labels_csv:
        raise FileNotFoundError(
            "lymphoma data not configured; set GMMFAD_LYMPHOMA_X and "
            "GMMFAD_LYMPHOMA_Y to local CSV exports (see README)"
        )
    data = load_csv(features_csv)
    labels = read_labels(labels_csv, data.n)
    try:
        raw = np.array(labels, dtype=np.float64)
    except ValueError:  # a label that is not a number fails the test below
        raw = np.array([np.nan])
    if not np.all(np.isfinite(raw) & (raw == np.round(raw))):
        raise ValueError(f"{labels_csv}: subtype labels must be whole numbers")
    return DataMatrix(values=data.values, labels=raw.astype(np.int64))
