"""CSV ingestion with precise diagnostics and the Gaussian rank transform.

The Gaussian distributional transform (GDT) replaces each feature by the
normal scores of its mid-offset ranks: with average ranks r_j over n rows,
u = (r - 0.5) / n and x' = ndtri(u).  Ties share average ranks, u stays
strictly inside (0, 1) so the output is always finite, and any monotone
increasing per-feature distortion of the input leaves the output unchanged.
The quantile function is scipy's ndtri, the Cephes rational-minimax
approximation of the probit, accurate far beyond the 1e-9 needed here.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata

from .model import DataMatrix


class CsvFormatError(ValueError):
    pass


class EmptyCsv(CsvFormatError):
    """The file has no data rows."""


class RaggedRow(CsvFormatError):
    """A row's cell count disagrees with the first row's."""

    def __init__(self, line: int, expected: int, got: int):
        super().__init__(
            f"line {line}: expected {expected} cells, got {got} (ragged row)"
        )
        self.line = line


class NonNumericCell(CsvFormatError):
    """A feature cell could not be parsed as a float."""

    def __init__(self, line: int, column: int, cell: str):
        super().__init__(
            f"line {line}, column {column}: non-numeric cell {cell!r}"
        )
        self.line = line
        self.column = column


def _first_row_is_header(rows, label_idx, path) -> bool:
    """Whether the first of the numbered ``rows`` names the columns.

    It does when a non-empty cell outside the label column is not a number,
    or when its label cell does not recur further down the label column;
    the second case warns.
    """
    first = rows[0][1]
    for j, cell in enumerate(first):
        if j != label_idx and cell.strip():
            try:
                float(cell)
            except ValueError:
                return True
    if label_idx is None:
        return False
    name = first[label_idx].strip()
    if any(
        row[label_idx].strip() == name for _, row in rows[1:] if len(row) > label_idx
    ):
        return False
    warnings.warn(
        f"{path}: line 1 is read as a header because its label {name!r} does "
        f"not occur again in column {label_idx}; if it is a sample, it is dropped",
        stacklevel=3,
    )
    return True


def load_csv(
    path,
    *,
    label_column: str | int | None = None,
    return_mapping: bool = False,
):
    """Parse a CSV into a DataMatrix.

    ``label_column`` selects a column (by header name or index) holding
    class labels; categorical values map to integers in order of first
    appearance.  Pass ``return_mapping=True`` to also get that mapping.

    The first row is a header when the label column is given by name, when
    a cell outside the label column is not a number, or when the label
    column is given by index and its first-row cell does not appear again
    in that column; that last case warns, since it cannot tell a header from
    a first sample whose class occurs once.  Otherwise it is data.

    Raises EmptyCsv, RaggedRow or NonNumericCell with one-based line
    numbers on malformed input.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh)]
    rows = [(i + 1, row) for i, row in enumerate(rows) if any(c.strip() for c in row)]
    if not rows:
        raise EmptyCsv(f"{path}: no data rows")

    width = len(rows[0][1])
    label_idx = None
    if isinstance(label_column, str):
        header = [c.strip() for c in rows[0][1]]
        if label_column not in header:
            raise CsvFormatError(f"label column {label_column!r} not in header")
        label_idx = header.index(label_column)
    elif label_column is not None:
        label_idx = int(label_column)
        if not 0 <= label_idx < width:
            raise CsvFormatError(f"label column index {label_idx} out of range")

    if isinstance(label_column, str) or _first_row_is_header(rows, label_idx, path):
        rows = rows[1:]
        if not rows:
            raise EmptyCsv(f"{path}: header only, no data rows")

    n = len(rows)
    p = width - (1 if label_idx is not None else 0)
    values = np.empty((n, p))
    raw_labels = [] if label_idx is not None else None
    for r, (line, row) in enumerate(rows):
        if len(row) != width:
            raise RaggedRow(line, width, len(row))
        c = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                raw_labels.append(cell.strip())
                continue
            try:
                values[r, c] = float(cell)
            except ValueError:
                raise NonNumericCell(line, j + 1, cell) from None
            c += 1

    labels = None
    mapping: dict = {}
    if raw_labels is not None:
        for v in raw_labels:
            if v not in mapping:
                mapping[v] = len(mapping)
        labels = np.array([mapping[v] for v in raw_labels], dtype=np.int64)

    data = DataMatrix(values=values, labels=labels)
    if return_mapping:
        return data, mapping
    return data


def feature_tie_counts(data: DataMatrix) -> np.ndarray:
    """Per feature: number of rows sharing a value with another row."""
    counts = np.empty(data.p, dtype=np.int64)
    for j in range(data.p):
        _, occ = np.unique(data.values[:, j], return_counts=True)
        counts[j] = int(np.sum(occ[occ > 1]))
    return counts


def gaussian_distributional_transform(data: DataMatrix) -> DataMatrix:
    """Map each feature to normal scores of its mid-offset average ranks."""
    y = data.values
    n = data.n
    out = np.empty_like(y)
    constant = []
    for j in range(data.p):
        col = y[:, j]
        if np.all(col == col[0]):
            constant.append(j)
        ranks = rankdata(col, method="average")
        out[:, j] = ndtri((ranks - 0.5) / n)
    if constant:
        warnings.warn(
            f"{len(constant)} constant feature(s) map to all zeros under the "
            f"rank transform: columns {constant[:8]}{'...' if len(constant) > 8 else ''}",
            RuntimeWarning,
            stacklevel=2,
        )
    return DataMatrix(values=out, labels=data.labels)
