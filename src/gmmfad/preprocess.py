"""CSV and label-file ingestion and the Gaussian rank transform.

Only this module decides whether a first line is a header, in a table
(``load_csv``) or a label file (``read_labels``, ``read_label_pair``), and
it codes labels by first appearance (``label_codes``).

The Gaussian distributional transform (GDT) replaces each feature by the
normal scores of its mid-offset ranks: with average ranks r_j over n rows,
u = (r - 0.5) / n and x' = ndtri(u).  Ties share average ranks, u stays
strictly inside (0, 1) so the output is always finite, and any monotone
increasing per-feature distortion of the input leaves the output unchanged.
The quantile function is scipy's ndtri, the Cephes rational-minimax
approximation of the probit, accurate far beyond the 1e-9 needed here.
Every column is ranked in one ``scipy.stats.rankdata`` call, which the
transform imports itself: nothing else in gmmfad loads ``scipy.stats``.
"""

from __future__ import annotations

import csv
import warnings

import numpy as np
from scipy.special import ndtri

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


_LABEL_HEADERS = frozenset({"label", "labels", "cluster", "class", "truth"})


def _header_label(labels, count=None) -> bool:
    """Whether the first of ``labels`` names the column rather than a sample.

    It may only when it does not occur again.  It does when dropping it
    leaves ``count`` labels or, with no count, when some other label recurs,
    so that it is the odd one out of a column of classes.
    """
    rest = labels[1:]
    if labels[0] in rest:
        return False
    if count is None:
        return len(set(rest)) < len(rest)
    return len(rest) == count


def _warn_header(path, label, where=""):
    warnings.warn(
        f"{path}: line 1 is read as a header because its label {label!r} does "
        f"not occur again{where}; if it is a sample, it is dropped",
        stacklevel=4,
    )


def label_codes(labels):
    """(int64 codes, mapping) of a list of labels, coded by first appearance."""
    mapping: dict = {}
    for v in labels:
        if v not in mapping:
            mapping[v] = len(mapping)
    return np.array([mapping[v] for v in labels], dtype=np.int64), mapping


def _first_row_is_header(rows, label_idx, path) -> bool:
    """Whether the first of the numbered ``rows`` names the columns.

    It does when a non-empty cell outside the label column is not a number,
    when its label cell is a usual column name, or, with a warning, when
    that cell is a header by ``_header_label``.
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
    column = [row[label_idx].strip() for _, row in rows if len(row) > label_idx]
    if column[0].lower() in _LABEL_HEADERS:
        return True
    if not _header_label(column):
        return False
    _warn_header(path, column[0], f" in column {label_idx}")
    return True


def _label_lines(path) -> list[str]:
    """A one-label-per-line file's labels, less a usual column name on line 1."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        labels = []
        for row in reader:
            cells = [c.strip() for c in row if c.strip()]
            if len(cells) > 1:
                raise CsvFormatError(
                    f"{path}, line {reader.line_num}: {len(cells)} cells, "
                    "expected one label per line"
                )
            labels.extend(cells)
    if not labels:
        raise CsvFormatError(f"{path}: no labels found")
    if labels[0].lower() in _LABEL_HEADERS:
        labels = labels[1:]
        if not labels:
            raise CsvFormatError(f"{path}: header only, no labels")
    return labels


def read_labels(path, n: int) -> list[str]:
    """The ``n`` labels of a one-label-per-line file, as stripped strings.

    A first label that does not occur again is a header exactly when the
    file holds n + 1 labels; any other count but n is a CsvFormatError.
    """
    labels = _label_lines(path)
    if _header_label(labels, n):
        labels = labels[1:]
    if len(labels) != n:
        raise CsvFormatError(f"{path}: {len(labels)} labels for {n} data rows")
    return labels


def read_label_pair(path_a, path_b) -> tuple[list[str], list[str]]:
    """The labels of two one-label-per-line files that must be of one length.

    A first label that does not occur again is a header when dropping it
    makes the lengths agree.  When they agree already, the first labels are
    dropped, with a warning, only when both are headers by
    ``_header_label`` with no count: neither occurs again, and in each file
    some other label does.  Otherwise every line is a sample.
    """
    a, b = _label_lines(path_a), _label_lines(path_b)
    if len(a) != len(b):
        if _header_label(a, len(b)):
            a = a[1:]
        if _header_label(b, len(a)):
            b = b[1:]
    elif _header_label(a) and _header_label(b):
        _warn_header(path_a, a[0])
        _warn_header(path_b, b[0])
        a, b = a[1:], b[1:]
    if len(a) != len(b):
        raise CsvFormatError(f"{path_a} holds {len(a)} labels, {path_b} {len(b)}")
    return a, b


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
    column is given by index and its first-row cell is a usual column name
    (``label``, ``class``, ...) or a header by the label files' rule with
    no count: it does not appear again in that column, and some other label
    does.  That last case warns, since it cannot tell a header from a
    first sample whose class occurs once.  Otherwise it is data.

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

    labels, mapping = None, {}
    if raw_labels is not None:
        labels, mapping = label_codes(raw_labels)

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
    # imported here: scipy.stats doubles the time of a fresh `import gmmfad`
    from scipy.stats import rankdata

    y = data.values
    out = ndtri((rankdata(y, method="average", axis=0) - 0.5) / data.n)
    constant = np.flatnonzero(np.all(y == y[0], axis=0)).tolist()
    if constant:
        warnings.warn(
            f"{len(constant)} constant feature(s) map to all zeros under the "
            f"rank transform: columns {constant[:8]}{'...' if len(constant) > 8 else ''}",
            RuntimeWarning,
            stacklevel=2,
        )
    return DataMatrix(values=out, labels=data.labels)
