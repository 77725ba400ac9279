"""Dataset container and strict CSV ingestion/emission.

CSV contract: UTF-8, one header row, comma separated, '.' decimal point; a
leading byte-order mark is dropped. Every non-label cell must parse as a
finite real; missing or malformed cells are rejected with 1-based file
coordinates rather than imputed, because silently filled values would
contaminate the scale-invariance guarantees downstream.
"""

import csv
import itertools
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyFile, MissingLabelColumn, NonFiniteValue, ParseError


@dataclass
class Dataset:
    """Column-oriented numeric matrix with an optional label column.

    Treated as immutable after construction.
    """

    name: str
    features: np.ndarray
    feature_names: list[str] = field(default_factory=list)
    labels: np.ndarray | None = None
    label_name: str | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D array (rows x columns)")
        if not np.isfinite(self.features).all():
            raise NonFiniteValue(f"dataset {self.name!r} contains non-finite feature values")
        if not self.feature_names:
            self.feature_names = [f"f{i}" for i in range(self.features.shape[1])]
        if len(self.feature_names) != self.features.shape[1]:
            raise ValueError("feature_names length does not match column count")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape[0] != self.features.shape[0]:
                raise ValueError("labels length does not match row count")
            if self.label_name is None:
                self.label_name = "label"

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def with_features(self, features: np.ndarray) -> "Dataset":
        """Copy of this dataset with replaced feature matrix, labels untouched."""
        return Dataset(
            name=self.name,
            features=features,
            feature_names=list(self.feature_names),
            labels=self.labels,
            label_name=self.label_name,
        )


def _resolve_label_index(header: list[str], label_column) -> int:
    if isinstance(label_column, bool):
        raise TypeError("label_column must be a name or integer index")
    if isinstance(label_column, int):
        if not 0 <= label_column < len(header):
            raise MissingLabelColumn(
                f"label column index {label_column} out of range for {len(header)} columns"
            )
        return label_column
    if label_column in header:
        return header.index(label_column)
    raise MissingLabelColumn(f"no column named {label_column!r} in header {header}")


def _parse(rows, width, feature_idx, label_idx):
    """(features, labels) of every row in one pass; None if any row is ragged
    or any feature cell is not a finite number.

    Python's float stays the parser, so accepted syntax and rounding are the
    same as in _scan.
    """
    if any(len(row) != width for row in rows):
        return None
    cells = itertools.chain.from_iterable(rows)
    if label_idx is not None:
        cells = itertools.compress(cells, itertools.cycle([c != label_idx for c in range(width)]))
    try:
        values = np.fromiter(map(float, cells), np.float64, len(rows) * len(feature_idx))
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    labels = None if label_idx is None else [row[label_idx] for row in rows]
    return values.reshape(len(rows), len(feature_idx)), labels


def _scan(path, header, rows, feature_idx, label_idx):
    """(features, labels) checked cell by cell; raises at the first fault in
    file order, with its 1-based row and column name."""
    features = np.empty((len(rows), len(feature_idx)), dtype=np.float64)
    labels = [] if label_idx is not None else None

    for r, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {r} has {len(row)} cells, header has {len(header)}",
                row=r,
            )
        for out_c, c in enumerate(feature_idx):
            cell = row[c]
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {r}, column {header[c]!r}: "
                    f"cannot parse {cell!r} as a number",
                    row=r,
                    column=header[c],
                ) from None
            if not np.isfinite(value):
                raise NonFiniteValue(
                    f"{path}: row {r}, column {header[c]!r}: non-finite value {cell!r}"
                )
            features[r - 2, out_c] = value
        if labels is not None:
            labels.append(row[label_idx])
    return features, labels


def load_csv(path, label_column=None) -> Dataset:
    """Read a CSV file into a Dataset named after the file's stem.

    label_column selects the label column by header name or zero-based index;
    None means every column is a feature. Parse failures report the 1-based
    file row (header is row 1) and the offending column name. A file that
    parses cleanly is read in one vectorised pass; any fault sends it through
    the cell-by-cell scan, which finds and reports the first one.
    """
    path = Path(path)
    # utf-8-sig drops the byte-order mark that Excel writes before the header
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = list(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: no header row") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8 ({exc})") from None

    if not header or all(h.strip() == "" for h in header):
        raise EmptyFile(f"{path}: empty header row")

    label_idx = None
    if label_column is not None:
        label_idx = _resolve_label_index(header, label_column)
    feature_idx = [i for i in range(len(header)) if i != label_idx]
    if not feature_idx:
        raise ParseError(f"{path}: no feature columns besides the label", row=1)

    parsed = _parse(rows, len(header), feature_idx, label_idx)
    if parsed is None:
        parsed = _scan(path, header, rows, feature_idx, label_idx)
    features, labels = parsed

    return Dataset(
        name=path.stem,
        features=features,
        feature_names=[header[i] for i in feature_idx],
        labels=np.array(labels) if labels is not None else None,
        label_name=header[label_idx] if label_idx is not None else None,
    )


def _same(st, file) -> bool:
    """Whether `file`, a path or an open descriptor, is the file `st` describes."""
    try:
        return os.path.samestat(st, os.stat(file))
    except OSError:
        return False


def _replaceable(path) -> Path | None:
    """The resolved target of `path` if it may be replaced by a rename: it
    does not exist yet, or it is a regular file. None for anything else
    (a device such as /dev/null, a FIFO, a terminal, a directory), which
    must be opened and written in place."""
    target = Path(path).resolve()
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return target
    except OSError:
        return None
    # The resolved name must reach the same file: /dev/stdout resolves to a
    # pseudo-name such as "pipe:[123]" under /proc. The file standard output
    # or error is open on, as after `>> log`, is written in place too.
    if stat.S_ISREG(st.st_mode) and _same(st, target) and not (_same(st, 1) or _same(st, 2)):
        return target
    return None


@contextmanager
def replacing(path):
    """Open `path` for writing UTF-8 text, newlines untranslated, so that a
    failed write leaves it intact.

    A regular or new file is written as a new sibling file that replaces
    `path` on exit; if the body raises, the sibling is removed and `path`
    keeps its old contents. A symlink at `path` is followed, as opening it
    would. An OSError from creating or renaming the sibling names `path`, as
    opening it would. Any other target (`_replaceable`) is opened in append
    mode and written in place, so it is never truncated.
    """
    target = _replaceable(path)
    if target is None:
        with open(path, "a", encoding="utf-8", newline="") as fh:
            yield fh
        return
    tmp = target.with_name(f".{target.name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, target)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_csv(dataset: Dataset, path) -> None:
    """Write a Dataset back to CSV, label column (if any) last.

    Feature values render with shortest round-trip precision (csv formats a
    float with repr), so load_csv(save_csv(ds)) reproduces every value bit
    for bit. Rows are formatted one at a time, so no whole-file copy is held.
    """
    header = list(dataset.feature_names)
    if dataset.labels is not None:
        header.append(dataset.label_name)
    rows = map(np.ndarray.tolist, dataset.features)
    if dataset.labels is not None:
        rows = ([*row, label] for row, label in zip(rows, map(str, dataset.labels)))
    with replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
